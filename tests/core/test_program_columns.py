"""A compiled :class:`Program` is its columns.

The VLIW stream is stored as per-instruction int columns and flat
tables; :attr:`Program.instructions` builds ``VLIWInstruction`` copies
on demand and ``Program(instructions, ...)`` converts them back.  These
tests hold the two representations to each other, the columns to a
constant count of collector-tracked objects, and a store entry written
while a program was a list of instructions to a miss.
"""

import gc
import pickle

import pytest

from repro import ReasonSession
from repro.api import DiskStore
from repro.core.compiler import compile_dag
from repro.core.compiler.program import (
    InstructionKind,
    Program,
    TreeNodeConfig,
    VLIWInstruction,
)
from repro.core.dag import circuit_to_dag
from repro.core.dag.graph import OpType
from repro.pc.learn import random_circuit

from tests import corpus


def rebuilt(program: Program) -> Program:
    return Program(program.instructions, program.root_value, program.dag)


def columns(program: Program) -> dict:
    """Everything a program holds but its DAG."""
    return {name: value for name, value in vars(program).items() if name != "dag"}


@pytest.fixture(scope="module")
def programs():
    """The program of every circuit and HMM of the corpus's trace."""
    compiled = []
    for name in corpus.probabilistic():
        kernel, options = corpus.build(name)
        compiled.append(ReasonSession().compile(kernel, **options).program)
    assert len(compiled) == 6 and None not in compiled
    return compiled


def test_instructions_convert_back_column_for_column(programs, overflow_schedule):
    for program in programs + [overflow_schedule[0]]:
        again = rebuilt(program)
        assert columns(again) == columns(program) and again.dag is program.dag
        assert again.instructions == program.instructions


def test_instructions_are_the_recorded_stream_across_a_pickle(programs):
    """The restored stream's digest is held to the recorded one by
    ``test_report_identity.py::test_compiled_programs_match_recorded_digests``."""
    for program in programs:
        restored = pickle.loads(pickle.dumps(program, protocol=pickle.HIGHEST_PROTOCOL))
        assert columns(restored) == columns(program)
        assert restored.instructions == program.instructions


def test_instructions_are_fresh_copies(overflow_schedule):
    program = overflow_schedule[0]
    before = program.instructions
    stream = program.instructions
    assert stream == before and stream[0] is not before[0]
    compute = next(i for i in stream if i.kind is InstructionKind.COMPUTE)
    compute.reads.append((0, 0))
    compute.leaf_operands[99] = 99
    compute.tree_config.clear()
    stream[0].issue_cycle = 10**6
    del stream[-1]
    assert program.instructions == before


def test_hand_built_fields_round_trip():
    """What a hand-built stream may hold that a scheduler never emits:
    a write to a negative bank, a SUM without weights, a config on a
    NOP, leaf operands out of position order."""
    stream = [
        VLIWInstruction(InstructionKind.LOAD, write=(-1, 4), value=3),
        VLIWInstruction(
            InstructionKind.COMPUTE,
            block_id=2,
            reads=[(1, 0), (1, 1)],
            write=(0, 0),
            tree_config=[TreeNodeConfig(0, OpType.SUM), TreeNodeConfig(1, None)],
            issue_cycle=0,
            pe=1,
            leaf_operands={3: 7, 1: 5},
            output_value=9,
        ),
        VLIWInstruction(
            InstructionKind.NOP,
            issue_cycle=-2,
            tree_config=[TreeNodeConfig(2, OpType.SUM, (0.5, 0.25))],
        ),
    ]
    program = Program(stream, root_value=9)
    assert program.instructions == stream
    assert list(program.instructions[1].leaf_operands) == [3, 1]
    assert len(program) == 3
    restored = pickle.loads(pickle.dumps(program))
    assert columns(rebuilt(restored)) == columns(program)


def tracked_below(program: Program) -> int:
    """Objects the cyclic collector tracks that are reachable from
    ``program`` but not from its DAG (a SUM config's weights are the
    DAG's own tuple)."""
    seen, stack = set(), [program.dag]
    while stack:  # everything the DAG reaches
        item = stack.pop()
        if id(item) not in seen and not isinstance(item, type):
            seen.add(id(item))
            stack.extend(gc.get_referents(item))
    tracked, stack = 0, [program, vars(program)]
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        tracked += gc.is_tracked(item)
        if isinstance(item, (list, tuple, dict)):
            stack.extend(item.values() if isinstance(item, dict) else item)
    return tracked


def test_tracked_objects_do_not_grow_with_the_stream():
    dag, _ = circuit_to_dag(random_circuit(12, depth=4, sum_children=3, seed=4))
    large, _ = compile_dag(dag)
    small = Program(large.instructions[:10], large.root_value, large.dag)
    assert len(small) == 10 and len(large) >= 1000
    assert tracked_below(small) == tracked_below(large) < 40


def test_an_entry_with_a_list_of_instructions_program_is_a_counted_miss(
    tmp_path, monkeypatch
):
    # Entries written while a Program pickled as a list of
    # VLIWInstruction objects: one miss each, counted, then recompiled
    # and rewritten in the column format — never a failed request.
    circuit, options = corpus.build("circuit/rand-6")

    def list_of_instructions(program):
        return {
            "instructions": program.instructions,
            "root_value": program.root_value,
            "dag": program.dag,
        }

    monkeypatch.setattr(Program, "__getstate__", list_of_instructions, raising=False)
    baseline = ReasonSession(store=DiskStore(tmp_path)).run(circuit, **options)
    monkeypatch.undo()
    store = DiskStore(tmp_path)
    fresh = ReasonSession(store=store)
    report = fresh.run(circuit, **options)
    assert not report.cache_hit and fresh.prepare_calls == 1
    assert report.identity() == baseline.identity()
    misses = store.corrupt_misses
    assert misses > 0  # counted, not raised
    (entry,) = store.path.iterdir()
    rewritten = store.get(entry.name[: -len(DiskStore._SUFFIX)])
    assert columns(rebuilt(rewritten.program)) == columns(rewritten.program)
    assert store.corrupt_misses == misses
