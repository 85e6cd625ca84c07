"""``run_program`` counts its costs; these tests walk the stream.

An untraced run charges cycles, stalls, every energy counter and the
per-PE statistics as a closed form of the instruction stream.  Here the
same program runs once more with a trace writer attached, and the
untraced ``ProgramRun`` and chip counters must equal what the traced
stream re-sums to (``cross_validate``, the PE_BLOCK op totals, one
COMPUTE event per control cycle, one memory event per SRAM word) and
what a per-instruction walk of the stream charges — the loop
``run_program`` ran before it counted.  The kernels are the corpus's
``verifier`` family and every program of its trace, under the default
config and the configs that change the stream.
"""

import pytest

from repro import ReasonSession
from repro.core.arch import ReasonAccelerator
from repro.core.arch.energy import EVENT_NAMES, EnergyModel
from repro.core.compiler import compile_dag
from repro.core.compiler.program import InstructionKind
from repro.core.dag import default_leaf_inputs
from repro.core.dag.graph import OpType
from repro.trace import EventKind, TraceReader, TraceWriter, cross_validate

from tests import corpus

#: The configs that change a traced stream.
_STREAM = ("default", "unpipelined", "fixed-function", "4-banks-x-4-regs")
#: (source, kernel, config name): the verifier entries under their own
#: register pressures, and both families under every stream config.
_CASES = (
    [("verifier", kernel, pressure) for kernel, pressure in corpus.VERIFIER_CASES]
    + [("verifier", kernel, config) for kernel in corpus.FAMILIES["verifier"] for config in _STREAM]
    + [("trace", name, config) for name in corpus.probabilistic() for config in _STREAM]
)
_MEMORY = (
    InstructionKind.LOAD,
    InstructionKind.STORE,
    InstructionKind.SPILL,
    InstructionKind.RELOAD,
)
_LOGIC = (OpType.AND, OpType.OR, OpType.NOT)


def _program(source, kernel, config_name):
    config = corpus.config(config_name)
    kernel, options = corpus.build(kernel)
    if source == "verifier":
        return compile_dag(kernel, config)[0], config
    return ReasonSession(config=config).compile(kernel, **options).program, config


def _walked(program, config):
    """Energy counters and cycles of one run on a fresh chip, charged
    one instruction at a time."""
    energy = dict.fromkeys(EVENT_NAMES, 0)
    finish = 0
    for instruction in program.instructions:
        if instruction.kind is InstructionKind.COMPUTE:
            ops = [node.op for node in instruction.tree_config if node.op is not None]
            logic = sum(op in _LOGIC for op in ops)
            energy["logic_op"] += logic
            energy["alu_op"] += len(ops) - logic
            energy["register_access"] += len(instruction.reads) + 1
            energy["network_hop"] += len(instruction.leaf_operands)
            energy["control_overhead"] += 1
            finish = max(finish, instruction.issue_cycle + config.pipeline_stages)
        elif instruction.kind in _MEMORY:
            energy["register_access"] += 1
            energy["sram_access"] += 1
    penalty = 0 if config.reconfigurable else config.num_pes * 4 * config.pipeline_stages
    cycles = max(finish, len(program.instructions)) + penalty
    return energy, cycles


@pytest.mark.parametrize("source, kernel, config_name", _CASES)
def test_untraced_run_is_what_the_walked_stream_resums_to(source, kernel, config_name):
    program, config = _program(source, kernel, config_name)
    inputs = default_leaf_inputs(program.dag)
    plain = ReasonAccelerator(config)
    run = plain.run_program(program, inputs)
    traced = ReasonAccelerator(config)
    writer = TraceWriter()
    traced.attach_trace(writer)
    assert traced.run_program(program, inputs) == run
    writer.close()
    counters = {name: getattr(plain.energy, name) for name in EVENT_NAMES}
    assert {name: getattr(traced.energy, name) for name in EVENT_NAMES} == counters

    # What the traced stream re-sums to.
    data = writer.getvalue()

    class _Report:
        cycles = run.cycles
        queries = 1
        extras = {"instructions": run.instructions, "stalls": run.stalls}

    assert cross_validate(data, _Report()).ok
    records = list(TraceReader(data))
    kinds = [record.kind for record in records]
    ops = sum(record.value for record in records if record.kind is EventKind.PE_BLOCK)
    assert ops == counters["logic_op"] + counters["alu_op"]
    assert kinds.count(EventKind.COMPUTE) == counters["control_overhead"]
    memory = sum(kinds.count(kind) for kind in (EventKind.LOAD, EventKind.STORE,
                                                EventKind.SPILL, EventKind.RELOAD))
    assert memory == counters["sram_access"]

    # What a per-instruction walk charges.
    energy, cycles = _walked(program, config)
    assert counters == energy
    assert run.cycles == cycles
    assert run.stalls == sum(
        1 for i in program.instructions if i.kind is InstructionKind.NOP
    )
    assert run.utilization == ops / max(1, counters["control_overhead"] * config.nodes_per_pe)
    model = EnergyModel(config)
    for name, count in energy.items():
        setattr(model, name, count)
    assert (run.energy_j, run.power_w) == (
        model.total_energy_j(),
        model.average_power_w(cycles),
    )


def test_a_reused_chip_reports_each_run_alone():
    """A second run of the same program on one chip reports the same
    energy, power and utilization as the first (they used to include
    every earlier run's); the chip's own counters keep accumulating."""
    program = ReasonSession().compile(corpus.small("circuit")[0]).program
    inputs = default_leaf_inputs(program.dag)
    fresh = ReasonAccelerator()
    first = fresh.run_program(program, inputs)
    once = {name: getattr(fresh.energy, name) for name in EVENT_NAMES}
    second = fresh.run_program(program, inputs)
    assert second == first == ReasonAccelerator().run_program(program, inputs)
    assert {name: getattr(fresh.energy, name) for name in EVENT_NAMES} == {
        name: 2 * count for name, count in once.items()
    }
