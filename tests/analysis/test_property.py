"""Property-based soundness: every schedule the compiler emits — over
random DAG kernels, across spill-pressure settings — verifies with
zero findings; and totality: no perturbed stream makes the verifier
raise.

This is the contract the verifier is built on: it may only flag real
invariant violations, so any finding on a freshly compiled program is
either a compiler bug (the thing we want to catch) or a verifier
false positive (which would poison the ``ReasonSession(verify=True)``
hook).  Hypothesis explores kernel shapes the fixed corpus never
will; shrunk counterexamples land in the failure message.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import verify_program
from repro.core.arch.config import DEFAULT_CONFIG
from repro.core.compiler import compile_dag
from repro.core.compiler.program import InstructionKind, Program
from repro.core.dag import circuit_to_dag
from repro.pc.learn import random_circuit

#: Spill-pressure axis: from "never spills" (the default 64x32 file)
#: down to the conftest overflow config where most issues spill.
PRESSURES = (
    DEFAULT_CONFIG,
    replace(DEFAULT_CONFIG, num_banks=4, regs_per_bank=6, num_pes=2),
    replace(DEFAULT_CONFIG, num_banks=2, regs_per_bank=4, num_pes=2),
    replace(DEFAULT_CONFIG, num_banks=2, regs_per_bank=3, num_pes=2),
)


@settings(max_examples=25, deadline=None)
@given(
    num_vars=st.integers(min_value=2, max_value=10),
    depth=st.integers(min_value=1, max_value=3),
    sum_children=st.integers(min_value=2, max_value=3),
    seed=st.integers(min_value=0, max_value=2**16),
    pressure=st.integers(min_value=0, max_value=len(PRESSURES) - 1),
)
def test_compiled_schedules_always_verify_clean(
    num_vars, depth, sum_children, seed, pressure
):
    config = PRESSURES[pressure]
    circuit = random_circuit(
        num_vars, depth=depth, sum_children=sum_children, seed=seed
    )
    dag, _ = circuit_to_dag(circuit)
    program, stats = compile_dag(dag, config)
    report = verify_program(program, config, stats=stats.schedule)
    # Errors would mean a real compiler bug (or a verifier false
    # positive); neither is tolerable on a fresh compile.
    assert report.errors == [], [
        f"{config.num_banks}x{config.regs_per_bank}: {f.describe()}"
        for f in report.errors
    ]
    if report.starved_reads == 0:
        assert report.findings == [], [
            f.describe() for f in report.findings
        ]
    else:
        # The only tolerated findings are the bank-starved warnings
        # themselves — blocks whose same-bank operand demand exceeds
        # regs_per_bank, which no schedule can keep resident.
        assert len(report.findings) == report.starved_reads
        assert all(
            f.severity == "warning"
            and f.invariant == "bank-capacity"
            and "bank-starved" in f.message
            for f in report.findings
        )


@settings(max_examples=10, deadline=None)
@given(
    num_vars=st.integers(min_value=3, max_value=8),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_spilling_schedules_verify_clean_without_stats(num_vars, seed):
    """The stats-free entry point (what the session hook uses when an
    artifact carries no schedule stats) is just as sound."""
    config = PRESSURES[-1]
    circuit = random_circuit(num_vars, depth=3, sum_children=3, seed=seed)
    dag, _ = circuit_to_dag(circuit)
    program, _ = compile_dag(dag, config)
    report = verify_program(program, config)
    assert report.errors == [], [f.describe() for f in report.errors]
    assert all("bank-starved" in f.message for f in report.findings)


# ------------------------------------------------------------- totality

_SITE = st.integers(min_value=0, max_value=10**6)  # taken modulo the length
_SLOT = st.tuples(st.integers(-1, 4), st.integers(-1, 4))
#: One edit of a stream: drop, duplicate or reorder instructions, or
#: rewrite one field of one instruction.
_EDITS = st.one_of(
    st.tuples(st.just("drop"), _SITE),
    st.tuples(st.just("duplicate"), _SITE, _SITE),
    st.tuples(st.just("reorder"), _SITE, _SITE),
    st.tuples(st.just("issue_cycle"), _SITE, st.integers(-2, 80)),
    st.tuples(st.just("write"), _SITE, st.none() | _SLOT),
    st.tuples(st.just("reads"), _SITE, st.lists(_SLOT, max_size=3)),
    st.tuples(st.just("value"), _SITE, st.integers(-1, 60)),
    st.tuples(st.just("kind"), _SITE, st.sampled_from(InstructionKind)),
)


def _perturb(program, edits):
    instructions = list(program.instructions)
    for edit, site, *argument in edits:
        if not instructions:
            break
        site %= len(instructions)
        if edit == "drop":
            del instructions[site]
        elif edit == "duplicate":
            at = argument[0] % (len(instructions) + 1)
            instructions.insert(at, instructions[site])
        elif edit == "reorder":
            other = argument[0] % len(instructions)
            instructions[site], instructions[other] = (
                instructions[other],
                instructions[site],
            )
        else:
            instructions[site] = replace(instructions[site], **{edit: argument[0]})
    return Program(instructions, root_value=program.root_value, dag=program.dag)


@settings(max_examples=150, deadline=None)
@given(edits=st.lists(_EDITS, min_size=1, max_size=4))
def test_verifier_is_total_on_perturbed_streams(overflow_schedule, tiny_regfile, edits):
    """Whatever a broken compiler emits, the verifier reports on it: it
    never raises, and verifying the same stream twice gives equal
    reports (the machine keeps no state between calls)."""
    program, stats = overflow_schedule
    mutant = _perturb(program, edits)
    report = verify_program(mutant, tiny_regfile, stats=stats.schedule)
    assert verify_program(mutant, tiny_regfile, stats=stats.schedule) == report
