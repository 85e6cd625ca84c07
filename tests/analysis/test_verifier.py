"""The static program verifier: sound on real schedules, sharp on bugs."""

import dataclasses

import pytest

from repro.analysis import (
    ProgramVerificationError,
    VerifyReport,
    check_artifact,
    expected_energy_events,
    verify_artifact,
    verify_execution,
    verify_program,
)
from repro.analysis.mutations import (
    CATALOG,
    MutationNotApplicable,
    apply_mutation,
)
from repro.api.adapters import DEFAULT_OPTIONS, CnfAdapter
from repro.api.session import ReasonSession
from repro.core.arch.accelerator import ReasonAccelerator
from repro.core.arch.config import DEFAULT_CONFIG
from repro.core.arch.energy import EVENT_NAMES
from repro.core.compiler import compile_dag
from repro.core.compiler.program import InstructionKind, Program, VLIWInstruction
from repro.core.dag import default_leaf_inputs
from repro.logic.cdcl import SolveResult

from tests import corpus
from tests.corpus import NEGATIVES, TINY_REGFILE


# ------------------------------------------------------------- soundness


def test_overflow_kernel_verifies_clean(overflow_schedule, tiny_regfile):
    """The canonical spill-heavy schedule has zero findings — spills,
    reloads, ghost reads and all."""
    program, stats = overflow_schedule
    report = verify_program(program, tiny_regfile, stats=stats.schedule)
    assert report.ok
    assert report.findings == []
    assert report.instructions == len(program.instructions)
    assert report.computes == sum(i.kind is InstructionKind.COMPUTE for i in program.instructions)
    # The output-allocation path evicts same-instruction operands on
    # this kernel: the verifier must classify those as designed ghost
    # reads, not stale-address errors.
    assert report.ghost_reads > 0


def test_hmm_kernel_verifies_clean_under_pressure():
    program, stats = compile_dag(corpus.build("hmm")[0], TINY_REGFILE)
    assert stats.schedule.spills > 0  # the config is actually starved
    report = verify_program(program, TINY_REGFILE, stats=stats.schedule)
    assert report.findings == []


def _execution_findings(program, config):
    """Run ``program`` for real and compare it with the verifier's
    static prediction of energy events, stalls and the cycle bound."""
    accelerator = ReasonAccelerator(config)
    before = {e: getattr(accelerator.energy, e) for e in EVENT_NAMES}
    execution = accelerator.run_program(program, default_leaf_inputs(program.dag))
    delta = {e: getattr(accelerator.energy, e) - before[e] for e in EVENT_NAMES}
    report = verify_execution(
        program,
        execution,
        config,
        energy_delta={e: delta[e] for e in expected_energy_events(program)},
    )
    return [f.describe() for f in report.findings]


@pytest.mark.parametrize("kernel, pressure", corpus.VERIFIER_CASES)
def test_corpus_verifies_clean_and_execution_agrees(kernel, pressure):
    """Soundness: zero findings, schedule stats included, on everything
    the compiler emits — and the static prediction equals a real
    ``run_program`` exactly."""
    config = corpus.config(pressure)
    program, stats = compile_dag(corpus.build(kernel)[0], config)
    report = verify_program(program, config, stats=stats.schedule)
    assert report.findings == [], [f.describe() for f in report.findings]
    assert _execution_findings(program, config) == []


def test_verify_without_stats_skips_stats_checks(overflow_schedule, tiny_regfile):
    program, _ = overflow_schedule
    report = verify_program(program, tiny_regfile)
    assert report.ok


# ------------------------------------------------------ mutation killing


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_every_planted_mutation_is_caught(name, overflow_schedule, tiny_regfile):
    """Each catalogued bug is flagged under its expected invariant."""
    program, stats = overflow_schedule
    mutation = CATALOG[name]
    mutant, mutant_stats = apply_mutation(name, program, stats.schedule)
    report = verify_program(mutant, tiny_regfile, stats=mutant_stats)
    assert any(
        f.severity == "error" and f.invariant == mutation.invariant
        for f in report.findings
    ), [f.describe() for f in report.findings]


def test_mutations_do_not_touch_the_original(overflow_schedule, tiny_regfile):
    program, stats = overflow_schedule
    for name in CATALOG:
        apply_mutation(name, program, stats.schedule)
    report = verify_program(program, tiny_regfile, stats=stats.schedule)
    assert report.findings == []


def test_stale_reload_reconstruction_matches_pre_pr5_bug(
    overflow_schedule, tiny_regfile
):
    """The flagged site names the spilled value and the fix."""
    program, stats = overflow_schedule
    mutant, mutant_stats = apply_mutation("stale-reload", program, stats.schedule)
    assert len(mutant.instructions) == len(program.instructions) - 1
    report = verify_program(mutant, tiny_regfile, stats=mutant_stats)
    [finding] = report.errors
    assert finding.invariant == "def-before-use"
    assert "spilled and never reloaded" in finding.message
    assert "RELOAD" in finding.hint
    assert 0 <= finding.site < len(mutant.instructions)


def test_mutation_not_applicable_on_spill_free_program():
    program, stats = compile_dag(corpus.build("circuit-s0")[0], DEFAULT_CONFIG)
    assert stats.schedule.spills == 0
    with pytest.raises(MutationNotApplicable):
        apply_mutation("stale-reload", program, stats.schedule)


def test_unknown_mutation_name_raises_keyerror(overflow_schedule):
    program, stats = overflow_schedule
    with pytest.raises(KeyError):
        apply_mutation("no-such-bug", program, stats.schedule)


# ------------------------------------------------- hand-built negatives


def test_undefined_operand_is_flagged():
    program = Program(
        instructions=[corpus.compute(5, [(0, 0)], 0, operands=[3])]
    )
    report = verify_program(program, DEFAULT_CONFIG)
    assert any(
        f.invariant == "def-before-use" and "before any LOAD" in f.message
        for f in report.errors
    )


def test_spill_of_nonresident_value_is_flagged():
    program = Program(
        instructions=[
            VLIWInstruction(
                InstructionKind.SPILL, reads=[(0, 0)], value=9
            )
        ]
    )
    report = verify_program(program, DEFAULT_CONFIG)
    assert any(
        f.invariant == "spill-reload-pairing" for f in report.errors
    )


def test_dead_reload_is_a_warning_not_an_error():
    program = Program(
        instructions=[
            VLIWInstruction(
                InstructionKind.LOAD, write=(0, 0), value=1
            ),
            VLIWInstruction(
                InstructionKind.SPILL, reads=[(0, 0)], value=1
            ),
            VLIWInstruction(
                InstructionKind.RELOAD, write=(0, 1), value=1
            ),
        ]
    )
    report = verify_program(program, DEFAULT_CONFIG)
    assert report.ok  # warnings don't fail verification
    assert any(
        f.severity == "warning" and "no later use" in f.message
        for f in report.findings
    )


@pytest.mark.parametrize("name", NEGATIVES)
def test_every_hand_built_negative_is_flagged(name):
    """One smallest stream per error that no compiled program and no
    catalogued mutant raises."""
    instructions, invariant, message = NEGATIVES[name]
    config = dataclasses.replace(DEFAULT_CONFIG, regs_per_bank=2)
    report = verify_program(Program(instructions, root_value=5), config)
    assert [f.invariant for f in report.errors if f.message == message] == [
        invariant
    ], [f.describe() for f in report.findings]


def test_report_describe(overflow_schedule, tiny_regfile):
    program, stats = overflow_schedule
    mutant, mutant_stats = apply_mutation("stale-reload", program, stats.schedule)
    report = verify_program(mutant, tiny_regfile, stats=mutant_stats)
    assert [f.invariant for f in report.findings] == ["def-before-use"]
    lines = report.describe()
    assert "1 error(s)" in lines[0]
    assert any("stale" in line for line in lines[1:])


# ------------------------------------------------- execution consistency


def test_static_energy_prediction_matches_execution(
    overflow_schedule, tiny_regfile
):
    program, _ = overflow_schedule
    assert _execution_findings(program, tiny_regfile) == []


def test_execution_mismatch_is_flagged(overflow_schedule, tiny_regfile):
    program, _ = overflow_schedule
    accelerator = ReasonAccelerator(tiny_regfile)
    execution = accelerator.run_program(program, default_leaf_inputs(program.dag))
    drifted = dataclasses.replace(execution, stalls=execution.stalls + 1)
    report = verify_execution(program, drifted, tiny_regfile)
    assert any(
        f.invariant == "stats-consistency" and "stalls" in f.message
        for f in report.errors
    )
    short = dataclasses.replace(execution, cycles=1)
    report = verify_execution(program, short, tiny_regfile)
    assert any("lower bound" in f.message for f in report.errors)
    padded = dataclasses.replace(execution, instructions=execution.instructions + 1)
    report = verify_execution(program, padded, tiny_regfile)
    assert any("report.instructions=" in f.message for f in report.errors)


def test_energy_event_drift_is_flagged(overflow_schedule, tiny_regfile):
    program, _ = overflow_schedule
    accelerator = ReasonAccelerator(tiny_regfile)
    execution = accelerator.run_program(program, default_leaf_inputs(program.dag))
    expected = expected_energy_events(program)
    drifted = dict(expected)
    drifted["sram_access"] += 1
    report = verify_execution(
        program, execution, tiny_regfile, energy_delta=drifted
    )
    assert any("sram_access" in f.message for f in report.errors)


# --------------------------------------------------------- artifact hook


def test_check_artifact_passes_good_artifact(overflow_schedule, tiny_regfile):
    program, _ = overflow_schedule

    class FakeArtifact:
        key = "good"

    artifact = FakeArtifact()
    artifact.program = program
    check_artifact(artifact, tiny_regfile)  # no raise


def test_check_artifact_raises_with_report(overflow_schedule, tiny_regfile):
    program, stats = overflow_schedule
    mutant, _ = apply_mutation("stale-reload", program, stats.schedule)

    class FakeArtifact:
        key = "bad"

    artifact = FakeArtifact()
    artifact.program = mutant
    with pytest.raises(ProgramVerificationError) as excinfo:
        check_artifact(artifact, tiny_regfile)
    assert isinstance(excinfo.value.report, VerifyReport)
    assert excinfo.value.report.errors
    assert "bad" in str(excinfo.value)


def test_artifact_without_program_verifies_vacuously():
    class TraceArtifact:
        program = None

    report = verify_artifact(TraceArtifact())
    assert report.ok and report.instructions == 0


# ------------------------------------------------------------- CNF models


def _cnf_artifact(formula):
    return CnfAdapter().prepare(formula, DEFAULT_OPTIONS, DEFAULT_CONFIG)


#: The corpus's search formulas, one entry per distinct formula.
_CNF_CORPUS = sorted(
    name for name in corpus.FAMILIES["search"] if not corpus.build(name)[1]["solver"]
)


@pytest.mark.parametrize("name", _CNF_CORPUS)
def test_every_corpus_cnf_passes_the_model_gate(name):
    """Pruned or not (``redundant-100`` is solved pruned), each SAT
    model satisfies the clauses the kernel was given."""
    ReasonSession(verify=True).run(corpus.build(name)[0])  # the gate raises on a finding


def test_a_corrupted_sat_model_is_flagged_at_its_first_falsified_clause():
    formula = corpus.build("planted-80")[0]
    artifact = _cnf_artifact(formula)
    model = artifact.extras["assignment"]
    # Falsify clause 40: every literal of it made false.
    for literal in formula.clauses[40].literals:
        model[abs(literal)] = literal < 0
    first = next(i for i, c in enumerate(formula.clauses) if c.evaluate(model) is not True)
    assert first <= 40

    report = verify_artifact(artifact)
    assert [(f.rule, f.invariant, f.site) for f in report.findings] == [
        ("falsified-clause", "model-soundness", -1)
    ]
    assert report.findings[0].message.startswith(f"clause {first} ")
    assert str(list(formula.clauses[first].literals)) in report.findings[0].message
    artifact.key = "corrupted"
    with pytest.raises(ProgramVerificationError, match="not satisfied by the SAT model"):
        check_artifact(artifact)

    # An assignment that leaves a clause's variables out is no model either.
    artifact.extras["assignment"] = {}
    assert verify_artifact(artifact).findings[0].message.startswith("clause 0 ")


def test_an_unsat_verdict_is_not_checked_yet():
    artifact = _cnf_artifact(corpus.build("php-5")[0])
    assert artifact.extras["verdict"] is SolveResult.UNSAT
    assert verify_artifact(artifact).findings == []
