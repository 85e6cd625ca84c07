"""Every verifier finding, pinned byte for byte.

Each case is a sha256 over the report's ordered ``describe()`` lines
plus its ``computes``, ``ghost_reads`` and ``starved_reads`` counters:
the nine catalogued mutations planted in two spill-heavy programs (the
corpus's ``overflow`` circuit and ``hmm``, both on the 2x3 register
file), the corpus's hand-built ``NEGATIVES``, and the four
``verify_execution`` drift cases of ``test_verifier.py``.  The digests were recorded at
b77a3dd, before ``verify_program`` became a rule table; a verifier
change that keeps every finding, its wording and its order passes them
unedited.  The mutation and drift digests were re-recorded when a SUM's
balanced reduction began carrying its children's weights, which changed
both programs; every mutation is still caught under its own invariant,
which the test asserts beside the digest.
"""

import dataclasses
import hashlib

import pytest

from repro.analysis import expected_energy_events, verify_execution, verify_program
from repro.analysis.mutations import CATALOG, apply_mutation
from repro.core.arch.accelerator import ReasonAccelerator
from repro.core.arch.config import DEFAULT_CONFIG
from repro.core.compiler import compile_dag
from repro.core.compiler.program import Program
from repro.core.dag import default_leaf_inputs

from tests import corpus
from tests.corpus import NEGATIVES, TINY_REGFILE

PINNED = {
    "mutation/overflow/bank-overflow": "ae86d3c7ff59e7bac7d1bfebe49d16c0d76f97ff630dfd3cce81672728f26ce2",
    "mutation/overflow/clobber-write": "2b30e4f095b8b280d81c6e00cfa079c501836f586e457355022df9bb157e0081",
    "mutation/overflow/drop-spill": "337af4893197255d37bd645eb12843106ccd76761f4d5f6dcc8d242c12f58337",
    "mutation/overflow/hazard": "d09c84c4af10204ca801433daca1f3540018c8b9cee29f0cec1fdebd8a46510e",
    "mutation/overflow/stale-address": "11122dbce6ad19d1443737e00aa43a41a1709f7e1e7679f34ee3f026ddc8a6b7",
    "mutation/overflow/stale-reload": "03b1dcda7cc90f5fe791f366f4d1c832bb9a78c4a07b46195a911019e9b613df",
    "mutation/overflow/stats-drift": "984b4e2a883154f815c1aa3aaef9dd0834fb9c07ff000775ae2df9085f68e0b9",
    "mutation/overflow/swap-dependents": "5dcfe58267b8e6512c71cb64e86ee60f3279cfe14a7e37bd392ed18761248c4e",
    "mutation/overflow/time-travel": "3147b8bf4078848b205846e822b52f8fbda90a8aee5ef054ddea1e74e4c24bf6",
    "mutation/hmm/bank-overflow": "73cfc4fa41da0f5bf61bb5033b07228ba19401b5b74ee3ccdfcfe146e3b751b8",
    "mutation/hmm/clobber-write": "4f6a43e5bec2b81715519b4af681da1fd2e6ed85363e6a16441b3ee7c6c76fa9",
    "mutation/hmm/drop-spill": "aa3c60bdd4708fdd78ed65762976712a2862181b4e731d9b7b8a51dcf3cde244",
    "mutation/hmm/hazard": "d0fdc878ef6cd57f154b542a5788ef41f0a3f645fe3025ca2c3923f0f7a0714e",
    "mutation/hmm/stale-address": "7440d36e8b620c0980cacb3a18f381725ceb017ff71adfaba17fa56a70af309d",
    "mutation/hmm/stale-reload": "7f4fefbc6f3fa94491269f41bf83ee060eb75bb0c833bac3d4c70d2972d2e217",
    "mutation/hmm/stats-drift": "1fb61d8f5ec9e0271e0dfb9c9189ebca88dc1066e53e48a4205a1c2a8622cac7",
    "mutation/hmm/swap-dependents": "27f2853aca5496fd1c6202fd322f4bf658fcb2e66efe2c0156d8a0a22b56b9d4",
    "mutation/hmm/time-travel": "83eba0f7095b97430349841a367cf51b1dd5353540d9ccb545c6b6fdb158b232",
    "negative/write-without-slot": "4f661d423cfe6acd33b10cb66dff5b44d61bfa8ccf9e475e6d438a5be18260d2",
    "negative/fractional-addresses-overfill-a-bank": "fc415919bda592af9f4b8c187dc8375146946fb70256e3a0faa645664f7acbde",
    "negative/reload-of-resident": "a6ec1cc0b5ec7cb5ac3e752f881a4234a5d8f61002babbd0f0ca3954038c455c",
    "negative/spill-reads-wrong-register": "0655097336c1a6f2eef90d8192a349fe3a16dd2b5f8b9d2cef3fba9e7f3184cb",
    "negative/store-of-undefined": "a1a1f3ef8ff5f1fe968b17e47b9533397870da31f7bfe40fa0f039165bf243ce",
    "negative/operand-read-at-stale-address": "e15d939a02f22feba692164b8de8943a4f5812dc132f7062b2c48d40b163e105",
    "negative/root-never-written": "eecb78fc7b85c62a3f5dd1e0d7029d445e14922a03802f9ee7236ecd17d960b1",
    "negative/nop-in-a-busy-cycle": "154daaab6c2a04cbaea0b1df1c2e77f7fffa76db0572294cf5e73dfe0719798a",
    "negative/unaccounted-cycle": "30a3ede5a7c7b5f335bf944b2907c8a33099bcef6fad2a63c2ece43b44327c66",
    "execution/stalls": "79386a8b1a4b9217f586640de61269731a0affa4b4b2a56d905f9aba57e533b5",
    "execution/cycles": "52d34292c31e7ab879efb2c5040ed42aaf94f8a3579e819b7e3d20dd8a2fd503",
    "execution/instructions": "af478655f0b105b02e2066b3a9d81b5a2f2004f5828491593e166c056a76bd2f",
    "execution/energy": "8a01d923f0e14e818019b3ca31548bc4b84d31ff281ef7a6b3929aa858904f1b",
}


def report_digest(report) -> str:
    lines = report.describe() + [
        f"computes={report.computes}",
        f"ghost_reads={report.ghost_reads}",
        f"starved_reads={report.starved_reads}",
    ]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def schedules(overflow_schedule):
    program, stats = compile_dag(corpus.build("hmm")[0], TINY_REGFILE)
    return {
        "overflow": (overflow_schedule[0], overflow_schedule[1].schedule),
        "hmm": (program, stats.schedule),
    }


def _mutation_report(schedules, kernel, name):
    program, stats = schedules[kernel]
    mutant, mutant_stats = apply_mutation(name, program, stats)
    return verify_program(mutant, TINY_REGFILE, stats=mutant_stats)


def _negative_report(name):
    instructions = NEGATIVES[name][0]
    config = dataclasses.replace(DEFAULT_CONFIG, regs_per_bank=2)
    return verify_program(Program(instructions, root_value=5), config)


def _drift_report(schedules, drift):
    program, _ = schedules["overflow"]
    execution = ReasonAccelerator(TINY_REGFILE).run_program(
        program, default_leaf_inputs(program.dag)
    )
    if drift == "energy":
        delta = dict(expected_energy_events(program))
        delta["sram_access"] += 1
        return verify_execution(program, execution, TINY_REGFILE, energy_delta=delta)
    fields = {
        "stalls": {"stalls": execution.stalls + 1},
        "cycles": {"cycles": 1},
        "instructions": {"instructions": execution.instructions + 1},
    }[drift]
    drifted = dataclasses.replace(execution, **fields)
    return verify_execution(program, drifted, TINY_REGFILE)


def test_every_case_is_pinned():
    cases = {f"mutation/{k}/{name}" for k in ("overflow", "hmm") for name in CATALOG}
    cases |= {f"negative/{name}" for name in NEGATIVES}
    cases |= {f"execution/{d}" for d in ("stalls", "cycles", "instructions", "energy")}
    assert set(PINNED) == cases


@pytest.mark.parametrize("case", PINNED)
def test_findings_match_pinned_digest(schedules, case):
    family, _, rest = case.partition("/")
    if family == "mutation":
        kernel, _, name = rest.partition("/")
        report = _mutation_report(schedules, kernel, name)
        invariant = CATALOG[name].invariant
        assert any(f.severity == "error" and f.invariant == invariant for f in report.findings)
    elif family == "negative":
        report = _negative_report(rest)
    else:
        report = _drift_report(schedules, rest)
    assert report_digest(report) == PINNED[case]
