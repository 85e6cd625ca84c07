"""Every verifier finding, pinned byte for byte.

Each case is a sha256 over the report's ordered ``describe()`` lines
plus its ``computes``, ``ghost_reads`` and ``starved_reads`` counters:
the nine catalogued mutations planted in two spill-heavy programs (the
corpus's ``overflow`` circuit and ``hmm``, both on the 2x3 register
file), the corpus's hand-built ``NEGATIVES``, and the four
``verify_execution`` drift cases of ``test_verifier.py``.  The digests were recorded at
b77a3dd, before ``verify_program`` became a rule table; a verifier
change that keeps every finding, its wording and its order passes them
unedited.
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
    "mutation/overflow/bank-overflow": "35d58646bbfa9429f07474b54c1ea2590d7a5f59f61bf52fc7f266129db35e9f",
    "mutation/overflow/clobber-write": "752184ead0bd00b74287f9c2638db2e37b7e9ffa5dbf1971c9eba41f3c8d2d0d",
    "mutation/overflow/drop-spill": "1908e82942050cba9c6ebcb286d72b696cf7c1b914817b66c62674ea343e8340",
    "mutation/overflow/hazard": "bfe23a0f5109f0747fcf484b76330d47f86655b91f121b046e93bfb72a9f7935",
    "mutation/overflow/stale-address": "01d8237a65b4674d3d3479f45b354927cfc5a6bb2a868f5fffecb06ca81e0c37",
    "mutation/overflow/stale-reload": "70977b6a7b3ace72ab2741f4c2da9631a9576ee9bdd961637dcd0df25f4f76ba",
    "mutation/overflow/stats-drift": "b1b65da2622b17f2c51f58b1a2e71a324d4d64a02ce8d365f3a409d51060f434",
    "mutation/overflow/swap-dependents": "7565412446164fb91dd702ff933cb55e8ddf987b65aead550868389c2cb99ccf",
    "mutation/overflow/time-travel": "d87662ae3c7b3e9cb978eeff4a59affd106b5891c3f0db84b071de189e63fe1f",
    "mutation/hmm/bank-overflow": "1e9ea02545079a43fcd31a6e3cea3bf720006d155ac25d2ed743ff36179b1653",
    "mutation/hmm/clobber-write": "33d7eebaec0eeb532aa8db1ff41237f61d7caf0ab87d582f5f85904c13123b13",
    "mutation/hmm/drop-spill": "a1083976c16e3062cf79e4c57cbcc388a3eee7e9d93a317b653c06aca6ed8876",
    "mutation/hmm/hazard": "c63a00b4605acc66353f435e1c151811ed88065365ee74a9ec215240daa848b2",
    "mutation/hmm/stale-address": "0eff2ed4214ebbda43d450dfab2093e56b79f9f1932a87ed0c775864c9f80596",
    "mutation/hmm/stale-reload": "11b9d1caba9a11c49dc42ba8539e9c0686b064b074654287c2cb6e9494b843e3",
    "mutation/hmm/stats-drift": "535caa8b9517caee3df3a633ffc7af9e2c66b99a70beb1fe5d89c994fe77aa38",
    "mutation/hmm/swap-dependents": "8db5a490695e6deedda4aa2d32deb10fa7289678e926f8034e60a3321f84a9b0",
    "mutation/hmm/time-travel": "0fbcea31179216220e4e81af9a35ae93e5e44b1d4fdbaeebbe8e3338dd3ebe30",
    "negative/write-without-slot": "4f661d423cfe6acd33b10cb66dff5b44d61bfa8ccf9e475e6d438a5be18260d2",
    "negative/fractional-addresses-overfill-a-bank": "fc415919bda592af9f4b8c187dc8375146946fb70256e3a0faa645664f7acbde",
    "negative/reload-of-resident": "a6ec1cc0b5ec7cb5ac3e752f881a4234a5d8f61002babbd0f0ca3954038c455c",
    "negative/spill-reads-wrong-register": "0655097336c1a6f2eef90d8192a349fe3a16dd2b5f8b9d2cef3fba9e7f3184cb",
    "negative/store-of-undefined": "a1a1f3ef8ff5f1fe968b17e47b9533397870da31f7bfe40fa0f039165bf243ce",
    "negative/operand-read-at-stale-address": "e15d939a02f22feba692164b8de8943a4f5812dc132f7062b2c48d40b163e105",
    "negative/root-never-written": "eecb78fc7b85c62a3f5dd1e0d7029d445e14922a03802f9ee7236ecd17d960b1",
    "negative/nop-in-a-busy-cycle": "154daaab6c2a04cbaea0b1df1c2e77f7fffa76db0572294cf5e73dfe0719798a",
    "negative/unaccounted-cycle": "30a3ede5a7c7b5f335bf944b2907c8a33099bcef6fad2a63c2ece43b44327c66",
    "execution/stalls": "304587c85fede6f08bc548586ad7915cdafeac2bf5e8fe668969a42307924660",
    "execution/cycles": "e8d33aab6d9dc757a8c12a92951604911f82a2fbf288880c58d12fc62dcdb4cb",
    "execution/instructions": "aec197555d5a95871777707ca6a7589e4b665beeef8983fa1ecd2796dacf064e",
    "execution/energy": "f18eb0ed8e278fb2bc3ab05cf2aba4d2fe15f7b9fac1e711444d840a6d3108b0",
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
    elif family == "negative":
        report = _negative_report(rest)
    else:
        report = _drift_report(schedules, rest)
    assert report_digest(report) == PINNED[case]
