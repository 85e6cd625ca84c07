"""Report identity: the modeled clock of every ``build_trace`` kernel
is pinned to a recorded digest.

The digests were recorded at the last commit that still gated the live
stack against the frozen pre-optimization implementations
(``benchmarks/golden_hotpath.py``, deleted with this test's arrival),
so "equal to the digest" carries that gate forward: any drift in
result, cycles, seconds, energy, power, utilization or the integer
counters of a cold ``reason``-backend run fails, naming the kernel —
and so does any drift in the warm second run of a caching session,
which is a report over the first run's stored summary rather than an
execution, and must hash to the same digest.
They do not depend on ``PYTHONHASHSEED`` (recorded identical under 0,
1, 12345 and ``random``).  A deliberate change to the modeled clock
re-records them with ``report_digest`` below and says why.

The compiled VLIW stream of every kernel that has one is pinned the
same way (``RECORDED_PROGRAMS``, recorded at 26a2d5e before the
probabilistic front end was vectorised): a front-end optimisation may
change how fast a ``Program`` is produced, never one field of one
instruction in it.  ``hmm/rand-10`` alone was re-recorded in PR 19: the
program recorded for it failed the static verifier (operands read at
addresses nothing wrote, after their registers were freed before the
last reader issued); its report digest did not move.  Every corpus
kernel now also has to pass the verify gate.

The traced event stream of the symbolic replay is pinned too
(``RECORDED_TRACES``, recorded at 33175a4 before the replay loop lost
its FIFO queue and its statistics): order, cycles and operands of every
event, under the default config and under each config switch the loop
branches on.  ``dram_latency_cycles=3`` is the only way the
``DMA_FETCH`` branch runs at these sizes.
"""

import hashlib
import random
from dataclasses import replace
from typing import List, Tuple

import pytest

from repro import ReasonSession
from repro.core.arch.config import DEFAULT_CONFIG
from repro.hmm.model import HMM
from repro.logic.generators import pigeonhole, random_ksat
from repro.pc.learn import random_circuit, sample_dataset


def build_trace(tiny: bool = False) -> List[Tuple[str, object, dict]]:
    """Deterministic mixed cold trace: (name, kernel, run options).
    Changing a kernel here means re-recording its digests below."""
    if tiny:
        circuit = random_circuit(6, depth=2, sum_children=2, seed=3)
        hmm = HMM.random(6, 5, seed=1)
        return [
            ("cnf/ksat-40", random_ksat(40, 160, seed=7), {}),
            (
                "circuit/rand-6",
                circuit,
                {"calibration": sample_dataset(circuit, 8, seed=5)},
            ),
            ("hmm/rand-6", hmm, {"hmm_observations": [0, 1, 2, 3, 4, 0, 1, 2]}),
        ]
    circuit_a = random_circuit(10, depth=3, sum_children=3, seed=3)
    circuit_b = random_circuit(12, depth=3, sum_children=3, seed=9)
    hmm_a = HMM.random(10, 8, seed=1)
    hmm_b = HMM.random(12, 6, seed=2)
    hmm_calibration = [
        [observation % 8 for observation in hmm_a.sample(20, random.Random(4))[1]]
    ]
    return [
        ("cnf/ksat-120", random_ksat(120, 500, seed=7), {}),
        ("cnf/php-5", pigeonhole(5), {}),
        (
            "circuit/rand-10",
            circuit_a,
            {"calibration": sample_dataset(circuit_a, 256, seed=5)},
        ),
        (
            "circuit/rand-12",
            circuit_b,
            {"calibration": sample_dataset(circuit_b, 128, seed=6)},
        ),
        ("hmm/rand-10", hmm_a, {"calibration": hmm_calibration}),
        ("hmm/rand-12", hmm_b, {"hmm_observations": [i % 6 for i in range(12)]}),
    ]


RECORDED = {
    "cnf/ksat-120": "ce778d1e11fe86286a55b26353a4241ec6415fade47eaf246ef7c457ef369107",
    "cnf/php-5": "efb0482395e462f8eb562b350982f3e3230bcecbed7c0c2af75f5c15d899104c",
    "circuit/rand-10": "c9764717da35fedb88fb8f36687ec0a551b35341dcc2d269db5985ef0296fffd",
    "circuit/rand-12": "80f281330bb298e1973daa8f46cd9005006e151adfe87b7e841903c0d3cd27e2",
    "hmm/rand-10": "6c3c54d39ce5edcb5c11246e1edcfad4ed743494241bc1ad908f3020d2d9e0c7",
    "hmm/rand-12": "64a4494d56583e516e7ee768ca01ee135d7e6692b520eab53f21c52093ec2bb5",
    "cnf/ksat-40": "326ba9e8a53d4c1695cfcd0ff16b2858d6de04d5aa79f19c82d3071879b20126",
    "circuit/rand-6": "920584916977682707204c59e326504c2fbcc9f540e82e252d1706e293870346",
    "hmm/rand-6": "b0515ffd1c2b406f97635aa6ffb66c9218a1aa5d348dc58c9ec144174d0a9070",
}

RECORDED_PROGRAMS = {
    "circuit/rand-10": "b450029b26ac88cac1dec82e89e639cb61707cfe98b3dc3ded827c60e1e4b74d",
    "circuit/rand-12": "fbc96c898923f1a2a47f2199d82e8cf1fed116751ac0957133895be7f98c74c8",
    "hmm/rand-10": "c722a3b8516047b059e8d46cef5231dce62728ba9898c5552ce177d0fe869a60",
    "hmm/rand-12": "e8fbd6b3f615c62b94fc8bc353f73f4bd6453b6e5e56e67f3827ffc26fbb0329",
    "circuit/rand-6": "9dba77ccd2b90e7bcc4a088aae0689ec10b8b46320e0fe96b3f17cb1ee487b82",
    "hmm/rand-6": "0069ab546470419ba9689f2d735b08eed61389785cde49e6f5a4c012ac81b684",
}

#: (``build_trace`` cnf entry, ``ArchConfig`` overrides) -> sha256 of
#: ``session.run(kernel, trace=True).extras["trace_data"]``.
RECORDED_TRACES = {
    ("cnf/ksat-120", ()): "6733aa5f3159addad45e58859259c71b9fc770b2c745bb169ddfb53a30b51bef",
    ("cnf/php-5", ()): "6a1a37d2ec3f78149cb95620bec0bb79e5cd6dc7ea362837897925fd4568b7bf",
    ("cnf/ksat-40", (("linked_list_layout", False),)): "e20bb6efe66232c8aab8bfca7bee4047a6a5923c2b8a5a4fcbc8db5db8b8b4c3",
    ("cnf/ksat-40", (("pipelined_scheduling", False),)): "a2143229b4381a3dc8ced019da45dc714d9c12e966869e7ffd1f7c315ab13b80",
    ("cnf/php-5", (("dram_latency_cycles", 3),)): "b7ddc3d9dbcb88b923d7c9d514049b4cbc64067070d1ca7addc18e5d7539141a",
}


def report_counters(report):
    """The integer ``extras`` (decisions, conflicts, instructions,
    stalls, ...), sorted — bools and wall-clock floats excluded."""
    return sorted((key, value) for key, value in report.extras.items() if type(value) is int)


def report_digest(report) -> str:
    payload = repr((report.identity(), report_counters(report)))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def program_digest(program) -> str:
    """Every instruction's kind, operand reads, write-back, issue cycle,
    PE, tree configuration, leaf operands and moved value."""
    rows = [
        (
            i.kind.value,
            tuple(i.reads),
            i.write,
            i.issue_cycle,
            i.pe,
            tuple(
                (c.position, c.op.value if c.op else None, c.child_weights)
                for c in i.tree_config
            ),
            tuple(sorted(i.leaf_operands.items())),
            i.value,
        )
        for i in program.instructions
    ]
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("tiny", [True, False], ids=["tiny", "full"])
def test_compiled_programs_match_recorded_digests(tiny):
    drifted = []
    for name, kernel, options in build_trace(tiny=tiny):
        program = ReasonSession().compile(kernel, **options).program
        if program is None:  # logic kernels replay a solver trace
            assert name.startswith("cnf/")
            continue
        if program_digest(program) != RECORDED_PROGRAMS[name]:
            drifted.append(f"{name}: {len(program)} instructions, {sorted((k, [i.kind.value for i in program.instructions].count(k)) for k in {i.kind.value for i in program.instructions})}")
    assert not drifted, "compiled program drifted on: " + "; ".join(drifted)


@pytest.mark.parametrize("tiny", [True, False], ids=["tiny", "full"])
def test_every_corpus_kernel_passes_the_verify_gate(tiny):
    session = ReasonSession(verify=True)  # raises ProgramVerificationError
    for name, kernel, options in build_trace(tiny=tiny):
        report = session.run(kernel, **options)
        assert report_digest(report) == RECORDED[name], name


@pytest.mark.parametrize("tiny", [True, False], ids=["tiny", "full"])
def test_cold_reports_match_recorded_digests(tiny):
    caching = ReasonSession()
    drifted = []
    for name, kernel, options in build_trace(tiny=tiny):
        caching.run(kernel, backend="reason", **options)
        warm = caching.run(kernel, backend="reason", **options)
        assert warm.cache_hit and not warm.executed
        cold = ReasonSession().run(kernel, backend="reason", **options)
        assert not cold.cache_hit and cold.executed
        for label, report in (("cold", cold), ("warm", warm)):
            if report_digest(report) != RECORDED[name]:
                drifted.append(
                    f"{name} ({label}): {report.identity()} {report_counters(report)}"
                )
    assert not drifted, "modeled clock drifted on: " + "; ".join(drifted)


def test_traced_replays_match_recorded_digests():
    kernels = {
        name: kernel
        for tiny in (True, False)
        for name, kernel, _ in build_trace(tiny=tiny)
    }
    drifted = []
    for (name, overrides), recorded in RECORDED_TRACES.items():
        session = ReasonSession(config=replace(DEFAULT_CONFIG, **dict(overrides)))
        data = session.run(kernels[name], trace=True).extras["trace_data"]
        if hashlib.sha256(data).hexdigest() != recorded:
            drifted.append(f"{name} {dict(overrides)}")
    assert not drifted, "traced event stream drifted on: " + "; ".join(drifted)
