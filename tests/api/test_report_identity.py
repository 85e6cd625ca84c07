"""Report identity: the modeled clock of every kernel of the corpus's
``tiny`` and ``full`` families (``tests/corpus.py``) is pinned to a
recorded digest.

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
probabilistic front end was vectorised), as compiled and after a
pickle round trip: a front-end optimisation may change how fast a
``Program`` is produced, never one field of one instruction in it.  ``hmm/rand-10`` alone was re-recorded in PR 19: the
program recorded for it failed the static verifier (operands read at
addresses nothing wrote, after their registers were freed before the
last reader issued); its report digest did not move.  Every corpus
kernel now also has to pass the verify gate.  The reports and programs
of every circuit and HMM but ``circuit/rand-6`` were re-recorded when a
SUM's balanced reduction began carrying its children's weights: the
programs shrank, cycles and energy fell, and every ``result`` stayed
bit-identical.

The traced event stream of the symbolic replay is pinned too
(``RECORDED_TRACES``, recorded at 33175a4 before the replay loop lost
its FIFO queue and its statistics): order, cycles and operands of every
event, under the default config and under each config switch the loop
branches on.  ``dram_latency_cycles=3`` is the only way the
``DMA_FETCH`` branch runs at these sizes.
"""

import hashlib
import pickle
from dataclasses import replace

import pytest

from repro import ReasonSession
from repro.core.arch.config import DEFAULT_CONFIG

from tests import corpus

RECORDED = {
    "cnf/ksat-120": "ce778d1e11fe86286a55b26353a4241ec6415fade47eaf246ef7c457ef369107",
    "cnf/php-5": "efb0482395e462f8eb562b350982f3e3230bcecbed7c0c2af75f5c15d899104c",
    "circuit/rand-10": "d82a79cfd1cbeb13c6347e243d4d096dd30bb415109781feecb9f534a5f3c0f7",
    "circuit/rand-12": "f7e924fcc32afc61494c7857e9dc8999fb03b0a1bbd48edf8d5f568aa07dbf36",
    "hmm/rand-10": "a3db6000074176fd5a2e14580c5fffed370e9623baca08f47c9a795f263be519",
    "hmm/rand-12": "7b5815d3f27e4694816d0ec3f90042ec42aa6805fa21af1df99a9f026ca6e487",
    "cnf/ksat-40": "326ba9e8a53d4c1695cfcd0ff16b2858d6de04d5aa79f19c82d3071879b20126",
    "circuit/rand-6": "920584916977682707204c59e326504c2fbcc9f540e82e252d1706e293870346",
    "hmm/rand-6": "ffc4d0c5781a8362d787b865151ae17f39fea96238b0045ce176f6052736a17d",
}

RECORDED_PROGRAMS = {
    "circuit/rand-10": "f734f20464a6707d2e56a600605c564a9ccf35556ccccc8720a2340a7dac00b3",
    "circuit/rand-12": "2bc1625410eb635e9cb9dd525d3365647056d51e9dbc8164a275ea29eb0cc94c",
    "hmm/rand-10": "c19a9cf8bbaa57ce711f2e20a08d0fd5dc8a511114ee5679259de63b20373afe",
    "hmm/rand-12": "8d05d54fc8a575ce6d56325f9ab71e10c385d7e7948b9774fdde494e63b0639c",
    "circuit/rand-6": "9dba77ccd2b90e7bcc4a088aae0689ec10b8b46320e0fe96b3f17cb1ee487b82",
    "hmm/rand-6": "3aab21664bb67319684f383440e63c40b3362c4b921f1b005aa9603e457f0bcb",
}

#: (corpus cnf entry, ``ArchConfig`` overrides) -> sha256 of
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


@pytest.mark.parametrize("family", ["tiny", "full"])
def test_compiled_programs_match_recorded_digests(family):
    """Also across a pickle: a program restored from a store is the
    recorded stream."""
    drifted = []
    for name, kernel, options in corpus.trace(family):
        program = ReasonSession().compile(kernel, **options).program
        if program is None:  # logic kernels replay a solver trace
            assert name.startswith("cnf/")
            continue
        restored = pickle.loads(pickle.dumps(program, protocol=pickle.HIGHEST_PROTOCOL))
        if {corpus.program_digest(program), corpus.program_digest(restored)} != {RECORDED_PROGRAMS[name]}:
            drifted.append(f"{name}: {len(program)} instructions, {sorted((k, [i.kind.value for i in program.instructions].count(k)) for k in {i.kind.value for i in program.instructions})}")
    assert not drifted, "compiled program drifted on: " + "; ".join(drifted)


@pytest.mark.parametrize("family", ["tiny", "full"])
def test_every_corpus_kernel_passes_the_verify_gate(family):
    session = ReasonSession(verify=True)  # raises ProgramVerificationError
    for name, kernel, options in corpus.trace(family):
        report = session.run(kernel, **options)
        assert report_digest(report) == RECORDED[name], name


@pytest.mark.parametrize("family", ["tiny", "full"])
def test_cold_reports_match_recorded_digests(family):
    caching = ReasonSession()
    drifted = []
    for name, kernel, options in corpus.trace(family):
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
    drifted = []
    for (name, overrides), recorded in RECORDED_TRACES.items():
        session = ReasonSession(config=replace(DEFAULT_CONFIG, **dict(overrides)))
        data = session.run(corpus.build(name)[0], trace=True).extras["trace_data"]
        if hashlib.sha256(data).hexdigest() != recorded:
            drifted.append(f"{name} {dict(overrides)}")
    assert not drifted, "traced event stream drifted on: " + "; ".join(drifted)
