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
"""

import hashlib
import sys
from pathlib import Path

import pytest

from repro import ReasonSession

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
from helpers import build_trace  # noqa: E402

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


def report_counters(report):
    """The integer ``extras`` (decisions, conflicts, instructions,
    stalls, ...), sorted — bools and wall-clock floats excluded."""
    return sorted((key, value) for key, value in report.extras.items() if type(value) is int)


def report_digest(report) -> str:
    payload = repr((report.identity(), report_counters(report)))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("tiny", [True, False], ids=["tiny", "full"])
def test_cold_reports_match_recorded_digests(tiny):
    cold_session, caching = ReasonSession(cache=False), ReasonSession()
    drifted = []
    for name, kernel, options in build_trace(tiny=tiny):
        caching.run(kernel, backend="reason", **options)
        warm = caching.run(kernel, backend="reason", **options)
        assert warm.cache_hit and not warm.executed
        cold = cold_session.run(kernel, backend="reason", **options)
        for label, report in (("cold", cold), ("warm", warm)):
            if report_digest(report) != RECORDED[name]:
                drifted.append(
                    f"{name} ({label}): {report.identity()} {report_counters(report)}"
                )
    assert not drifted, "modeled clock drifted on: " + "; ".join(drifted)
