"""Compile-cache benchmark: repeated-query serving through ReasonSession.

Serving workloads re-submit structurally identical kernels (the same
guard circuit per prompt, the same constraint HMM per generation step).
This bench measures what the content-hash compile cache buys on that
pattern: a cold pass compiles and executes every kernel, a warm pass is
served from the cache (front end *and* accelerator run), and the report
shows per-pass wall time, the hit rate, and the cold/warm speedup.  The
gate is a count, not a ratio: the accelerator model ran exactly once
per unique kernel.

Run:  python benchmarks/bench_session_cache.py
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from helpers import print_table  # noqa: E402

from repro import ReasonSession  # noqa: E402
from repro.hmm.model import HMM  # noqa: E402
from repro.logic.generators import random_ksat, redundant_sat  # noqa: E402
from repro.pc.learn import random_circuit, sample_dataset  # noqa: E402


def build_requests():
    """A mixed fleet of kernels with per-request options."""
    requests = []
    for seed in range(3):
        formula, _ = redundant_sat(40, 160, redundancy=0.3, seed=seed)
        requests.append((f"sat-{seed}", formula, {}))
    requests.append(("ksat", random_ksat(30, 110, seed=7), {}))
    for seed in range(2):
        circuit = random_circuit(6, depth=3, seed=seed)
        requests.append(
            (f"pc-{seed}", circuit, {"calibration": sample_dataset(circuit, 20, seed=1)})
        )
    hmm = HMM.random(4, 6, seed=9)
    requests.append(("hmm", hmm, {"hmm_observations": [0, 1, 2, 3, 4, 5]}))
    return requests


def run_pass(session, requests, queries=8):
    start = time.perf_counter()
    for _, kernel, kwargs in requests:
        session.run(kernel, backend="reason", queries=queries, **kwargs)
    return time.perf_counter() - start


def main() -> None:
    requests = build_requests()
    session = ReasonSession()

    cold_s = run_pass(session, requests)
    warm_s = run_pass(session, requests)
    warm2_s = run_pass(session, requests)
    stats = session.cache_stats

    rows = [
        ["cold (compile + run)", f"{cold_s * 1e3:9.1f}", "0%"],
        ["warm (cache hit)", f"{warm_s * 1e3:9.1f}", "100%"],
        ["warm, 2nd", f"{warm2_s * 1e3:9.1f}", "100%"],
    ]
    print_table(
        f"Compile cache over {len(requests)} kernels x 8 queries",
        ["pass", "wall ms", "hit rate"],
        rows,
    )
    print(
        f"\ncumulative: {stats.hits}/{stats.lookups} lookups hit "
        f"({stats.hit_rate:.0%}); front end ran {session.prepare_calls}x "
        f"for {3 * len(requests)} requests"
    )
    print(f"cold/warm speedup: {cold_s / warm_s:.1f}x")
    print(
        f"accelerator executions: {session.executions} "
        f"(unique kernels: {len(requests)})"
    )
    if session.executions != len(requests):
        sys.exit("FAIL: accelerator executions != unique kernels")


if __name__ == "__main__":
    main()
