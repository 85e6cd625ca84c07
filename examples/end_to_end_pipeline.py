"""End-to-end GPU+REASON pipeline (paper Sec. VI): kernels through the
front door, then sharded service execution.

Runs a batch of mixed reasoning tasks two ways: one kernel at a time
through `ReasonSession.run` (a SAT formula, then a probabilistic
circuit's unified DAG at 8 queries), and through
`ReasonService.run_batch`, which shards the batch across accelerator
instances (each with its own compile cache), executes on the
accelerator model, and composes each shard's makespan through the
two-level pipeline so the symbolic stage of task N overlaps the neural
stage of task N+1 — and shards overlap each other.

Run:  python examples/end_to_end_pipeline.py
"""

import asyncio

from repro import ReasonService, ReasonSession
from repro.baselines.device import RTX_A6000
from repro.core.dag import circuit_to_dag
from repro.logic.generators import redundant_sat
from repro.pc.learn import random_circuit
from repro.workloads.neural import MODEL_ZOO


def main() -> None:
    session = ReasonSession()

    # A symbolic (SAT) kernel: one query.
    formula, _ = redundant_sat(40, 150, seed=1)
    report = session.run(formula, queries=1)
    print(
        f"SAT kernel: cycles={report.cycles} = {report.seconds * 1e6:.2f} us, "
        f"result={report.result}"
    )

    # A probabilistic circuit kernel, as its unified DAG: 8 queries.
    dag, _ = circuit_to_dag(random_circuit(6, depth=2, seed=2))
    report = session.run(dag, queries=8)
    print(f"circuit DAG (8 queries): cycles={report.cycles}, result={report.result:.4f}")

    # The same idea through the serving API: a mixed batch (SAT + PC
    # kernels) sharded across two accelerator instances, neural stages
    # on the GPU cost model, symbolic stages on REASON, each shard's
    # makespan composed through the two-level pipeline.
    model = MODEL_ZOO["7B"]
    neural_s = RTX_A6000.run(model.generation_profiles(128, 16))
    kernels = [formula, random_circuit(6, depth=2, seed=2)] * 4
    queries = 500_000  # lift the miniature kernels to task-sized symbolic stages
    with ReasonService(shards=2, policy="cache-affinity") as service:
        batch = asyncio.run(
            service.run_batch(
                kernels, backend="reason", queries=queries, neural_s=neural_s
            )
        )
    print(
        f"\n{len(batch)}-task batch: serial {batch.serial_s:.3f}s vs one pipelined "
        f"shard {batch.single_shard_s:.3f}s vs {service.num_shards} shards "
        f"{batch.total_s:.3f}s ({batch.speedup:.2f}x from sharding)"
    )
    print(
        f"compile caches: {batch.cache_hits}/{batch.cache_hits + batch.cache_misses} "
        f"hits ({batch.hit_rate:.0%} — cache-affinity keeps each kernel on one "
        f"warm shard)"
    )


if __name__ == "__main__":
    main()
