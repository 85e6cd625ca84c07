"""Quickstart: the full REASON flow through the `ReasonSession` API.

One session is the front door to the whole stack: build a SAT instance,
call ``session.run(kernel)`` — the kernel adapter runs the Stage 1-3
algorithm optimizations (unified DAG → adaptive pruning → two-input
regularization), compiles for the tree-PE array, and executes on the
accelerator model — then cross-check the same kernel on the software
CDCL reference and the GPU/CPU/roofline cost models, replay it from
the compile cache, and run it as a pipelined batch.

Run:  python examples/quickstart.py
"""

from repro import ReasonSession
from repro.logic.generators import redundant_sat


def main() -> None:
    session = ReasonSession()

    # 1. A logic kernel: planted-SAT with prunable redundancy.
    formula, plant = redundant_sat(num_vars=60, num_clauses=240, redundancy=0.3, seed=7)
    print(f"formula: {formula.num_vars} vars, {len(formula.clauses)} clauses")

    # 2. One call: optimize -> compile -> execute on the accelerator model.
    report = session.run(formula, backend="reason")
    print(
        f"REASON: SAT={report.result == 1.0}, {report.cycles} cycles = "
        f"{report.seconds * 1e6:.1f} us ({report.extras['decisions']} decisions, "
        f"{report.extras['implications']} implications, "
        f"{report.extras['conflicts']} conflicts; compile {report.compile_s * 1e3:.1f} ms)"
    )

    # 3. The offline front end's memory savings (Sec. IV, Table IV).
    artifact = session.compile(formula)
    optimization = artifact.optimization
    print(
        f"adaptive pruning: {optimization.memory_before} -> {optimization.memory_after} "
        f"words ({optimization.memory_reduction:.0%} saved)"
    )

    # 4. Cross-check the same kernel on every other registered backend.
    for name in ("software", "gpu", "cpu", "roofline"):
        other = session.run(formula, backend=name)
        agree = "" if other.result is None else f"  (SAT agrees: {other.result == report.result})"
        print(
            f"{name:9s}: {other.seconds * 1e6:10.1f} us  "
            f"({other.seconds / report.seconds:8.1f}x REASON){agree}"
        )

    # 5. The compile cache: every run above after the first was a hit.
    stats = session.cache_stats
    print(
        f"compile cache: {stats.hits} hits / {stats.lookups} lookups "
        f"({stats.hit_rate:.0%} hit rate, front end ran {session.prepare_calls}x)"
    )

    # 6. A pipelined batch: eight copies, compiled and executed once.
    batch = session.run_batch([formula] * 8, queries=4)
    print(
        f"batch of {len(batch)}: makespan {batch.total_s * 1e6:.1f} us, "
        f"{batch.speedup:.2f}x over serial, {batch.hit_rate:.0%} cache hits"
    )


if __name__ == "__main__":
    main()
