"""Shard-level composition of the two-level pipeline.

The serving layer (:class:`repro.api.service.ReasonService`) runs N
accelerator shards, each an independent GPU↔REASON instance executing
the requests routed to it.  Within a shard, tasks overlap exactly as
:class:`~repro.core.system.pipeline.TwoLevelPipeline` models (symbolic
stage of task K overlaps the neural stage of task K+1); across shards,
execution is concurrent, so the service makespan is the *slowest
shard's* pipelined makespan.  Composing per-shard makespans this way —
instead of dividing wall time by N — keeps service throughput numbers
faithful to the paper's overlap model: pipeline fill and stage
imbalance still cost what Fig. 9 says they cost, once per shard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.system.pipeline import PipelineResult, TwoLevelPipeline

#: One task's (neural_s, symbolic_s) stage times.
StageTimes = Tuple[float, float]


@dataclass
class ShardComposition:
    """Makespan accounting for one workload split across shards.

    ``total_s`` is the service makespan (max over concurrent shards);
    ``single_shard_s`` is the same workload pipelined through one shard
    (the scaling baseline); ``serial_s`` strictly serializes every
    stage (the no-overlap ablation).
    """

    per_shard: List[PipelineResult]
    total_s: float
    single_shard_s: float
    serial_s: float

    @property
    def speedup(self) -> float:
        """Throughput gain of sharding vs one shard (same overlap model)."""
        return self.single_shard_s / self.total_s if self.total_s > 0 else 1.0

    def throughput_rps(self, num_tasks: int) -> float:
        """Modeled requests/second for ``num_tasks`` tasks."""
        return num_tasks / self.total_s if self.total_s > 0 else 0.0


def compose_shard_makespans(
    shard_tasks: Sequence[Sequence[StageTimes]],
) -> ShardComposition:
    """Compose per-shard task lists into service-level makespans.

    ``shard_tasks[i]`` is shard *i*'s admitted work in execution order,
    each entry a ``(neural_s, symbolic_s)`` pair.  Every shard runs its
    own :class:`TwoLevelPipeline`; the single-shard baseline threads the
    concatenated workload through one pipeline instance.
    """
    pipeline = TwoLevelPipeline()
    per_shard = []
    for tasks in shard_tasks:
        neural = [task[0] for task in tasks]
        symbolic = [task[1] for task in tasks]
        per_shard.append(pipeline.run(neural, symbolic))
    all_tasks = [task for tasks in shard_tasks for task in tasks]
    all_neural = [task[0] for task in all_tasks]
    all_symbolic = [task[1] for task in all_tasks]
    single = pipeline.run(all_neural, all_symbolic)
    serial = pipeline.run(all_neural, all_symbolic, pipelined=False)
    total_s = max((result.total_s for result in per_shard), default=0.0)
    return ShardComposition(
        per_shard=per_shard,
        total_s=total_s,
        single_shard_s=single.total_s,
        serial_s=serial.total_s,
    )
