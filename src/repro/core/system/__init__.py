"""System-level integration of REASON with a host GPU (paper Sec. VI).

* :mod:`pipeline` — the two-level execution pipeline: GPU↔REASON task
  overlap plus intra-REASON pipelining, and the end-to-end latency
  model used by the evaluation benchmarks;
* :mod:`sharding` — shard-level composition of per-instance pipelines
  into service makespans (the model behind ``ReasonService`` stats).

Executing a kernel on the accelerator model is
:meth:`repro.api.ReasonSession.run`.
"""

from repro.core.system.pipeline import (
    TwoLevelPipeline,
    PipelineResult,
    baseline_end_to_end,
    reason_end_to_end,
)
from repro.core.system.sharding import ShardComposition, compose_shard_makespans

__all__ = [
    "TwoLevelPipeline",
    "PipelineResult",
    "baseline_end_to_end",
    "reason_end_to_end",
    "ShardComposition",
    "compose_shard_makespans",
]
