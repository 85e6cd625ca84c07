"""System-level integration of REASON with a host GPU (paper Sec. VI).

* :mod:`pipeline` — the two-level execution pipeline: GPU↔REASON task
  overlap plus intra-REASON pipelining;
* :mod:`sharding` — shard-level composition of per-instance pipelines
  into service makespans (the model behind ``ReasonService`` stats).

Executing a kernel on the accelerator model is
:meth:`repro.api.ReasonSession.run`.
"""

from repro.core.system.pipeline import (
    TwoLevelPipeline,
    PipelineResult,
)
from repro.core.system.sharding import ShardComposition, compose_shard_makespans

__all__ = [
    "TwoLevelPipeline",
    "PipelineResult",
    "ShardComposition",
    "compose_shard_makespans",
]
