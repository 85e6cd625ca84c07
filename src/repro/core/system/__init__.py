"""System-level integration of REASON with a host GPU (paper Sec. VI).

* :mod:`coprocessor` — the programming model of Listing 1:
  ``reason_execute`` / ``reason_check_status`` with shared-memory flag
  synchronization;
* :mod:`partition` — workload partitioning between GPU and REASON;
* :mod:`pipeline` — the two-level execution pipeline: GPU↔REASON task
  overlap plus intra-REASON pipelining, and the end-to-end latency
  model used by the evaluation benchmarks;
* :mod:`sharding` — shard-level composition of per-instance pipelines
  into service makespans (the model behind ``ReasonService`` stats).

Executing a kernel on the accelerator model is
:meth:`repro.api.ReasonSession.run`.
"""

from repro.core.system.coprocessor import (
    ReasonCoprocessor,
    CoprocessorStatus,
    SharedMemoryFlags,
)
from repro.core.system.partition import partition_kernels, Placement
from repro.core.system.pipeline import (
    TwoLevelPipeline,
    PipelineResult,
    baseline_end_to_end,
    reason_end_to_end,
)
from repro.core.system.sharding import ShardComposition, compose_shard_makespans

__all__ = [
    "ReasonCoprocessor",
    "CoprocessorStatus",
    "SharedMemoryFlags",
    "partition_kernels",
    "Placement",
    "TwoLevelPipeline",
    "PipelineResult",
    "baseline_end_to_end",
    "reason_end_to_end",
    "ShardComposition",
    "compose_shard_makespans",
]
