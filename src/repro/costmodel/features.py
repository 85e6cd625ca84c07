"""Cost features: what the compiler front end knows about a kernel.

Everything the offline flow produces — :class:`CompileStats` (schedule
cycles, NOPs, spills), the scheduled DAG's size and arity, the recorded
CDCL trace statistics for logic kernels, and the roofline
:class:`~repro.baselines.device.KernelProfile` — is condensed into one
flat :class:`CostFeatures` record keyed by the kernel's content-hash
fingerprint.  The :class:`~repro.costmodel.estimator.CostEstimator`
predicts per-request latency and energy from these features for each
backend class; nothing here imports the serving layer, so the record is
usable from the compiler side without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.baselines.device import KernelClass, KernelProfile


@dataclass(frozen=True)
class CostFeatures:
    """Static per-kernel cost descriptors from one compiled artifact.

    ``schedule_cycles`` is the VLIW schedule length for DAG-backed
    kernels (0 for logic kernels, which replay a CDCL trace instead);
    ``trace_ops`` is the recorded solver's clause-fetch count (0 for
    DAG kernels).  ``flops`` / ``bytes_accessed`` / ``launches`` come
    from the artifact's :class:`KernelProfile` and drive the analytic
    device backends.
    """

    kind: str
    kernel_class: KernelClass
    flops: float
    bytes_accessed: float
    launches: int
    num_nodes: int
    num_edges: int
    schedule_cycles: int
    trace_ops: int
    compile_s: float

    @property
    def operational_intensity(self) -> float:
        if self.bytes_accessed <= 0:
            return float("inf")
        return self.flops / self.bytes_accessed

    @property
    def profile(self) -> KernelProfile:
        """The roofline work profile the device models consume."""
        return KernelProfile(
            self.kernel_class,
            flops=self.flops,
            bytes_accessed=self.bytes_accessed,
            launches=self.launches,
        )

    @classmethod
    def from_artifact(cls, artifact) -> "CostFeatures":
        """Extract features from a :class:`CompiledArtifact` (duck-typed
        so this leaf module never imports the API layer)."""
        profile = artifact.profile
        kernel_class = (
            profile.kernel_class if profile is not None else KernelClass.LOGIC
        )
        schedule_cycles = 0
        if artifact.compile_stats is not None:
            schedule_cycles = int(artifact.compile_stats.cycles)
        trace_ops = 0
        if artifact.solver is not None:
            trace_ops = int(getattr(artifact.solver.stats, "clause_fetches", 0))
        num_nodes = num_edges = 0
        if artifact.dag is not None:
            num_nodes = artifact.dag.num_nodes
            num_edges = artifact.dag.num_edges
        elif artifact.model is not None and hasattr(artifact.model, "clauses"):
            clauses = artifact.model.clauses
            num_nodes = len(clauses)
            num_edges = sum(len(clause.literals) for clause in clauses)
        return cls(
            kind=artifact.kind,
            kernel_class=kernel_class,
            flops=profile.flops if profile is not None else 1.0,
            bytes_accessed=profile.bytes_accessed if profile is not None else 4.0,
            launches=profile.launches if profile is not None else 1,
            num_nodes=num_nodes,
            num_edges=num_edges,
            schedule_cycles=schedule_cycles,
            trace_ops=trace_ops,
            compile_s=float(artifact.compile_s),
        )


@dataclass(frozen=True)
class CostPrediction:
    """One predicted request cost on one backend.

    ``source`` says how the number was produced, from most to least
    informed: ``calibrated`` (static model × this fingerprint's EWMA
    residual), ``features`` (static model only), ``class-prior``
    (EWMA over the (kind, backend) class), ``default`` (cold start).
    """

    backend: str
    seconds: float
    energy_j: float = 0.0
    compile_s: float = 0.0
    queries: int = 1
    source: str = "default"

    @property
    def per_query_s(self) -> float:
        return self.seconds / max(self.queries, 1)

    @property
    def total_s(self) -> float:
        """Execution plus (cold) compile — the completion-time term a
        placement policy charges a shard that has never seen the
        kernel."""
        return self.seconds + self.compile_s


#: Type alias used by the scheduler: backend name → prediction.
PredictionMap = Mapping[str, CostPrediction]

