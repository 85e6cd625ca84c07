"""Cost features: what the compiler front end knows about a kernel.

Everything the offline flow produces — :class:`CompileStats` (schedule
cycles), the recorded CDCL trace statistics for logic kernels, and the
roofline
:class:`~repro.baselines.device.KernelProfile` — is condensed into one
:class:`CostFeatures` record keyed by the kernel's content-hash
fingerprint.  The :class:`~repro.costmodel.estimator.CostEstimator`
predicts per-request latency and energy from these features for each
backend class; nothing here imports the serving layer, so the record is
usable from the compiler side without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.baselines.device import KernelClass, KernelProfile

#: Entries a per-fingerprint memo on the serving path may hold
#: (:func:`remember` evicts first-in first-out past it), so a long-lived
#: service stays constant-size however many distinct kernels it sees.
MAX_TRACKED_FINGERPRINTS = 65536


def remember(memo: dict, key, value=None):
    """Insert into a dict kept as a FIFO-bounded memo; returns ``value``.

    Insertion order is the eviction order (re-inserting a key does not
    refresh it).  Both defaults in the trim matter to callers that rely
    on the GIL instead of a lock: a racing trim may have emptied the
    memo, or popped the same oldest key between the read and the pop.
    """
    memo[key] = value
    if len(memo) > MAX_TRACKED_FINGERPRINTS:
        memo.pop(next(iter(memo), None), None)
    return value


@dataclass(frozen=True)
class CostFeatures:
    """Static per-kernel cost descriptors from one compiled artifact.

    ``profile`` is the artifact's roofline :class:`KernelProfile` (the
    analytic device backends price it); ``schedule_cycles`` is the VLIW
    schedule length for DAG-backed kernels (0 for logic kernels, which
    replay a CDCL trace instead); ``trace_ops`` is the recorded solver's
    clause-fetch count (0 for DAG kernels).
    """

    kind: str
    profile: KernelProfile
    schedule_cycles: int
    trace_ops: int

    @classmethod
    def from_artifact(cls, artifact) -> "CostFeatures":
        """Extract features from a :class:`CompiledArtifact` (duck-typed
        so this leaf module never imports the API layer); an artifact
        without a profile reads as one unit logic kernel."""
        profile = artifact.profile
        if profile is None:
            profile = KernelProfile(KernelClass.LOGIC, flops=1.0, bytes_accessed=4.0)
        schedule_cycles = 0
        if artifact.compile_stats is not None:
            schedule_cycles = int(artifact.compile_stats.cycles)
        trace_ops = 0
        if artifact.solver is not None:
            trace_ops = int(getattr(artifact.solver.stats, "clause_fetches", 0))
        return cls(
            kind=artifact.kind,
            profile=profile,
            schedule_cycles=schedule_cycles,
            trace_ops=trace_ops,
        )


@dataclass(frozen=True)
class CostPrediction:
    """The predicted cost of one query on one backend.

    ``source`` says how the number was produced: ``features`` (the
    static model over the kernel's recorded features) or ``default``
    (the cold-start constant).
    """

    backend: str
    seconds: float
    energy_j: float = 0.0
    source: str = "default"


#: Type of :attr:`Request.predicted <repro.api.scheduler.Request>`:
#: backend name → prediction.
PredictionMap = Mapping[str, CostPrediction]

