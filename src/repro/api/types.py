"""Shared result and artifact types of the public :mod:`repro.api` surface.

Every backend — the REASON accelerator model, the software reference
solvers, the GPU/CPU device cost models, the roofline analyzer —
returns the same :class:`ExecutionReport`, so a kernel's answer and
cost can be cross-checked across substrates with one comparison loop.
:class:`CompiledArtifact` is the unit the session's compile cache
stores: everything the optimize→compile front end produced, ready to
replay on any backend without repeating that work.
:func:`check_count` is the one check of a count argument that the
session, the service, the compile cache and the resilience policies
share.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from numbers import Integral
from typing import Dict, List, Optional, Tuple

from repro.baselines.device import KernelProfile
from repro.core.arch.config import ArchConfig
from repro.core.compiler.driver import CompileStats
from repro.core.compiler.program import Program
from repro.core.dag.graph import Dag
from repro.core.dag.pipeline import OptimizationResult


def check_count(name: str, value: object) -> None:
    """Reject a count argument (``queries``, ``max_queue``, ...) that is
    not a positive integer: a bool, a float or anything else that is
    not an :class:`~numbers.Integral` (numpy integers are), or one
    below 1, naming ``name``.  A plain ``int`` skips the abstract-class
    checks, which cost more than the rest of the test."""
    if (
        type(value) is not int
        and (isinstance(value, bool) or not isinstance(value, Integral))
    ) or value < 1:
        raise ValueError(f"{name} must be a positive integer, not {value!r}")


@dataclass
class ExecutionReport:
    """Outcome of running one kernel on one backend.

    ``result`` is the kernel's functional answer under each family's
    canonical query: SAT verdict as 1.0/0.0 for logic kernels, the
    root marginal (partition function / sequence likelihood) for
    probabilistic ones, the root value for raw DAGs.  Cost fields may
    be zero where a backend cannot model them (e.g. the software
    reference reports wall time but no energy).

    ``executed`` says whether the accelerator model actually ran to
    produce this report: False when a warm request reused the run its
    artifact already carries (:class:`ExecutionSummary`), and on the
    backends that never run the model.  ``compile_s`` and ``execute_s``
    are wall seconds this request paid — the front end (0.0 on a cache
    hit) and the backend call — set by the session, not the backend.
    """

    backend: str
    kernel: str  # adapter kind: "cnf" | "circuit" | "hmm" | "dag"
    result: Optional[float]
    cycles: int
    seconds: float
    energy_j: float = 0.0
    power_w: float = 0.0
    utilization: float = 0.0
    queries: int = 1
    cache_hit: bool = False
    executed: bool = False
    compile_s: float = 0.0
    execute_s: float = 0.0
    extras: Dict[str, object] = field(default_factory=dict)

    def identity(self) -> tuple:
        """The deterministic content of this report — everything that
        must be bit-identical between a first-try success and a retried
        or differently-routed replay of the same request.  Excludes the
        delivery circumstances (``cache_hit``, ``executed``, wall-clock
        ``compile_s`` / ``execute_s``, ``extras``), which legitimately
        differ across attempts."""
        return (
            self.backend,
            self.kernel,
            self.result,
            self.cycles,
            self.seconds,
            self.energy_j,
            self.power_w,
            self.utilization,
            self.queries,
        )

    def scaled(self, factor: float) -> "ExecutionReport":
        """Lift a miniature-instance measurement to full task size
        (documented calibration: synthetic instances are miniatures of
        the benchmark tasks)."""
        return replace(
            self,
            cycles=int(self.cycles * factor),
            seconds=self.seconds * factor,
            energy_j=self.energy_j * factor,
        )


@dataclass(frozen=True)
class ExecutionSummary:
    """One accelerator run of one artifact under ``config``, as plain
    numbers for a single query.

    The run is a pure function of ``(artifact, config)``: leaf inputs
    are the DAG's defaults and a recorded CDCL trace replays the same
    way every time, so ``queries`` only multiplies.  The REASON backend
    therefore executes an artifact once, keeps this on it, and builds
    every later report from it.  Scalars only — holding the chip model
    itself would keep its SRAM and PE state alive per artifact.

    ``power_w`` is the run's own average power for program kernels and
    None for logic kernels, whose reports spread one replay's
    ``energy_j`` over every query's cycles on top of
    ``static_power_w``.
    """

    config: ArchConfig
    result: Optional[float]
    cycles: int  # one query, >= 1
    energy_j: float  # one run
    static_power_w: float
    power_w: Optional[float]
    utilization: float
    extras: Tuple[Tuple[str, object], ...]


@dataclass
class CompiledArtifact:
    """One kernel taken through the offline front end, cache-ready.

    Which fields are populated depends on the kernel family: logic
    kernels carry the pruned formula plus the recorded CDCL trace
    (solve once, replay many); DAG-based kernels carry the optimized
    DAG and its scheduled VLIW program.  ``profile`` summarizes the
    kernel's work for the analytic device/roofline backends.

    ``execution`` is filled by the REASON backend's first run of this
    artifact and shared wherever the object is (every shard's LRU, the
    in-process store).  It is process-local: dropped from pickled
    state, because a summary read back from disk would be served as
    the answer with no run and no verify gate behind it.
    """

    kind: str
    key: str
    kernel: object
    model: object = None  # pruned CNF / Circuit / HMM (or the original)
    dag: Optional[Dag] = None
    program: Optional[Program] = None
    compile_stats: Optional[CompileStats] = None
    optimization: Optional[OptimizationResult] = None
    solver: object = None  # CDCLSolver with a recorded trace (logic only)
    profile: Optional[KernelProfile] = None
    compile_s: float = 0.0
    extras: Dict[str, object] = field(default_factory=dict)
    execution: Optional[ExecutionSummary] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __getstate__(self) -> Dict[str, object]:
        # Removed, not set to None: an unpickled artifact reads the
        # class default, and the summary costs a stored artifact no
        # bytes at all.
        state = dict(self.__dict__)
        state.pop("execution", None)
        return state


@dataclass
class BatchResult:
    """Outcome of :meth:`ReasonSession.run_batch`.

    ``total_s`` is the batch makespan with the two-level GPU↔REASON
    pipeline overlapping each task's neural stage with the previous
    task's symbolic stage; ``serial_s`` is the same batch strictly
    serialized (the ablation).
    """

    reports: List[ExecutionReport]
    total_s: float
    serial_s: float
    neural_s: float
    symbolic_s: float
    overlap_saved_s: float
    cache_hits: int
    cache_misses: int

    @property
    def speedup(self) -> float:
        return self.serial_s / self.total_s if self.total_s > 0 else 1.0

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self.reports)
