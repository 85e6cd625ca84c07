"""Two-level execution pipeline and end-to-end latency models
(paper Sec. VI-C, Fig. 9 top).

Level 1 (GPU↔REASON): while REASON processes the symbolic stage of task
N, the GPU runs the neural stage of task N+1 — a classic two-stage
pipeline whose steady-state throughput is the max of the stage times,
not their sum.  Level 2 (intra-REASON) is modeled inside the
accelerator's replay (pipelined broadcast/reduction).

The end-to-end helpers encode the evaluation's comparison structure:

* a baseline device runs neural and symbolic serially, plus a coupling
  overhead for discrete CPU+GPU systems (the paper measures >15%
  inter-device transfer cost);
* the REASON system runs the neural stage on its host GPU (optionally
  with the orthogonal LLM optimizations of Sec. VII-C) and overlaps the
  symbolic stage on REASON through shared memory (no transfer cost).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.baselines.device import DeviceModel, KernelProfile

if TYPE_CHECKING:  # the api layer sits above this one
    from repro.api.types import ExecutionReport


@dataclass
class PipelineResult:
    """Latency accounting for a batch of tasks."""

    total_s: float
    neural_s: float
    symbolic_s: float
    overlap_saved_s: float = 0.0

    @property
    def symbolic_share(self) -> float:
        busy = self.neural_s + self.symbolic_s
        return 0.0 if busy == 0 else self.symbolic_s / busy


class TwoLevelPipeline:
    """Task-level GPU/REASON overlap simulator."""

    def __init__(self, handoff_s: float = 2e-6):
        # Shared-memory flag polling: microseconds, not milliseconds.
        self.handoff_s = handoff_s

    def run(
        self,
        neural_times_s: Sequence[float],
        symbolic_times_s: Sequence[float],
        pipelined: bool = True,
    ) -> PipelineResult:
        """Schedule N tasks through the two stages.

        ``pipelined=False`` is the ablation: strictly serial execution
        of each task's neural then symbolic stage.
        """
        if len(neural_times_s) != len(symbolic_times_s):
            raise ValueError("need one symbolic time per neural time")
        neural_total = float(sum(neural_times_s))
        symbolic_total = float(sum(symbolic_times_s))
        serial = neural_total + symbolic_total + self.handoff_s * len(neural_times_s)
        if not pipelined or len(neural_times_s) == 0:
            return PipelineResult(serial, neural_total, symbolic_total, 0.0)
        gpu_free = 0.0
        reason_free = 0.0
        finish = 0.0
        for neural, symbolic in zip(neural_times_s, symbolic_times_s):
            neural_done = gpu_free + neural
            gpu_free = neural_done
            start = max(neural_done + self.handoff_s, reason_free)
            finish = start + symbolic
            reason_free = finish
        finish = float(finish)  # numpy stage times would make it np.float64
        return PipelineResult(finish, neural_total, symbolic_total, serial - finish)


def baseline_end_to_end(
    device: DeviceModel,
    neural_profiles: Sequence[KernelProfile],
    symbolic_profiles: Sequence[KernelProfile],
    coupled_devices: bool = False,
    symbolic_scale: float = 1.0,
) -> PipelineResult:
    """Serial neural+symbolic execution on one baseline device.

    ``coupled_devices`` adds the measured >15% inter-device transfer
    overhead of CPU+GPU systems.  ``symbolic_scale`` lifts the synthetic
    miniature instance to the paper's task size (see "Calibration" in
    the README).
    """
    neural_s = device.run(neural_profiles)
    symbolic_s = device.run(symbolic_profiles) * symbolic_scale
    total = neural_s + symbolic_s
    if coupled_devices:
        total *= 1.15
    return PipelineResult(total, neural_s, symbolic_s)


def reason_end_to_end(
    host_gpu: DeviceModel,
    neural_profiles: Sequence[KernelProfile],
    reason_report: ExecutionReport,
    symbolic_scale: float = 1.0,
    num_tasks: int = 8,
    llm_optimization_speedup: float = 1.0,
    pipelined: bool = True,
) -> PipelineResult:
    """The REASON system: GPU neural stage overlapped with REASON.

    Per-task latency in steady state approaches
    ``max(neural / llm_opt, symbolic_on_reason)``; the reported total is
    for ``num_tasks`` tasks including pipeline fill, divided back to a
    per-task figure by the caller when needed.
    """
    neural_s = host_gpu.run(neural_profiles) / llm_optimization_speedup
    symbolic_s = reason_report.seconds * symbolic_scale
    pipeline = TwoLevelPipeline()
    result = pipeline.run(
        [neural_s] * num_tasks, [symbolic_s] * num_tasks, pipelined=pipelined
    )
    per_task = PipelineResult(
        result.total_s / num_tasks,
        neural_s,
        symbolic_s,
        result.overlap_saved_s / num_tasks,
    )
    return per_task
