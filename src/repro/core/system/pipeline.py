"""Two-level execution pipeline (paper Sec. VI-C, Fig. 9 top).

Level 1 (GPU↔REASON): while REASON processes the symbolic stage of task
N, the GPU runs the neural stage of task N+1 — a classic two-stage
pipeline whose steady-state throughput is the max of the stage times,
not their sum.  Level 2 (intra-REASON) is modeled inside the
accelerator's replay (pipelined broadcast/reduction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

#: GPU→REASON handoff per task: shared-memory flag polling, microseconds
#: rather than milliseconds.
HANDOFF_S = 2e-6


@dataclass
class PipelineResult:
    """Latency accounting for a batch of tasks."""

    total_s: float
    neural_s: float
    symbolic_s: float
    overlap_saved_s: float = 0.0


class TwoLevelPipeline:
    """Task-level GPU/REASON overlap simulator."""

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
        serial = neural_total + symbolic_total + HANDOFF_S * len(neural_times_s)
        if not pipelined or len(neural_times_s) == 0:
            return PipelineResult(serial, neural_total, symbolic_total, 0.0)
        gpu_free = 0.0
        reason_free = 0.0
        finish = 0.0
        for neural, symbolic in zip(neural_times_s, symbolic_times_s):
            neural_done = gpu_free + neural
            gpu_free = neural_done
            start = max(neural_done + HANDOFF_S, reason_free)
            finish = start + symbolic
            reason_free = finish
        finish = float(finish)  # numpy stage times would make it np.float64
        return PipelineResult(finish, neural_total, symbolic_total, serial - finish)
