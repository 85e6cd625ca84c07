"""Shared machinery for the evaluation benchmarks.

Centralizes the calibration constants and the per-task end-to-end
latency/energy computations reused by the Fig. 11 / Fig. 12 / Table V
benches.

The calibration model (`REASON_TASK_SECONDS`, `SYMBOLIC_SLOWDOWN`, the neural
stage) is described under "Calibration" in the README.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import ReasonSession
from repro.api.types import ExecutionReport
from repro.baselines.device import (
    DeviceModel,
    ORIN_NX,
    RTX_A6000,
    XEON_CPU,
)
from repro.core.arch.config import ArchConfig, DEFAULT_CONFIG
from repro.hmm.model import HMM
from repro.pc.circuit import Circuit
from repro.pc.learn import sample_dataset
from repro.workloads import all_workloads
from repro.workloads.base import NeuroSymbolicWorkload, TaskInstance

#: The ten evaluation tasks of Fig. 11 / Fig. 12 / Table IV.
ALL_TASKS = [
    "IMO",
    "MiniF2F",
    "TwinSafety",
    "XSTest",
    "CommonGen",
    "News",
    "CoAuthor",
    "AwA2",
    "FOLIO",
    "ProofWriter",
]

#: Symbolic-stage slowdown of each baseline relative to REASON on the
#: same reasoning kernel (calibrated to the paper's measurements; the
#: Table II efficiency gaps justify the ordering: GPUs pay divergence +
#: uncoalesced access + launch storms, the CPU pays serial pointer
#: chasing, accelerator arrays pay emulation).
SYMBOLIC_SLOWDOWN: Dict[str, float] = {
    "RTX A6000": 11.0,
    "Orin NX": 33.0,
    "Xeon CPU": 90.0,
    "V100": 16.0,
    "A100": 8.0,
    "TPU-like": 90.0,  # Fig. 13: 74-110× on symbolic-only
    "DPU-like": 8.0,  # Fig. 13: 2.2-24× on symbolic-only
}

#: Target per-task REASON reasoning time (s): the paper reports
#: real-time completion at ~0.8 s end-to-end, with the reasoning stage
#: a few hundred ms.  Our miniatures are scaled to this anchor.
REASON_TASK_SECONDS = 0.35

#: The LLM-side optimizations of Sec. VII-C applied in the REASON
#: system configuration (2.8-3.3× unique prompts, ~4.5× with reuse).
LLM_OPT_SPEEDUP = 3.0


def workload_for_task(task: str) -> NeuroSymbolicWorkload:
    for workload in all_workloads():
        if task in workload.tasks:
            return workload
    raise KeyError(task)


def calibration_for(workload: NeuroSymbolicWorkload, instance: TaskInstance, kernel):
    """Calibration data for probabilistic kernels (None for logic)."""
    if isinstance(kernel, Circuit):
        return sample_dataset(kernel, 20, seed=1)
    if isinstance(kernel, HMM):
        return workload.calibration_sequences(instance)  # type: ignore[attr-defined]
    return None


#: Shared sessions (one per ArchConfig) so every bench script reuses
#: compiled artifacts: a task's kernel is optimized+compiled once, then
#: replayed across the Fig. 11 / Fig. 12 / Table V computations.
_SESSIONS: Dict[ArchConfig, ReasonSession] = {}


def session_for(config: ArchConfig = DEFAULT_CONFIG) -> ReasonSession:
    session = _SESSIONS.get(config)
    if session is None:
        session = ReasonSession(config=config)
        _SESSIONS[config] = session
    return session


def reason_timing_for_task(
    task: str,
    seed: int = 0,
    config: ArchConfig = DEFAULT_CONFIG,
    apply_algorithm_optimizations: bool = True,
) -> Tuple[ExecutionReport, float]:
    """Measured REASON timing for the task's kernel, plus the scale
    factor that lifts the miniature to paper task size."""
    workload = workload_for_task(task)
    instance = workload.generate_instance(task, seed=seed)
    kernel = workload.reason_kernel(instance)
    calibration = calibration_for(workload, instance, kernel)
    report = session_for(config).run(
        kernel,
        backend="reason",
        calibration=calibration,
        optimize=apply_algorithm_optimizations,
    )
    scale = REASON_TASK_SECONDS / max(report.seconds, 1e-12)
    return report.scaled(scale), scale


@dataclass
class TaskEndToEnd:
    """End-to-end latency of one task on every platform (seconds)."""

    task: str
    device_total: Dict[str, float]
    device_neural: Dict[str, float]
    device_symbolic: Dict[str, float]
    reason_total: float
    reason_symbolic: float
    reason_timing: ExecutionReport

    def normalized(self) -> Dict[str, float]:
        """Runtimes normalized to REASON = 1 (the Fig. 11 rows)."""
        out = {name: total / self.reason_total for name, total in self.device_total.items()}
        out["REASON"] = 1.0
        return out


def task_end_to_end(
    task: str,
    seed: int = 0,
    config: ArchConfig = DEFAULT_CONFIG,
    devices: Optional[List[DeviceModel]] = None,
    apply_algorithm_optimizations: bool = True,
) -> TaskEndToEnd:
    """Compute the Fig. 11 comparison for one task.

    Baselines run neural then symbolic serially (the fine-grained
    neural↔symbolic coupling the paper measures); the REASON system
    keeps the neural stage on its host GPU with the LLM optimizations
    and overlaps the symbolic stage on REASON through shared memory, so
    its per-task latency approaches ``max(neural/opt, symbolic)``.
    """
    devices = devices or [XEON_CPU, ORIN_NX, RTX_A6000]
    workload = workload_for_task(task)
    instance = workload.generate_instance(task, seed=seed)
    neural_profiles = workload.neural_profiles(instance)

    timing, _ = reason_timing_for_task(
        task, seed, config, apply_algorithm_optimizations
    )

    device_total: Dict[str, float] = {}
    device_neural: Dict[str, float] = {}
    device_symbolic: Dict[str, float] = {}
    for device in devices:
        neural_s = device.run(neural_profiles)
        symbolic_s = timing.seconds * SYMBOLIC_SLOWDOWN[device.name]
        device_neural[device.name] = neural_s
        device_symbolic[device.name] = symbolic_s
        device_total[device.name] = neural_s + symbolic_s

    host_neural = RTX_A6000.run(neural_profiles) / LLM_OPT_SPEEDUP
    reason_total = max(host_neural, timing.seconds) + 2e-6
    return TaskEndToEnd(
        task,
        device_total,
        device_neural,
        device_symbolic,
        reason_total,
        timing.seconds,
        timing,
    )


#: Always-on power while REASON executes: leakage + clock tree +
#: global control, calibrated to Fig. 10's 2.12 W average (dynamic
#: event energy rides on top, giving the 1.88-2.51 W Fig. 12(a) band).
REASON_ACTIVE_BASELINE_W = 1.80


def reason_energy_j(entry: TaskEndToEnd) -> float:
    """Reasoning-engine energy for one task (dynamic + active baseline)."""
    dynamic = entry.reason_timing.energy_j
    baseline = REASON_ACTIVE_BASELINE_W * entry.reason_symbolic
    return dynamic + baseline


def device_energy_j(device: DeviceModel, entry: TaskEndToEnd) -> float:
    """Baseline task energy: busy power over its neural+symbolic time.

    Symbolic phases keep the device only partially active (Table II),
    modeled with a 0.45 activity factor.
    """
    neural_s = entry.device_neural[device.name]
    symbolic_s = entry.device_symbolic[device.name]
    neural_power = device.idle_w + (device.tdp_w - device.idle_w) * 0.9
    symbolic_power = device.idle_w + (device.tdp_w - device.idle_w) * 0.45
    return neural_power * neural_s + symbolic_power * symbolic_s


def print_table(title: str, header: List[str], rows: List[List[str]]) -> None:
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    line = "  ".join(str(h).ljust(w) for h, w in zip(header, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
