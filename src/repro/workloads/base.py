"""Common workload interface.

A workload generates task instances, runs its symbolic stage on the real
substrates (so accuracy is measured, not assumed), and exposes kernel
profiles for the device cost models plus a REASON-executable kernel for
the accelerator model.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Union

from repro.baselines.device import KernelProfile
from repro.hmm.model import HMM
from repro.logic.cnf import CNF
from repro.pc.circuit import Circuit
from repro.workloads.neural import MODEL_ZOO, TransformerCostModel


@dataclass
class TaskInstance:
    """One problem drawn from a task generator."""

    task: str
    scale: str  # "small" | "large"
    payload: object  # workload-specific problem
    ground_truth: object = None
    seed: int = 0


@dataclass
class WorkloadResult:
    """Outcome of solving one instance on the symbolic substrates."""

    answer: object
    correct: bool
    symbolic_ops: int = 0  # abstract op count of the symbolic stage
    metadata: Dict[str, float] = field(default_factory=dict)


ReasonKernel = Union[CNF, Circuit, HMM, Tuple]  # what runs on the accelerator


class NeuroSymbolicWorkload(abc.ABC):
    """Base class for the six evaluation workloads."""

    #: Workload display name (Table I row).
    name: str = ""
    #: Benchmark datasets this workload is evaluated on (Table IV rows).
    tasks: Tuple[str, ...] = ()
    #: Metric name the paper reports for each task.
    metric: str = "Accuracy"
    #: Neural model driving the pipeline.
    model_name: str = "7B"
    #: Fraction of end-to-end runtime in the symbolic stage on a GPU
    #: (paper Fig. 3(a) measurement, used to calibrate kernel volumes).
    symbolic_runtime_share: float = 0.5

    @property
    def model(self) -> TransformerCostModel:
        return MODEL_ZOO[self.model_name]

    # ----------------------------------------------------------- interface

    @abc.abstractmethod
    def generate_instance(self, task: str, scale: str = "small", seed: int = 0) -> TaskInstance:
        """Draw a synthetic instance of the given task."""

    @abc.abstractmethod
    def solve(self, instance: TaskInstance) -> WorkloadResult:
        """Run the symbolic stage for real and score the answer."""

    @abc.abstractmethod
    def reason_kernel(self, instance: TaskInstance) -> ReasonKernel:
        """The kernel REASON accelerates for this instance."""

    @abc.abstractmethod
    def symbolic_profiles(self, instance: TaskInstance) -> List[KernelProfile]:
        """Symbolic-stage kernels for the device cost models."""

    def neural_profiles(self, instance: TaskInstance) -> List[KernelProfile]:
        """Neural-stage kernels (default: one prompt + short generation)."""
        prompt, generated = self.neural_tokens(instance)
        return self.model.generation_profiles(prompt, generated)

    def neural_tokens(self, instance: TaskInstance) -> Tuple[int, int]:
        """(prompt tokens, generated tokens) for the neural stage."""
        scale_factor = 2 if instance.scale == "large" else 1
        return 256 * scale_factor, 64 * scale_factor

    # --------------------------------------------------------- conveniences

    def accuracy(self, task: str, num_instances: int = 20, seed: int = 0) -> float:
        """Fraction of small instances solved correctly."""
        correct = 0
        for i in range(num_instances):
            instance = self.generate_instance(task, "small", seed + i)
            result = self.solve(instance)
            correct += int(result.correct)
        return correct / num_instances


#: Task → workload-class name (the Table IV row index).
TASK_TO_WORKLOAD: Dict[str, str] = {
    "IMO": "AlphaGeometry",
    "MiniF2F": "AlphaGeometry",
    "TwinSafety": "R2-Guard",
    "XSTest": "R2-Guard",
    "CommonGen": "GeLaTo",
    "News": "GeLaTo",
    "CoAuthor": "Ctrl-G",
    "AwA2": "NeuroPC",
    "FOLIO": "LINC",
    "ProofWriter": "LINC",
}
