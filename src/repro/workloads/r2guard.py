"""R2-Guard-style workload: LLM guardrail via probabilistic circuits
(paper Table I, tasks TwinSafety and XSTest; metric AUPRC).

The neural stage scores unsafety categories; the probabilistic stage is
a PC over category variables and the safety label, learned with EM from
rule-generated data, queried as P(unsafe | categories).  Flow pruning
of the PC is the Table IV experiment for this workload.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.baselines.device import KernelClass, KernelProfile
from repro.pc.circuit import Circuit
from repro.pc.inference import conditional, expected_flops
from repro.pc.learn import fit_em, random_circuit
from repro.workloads.base import NeuroSymbolicWorkload, TaskInstance, WorkloadResult
from repro.workloads.datasets import SafetyDataset, generate_safety_dataset


def auprc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Area under the precision-recall curve (interpolated steps)."""
    pairs = sorted(zip(scores, labels), key=lambda p: -p[0])
    total_positive = sum(labels)
    if total_positive == 0:
        return 0.0
    area = 0.0
    true_positive = 0
    prev_recall = 0.0
    for index, (_, label) in enumerate(pairs, start=1):
        if label == 1:
            true_positive += 1
            recall = true_positive / total_positive
            precision = true_positive / index
            area += precision * (recall - prev_recall)
            prev_recall = recall
    return area


class R2GuardWorkload(NeuroSymbolicWorkload):
    name = "R2-Guard"
    tasks = ("TwinSafety", "XSTest")
    metric = "AUPRC"
    model_name = "7B"
    symbolic_runtime_share = 0.627  # paper Fig. 3(a)
    #: Hazard categories; the label is one more PC variable.
    num_categories = 7

    def __init__(self, em_iterations: int = 10):
        self.em_iterations = em_iterations
        self._circuit_cache: Dict[Tuple[str, int], Circuit] = {}

    # The PC's variables: 0..k-1 category bits, k = label.
    @property
    def label_var(self) -> int:
        return self.num_categories

    def _build_circuit(self, task: str, seed: int, dataset: SafetyDataset) -> Circuit:
        key = (task, seed)
        if key not in self._circuit_cache:
            circuit = random_circuit(
                self.num_categories + 1, depth=3, sum_children=3, seed=seed
            )
            evidence = [
                {**{i: bit for i, bit in enumerate(x)}, self.label_var: y}
                for x, y in zip(dataset.features, dataset.labels)
            ]
            fit_em(circuit, evidence, iterations=self.em_iterations)
            self._circuit_cache[key] = circuit
        return self._circuit_cache[key]

    def generate_instance(self, task: str, scale: str = "small", seed: int = 0) -> TaskInstance:
        if task not in self.tasks:
            raise ValueError(f"unknown task {task!r}")
        noise = 0.10 if task == "TwinSafety" else 0.06
        size = 500 if scale == "large" else 240
        train = generate_safety_dataset(self.num_categories, size, noise, seed=hash((task, "train")) & 0xFFFF)
        test = generate_safety_dataset(self.num_categories, 80, noise, seed=seed + 7)
        return TaskInstance(task, scale, (train, test), ground_truth=test.labels, seed=seed)

    def score_examples(self, instance: TaskInstance) -> Tuple[List[float], List[int]]:
        train, test = instance.payload
        circuit = self._build_circuit(instance.task, instance.seed % 3, train)
        scores: List[float] = []
        for x in test.features:
            given = {i: bit for i, bit in enumerate(x)}
            scores.append(conditional(circuit, {self.label_var: 1}, given))
        return scores, list(test.labels)

    def solve(self, instance: TaskInstance) -> WorkloadResult:
        scores, labels = self.score_examples(instance)
        value = auprc(scores, labels)
        train, test = instance.payload
        circuit = self._build_circuit(instance.task, instance.seed % 3, train)
        ops = expected_flops(circuit) * len(test.features)
        # "Correct" for accuracy aggregation: AUPRC above a useful bar.
        return WorkloadResult(
            answer=value,
            correct=value > 0.7,
            symbolic_ops=ops,
            metadata={"auprc": value},
        )

    def reason_kernel(self, instance: TaskInstance) -> Circuit:
        train, _ = instance.payload
        return self._build_circuit(instance.task, instance.seed % 3, train)

    def symbolic_profiles(self, instance: TaskInstance) -> List[KernelProfile]:
        train, test = instance.payload
        circuit = self._build_circuit(instance.task, instance.seed % 3, train)
        per_query = expected_flops(circuit)
        queries = len(test.features)
        return [
            KernelProfile(
                KernelClass.MARGINAL,
                flops=2.0 * per_query * queries,
                bytes_accessed=12.0 * circuit.num_edges * queries,
            ),
            KernelProfile(
                KernelClass.BAYESIAN,
                flops=2.0 * 4 * len(test.features),
                bytes_accessed=32.0 * len(test.features),
            ),
        ]
