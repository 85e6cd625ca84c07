"""NeuroPC-style workload: compositional, interpretable classification
via probabilistic circuits (paper Table I, task AwA2; metric accuracy).

The neural stage predicts attribute probabilities; a class-conditional
probabilistic circuit per class scores the attribute vector; the
predicted class maximizes circuit likelihood.  Interpretability comes
for free: the per-class circuits expose which attributes drove the
decision.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.baselines.device import KernelClass, KernelProfile
from repro.pc.circuit import Circuit, ProductNode, bernoulli_leaf
from repro.pc.inference import expected_flops, likelihood
from repro.workloads.base import NeuroSymbolicWorkload, TaskInstance, WorkloadResult
from repro.workloads.datasets import AttributeDataset, generate_attribute_dataset


class NeuroPCWorkload(NeuroSymbolicWorkload):
    name = "NeuroPC"
    tasks = ("AwA2",)
    metric = "Accuracy"
    model_name = "125M"  # a DNN, not an LLM (Table I)
    symbolic_runtime_share = 0.505  # paper Fig. 3(a)
    num_classes = 6
    num_attributes = 10
    #: A class circuit's probability that an attribute matches its signature.
    leaf_confidence = 0.85

    def class_circuit(self, signature: Sequence[int]) -> Circuit:
        """Class-conditional PC: a mixture of attribute-product variants.

        Each mixture component jitters the leaf confidence, modeling
        intra-class appearance variation; the mixture structure is what
        flow pruning (Table IV) operates on."""
        from repro.pc.circuit import SumNode

        factors = []
        for i, bit in enumerate(signature):
            confident = self.leaf_confidence if bit else 1.0 - self.leaf_confidence
            relaxed = 0.5 + (confident - 0.5) * 0.4
            factors.append(
                SumNode(
                    [bernoulli_leaf(i, confident), bernoulli_leaf(i, relaxed), bernoulli_leaf(i, 0.5)],
                    [0.75, 0.2, 0.05],
                )
            )
        return Circuit(ProductNode(factors))

    def generate_instance(self, task: str, scale: str = "small", seed: int = 0) -> TaskInstance:
        if task not in self.tasks:
            raise ValueError(f"unknown task {task!r}")
        count = 60 if scale == "large" else 24
        noise = 0.18 if scale == "large" else 0.15
        dataset = generate_attribute_dataset(
            self.num_classes, self.num_attributes, count, noise, seed=seed
        )
        return TaskInstance(task, scale, dataset, seed=seed)

    def classify(self, dataset: AttributeDataset, scores: Sequence[float]) -> int:
        """Pick the class whose circuit maximizes the soft-evidence
        likelihood Π_i (p_i·P(a_i=1) + (1-p_i)·P(a_i=0))."""
        best_class, best_value = 0, -1.0
        for cls, signature in enumerate(dataset.class_signatures):
            circuit = self.class_circuit(signature)
            value = 1.0
            for i, p in enumerate(scores):
                on = likelihood(circuit, {i: 1})  # P(a_i = 1), others marginalized
                value *= p * on + (1.0 - p) * (1.0 - on)
            if value > best_value:
                best_class, best_value = cls, value
        return best_class

    def solve(self, instance: TaskInstance) -> WorkloadResult:
        dataset: AttributeDataset = instance.payload
        correct = 0
        for scores, label in dataset.examples:
            if self.classify(dataset, scores) == label:
                correct += 1
        accuracy = correct / len(dataset.examples)
        circuit = self.class_circuit(dataset.class_signatures[0])
        ops = expected_flops(circuit) * len(dataset.examples) * self.num_classes
        return WorkloadResult(
            answer=accuracy,
            correct=accuracy > 0.7,
            symbolic_ops=max(ops, self.num_attributes * len(dataset.examples) * self.num_classes),
            metadata={"accuracy": accuracy},
        )

    def reason_kernel(self, instance: TaskInstance) -> Circuit:
        dataset: AttributeDataset = instance.payload
        return self.class_circuit(dataset.class_signatures[0])

    def symbolic_profiles(self, instance: TaskInstance) -> List[KernelProfile]:
        dataset: AttributeDataset = instance.payload
        queries = len(dataset.examples) * self.num_classes
        per_query = 2.0 * self.num_attributes
        return [
            KernelProfile(
                KernelClass.MARGINAL,
                flops=per_query * queries,
                bytes_accessed=16.0 * self.num_attributes * queries,
            )
        ]

    def neural_tokens(self, instance: TaskInstance) -> Tuple[int, int]:
        # DNN feature extraction: modeled as a short prefill, no decode.
        return 64, 1
