"""Tests for the six neuro-symbolic workloads and their datasets."""

import random

import numpy as np
import pytest

from repro.baselines.device import KernelClass
from repro.hmm.model import HMM
from repro.logic.cnf import CNF
from repro.pc.circuit import Circuit
from repro.workloads import (
    AlphaGeometryWorkload,
    CtrlGWorkload,
    GeLaToWorkload,
    LINCWorkload,
    NeuroPCWorkload,
    R2GuardWorkload,
    TASK_TO_WORKLOAD,
    all_workloads,
)
from repro.workloads.datasets import (
    generate_attribute_dataset,
    generate_deduction_problem,
    generate_entailment_problem,
    generate_safety_dataset,
    generate_text_corpus,
)
from repro.workloads.gelato import bleu2
from repro.workloads.neural import MODEL_ZOO
from repro.workloads.r2guard import auprc

NEURAL_CLASSES = (KernelClass.NEURAL_GEMM, KernelClass.NEURAL_SOFTMAX)


class TestDatasets:
    def test_deduction_provable_instances_derive(self):
        from repro.logic.fol.chase import ForwardChainer

        problem = generate_deduction_problem(provable=True, hard=False, seed=1)
        assert ForwardChainer(max_iterations=40).entails(
            problem.facts, problem.rules, problem.goal
        )

    def test_deduction_unprovable_instances_do_not_derive(self):
        from repro.logic.fol.chase import ForwardChainer

        problem = generate_deduction_problem(provable=False, seed=2)
        assert not ForwardChainer(max_iterations=40).entails(
            problem.facts, problem.rules, problem.goal
        )

    def test_hard_instances_need_the_key_construction(self):
        from repro.logic.fol.chase import ForwardChainer

        problem = generate_deduction_problem(provable=True, hard=True, seed=3)
        assert problem.key_construction is not None
        with_key = list(problem.facts) + [problem.key_construction]
        assert ForwardChainer(max_iterations=40).entails(
            with_key, problem.rules, problem.goal
        )

    def test_safety_dataset_labels_follow_rule(self):
        dataset = generate_safety_dataset(6, 100, noise=0.0, seed=4)
        for x, y in zip(dataset.features, dataset.labels):
            score = sum(w for w, bit in zip(dataset.rule_weights, x) if bit)
            assert y == int(score > dataset.threshold)

    def test_text_corpus_shapes(self):
        corpus = generate_text_corpus(vocab_size=9, num_sequences=7, length=11, seed=5)
        assert len(corpus.sequences) == 7
        assert all(len(s) == 11 for s in corpus.sequences)
        assert all(0 <= t < 9 for s in corpus.sequences for t in s)

    def test_attribute_dataset_distinct_signatures(self):
        dataset = generate_attribute_dataset(5, 8, 20, seed=6)
        assert len(set(dataset.class_signatures)) == 5

    def test_entailment_label_by_construction(self):
        from repro.logic.fol.resolution import ResolutionProver

        positive = generate_entailment_problem(depth=2, entailed=True, seed=7)
        assert ResolutionProver().prove(positive.theory, positive.goal) is True
        negative = generate_entailment_problem(depth=2, entailed=False, seed=8)
        assert ResolutionProver().prove(negative.theory, negative.goal) is not True


class TestMetrics:
    def test_auprc_perfect_ranking(self):
        assert auprc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == pytest.approx(1.0)

    def test_auprc_no_positives(self):
        assert auprc([0.5, 0.4], [0, 0]) == 0.0

    def test_auprc_random_is_near_base_rate(self):
        rng = random.Random(0)
        labels = [rng.random() < 0.3 for _ in range(2000)]
        scores = [rng.random() for _ in labels]
        value = auprc(scores, [int(l) for l in labels])
        assert value == pytest.approx(0.3, abs=0.05)

    def test_bleu2_identity(self):
        seq = [1, 2, 3, 4, 5]
        assert bleu2(seq, [seq]) == pytest.approx(100.0)

    def test_bleu2_disjoint_is_zero(self):
        assert bleu2([1, 1, 1], [[2, 2, 2]]) == 0.0

    def test_bleu2_empty_candidate(self):
        assert bleu2([], [[1, 2]]) == 0.0


class TestNeuralCostModel:
    def test_prefill_flops_scale_with_tokens(self):
        model = MODEL_ZOO["7B"]
        short = model.prefill_profiles(128)
        long = model.prefill_profiles(512)
        assert sum(p.flops for p in long) > sum(p.flops for p in short)

    def test_decode_is_memory_bound(self):
        model = MODEL_ZOO["7B"]
        profiles = model.decode_profiles(32, 512)
        gemm = profiles[0]
        assert gemm.operational_intensity < 10  # streams weights per token

    def test_larger_models_cost_more(self):
        small = MODEL_ZOO["7B"].generation_profiles(256, 64)
        big = MODEL_ZOO["70B"].generation_profiles(256, 64)
        assert sum(p.flops for p in big) > sum(p.flops for p in small)


class TestWorkloadContracts:
    @pytest.mark.parametrize("workload", all_workloads(), ids=lambda w: w.name)
    def test_instance_generation_and_solve(self, workload):
        task = workload.tasks[0]
        instance = workload.generate_instance(task, seed=0)
        result = workload.solve(instance)
        assert isinstance(result.correct, bool)
        assert result.symbolic_ops > 0

    @pytest.mark.parametrize("workload", all_workloads(), ids=lambda w: w.name)
    def test_kernel_profiles_positive(self, workload):
        instance = workload.generate_instance(workload.tasks[0], seed=1)
        for profile in workload.symbolic_profiles(instance):
            assert profile.flops > 0 and profile.bytes_accessed > 0
            assert profile.kernel_class not in NEURAL_CLASSES
        for profile in workload.neural_profiles(instance):
            assert profile.kernel_class in NEURAL_CLASSES

    @pytest.mark.parametrize("workload", all_workloads(), ids=lambda w: w.name)
    def test_reason_kernel_types(self, workload):
        instance = workload.generate_instance(workload.tasks[0], seed=2)
        kernel = workload.reason_kernel(instance)
        assert isinstance(kernel, (CNF, Circuit, HMM))

    @pytest.mark.parametrize("workload", all_workloads(), ids=lambda w: w.name)
    def test_unknown_task_rejected(self, workload):
        with pytest.raises(ValueError):
            workload.generate_instance("NotATask")

    def test_task_to_workload_covers_ten_tasks(self):
        assert len(TASK_TO_WORKLOAD) == 10
        names = {w.name for w in all_workloads()}
        assert set(TASK_TO_WORKLOAD.values()) <= names


class TestWorkloadQuality:
    def test_alphageometry_accuracy_in_paper_range(self):
        accuracy = AlphaGeometryWorkload().accuracy("IMO", num_instances=30, seed=0)
        assert 0.6 <= accuracy <= 1.0

    def test_r2guard_auprc_reasonable(self):
        workload = R2GuardWorkload()
        values = []
        for seed in range(4):
            instance = workload.generate_instance("XSTest", seed=seed)
            values.append(workload.solve(instance).metadata["auprc"])
        assert np.mean(values) > 0.6

    def test_gelato_constraint_always_satisfied_when_feasible(self):
        workload = GeLaToWorkload()
        for seed in range(5):
            instance = workload.generate_instance("CommonGen", seed=seed)
            result = workload.solve(instance)
            if result.correct:
                keyword, _ = instance.payload
                sequence = result.answer
                assert any(
                    sequence[i : i + len(keyword)] == keyword
                    for i in range(len(sequence) - len(keyword) + 1)
                )

    def test_ctrlg_success_rate_below_one(self):
        workload = CtrlGWorkload()
        rate = workload.accuracy("CoAuthor", num_instances=20, seed=0)
        assert 0.4 <= rate <= 1.0

    def test_neuropc_beats_chance(self):
        workload = NeuroPCWorkload()
        instance = workload.generate_instance("AwA2", seed=0)
        result = workload.solve(instance)
        assert result.metadata["accuracy"] > 1.0 / workload.num_classes

    def test_linc_accuracy_above_chance(self):
        accuracy = LINCWorkload().accuracy("ProofWriter", num_instances=20, seed=0)
        assert accuracy > 0.6
