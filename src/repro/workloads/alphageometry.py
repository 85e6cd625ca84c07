"""AlphaGeometry-style workload: theorem proving by LLM proposal +
symbolic deduction (paper Table I, tasks IMO and MiniF2F).

The pipeline alternates a neural proposal stage (which auxiliary
construction to add) with a symbolic deduction stage (forward chaining
over a geometric rule database, with a SAT certificate of the final
derivation).  Our neural stand-in ranks candidate constructions by a
noisy relevance heuristic — accuracy therefore reflects how often the
correct construction lands in the proposal beam plus whether deduction
closes, the same failure modes as the original system.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.baselines.device import KernelClass, KernelProfile
from repro.logic.cnf import CNF
from repro.logic.fol.chase import ForwardChainer
from repro.logic.fol.terms import Predicate
from repro.logic.generators import redundant_sat
from repro.workloads.base import NeuroSymbolicWorkload, TaskInstance, WorkloadResult
from repro.workloads.datasets import DeductionProblem, generate_deduction_problem


class AlphaGeometryWorkload(NeuroSymbolicWorkload):
    name = "AlphaGeometry"
    tasks = ("IMO", "MiniF2F")
    metric = "Accuracy"
    model_name = "8B"
    symbolic_runtime_share = 0.638  # paper Fig. 3(a)
    #: Constructions the proposal stage hands to deduction.
    beam_width = 2

    def __init__(self, proposal_noise: float = 0.8):
        self.proposal_noise = proposal_noise

    def generate_instance(self, task: str, scale: str = "small", seed: int = 0) -> TaskInstance:
        if task not in self.tasks:
            raise ValueError(f"unknown task {task!r}")
        rng = random.Random(hash((task, seed)) & 0xFFFFFFFF)
        hard = task == "IMO" or rng.random() < 0.4
        provable = rng.random() < 0.85
        size = dict(num_points=12, chain_length=6) if scale == "large" else dict(num_points=8, chain_length=4)
        problem = generate_deduction_problem(
            hard=hard, provable=provable, seed=seed, **size
        )
        return TaskInstance(task, scale, problem, ground_truth=provable, seed=seed)

    def propose_constructions(self, problem: DeductionProblem, seed: int) -> List[Predicate]:
        """The neural stage: rank candidates by goal relevance + noise."""
        rng = random.Random(seed)

        def score(candidate: Predicate) -> float:
            relevance = 1.0 if candidate.name == problem.goal.name else 0.0
            shared = len(set(candidate.args) & set(problem.goal.args))
            return relevance + 0.3 * shared + rng.gauss(0, self.proposal_noise)

        ranked = sorted(problem.candidate_constructions, key=score, reverse=True)
        return ranked[: self.beam_width]

    def solve(self, instance: TaskInstance) -> WorkloadResult:
        problem: DeductionProblem = instance.payload
        chainer = ForwardChainer(max_iterations=40, max_facts=50_000)
        facts = list(problem.facts)
        if problem.candidate_constructions:
            facts.extend(self.propose_constructions(problem, instance.seed))
        derived = chainer.entails(facts, problem.rules, problem.goal)
        correct = derived == problem.provable
        ops = chainer.stats.unification_attempts + chainer.stats.facts_derived
        return WorkloadResult(
            answer=derived,
            correct=correct,
            symbolic_ops=ops,
            metadata={
                "iterations": chainer.stats.iterations,
                "facts_derived": chainer.stats.facts_derived,
            },
        )

    def reason_kernel(self, instance: TaskInstance) -> CNF:
        """The SAT certificate REASON solves: a planted formula whose
        size tracks the instance's deduction footprint and whose
        derivation-chain clauses carry prunable implied literals."""
        problem: DeductionProblem = instance.payload
        num_vars = 20 + 4 * len(problem.facts)
        formula, _ = redundant_sat(
            num_vars, int(num_vars * 3.5), redundancy=0.25, seed=instance.seed
        )
        return formula

    def symbolic_profiles(self, instance: TaskInstance) -> List[KernelProfile]:
        result = self.solve(instance)
        ops = max(result.symbolic_ops, 1)
        # Deduction: pointer-heavy unification; SAT: BCP clause fetches.
        return [
            KernelProfile(KernelClass.LOGIC, flops=ops * 4.0, bytes_accessed=ops * 64.0),
            KernelProfile(KernelClass.LOGIC, flops=ops * 2.0, bytes_accessed=ops * 48.0),
        ]

    def neural_tokens(self, instance: TaskInstance) -> Tuple[int, int]:
        scale_factor = 2 if instance.scale == "large" else 1
        # Proposal loops: longer generation than classification workloads.
        return 512 * scale_factor, 128 * scale_factor
