"""LINC-style workload: logical reasoning by combining language models
with first-order logic provers (paper Table I, tasks FOLIO and
ProofWriter; metric accuracy).

The neural stage parses natural language into FOL (here: the generator
hands us the formalization directly, with occasional *parse errors*
modeling the LLM's semantic-parsing failure mode); the symbolic stage
decides entailment by resolution with a budget.  Accuracy reflects both
parse quality and prover completeness — LINC's actual failure modes.
"""

from __future__ import annotations

import random
from typing import List

from repro.baselines.device import KernelClass, KernelProfile
from repro.logic.cnf import CNF
from repro.logic.fol.clausify import clausify_all, ground_to_cnf
from repro.logic.fol.resolution import ResolutionProver
from repro.logic.fol.terms import Not
from repro.workloads.base import NeuroSymbolicWorkload, TaskInstance, WorkloadResult
from repro.workloads.datasets import EntailmentProblem, generate_entailment_problem


class LINCWorkload(NeuroSymbolicWorkload):
    name = "LINC"
    tasks = ("FOLIO", "ProofWriter")
    metric = "Accuracy"
    model_name = "8B"
    symbolic_runtime_share = 0.348  # paper Fig. 3(a)
    #: Probability the formalization drops a premise.
    parse_error_rate = 0.06
    #: Clauses the resolution prover may generate.
    prover_budget = 3000

    def generate_instance(self, task: str, scale: str = "small", seed: int = 0) -> TaskInstance:
        if task not in self.tasks:
            raise ValueError(f"unknown task {task!r}")
        rng = random.Random(hash((task, seed)) & 0xFFFFFFFF)
        depth = (5 if scale == "large" else 3) + (1 if task == "FOLIO" else 0)
        entailed = rng.random() < 0.5
        problem = generate_entailment_problem(
            depth=depth,
            num_distractors=4 if scale == "large" else 2,
            entailed=entailed,
            seed=seed,
        )
        return TaskInstance(task, scale, problem, ground_truth=entailed, seed=seed)

    def parse(self, problem: EntailmentProblem, seed: int) -> EntailmentProblem:
        """The neural stage: formalization with a small error rate.

        A parse error drops one theory formula — the dominant LINC
        failure mode (missing premise → wrong non-entailment verdict).
        """
        rng = random.Random(seed ^ 0x5EED)
        if rng.random() < self.parse_error_rate and len(problem.theory) > 1:
            keep = list(problem.theory)
            keep.pop(rng.randrange(len(keep)))
            return EntailmentProblem(keep, problem.goal, problem.entailed)
        return problem

    def solve(self, instance: TaskInstance) -> WorkloadResult:
        problem = self.parse(instance.payload, instance.seed)
        prover = ResolutionProver(max_clauses=self.prover_budget)
        verdict = prover.prove(problem.theory, problem.goal)
        answer = bool(verdict) if verdict is not None else False
        ops = prover.stats.resolutions + prover.stats.clauses_generated
        return WorkloadResult(
            answer=answer,
            correct=answer == instance.payload.entailed,
            symbolic_ops=max(ops, 1),
            metadata={
                "clauses_generated": prover.stats.clauses_generated,
                "budget_exhausted": float(verdict is None),
            },
        )

    def reason_kernel(self, instance: TaskInstance) -> CNF:
        """Herbrand-grounded clause set of theory ∪ ¬goal as CNF.

        The problems use a single-constant domain, so grounding every
        universally quantified formula over the constants yields a
        propositional SAT instance equivalent to the entailment check —
        the binary implication chains of the theory are exactly what
        REASON's implication-graph pruning exploits.
        """
        from repro.logic.fol.clausify import _substitute_formula
        from repro.logic.fol.terms import Const, ForAll

        problem: EntailmentProblem = instance.payload
        constants = [Const("c")]
        grounded = []
        for formula in list(problem.theory) + [Not(problem.goal)]:
            if isinstance(formula, ForAll):
                for constant in constants:
                    grounded.append(
                        _substitute_formula(formula.body, {formula.variable: constant})
                    )
            else:
                grounded.append(formula)
        clauses = clausify_all(grounded)
        ground = [c for c in clauses if c.is_ground()]
        formula, _ = ground_to_cnf(ground)
        return formula

    def symbolic_profiles(self, instance: TaskInstance) -> List[KernelProfile]:
        result = self.solve(instance)
        ops = result.symbolic_ops
        return [
            KernelProfile(KernelClass.LOGIC, flops=ops * 6.0, bytes_accessed=ops * 80.0)
        ]
