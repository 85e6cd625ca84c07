"""Ctrl-G-style workload: interactive text editing / infilling under
logical constraints (paper Table I, task CoAuthor; metric success rate).

Given a prefix and suffix, the system fills a middle span so the whole
sequence satisfies a DFA constraint (keyword present, banned symbol
absent) while staying likely under the sequence model.  Success means
the constraint holds *and* the infill's per-token log-likelihood clears
a fluency bar — the two failure modes the paper's 87% success rate
reflects.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.baselines.device import KernelClass, KernelProfile
from repro.hmm.constrained import DFAConstraint, constrained_decode
from repro.hmm.inference import log_likelihood, log_likelihoods
from repro.hmm.learn import baum_welch
from repro.hmm.model import HMM
from repro.workloads.base import NeuroSymbolicWorkload, TaskInstance, WorkloadResult
from repro.workloads.datasets import generate_text_corpus


class CtrlGWorkload(NeuroSymbolicWorkload):
    name = "Ctrl-G"
    tasks = ("CoAuthor",)
    metric = "Success rate"
    model_name = "7B"
    symbolic_runtime_share = 0.639  # paper Fig. 3(a)
    num_states = 5
    vocab_size = 10
    #: How far below the corpus's per-token log-likelihood an infill may fall.
    fluency_margin = 1.35

    def __init__(self):
        self._hmm: Optional[HMM] = None
        self._baseline_ll: Optional[float] = None

    def _sequence_model(self) -> Tuple[HMM, float]:
        if self._hmm is None:
            corpus = generate_text_corpus(
                self.vocab_size, self.num_states, num_sequences=40, length=16, seed=99
            )
            student = HMM.random(self.num_states, self.vocab_size, seed=7)
            fitted, _ = baum_welch(student, corpus.sequences, iterations=4)
            self._hmm = fitted
            per_token = [
                value / len(seq)
                for value, seq in zip(log_likelihoods(fitted, corpus.sequences), corpus.sequences)
            ]
            self._baseline_ll = sum(per_token) / len(per_token)
        return self._hmm, self._baseline_ll  # type: ignore[return-value]

    def generate_instance(self, task: str, scale: str = "small", seed: int = 0) -> TaskInstance:
        if task not in self.tasks:
            raise ValueError(f"unknown task {task!r}")
        rng = random.Random(seed)
        hmm, _ = self._sequence_model()
        prefix = hmm.sample(4, rng)[1]
        suffix = hmm.sample(3, rng)[1]
        fill_length = 10 if scale == "large" else 6
        constraint_kind = rng.choice(["keyword", "forbid"])
        if constraint_kind == "keyword":
            constraint = [rng.randrange(self.vocab_size)]
        else:
            constraint = [rng.randrange(self.vocab_size)]
        return TaskInstance(
            task,
            scale,
            (prefix, suffix, fill_length, constraint_kind, constraint),
            seed=seed,
        )

    def solve(self, instance: TaskInstance) -> WorkloadResult:
        prefix, suffix, fill_length, kind, constraint = instance.payload
        hmm, baseline = self._sequence_model()
        if kind == "keyword":
            dfa = DFAConstraint.contains_word(constraint, self.vocab_size)
        else:
            dfa = DFAConstraint.forbids_symbol(constraint[0], self.vocab_size)
        result = constrained_decode(
            hmm, dfa, fill_length, rng=random.Random(instance.seed)
        )
        if not result.satisfied:
            return WorkloadResult(answer=None, correct=False, symbolic_ops=1)
        full = list(prefix) + result.sequence + list(suffix)
        per_token = log_likelihood(hmm, full) / len(full)
        fluent = per_token > baseline * self.fluency_margin  # LLs are negative
        ops = fill_length * self.num_states ** 2 * dfa.num_states
        return WorkloadResult(
            answer=result.sequence,
            correct=bool(fluent),
            symbolic_ops=ops,
            metadata={"per_token_ll": per_token, "baseline_ll": baseline},
        )

    def reason_kernel(self, instance: TaskInstance) -> HMM:
        hmm, _ = self._sequence_model()
        return hmm

    def calibration_sequences(self, instance: TaskInstance) -> List[List[int]]:
        hmm, _ = self._sequence_model()
        rng = random.Random(3)
        return [hmm.sample(12, rng)[1] for _ in range(8)]

    def symbolic_profiles(self, instance: TaskInstance) -> List[KernelProfile]:
        prefix, suffix, fill_length, kind, constraint = instance.payload
        dfa_states = len(constraint) + 1 if kind == "keyword" else 1
        ops = fill_length * self.num_states ** 2 * dfa_states * self.vocab_size
        # Ctrl-G reads/writes state probabilities iteratively (paper:
        # memory-bound HMM updates).
        return [
            KernelProfile(KernelClass.BAYESIAN, flops=2.0 * ops, bytes_accessed=10.0 * ops)
        ]

    def neural_tokens(self, instance: TaskInstance) -> Tuple[int, int]:
        scale_factor = 2 if instance.scale == "large" else 1
        return 384 * scale_factor, 96 * scale_factor
