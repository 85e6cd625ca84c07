"""GeLaTo-style workload: tractable control of autoregressive generation
(paper Table I, tasks CommonGen and News; metric BLEU).

An HMM distilled from a synthetic corpus stands in for the tractable
surrogate of the language model; hard lexical constraints (keyword
inclusion) compile to DFAs; generation samples exactly from the
HMM × DFA product, so every output satisfies the constraint by
construction.  We report constraint-satisfaction rate and a BLEU-2
proxy against reference corpora — absolute BLEU differs from the paper
(synthetic vocabulary), but the pruning experiment's *delta* is what
Table IV checks.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from typing import Dict, List, Sequence, Tuple

from repro.baselines.device import KernelClass, KernelProfile
from repro.hmm.constrained import DFAConstraint, constrained_decode
from repro.hmm.learn import baum_welch
from repro.hmm.model import HMM
from repro.workloads.base import NeuroSymbolicWorkload, TaskInstance, WorkloadResult
from repro.workloads.datasets import TextCorpus, generate_text_corpus


def bleu2(candidate: Sequence[int], references: Sequence[Sequence[int]]) -> float:
    """BLEU-2: geometric mean of 1/2-gram modified precision with
    brevity penalty, against multiple references."""
    if not candidate:
        return 0.0
    precisions: List[float] = []
    for n in (1, 2):
        grams = Counter(tuple(candidate[i : i + n]) for i in range(len(candidate) - n + 1))
        if not grams:
            precisions.append(0.0)
            continue
        max_ref: Counter = Counter()
        for ref in references:
            ref_grams = Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1))
            for gram, count in ref_grams.items():
                max_ref[gram] = max(max_ref[gram], count)
        clipped = sum(min(count, max_ref.get(gram, 0)) for gram, count in grams.items())
        precisions.append(clipped / sum(grams.values()))
    if min(precisions) == 0:
        return 0.0
    closest = min(references, key=lambda r: abs(len(r) - len(candidate)))
    brevity = math.exp(min(0.0, 1.0 - len(closest) / len(candidate)))
    return 100.0 * brevity * math.exp(0.5 * (math.log(precisions[0]) + math.log(precisions[1])))


class GeLaToWorkload(NeuroSymbolicWorkload):
    name = "GeLaTo"
    tasks = ("CommonGen", "News")
    metric = "BLEU"
    model_name = "7B"
    symbolic_runtime_share = 0.366  # paper Fig. 3(a)
    num_states = 6
    vocab_size = 12

    def __init__(self):
        self._hmm_cache: Dict[Tuple[str, int], Tuple[HMM, TextCorpus]] = {}

    def _distilled_hmm(self, task: str, seed: int) -> Tuple[HMM, TextCorpus]:
        key = (task, seed)
        if key not in self._hmm_cache:
            corpus = generate_text_corpus(
                self.vocab_size, self.num_states, num_sequences=40, length=14,
                seed=hash((task, seed)) & 0xFFFF,
            )
            student = HMM.random(self.num_states, self.vocab_size, seed=seed)
            fitted, _ = baum_welch(student, corpus.sequences, iterations=4)
            self._hmm_cache[key] = (fitted, corpus)
        return self._hmm_cache[key]

    def generate_instance(self, task: str, scale: str = "small", seed: int = 0) -> TaskInstance:
        if task not in self.tasks:
            raise ValueError(f"unknown task {task!r}")
        rng = random.Random(seed)
        keyword_length = 2 if task == "CommonGen" else 3
        keyword = [rng.randrange(self.vocab_size) for _ in range(keyword_length)]
        length = 20 if scale == "large" else 12
        return TaskInstance(task, scale, (keyword, length), ground_truth=keyword, seed=seed)

    def solve(self, instance: TaskInstance) -> WorkloadResult:
        keyword, length = instance.payload
        hmm, corpus = self._distilled_hmm(instance.task, instance.seed % 3)
        dfa = DFAConstraint.contains_word(keyword, self.vocab_size)
        result = constrained_decode(hmm, dfa, length, rng=random.Random(instance.seed))
        score = bleu2(result.sequence, corpus.sequences) if result.satisfied else 0.0
        ops = length * self.num_states * self.num_states * dfa.num_states
        return WorkloadResult(
            answer=result.sequence,
            correct=result.satisfied,
            symbolic_ops=ops,
            metadata={"bleu2": score, "log_prob": result.log_probability},
        )

    def reason_kernel(self, instance: TaskInstance) -> HMM:
        hmm, _ = self._distilled_hmm(instance.task, instance.seed % 3)
        return hmm

    def calibration_sequences(self, instance: TaskInstance) -> List[List[int]]:
        _, corpus = self._distilled_hmm(instance.task, instance.seed % 3)
        return corpus.sequences[:10]

    def symbolic_profiles(self, instance: TaskInstance) -> List[KernelProfile]:
        keyword, length = instance.payload
        dfa_states = len(keyword) + 1
        s = self.num_states
        table_ops = length * s * s * dfa_states * self.vocab_size
        return [
            KernelProfile(
                KernelClass.BAYESIAN,
                flops=2.0 * table_ops,
                bytes_accessed=8.0 * table_ops,
            )
        ]
