"""Constrained HMM decoding: HMM × DFA products.

This is the computational heart of the paper's GeLaTo and Ctrl-G
workloads: an autoregressive sequence model (here the HMM standing in
for an LM's tractable surrogate) is intersected with a deterministic
finite automaton expressing a hard lexical constraint, and generation
follows the product model so every emitted sequence satisfies the
constraint by construction.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.hmm.model import HMM


@dataclass
class DFAConstraint:
    """A DFA over the HMM's observation alphabet.

    ``transitions[(state, symbol)]`` gives the successor state; missing
    entries are dead (reject).  ``accepting`` is the set of accepting
    states.
    """

    num_states: int
    transitions: Dict[Tuple[int, int], int]
    accepting: FrozenSet[int]
    start: int = 0

    def step(self, state: Optional[int], symbol: int) -> Optional[int]:
        if state is None:
            return None
        return self.transitions.get((state, symbol))

    def accepts(self, sequence: Sequence[int]) -> bool:
        state: Optional[int] = self.start
        for symbol in sequence:
            state = self.step(state, symbol)
            if state is None:
                return False
        return state in self.accepting

    @staticmethod
    def contains_word(word: Sequence[int], alphabet_size: int) -> "DFAConstraint":
        """DFA accepting sequences containing ``word`` as a substring
        (KMP automaton) — the "must mention keyword" constraint of
        CommonGen-style tasks."""
        n = len(word)
        if n == 0:
            raise ValueError("word must be non-empty")
        failure = [0] * n
        k = 0
        for i in range(1, n):
            while k > 0 and word[i] != word[k]:
                k = failure[k - 1]
            if word[i] == word[k]:
                k += 1
            failure[i] = k
        transitions: Dict[Tuple[int, int], int] = {}
        for state in range(n + 1):
            for symbol in range(alphabet_size):
                if state == n:
                    transitions[(state, symbol)] = n  # absorbing accept
                    continue
                k = state
                while k > 0 and symbol != word[k]:
                    k = failure[k - 1]
                if symbol == word[k]:
                    k += 1
                transitions[(state, symbol)] = k
        return DFAConstraint(n + 1, transitions, frozenset([n]))

    @staticmethod
    def forbids_symbol(symbol: int, alphabet_size: int) -> "DFAConstraint":
        """DFA accepting sequences that never emit ``symbol``."""
        transitions = {
            (0, s): 0 for s in range(alphabet_size) if s != symbol
        }
        return DFAConstraint(1, transitions, frozenset([0]))


@dataclass
class ConstrainedDecodeResult:
    sequence: List[int]
    log_probability: float
    satisfied: bool
    product_states: int = 0


def product_forward_table(
    hmm: HMM, dfa: DFAConstraint, length: int
) -> np.ndarray:
    """Backward "suffix mass" table over the HMM × DFA product.

    ``table[t, s, q]`` = total probability, starting at time t in HMM
    state s and DFA state q, of emitting a length-(length - t) suffix
    that leaves the DFA in an accepting state.  Computed right-to-left;
    this is exactly the dynamic program GeLaTo/Ctrl-G run to steer
    generation.
    """
    S = hmm.num_states
    Q = dfa.num_states
    table = np.zeros((length + 1, S, Q))
    for q in dfa.accepting:
        table[length, :, q] = 1.0
    for t in range(length - 1, -1, -1):
        for q in range(Q):
            acc = np.zeros(S)
            for symbol in range(hmm.num_observations):
                q_next = dfa.transitions.get((q, symbol))
                if q_next is None:
                    continue
                # P(emit symbol | state) * E_{next state}[suffix mass]
                acc += hmm.emission[:, symbol] * (
                    hmm.transition @ table[t + 1, :, q_next]
                    if t + 1 < length
                    else table[t + 1, :, q_next]
                )
            table[t, :, q] = acc
    return table


def constrained_decode(
    hmm: HMM,
    dfa: DFAConstraint,
    length: int,
    rng: Optional[_random.Random] = None,
) -> ConstrainedDecodeResult:
    """Sample a length-``length`` sequence from the HMM conditioned on
    DFA acceptance.

    Exact: uses the product-space suffix table so the sampled sequence
    is drawn from P(x_1:T | DFA accepts x_1:T).  Returns a result with
    ``satisfied=False`` when the constraint has zero probability mass.
    """
    rng = rng or _random.Random()
    table = product_forward_table(hmm, dfa, length)

    total_mass = float(hmm.initial @ table[0, :, dfa.start])
    if total_mass <= 0:
        return ConstrainedDecodeResult([], float("-inf"), False, dfa.num_states * hmm.num_states)

    sequence: List[int] = []
    log_prob = 0.0
    state_dist = hmm.initial.copy()  # P(z_t | choices so far), unnormalized
    q = dfa.start
    for t in range(length):
        scores = np.zeros(hmm.num_observations)
        for symbol in range(hmm.num_observations):
            q_next = dfa.transitions.get((q, symbol))
            if q_next is None:
                continue
            weighted = state_dist * hmm.emission[:, symbol]
            if t + 1 < length:
                scores[symbol] = float((weighted @ hmm.transition) @ table[t + 1, :, q_next])
            else:
                scores[symbol] = float(weighted @ table[t + 1, :, q_next])
        total = scores.sum()
        if total <= 0:
            return ConstrainedDecodeResult(sequence, float("-inf"), False, dfa.num_states * hmm.num_states)
        probabilities = scores / total
        symbol = int(rng.choices(range(hmm.num_observations), weights=probabilities)[0])
        log_prob += float(np.log(probabilities[symbol]))
        # Advance the (unnormalized) HMM state belief and the DFA.
        state_dist = state_dist * hmm.emission[:, symbol]
        norm = state_dist.sum()
        if norm > 0:
            state_dist = state_dist / norm
        if t + 1 < length:
            state_dist = state_dist @ hmm.transition
        q = dfa.transitions[(q, symbol)]
        sequence.append(symbol)

    return ConstrainedDecodeResult(
        sequence, log_prob, dfa.accepts(sequence), dfa.num_states * hmm.num_states
    )
