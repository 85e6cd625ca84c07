"""Baum-Welch (EM) parameter estimation for HMMs."""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.hmm.inference import (
    _backward,
    _by_length,
    _emissions,
    _forward,
    _log_likelihoods,
    _state_posteriors,
    _transition_posteriors,
)
from repro.hmm.model import HMM


def baum_welch(
    hmm: HMM,
    sequences: Sequence[Sequence[int]],
    iterations: int = 20,
) -> Tuple[HMM, List[float]]:
    """Fit HMM parameters by EM over multiple observation sequences.

    Every count starts from a 1e-3 pseudo-count; EM stops early once an
    iteration gains less than 1e-6 in mean log-likelihood.  Returns the
    fitted model and the per-iteration mean log-likelihood trajectory
    (non-decreasing up to numerical noise).

    Each model runs one batched forward pass per sequence length: it
    serves the mean log-likelihood recorded for that model and, with
    one backward pass, the next iteration's E-step.  Empty sequences
    are skipped, and a corpus of nothing else is no corpus.
    """
    model = hmm.normalized()
    for observations in sequences:
        model.check_observations(observations)
    symbols, order = _by_length(sequences)
    if not order:
        raise ValueError("baum_welch needs at least one sequence")
    flat_symbols = np.concatenate([symbols[T][row] for T, row in order])
    history: List[float] = []
    S, V = model.num_states, model.num_observations

    emissions = {T: _emissions(model, batch) for T, batch in symbols.items()}
    forwards = {T: _forward(model, batch) for T, batch in emissions.items()}
    for _ in range(iterations):
        initial_acc = np.full(S, 1e-3)
        transition_acc = np.full((S, S), 1e-3)
        emission_acc = np.full((S, V), 1e-3)

        gammas, transition_totals = {}, {}
        for T, (alpha, scales) in forwards.items():
            beta = _backward(model, emissions[T], scales)
            gammas[T] = _state_posteriors(alpha, beta)
            xi = _transition_posteriors(model, emissions[T], alpha, beta)
            transition_totals[T] = xi.sum(axis=1)
        for T, row in order:
            initial_acc += gammas[T][row, 0]
            transition_acc += transition_totals[T][row]
        # Column o of the emission counts gains each step's posterior
        # in turn, sequence by sequence, as a loop over the steps would.
        steps = np.concatenate([gammas[T][row] for T, row in order])
        np.add.at(emission_acc.T, flat_symbols, steps)

        model = HMM(
            initial_acc / initial_acc.sum(),
            transition_acc / transition_acc.sum(axis=1, keepdims=True),
            emission_acc / emission_acc.sum(axis=1, keepdims=True),
        )
        emissions = {T: _emissions(model, batch) for T, batch in symbols.items()}
        forwards = {T: _forward(model, batch) for T, batch in emissions.items()}
        per_sequence = {T: _log_likelihoods(scales) for T, (_, scales) in forwards.items()}
        history.append(float(np.mean([per_sequence[T][row] for T, row in order])))
        if len(history) >= 2 and abs(history[-1] - history[-2]) < 1e-6:
            break
    return model, history
