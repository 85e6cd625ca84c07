"""Baum-Welch (EM) parameter estimation for HMMs."""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.hmm.inference import log_likelihood, posteriors, transition_posteriors
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
    """
    if not sequences:
        raise ValueError("baum_welch needs at least one sequence")
    model = hmm.normalized()
    history: List[float] = []
    S, V = model.num_states, model.num_observations

    for _ in range(iterations):
        initial_acc = np.full(S, 1e-3)
        transition_acc = np.full((S, S), 1e-3)
        emission_acc = np.full((S, V), 1e-3)

        for observations in sequences:
            if not len(observations):
                continue
            gamma = posteriors(model, observations)
            xi = transition_posteriors(model, observations)
            initial_acc += gamma[0]
            transition_acc += xi.sum(axis=0)
            for t, obs in enumerate(observations):
                emission_acc[:, obs] += gamma[t]

        model = HMM(
            initial_acc / initial_acc.sum(),
            transition_acc / transition_acc.sum(axis=1, keepdims=True),
            emission_acc / emission_acc.sum(axis=1, keepdims=True),
        )
        mean_ll = float(
            np.mean([log_likelihood(model, obs) for obs in sequences if len(obs)])
        )
        history.append(mean_ll)
        if len(history) >= 2 and abs(history[-1] - history[-2]) < 1e-6:
            break
    return model, history
