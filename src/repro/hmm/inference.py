"""HMM inference: filtering, smoothing, decoding.

Scaled forward-backward (per-step normalization) keeps long sequences
numerically stable; the scaling factors recover the exact
log-likelihood.  These are the "sequential message passing" DAG
traversals of the paper's Fig. 5.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.hmm.model import HMM


def forward(hmm: HMM, observations: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """Scaled forward pass.

    Returns ``(alpha, scales)`` with ``alpha[t, s]`` = P(z_t = s | x_1:t)
    and ``scales[t]`` = P(x_t | x_1:t-1).
    """
    hmm.check_observations(observations)
    T = len(observations)
    S = hmm.num_states
    alpha = np.zeros((T, S))
    scales = np.zeros(T)
    for t, obs in enumerate(observations):
        if t == 0:
            unnormalized = hmm.initial * hmm.emission[:, obs]
        else:
            unnormalized = (alpha[t - 1] @ hmm.transition) * hmm.emission[:, obs]
        scale = unnormalized.sum()
        scales[t] = scale
        alpha[t] = unnormalized / scale if scale > 0 else 0.0
    return alpha, scales


def backward(hmm: HMM, observations: Sequence[int], scales: np.ndarray) -> np.ndarray:
    """Scaled backward pass matching :func:`forward`'s scaling."""
    T = len(observations)
    S = hmm.num_states
    beta = np.zeros((T, S))
    beta[T - 1] = 1.0
    for t in range(T - 2, -1, -1):
        obs = observations[t + 1]
        scale = scales[t + 1]
        raw = hmm.transition @ (hmm.emission[:, obs] * beta[t + 1])
        beta[t] = raw / scale if scale > 0 else 0.0
    return beta


def log_likelihood(hmm: HMM, observations: Sequence[int]) -> float:
    """log P(x_1:T); -inf for impossible sequences."""
    if not len(observations):
        return 0.0
    _, scales = forward(hmm, observations)
    if np.any(scales <= 0):
        return float("-inf")
    return float(np.log(scales).sum())


def posteriors(hmm: HMM, observations: Sequence[int]) -> np.ndarray:
    """Smoothed state posteriors gamma[t, s] = P(z_t = s | x_1:T)."""
    alpha, scales = forward(hmm, observations)
    beta = backward(hmm, observations, scales)
    gamma = alpha * beta
    sums = gamma.sum(axis=1, keepdims=True)
    return np.where(sums > 0, gamma / np.where(sums > 0, sums, 1.0), 0.0)


def transition_posteriors(hmm: HMM, observations: Sequence[int]) -> np.ndarray:
    """xi[t, i, j] = P(z_t = i, z_{t+1} = j | x_1:T) for t < T-1.

    These expected transition usages drive the paper's HMM pruning: a
    transition whose total posterior mass is negligible contributes
    negligibly to the joint likelihood.
    """
    T = len(observations)
    S = hmm.num_states
    if T < 2:
        return np.zeros((0, S, S))
    alpha, scales = forward(hmm, observations)
    beta = backward(hmm, observations, scales)
    xi = np.zeros((T - 1, S, S))
    for t in range(T - 1):
        obs = observations[t + 1]
        raw = (
            alpha[t][:, None]
            * hmm.transition
            * (hmm.emission[:, obs] * beta[t + 1])[None, :]
        )
        total = raw.sum()
        xi[t] = raw / total if total > 0 else 0.0
    return xi
