"""HMM inference: filtering, smoothing, decoding.

Scaled forward-backward (per-step normalization) keeps long sequences
numerically stable; the scaling factors recover the exact
log-likelihood.  These are the "sequential message passing" DAG
traversals of the paper's Fig. 5.

Every pass runs over a batch of equal-length sequences: one forward
recurrence (:func:`_forward`) and one backward recurrence
(:func:`_backward`), each a loop over the steps whose body serves all
the batch's sequences at once.  The one-sequence functions below are a
batch of one, and Baum-Welch, posterior pruning and the workloads pass
whole corpora.  A batch computes every number bit for bit as a
sequence on its own would: each step product is a stack of one-row
matmuls, ``(alpha[:, None, :] @ A)[:, 0]`` and ``(A @ v[:, :, None])[:,
:, 0]`` (a plain ``(N, S) @ (S, S)`` or ``einsum`` rounds differently),
and every total is a sum along a contiguous last axis.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.hmm.model import HMM


def _by_length(
    sequences: Sequence[Sequence[int]],
) -> Tuple[Dict[int, np.ndarray], List[Tuple[int, int]]]:
    """Stack the non-empty sequences by length.

    Returns each length's ``(N, T)`` symbol array and the ``(length,
    row)`` of every non-empty sequence in the caller's order:
    statistics that add up over sequences add in that order, since
    float addition does not associate.
    """
    stacks: Dict[int, list] = {}
    order = []
    for observations in sequences:
        if len(observations):
            stack = stacks.setdefault(len(observations), [])
            order.append((len(observations), len(stack)))
            stack.append(observations)
    return {length: np.asarray(stack) for length, stack in stacks.items()}, order


def _emissions(hmm: HMM, sequences: Sequence[Sequence[int]]) -> np.ndarray:
    """``emission[s, sequences[n][t]]`` at ``[n, t, s]`` for equal-length sequences."""
    symbols = np.asarray(sequences)
    return hmm.emission.T[symbols if symbols.size else symbols.astype(np.intp)]


def _forward(hmm: HMM, emissions: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The scaled forward recurrence over ``(N, T, S)`` emissions:
    ``alpha[n, t, s]`` = P(z_t = s | x_1:t) and ``scales[n, t]`` =
    P(x_t | x_1:t-1) of sequence ``n``; a step whose scale is 0 leaves
    alpha 0."""
    N, T, S = emissions.shape
    alpha = np.zeros((N, T, S))
    scales = np.zeros((N, T))
    for t in range(T):
        if t == 0:
            unnormalized = hmm.initial * emissions[:, 0]
        else:
            unnormalized = (alpha[:, t - 1, None, :] @ hmm.transition)[:, 0] * emissions[:, t]
        scale = unnormalized.sum(axis=-1)
        scales[:, t] = scale
        np.divide(unnormalized, scale[:, None], out=alpha[:, t], where=scale[:, None] > 0)
    return alpha, scales


def _backward(hmm: HMM, emissions: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """The backward recurrence matching :func:`_forward`'s scaling."""
    N, T, S = emissions.shape
    beta = np.zeros((N, T, S))
    beta[:, -1:] = 1.0  # the last step, if there is one
    for t in range(T - 2, -1, -1):
        raw = (hmm.transition @ (emissions[:, t + 1] * beta[:, t + 1])[:, :, None])[:, :, 0]
        scale = scales[:, t + 1, None]
        np.divide(raw, scale, out=beta[:, t], where=scale > 0)
    return beta


def _state_posteriors(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    gamma = alpha * beta
    sums = gamma.sum(axis=-1, keepdims=True)
    return np.where(sums > 0, gamma / np.where(sums > 0, sums, 1.0), 0.0)


def _transition_posteriors(
    hmm: HMM, emissions: np.ndarray, alpha: np.ndarray, beta: np.ndarray
) -> np.ndarray:
    N, T, S = alpha.shape
    raw = (
        alpha[:, :-1, :, None]
        * hmm.transition
        * (emissions[:, 1:] * beta[:, 1:])[:, :, None, :]
    )
    totals = raw.reshape(N, T - 1, S * S).sum(axis=-1)[:, :, None, None]
    return np.divide(raw, totals, out=np.zeros_like(raw), where=totals > 0)


def _log_likelihoods(scales: np.ndarray) -> np.ndarray:
    """log P(x_1:T) along the last (time) axis of ``scales``; -inf where
    a step has scale 0."""
    possible = scales > 0
    logs = np.log(np.where(possible, scales, 1.0)).sum(axis=-1)
    return np.where(possible.all(axis=-1), logs, -np.inf)


def forward(hmm: HMM, observations: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """Scaled forward pass.

    Returns ``(alpha, scales)`` with ``alpha[t, s]`` = P(z_t = s | x_1:t)
    and ``scales[t]`` = P(x_t | x_1:t-1).
    """
    hmm.check_observations(observations)
    alpha, scales = _forward(hmm, _emissions(hmm, [observations]))
    return alpha[0], scales[0]


def backward(hmm: HMM, observations: Sequence[int], scales: np.ndarray) -> np.ndarray:
    """Scaled backward pass matching :func:`forward`'s scaling."""
    hmm.check_observations(observations)
    emissions = _emissions(hmm, [observations])
    return _backward(hmm, emissions, np.asarray(scales, dtype=float)[None])[0]


def log_likelihood(hmm: HMM, observations: Sequence[int]) -> float:
    """log P(x_1:T); -inf for impossible sequences."""
    if not len(observations):
        return 0.0
    _, scales = forward(hmm, observations)
    return float(_log_likelihoods(scales))


def log_likelihoods(hmm: HMM, sequences: Sequence[Sequence[int]]) -> List[float]:
    """:func:`log_likelihood` of each sequence, in order, from one
    batched forward pass per length."""
    for observations in sequences:
        hmm.check_observations(observations)
    symbols, order = _by_length(sequences)
    batches = {
        T: _log_likelihoods(_forward(hmm, _emissions(hmm, batch))[1])
        for T, batch in symbols.items()
    }
    values = iter([float(batches[T][row]) for T, row in order])
    return [next(values) if len(observations) else 0.0 for observations in sequences]


def posteriors(hmm: HMM, observations: Sequence[int]) -> np.ndarray:
    """Smoothed state posteriors gamma[t, s] = P(z_t = s | x_1:T)."""
    alpha, scales = forward(hmm, observations)
    return _state_posteriors(alpha, backward(hmm, observations, scales))


def transition_posteriors(hmm: HMM, observations: Sequence[int]) -> np.ndarray:
    """xi[t, i, j] = P(z_t = i, z_{t+1} = j | x_1:T) for t < T-1.

    These expected transition usages drive the paper's HMM pruning: a
    transition whose total posterior mass is negligible contributes
    negligibly to the joint likelihood.
    """
    if len(observations) < 2:
        return np.zeros((0, hmm.num_states, hmm.num_states))
    alpha, scales = forward(hmm, observations)
    beta = backward(hmm, observations, scales)
    emissions = _emissions(hmm, [observations])
    return _transition_posteriors(hmm, emissions, alpha[None], beta[None])[0]


def transition_usage(hmm: HMM, sequences: Sequence[Sequence[int]]) -> np.ndarray:
    """``transition_posteriors(hmm, x).sum(axis=0)`` added up over the
    sequences in order (one shorter than 2 adds nothing), from one
    batched forward-backward per length."""
    long_enough = [observations for observations in sequences if len(observations) >= 2]
    for observations in long_enough:
        hmm.check_observations(observations)
    symbols, order = _by_length(long_enough)
    totals = {}
    for T, batch in symbols.items():
        emissions = _emissions(hmm, batch)
        alpha, scales = _forward(hmm, emissions)
        beta = _backward(hmm, emissions, scales)
        totals[T] = _transition_posteriors(hmm, emissions, alpha, beta).sum(axis=1)
    usage = np.zeros((hmm.num_states, hmm.num_states))
    for T, row in order:
        usage += totals[T][row]
    return usage
