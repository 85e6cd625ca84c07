"""HMM parameters: initial, transition and emission distributions."""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from numbers import Integral
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


@dataclass
class HMM:
    """A discrete-observation hidden Markov model.

    Attributes
    ----------
    initial:
        Shape (S,): P(z_1 = s).
    transition:
        Shape (S, S): ``transition[i, j]`` = P(z_t = j | z_{t-1} = i).
    emission:
        Shape (S, V): ``emission[s, o]`` = P(x_t = o | z_t = s).
    """

    initial: np.ndarray
    transition: np.ndarray
    emission: np.ndarray

    # The cache key's memo (see ``KernelAdapter.fingerprint``): derived
    # data, kept out of ``==``, ``repr`` and pickles like ``CNF``'s.
    _key_memo = None

    def __post_init__(self) -> None:
        self.initial = np.asarray(self.initial, dtype=float)
        self.transition = np.asarray(self.transition, dtype=float)
        self.emission = np.asarray(self.emission, dtype=float)
        if self.initial.ndim != 1 or not self.initial.size:
            raise ValueError("initial must be (S,) with at least one state")
        s = self.num_states
        if self.transition.shape != (s, s):
            raise ValueError("transition must be (S, S)")
        if self.emission.ndim != 2 or self.emission.shape[0] != s:
            raise ValueError("emission must be (S, V)")
        for name, row_stochastic in (
            ("initial", self.initial[None, :]),
            ("transition", self.transition),
            ("emission", self.emission),
        ):
            if not np.isfinite(row_stochastic).all():
                raise ValueError(f"{name} has non-finite entries")
            if np.any(row_stochastic < -1e-12):
                raise ValueError(f"{name} has negative entries")

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state.pop("_key_memo", None)
        return state

    @property
    def num_states(self) -> int:
        return len(self.initial)

    @property
    def num_observations(self) -> int:
        return self.emission.shape[1]

    def check_observations(self, observations: Sequence[int]) -> None:
        """Raise a ValueError naming the first observation that is not
        one of this HMM's symbols ``0 .. num_observations - 1`` (an
        integer, Python's or numpy's, never a bool or a float): every
        path that reads ``emission`` by symbol checks here first, so a
        symbol is never wrapped, read from the wrong end or taken for
        a mask."""
        count = self.num_observations
        for position, symbol in enumerate(observations):
            integral = isinstance(symbol, Integral) and not isinstance(symbol, bool)
            if not (integral and 0 <= symbol < count):
                raise ValueError(
                    f"observation {position} is symbol {symbol!r}, outside this "
                    f"HMM's symbols 0..{count - 1}"
                )

    def validate_stochastic(self) -> None:
        """Raise unless all distributions are normalized (to 1e-8)."""
        if not np.isclose(self.initial.sum(), 1.0, atol=1e-8):
            raise ValueError("initial distribution is not normalized")
        if not np.allclose(self.transition.sum(axis=1), 1.0, atol=1e-8):
            raise ValueError("transition rows are not normalized")
        if not np.allclose(self.emission.sum(axis=1), 1.0, atol=1e-8):
            raise ValueError("emission rows are not normalized")

    def normalized(self) -> "HMM":
        """Row-normalized copy (zero rows become uniform)."""

        def norm(matrix: np.ndarray) -> np.ndarray:
            matrix = np.asarray(matrix, dtype=float)
            sums = matrix.sum(axis=-1, keepdims=True)
            out = np.where(sums > 0, matrix / np.where(sums > 0, sums, 1.0), 1.0 / matrix.shape[-1])
            return out

        return HMM(norm(self.initial[None, :])[0], norm(self.transition), norm(self.emission))

    def sample(self, length: int, rng: Optional[_random.Random] = None) -> Tuple[List[int], List[int]]:
        """Sample (states, observations) of the given length."""
        rng = rng or _random.Random()

        def draw(probabilities: np.ndarray) -> int:
            r = rng.random()
            cumulative = 0.0
            for idx, p in enumerate(probabilities):
                cumulative += p
                if r <= cumulative:
                    return idx
            return len(probabilities) - 1

        states: List[int] = []
        observations: List[int] = []
        for t in range(length):
            if t == 0:
                state = draw(self.initial)
            else:
                state = draw(self.transition[states[-1]])
            states.append(state)
            observations.append(draw(self.emission[state]))
        return states, observations

    @staticmethod
    def random(
        num_states: int,
        num_observations: int,
        seed: Optional[int] = None,
        concentration: float = 1.0,
    ) -> "HMM":
        """A random HMM with Dirichlet(concentration) rows."""
        rng = np.random.default_rng(seed)
        initial = rng.dirichlet([concentration] * num_states)
        transition = rng.dirichlet([concentration] * num_states, size=num_states)
        emission = rng.dirichlet([concentration] * num_observations, size=num_states)
        return HMM(initial, transition, emission)
