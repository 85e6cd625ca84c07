"""Observations are checked where they enter, with the same error.

Baum-Welch, posterior pruning and the workloads pass whole corpora
through one batched forward-backward, and check each sequence once, at
the door, instead of once per pass.  These tests hold the error a bad
symbol raises to the one the per-sequence passes raised: a
``ValueError`` naming the first bad symbol of the first sequence (in
the caller's order) that holds one.
"""

import numpy as np
import pytest

from repro.core.dag.pruning import prune_hmm_by_posterior
from repro.hmm.inference import backward, forward, log_likelihood, log_likelihoods, posteriors
from repro.hmm.learn import baum_welch
from repro.hmm.model import HMM


def outside(position: int, symbol: int, count: int = 4) -> str:
    return (
        f"observation {position} is symbol {symbol!r}, outside this HMM's "
        f"symbols 0..{count - 1}"
    )


@pytest.fixture
def hmm() -> HMM:
    return HMM.random(3, 4, seed=3)


class TestBadSymbols:
    @pytest.mark.parametrize(
        "sequences, position, symbol",
        [
            ([[0, 1, 2], [1, 4, 0]], 1, 4),
            ([[0, -1, 2]], 1, -1),
            ([[], [3, 3], [0, 1, 9], [7, 0, 0]], 2, 9),
            ([[1, 2], [2, 3, 1, 0, 5]], 4, 5),
        ],
    )
    def test_baum_welch(self, hmm, sequences, position, symbol):
        with pytest.raises(ValueError) as raised:
            baum_welch(hmm, sequences, iterations=2)
        assert str(raised.value) == outside(position, symbol)

    def test_posteriors(self, hmm):
        with pytest.raises(ValueError) as raised:
            posteriors(hmm, [0, 2, 4])
        assert str(raised.value) == outside(2, 4)

    def test_log_likelihood(self, hmm):
        with pytest.raises(ValueError) as raised:
            log_likelihood(hmm, [-2])
        assert str(raised.value) == outside(0, -2)

    def test_posterior_pruning(self, hmm):
        with pytest.raises(ValueError) as raised:
            prune_hmm_by_posterior(hmm, [[0, 1], [1, 2, 6]])
        assert str(raised.value) == outside(2, 6)

    @pytest.mark.parametrize(
        "observations, position, symbol",
        [
            ([1.5, 2], 0, 1.5),
            ([0, 2.0], 1, 2.0),
            ([True, False], 0, True),
            ([1, np.bool_(False)], 1, np.bool_(False)),
            ([2, np.float64(1.0)], 1, np.float64(1.0)),
        ],
        ids=["float", "integral-float", "bool", "numpy-bool", "numpy-float"],
    )
    def test_a_symbol_is_an_integer(self, hmm, observations, position, symbol):
        with pytest.raises(ValueError) as raised:
            log_likelihood(hmm, observations)
        assert str(raised.value) == outside(position, symbol)
        with pytest.raises(ValueError) as raised:
            baum_welch(hmm, [[0, 1], observations], iterations=2)
        assert str(raised.value) == outside(position, symbol)

    def test_numpy_integers_are_symbols(self, hmm):
        expected = log_likelihood(hmm, [0, 3, 1])
        assert log_likelihood(hmm, np.array([0, 3, 1])) == expected
        assert log_likelihood(hmm, [np.int64(0), np.uint8(3), np.int32(1)]) == expected


class TestEmptySequences:
    def test_baum_welch_skips_them_between_lengths(self, hmm):
        # Empties interleaved with three lengths: the stacking by length
        # keeps every other sequence where the caller put it.
        sequences = [[0, 1, 2, 3], [3, 2], [1]]
        clean, clean_history = baum_welch(hmm, sequences, iterations=3)
        padded, padded_history = baum_welch(
            hmm, [[], sequences[0], [], sequences[1], sequences[2], []], iterations=3
        )
        assert padded_history == clean_history
        for table in ("initial", "transition", "emission"):
            np.testing.assert_array_equal(getattr(padded, table), getattr(clean, table))

    @pytest.mark.parametrize("sequences", [[], [[]], [[], []]])
    def test_baum_welch_needs_a_sequence(self, hmm, sequences):
        with pytest.raises(ValueError, match="baum_welch needs at least one sequence"):
            baum_welch(hmm, sequences)

    def test_the_passes_over_an_empty_sequence_are_empty(self, hmm):
        alpha, scales = forward(hmm, [])
        assert alpha.shape == (0, hmm.num_states) and scales.shape == (0,)
        for empty in (backward(hmm, [], scales), posteriors(hmm, [])):
            assert empty.shape == alpha.shape and empty.dtype == alpha.dtype


def test_log_likelihoods_is_log_likelihood_of_each(hmm):
    sequences = [[0, 1], [], [3, 2, 1, 0, 0], [2], [1, 1]]
    assert log_likelihoods(hmm, sequences) == [log_likelihood(hmm, s) for s in sequences]
