"""Tests for the HMM substrate: inference, learning, constrained decoding."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hmm.constrained import DFAConstraint, constrained_decode, product_forward_table
from repro.hmm.inference import (
    backward,
    forward,
    log_likelihood,
    posteriors,
    transition_posteriors,
)
from repro.hmm.learn import baum_welch
from repro.hmm.model import HMM


def weather_hmm() -> HMM:
    """Classic 2-state (rainy/sunny) 3-observation (walk/shop/clean) HMM."""
    return HMM(
        initial=[0.6, 0.4],
        transition=[[0.7, 0.3], [0.4, 0.6]],
        emission=[[0.1, 0.4, 0.5], [0.6, 0.3, 0.1]],
    )


def brute_force_likelihood(hmm: HMM, observations) -> float:
    total = 0.0
    S = hmm.num_states
    for states in itertools.product(range(S), repeat=len(observations)):
        p = hmm.initial[states[0]] * hmm.emission[states[0], observations[0]]
        for t in range(1, len(observations)):
            p *= hmm.transition[states[t - 1], states[t]] * hmm.emission[states[t], observations[t]]
        total += p
    return total


class TestModel:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            HMM([1.0], [[1.0, 0.0]], [[1.0]])

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            HMM([1.1, -0.1], [[1, 0], [0, 1]], [[1, 0], [0, 1]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["initial", "transition", "emission"])
    def test_non_finite_entries_rejected(self, field, bad):
        # NaN < 0 is False, so a sign test alone lets it through.
        parameters = {
            "initial": [0.5, 0.5],
            "transition": [[0.5, 0.5], [0.5, 0.5]],
            "emission": [[0.5, 0.5], [0.5, 0.5]],
        }
        table = np.array(parameters[field], dtype=float)
        table.flat[-1] = bad
        parameters[field] = table
        with pytest.raises(ValueError, match=f"{field} has non-finite entries"):
            HMM(**parameters)

    def test_two_dimensional_initial_rejected(self):
        with pytest.raises(ValueError, match=r"initial must be \(S,\)"):
            HMM([[0.5], [0.5]], [[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]])

    def test_an_hmm_without_states_rejected(self):
        # It used to construct, then fail to compile ("op node 0 has no inputs").
        with pytest.raises(ValueError, match="at least one state"):
            HMM([], np.zeros((0, 0)), np.zeros((0, 2)))

    def test_one_dimensional_emission_rejected(self):
        # One entry per state passes a row count; it is not (S, V).
        with pytest.raises(ValueError, match=r"emission must be \(S, V\)"):
            HMM([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]], [0.3, 0.7])

    def test_validate_stochastic(self):
        weather_hmm().validate_stochastic()
        broken = HMM([0.5, 0.4], [[0.7, 0.3], [0.4, 0.6]], [[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError):
            broken.validate_stochastic()

    def test_normalized_fixes_rows(self):
        skewed = HMM([2.0, 2.0], [[2, 2], [1, 3]], [[4, 0], [0, 4]])
        model = skewed.normalized()
        model.validate_stochastic()

    def test_random_hmm_is_stochastic(self):
        HMM.random(4, 5, seed=0).validate_stochastic()

    def test_sample_shapes(self):
        states, observations = weather_hmm().sample(10, random.Random(0))
        assert len(states) == len(observations) == 10
        assert all(0 <= s < 2 for s in states)
        assert all(0 <= o < 3 for o in observations)


class TestInference:
    def test_forward_scales_give_likelihood(self):
        hmm = weather_hmm()
        obs = [0, 1, 2, 0]
        assert math.exp(log_likelihood(hmm, obs)) == pytest.approx(
            brute_force_likelihood(hmm, obs)
        )

    def test_empty_sequence_loglik_zero(self):
        assert log_likelihood(weather_hmm(), []) == 0.0

    def test_filtering_is_normalized(self):
        alpha, _ = forward(weather_hmm(), [0, 1, 2])
        assert alpha[-1].sum() == pytest.approx(1.0)

    def test_backward_shares_forwards_scaling(self):
        # One scale per step on both passes makes the sum of
        # alpha_t * beta_t exactly P(x) / P(x) at every t.  Posteriors
        # renormalize, so they would hide a scaling mismatch.
        hmm = HMM.random(3, 4, seed=5)
        observations = [0, 3, 1, 2, 2]
        alpha, scales = forward(hmm, observations)
        beta = backward(hmm, observations, scales)
        assert np.allclose((alpha * beta).sum(axis=1), 1.0)

    def test_posteriors_normalized_per_step(self):
        gamma = posteriors(weather_hmm(), [0, 1, 2, 1])
        assert np.allclose(gamma.sum(axis=1), 1.0)

    def test_posteriors_match_brute_force(self):
        hmm = weather_hmm()
        obs = [0, 2, 1]
        gamma = posteriors(hmm, obs)
        # Brute-force P(z_1 = s | obs).
        total = brute_force_likelihood(hmm, obs)
        for s in range(2):
            joint = 0.0
            for states in itertools.product(range(2), repeat=3):
                if states[0] != s:
                    continue
                p = hmm.initial[states[0]] * hmm.emission[states[0], obs[0]]
                for t in range(1, 3):
                    p *= hmm.transition[states[t - 1], states[t]] * hmm.emission[states[t], obs[t]]
                joint += p
            assert gamma[0, s] == pytest.approx(joint / total)

    def test_transition_posteriors_normalized(self):
        xi = transition_posteriors(weather_hmm(), [0, 1, 2, 0])
        for t in range(xi.shape[0]):
            assert xi[t].sum() == pytest.approx(1.0)

    def test_transition_posteriors_consistent_with_gamma(self):
        hmm = weather_hmm()
        obs = [0, 1, 2]
        gamma = posteriors(hmm, obs)
        xi = transition_posteriors(hmm, obs)
        # Σ_j xi[t, i, j] = gamma[t, i]
        assert np.allclose(xi.sum(axis=2), gamma[:-1], atol=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=5000),
        st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=6),
    )
    def test_scaled_likelihood_matches_brute_force(self, seed, obs):
        hmm = HMM.random(3, 3, seed=seed)
        assert math.exp(log_likelihood(hmm, obs)) == pytest.approx(
            brute_force_likelihood(hmm, obs), rel=1e-9
        )


class TestBaumWelch:
    def test_loglik_non_decreasing(self):
        teacher = HMM.random(3, 4, seed=1)
        rng = random.Random(2)
        sequences = [teacher.sample(20, rng)[1] for _ in range(10)]
        student = HMM.random(3, 4, seed=3)
        _, history = baum_welch(student, sequences, iterations=8)
        for earlier, later in zip(history, history[1:]):
            assert later >= earlier - 1e-6

    def test_fitted_model_is_stochastic(self):
        teacher = HMM.random(2, 3, seed=4)
        sequences = [teacher.sample(15, random.Random(5))[1] for _ in range(5)]
        fitted, _ = baum_welch(HMM.random(2, 3, seed=6), sequences, iterations=5)
        fitted.validate_stochastic()

    def test_requires_sequences(self):
        with pytest.raises(ValueError):
            baum_welch(weather_hmm(), [])

    def test_improves_over_random_init(self):
        teacher = HMM.random(2, 4, seed=7)
        rng = random.Random(8)
        sequences = [teacher.sample(25, rng)[1] for _ in range(15)]
        student = HMM.random(2, 4, seed=9)
        before = np.mean([log_likelihood(student, s) for s in sequences])
        _, history = baum_welch(student, sequences, iterations=10)
        assert history[-1] > before

    def test_empty_sequences_are_skipped(self):
        teacher = HMM.random(2, 3, seed=10)
        rng = random.Random(11)
        sequences = [teacher.sample(12, rng)[1] for _ in range(4)]
        clean, clean_history = baum_welch(HMM.random(2, 3, seed=12), sequences, iterations=4)
        padded, padded_history = baum_welch(
            HMM.random(2, 3, seed=12), [[]] + sequences + [[]], iterations=4
        )
        assert padded_history == clean_history
        for table in ("initial", "transition", "emission"):
            np.testing.assert_array_equal(getattr(padded, table), getattr(clean, table))

    def test_stops_once_the_gain_is_below_tolerance(self):
        sequences = [weather_hmm().sample(10, random.Random(13))[1]]
        _, history = baum_welch(HMM.random(2, 3, seed=14), sequences, iterations=500)
        gains = [abs(later - earlier) for earlier, later in zip(history, history[1:])]
        assert len(history) < 500
        assert gains[-1] < 1e-6 <= min(gains[:-1])
        _, history = baum_welch(HMM.random(2, 3, seed=14), sequences, iterations=3)
        assert len(history) == 3

    def test_input_model_is_left_untouched(self):
        student = HMM.random(2, 3, seed=15)
        before = [student.initial.copy(), student.transition.copy(), student.emission.copy()]
        baum_welch(student, [[0, 1, 2, 1, 0]], iterations=3)
        for original, table in zip(before, (student.initial, student.transition, student.emission)):
            np.testing.assert_array_equal(table, original)


class TestConstrainedDecoding:
    def test_contains_word_dfa(self):
        dfa = DFAConstraint.contains_word([1, 2], alphabet_size=3)
        assert dfa.accepts([0, 1, 2, 0])
        assert not dfa.accepts([0, 1, 0, 2])

    def test_forbids_symbol_dfa(self):
        dfa = DFAConstraint.forbids_symbol(2, alphabet_size=3)
        assert dfa.accepts([0, 1, 0])
        assert not dfa.accepts([0, 2])

    def test_decode_satisfies_constraint(self):
        hmm = HMM.random(3, 4, seed=10)
        dfa = DFAConstraint.contains_word([1, 3], alphabet_size=4)
        result = constrained_decode(hmm, dfa, length=8, rng=random.Random(0))
        assert result.satisfied
        assert dfa.accepts(result.sequence)

    def test_seeded_decode_is_deterministic(self):
        hmm = HMM.random(2, 3, seed=11)
        dfa = DFAConstraint.forbids_symbol(0, alphabet_size=3)
        a = constrained_decode(hmm, dfa, 6, rng=random.Random(1))
        b = constrained_decode(hmm, dfa, 6, rng=random.Random(1))
        assert a.sequence == b.sequence
        assert 0 not in a.sequence

    def test_impossible_constraint_reports_unsatisfied(self):
        hmm = HMM.random(2, 2, seed=12)
        # Word longer than the sequence cannot be contained.
        dfa = DFAConstraint.contains_word([0, 1, 0, 1, 0], alphabet_size=2)
        result = constrained_decode(hmm, dfa, length=3)
        assert not result.satisfied

    def test_product_table_total_mass_matches_acceptance_probability(self):
        hmm = HMM.random(2, 2, seed=13)
        dfa = DFAConstraint.forbids_symbol(1, alphabet_size=2)
        length = 4
        table = product_forward_table(hmm, dfa, length)
        mass = float(hmm.initial @ table[0, :, dfa.start])
        # Brute force: sum probability of all accepted sequences.
        total = 0.0
        for seq in itertools.product(range(2), repeat=length):
            if dfa.accepts(seq):
                total += math.exp(log_likelihood(hmm, list(seq)))
        assert mass == pytest.approx(total, rel=1e-9)

    def test_decode_samples_from_conditional(self):
        # Statistical check: relative frequency of first symbol matches
        # the exact conditional from the product table.
        hmm = HMM.random(2, 2, seed=14)
        dfa = DFAConstraint.contains_word([1], alphabet_size=2)
        rng = random.Random(15)
        draws = [
            constrained_decode(hmm, dfa, 3, rng=rng).sequence[0] for _ in range(800)
        ]
        freq1 = np.mean(draws)
        # Exact conditional P(x1=1 | accept).
        num, den = 0.0, 0.0
        for seq in itertools.product(range(2), repeat=3):
            if dfa.accepts(seq):
                p = math.exp(log_likelihood(hmm, list(seq)))
                den += p
                if seq[0] == 1:
                    num += p
        assert freq1 == pytest.approx(num / den, abs=0.06)
