import pytest

from bench import stats


def test_percentile_is_nearest_rank():
    samples = list(range(1, 201))  # 1..200
    assert stats.percentile(samples, 50) == 100
    assert stats.percentile(samples, 90) == 180


def test_percentile_refuses_under_sampled_tails():
    # p90 of 100 samples leaves exactly ten beyond it; 99 leaves nine.
    assert stats.percentile(list(range(100)), 90) == 89
    with pytest.raises(stats.UnderSampled):
        stats.percentile(list(range(99)), 90)
    assert stats.percentile(list(range(20)), 50) == 9
    with pytest.raises(stats.UnderSampled):
        stats.percentile(list(range(19)), 50)
    with pytest.raises(stats.UnderSampled):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile(list(range(100)), 100)


def test_min_samples_matches_the_refusal_rule():
    for q in (50, 75, 90, 95):
        need = stats.min_samples(q)
        stats.percentile(list(range(need)), q)
        with pytest.raises(stats.UnderSampled):
            stats.percentile(list(range(need - 1)), q)


def test_spread_is_quartile_distance_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    assert stats.spread(values) == pytest.approx((17.25 - 11.75) / 14.5)
    assert stats.spread([3.0]) == 0.0
