import pytest

from bench.hostspeed import UNIT_REFERENCE_S, HostProbe


def probe_with(samples):
    """A probe holding ``(stamp, time)`` samples instead of timed ones."""
    probe = HostProbe()
    probe.stamps = [stamp for stamp, _ in samples]
    probe.times = [taken for _, taken in samples]
    return probe


def test_sampling_times_the_unit_and_keeps_stamps_in_order():
    probe = HostProbe()
    probe.sample(3)
    probe.sample_if_due()  # too soon after the last sample: nothing
    assert len(probe.times) == len(probe.stamps) == 3
    assert all(taken > 0.0 for taken in probe.times)
    assert probe.stamps == sorted(probe.stamps) and probe.last == probe.stamps[-1]
    probe.last -= 2 * HostProbe.INTERVAL_S
    probe.sample_if_due()
    assert len(probe.times) == 5


def test_factor_is_mean_unit_time_within_reach_over_the_reference():
    quiet = [(0.1 * k, 1.0 * UNIT_REFERENCE_S) for k in range(100)]  # 0.0 .. 9.9
    busy = [(10.0 + 0.1 * k, 1.5 * UNIT_REFERENCE_S) for k in range(100)]  # 10.0 .. 19.9
    probe = probe_with(quiet + busy)
    inside_quiet, inside_busy, astride = probe.factors([(2.0, 3.0), (15.0, 16.0), (9.0, 11.0)])
    assert inside_quiet == pytest.approx(1.0)
    assert inside_busy == pytest.approx(1.5)
    assert astride == pytest.approx(1.25, abs=0.03)
    # Samples just outside a window still count, up to REACH_S away.
    edge = 9.95 - HostProbe.REACH_S
    assert probe.factors([(edge - 0.01, edge)])[0] == pytest.approx(1.0)
    assert probe.factors([(9.90, 9.95)])[0] > 1.15
    # A stretch faster than the reference reads below one.
    assert probe_with([(0.0, 0.9 * UNIT_REFERENCE_S)]).factors([(0.0, 0.1)]) == [pytest.approx(0.9)]


def test_an_interrupted_unit_is_clipped_and_an_unprobed_window_reads_one():
    samples = [(0.1 * k, UNIT_REFERENCE_S) for k in range(100)]
    samples[50] = (5.0, 400 * UNIT_REFERENCE_S)  # descheduled mid-unit
    probe = probe_with(samples)
    [factor] = probe.factors([(4.5, 5.5)])
    assert 1.0 < factor < 1.0 + HostProbe.CLIP / 10
    assert probe.factors([(100.0, 101.0)]) == [1.0]
    assert HostProbe().factors([(0.0, 1.0)]) == [1.0]
