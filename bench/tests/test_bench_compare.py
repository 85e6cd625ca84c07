"""``bench compare`` applies the bounds of ``BENCHMARK.json``."""

import copy

import pytest

from repro.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE

from bench import compare, record

BASE = {
    "setup_s": 2.0, "requests_per_s": 100.0, "request_s.p50": 0.010,
    "request_s.p90": 0.020, "ok_share": 1.0, "modeled_cycles": 5000,
    "modeled_energy_j": 1.25e-06, "peak_rss_mib": 60.0,
}


def runs(scale=None, digest="d0", jitter=0.01, seeds=(0, 0, 0, 0)):
    """Four runs of one workload; ``scale`` multiplies named metrics."""
    units = record.declared_metrics()["end_to_end"]
    out = []
    for position, seed in enumerate(seeds):
        wobble = 1.0 + jitter * (position - 1.5)
        values = dict(BASE)
        for name in ("setup_s", "requests_per_s", "request_s.p50", "request_s.p90"):
            values[name] *= wobble
        for name, factor in (scale or {}).items():
            values[name] *= factor
        out.append({
            "workload": "warm-replay", "trace": False, "seed": seed, "seconds": 10.0,
            "tiny": False, "report_digest": digest,
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
        })
    return out


def verdict(tmp_path, base, new, capsys):
    record.save(tmp_path / "base.json", base)
    record.save(tmp_path / "new.json", new)
    code = compare.main(tmp_path / "base.json", tmp_path / "new.json")
    return code, capsys.readouterr().out


def test_identical_runs_pass(tmp_path, capsys):
    code, out = verdict(tmp_path, runs(), runs(), capsys)
    assert code == EXIT_OK
    assert "REGRESSION" not in out and "DRIFT" not in out
    assert out.count("warm-replay") == len(BASE) + 1  # one row per metric + digest


def test_a_slowdown_beyond_the_bound_is_a_regression(tmp_path, capsys):
    bound = next(
        m["bound"] for m in record.declaration()["end_to_end"] if m["name"] == "requests_per_s"
    )
    code, out = verdict(
        tmp_path, runs(), runs({"requests_per_s": 1.0 - bound - 0.05}), capsys
    )
    assert code == EXIT_FAILURE
    row = next(line for line in out.splitlines() if " requests_per_s " in line)
    assert row.endswith("REGRESSION")
    # A gain of the same size is not.
    code, _ = verdict(tmp_path, runs(), runs({"requests_per_s": 1.0 + bound + 0.05}), capsys)
    assert code == EXIT_OK


def test_any_drift_in_an_exact_metric_fails(tmp_path, capsys):
    drifted = runs()
    drifted[0] = copy.deepcopy(drifted[0])
    drifted[0]["metrics"]["modeled_cycles"]["value"] += 1
    code, out = verdict(tmp_path, runs(), drifted, capsys)
    assert code == EXIT_FAILURE and "DRIFT" in out
    code, out = verdict(tmp_path, runs(), runs(digest="d1"), capsys)
    assert code == EXIT_FAILURE and "report_digest: DRIFT" in out


def test_other_seeds_hold_exact_metrics_to_their_bounds(tmp_path, capsys):
    code, out = verdict(
        tmp_path, runs(), runs({"modeled_cycles": 1.02}, digest="d1", seeds=(1, 1, 1, 1)), capsys
    )
    assert code == EXIT_OK and "DRIFT" not in out


def test_spread_wider_than_the_bound_is_unresolved_not_unchanged(tmp_path, capsys):
    noisy = runs(jitter=0.6)
    code, out = verdict(tmp_path, noisy, runs({"requests_per_s": 0.9}, jitter=0.6), capsys)
    row = next(line for line in out.splitlines() if " requests_per_s " in line)
    assert row.endswith("unresolved") and code == EXIT_OK


def test_unreadable_input_is_a_usage_error(tmp_path, capsys):
    (tmp_path / "junk.json").write_text("{not json", encoding="utf-8")
    record.save(tmp_path / "base.json", runs())
    assert compare.main(tmp_path / "base.json", tmp_path / "junk.json") == EXIT_USAGE
    assert compare.main(tmp_path / "base.json", tmp_path / "missing.json") == EXIT_USAGE


@pytest.mark.parametrize(
    "base, new, better, expected",
    [(100.0, 110.0, "lower", 0.10), (100.0, 90.0, "higher", 0.10), (100.0, 90.0, "lower", -0.10)],
)
def test_worse_by_is_signed_by_direction(base, new, better, expected):
    assert compare.worse_by(base, new, better) == pytest.approx(expected)
