"""The opt-in verification gate: ``ReasonSession(verify=True)`` and the
per-request ``verify=`` override.  It is the stack's only gate, so the
rejection tests show it keeping a bad compile out of every cache level
and from behind every front door (session and service)."""

from dataclasses import replace

import pytest

from repro import DiskStore, ReasonService, ReasonSession, SharedStore
from repro.analysis import ProgramVerificationError
from repro.analysis.mutations import apply_mutation
from repro.api import adapters
from repro.api.adapters import RunOptions, adapter_for
from repro.pc.learn import random_circuit


def _kernel(seed=13):
    return random_circuit(8, depth=3, sum_children=3, seed=seed)


def _plant(monkeypatch, mutation):
    """Make the adapters' compile step emit ``mutation``'s planted bug
    (until ``monkeypatch`` is undone)."""
    compile_dag = adapters.compile_dag

    def buggy_compile_dag(dag, config):
        program, stats = compile_dag(dag, config)
        mutant, schedule = apply_mutation(mutation, program, stats.schedule)
        return mutant, replace(stats, schedule=schedule)

    monkeypatch.setattr(adapters, "compile_dag", buggy_compile_dag)


# ----------------------------------------------------------- session hook


def test_session_verify_runs_clean_and_identical(tiny_regfile):
    """Verification on the spill-heavy config neither raises nor
    perturbs the report."""
    kernel = _kernel()
    plain = ReasonSession(config=tiny_regfile).run(kernel)
    verified = ReasonSession(config=tiny_regfile, verify=True).run(kernel)
    assert verified.cycles == plain.cycles
    assert verified.energy_j == plain.energy_j
    assert verified.result == plain.result


def test_run_options_override_session_default(tiny_regfile):
    # verify=True on a verify=False session, and the reverse, both run.
    session = ReasonSession(config=tiny_regfile)
    session.run(_kernel(seed=5), verify=True)
    opted_out = ReasonSession(config=tiny_regfile, verify=True)
    opted_out.run(_kernel(seed=6), verify=False)


def test_verify_is_excluded_from_the_compile_fingerprint(tiny_regfile):
    kernel = _kernel()
    adapter = adapter_for(kernel)
    assert adapter.fingerprint(
        kernel, RunOptions(verify=True), tiny_regfile
    ) == adapter.fingerprint(kernel, RunOptions(), tiny_regfile)


def test_verify_runs_on_the_cold_path_only(tiny_regfile):
    """A verified re-run of a cached kernel is a hit: one front-end
    compile total, so hits never pay for verification."""
    session = ReasonSession(config=tiny_regfile)
    kernel = _kernel()
    session.run(kernel)
    assert session.prepare_calls == 1
    session.run(kernel, verify=True)
    assert session.prepare_calls == 1  # hit — the factory never ran


# ------------------------------------------------------------- rejection


@pytest.mark.parametrize("mutation", ["stale-reload", "drop-spill"])
@pytest.mark.parametrize("level", ["local", "shared", "disk"])
def test_session_gate_keeps_a_bad_compile_out_of_every_level(
    mutation, level, monkeypatch, tmp_path, tiny_regfile
):
    store = {"local": None, "shared": SharedStore(), "disk": DiskStore(tmp_path)}[level]
    session = ReasonSession(config=tiny_regfile, store=store, verify=True)
    kernel = _kernel()
    key = adapter_for(kernel).fingerprint(kernel, RunOptions(), tiny_regfile)
    with monkeypatch.context() as patch:
        _plant(patch, mutation)
        with pytest.raises(ProgramVerificationError):
            session.run(kernel)
    assert session.artifact_for(key) is None  # neither the LRU nor the store
    assert store is None or len(store) == 0
    assert session.executions == 0
    # The same key still accepts a good compile afterwards.
    report = session.run(kernel)
    assert not report.cache_hit
    assert session.artifact_for(key) is not None
    assert store is None or store.get(key) is not None


def test_service_gate_rejects_behind_the_resilient_store(monkeypatch, tiny_regfile):
    """The service wraps its store in ``ResilientStore``, whose own
    ``fetch_or_compile`` a store-level gate never saw; the session's
    gate sits inside the compile factory, so it fires here too."""
    kernel = _kernel()
    _plant(monkeypatch, "stale-reload")
    with ReasonService(shards=2, store="shared", config=tiny_regfile) as service:
        future = service.submit(kernel, verify=True)
        with pytest.raises(ProgramVerificationError):
            future.result(timeout=60)
        service.drain(timeout=60)
        stats = service.stats()
        assert stats.retries == 0  # a rejected program is not transient
        assert len(service.store) == 0
        assert stats.failed == 1
        assert stats.submitted == stats.completed + stats.failed + stats.cancelled
        # Unverified, the same mutant is served and published: the gate,
        # not the compile, is what kept it out.
        service.submit(kernel).result(timeout=60)
        assert len(service.store) == 1
