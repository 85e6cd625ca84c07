"""The shared default options: a request that passes no option keys
against one immutable ``RunOptions()`` whose key context is built once
per (adapter, config), and must get exactly the key a fresh
``RunOptions()`` gets (what ``bench/workloads.py::fingerprint_of``
computes).  A request with options keeps the per-request path."""

import copy
import dataclasses

import pytest

import repro.api.adapters as adapters_module
from repro import ReasonService, ReasonSession
from repro.api.adapters import DEFAULT_OPTIONS, RunOptions, adapter_for
from repro.core.arch.config import DEFAULT_CONFIG

from tests.corpus import KINDS, fresh_key, small

CONFIGS = {
    "default": DEFAULT_CONFIG,
    "other": dataclasses.replace(DEFAULT_CONFIG, tree_depth=2, num_pes=4),
}


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("family", sorted(KINDS))
class TestSharedDefault:
    def test_key_equals_a_fresh_instance(self, family, config_name):
        config = CONFIGS[config_name]
        kernel = small(family)[0]
        adapter = adapter_for(kernel)
        shared = adapter.fingerprint(kernel, DEFAULT_OPTIONS, config)
        assert shared == fresh_key(kernel, config)
        # And again once the context is memoised and the kernel keyed.
        assert adapter.fingerprint(kernel, DEFAULT_OPTIONS, config) == shared
        assert adapter.fingerprint(copy.deepcopy(kernel), DEFAULT_OPTIONS, config) == shared

    def test_context_is_built_once(self, family, config_name):
        config = CONFIGS[config_name]
        kernel = small(family)[0]
        adapter = adapter_for(kernel)
        adapter.fingerprint(kernel, DEFAULT_OPTIONS, config)
        context = adapters_module._DEFAULT_CONTEXTS[adapter, config.key_bytes]
        adapter.fingerprint(small(family)[0], DEFAULT_OPTIONS, config)
        assert adapters_module._DEFAULT_CONTEXTS[adapter, config.key_bytes] is context
        assert kernel._key_memo[1] is context


def test_configs_key_apart():
    kernel = small("circuit")[0]
    adapter = adapter_for(kernel)
    keys = {adapter.fingerprint(kernel, DEFAULT_OPTIONS, c) for c in CONFIGS.values()}
    assert len(keys) == len(CONFIGS)


def test_default_options_are_immutable():
    with pytest.raises(dataclasses.FrozenInstanceError):
        DEFAULT_OPTIONS.optimize = False
    assert DEFAULT_OPTIONS == RunOptions()


class TestFrontDoors:
    def test_no_kwargs_and_explicit_optimize_share_one_compile(self):
        session = ReasonSession()
        kernel = small("circuit")[0]
        first = session.run(kernel)
        second = session.run(kernel, optimize=True)
        assert (first.cache_hit, second.cache_hit) == (False, True)
        assert session.prepare_calls == 1
        assert second.identity() == first.identity()

    def test_service_no_kwargs_and_explicit_optimize_share_one_key(self):
        kernel = small("hmm")[0]
        with ReasonService(shards=2, policy="cache-affinity") as service:
            bare = service.submit(kernel)
            bare.result(timeout=60)
            explicit = service.submit(kernel, optimize=True)
            assert explicit.result(timeout=60).cache_hit
            batch = service.submit_batch([kernel, kernel])
            assert all(future.result(timeout=60).cache_hit for future in batch)
            service.drain()
            assert sum(shard.prepare_calls for shard in service.stats().shards) == 1
        assert {explicit.fingerprint, *(f.fingerprint for f in batch)} == {bare.fingerprint}

    @pytest.mark.parametrize("option", [{"trace": True}, {"verify": True}, {"verify": False}])
    def test_trace_and_verify_take_the_unshared_path_and_keep_the_key(
        self, option, monkeypatch
    ):
        """An observation knob is an option kwarg, so the request builds
        its own ``RunOptions`` (never the shared one) — and the key
        stays the untraced, unverified key."""
        kernel = small("cnf")[0]
        seen = []
        fingerprint = adapters_module.KernelAdapter.fingerprint

        def recording(self, kernel, options, config):
            seen.append(options)
            return fingerprint(self, kernel, options, config)

        monkeypatch.setattr(adapters_module.KernelAdapter, "fingerprint", recording)
        session = ReasonSession()
        session.run(kernel)
        report = session.run(kernel, **option)
        assert seen[0] is DEFAULT_OPTIONS
        assert seen[1] is not DEFAULT_OPTIONS and seen[1] == RunOptions(**option)
        assert report.cache_hit and session.prepare_calls == 1
        assert fresh_key(kernel, DEFAULT_CONFIG, **option) == fresh_key(kernel, DEFAULT_CONFIG)
