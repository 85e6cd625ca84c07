"""Scheduling policies: selection semantics and the registry."""

import inspect

import pytest

from repro.api.adapters import RunOptions
from repro.api.scheduler import (
    CacheAffinityPolicy,
    LeastLoadedPolicy,
    Request,
    RoundRobinPolicy,
    SchedulingPolicy,
    ShardView,
    get_policy,
    list_policies,
    register_policy,
)
from repro.costmodel import CostPrediction


def request(fingerprint: str = "ab" * 32) -> Request:
    return Request(
        kernel=None,
        options=RunOptions(),
        kind="cnf",
        fingerprint=fingerprint,
        backend="reason",
        queries=1,
        neural_s=0.0,
        # Every placed request carries one; 1 s on "reason".
        predicted={"reason": CostPrediction(backend="reason", seconds=1.0)},
    )


def views(*pending) -> list:
    """Idle-but-for-``pending`` ``reason`` shards."""
    return [ShardView(i, p, 0, "reason", 0.0) for i, p in enumerate(pending)]


class TestRoundRobin:
    def test_cycles_through_shards(self):
        policy = RoundRobinPolicy()
        picks = [policy.select(request(), views(0, 0, 0)) for _ in range(7)]
        assert picks == [0, 1, 2, 0, 1, 2, 0]

    def test_ignores_load(self):
        policy = RoundRobinPolicy()
        assert policy.select(request(), views(99, 0)) == 0


class TestLeastLoaded:
    def test_picks_minimum_pending(self):
        policy = LeastLoadedPolicy()
        assert policy.select(request(), views(3, 1, 2)) == 1

    def test_ties_break_by_index(self):
        policy = LeastLoadedPolicy()
        assert policy.select(request(), views(2, 1, 1)) == 1


class TestCacheAffinity:
    def test_same_fingerprint_same_shard(self):
        policy = CacheAffinityPolicy()
        first = policy.select(request("0123456789abcdef" * 4), views(0, 0, 0, 0))
        second = policy.select(request("0123456789abcdef" * 4), views(9, 9, 9, 9))
        assert first == second

    def test_distinct_fingerprints_spread(self):
        from repro.api import content_key

        policy = CacheAffinityPolicy()
        fingerprints = [content_key("kernel", n) for n in range(64)]
        picks = {
            policy.select(request(fp), views(0, 0, 0, 0)) for fp in fingerprints
        }
        assert picks == {0, 1, 2, 3}

    def test_selection_in_range(self):
        from repro.api import content_key

        policy = CacheAffinityPolicy()
        for n in range(16):
            index = policy.select(request(content_key(n)), views(0, 0, 0))
            assert 0 <= index < 3

    def test_non_hex_fingerprints_from_custom_adapters(self):
        """Custom adapters may fingerprint to any string; routing must
        stay total (and stable) rather than crash on non-hex keys."""
        policy = CacheAffinityPolicy()
        first = policy.select(request("mykernel-v1:abc"), views(0, 0, 0, 0))
        second = policy.select(request("mykernel-v1:abc"), views(5, 5, 5, 5))
        assert first == second and 0 <= first < 4
        other = policy.select(request("mykernel-v1:xyz"), views(0, 0, 0, 0))
        assert 0 <= other < 4


class TestShardViewCompat:
    def test_extended_construction(self):
        shard = ShardView(0, 1, 2, "gpu", 0.5)
        assert shard.backend == "gpu" and shard.busy_s == 0.5


class TestCompleteInputs:
    """A policy never sees a view without a substrate and a backlog, or
    a request without predictions: both are required at construction."""

    def test_shard_view_has_no_defaults(self):
        parameters = inspect.signature(ShardView).parameters
        assert list(parameters) == ["index", "pending", "completed", "backend", "busy_s"]
        assert all(p.default is inspect.Parameter.empty for p in parameters.values())
        with pytest.raises(TypeError):
            ShardView(0, 0, 0)

    def test_request_requires_predictions(self):
        parameters = inspect.signature(Request).parameters
        assert parameters["predicted"].default is inspect.Parameter.empty
        with pytest.raises(TypeError, match="predicted"):
            Request(None, RunOptions(), "cnf", "ab" * 32, None, 1, 0.0)


class TestRegistry:
    def test_builtins_registered(self):
        assert {"round-robin", "least-loaded", "cache-affinity"} <= set(list_policies())

    def test_listing_is_sorted(self):
        names = list_policies()
        assert names == sorted(names)

    def test_get_by_name_returns_fresh_instances(self):
        assert get_policy("round-robin") is not get_policy("round-robin")

    def test_instance_passes_through(self):
        policy = LeastLoadedPolicy()
        assert get_policy(policy) is policy

    def test_unknown_name_rejected_with_catalog(self):
        with pytest.raises(KeyError) as excinfo:
            get_policy("fifo-of-destiny")
        message = str(excinfo.value)
        assert "fifo-of-destiny" in message
        for name in list_policies():
            assert name in message

    def test_non_string_spec_rejected_with_type_error(self):
        with pytest.raises(TypeError):
            get_policy(42)
        with pytest.raises(TypeError):
            get_policy(None)

    def test_register_custom_policy(self):
        class Fixed(SchedulingPolicy):
            name = "fixed-test"

            def select(self, request, shards):
                return len(shards) - 1

        register_policy("fixed-test", Fixed)
        policy = get_policy("fixed-test")
        assert policy.select(request(), views(0, 0, 0)) == 2
