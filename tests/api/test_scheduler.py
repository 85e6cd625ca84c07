"""Scheduling policies: selection semantics and the registry."""

import inspect

import pytest

from repro.api.adapters import RunOptions
from repro.api.scheduler import (
    CacheAffinityPolicy,
    CostAwarePlacementPolicy,
    LeastLoadedPolicy,
    PredictedMakespanPolicy,
    Request,
    RoundRobinPolicy,
    SchedulingPolicy,
    ShardView,
    get_policy,
    list_policies,
    register_policy,
)
from repro.costmodel import CostPrediction


def request(
    fingerprint: str = "ab" * 32, backend="reason", predicted=None, warm=False
) -> Request:
    if predicted is None:  # every placed request carries one; 1 s on "reason"
        predicted = {"reason": prediction("reason", 1.0)}
    return Request(
        kernel=None,
        options=RunOptions(),
        kind="cnf",
        fingerprint=fingerprint,
        backend=backend,
        queries=1,
        neural_s=0.0,
        predicted=predicted,
        warm=warm,
    )


def view(index, pending=0, completed=0, backend="reason", busy_s=0.0) -> ShardView:
    """An idle ``reason`` shard unless the test says otherwise."""
    return ShardView(index, pending, completed, backend, busy_s)


def views(*pending) -> list:
    return [view(i, p) for i, p in enumerate(pending)]


def prediction(backend, seconds, compile_s=0.0) -> CostPrediction:
    return CostPrediction(backend=backend, seconds=seconds, compile_s=compile_s)


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


class TestPredictedMakespan:
    def test_balances_predicted_seconds_not_counts(self):
        policy = PredictedMakespanPolicy()
        shards = [
            view(0, pending=1, completed=0, busy_s=5.0),  # fewer, heavier
            view(1, pending=3, completed=0, busy_s=1.0),  # more, lighter
        ]
        req = request(predicted={"reason": prediction("reason", 1.0)})
        assert policy.select(req, shards) == 1

    def test_charges_per_substrate_execution_time(self):
        policy = PredictedMakespanPolicy()
        shards = [
            view(0, 0, 0, "reason", busy_s=2.0),
            view(1, 0, 0, "gpu", busy_s=0.0),
        ]
        # gpu is idle but slow for this kernel; loaded reason still wins.
        req = request(
            backend=None,
            predicted={
                "reason": prediction("reason", 1.0),
                "gpu": prediction("gpu", 10.0),
            }
        )
        assert policy.select(req, shards) == 0

    def test_ties_break_by_pending_then_index(self):
        policy = PredictedMakespanPolicy()
        shards = [view(0, 2, 0, busy_s=1.0), view(1, 1, 0, busy_s=1.0)]
        req = request(predicted={"reason": prediction("reason", 1.0)})
        assert policy.select(req, shards) == 1


class TestCostAwarePlacement:
    def test_routes_to_fastest_substrate(self):
        policy = CostAwarePlacementPolicy()
        shards = [
            view(0, 0, 0, "cpu"),
            view(1, 0, 0, "reason"),
            view(2, 0, 0, "gpu"),
        ]
        req = request(
            backend=None,
            predicted={
                "cpu": prediction("cpu", 9.0),
                "reason": prediction("reason", 1.0),
                "gpu": prediction("gpu", 4.0),
            },
        )
        assert policy.select(req, shards) == 1

    def test_spills_to_slower_substrate_under_load(self):
        policy = CostAwarePlacementPolicy()
        shards = [
            view(0, 0, 0, "reason", busy_s=10.0),  # fast but saturated
            view(1, 0, 0, "gpu", busy_s=0.0),
        ]
        req = request(
            backend=None,
            predicted={
                "reason": prediction("reason", 1.0),
                "gpu": prediction("gpu", 4.0),
            },
        )
        assert policy.select(req, shards) == 1

    def test_compile_penalty_keeps_repeats_on_the_warm_shard(self):
        policy = CostAwarePlacementPolicy()
        shards = [view(0, 0, 0, "reason"), view(1, 0, 0, "reason")]
        predicted = {"reason": prediction("reason", 1.0, compile_s=5.0)}
        first = policy.select(request("aa", predicted=predicted), shards)
        assert first == 0  # tie → lowest index, now owns the artifact
        # Same kernel again, shard 0 slightly busier: the cold shard
        # would re-pay the 5s front end, so the warm shard still wins.
        busier = [view(0, 0, 0, "reason", busy_s=2.0), shards[1]]
        assert policy.select(request("aa", predicted=predicted), busier) == 0
        # A different kernel has no warm home; load decides (shard 1).
        assert policy.select(request("bb", predicted=predicted), busier) == 1

    def test_cold_start_burst_sticks_to_one_shard(self):
        """With only default (no-signal) predictions, repeats of a
        never-seen kernel must not spread across every cold cache."""
        policy = CostAwarePlacementPolicy()
        cold = {"reason": CostPrediction(backend="reason", seconds=1e-4)}
        assert cold["reason"].source == "default"
        shards = [view(0, 0, 0), view(1, 0, 0)]
        first = policy.select(request("aa", predicted=cold), shards)
        # Busy time accrued on the first shard would otherwise push
        # the identical repeat onto the cold one.
        busier = [view(0, 1, 0, busy_s=1e-4), view(1, 0, 0)]
        assert policy.select(request("aa", predicted=cold), busier) == first

    def test_warm_request_skips_cold_start_stickiness(self):
        """A store-warm kernel is equally cheap on every shard: load
        should decide placement, not which shard first saw it."""
        policy = CostAwarePlacementPolicy()
        cold = {"reason": CostPrediction(backend="reason", seconds=1e-4)}
        shards = [view(0, 0, 0), view(1, 0, 0)]
        assert policy.select(request("aa", predicted=cold), shards) == 0
        # Shard 0 busier now; the sticky branch would pin the repeat
        # there, but a warm request follows the load instead.
        busier = [view(0, 1, 0, busy_s=1e-4), view(1, 0, 0)]
        assert (
            policy.select(request("aa", predicted=cold, warm=True), busier) == 1
        )

    def test_warm_predictions_carry_no_compile_penalty(self):
        """The service zeroes compile_s for store-resident kernels, so
        a never-placed shard competes on equal footing — affinity is an
        optimization, not a correctness crutch."""
        policy = CostAwarePlacementPolicy()
        cold = {"reason": prediction("reason", 1.0, compile_s=5.0)}
        shards = [view(0, 0, 0, "reason"), view(1, 0, 0, "reason")]
        assert policy.select(request("aa", predicted=cold), shards) == 0
        # Same kernel now resident in the shared store: its prediction
        # arrives with compile_s=0, so the less-busy cold shard wins
        # even though shard 0 holds the placement record.
        warm = {"reason": prediction("reason", 1.0, compile_s=0.0)}
        busier = [view(0, 0, 0, "reason", busy_s=2.0), shards[1]]
        assert (
            policy.select(request("aa", predicted=warm, warm=True), busier) == 1
        )


class TestRegistry:
    def test_builtins_registered(self):
        assert {
            "round-robin",
            "least-loaded",
            "cache-affinity",
            "predicted-makespan",
            "cost-aware",
        } <= set(list_policies())

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
