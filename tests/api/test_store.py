"""Two-level compile cache: shared stores, promotion, once-guard.

Covers the cross-shard/cross-process sharing semantics the serving
layer depends on: N local LRUs over one store compile each kernel once
service-wide, disk round-trips replay bit-identically, eviction is
recoverable via re-promotion, and the per-level stats stay arithmetic.
"""

import json
import pickle
import subprocess
import sys
import threading

import pytest

from repro.api import (
    CompileCache,
    DiskStore,
    ReasonService,
    ReasonSession,
    SharedStore,
    make_store,
)
from repro.api.resilience import CircuitBreaker, ResilientStore
from repro.api.store import ArtifactStore, _OnceGuard
from repro.api.types import CompiledArtifact
from repro.core.dag import Dag
from repro.logic.generators import random_ksat

from tests.chaos import corrupt_disk_entry
from tests.corpus import build, serve, stub_artifact


#: What a restarted server does: open the directory, serve the kernels.
_SERVE_FROM_DISK = """
import json, pathlib, pickle, sys
from repro.api import ReasonSession
root = pathlib.Path(sys.argv[1])
session = ReasonSession(store=f"disk:{root / 'store'}")
reports = [
    session.run(kernel, queries=3, **options)
    for _, kernel, options in pickle.loads((root / "kernels.pkl").read_bytes())
]
print(json.dumps([
    session.prepare_calls,
    session.cache_stats.shared_hits,
    [report.identity() for report in reports],
]))
"""


def _disk_keys(store: DiskStore) -> list:
    """The content keys a :class:`DiskStore` holds, from its file names."""
    suffix = DiskStore._SUFFIX
    return sorted(path.name[: -len(suffix)] for path in store.path.glob(f"*{suffix}"))


def _must_hit(cache: CompileCache, key: str) -> CompiledArtifact:
    artifact, hit = cache.get_or_compile(
        key, lambda: pytest.fail(f"{key!r} must not recompile")
    )
    assert hit
    return artifact


class TestSharedStore:
    def test_put_get_len(self):
        store = SharedStore()
        assert store.get("k") is None and len(store) == 0
        store.put("k", stub_artifact("k"))
        assert len(store) == 1
        assert store.get("k").key == "k"

    def test_fetch_or_compile_runs_factory_once_per_key(self):
        store = SharedStore()
        calls = []
        artifact, compiled = store.fetch_or_compile(
            "k", lambda: calls.append(1) or stub_artifact("k")
        )
        assert compiled and len(calls) == 1
        again, compiled = store.fetch_or_compile(
            "k", lambda: calls.append(1) or stub_artifact("k")
        )
        assert not compiled and len(calls) == 1 and again is artifact

    def test_concurrent_threads_share_one_compile(self):
        """The in-flight guard: many threads racing on one cold key run
        the factory exactly once; late arrivals block and receive the
        winner's artifact."""
        store = SharedStore()
        started = threading.Barrier(8)
        compiling = threading.Event()
        release = threading.Event()
        compile_count = []
        lock = threading.Lock()
        results = []

        def factory():
            compiling.set()
            release.wait(timeout=10)
            with lock:
                compile_count.append(1)
            return stub_artifact("hot")

        def worker():
            started.wait(timeout=10)
            results.append(store.fetch_or_compile("hot", factory))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        # Let the owner enter the factory, then release it while the
        # other 7 are parked on the in-flight event.
        compiling.wait(timeout=10)
        release.set()
        for thread in threads:
            thread.join(timeout=10)

        assert len(compile_count) == 1
        assert len(results) == 8
        assert sum(1 for _, compiled in results if compiled) == 1
        artifacts = {id(artifact) for artifact, _ in results}
        assert len(artifacts) == 1  # everyone got the winner's object

    def test_a_cold_miss_looks_the_key_up_once(self):
        guard, lookups = _OnceGuard(), []
        artifact, computed = guard.run(
            "k", lambda key: lookups.append(key), lambda: stub_artifact("k"), lambda *_: None
        )
        assert computed and artifact.key == "k" and lookups == ["k"]

    def test_a_publish_between_the_miss_and_the_claim_is_joined(self):
        """Another owner compiles, publishes and retires the key after
        this caller's lookup missed and before it claims the key: the
        claim looks again and joins instead of compiling twice."""
        guard, published, lookups = _OnceGuard(), {}, []

        def publish(key, artifact):
            published[key] = artifact

        def lookup(key):
            lookups.append(key)
            missed = published.get(key)
            if len(lookups) == 1:  # the other owner runs to completion here
                other = threading.Thread(
                    target=guard.run,
                    args=(key, published.get, lambda: stub_artifact(key), publish),
                )
                other.start()
                other.join(timeout=10)
            return missed

        artifact, computed = guard.run(
            "k", lookup, lambda: pytest.fail("compiled a published key"), publish
        )
        assert not computed and artifact is published["k"] and len(lookups) == 2

    def test_factory_failure_releases_the_key(self):
        store = SharedStore()

        def boom():
            raise RuntimeError("front end exploded")

        with pytest.raises(RuntimeError):
            store.fetch_or_compile("k", boom)
        # The key is not wedged: the next caller becomes the owner.
        artifact, compiled = store.fetch_or_compile("k", lambda: stub_artifact("k"))
        assert compiled and artifact.key == "k"


class TestDiskStore:
    def test_round_trip_and_atomic_layout(self, tmp_path):
        store = DiskStore(tmp_path / "artifacts")
        artifact = stub_artifact("a" * 64)
        store.put("a" * 64, artifact)
        assert len(store) == 1 and _disk_keys(store) == ["a" * 64]
        loaded = store.get("a" * 64)
        assert loaded.kind == "cnf" and loaded.key == "a" * 64
        # No temp-file droppings next to the committed artifact.
        leftovers = [
            entry
            for entry in (tmp_path / "artifacts").iterdir()
            if entry.name.endswith(".tmp")
        ]
        assert leftovers == []

    def test_unsafe_keys_are_aliased_not_escaped(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put("../../etc/passwd", stub_artifact("x"))
        # The artifact is retrievable under its original key, and the
        # file lives inside the store directory under a digest alias.
        assert store.get("../../etc/passwd") is not None
        assert all(entry.parent == store.path for entry in store.path.iterdir())

    def test_replayed_reports_bit_identical_across_processes(self, tmp_path):
        """Round-tripping an artifact through pickle+disk must replay
        to the exact report the compiling session produced — the
        cross-process serving guarantee."""
        circuit, options = build("circuit/rand-6")
        kernels = [
            ("cnf", random_ksat(24, 96, seed=7), {}),
            ("circuit", circuit, options),
        ]
        store = DiskStore(tmp_path / "store")
        first = ReasonSession(store=store)
        baseline = {
            name: first.run(kernel, queries=3, **opts)
            for name, kernel, opts in kernels
        }
        assert first.prepare_calls == len(kernels)

        # A fresh session over the same directory (as a new process
        # would construct) starts warm and replays identically.
        second = ReasonSession(store=DiskStore(tmp_path / "store"))
        for name, kernel, opts in kernels:
            replayed = second.run(kernel, queries=3, **opts)
            assert replayed.cache_hit
            assert replayed.result == baseline[name].result
            assert replayed.cycles == baseline[name].cycles
            assert replayed.energy_j == baseline[name].energy_j
            assert replayed.utilization == baseline[name].utilization
        assert second.prepare_calls == 0
        assert second.cache_stats.shared_hits == len(kernels)

        # ... and so does a second interpreter, whose hash seed, pickle
        # memo and numpy state owe nothing to this one.
        (tmp_path / "kernels.pkl").write_bytes(pickle.dumps(kernels))
        child = subprocess.run(
            [sys.executable, "-c", _SERVE_FROM_DISK, str(tmp_path)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert child.returncode == 0, child.stderr[-2000:]
        prepare_calls, shared_hits, identities = json.loads(child.stdout)
        assert prepare_calls == 0 and shared_hits == len(kernels)
        assert identities == [
            list(baseline[name].identity()) for name, _, _ in kernels
        ]

    def test_pickle_protocol_stability(self, tmp_path):
        store = DiskStore(tmp_path)
        session = ReasonSession(store=store)
        kernel = random_ksat(12, 40, seed=1)
        session.run(kernel)
        (key,) = _disk_keys(store)
        with open(store.path / f"{key}{DiskStore._SUFFIX}", "rb") as handle:
            artifact = pickle.load(handle)
        assert artifact.key == key


class TestTwoLevelCache:
    def test_shared_hit_promotes_into_local(self):
        store = SharedStore()
        store.put("k", stub_artifact("k"))
        cache = CompileCache(store=store)
        assert "k" not in cache  # local level empty
        _must_hit(cache, "k")
        assert "k" in cache  # promoted
        stats = cache.stats
        assert stats.shared_hits == 1 and stats.promotions == 1
        _must_hit(cache, "k")
        assert cache.stats.local_hits == 1  # second lookup served locally

    def test_lru_eviction_recovers_via_repromotion(self):
        """An artifact evicted from the local LRU is not lost: the next
        lookup re-promotes it from the shared store instead of paying a
        recompile."""
        store = SharedStore()
        cache = CompileCache(capacity=2, store=store)
        for key in ("a", "b", "c"):  # "a" falls out of the LRU
            serve(cache, key)
        assert "a" not in cache and len(cache) == 2
        assert cache.stats.evictions == 1
        assert _must_hit(cache, "a").key == "a"
        stats = cache.stats
        assert stats.shared_hits == 1 and stats.promotions == 1
        assert stats.misses == 3  # the three seeding compiles, no fourth

    def test_per_level_stats_arithmetic(self):
        store = SharedStore()
        cache = CompileCache(store=store)
        serve(cache, "k")  # miss at both levels
        _must_hit(cache, "k")  # local hit
        store.put("s", stub_artifact("s"))
        _must_hit(cache, "s")  # shared hit + promotion
        _must_hit(cache, "s")  # local hit after promotion
        stats = cache.stats
        assert stats.local_hits == 2
        assert stats.shared_hits == 1
        assert stats.misses == 1
        assert stats.promotions == 1
        assert stats.hits == stats.local_hits + stats.shared_hits == 3
        assert stats.lookups == stats.hits + stats.misses == 4
        assert stats.hit_rate == pytest.approx(3 / 4)

    def test_get_or_compile_counts_miss_once_and_publishes(self):
        store = SharedStore()
        cache = CompileCache(store=store)
        artifact, hit = cache.get_or_compile("k", lambda: stub_artifact("k"))
        assert not hit and artifact.key == "k"
        assert cache.stats.misses == 1
        assert store.get("k") is artifact  # published for other caches
        # A sibling cache over the same store gets a shared hit, not a
        # compile.
        sibling = CompileCache(store=store)
        artifact2, hit2 = sibling.get_or_compile(
            "k", lambda: pytest.fail("must not recompile")
        )
        assert hit2 and artifact2 is artifact
        assert sibling.stats.shared_hits == 1 and sibling.stats.misses == 0

    def test_concurrent_sessions_over_one_store_compile_once(self):
        """Four 'shards' (sessions sharing a store) racing on the same
        cold kernel run one front end total."""
        store = SharedStore()
        sessions = [ReasonSession(store=store) for _ in range(4)]
        kernel = random_ksat(30, 120, seed=11)
        reports = [None] * len(sessions)

        def worker(index):
            reports[index] = sessions[index].run(kernel)

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(len(sessions))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert sum(session.prepare_calls for session in sessions) == 1
        assert len({report.result for report in reports}) == 1
        assert len({report.cycles for report in reports}) == 1
        assert sum(1 for report in reports if not report.cache_hit) == 1


class TestMakeStore:
    def test_specs(self, tmp_path):
        assert make_store(None) is None
        shared = SharedStore()
        assert make_store(shared) is shared
        assert isinstance(make_store("shared"), SharedStore)
        disk = make_store(f"disk:{tmp_path / 'cache'}")
        assert isinstance(disk, DiskStore)
        assert disk.path == tmp_path / "cache"

    def test_bad_specs_rejected(self):
        with pytest.raises(TypeError):
            make_store(42)
        with pytest.raises(ValueError):
            make_store("disk:")
        with pytest.raises(ValueError):
            make_store("redis")

    def test_artifact_store_is_abstract(self):
        with pytest.raises(TypeError):
            ArtifactStore()


class TestServiceSharedStore:
    def test_unique_kernels_compile_once_service_wide(self):
        """The headline: with round-robin spraying requests across all
        shards, a private-cache service front-end-compiles per shard,
        a store-backed service compiles once per unique kernel."""
        kernels = [random_ksat(16 + 2 * n, 60, seed=n) for n in range(3)]
        trace = [kernels[index % len(kernels)] for index in range(12)]

        with ReasonService(shards=4, policy="round-robin") as private:
            private_reports = [
                future.result() for future in private.submit_batch(trace)
            ]
            private_prepares = sum(
                shard.prepare_calls for shard in private.stats().shards
            )

        with ReasonService(
            shards=4, policy="round-robin", store="shared"
        ) as shared:
            shared_reports = [
                future.result() for future in shared.submit_batch(trace)
            ]
            shared_prepares = sum(
                shard.prepare_calls for shard in shared.stats().shards
            )

        assert shared_prepares == len(kernels)  # exactly once per kernel
        assert private_prepares > shared_prepares  # paid per shard before
        for private_report, shared_report in zip(private_reports, shared_reports):
            assert shared_report.result == private_report.result
            assert shared_report.cycles == private_report.cycles
            assert shared_report.energy_j == private_report.energy_j

    def test_corrupt_disk_entry_is_a_miss_not_an_error(self, tmp_path):
        store = DiskStore(tmp_path)
        session = ReasonSession(store=store)
        kernel = random_ksat(12, 40, seed=9)
        session.run(kernel)
        (key,) = _disk_keys(store)
        # Truncate the committed artifact: a reader crash mid-download,
        # a full disk, or an incompatible old library version.
        path = store.path / f"{key}{DiskStore._SUFFIX}"
        path.write_bytes(path.read_bytes()[:16])
        assert store.get(key) is None  # miss, not UnpicklingError
        fresh = ReasonSession(store=DiskStore(tmp_path))
        report = fresh.run(kernel)  # recompiles and rewrites the entry
        assert not report.cache_hit and fresh.prepare_calls == 1
        assert store.get(key) is not None

    def test_one_unreadable_entry_read_by_one_run_is_one_counted_miss(self, tmp_path):
        kernel = random_ksat(12, 40, seed=9)
        ReasonSession(store=DiskStore(tmp_path)).run(kernel)
        store = DiskStore(tmp_path)
        (key,) = _disk_keys(store)
        assert corrupt_disk_entry(store, key)
        fresh = ReasonSession(store=store)
        report = fresh.run(kernel)
        assert not report.cache_hit
        assert store.corrupt_misses == 1 and fresh.prepare_calls == 1
        assert store.get(key) is not None  # rewritten

    def test_an_entry_with_a_dict_of_nodes_dag_is_a_counted_miss(self, tmp_path, monkeypatch):
        # Entries written while a Dag pickled as a dict of node objects
        # (``_nodes``) rather than as columns: one miss each, counted,
        # then recompiled and rewritten — never a failed request.
        circuit, options = build("circuit/rand-6")

        def dict_of_nodes(dag):
            return {"_nodes": dict(enumerate(dag._ops)), "_next_id": len(dag), "root": dag.root}

        monkeypatch.setattr(Dag, "__getstate__", dict_of_nodes)
        baseline = ReasonSession(store=DiskStore(tmp_path)).run(circuit, **options)
        monkeypatch.undo()
        store = DiskStore(tmp_path)
        fresh = ReasonSession(store=store)
        report = fresh.run(circuit, **options)
        assert not report.cache_hit and fresh.prepare_calls == 1
        assert report.identity() == baseline.identity()
        misses = store.corrupt_misses
        assert misses > 0  # counted, not raised
        (key,) = _disk_keys(store)
        assert store.get(key) is not None  # rewritten in the column format
        assert store.corrupt_misses == misses

    def test_stats_aggregate_both_levels(self):
        kernel = random_ksat(14, 50, seed=2)
        with ReasonService(
            shards=2, policy="round-robin", store="shared"
        ) as service:
            for _ in range(4):
                service.submit(kernel).result()
            stats = service.stats()
        assert stats.cache_hits + stats.cache_misses == 4
        assert stats.cache_misses == 1
        assert stats.warm_hit_rate == pytest.approx(3 / 4)


class _ListedStore(ArtifactStore):
    """A custom store that answers only the abstract methods."""

    def __init__(self):
        super().__init__()
        self.entries = {}

    def get(self, key):
        return self.entries.get(key)

    def put(self, key, artifact):
        self.entries[key] = artifact

    def __len__(self):
        return len(self.entries)


class _RaisingHolds(SharedStore):
    def holds(self, key):
        raise OSError("backing volume detached")


class TestHolds:
    """``holds`` promises a later ``get``: where a service runs a
    request depends on it, so only a store that never drops an entry
    says True."""

    def test_a_shared_store_holds_what_it_was_given(self):
        store = SharedStore()
        assert not store.holds("k")
        store.put("k", stub_artifact("k"))
        assert store.holds("k") and store.get("k") is not None

    @pytest.mark.parametrize("kind", ["disk", "custom"])
    def test_a_store_that_cannot_promise_holds_nothing(self, kind, tmp_path):
        store = DiskStore(tmp_path) if kind == "disk" else _ListedStore()
        store.put("k", stub_artifact("k"))
        assert store.get("k") is not None and not store.holds("k")

    def test_the_resilient_wrapper_answers_for_its_store_and_counts_nothing(self):
        inner = SharedStore()
        inner.put("k", stub_artifact("k"))
        breaker = CircuitBreaker(failure_threshold=1, reset_after_s=60.0)
        store = ResilientStore(inner, breaker=breaker)
        assert store.holds("k") and not store.holds("other")
        breaker.record_failure()  # open: the store is not asked
        assert not store.holds("k")
        assert not ResilientStore(_RaisingHolds()).holds("k")
        assert (store.errors, store.degraded, breaker.trips) == (0, 0, 1)
