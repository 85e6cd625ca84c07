"""Compile-cache semantics: hits, misses, eviction, thread safety, and
the session's compile-once/replay-many behavior."""

import threading

import pytest

from repro.api import CompileCache, ReasonSession, content_key
from repro.api.types import CompiledArtifact
from repro.logic.generators import random_ksat
from repro.pc.learn import random_circuit


def _artifact(key: str) -> CompiledArtifact:
    return CompiledArtifact(kind="cnf", key=key, kernel=None)


def _serve(cache: CompileCache, key: str):
    """One request through the cache's only entry point; a miss seeds
    the entry.  Returns ``(artifact, cache_hit)``."""
    return cache.get_or_compile(key, lambda: _artifact(key))


class TestCompileCache:
    def test_miss_then_hit(self):
        cache = CompileCache()
        first, hit = _serve(cache, "k")
        assert not hit
        again, hit = _serve(cache, "k")
        assert hit and again is first
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_lru_eviction(self):
        cache = CompileCache(capacity=2)
        _serve(cache, "a")
        _serve(cache, "b")
        _serve(cache, "a")  # refresh a; b becomes LRU
        _serve(cache, "c")
        assert "b" not in cache and "a" in cache and "c" in cache
        assert cache.stats.evictions == 1

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            CompileCache(capacity=0)

    def test_content_key_separates_fields(self):
        # ("ab", "c") must not collide with ("a", "bc").
        assert content_key("ab", "c") != content_key("a", "bc")
        assert content_key(b"raw") != content_key("raw")

    def test_content_key_rejects_address_based_reprs(self):
        """A part repr'ing through the default ``object.__repr__``
        embeds its memory address: two processes would hash different
        keys for identical content, so shared-store lookups could never
        match.  Reject loudly instead of silently destabilizing."""

        class ReprLess:
            pass

        with pytest.raises(TypeError, match="ReprLess"):
            content_key("kind", ReprLess())
        # Containers leak the default repr too.
        with pytest.raises(TypeError):
            content_key(("kind", object()))
        # Stable reprs keep working, including across repeated calls.
        assert content_key("kind", (1, 2.5, "x")) == content_key(
            "kind", (1, 2.5, "x")
        )

    def test_stats_snapshot_is_stable(self):
        cache = CompileCache()
        _serve(cache, "k")
        snapshot = cache.stats
        _serve(cache, "k")
        assert snapshot.misses == 1 and snapshot.hits == 0  # unchanged copy
        assert cache.stats.hits == 1


class TestThreadSafety:
    def test_concurrent_get_put_keeps_counters_consistent(self):
        """Shards (and shared sessions) hammer one cache from many
        threads; counters and the LRU bound must stay coherent."""
        cache = CompileCache(capacity=8)
        keys = [f"key-{n}" for n in range(16)]
        lookups_per_thread = 300
        errors = []

        def worker(seed: int) -> None:
            try:
                for step in range(lookups_per_thread):
                    key = keys[(seed * 7 + step) % len(keys)]
                    _serve(cache, key)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        stats = cache.stats
        assert stats.lookups == 8 * lookups_per_thread
        assert stats.hits + stats.misses == stats.lookups
        assert len(cache) <= 8
        assert stats.evictions > 0  # 16 keys through a capacity-8 cache


class TestSessionCaching:
    def test_repeated_kernel_compiles_once(self):
        session = ReasonSession()
        kernel = random_ksat(12, 40, seed=0)
        first = session.run(kernel)
        again = session.run(kernel)
        rebuilt = session.run(random_ksat(12, 40, seed=0))  # same content, new object
        assert not first.cache_hit and again.cache_hit and rebuilt.cache_hit
        assert session.prepare_calls == 1
        assert session.cache_stats.hit_rate == pytest.approx(2 / 3)

    def test_hit_replays_identically(self):
        session = ReasonSession()
        kernel = random_ksat(12, 40, seed=1)
        first = session.run(kernel, queries=3)
        second = session.run(kernel, queries=3)
        assert second.cycles == first.cycles
        assert second.result == first.result
        assert second.compile_s == 0.0 and first.compile_s > 0.0

    def test_option_change_is_a_miss(self):
        session = ReasonSession()
        kernel = random_ksat(12, 40, seed=2)
        session.run(kernel, optimize=True)
        report = session.run(kernel, optimize=False)
        assert not report.cache_hit
        assert session.prepare_calls == 2

    def test_clear_cache_forces_recompile(self):
        session = ReasonSession()
        kernel = random_ksat(10, 30, seed=4)
        session.run(kernel)
        session.clear_cache()
        report = session.run(kernel)
        assert not report.cache_hit
        assert session.prepare_calls == 2

    def test_cached_replay_skips_front_end_wall_time(self):
        """The point of the cache: second run avoids optimize+compile."""
        session = ReasonSession()
        kernel = random_ksat(40, 160, seed=5)
        first = session.run(kernel)
        second = session.run(kernel)
        assert first.compile_s > 0.0
        assert second.cache_hit and second.compile_s == 0.0
