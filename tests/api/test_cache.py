"""Compile-cache semantics: hits, misses, eviction, thread safety, and
the session's compile-once/replay-many behavior."""

import threading

import numpy as np
import pytest

from repro.api import CompileCache, ReasonSession, content_key
from repro.core.dag import circuit_to_dag
from repro.core.dag.graph import OpType
from repro.hmm.model import HMM
from repro.logic.generators import random_ksat
from repro.pc.circuit import LeafNode, SumNode
from repro.pc.learn import random_circuit

from tests.corpus import serve


class TestCompileCache:
    def test_miss_then_hit(self):
        cache = CompileCache()
        first, hit = serve(cache, "k")
        assert not hit
        again, hit = serve(cache, "k")
        assert hit and again is first
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_lru_eviction(self):
        cache = CompileCache(capacity=2)
        serve(cache, "a")
        serve(cache, "b")
        serve(cache, "a")  # refresh a; b becomes LRU
        serve(cache, "c")
        assert "b" not in cache and "a" in cache and "c" in cache
        assert cache.stats.evictions == 1

    @pytest.mark.parametrize(
        "capacity", [0, -1, True, 2.5, 2.0, float("nan"), "4"],
        ids=["zero", "negative", "bool", "float", "integral-float", "nan", "str"],
    )
    def test_invalid_capacity_rejected(self, capacity):
        """A positive integer or None, as ``check_count`` has it: a NaN
        capacity used to make the cache silently unbounded."""
        with pytest.raises(ValueError, match="capacity must be a positive integer"):
            CompileCache(capacity=capacity)

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
        serve(cache, "k")
        snapshot = cache.stats
        serve(cache, "k")
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
                    serve(cache, key)
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

    def test_cached_replay_skips_front_end_wall_time(self):
        """The point of the cache: second run avoids optimize+compile."""
        session = ReasonSession()
        kernel = random_ksat(40, 160, seed=5)
        first = session.run(kernel)
        second = session.run(kernel)
        assert first.compile_s > 0.0
        assert second.cache_hit and second.compile_s == 0.0


def _circuit():
    return random_circuit(5, depth=2, sum_children=3, seed=8)


def _first(circuit, node_type):
    return next(n for n in circuit.topological_order() if isinstance(n, node_type))


def _write_weight_in_place(circuit):
    weights = _first(circuit, SumNode).weights
    old = weights[0]
    weights[0] = old * 0.5
    return lambda: weights.__setitem__(0, old)


def _unnormalized_circuit():
    circuit = _circuit()
    node = _first(circuit, SumNode)
    node.weights = node.weights * 4.0
    return circuit


def _normalize(circuit):
    node = _first(circuit, SumNode)
    old = node.weights
    node.normalize()
    return lambda: setattr(node, "weights", old)


def _reassign_leaf_table(circuit):
    leaf = _first(circuit, LeafNode)
    old = leaf.probabilities
    leaf.probabilities = np.array([0.125, 0.875])
    return lambda: setattr(leaf, "probabilities", old)


def _add_clause(formula):
    formula.add_clause([1, -2, 3])
    return formula.clauses.pop


def _pop_clause(formula):
    clause = formula.clauses.pop()
    return lambda: formula.clauses.append(clause)


def _write_transition_in_place(hmm):
    old = hmm.transition[0].copy()
    hmm.transition[0] = old[::-1]
    return lambda: hmm.transition.__setitem__(0, old)


def _add_op(dag):
    old = dag.root
    dag.set_root(dag.add_op(OpType.PRODUCT, [old, old]))
    return lambda: dag.set_root(old)


MUTATIONS = {
    "circuit-weight-in-place": (_circuit, _write_weight_in_place),
    "circuit-normalize": (_unnormalized_circuit, _normalize),
    "circuit-leaf-table-reassigned": (_circuit, _reassign_leaf_table),
    "cnf-add-clause": (lambda: random_ksat(10, 30, seed=8), _add_clause),
    "cnf-pop-clause": (lambda: random_ksat(10, 30, seed=8), _pop_clause),
    "hmm-transition-in-place": (lambda: HMM.random(4, 5, seed=8), _write_transition_in_place),
    "dag-add-op": (lambda: circuit_to_dag(_circuit())[0], _add_op),
}


class TestMutationIsNeverServedStale:
    """Kernels are mutable and keys are read at submit time: a request
    after a write is a request for the new content, and writing the old
    content back is a request for the old entry.  Any key remembered by
    object identity fails the first half."""

    @pytest.mark.parametrize("case", MUTATIONS)
    def test_write_is_a_miss_and_restore_is_a_hit(self, case):
        build, mutate = MUTATIONS[case]
        kernel = build()
        session = ReasonSession()
        first = session.run(kernel)
        assert session.run(kernel).cache_hit

        restore = mutate(kernel)
        changed = session.run(kernel)
        assert not changed.cache_hit and session.prepare_calls == 2
        twin = build()  # never keyed: nothing could be remembered for it
        mutate(twin)
        assert changed.identity() == ReasonSession().run(twin).identity()
        assert session.run(twin).cache_hit

        restore()
        again = session.run(kernel)
        assert again.cache_hit and session.prepare_calls == 2
        assert again.identity() == first.identity()


class TestHeld:
    """``CompileCache.holds``: a lookup sure to be served without a
    compile, from the LRU or from a store that promises its ``get``."""

    @pytest.mark.parametrize("store", [None, "shared", "disk"])
    def test_an_evicted_kernel_is_held_only_by_a_promising_store(self, store, tmp_path):
        spec = f"disk:{tmp_path}" if store == "disk" else store
        cache = CompileCache(capacity=1, store=spec)
        assert not cache.holds("a")
        serve(cache, "a")
        assert cache.holds("a")
        serve(cache, "b")  # evicts a from the LRU
        assert cache.holds("b") and cache.holds("a") is (store == "shared")

    def test_asking_counts_nothing(self):
        cache = CompileCache(capacity=1, store="shared")
        serve(cache, "a")
        serve(cache, "b")
        before = cache.stats
        assert cache.holds("a") and cache.holds("b") and not cache.holds("c")
        assert cache.stats == before and len(cache) == 1
