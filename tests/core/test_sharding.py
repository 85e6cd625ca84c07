"""Shard-level pipeline composition (the service-throughput model)."""

import pytest

from repro.core.system import compose_shard_makespans
from repro.core.system.pipeline import TwoLevelPipeline


class TestComposeShardMakespans:
    def test_total_is_slowest_shard(self):
        comp = compose_shard_makespans(
            [
                [(0.0, 1.0), (0.0, 1.0)],  # shard 0: 2s of symbolic work
                [(0.0, 3.0)],  # shard 1: 3s — the straggler
            ]
        )
        pipeline = TwoLevelPipeline()
        slow = pipeline.run([0.0], [3.0]).total_s
        assert comp.total_s == pytest.approx(slow)
        assert len(comp.per_shard) == 2

    def test_single_shard_baseline_concatenates_all_work(self):
        tasks = [[(0.1, 0.2), (0.1, 0.3)], [(0.1, 0.25)]]
        comp = compose_shard_makespans(tasks)
        pipeline = TwoLevelPipeline()
        baseline = pipeline.run([0.1, 0.1, 0.1], [0.2, 0.3, 0.25]).total_s
        assert comp.single_shard_s == pytest.approx(baseline)
        assert comp.total_s <= comp.single_shard_s <= comp.serial_s
        assert comp.speedup >= 1.0

    def test_balanced_shards_scale_nearly_linearly(self):
        # 4 shards x 4 identical tasks vs all 16 on one shard.
        shard = [(0.0, 1.0)] * 4
        comp = compose_shard_makespans([shard] * 4)
        assert comp.speedup == pytest.approx(4.0, rel=0.01)
        assert comp.throughput_rps(16) == pytest.approx(16 / comp.total_s)

    def test_neural_and_symbolic_totals(self):
        comp = compose_shard_makespans([[(0.5, 1.0)], [(0.25, 2.0)]])
        assert [r.neural_s for r in comp.per_shard] == pytest.approx([0.5, 0.25])
        assert [r.symbolic_s for r in comp.per_shard] == pytest.approx([1.0, 2.0])

    def test_empty_and_partial_shards(self):
        comp = compose_shard_makespans([[], [(0.0, 1.0)], []])
        assert comp.total_s == pytest.approx(
            TwoLevelPipeline().run([0.0], [1.0]).total_s
        )
        empty = compose_shard_makespans([[], []])
        assert empty.total_s == 0.0 and empty.speedup == 1.0
