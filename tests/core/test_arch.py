"""Tests for the architecture model: interconnect, the
watched-literals cost table, the tree PE datapath, energy, and
symbolic replay."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from repro import ReasonSession
from repro.core.arch import (
    ArchConfig,
    DEFAULT_CONFIG,
    EnergyModel,
    ReasonAccelerator,
    TechNode,
    Topology,
    broadcast_cycles,
    traversal_latency,
    watch_costs,
)
from repro.core.arch.config import dse_grid
from repro.core.arch.energy import EVENT_NAMES, scale_to_node
from repro.core.arch.interconnect import scalability_series
from repro.core.arch.tree_pe import PEMode, TreePE
from repro.core.compiler.program import (
    InstructionKind,
    Program,
    TreeNodeConfig,
    VLIWInstruction,
)
from repro.core.dag.graph import OpType
from repro.logic.cdcl import CDCLSolver
from repro.logic.cnf import CNF, Clause
from repro.logic.generators import pigeonhole, random_ksat
from repro.pc.learn import random_circuit
from repro.trace import TraceWriter, timeline


class TestConfig:
    def test_default_matches_paper_fig10(self):
        cfg = DEFAULT_CONFIG
        assert cfg.num_pes == 12
        assert cfg.tree_depth == 3
        assert cfg.num_banks == 64
        assert cfg.regs_per_bank == 32
        assert cfg.sram_kib == 1280  # 1.25 MB
        # 12 PEs with >= 80 nodes total (paper: 12 PEs / 80 nodes).
        assert cfg.total_tree_nodes >= 80

    def test_derived_quantities(self):
        cfg = ArchConfig(tree_depth=3)
        assert cfg.leaves_per_pe == 8
        assert cfg.nodes_per_pe == 15
        assert cfg.pipeline_stages == 4

    def test_ablation_copies(self):
        ablated = DEFAULT_CONFIG.with_ablation(pipelined_scheduling=False)
        assert not ablated.pipelined_scheduling
        assert DEFAULT_CONFIG.pipelined_scheduling  # original untouched

    def test_no_switch_is_accepted_and_ignored(self):
        """Every ``ArchConfig`` field moves a CNF report, a circuit
        report or a traced stream: a field nothing reads would still
        change every cache key."""
        with pytest.raises(TypeError):
            DEFAULT_CONFIG.with_ablation(unified_engine=False)
        other = dict(
            tree_depth=2, num_banks=32, regs_per_bank=16, num_pes=6, frequency_hz=250e6,
            sram_kib=640, sram_banks=4, dram_latency_cycles=3,
            pipelined_scheduling=False, reconfigurable=False, linked_list_layout=False,
        )
        assert set(other) == {f.name for f in dataclasses.fields(ArchConfig)}
        kernels = (pigeonhole(4), random_circuit(6, depth=2, sum_children=2, seed=3))

        def observed(config):
            reports = [ReasonSession(config=config).run(k, trace=True) for k in kernels]
            return [(r.identity(), r.extras["trace_data"]) for r in reports]

        baseline = observed(DEFAULT_CONFIG)
        for name, value in other.items():
            assert getattr(DEFAULT_CONFIG, name) != value
            moved = observed(dataclasses.replace(DEFAULT_CONFIG, **{name: value}))
            assert moved != baseline, name

    @pytest.mark.parametrize(
        "name, value, bound",
        [
            ("tree_depth", 0, ">= 1"),
            ("num_banks", 0, ">= 1"),
            ("regs_per_bank", 0, ">= 1"),
            ("num_pes", 0, ">= 1"),
            ("frequency_hz", 0.0, "> 0"),
            ("frequency_hz", float("nan"), "> 0"),
            ("sram_kib", -1, ">= 0"),
            ("sram_banks", 0, ">= 1"),
            ("dram_latency_cycles", -5, ">= 0"),
        ],
    )
    def test_out_of_range_field_is_rejected(self, name, value, bound):
        """Zero PEs used to hang the scheduler, zero registers or SRAM
        banks failed deep inside it, a zero clock divided by zero."""
        with pytest.raises(ValueError, match=f"ArchConfig.{name}=.* must be {bound}"):
            dataclasses.replace(DEFAULT_CONFIG, **{name: value})

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("tree_depth", 2.5, "must be an integer"),
            ("num_pes", True, "must be an integer"),
            ("num_banks", 3.5, "must be an integer"),
            ("regs_per_bank", 32.0, "must be an integer"),
            ("sram_kib", 1280.0, "must be an integer"),
            ("sram_banks", True, "must be an integer"),
            ("dram_latency_cycles", 100.5, "must be an integer"),
            ("frequency_hz", float("inf"), "must be finite"),
        ],
    )
    def test_counts_are_integers_and_the_clock_is_finite(self, name, value, message):
        """``tree_depth=2.5`` gave 5.66 leaves per PE, and an infinite
        clock a zero cycle time, so every report said 0 seconds."""
        with pytest.raises(ValueError, match=f"ArchConfig.{name}={value!r} {message}"):
            dataclasses.replace(DEFAULT_CONFIG, **{name: value})

    def test_numpy_integer_counts_pass(self):
        numpy_counts = {
            name: np.int64(getattr(DEFAULT_CONFIG, name))
            for name in ("tree_depth", "num_banks", "regs_per_bank", "num_pes",
                         "sram_kib", "sram_banks", "dram_latency_cycles")
        }  # fmt: skip
        config = dataclasses.replace(DEFAULT_CONFIG, **numpy_counts)
        assert config.leaves_per_pe == DEFAULT_CONFIG.leaves_per_pe
        assert config == DEFAULT_CONFIG

    def test_smallest_legal_config_is_accepted(self):
        smallest = dataclasses.replace(
            DEFAULT_CONFIG, tree_depth=1, num_banks=1, regs_per_bank=1, num_pes=1,
            frequency_hz=1.0, sram_kib=0, sram_banks=1, dram_latency_cycles=0,
        )
        assert smallest.key_bytes != DEFAULT_CONFIG.key_bytes

    def test_dse_grid_size(self):
        grid = dse_grid()
        assert len(grid) == 3 * 4 * 3
        assert any(c.tree_depth == 3 and c.num_banks == 64 and c.regs_per_bank == 32 for c in grid)


class TestInterconnect:
    def test_tree_is_logarithmic(self):
        assert broadcast_cycles(Topology.TREE, 64) == pytest.approx(6.0)

    def test_mesh_is_sqrt(self):
        assert broadcast_cycles(Topology.MESH, 64) == pytest.approx((2 * 8 - 1) * 1.2)

    def test_bus_is_linear(self):
        assert broadcast_cycles(Topology.ALL_TO_ONE, 64) == pytest.approx(32.0)

    def test_ordering_at_scale(self):
        # Fig. 8(b): tree < mesh < all-to-one for large N.
        for n in (32, 64, 128, 256):
            tree = broadcast_cycles(Topology.TREE, n)
            mesh = broadcast_cycles(Topology.MESH, n)
            bus = broadcast_cycles(Topology.ALL_TO_ONE, n)
            assert tree < mesh < bus

    def test_scalability_series_shapes(self):
        series = scalability_series(list(Topology), [8, 16, 24, 32])
        assert set(series) == {"tree", "mesh", "all-to-one"}
        assert all(len(v) == 4 for v in series.values())
        # Monotone growth.
        for values in series.values():
            assert values == sorted(values)

    def test_latency_breakdown_total_grows_with_leaves(self):
        small = traversal_latency(Topology.TREE, 8)
        large = traversal_latency(Topology.TREE, 64)
        assert large.total > small.total

    def test_broadcast_rejects_an_empty_array(self):
        with pytest.raises(ValueError):
            broadcast_cycles(Topology.TREE, 0)

    def test_single_leaf_tree_is_one_hop(self):
        assert broadcast_cycles(Topology.TREE, 1) == pytest.approx(1.0)

    def test_tree_at_base_size_totals_one(self):
        # The Fig. 8(a) bars are normalized to the tree at its base size.
        breakdown = traversal_latency(Topology.TREE, 8)
        assert breakdown.total == pytest.approx(1.0)
        parts = (breakdown.memory, breakdown.pe, breakdown.peripheries, breakdown.inter_node)
        assert sum(parts) == pytest.approx(breakdown.total)

    def test_only_the_inter_node_term_depends_on_topology(self):
        tree, mesh, bus = (traversal_latency(t, 64) for t in list(Topology))
        for other in (mesh, bus):
            assert (other.memory, other.pe, other.peripheries) == (tree.memory, tree.pe, tree.peripheries)
        assert tree.inter_node < mesh.inter_node < bus.inter_node

    def test_scalability_series_is_normalized_to_the_smallest_tree(self):
        series = scalability_series(list(Topology), [8, 64])
        assert series["tree"] == pytest.approx([1.0, 2.0])


class TestWatchedLiterals:
    def _formula(self):
        return CNF([Clause([1, 2, 3]), Clause([-1, 2]), Clause([1, -3])])

    def test_watch_lists_index_first_two_literals(self):
        table, _ = watch_costs(self._formula(), DEFAULT_CONFIG)
        assert table[1][0] == 2  # clauses 0 and 2 watch lit 1
        assert table[2][0] == 2  # clauses 0 and 1
        assert 3 not in table  # third literal of clause 0: on no list

    def test_assignment_touches_only_watchers(self):
        table, unwatched = watch_costs(self._formula(), DEFAULT_CONFIG)
        clauses, cycles, banks = table[1]
        assert clauses == 2
        assert cycles == 1 + clauses  # head lookup + one hop per clause
        assert sum(reads for _, reads in banks) == clauses
        assert unwatched == (0, 1, ())

    def test_flat_layout_ablation_scans_database(self):
        formula = self._formula()
        linked, _ = watch_costs(formula, DEFAULT_CONFIG)
        flat, unwatched = watch_costs(
            formula, DEFAULT_CONFIG.with_ablation(linked_list_layout=False)
        )
        # Same answer, worse cost: one scan of the region, watched or not.
        assert {lit: cost[0] for lit, cost in flat.items()} == {
            lit: cost[0] for lit, cost in linked.items()
        }
        assert {cost[1:] for cost in flat.values()} == {unwatched[1:]}
        assert unwatched[0] == 0 and unwatched[2]

    def test_linked_layout_cheaper_than_scan_on_large_db(self):
        formula = random_ksat(60, 400, seed=1)
        _, linked_cycles, linked_banks = watch_costs(formula, DEFAULT_CONFIG)[0][3]
        _, flat_cycles, flat_banks = watch_costs(
            formula, DEFAULT_CONFIG.with_ablation(linked_list_layout=False)
        )[0][3]
        assert linked_cycles < flat_cycles
        assert sum(r for _, r in linked_banks) < sum(r for _, r in flat_banks)

    def test_bank_reads_are_newest_clause_first(self):
        # Records sit at words 0, 4, 9, 13, 18 -> banks 0, 0, 1, 1, 2 of
        # four; the head pointer names the newest, so the list is read
        # 2, 1, 1, 0, 0 and each bank appears at its first touch.
        formula = CNF(
            [Clause([1, 2]), Clause([1, 3, 4]), Clause([1, 5]), Clause([1, 6, 7]), Clause([1, 8])]
        )
        table, _ = watch_costs(formula, dataclasses.replace(DEFAULT_CONFIG, sram_banks=4))
        assert table[1] == (5, 6, ((2, 1), (1, 2), (0, 2)))


def _compute(configs, leaves, output=-1):
    """One COMPUTE of ``configs`` on PE 0 whose leaf operand at each
    heap position of ``leaves`` is the DAG value of the same id."""
    return VLIWInstruction(
        InstructionKind.COMPUTE,
        tree_config=list(configs),
        leaf_operands={position: position for position in leaves},
        output_value=output,
    )


def _execute(configs, leaves):
    """What one placed block computes: ``leaves`` maps heap positions to
    operand values, the result is the block's root value."""
    program = Program([_compute(configs, leaves)], root_value=-1)
    return ReasonAccelerator().run_program(program, leaves).result


class TestTreePE:
    """The tree-node datapath, driven through ``run_program``'s value pass."""

    def test_sum_with_mismatched_weights_is_rejected(self):
        # Two weights, one live operand: evaluating with all-ones
        # weights instead would be a silently wrong marginal.
        weighted = TreeNodeConfig(0, OpType.SUM, (0.25, 0.75))
        assert _execute([weighted], {1: 0.5, 2: 1.0}) == pytest.approx(0.875)
        with pytest.raises(ValueError, match="SUM node 0 has 2 child weights for 1 live"):
            _execute([weighted], {1: 0.5})

    def test_unweighted_sum_adds_and_product_multiplies(self):
        leaves = {1: 0.25, 2: 4.0}
        assert _execute([TreeNodeConfig(0, OpType.SUM)], leaves) == pytest.approx(4.25)
        assert _execute([TreeNodeConfig(0, OpType.PRODUCT)], leaves) == pytest.approx(1.0)

    def test_logic_ops_read_positive_values_as_true(self):
        for left, right in ((0.0, 0.0), (0.0, 0.5), (2.0, 0.0), (1.0, 1.0)):
            leaves = {1: left, 2: right}
            both = left > 0 and right > 0
            either = left > 0 or right > 0
            assert _execute([TreeNodeConfig(0, OpType.AND)], leaves) == float(both)
            assert _execute([TreeNodeConfig(0, OpType.OR)], leaves) == float(either)
        assert _execute([TreeNodeConfig(0, OpType.NOT)], {1: 1.0}) == 0.0
        assert _execute([TreeNodeConfig(0, OpType.NOT)], {1: 0.0}) == 1.0

    def test_forward_nodes_pass_their_live_child_up(self):
        # Root (0) multiplies a forwarded left operand (1 <- 3) and a
        # right subtree product (2 <- 5 * 6).
        configs = [
            TreeNodeConfig(0, OpType.PRODUCT),
            TreeNodeConfig(1, None),
            TreeNodeConfig(2, OpType.PRODUCT),
        ]
        assert _execute(configs, {3: 0.5, 5: 2.0, 6: 3.0}) == pytest.approx(3.0)

    def test_leaf_level_forward_keeps_the_injected_operand(self):
        configs = [TreeNodeConfig(0, OpType.SUM), TreeNodeConfig(1, None), TreeNodeConfig(2, None)]
        assert _execute(configs, {1: 0.25, 2: 0.5}) == pytest.approx(0.75)

    def test_nodes_without_inputs_are_rejected(self):
        with pytest.raises(ValueError, match="op node 0 has no inputs"):
            _execute([TreeNodeConfig(0, OpType.AND)], {})
        with pytest.raises(ValueError, match="forward node 0 has no input"):
            _execute([TreeNodeConfig(0, None)], {})
        with pytest.raises(ValueError, match="root value"):
            _execute([TreeNodeConfig(1, OpType.OR)], {3: 1.0})

    def test_graph_only_ops_are_not_executable(self):
        with pytest.raises(TypeError, match="not executable"):
            _execute([TreeNodeConfig(0, OpType.LEAF)], {1: 1.0})

    def test_a_missing_input_is_named(self):
        program = Program([_compute([TreeNodeConfig(0, OpType.SUM)], {1: 0.5})], root_value=-1)
        with pytest.raises(KeyError, match="input value for DAG node 1 missing"):
            ReasonAccelerator().run_program(program, {})

    def test_a_position_outside_the_tree_is_rejected(self):
        # A depth-1 tree has positions 0-2; its store reaches their
        # children (3-6), so a leaf at 7 belongs to a deeper tree.
        shallow = dataclasses.replace(DEFAULT_CONFIG, tree_depth=1)
        program = Program([_compute([TreeNodeConfig(0, None)], {7: 1.0})], root_value=-1)
        with pytest.raises(ValueError, match="outside this chip's 3-node PE tree"):
            ReasonAccelerator(shallow).run_program(program, {7: 1.0})

    def test_stats_and_energy_split_logic_from_alu_ops(self):
        accelerator = ReasonAccelerator()
        configs = [
            TreeNodeConfig(0, OpType.AND),
            TreeNodeConfig(1, OpType.OR),
            TreeNodeConfig(2, None),
        ]
        program = Program(
            [
                _compute(configs, {3: 1.0, 4: 0.0, 5: 1.0}, output=10),
                _compute([TreeNodeConfig(0, OpType.PRODUCT)], {1: 1.0, 2: 1.0}, output=11),
            ]
        )
        run = accelerator.run_program(program, {3: 1.0, 4: 0.0, 5: 1.0, 1: 1.0, 2: 1.0})
        assert run.utilization == 3 / (2 * DEFAULT_CONFIG.nodes_per_pe)
        assert (accelerator.energy.logic_op, accelerator.energy.alu_op) == (2, 1)

    def test_mode_switches_cost_a_drain_only_on_a_fixed_array(self):
        pe = TreePE(DEFAULT_CONFIG)
        assert pe.mode is None
        pe.set_mode(PEMode.SYMBOLIC)
        assert pe.mode is PEMode.SYMBOLIC
        assert pe.mode_switch_penalty() == 0
        fixed = TreePE(DEFAULT_CONFIG.with_ablation(reconfigurable=False))
        assert fixed.mode_switch_penalty() == 4 * DEFAULT_CONFIG.pipeline_stages


class TestEnergyModel:
    def test_default_area_matches_paper(self):
        model = EnergyModel()
        assert model.area_mm2() == pytest.approx(6.0, rel=0.02)

    def test_tech_scaling_matches_table3(self):
        model = EnergyModel()
        assert model.area_mm2(TechNode.NM12) == pytest.approx(1.37, rel=0.02)
        assert model.area_mm2(TechNode.NM8) == pytest.approx(0.51, rel=0.02)
        assert scale_to_node(2.12, TechNode.NM12, "energy") == pytest.approx(1.21, rel=0.02)
        assert scale_to_node(2.12, TechNode.NM8, "energy") == pytest.approx(0.98, rel=0.02)

    def test_energy_accumulates(self):
        model = EnergyModel()
        model.alu_op += 100
        model.sram_access += 10
        assert model.total_energy_pj() == pytest.approx(100 * 0.9 + 10 * 5.0)

    def test_power_includes_static_floor(self):
        model = EnergyModel()
        assert model.average_power_w(1000) > 0
        assert model.static_power_w() == pytest.approx(0.3 * 2.12, rel=0.05)

    def test_merge(self):
        a, b = EnergyModel(), EnergyModel()
        a.alu_op, b.alu_op = 5, 7
        a.merge(b)
        assert a.alu_op == 12


ORACLE_FORMULAS = {
    "php4": pigeonhole(4),
    "php6": pigeonhole(6),  # enough conflicts to restart
    "ksat20": random_ksat(20, 80, seed=2),
    "ksat40": random_ksat(40, 170, seed=4),
    "ksat60": random_ksat(60, 250, seed=5),
    "ksat60x400": random_ksat(60, 400, seed=1),
    "narrow": CNF(
        [Clause([1]), Clause([-1, 2]), Clause([-2, 3, 4]), Clause([-3, -4]), Clause([4, 5, -6])]
    ),
}
ORACLE_CONFIGS = {
    "default": DEFAULT_CONFIG,
    "flat": DEFAULT_CONFIG.with_ablation(linked_list_layout=False),
    "unpipelined": DEFAULT_CONFIG.with_ablation(pipelined_scheduling=False),
    "dram3": dataclasses.replace(DEFAULT_CONFIG, dram_latency_cycles=3),
    "banks4": dataclasses.replace(DEFAULT_CONFIG, sram_banks=4),
}


class TestSymbolicReplay:
    def test_replay_counts_match_solver_stats(self):
        formula = random_ksat(20, 80, seed=2)
        accelerator = ReasonAccelerator()
        trace, solver = accelerator.run_symbolic(formula)
        assert trace.decisions == solver.stats.decisions
        assert trace.implications == solver.stats.propagations
        assert trace.conflicts == solver.stats.conflicts

    def test_events_recorded_when_requested(self):
        formula = random_ksat(15, 60, seed=3)
        accelerator = ReasonAccelerator()
        writer = TraceWriter()
        accelerator.attach_trace(writer)
        accelerator.run_symbolic(formula)
        writer.close()
        units = {unit for _, unit, _ in timeline(writer.getvalue())}
        assert "broadcast" in units

    def test_flat_layout_ablation_costs_more_cycles(self):
        formula = random_ksat(40, 170, seed=4)
        base = ReasonAccelerator(DEFAULT_CONFIG)
        base_trace, _ = base.run_symbolic(formula, solver=CDCLSolver(record_trace=True))
        flat = ReasonAccelerator(DEFAULT_CONFIG.with_ablation(linked_list_layout=False))
        flat_trace, _ = flat.run_symbolic(formula, solver=CDCLSolver(record_trace=True))
        assert flat_trace.cycles > base_trace.cycles

    def test_replay_cycles_positive_and_scale(self):
        small, _ = ReasonAccelerator().run_symbolic(random_ksat(10, 30, seed=5))
        large, _ = ReasonAccelerator().run_symbolic(random_ksat(60, 250, seed=5))
        assert 0 < small.cycles < large.cycles

    def test_replay_requires_recorded_trace(self):
        accelerator = ReasonAccelerator()
        solver = CDCLSolver(record_trace=False)
        solver.solve(random_ksat(10, 30, seed=5))
        with pytest.raises(ValueError):
            accelerator.run_symbolic_trace(random_ksat(10, 30, seed=5), solver)

    def test_report_fields(self):
        accelerator = ReasonAccelerator()
        trace, _ = accelerator.run_symbolic(random_ksat(12, 40, seed=6))
        assert trace.cycles * accelerator.config.cycle_time_s > 0
        assert accelerator.energy.total_energy_j() > 0
        assert accelerator.energy.area_mm2() == pytest.approx(6.0, rel=0.02)

    @pytest.mark.parametrize("config", ORACLE_CONFIGS.values(), ids=ORACLE_CONFIGS)
    @pytest.mark.parametrize("formula", ORACLE_FORMULAS.values(), ids=ORACLE_FORMULAS)
    def test_untraced_replay_is_a_function_of_the_event_histogram(self, formula, config):
        """Cycles and all nine energy counters are per-literal constants
        (``watch_costs``) times visit counts, plus fixed costs per
        conflict / backjump / restart — nothing depends on event order."""
        accelerator = ReasonAccelerator(config)
        trace, solver = accelerator.run_symbolic(formula)
        histogram = Counter((event.kind, event.literal) for event in solver.trace)
        costs, unwatched = watch_costs(formula, config)
        tree_hops = config.tree_depth
        cycles = 0
        expected = dict.fromkeys(EVENT_NAMES, 0)
        for (kind, literal), n in histogram.items():
            if kind in ("decide", "imply"):
                clauses, access, banks = costs.get(-literal, unwatched)
                fetched = kind == "imply" and access > config.dram_latency_cycles
                paid = access if fetched or config.pipelined_scheduling else 2 * access
                cycles += n * (tree_hops + paid)
                expected["sram_access"] += n * sum(reads for _, reads in banks)
                if kind == "decide":
                    expected["logic_op"] += n * clauses
                    expected["network_hop"] += n * config.leaves_per_pe
                    expected["control_overhead"] += n
                else:
                    expected["logic_op"] += n * max(clauses, 1)
                    expected["network_hop"] += n
                    expected["fifo_op"] += n
                    expected["dram_access"] += n * (4 * clauses + 4) * fetched
            elif kind == "conflict":
                cycles += n * (tree_hops + 1)
                expected["control_overhead"] += 2 * n
            elif kind == "backjump":
                cycles += 2 * n
            elif kind == "restart":
                cycles += n * config.pipeline_stages
            else:
                assert kind == "learn"
        assert trace.cycles == cycles
        assert {name: getattr(accelerator.energy, name) for name in EVENT_NAMES} == expected
