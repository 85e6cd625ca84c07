"""Tests for the four-step compiler: blocks, mapping, tree placement,
scheduling — including functional equivalence against the reference
DAG evaluator."""

import math
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import ReasonSession
from repro.core.arch.config import ArchConfig, DEFAULT_CONFIG
from repro.core.compiler import (
    compile_dag,
    decompose_blocks,
    map_block_to_tree,
    map_operands_to_banks,
)
from repro.core.compiler.blocks import (
    Block,
    block_dependencies,
    topological_block_order,
)
from repro.core.compiler.program import InstructionKind, TreeNodeConfig
from repro.core.compiler.schedule import ScheduleStats
from repro.core.dag import (
    Dag,
    OpType,
    circuit_to_dag,
    cnf_to_dag,
    default_leaf_inputs,
    evaluate_dag,
    hmm_to_dag,
    is_two_input,
    regularize_two_input,
)
from repro.hmm.model import HMM
from repro.logic.generators import random_ksat
from repro.pc.learn import random_circuit
from tests.api.test_report_identity import build_trace


def issue_conflicts(assignment, block) -> int:
    """The stall cycles a block's issue pays: one per operand read from
    a bank another of its operands already reads."""
    values = set(block.inputs)
    return len(values) - len({assignment.bank_of[v] for v in values})


def chain_dag(length: int) -> Dag:
    """A fully serial SUM chain (worst case for pipelining)."""
    dag = Dag()
    prev = dag.add_op(OpType.LEAF, payload=(0, (1.0,)))
    for i in range(length):
        leaf = dag.add_op(OpType.LEAF, payload=(i + 1, (1.0,)))
        prev = dag.add_op(OpType.SUM, [prev, leaf], weights=[1.0, 1.0])
    dag.set_root(prev)
    return dag


def reference_placement(dag: Dag, block, tree_depth: int):
    """The placement walk written plainly — recurse from the PE root,
    collect every config, then sort by position — as
    ``(configs, leaf_operands, utilization)``."""
    block_nodes = set(block.nodes)
    first_leaf = 2 ** tree_depth - 1
    configs, leaf_operands = [], {}

    def place(value_id: int, position: int) -> None:
        if value_id not in block_nodes:
            leaf = position
            while leaf < first_leaf:
                leaf = 2 * leaf + 1
            leaf_operands[leaf] = value_id
            while True:
                configs.append(TreeNodeConfig(leaf, None))
                if leaf == position:
                    return
                leaf = (leaf - 1) // 2
        op = dag._ops[value_id]
        weights = dag._weights[value_id] if op is OpType.SUM else ()
        configs.append(TreeNodeConfig(position, op, weights))
        for side, child in enumerate(dag._children[value_id], start=1):
            place(child, 2 * position + side)

    place(block.output, 0)
    positions = [config.position for config in configs]
    assert len(set(positions)) == len(positions)
    configs.sort(key=lambda config: config.position)
    active = sum(1 for config in configs if config.op is not None)
    return configs, leaf_operands, active / (2 ** (tree_depth + 1) - 1)


def assert_placements_match_reference(dag: Dag, tree_depth: int) -> int:
    blocks = decompose_blocks(dag, tree_depth)
    for block in blocks:
        placement = map_block_to_tree(dag, block, tree_depth)
        configs, leaf_operands, utilization = reference_placement(dag, block, tree_depth)
        assert placement.configs == configs
        assert list(placement.leaf_operands.items()) == list(leaf_operands.items())
        assert placement.utilization == utilization
    return len(blocks)


def random_two_input_dag(seed: int, leaves: int, ops: int) -> Dag:
    """Ops over earlier nodes, one child recent (depth) and one from
    anywhere (sharing); the last op is the root, so some are unreachable."""
    rng = random.Random(seed)
    dag = Dag()
    nodes = [dag.add_op(OpType.LEAF, payload=(i, (1.0,))) for i in range(leaves)]
    for _ in range(ops):
        children = [rng.choice(nodes[-4:]), rng.choice(nodes)]
        nodes.append(dag.add_op(rng.choice([OpType.SUM, OpType.PRODUCT]), children))
    dag.set_root(nodes[-1])
    return dag


def reference_block_dependencies(dag, blocks):
    """``block_dependencies`` as it was until PR 19: walk every interior
    node's children and look up the block that owns each."""
    producer = {node_id: b.block_id for b in blocks for node_id in b.nodes}
    deps = {block.block_id: set() for block in blocks}
    for block in blocks:
        for node_id in block.nodes:
            for child in dag._children[node_id]:
                owner = producer.get(child)
                if owner is not None and owner != block.block_id:
                    deps[block.block_id].add(owner)
    return deps


def reference_bank_mapping(blocks, num_banks):
    """``map_operands_to_banks`` as it was before the heap: pairwise
    conflict cliques, then a first-wins scan of every bank per value.
    Returns ``(bank_of, conflicts)``."""
    neighbors = {}
    for block in blocks:
        group = list(dict.fromkeys(block.inputs))
        for value in group:
            neighbors.setdefault(value, set())
        for i, a in enumerate(group):
            for b in group[i + 1 :]:
                neighbors[a].add(b)
                neighbors[b].add(a)
    for block in blocks:
        neighbors.setdefault(block.output, set())
    bank_of, occupancy, conflicts = {}, [0] * num_banks, 0
    for value in sorted(neighbors, key=lambda v: (-len(neighbors[v]), v)):
        taken = {bank_of[n] for n in neighbors[value] if n in bank_of}
        bank, best_occupancy = -1, -1
        for b in range(num_banks):
            if b in taken:
                continue
            if bank < 0 or occupancy[b] < best_occupancy:
                bank, best_occupancy = b, occupancy[b]
        if bank < 0:  # every bank conflicts: the least loaded, first wins
            bank = 0
            for b in range(1, num_banks):
                if occupancy[b] < occupancy[bank]:
                    bank = b
            conflicts += 1
        bank_of[value] = bank
        occupancy[bank] += 1
    return bank_of, conflicts


class TestBlockDecomposition:
    def test_requires_two_input_dag(self):
        dag, _ = cnf_to_dag(random_ksat(5, 10, seed=0))
        with pytest.raises(ValueError):
            decompose_blocks(dag, 3)

    def test_blocks_cover_all_interior_nodes(self):
        dag = regularize_two_input(cnf_to_dag(random_ksat(8, 20, seed=1))[0])
        blocks = decompose_blocks(dag, 3)
        covered = {n for b in blocks for n in b.nodes}
        plan = dag.plan()
        interior = {
            i
            for i in plan.order
            if plan.ops[i] not in (OpType.LITERAL, OpType.LEAF, OpType.INPUT)
        }
        assert covered == interior

    def test_depth_budget_respected(self):
        dag = regularize_two_input(circuit_to_dag(random_circuit(8, depth=3, seed=2))[0])
        for max_depth in (1, 2, 3):
            blocks = decompose_blocks(dag, max_depth)
            assert all(b.depth <= max_depth for b in blocks)

    def test_deeper_budget_makes_fewer_blocks(self):
        dag = regularize_two_input(circuit_to_dag(random_circuit(8, depth=3, seed=3))[0])
        shallow = decompose_blocks(dag, 1)
        deep = decompose_blocks(dag, 4)
        assert len(deep) < len(shallow)

    def test_chain_blocks_are_sequential(self):
        dag = chain_dag(10)
        blocks = decompose_blocks(dag, 3)
        deps = block_dependencies(dag, blocks)
        # A chain decomposition must form a path in the dependency graph.
        assert sum(1 for d in deps.values() if d) >= len(blocks) - 1

    def test_topological_block_order_respects_deps(self):
        dag = regularize_two_input(circuit_to_dag(random_circuit(7, depth=3, seed=4))[0])
        blocks = decompose_blocks(dag, 2)
        ordered = topological_block_order(dag, blocks)
        position = {b.block_id: i for i, b in enumerate(ordered)}
        deps = block_dependencies(dag, blocks)
        for block in blocks:
            for dep in deps[block.block_id]:
                assert position[dep] < position[block.block_id]

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=0, max_value=100_000),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=3),
    )
    def test_property_dependencies_read_off_inputs_equal_the_node_walk(
        self, seed, leaves, ops, depth
    ):
        dag = random_two_input_dag(seed, leaves, ops)
        blocks = decompose_blocks(dag, depth)
        deps = block_dependencies(dag, blocks)
        assert deps == reference_block_dependencies(dag, blocks)
        placed = set()
        for block in topological_block_order(dag, blocks, deps):
            assert deps[block.block_id] <= placed
            placed.add(block.block_id)
        assert len(placed) == len(blocks)

    def test_invalid_depth_rejected(self):
        dag = chain_dag(3)
        with pytest.raises(ValueError):
            decompose_blocks(dag, 0)


class TestBankMapping:
    def test_coread_values_get_distinct_banks_when_possible(self):
        dag = regularize_two_input(circuit_to_dag(random_circuit(6, depth=2, seed=5))[0])
        blocks = decompose_blocks(dag, 3)
        assignment = map_operands_to_banks(dag, blocks, num_banks=64)
        assert assignment.conflicts == 0
        for block in blocks:
            assert issue_conflicts(assignment, block) == 0

    def test_few_banks_force_conflicts(self):
        dag = regularize_two_input(cnf_to_dag(random_ksat(12, 40, seed=6))[0])
        blocks = decompose_blocks(dag, 3)
        assignment = map_operands_to_banks(dag, blocks, num_banks=1)
        # With one bank, any block with 2+ inputs conflicts.
        multi = [b for b in blocks if len(set(b.inputs)) >= 2]
        if multi:
            assert sum(issue_conflicts(assignment, b) for b in multi) > 0

    def test_occupancy_is_balanced(self):
        dag = regularize_two_input(circuit_to_dag(random_circuit(8, depth=3, seed=7))[0])
        blocks = decompose_blocks(dag, 3)
        assignment = map_operands_to_banks(dag, blocks, num_banks=8)
        banks = list(assignment.bank_of.values())
        occupancy = [banks.count(bank) for bank in range(assignment.num_banks)]
        assert max(occupancy) - min(occupancy) <= max(2, len(assignment.bank_of) // 8)

    def test_zero_banks_rejected(self):
        with pytest.raises(ValueError):
            map_operands_to_banks(Dag(), [], 0)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=6),
            min_size=1,
            max_size=30,
        ),
        st.integers(min_value=1, max_value=8),
    )
    def test_property_heap_argmin_equals_the_bank_scan(self, groups, num_banks):
        # Outputs share the inputs' id range, so blocks read each other.
        blocks = [
            Block(i, [20 + i], group, 20 + i, depth=1) for i, group in enumerate(groups)
        ]
        assignment = map_operands_to_banks(Dag(), blocks, num_banks)
        assert (assignment.bank_of, assignment.conflicts) == reference_bank_mapping(
            blocks, num_banks
        )


class TestTreePlacement:
    def test_block_too_deep_rejected(self):
        dag = chain_dag(10)
        blocks = decompose_blocks(dag, 3)
        deep = next(b for b in blocks if b.depth == 3)
        with pytest.raises(ValueError):
            map_block_to_tree(dag, deep, tree_depth=2)

    def test_op_on_a_leaf_position_rejected(self):
        # A block that understates its depth walks an op onto the PE's
        # leaf row, where only operands may sit.
        dag = chain_dag(4)
        honest = decompose_blocks(dag, 4)[0]
        assert honest.depth == 4
        lying = Block(0, list(honest.nodes), list(honest.inputs), honest.output, depth=2)
        with pytest.raises(ValueError, match="leaf position"):
            map_block_to_tree(dag, lying, tree_depth=2)

    def test_spill_kernel_placements_equal_reference_walk(
        self, overflow_schedule, tiny_regfile
    ):
        program, _ = overflow_schedule
        depth = tiny_regfile.tree_depth
        assert assert_placements_match_reference(program.dag, depth) > 50
        # ... and they are what the scheduler put in the program.
        by_block = {b.block_id: b for b in decompose_blocks(program.dag, depth)}
        for instruction in program.instructions:
            if instruction.kind is InstructionKind.COMPUTE:
                configs, leaf_operands, _ = reference_placement(
                    program.dag, by_block[instruction.block_id], depth
                )
                assert instruction.tree_config == configs
                assert instruction.leaf_operands == leaf_operands

    @pytest.mark.parametrize("tree_depth", [2, 3, 4])
    def test_map_block_to_tree_equals_the_scheduled_placement_on_the_corpus(self, tree_depth):
        # The scheduler places every block up front and this entry point
        # one block at a time: both go through ``place_blocks``.
        config = ArchConfig(tree_depth=tree_depth)
        placed = 0
        for tiny in (True, False):
            for _, kernel, options in build_trace(tiny):
                program = ReasonSession(config=config).compile(kernel, **options).program
                if program is None:
                    continue
                by_id = {b.block_id: b for b in decompose_blocks(program.dag, tree_depth)}
                for instruction in program.instructions:
                    if instruction.kind is InstructionKind.COMPUTE:
                        block = by_id[instruction.block_id]
                        placement = map_block_to_tree(program.dag, block, tree_depth)
                        assert placement.configs == instruction.tree_config
                        assert list(placement.leaf_operands.items()) == list(
                            instruction.leaf_operands.items()
                        )
                        placed += 1
        assert placed > 1000

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(["circuit", "hmm", "cnf"]),
        st.integers(min_value=1, max_value=4),
    )
    def test_property_placements_equal_reference_walk(self, seed, family, tree_depth):
        if family == "circuit":
            dag, _ = circuit_to_dag(random_circuit(5, depth=2, seed=seed))
        elif family == "hmm":
            dag = hmm_to_dag(HMM.random(3, 3, seed=seed), [seed % 3, 1, 2, 0])
        else:
            dag, _ = cnf_to_dag(random_ksat(6, 14, seed=seed))
        assert_placements_match_reference(regularize_two_input(dag), tree_depth)

    def test_scheduled_placements_survive_pickling(self, overflow_schedule):
        # A program holds no config objects to share: its tree configs
        # are int columns, and a stored copy builds the same stream.
        program, _ = overflow_schedule
        restored = pickle.loads(pickle.dumps(program))
        assert restored.instructions == program.instructions
        assert restored.root_value == program.root_value

    def test_placement_configs_cover_block_ops(self):
        dag = regularize_two_input(circuit_to_dag(random_circuit(6, depth=2, seed=8))[0])
        blocks = decompose_blocks(dag, 3)
        for block in blocks:
            placement = map_block_to_tree(dag, block, 3)
            active = [c for c in placement.configs if c.op is not None]
            assert len(active) == block.num_ops

    def test_utilization_between_zero_and_one(self):
        dag = regularize_two_input(circuit_to_dag(random_circuit(6, depth=3, seed=9))[0])
        blocks = decompose_blocks(dag, 3)
        for block in blocks:
            placement = map_block_to_tree(dag, block, 3)
            assert 0.0 < placement.utilization <= 1.0


class TestScheduling:
    def test_program_has_compute_per_block(self):
        dag = regularize_two_input(circuit_to_dag(random_circuit(7, depth=3, seed=10))[0])
        program, stats = compile_dag(dag)
        computes = [i for i in program.instructions if i.kind is InstructionKind.COMPUTE]
        assert len(computes) == stats.num_blocks

    def test_dependent_chain_spaced_by_pipeline(self):
        dag = chain_dag(12)
        program, stats = compile_dag(dag)
        computes = [i for i in program.instructions if i.kind is InstructionKind.COMPUTE]
        # A serial chain cannot beat pipeline_stages per dependent block.
        config = DEFAULT_CONFIG
        assert stats.cycles >= (len(computes) - 1) * 1  # progress made
        issue_cycles = [i.issue_cycle for i in computes]
        assert issue_cycles == sorted(issue_cycles)

    def test_unpipelined_ablation_is_slower(self):
        dag = regularize_two_input(circuit_to_dag(random_circuit(8, depth=3, seed=11))[0])
        _, fast = compile_dag(dag, DEFAULT_CONFIG)
        _, slow = compile_dag(dag, DEFAULT_CONFIG.with_ablation(pipelined_scheduling=False))
        assert slow.cycles >= fast.cycles

    def test_register_pressure_triggers_spills(self):
        tiny = ArchConfig(num_banks=2, regs_per_bank=2)
        dag = regularize_two_input(circuit_to_dag(random_circuit(8, depth=3, seed=12))[0])
        program, stats = compile_dag(dag, tiny)
        assert stats.schedule.spills > 0

    def test_issue_efficiency_is_the_share_of_slots_not_spent_on_nops(
        self, overflow_schedule
    ):
        program, stats = overflow_schedule
        schedule = stats.schedule
        nops = sum(i.kind is InstructionKind.NOP for i in program.instructions)
        assert schedule.nops == nops > 0
        assert schedule.issue_efficiency == 1.0 - schedule.nops / schedule.pe_issue_slots
        assert 0.0 < schedule.issue_efficiency < 1.0
        assert ScheduleStats().issue_efficiency == 0.0

    def test_compile_regularizes_a_wide_dag_first(self):
        dag, _ = cnf_to_dag(random_ksat(5, 10, seed=13))
        assert not is_two_input(dag)
        program, _ = compile_dag(dag)
        assert is_two_input(program.dag)


class TestFunctionalEquivalence:
    def _run(self, dag):
        from repro.core.arch import ReasonAccelerator

        regular = regularize_two_input(dag)
        program, _ = compile_dag(regular)
        inputs = default_leaf_inputs(regular)
        report = ReasonAccelerator().run_program(program, inputs)
        expected = evaluate_dag(regular, inputs)[regular.root]
        return report.result, expected

    def test_circuit_program_matches_evaluator(self):
        for seed in range(4):
            dag, _ = circuit_to_dag(random_circuit(6, depth=3, seed=seed))
            result, expected = self._run(dag)
            assert result == pytest.approx(expected)

    def test_binary_tree_circuit_weights_survive(self):
        circuit = random_circuit(4, depth=2, sum_children=2, seed=20)
        assert all(len(node.children) <= 2 for node in circuit.plan().order)  # two-input
        dag, _ = circuit_to_dag(circuit)
        result, expected = self._run(dag)
        assert result == pytest.approx(expected)
        assert expected == pytest.approx(1.0)  # normalized circuit

    def test_hmm_program_matches_forward(self):
        from repro.hmm.inference import log_likelihood

        hmm = HMM.random(3, 4, seed=21)
        observations = [0, 2, 1, 3]
        dag = hmm_to_dag(hmm, observations)
        result, expected = self._run(dag)
        assert result == pytest.approx(expected)
        assert math.log(result) == pytest.approx(log_likelihood(hmm, observations))

    def test_logic_program_matches_evaluator(self):
        formula = random_ksat(6, 15, seed=22)
        dag, _ = cnf_to_dag(formula)
        regular = regularize_two_input(dag)
        program, _ = compile_dag(regular)
        from repro.core.arch import ReasonAccelerator

        assignment = {v: (v % 2 == 0) for v in range(1, 7)}
        plan = regular.plan()
        inputs = {
            node_id: float(assignment[abs(literal)] == (literal > 0))
            for node_id, (op, literal) in enumerate(zip(plan.ops, plan.payloads))
            if op is OpType.LITERAL
        }
        report = ReasonAccelerator().run_program(program, inputs)
        expected = evaluate_dag(regular, inputs)[regular.root]
        assert report.result == expected

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=1000))
    def test_property_program_equals_evaluator(self, seed):
        dag, _ = circuit_to_dag(random_circuit(5, depth=2, seed=seed))
        result, expected = self._run(dag)
        assert result == pytest.approx(expected)

    def test_smaller_tree_depth_still_correct(self):
        dag, _ = circuit_to_dag(random_circuit(6, depth=3, seed=23))
        regular = regularize_two_input(dag)
        from repro.core.arch import ReasonAccelerator

        for depth in (1, 2, 4):
            config = ArchConfig(tree_depth=depth)
            program, _ = compile_dag(regular, config)
            inputs = default_leaf_inputs(regular)
            report = ReasonAccelerator(config).run_program(program, inputs)
            expected = evaluate_dag(regular, inputs)[regular.root]
            assert report.result == pytest.approx(expected)
