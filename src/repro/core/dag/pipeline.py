"""The complete Stage 1→2→3 algorithm-optimization pipeline.

`optimize` is the offline flow the paper describes at the end of
Sec. IV-C: construct the unified DAG, prune adaptively, regularize to
two-input form, and report memory savings — the artifact handed to the
compiler for binary generation.  A pruned circuit or HMM is rewritten
into two-input form from its n-ary DAG's columns — a circuit's are its
parent's with the dropped edges filtered out — and counted on them, so
that DAG is never planned (and, for a circuit, never built).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.core.dag.builders import (
    circuit_dag_footprint,
    cnf_dag_footprint,
    hmm_dag_footprint,
    hmm_to_dag,
)
from repro.core.dag.graph import Dag
from repro.core.dag.pruning import (
    prune_circuit_columns,
    prune_hmm_by_posterior,
    prune_logic_dag,
)
from repro.core.dag.regularize import regularize_two_input, two_input
from repro.hmm.model import HMM
from repro.logic.cnf import CNF
from repro.pc.circuit import Circuit


@dataclass
class OptimizationResult:
    """Output of the three-stage pipeline.

    ``dag`` is the pruned, two-input unified DAG that :func:`optimize`
    builds.  It is ``None`` on the artifact of a CNF served through
    :class:`~repro.api.adapters.CnfAdapter`: a logic request is pruned
    on the implication graph and replayed from the solver trace, so the
    serving path counts the two footprints and builds no DAG; call
    :func:`optimize` (or ``cnf_to_dag``) for one.
    """

    dag: Optional[Dag]
    memory_before: int
    memory_after: int
    stage_report: object = None
    pruned_model: object = None  # pruned CNF / Circuit / HMM

    @property
    def memory_reduction(self) -> float:
        """Fraction of the unified DAG's footprint removed (Table IV's
        "Memory↓" column)."""
        if self.memory_before == 0:
            return 0.0
        return 1.0 - self.memory_after / self.memory_before


def optimize(
    kernel: Union[CNF, Circuit, HMM],
    calibration: Optional[Sequence] = None,
    keep_fraction: float = 0.8,
) -> OptimizationResult:
    """Run unification → adaptive pruning → two-input regularization.

    ``calibration`` supplies the data the pruning stage needs for
    probabilistic kernels: a list of evidence dicts for circuits, a list
    of observation sequences for HMMs (for HMMs the first calibration
    sequence also defines the unroll length).  Logic kernels prune
    exactly and need no calibration.  ``keep_fraction`` is the share of
    probabilistic structure pruning keeps: both families reject a value
    outside (0, 1] here.
    """
    if isinstance(kernel, CNF):
        memory_before = cnf_dag_footprint(kernel)
        pruned_dag, pruned_cnf, report = prune_logic_dag(kernel)
        final = regularize_two_input(pruned_dag)
        return OptimizationResult(
            final, memory_before, pruned_dag.memory_footprint(), report, pruned_cnf
        )

    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError("keep_fraction must lie in (0, 1]")

    if isinstance(kernel, Circuit):
        if not calibration:
            raise ValueError("circuit pruning needs calibration evidence")
        memory_before = circuit_dag_footprint(kernel)
        pruned_circuit, report, columns = prune_circuit_columns(
            kernel, list(calibration), keep_fraction
        )
        reach = columns.reachable()
        report.nodes_after, report.edges_after = len(reach.order), reach.edges
        return OptimizationResult(
            two_input(columns, reach.order), memory_before, reach.footprint, report, pruned_circuit
        )

    if isinstance(kernel, HMM):
        if not calibration:
            raise ValueError("HMM pruning needs calibration sequences")
        sequences = [list(s) for s in calibration]
        memory_before = hmm_dag_footprint(kernel, len(sequences[0]))
        pruned_hmm, report = prune_hmm_by_posterior(
            hmm=kernel,
            calibration_sequences=sequences,
            threshold_quantile=1.0 - keep_fraction,
        )
        columns = hmm_to_dag(pruned_hmm, sequences[0], prune_transition_below=0.0).columns()
        reach = columns.reachable()
        return OptimizationResult(
            two_input(columns, reach.order), memory_before, reach.footprint, report, pruned_hmm
        )

    raise TypeError(f"unsupported kernel type: {type(kernel).__name__}")
