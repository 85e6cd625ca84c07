"""The six neuro-symbolic workloads of the paper's evaluation (Table I).

Each workload couples a neural stage (an analytical transformer/DNN cost
model — the substitute for the closed LLMs the paper drives) with a real
symbolic/probabilistic stage executed on this repository's substrates:

* :class:`AlphaGeometryWorkload` — math theorem proving: LLM proposal +
  forward-chaining deduction + SAT certificates (IMO / MiniF2F tasks);
* :class:`R2GuardWorkload` — safety classification: LLM features + PC
  rule circuit (TwinSafety / XSTest);
* :class:`GeLaToWorkload` — constrained generation: HMM × DFA product
  decoding (CommonGen / News);
* :class:`CtrlGWorkload` — interactive text infilling under constraints
  (CoAuthor);
* :class:`NeuroPCWorkload` — interpretable attribute classification via
  PCs (AwA2);
* :class:`LINCWorkload` — FOL logical reasoning by resolution
  (FOLIO / ProofWriter).
"""

from repro.workloads.base import (
    NeuroSymbolicWorkload,
    TaskInstance,
    WorkloadResult,
    TASK_TO_WORKLOAD,
)
from repro.workloads.neural import TransformerCostModel, MODEL_ZOO
from repro.workloads.alphageometry import AlphaGeometryWorkload
from repro.workloads.r2guard import R2GuardWorkload
from repro.workloads.gelato import GeLaToWorkload
from repro.workloads.ctrlg import CtrlGWorkload
from repro.workloads.neuropc import NeuroPCWorkload
from repro.workloads.linc import LINCWorkload


def all_workloads():
    """The six evaluation workloads with default parameters."""
    return [
        AlphaGeometryWorkload(),
        R2GuardWorkload(),
        GeLaToWorkload(),
        CtrlGWorkload(),
        NeuroPCWorkload(),
        LINCWorkload(),
    ]


__all__ = [
    "NeuroSymbolicWorkload",
    "TaskInstance",
    "WorkloadResult",
    "TASK_TO_WORKLOAD",
    "TransformerCostModel",
    "MODEL_ZOO",
    "AlphaGeometryWorkload",
    "R2GuardWorkload",
    "GeLaToWorkload",
    "CtrlGWorkload",
    "NeuroPCWorkload",
    "LINCWorkload",
    "all_workloads",
]
