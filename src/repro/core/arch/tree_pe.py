"""Reconfigurable tree PE: mode and cycle model (paper Sec. V-B).

One PE is a complete binary tree of nodes whose datapaths reconfigure
per VLIW instruction between two modes: PROBABILISTIC (sum/product
aggregation) and SYMBOLIC (comparator/adder BCP datapath).  What one
issue computes — a placed block evaluated bottom-up — is the value pass
of :meth:`~repro.core.arch.accelerator.ReasonAccelerator.run_program`.
The cycle cost of one issue is the pipeline depth, with per-level
throughput of one block per cycle once the pipeline is full.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.core.arch.config import ArchConfig


class PEMode(enum.Enum):
    PROBABILISTIC = "probabilistic"
    SYMBOLIC = "symbolic"


class TreePE:
    """One tree engine; stateless between instructions except its mode."""

    def __init__(self, config: ArchConfig):
        self.config = config
        self._mode: Optional[PEMode] = None

    def set_mode(self, mode: PEMode) -> None:
        """Reconfigure the datapath (free when already in the mode).

        With ``config.reconfigurable`` off, the ablation models a fixed-
        function array: mode switches require a pipeline drain charged
        by the accelerator as extra cycles (see ``mode_switch_penalty``).
        """
        self._mode = mode

    @property
    def mode(self) -> Optional[PEMode]:
        return self._mode

    def mode_switch_penalty(self) -> int:
        """Extra cycles per switch when reconfiguration is disabled."""
        return 0 if self.config.reconfigurable else self.config.pipeline_stages * 4
