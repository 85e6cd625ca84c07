"""Whole-program pins beyond the default config.

``RECORDED_PROGRAMS`` in ``tests/api/test_report_identity.py`` pins the
VLIW stream of every trace kernel of the corpus under ``DEFAULT_CONFIG``, where no
bank overflows and no block is cut short by a shallow tree.  These
digests pin two of those kernels under the configs the compiler
branches on: a shallower and a deeper PE tree (block decomposition and
placement), a register file small enough to spill, reload and conflict
(bank mapping and the spill path), and unpipelined issue (the drain
gate).  They were recorded at b437139, before the compiler read its DAG
through ``Dag.plan()``; a front-end change that keeps the compiler's
output must pass them unedited.  They were re-recorded when a SUM's
balanced reduction began carrying its children's weights (no one-child
SUM per weighted child): the programs shrank, and every answer stayed
bit-identical.
"""

import pytest

from repro import ReasonSession

from tests import corpus

#: (corpus entry, corpus config) -> ``corpus.program_digest``.
PINNED = {
    ("circuit/rand-10", "tree-depth-2"): "6c5f780a811b4da88c46c3ffd9f533183b942fa749ae7e57928a93e25b5f488e",
    ("hmm/rand-12", "tree-depth-2"): "50b2c461881f3521198fe8e8b94a6f2fd7c4fec5a11ab699cf7f4c83dc6e8874",
    ("circuit/rand-10", "tree-depth-4"): "521b9588b4280cf9e66bf31f615972197b636c5cc2ea2e2ab55f708192b5b2a7",
    ("hmm/rand-12", "tree-depth-4"): "706019a36bb4216ca922615a4bb8a0e2d86422537cf0fb1dac3615af6c77ec10",
    ("circuit/rand-10", "4-banks-x-4-regs"): "cff7bdcecb2e7fd9b007009a1b842fcc67248dce856d84beb154014856b0a696",
    ("hmm/rand-12", "4-banks-x-4-regs"): "491648c3ffbf760853675095c95698d1c139c16fb3eb189432eec848b63e8700",
    ("circuit/rand-10", "unpipelined"): "8a285426ed6eb1a5e35331af7da2062b90c343f85d142ddea8398b9c381877dc",
    ("hmm/rand-12", "unpipelined"): "960bdc8f65ffa3858ea679146e9a362106591af0dd76d692658ccbed20bc4704",
}


@pytest.mark.parametrize("kernel_name, config_name", PINNED)
def test_program_matches_pinned_digest(kernel_name, config_name):
    kernel, options = corpus.build(kernel_name)
    artifact = ReasonSession(config=corpus.config(config_name)).compile(kernel, **options)
    assert corpus.program_digest(artifact.program) == PINNED[kernel_name, config_name]
    if config_name == "4-banks-x-4-regs":
        # The pin covers the overflow paths only if they run.
        stats = artifact.compile_stats
        assert stats.schedule.spills > 0
        assert stats.schedule.reloads > 0
        assert stats.bank_conflicts_static > 0
