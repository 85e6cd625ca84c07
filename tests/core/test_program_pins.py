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
output must pass them unedited.
"""

import pytest

from repro import ReasonSession

from tests import corpus

#: (corpus entry, corpus config) -> ``corpus.program_digest``.
PINNED = {
    ("circuit/rand-10", "tree-depth-2"): "cd050204caab8e530bb9e3024142420b4921432c50370d27e28f1f26bf0cfde2",
    ("hmm/rand-12", "tree-depth-2"): "b39aa6cf63663b7217e2ffb1f5611c56dabd56a45ce88adbb49a0d1bd3db4c0a",
    ("circuit/rand-10", "tree-depth-4"): "fe28800eca6a2471f87246e9bb018b84c2310922ad68e2aad307157ca191c6a3",
    ("hmm/rand-12", "tree-depth-4"): "68143067dff61b05eddc1b88603889bfd79086a2138ba233ab3240ad248dd483",
    ("circuit/rand-10", "4-banks-x-4-regs"): "87ab5f7a2c8336c0a1e394f2b333792f29b3715464545e250d17fcd1e3a855eb",
    ("hmm/rand-12", "4-banks-x-4-regs"): "1b9bd59d570098c7ecec988ee2c10b47481c7a894c80f9213d1c9fdddc9a0446",
    ("circuit/rand-10", "unpipelined"): "07581cc74d23de126953733f5b3fe390e817a9a5c81bcc4a7fb9f4fd288377c5",
    ("hmm/rand-12", "unpipelined"): "e69e9dd8340bf681b0f2042eed7a312c49ff1fcb852bb407294b38f2efe8a38d",
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
