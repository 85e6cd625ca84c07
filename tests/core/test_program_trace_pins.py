"""The traced event stream of ``run_program``, pinned.

``RECORDED_TRACES`` in ``tests/api/test_report_identity.py`` pins the
symbolic replay's stream only.  These digests pin what a VLIW program
emits — PHASE, every COMPUTE / LOAD / STORE / SPILL / RELOAD / NOP issue,
each PE_BLOCK with its op and forward counts, RUN_END — for three
corpus kernels under the default config and under each config that
changes the stream: unpipelined issue (drain NOPs), a fixed-function
array (the mode-switch penalty in RUN_END's cycle) and a 4×4 register
file (SPILL / RELOAD events).  They were recorded at a49342a, before
``run_program`` counted its costs instead of walking them; a change to
how the stream is produced must pass them unedited.
"""

import hashlib

import pytest

from repro import ReasonSession
from repro.trace import TraceReader

from tests import corpus

#: (corpus entry, corpus config) -> sha256 of
#: ``session.run(kernel, trace=True, **options).extras["trace_data"]``.
PINNED = {
    ("circuit/rand-6", "default"): "3ce37a7c3707403d16d7e928de09dc008185460edecdaf243df5a848a4e6d75b",
    ("circuit/rand-10", "default"): "816439f4f4c438abb54eebb48b6b986fe518d4e3262294f1b7a6058a663b0a05",
    ("hmm/rand-12", "default"): "1c6824165aa8b2544e5ab0c7d89660b8288e60ca40cb17ea4e367d771eafa82e",
    ("circuit/rand-6", "unpipelined"): "3ce37a7c3707403d16d7e928de09dc008185460edecdaf243df5a848a4e6d75b",
    ("circuit/rand-10", "unpipelined"): "2f46bcab88c5755c7b09ea478a317a22c846e1c6e983ff4b2512e207023529c8",
    ("hmm/rand-12", "unpipelined"): "db77dc24344d4ec66f16cbee01cef843ec107e8421319b818a1c5cb0438d8e3d",
    ("circuit/rand-6", "fixed-function"): "b4765449a948d321108e591249b7898e6757a1cff538beefdf1adf699d7ac3cc",
    ("circuit/rand-10", "fixed-function"): "3affe7dade01799fb67a70defac431bdb7e827c9e6c63a64f368c52b69e2fbbd",
    ("hmm/rand-12", "fixed-function"): "b0a3abd0437736c5ea3d25a1219965db729d93f34958d879031c450610e91722",
    ("circuit/rand-6", "4-banks-x-4-regs"): "ff1a80a40c25ac29a4a30c2d145703a5c94b73292b392b5662662cf5056e9bf3",
    ("circuit/rand-10", "4-banks-x-4-regs"): "9e70eb80a1cb38b8ce2b250ce6a58b411c3ff72b52a56968d88ed9e1ace69ab6",
    ("hmm/rand-12", "4-banks-x-4-regs"): "ca76bd9f2a99ddea02d80714dedb3247b1ed045ee9061fa854f5ae80d1dceea2",
}

#: Kernels whose 4×4 stream carries SPILL and RELOAD events.
SPILLING = ("circuit/rand-10", "hmm/rand-12")


@pytest.mark.parametrize("kernel_name, config_name", PINNED)
def test_program_trace_matches_pinned_digest(kernel_name, config_name):
    kernel, options = corpus.build(kernel_name)
    session = ReasonSession(config=corpus.config(config_name))
    data = session.run(kernel, trace=True, **options).extras["trace_data"]
    assert hashlib.sha256(data).hexdigest() == PINNED[kernel_name, config_name]
    if config_name == "4-banks-x-4-regs" and kernel_name in SPILLING:
        # The pin covers the spill paths only if they run.
        counts = TraceReader(data).validate().counts
        assert counts["SPILL"] > 0 and counts["RELOAD"] > 0
