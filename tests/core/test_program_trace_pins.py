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
how the stream is produced must pass them unedited.  Those of
``circuit/rand-10`` and ``hmm/rand-12`` were re-recorded when a SUM's
balanced reduction began carrying its children's weights, which shrank
their programs.
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
    ("circuit/rand-10", "default"): "0176d1d5a11206bcdcd72702d02dbbb072f1af1f5b3474ae5a28ee0bc7c00c7c",
    ("hmm/rand-12", "default"): "c00b8fc983204527da337941c98e9979fe5a02d446aad6a8daa90f31025fb5e9",
    ("circuit/rand-6", "unpipelined"): "3ce37a7c3707403d16d7e928de09dc008185460edecdaf243df5a848a4e6d75b",
    ("circuit/rand-10", "unpipelined"): "4e090171039c110f081ca0aba6aa0aa1733e2b703e8649bce9e48abb1fb64d04",
    ("hmm/rand-12", "unpipelined"): "cef8aedae4af3de42de20a6e50067b2515eb623abe3daf41aa66509b31829b54",
    ("circuit/rand-6", "fixed-function"): "b4765449a948d321108e591249b7898e6757a1cff538beefdf1adf699d7ac3cc",
    ("circuit/rand-10", "fixed-function"): "884039652e64cb1df5b5dc9bc81d12d17eb62209052969b58908a62dc7b8cff1",
    ("hmm/rand-12", "fixed-function"): "2854bebc983a3dc5b6f226f2db7ebbe3b3d88aa178beff2a1fb972cf5d2ba0ac",
    ("circuit/rand-6", "4-banks-x-4-regs"): "ff1a80a40c25ac29a4a30c2d145703a5c94b73292b392b5662662cf5056e9bf3",
    ("circuit/rand-10", "4-banks-x-4-regs"): "488d646646bc185f43271feeb8c6cd40ed3f82deecb79bcd5179e47dff78ba54",
    ("hmm/rand-12", "4-banks-x-4-regs"): "f74c7263973dccbd5f87894f83c602c3b3efedfbb89784176611f4d029d15a3a",
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
