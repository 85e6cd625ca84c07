"""A :class:`DiskStore` entry's version against what the compiler emits.

A cache key names the kernel, its options and the config, not the
compiler that built the artifact.  An entry written before a change to
the compiler's output would keep serving the old program, so every such
change bumps ``STORE_VERSION``, which is part of each entry's file name.
``RECORDED`` pairs that version with a digest of the corpus kernels'
programs, DAG columns and solver event codes: when the output changes,
the pin fails until the version is bumped and both are re-recorded
together.
"""

import hashlib
import pickle

from repro import ReasonSession
from repro.api.store import STORE_VERSION, DiskStore

from tests import corpus

#: (STORE_VERSION, ``compiled_output_digest()``), recorded together.
#: Version 2 is the first versioned format: it followed the change that
#: made a SUM's balanced reduction carry its child weights, which
#: changed every probabilistic program.
RECORDED = (2, "3895748c5a4235ef8992ad8038af30f18e4c315115babcde5585a601614b610c")

#: The corpus families whose entries are ``ReasonSession.run`` requests
#: (every family but the solver-keyword ``search`` one).
SERVED_FAMILIES = ("tiny", "full", "verifier", "small", "dag", "compiler")


def compiled_output_digest() -> str:
    """One digest over every served corpus kernel's compiled output
    under the default config: its program, its DAG's columns and its
    recorded solver event codes, whichever the artifact carries."""
    digest = hashlib.sha256()
    for family in SERVED_FAMILIES:
        for name, kernel, options in corpus.trace(family):
            artifact = ReasonSession().compile(kernel, **options)
            parts = [name]
            if artifact.program is not None:
                parts.append(corpus.program_digest(artifact.program))
            if artifact.dag is not None:
                columns = artifact.dag.columns()
                parts.append(repr((
                    [op.name for op in columns.ops], columns.children,
                    columns.payloads, columns.weights, columns.root,
                )))  # fmt: skip
            if artifact.solver is not None:
                trace = artifact.solver.trace
                parts.append(repr((trace.base, trace.codes)))
            digest.update(repr(parts).encode("utf-8"))
    return digest.hexdigest()


def test_the_store_version_moves_with_the_compiled_output():
    version, recorded = RECORDED
    observed = compiled_output_digest()
    assert version == STORE_VERSION, (
        f"STORE_VERSION is {STORE_VERSION} but RECORDED pins version {version}: "
        f"re-record RECORDED as ({STORE_VERSION}, {observed!r})"
    )
    assert observed == recorded, (
        f"the compiled output of the corpus kernels changed (digest {observed}): "
        f"bump the store version (repro.api.store.STORE_VERSION, now {STORE_VERSION}) "
        "so that no DiskStore serves programs of the old compiler, and re-record "
        "RECORDED with both"
    )


def test_the_version_is_in_every_entry_name(tmp_path):
    kernel, options = corpus.small("circuit")
    ReasonSession(store=DiskStore(tmp_path)).run(kernel, **options)
    (entry,) = tmp_path.iterdir()
    assert entry.name.endswith(f".v{STORE_VERSION}.artifact.pkl")


def test_an_entry_of_an_older_version_is_neither_served_nor_counted(tmp_path):
    """An entry the store wrote before it was versioned (named
    ``<key>.artifact.pkl``) holding a program of the old compiler is a
    plain miss: the kernel compiles afresh and the new entry sits next
    to the old one."""
    kernel, options = corpus.small("circuit")
    session = ReasonSession()
    fresh = session.run(kernel, **options)
    key = corpus.key(kernel, **options)
    stale = session.artifact_for(key)
    stale.program = None  # what the old compiler left is not what runs now
    (tmp_path / f"{key}.artifact.pkl").write_bytes(pickle.dumps(stale))
    store = DiskStore(tmp_path)
    assert store.get(key) is None and len(store) == 0 and store.corrupt_misses == 0
    reader = ReasonSession(store=store)
    report = reader.run(kernel, **options)
    assert not report.cache_hit and reader.prepare_calls == 1
    assert report.identity() == fresh.identity()
    assert len(store) == 1 and len(list(tmp_path.iterdir())) == 2
