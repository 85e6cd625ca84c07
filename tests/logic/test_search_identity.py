"""Search identity: the CDCL search itself is pinned, not just the
reports built from it.

``RECORDED`` keys into the corpus's ``search`` family.  It was taken at
73eedf6, before the solver's inner loops moved to index-space clause
lists and the trace to one int per event (the ``graph-php-7x5/*/...``
and ``wide`` entries at 62134df, before BCP's watcher loop was
tightened): for every entry the verdict, all nine :class:`CDCLStats` fields and a
sha256 of the decoded ``(kind, literal, level)`` event stream.  A faster
solver may change how a search is *run*; one different decision,
implication order, watch move or clause fetch fails here, naming the
formula.  ``clause_size`` is left out of the digest on purpose: only a
``learn`` event's is read anywhere (``LEARN`` in the traced replay,
pinned by ``RECORDED_TRACES``), and an ``imply`` event no longer stores
one.

Re-record (after a *deliberate* change to the search) with
``PYTHONPATH=src:. python tests/logic/test_search_identity.py``.
"""

import dataclasses
import hashlib

import pytest

from repro.logic.cdcl import CDCLSolver, SolveResult, TraceEvent

from tests import corpus


#: name -> (verdict, CDCLStats as a tuple, events, sha256 of the stream).
RECORDED = {
    "colouring-20": (
        "sat", (10, 84, 2, 2, 6, 0, 8, 226, 0), 100,
        "799453651dac56d9f6a1390a6915b445bf85787862a90fb577972d5bb7c7c4de",
    ),
    "graph-php-6x5": (
        "unsat", (245, 3198, 234, 233, 1731, 2, 5, 19098, 0), 4147,
        "562758cfbad5cacedb6cb7446e084128cc314dc683ddee3e3e9f80290992ff90",
    ),
    "graph-php-7x5/a": (
        "unsat", (358, 5058, 333, 332, 2615, 2, 5, 31177, 0), 6416,
        "b83f7dc68f4d558ad62f726293a90119b3b7040ab7f803f9830f15b49f0a4bea",
    ),
    "graph-php-7x5/a/reduce-db": (
        "unsat", (399, 5595, 379, 378, 2856, 0, 5, 11934, 344), 7129,
        "74c43aadedb6373e428c35b00042029270224e33951ac953b478803acc2cd073",
    ),
    "graph-php-7x5/b": (
        "unsat", (605, 8559, 570, 569, 5035, 4, 5, 76969, 0), 10880,
        "928740bdeea44d725cc3ce644002f7bf5c0dc154887228aef0804dcf1e905811",
    ),
    "graph-php-7x5/b/restarts": (
        "unsat", (684, 8488, 581, 580, 5534, 46, 5, 79430, 0), 11004,
        "e71da1c889fa288368671a6a5c176ab0cab7366003a39fba474418475073a527",
    ),
    "ksat-120": (
        "unsat", (1569, 42556, 1309, 1308, 12313, 8, 19, 278317, 0), 48065,
        "a11bc11ca07f82f8416ebe7467e4f6a8018335c86d6ef893882f55c751a59fb7",
    ),
    "ksat-40": (
        "sat", (16, 75, 4, 4, 13, 0, 8, 333, 0), 103,
        "4266ffcf55c17033dc05219e9dd3770ef7a292cef18cd45c2e7db0af9457cec2",
    ),
    "ksat-60x250": (
        "unsat", (111, 1838, 98, 97, 481, 0, 9, 7063, 0), 2241,
        "319adcc88ea06414e2ca9924349544c4c5925f31f1b7cacc287e572a3ce7ca4c",
    ),
    "php-5": (
        "unsat", (167, 1988, 166, 165, 1018, 1, 4, 8880, 0), 2652,
        "e070fa4dec44dddd89aeaaa1ff6a82648b4c1a40e445707464ad29f115455b8b",
    ),
    "php-5/reduce-db": (
        "unsat", (183, 2279, 183, 182, 1126, 0, 4, 4793, 150), 3009,
        "d421fcd9741223cdb3bf4cbd06e6382fc7c2b6cafa239412f1d626ea42f15cd1",
    ),
    "php-5/restarts": (
        "unsat", (197, 2116, 174, 173, 1068, 16, 4, 9207, 0), 2864,
        "02120301ebd201ce0cee811b811b39c1eaabc809b0115c52886a9e8434f6016f",
    ),
    "planted-80": (
        "sat", (113, 1338, 62, 62, 440, 0, 20, 5291, 0), 1637,
        "2fdb113da924c07c8839ad335586b63be7d298d57e393bfac03e336f71f0b512",
    ),
    "redundant-100": (
        "sat", (13, 97, 1, 1, 1, 0, 11, 413, 0), 113,
        "e786c8b99f08f744c2f7acb6a1dbde6557b65a2dcaf0a8fa0b63233288ac44ba",
    ),
    "redundant-100/pruned": (
        "sat", (11, 48, 0, 0, 0, 0, 11, 117, 0), 59,
        "8503d114e75855c02cc02761c8707f927201e4e6ee28c210924e8e4882c2615a",
    ),
    "wide": (
        "unsat", (446, 4211, 415, 414, 2958, 3, 10, 113833, 0), 5905,
        "de2676d907765daff0086ce9026c62676fe6e01c7426bbaebf2db94ac37ef24d",
    ),
}


def stream_digest(trace) -> str:
    rows = [(event.kind, event.literal, event.level) for event in trace]
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()


def search(name, record_trace=True):
    formula, options = corpus.build(name)
    solver = CDCLSolver(record_trace=record_trace, **options["solver"])
    verdict, model = solver.solve(formula)
    if verdict is SolveResult.SAT:
        assert formula.is_satisfied_by(model)
    return verdict, solver


def observed(name):
    verdict, solver = search(name)
    return (
        verdict.value,
        dataclasses.astuple(solver.stats),
        len(solver.trace),
        stream_digest(solver.trace),
    )


@pytest.mark.parametrize("name", sorted(corpus.FAMILIES["search"]))
def test_search_matches_the_recorded_one(name):
    assert observed(name) == RECORDED[name]


def test_the_corpus_reaches_every_branch_of_the_search():
    fields = [field.name for field in dataclasses.fields(CDCLSolver().stats)]
    stats = {name: dict(zip(fields, RECORDED[name][1])) for name in RECORDED}
    assert stats["php-5/reduce-db"]["deleted_clauses"] > 0
    assert stats["php-5/restarts"]["restarts"] > 0
    assert stats["graph-php-7x5/a/reduce-db"]["deleted_clauses"] > 0
    assert stats["graph-php-7x5/b/restarts"]["restarts"] > 0
    assert stats["wide"]["conflicts"] > 0 and stats["wide"]["restarts"] > 0
    assert stats["ksat-120"]["max_decision_level"] > stats["ksat-120"]["restarts"] > 1
    assert {RECORDED[name][0] for name in RECORDED} == {"sat", "unsat"}


@pytest.mark.parametrize("name", sorted(corpus.FAMILIES["search"]))
def test_untraced_search_is_the_same_search(name):
    _, solver = search(name, record_trace=False)
    assert dataclasses.astuple(solver.stats) == RECORDED[name][1]
    assert len(solver.trace) == 0 and not solver.trace and list(solver.trace) == []


def test_trace_is_a_sequence_of_trace_events():
    """What ``bench/staged.py``, the traced replay and the histogram
    oracle of ``tests/core/test_arch.py`` rely on."""
    _, solver = search("php-5")
    trace = solver.trace
    assert trace and len(trace) == RECORDED["php-5"][2]
    first, second = list(trace), list(trace)  # two independent iterations
    assert len(first) == len(trace) and first == second
    assert all(type(event) is TraceEvent for event in first)
    kinds = {event.kind for event in first}
    assert kinds == {"decide", "imply", "conflict", "learn", "backjump", "restart"}
    assert all(event.clause_size >= 1 for event in first if event.kind == "learn")
    walker = iter(trace)
    next(walker)
    assert len(list(trace)) == len(first)  # a started iteration does not consume the trace


if __name__ == "__main__":
    print("RECORDED = {")
    for entry in sorted(corpus.FAMILIES["search"]):
        print(f"    {entry!r}: {observed(entry)!r},")
    print("}")
