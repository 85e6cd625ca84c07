"""A cached CNF artifact keeps the recorded trace, not the dead search.

``CompiledArtifact.solver`` lives as long as the artifact is cached and
is what ``DiskStore`` / the shared store pickle.  After ``solve`` has
returned nothing reads the watch lists, the learned-clause database or
the level / reason arrays, so the solver releases them; the trace is one
int per event.  The pinned refutation (the corpus's ``cnf/php-5``: 2,652
events, 165 learned clauses)
pickled to 142,899 bytes at 73eedf6 and to 9,396 with this file's
arrival.
"""

import pickle

from repro.api import DiskStore, ReasonSession
from repro.logic.generators import pigeonhole

PICKLE_BOUND = 16_000  # bytes; an order of magnitude under the parent's


def test_artifact_pickles_the_trace_without_the_search_state():
    artifact = ReasonSession().compile(pigeonhole(5))
    solver = artifact.solver
    assert len(solver.trace) == 2652 and solver.stats.learned_clauses == 165
    # Released: every per-search structure is back to its empty state.
    fresh = type(solver)()
    for name, value in vars(fresh).items():
        if name.startswith("_"):
            assert getattr(solver, name) == value, name
    assert len(pickle.dumps(artifact)) < PICKLE_BOUND
    # A released solver solves again.
    again = type(solver)(record_trace=True)
    again.solve(artifact.model)
    again.solve(artifact.model)
    assert list(again.trace) == list(solver.trace) and again.stats == solver.stats


def test_disk_round_tripped_artifact_replays_identically(tmp_path):
    kernel = pigeonhole(5)
    session = ReasonSession(store=DiskStore(tmp_path))
    report = session.run(kernel)
    traced = session.run(kernel, trace=True)
    assert not report.cache_hit and traced.executed

    restarted = ReasonSession(store=DiskStore(tmp_path))
    untraced_again = restarted.run(kernel)
    traced_again = restarted.run(kernel, trace=True)
    assert untraced_again.cache_hit and restarted.prepare_calls == 0
    assert traced_again.executed  # a traced request walks the stored stream
    assert untraced_again.identity() == report.identity()
    assert traced_again.identity() == report.identity()
    assert traced_again.extras["trace_data"] == traced.extras["trace_data"]
