"""The repo's one benchmark: five workloads, both clocks.

``python3 -m bench run`` measures the wall clock a user of
:class:`repro.ReasonSession` / :class:`repro.ReasonService` pays (set-up,
requests/s, request latency, peak memory) next to the modeled clock the
paper claims on (accelerator cycles and joules), on five fixed workloads
that each load a different layer.  ``--trace 1`` repeats a workload with
spans recorded around every public layer entry point and reports where
the request time went.  Every layer is measured from outside: nothing
under ``src/`` knows this package exists.

Metric and workload names are declared in ``BENCHMARK.json`` at the repo
root and explained in ``bench/README.md``.
"""

#: Version of the result-record layout written by ``bench run --out``.
SCHEMA_VERSION = 1
