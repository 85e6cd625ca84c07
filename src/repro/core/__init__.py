"""REASON core: the paper's primary contribution.

Subpackages:

* :mod:`repro.core.dag` — Stage 1-3 algorithm optimizations: the unified
  DAG representation, adaptive pruning, and two-input regularization.
* :mod:`repro.core.compiler` — the four-step DAG→hardware compiler
  (block decomposition, PE/register mapping, tree mapping, reordering).
* :mod:`repro.core.arch` — the reconfigurable tree-PE accelerator model
  (cycle/energy simulation, the watched-literals cost table,
  interconnect topologies).
* :mod:`repro.core.system` — GPU integration: the two-level execution
  pipeline, end-to-end latency models and shard-makespan composition.
"""
