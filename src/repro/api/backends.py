"""Execution backends: one kernel artifact, many substrates.

A :class:`Backend` consumes a :class:`~repro.api.types.CompiledArtifact`
and returns the shared :class:`~repro.api.types.ExecutionReport`, so
results and costs are directly comparable across:

* ``reason``   — the cycle-level REASON accelerator model (functional);
* ``software`` — the reference CDCL / exact-inference implementations
  (functional ground truth, wall-clock timed);
* ``gpu`` / ``cpu`` — roofline-derated device cost models (analytic);
* ``roofline`` — the ``gpu`` device's cost, plus its roofline point
  and memory-bound diagnosis.

Backends register by name in a module-level registry that holds one
instance per name: a backend keeps no per-run state, so every session
runs the registered instance.  Adding a new substrate is one
``register_backend(name, instance)`` call.
"""

from __future__ import annotations

import abc
import time
from typing import Dict, List, Optional

from repro.api.adapters import DEFAULT_OPTIONS, RunOptions, adapter_for
from repro.api.types import CompiledArtifact, ExecutionReport, ExecutionSummary
from repro.baselines.device import DeviceModel, RTX_A6000, XEON_CPU
from repro.baselines.roofline import roofline_point
from repro.core.arch.accelerator import ReasonAccelerator
from repro.core.arch.config import ArchConfig, DEFAULT_CONFIG
from repro.core.arch.tree_pe import PEMode
from repro.core.dag.graph import default_leaf_inputs
from repro.logic.cdcl import SolveResult


class Backend(abc.ABC):
    """One execution substrate for compiled kernel artifacts.

    A backend keeps no per-run state: the registry holds one instance
    per name and every session, thread and shard runs that instance, so
    a re-registration reaches all of them at once.
    """

    name: str = ""

    @abc.abstractmethod
    def run(
        self,
        artifact: CompiledArtifact,
        config: ArchConfig = DEFAULT_CONFIG,
        queries: int = 1,
        options: Optional[RunOptions] = None,
    ) -> ExecutionReport:
        """Execute the artifact ``queries`` times; report result + cost."""


def _trace_writer_for(spec):
    """The run's own writer for a ``RunOptions.trace`` that turns
    tracing on: an in-memory writer for ``True``, a file writer for a
    path.  The caller reads ``None`` / ``False`` (off) itself."""
    from repro.trace.writer import TraceWriter

    return TraceWriter(None if spec is True else spec)


def _finish_trace(report, writer) -> None:
    """Close the run's writer and publish its summary in the report."""
    summary = writer.close()
    info = {
        "events": summary.events,
        "bytes": summary.bytes,
        "bytes_per_event": summary.bytes_per_event,
    }
    if summary.path is not None:
        info["path"] = summary.path
    else:
        report.extras["trace_data"] = writer.getvalue()
    report.extras["trace"] = info


class ReasonBackend(Backend):
    """The REASON accelerator model: functional execution with cycle,
    energy and utilization accounting.

    The model runs once per artifact.  A plain run is a pure function
    of ``(artifact, config)``, so its :class:`ExecutionSummary` is kept
    on the artifact and every later request for it is a *report* over
    that summary, scaled by ``queries``.  Traced runs (``trace=``) and
    a ``config`` other than the stored one always execute, on a fresh
    chip instance so energy counters never leak across runs.
    """

    name = "reason"

    def run(self, artifact, config=DEFAULT_CONFIG, queries=1, options=None):
        spec = (options or DEFAULT_OPTIONS).trace
        writer = None if spec is None or spec is False else _trace_writer_for(spec)
        summary = artifact.execution
        # Identity first: the dataclass __eq__ builds two tuples of
        # every field, and a warm request passes the very config its
        # summary was made under.
        executed = writer is not None or summary is None or (
            summary.config is not config and summary.config != config
        )
        if executed:
            try:
                summary = self._execute(artifact, config, writer)
            except BaseException:
                if writer is not None:
                    writer.discard()  # no half-written temp file left behind
                raise
            # Racing first runs store equal summaries: last writer wins.
            artifact.execution = summary
        report = self._report(summary, artifact.kind, queries, executed)
        if writer is not None:
            _finish_trace(report, writer)
        return report

    def _execute(self, artifact, config, writer):
        """Run the accelerator model once; returns the per-query
        summary."""
        accelerator = ReasonAccelerator(config)
        if writer is not None:
            accelerator.attach_trace(writer)
        if artifact.solver is not None:  # logic kernel: replay cached trace
            trace, _ = accelerator.run_symbolic_trace(artifact.model, artifact.solver)
            energy = accelerator.energy
            verdict = artifact.extras.get("verdict")
            return ExecutionSummary(
                config=config,
                result=1.0 if verdict is SolveResult.SAT else 0.0,
                cycles=max(trace.cycles, 1),
                energy_j=energy.total_energy_j(),
                static_power_w=energy.static_power_w(),
                power_w=None,
                utilization=0.0,
                extras=(
                    ("verdict", verdict.name if verdict is not None else None),
                    ("decisions", trace.decisions),
                    ("implications", trace.implications),
                    ("conflicts", trace.conflicts),
                ),
            )

        hw = accelerator.run_program(
            artifact.program,
            default_leaf_inputs(artifact.program.dag),
            mode=PEMode.PROBABILISTIC,
        )
        return ExecutionSummary(
            config=config,
            result=hw.result,
            cycles=max(hw.cycles, 1),
            energy_j=hw.energy_j,
            static_power_w=accelerator.energy.static_power_w(),
            power_w=hw.power_w,
            utilization=hw.utilization,
            extras=(("instructions", hw.instructions), ("stalls", hw.stalls)),
        )

    def _report(self, summary, kind, queries, executed):
        """Scale one run's summary to ``queries``.  Every report goes
        through these float operations in this order, so it is
        bit-identical whether or not the model ran for it."""
        cycles = summary.cycles * queries
        seconds = cycles * summary.config.cycle_time_s
        power_w = summary.power_w
        if power_w is None:
            power_w = summary.energy_j / seconds + summary.static_power_w
        return ExecutionReport(
            backend=self.name,
            kernel=kind,
            result=summary.result,
            cycles=cycles,
            seconds=seconds,
            energy_j=summary.energy_j * queries,
            power_w=power_w,
            utilization=summary.utilization,
            queries=queries,
            executed=executed,
            extras=dict(summary.extras),
        )


class SoftwareBackend(Backend):
    """Reference implementations on the host CPU: the functional ground
    truth every other backend is cross-checked against."""

    name = "software"

    def run(self, artifact, config=DEFAULT_CONFIG, queries=1, options=None):
        adapter = adapter_for(artifact.kernel)
        start = time.perf_counter()
        result = adapter.reference(artifact)
        wall_s = time.perf_counter() - start
        return ExecutionReport(
            backend=self.name,
            kernel=artifact.kind,
            result=result,
            cycles=0,
            seconds=wall_s * queries,
            queries=queries,
            extras={"wall_s_per_query": wall_s},
        )


class DeviceBackend(Backend):
    """Analytic cost on a roofline-derated device model (no functional
    result — the device executes the same kernel; we model its time)."""

    def __init__(self, device: DeviceModel, name: Optional[str] = None):
        self.device = device
        self.name = name or device.name.lower().replace(" ", "-")

    def run(self, artifact, config=DEFAULT_CONFIG, queries=1, options=None):
        profile = artifact.profile
        seconds = self.device.kernel_time_s(profile) * queries
        energy = self.device.energy_j([profile]) * queries
        return ExecutionReport(
            backend=self.name,
            kernel=artifact.kind,
            result=None,
            cycles=0,
            seconds=seconds,
            energy_j=energy,
            power_w=energy / seconds if seconds > 0 else 0.0,
            queries=queries,
            extras={"device": self.device.name, "kernel_class": profile.kernel_class.value},
        )


class RooflineBackend(DeviceBackend):
    """The profiling GPU's device cost plus its roofline placement:
    attainable vs achieved throughput and the memory-bound diagnosis
    (paper Fig. 3(d)) for the kernel's profile."""

    def __init__(self):
        super().__init__(RTX_A6000, name="roofline")

    def run(self, artifact, config=DEFAULT_CONFIG, queries=1, options=None):
        report = super().run(artifact, config, queries, options)
        point = roofline_point(self.device, artifact.profile, label=artifact.kind)
        report.extras.update(
            operational_intensity=point.operational_intensity,
            attainable_tflops=point.attainable_tflops,
            achieved_tflops=point.achieved_tflops,
            memory_bound=point.memory_bound,
            efficiency=point.efficiency,
        )
        return report


#: Name → the one instance served under it (see :class:`Backend`).
_BACKENDS: Dict[str, Backend] = {}


def register_backend(name: str, backend: Backend) -> None:
    """Register (or replace) the backend instance served under ``name``."""
    if not isinstance(backend, Backend):
        raise TypeError(
            f"register_backend takes a Backend instance, not {backend!r}: the "
            "registry holds one shared instance per name, not a factory"
        )
    _BACKENDS[name] = backend


def get_backend(name: str) -> Backend:
    try:
        return _BACKENDS[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r} (registered: {', '.join(sorted(_BACKENDS))})"
        ) from None


def list_backends() -> List[str]:
    return sorted(_BACKENDS)


register_backend("reason", ReasonBackend())
register_backend("software", SoftwareBackend())
register_backend("gpu", DeviceBackend(RTX_A6000, name="gpu"))
register_backend("cpu", DeviceBackend(XEON_CPU, name="cpu"))
register_backend("roofline", RooflineBackend())
