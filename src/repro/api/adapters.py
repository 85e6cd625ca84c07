"""Kernel adapters: one registry instead of scattered isinstance chains.

An adapter knows how to take one kernel family — CNF formulas,
probabilistic circuits, HMMs, or raw unified DAGs — through the offline
front end (Stage 1-3 optimization, DAG→VLIW compilation, or CDCL solve
+ trace recording) and how to answer the family's canonical query with
the software reference implementation.  The registry maps kernel types
to adapters; :func:`adapter_for` is the single dispatch point every
API entry goes through, and registering a new kernel family is one
``register_adapter`` call away — no core edits required.
"""

from __future__ import annotations

import io
import math
import os
import pickle
import struct
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from itertools import chain
from numbers import Real
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple, Type, Union

import numpy as np

from repro.api.cache import content_key, key_part, stable_repr
from repro.api.types import CompiledArtifact
from repro.baselines.device import KernelClass, KernelProfile
from repro.core.arch.config import ArchConfig
from repro.core.compiler import compile_dag
from repro.core.dag import (
    OptimizationResult,
    circuit_to_dag,
    default_leaf_inputs,
    evaluate_dag,
    hmm_to_dag,
    optimize,
)
from repro.core.dag.builders import cnf_dag_footprint
from repro.core.dag.graph import Dag, OpType
from repro.costmodel.features import remember
from repro.hmm.inference import log_likelihood as hmm_log_likelihood
from repro.hmm.model import HMM
from repro.logic.cdcl import CDCLSolver, SolveResult
from repro.logic.cnf import CNF, Clause
from repro.logic.implication_graph import prune_hidden_literals
from repro.pc.circuit import Circuit
from repro.pc.inference import likelihood


def _int_record(tag: bytes, values: Tuple[object, ...]) -> bytes:
    """``tag``, a count, then that many int64s.  When ``struct`` rejects
    a value (``None``, a float, an integer past int64) the record is the
    tuple's length-prefixed ``repr`` instead: such a request stays keyed
    by what it holds, so it reaches the front end and fails (or not)
    exactly where it would without a cache."""
    try:
        return struct.pack(f"<cq{len(values)}q", tag, len(values), *values)
    except struct.error:
        text = stable_repr(values)
        return struct.pack("<ccq", b"R", tag, len(text)) + text


#: Calibration types ``RunOptions`` accepts without the ``Mapping``
#: ABC's Python-level ``__instancecheck__``: none, a list, a tuple.
_PLAIN_CALIBRATIONS = frozenset((type(None), list, tuple))


@dataclass(frozen=True, init=False)
class RunOptions:
    """Per-request knobs that affect compilation (and thus the cache key).

    ``calibration`` feeds the adaptive-pruning stage for probabilistic
    kernels (evidence dicts for circuits, observation sequences for
    HMMs); ``hmm_observations`` fixes the unroll sequence when no
    calibration is given.  These two, ``optimize`` and
    ``keep_fraction``, are the compile options: each enters
    :meth:`KernelAdapter.fingerprint` through its row of
    :data:`_OPTIONS`, a snapshot every request compares and a pack only
    a miss hashes.

    ``trace`` opts into the binary event trace (:mod:`repro.trace`):
    ``None`` or ``False`` (the default) traces nothing, ``True``
    captures in memory (bytes land in ``report.extras['trace_data']``)
    and a non-empty path (``str`` or :class:`os.PathLike`) captures to
    that file.  The run opens, closes and summarizes a writer of its
    own; any other value is a :class:`TypeError` (``""`` a
    :class:`ValueError`) when the options are built, before anything
    compiles.  The trace is the one record of a run's events:
    :func:`repro.trace.analyze.timeline` reads the Fig. 9-style cycle
    timeline out of it.  Tracing is an observation
    knob, not a compilation knob — it deliberately stays out of
    :meth:`KernelAdapter.fingerprint`, so traced and untraced runs of
    the same kernel share one cache entry.

    ``verify`` opts into post-compile static verification
    (:mod:`repro.analysis`): ``True`` checks the freshly compiled
    artifact and raises
    :class:`~repro.analysis.ProgramVerificationError` on any
    error finding; ``False`` forces it off even when the session was
    built with ``verify=True``; ``None`` defers to the session.  It
    runs inside the compile-once factory: cold path only, and a
    rejected artifact is never cached or published.  Like
    ``trace`` it is excluded from the fingerprint: a verified
    and an unverified compile of the same kernel are the same artifact.

    The class is a frozen dataclass (``==``, ``hash``, ``repr``,
    :func:`dataclasses.replace` and pickling as generated) with a
    hand-written ``__init__``: it checks the options and fills
    ``__dict__`` in one update, where the generated one calls
    ``object.__setattr__`` once per field and then ``__post_init__``.
    """

    optimize: bool = True
    keep_fraction: float = 0.8
    calibration: Optional[Sequence] = None
    hmm_observations: Optional[Sequence[int]] = None
    trace: Union[None, bool, str, os.PathLike] = None
    verify: Optional[bool] = None

    def __init__(
        self,
        optimize: bool = True,
        keep_fraction: float = 0.8,
        calibration: Optional[Sequence] = None,
        hmm_observations: Optional[Sequence[int]] = None,
        trace: Union[None, bool, str, os.PathLike] = None,
        verify: Optional[bool] = None,
    ) -> None:
        if not (trace is None or isinstance(trace, (bool, str, os.PathLike))):
            raise TypeError(
                f"trace must be None, a bool or a path (str or os.PathLike), not {trace!r}"
            )
        if trace == "":
            raise ValueError("trace must be None, a bool or a non-empty path, not ''")
        if type(calibration) not in _PLAIN_CALIBRATIONS and isinstance(
            calibration, (str, bytes, bytearray, Mapping)
        ):
            raise TypeError(
                "calibration must be a sequence of evidence dicts or observation "
                f"sequences, not a {type(calibration).__name__}"
            )
        if isinstance(hmm_observations, str):
            raise TypeError("hmm_observations must be a sequence of ints, not a str")
        self.__dict__.update(
            optimize=optimize,
            keep_fraction=keep_fraction,
            calibration=calibration,
            hmm_observations=hmm_observations,
            trace=trace,
            verify=verify,
        )


def _pack_calibration(calibration: Sequence) -> bytes:
    """Canonical bytes of a calibration, one record per item: an
    evidence dict as its sorted variables followed by their values, an
    observation sequence as it is."""
    records = [struct.pack("<q", len(calibration))]
    for item in calibration:
        if isinstance(item, dict):
            variables = sorted(item)
            records.append(_int_record(b"E", (*variables, *map(item.__getitem__, variables))))
        else:
            records.append(_int_record(b"S", tuple(item)))
    return b"".join(records)


def _pack_observations(observations: Sequence[int]) -> bytes:
    return _int_record(b"S", tuple(observations))


class _BuiltinsOnly(pickle.Pickler):
    """A pickler of exact builtins.  The C pickler writes ``None``,
    bools, ints, floats, str, bytes and exact lists, tuples, dicts (and
    sets) itself, and asks :meth:`reducer_override` about anything else:
    a numpy scalar or array, a subclass, an ``OrderedDict``."""

    def reducer_override(self, obj: object) -> object:
        raise pickle.PicklingError(f"not an exact builtin: {type(obj).__name__}")


_DOUBLE = struct.Struct("<d")
_INT = frozenset((int,))


def _snapshot_scalar(value: object) -> object:
    """An option scalar's exact value: a builtin ``float`` by its bit
    pattern (``0.0`` and ``-0.0`` apart, a NaN equal to itself), a
    ``bool`` or ``int`` with its type (``True`` and ``1`` apart), and
    any other type (a numpy scalar) by its key part."""
    kind = type(value)
    if kind is float:
        return kind, _DOUBLE.pack(value)
    if kind is bool or kind is int:
        return kind, value
    return key_part(value)


def _snapshot_calibration(calibration: Sequence) -> Union[bytes, Tuple[bytes]]:
    """A builtins-only pickle (protocol 4, which refuses a
    ``PickleBuffer``), in a 1-tuple so it never equals packed bytes.  A
    pickle holds every type, value, order and shared object, and the
    packed key is a function of those.  Anything else is the packed key
    itself."""
    buffer = io.BytesIO()
    try:
        _BuiltinsOnly(buffer, 4).dump(calibration)
    except (pickle.PicklingError, RecursionError):  # not exact builtins, or too deep
        return _pack_calibration(calibration)
    return (buffer.getvalue(),)


def _snapshot_observations(observations: Sequence[int]) -> Union[bytes, Tuple[int, ...]]:
    """A tuple of exact ints.  Any other symbol (a float, a bool, a
    numpy scalar) equals an int under ``==`` whether or not its pack
    does, so such a sequence stands as its packed key itself."""
    snapshot = tuple(observations)
    if _INT.issuperset(map(type, snapshot)):
        return snapshot
    return _pack_observations(snapshot)


#: Every compile option's two forms, by name: ``(snapshot, pack)``.  A
#: request's context holds the snapshot of each option its adapter
#: reads, which ``==`` compares exactly against a kernel's memo; only a
#: miss packs the options into the parts ``content_key`` hashes.  An
#: option that is ``None`` is ``None`` in both.
_OPTIONS = {
    "optimize": (_snapshot_scalar, key_part),
    "keep_fraction": (_snapshot_scalar, key_part),
    "calibration": (_snapshot_calibration, _pack_calibration),
    "hmm_observations": (_snapshot_observations, _pack_observations),
}

#: The options of every request that passes none.  No field holds a
#: caller-owned container, so nothing can change them in place: the key
#: context of this one instance is built once per (adapter, config).
DEFAULT_OPTIONS = RunOptions()

#: ``(adapter, config.key_bytes)`` -> the key context of
#: :data:`DEFAULT_OPTIONS`, FIFO-bounded like the serving path's other memos.
_DEFAULT_CONTEXTS: Dict[Tuple["KernelAdapter", bytes], tuple] = {}


def neural_time(seconds: object, index: int = 0) -> float:
    """``seconds`` as one task's neural-stage time: a float, finite and
    ≥ 0, or an error naming its ``index`` in the batch — a TypeError for
    anything but a real number (a bool, a ``str``, ``None``), a
    ValueError for NaN, infinity or a negative value."""
    if type(seconds) is not float:
        kind = getattr(getattr(seconds, "dtype", None), "kind", None)
        if isinstance(seconds, bool) or not (
            isinstance(seconds, Real)
            or (getattr(seconds, "ndim", None) == 0 and kind in ("i", "u", "f"))
        ):
            raise TypeError(
                f"neural_s[{index}] is {seconds!r} ({type(seconds).__name__}): "
                "it must be a real number"
            )
        seconds = float(seconds)
    if not 0.0 <= seconds < math.inf:
        raise ValueError(f"neural_s[{index}] is {seconds!r}: it must be finite and >= 0")
    return seconds


def per_kernel_neural_s(count: int, neural_s: Union[float, Sequence[float]]) -> List[float]:
    """One :func:`neural_time` per kernel of a batch.

    ``neural_s`` is one value per kernel, or a scalar broadcast — any 0-d
    real: a Python or numpy number, or a 0-d array.  Anything that is not
    a sequence (a ``str`` or ``bytes`` included) is one value, checked as
    ``neural_s[0]``.
    """
    if (
        isinstance(neural_s, (str, bytes, bytearray))
        or not isinstance(neural_s, Iterable)
        or getattr(neural_s, "ndim", None) == 0
    ):
        # One check, then the broadcast; an empty batch checks nothing.
        return [neural_time(neural_s)] * count if count else []
    neural_times = [neural_time(t, index) for index, t in enumerate(neural_s)]
    if len(neural_times) != count:
        raise ValueError("need one neural_s per kernel")
    return neural_times


class KernelAdapter:
    """Base adapter: fingerprint, compile, and software-reference a kernel.

    The key contract: a fingerprint is a pure function of what the
    kernel, the options and the config hold *at the call*.  Kernels and
    option containers are mutable, so every request takes a fresh
    snapshot of each — the kernel's :meth:`snapshot`, and one per option
    it reads from :data:`_OPTIONS` — and only the hash is remembered,
    on the kernel itself, against what it was computed from.  An
    unchanged request pays a compare, not a pack and a hash.
    """

    kind: str = ""
    #: The :class:`RunOptions` fields :meth:`prepare` reads, which are
    #: exactly the ones :meth:`fingerprint` hashes: a field the front
    #: end ignores must not split one artifact over two cache entries.
    option_fields: Tuple[str, ...] = tuple(_OPTIONS)

    def fingerprint(self, kernel: object, options: RunOptions, config: ArchConfig) -> str:
        """The cache key.  A kernel type that declares ``_key_memo``
        (class default ``None``) keeps its last key there as one tuple
        ``(kernel snapshot, context, digest)``; the digest is served
        again only while both compare equal to this request's.  Only a
        miss packs — the kernel by :meth:`snapshot_key`, each option by
        its pack in :data:`_OPTIONS` — and hashes."""
        snapshot = self.snapshot(kernel)
        if options is DEFAULT_OPTIONS:
            context = _DEFAULT_CONTEXTS.get((self, config.key_bytes))
            if context is None:
                context = remember(
                    _DEFAULT_CONTEXTS, (self, config.key_bytes), self._context(options, config)
                )
        else:
            context = self._context(options, config)
        memo = getattr(kernel, "_key_memo", False)
        if memo and memo[0] == snapshot and memo[1] == context:
            return memo[2]
        parts = [self.kind, self.snapshot_key(snapshot), config.key_bytes]
        for name in self.option_fields:
            value = getattr(options, name)
            parts.append(None if value is None else _OPTIONS[name][1](value))
        digest = content_key(*parts)
        if memo is not False:
            kernel._key_memo = (snapshot, context, digest)
        return digest

    def _context(self, options: RunOptions, config: ArchConfig) -> tuple:
        """The adapter, the config bytes, then each read option's
        snapshot: what a memo compares besides the kernel."""
        context = [self, config.key_bytes]
        for name in self.option_fields:
            value = getattr(options, name)
            context.append(None if value is None else _OPTIONS[name][0](value))
        return tuple(context)

    def snapshot(self, kernel: object) -> object:
        """What the kernel holds now, in a form ``==`` compares exactly:
        by default its :meth:`kernel_key` bytes."""
        return self.kernel_key(kernel)

    def snapshot_key(self, snapshot: object) -> bytes:
        """The key bytes a :meth:`snapshot` stands for."""
        return snapshot

    def kernel_key(self, kernel: object) -> bytes:
        """Canonical, self-delimiting bytes of the kernel's content."""
        raise NotImplementedError

    def prepare(self, kernel: object, options: RunOptions, config: ArchConfig) -> CompiledArtifact:
        raise NotImplementedError

    def reference(self, artifact: CompiledArtifact) -> Optional[float]:
        """Answer the canonical query in software (the ``software``
        backend times the call)."""
        raise NotImplementedError

    # Shared path for every DAG-backed family (circuit / HMM / raw DAG):
    # compile the DAG once and record a work profile for the analytic
    # backends — this is the deduplication of the old runner branches.
    def _compile_artifact(
        self,
        kernel: object,
        config: ArchConfig,
        dag: Dag,
        model: object,
        optimization=None,
        kernel_class: KernelClass = KernelClass.MARGINAL,
    ) -> CompiledArtifact:
        program, stats = compile_dag(dag, config)
        flops = 2.0 * program.dag.num_edges
        bytes_accessed = 4.0 * program.dag.memory_footprint()
        profile = KernelProfile(
            kernel_class, flops=max(flops, 1.0), bytes_accessed=max(bytes_accessed, 4.0)
        )
        return CompiledArtifact(
            kind=self.kind,
            key="",  # filled by the session with the cache-lookup key
            kernel=kernel,
            model=model,
            dag=program.dag,
            program=program,
            compile_stats=stats,
            optimization=optimization,
            profile=profile,
        )


_LITERALS = attrgetter("literals")


class CnfAdapter(KernelAdapter):
    """SAT formulas: prune exactly, solve once, cache the CDCL trace."""

    kind = "cnf"
    option_fields = ("optimize",)

    def snapshot(self, kernel: CNF) -> Tuple[int, Tuple[Clause, ...]]:
        """``num_vars`` and the clauses as a tuple.  A ``Clause`` is
        frozen and tuple equality short-circuits on identity, so an
        unchanged formula compares equal without reading a literal; an
        equal clause put in place of another compares equal by value."""
        return kernel.num_vars, tuple(kernel.clauses)

    def snapshot_key(self, snapshot: Tuple[int, Tuple[Clause, ...]]) -> bytes:
        """One int64 stream: ``num_vars``, the clause count, every
        clause's length, then every literal — by ``map`` / ``chain``,
        not by a Python loop."""
        num_vars, clauses = snapshot
        literals = list(map(_LITERALS, clauses))
        stream = chain(
            (num_vars, len(literals)), map(len, literals), chain.from_iterable(literals)
        )
        return np.fromiter(stream, dtype=np.int64).tobytes()

    def prepare(self, kernel: CNF, options: RunOptions, config: ArchConfig) -> CompiledArtifact:
        optimization = None
        working = kernel
        if options.optimize:
            # Pruned on the implication graph and replayed from the
            # solver trace: nothing downstream reads a CNF's unified
            # DAG, so only its footprint is counted, none is built.
            working, report = prune_hidden_literals(kernel)
            optimization = OptimizationResult(
                None, cnf_dag_footprint(kernel), cnf_dag_footprint(working), report, working
            )
        solver = CDCLSolver(record_trace=True)
        verdict, model = solver.solve(working)
        ops = max(solver.stats.clause_fetches, 1)
        profile = KernelProfile(
            KernelClass.LOGIC, flops=6.0 * ops, bytes_accessed=80.0 * ops, launches=4
        )
        return CompiledArtifact(
            kind=self.kind,
            key="",  # filled by the session with the cache-lookup key
            kernel=kernel,
            model=working,
            optimization=optimization,
            solver=solver,
            profile=profile,
            extras={"verdict": verdict, "assignment": model},
        )

    def reference(self, artifact: CompiledArtifact) -> Optional[float]:
        verdict, _ = CDCLSolver().solve(artifact.model)
        return 1.0 if verdict is SolveResult.SAT else 0.0


class CircuitAdapter(KernelAdapter):
    """Probabilistic circuits: flow-prune (with calibration) and compile."""

    kind = "circuit"
    option_fields = ("optimize", "keep_fraction", "calibration")

    def kernel_key(self, kernel: Circuit) -> bytes:
        """The plan's structure digest (built once per root), then its
        parameter layout (:meth:`CircuitPlan.parameters`): the int64
        length of every leaf table and weight vector, and the float64
        buffer they are views into, as one ``tobytes()``."""
        plan = kernel.plan()
        _, lengths, buffer = plan.parameters()
        return b"".join((plan.structure_digest, lengths, buffer.tobytes()))

    def prepare(self, kernel: Circuit, options: RunOptions, config: ArchConfig) -> CompiledArtifact:
        if options.optimize and options.calibration:
            optimization = optimize(
                kernel,
                calibration=options.calibration,
                keep_fraction=options.keep_fraction,
            )
            dag, model = optimization.dag, optimization.pruned_model
        else:
            optimization = None
            dag, _ = circuit_to_dag(kernel)
            model = kernel
        return self._compile_artifact(kernel, config, dag, model, optimization, KernelClass.MARGINAL)

    def reference(self, artifact: CompiledArtifact) -> Optional[float]:
        return likelihood(artifact.model, {})


#: A dtype instance: ``np.asarray`` converts one faster than the type.
_FLOAT64 = np.dtype(np.float64)


class HmmAdapter(KernelAdapter):
    """HMMs: unroll over the observation sequence, prune by posterior.

    Keyed by ``initial``, ``transition`` and ``emission``, each as
    float64: its shape, then its bytes.  The memo holds exactly those,
    unpacked, so a warm request compares three shapes and three byte
    strings; the shape headers are packed only on a miss."""

    kind = "hmm"

    def snapshot(self, kernel: HMM) -> Tuple[object, ...]:
        """The three shapes, then the three buffers' bytes: a matrix
        reshaped over the same bytes compares unequal."""
        initial = np.asarray(kernel.initial, dtype=_FLOAT64)
        transition = np.asarray(kernel.transition, dtype=_FLOAT64)
        emission = np.asarray(kernel.emission, dtype=_FLOAT64)
        return (
            initial.shape, transition.shape, emission.shape,
            initial.tobytes(), transition.tobytes(), emission.tobytes(),
        )  # fmt: skip

    def snapshot_key(self, snapshot: Tuple[object, ...]) -> bytes:
        """Per matrix: int64 ``ndim``, the shape as int64s, the bytes."""
        parts = []
        for shape, buffer in zip(snapshot[:3], snapshot[3:]):
            parts.append(struct.pack(f"<q{len(shape)}q", len(shape), *shape))
            parts.append(buffer)
        return b"".join(parts)

    def observations_for(self, kernel: HMM, options: RunOptions) -> List[int]:
        if options.hmm_observations is not None:
            return list(options.hmm_observations)
        return list(range(min(8, kernel.num_observations)))

    def prepare(self, kernel: HMM, options: RunOptions, config: ArchConfig) -> CompiledArtifact:
        observations = self.observations_for(kernel, options)
        if options.optimize and options.calibration:
            optimization = optimize(
                kernel,
                calibration=options.calibration,
                keep_fraction=options.keep_fraction,
            )
            dag, model = optimization.dag, optimization.pruned_model
            observations = list(options.calibration[0])
        else:
            optimization = None
            dag = hmm_to_dag(kernel, observations)
            model = kernel
        artifact = self._compile_artifact(
            kernel, config, dag, model, optimization, KernelClass.BAYESIAN
        )
        artifact.extras["observations"] = observations
        return artifact

    def reference(self, artifact: CompiledArtifact) -> Optional[float]:
        return math.exp(hmm_log_likelihood(artifact.model, artifact.extras["observations"]))


#: The ops that combine their children: one with none has no value
#: the accelerator can compute.
_OP_NODES = frozenset((OpType.SUM, OpType.PRODUCT, OpType.AND, OpType.OR, OpType.NOT))


class DagAdapter(KernelAdapter):
    """Raw unified DAGs: compile directly (regularizing when needed)."""

    kind = "dag"
    option_fields = ()

    def kernel_key(self, kernel: Dag) -> bytes:
        """One record per node in topological order: id, fan-in, weight
        count and label length, then the children, the weights as
        doubles and the label (op name and payload, ``repr``-ed: a
        payload is a literal, a name or a small table)."""
        plan = kernel.plan()
        ops, payloads = plan.ops, plan.payloads
        parts = [struct.pack("<qq", len(plan.order), kernel.root)]
        for node_id in plan.order:
            children, weights = plan.children[node_id], plan.weights[node_id]
            label = stable_repr((ops[node_id].name, payloads[node_id]))
            parts.append(
                struct.pack(
                    f"<4q{len(children)}q{len(weights)}d",
                    node_id, len(children), len(weights), len(label), *children, *weights,
                )  # fmt: skip
            )
            parts.append(label)
        return b"".join(parts)

    def prepare(self, kernel: Dag, options: RunOptions, config: ArchConfig) -> CompiledArtifact:
        """Reject a reachable node that holds a NaN or infinite SUM
        weight or LEAF probability, or an op node (SUM, PRODUCT, AND,
        OR, NOT) with no children (a built Circuit or HMM is checked
        when constructed; a raw DAG first here), then compile."""
        plan = kernel.plan()
        for node_id in plan.order:
            op, payload = plan.ops[node_id], plan.payloads[node_id]
            if op in _OP_NODES and not plan.children[node_id]:
                raise ValueError(
                    f"DAG node {node_id} is a {op.name} with no children: an op node "
                    "needs at least one input"
                )
            table = payload[1] if op is OpType.LEAF and payload is not None else ()
            if not all(map(math.isfinite, chain(plan.weights[node_id], table))):
                raise ValueError(
                    f"DAG node {node_id} holds a NaN or infinite weight or leaf probability"
                )
        histogram = kernel.op_histogram()
        probabilistic = any(
            op in histogram for op in (OpType.SUM, OpType.PRODUCT, OpType.LEAF)
        )
        kernel_class = KernelClass.MARGINAL if probabilistic else KernelClass.LOGIC
        return self._compile_artifact(kernel, config, kernel, None, None, kernel_class)

    def reference(self, artifact: CompiledArtifact) -> Optional[float]:
        dag = artifact.dag
        values = evaluate_dag(dag, default_leaf_inputs(dag))
        return values.get(dag.root) if dag.root is not None else None


#: Type → adapter registry.  Exact type match wins; otherwise the most
#: recently registered isinstance match, so a subclass adapter
#: registered later shadows the built-in base-class entry.
_ADAPTERS: "Dict[Type, KernelAdapter]" = {}


def register_adapter(kernel_type: Type, adapter: KernelAdapter) -> None:
    """Register (or override) the adapter handling ``kernel_type``."""
    _ADAPTERS[kernel_type] = adapter


def adapter_for(kernel: object) -> KernelAdapter:
    """Resolve the adapter for a kernel instance via the registry."""
    exact = _ADAPTERS.get(type(kernel))
    if exact is not None:
        return exact
    for kernel_type, adapter in reversed(_ADAPTERS.items()):
        if isinstance(kernel, kernel_type):
            return adapter
    supported = ", ".join(t.__name__ for t in _ADAPTERS)
    raise TypeError(
        f"unsupported kernel type: {type(kernel).__name__} (supported: {supported})"
    )


register_adapter(CNF, CnfAdapter())
register_adapter(Circuit, CircuitAdapter())
register_adapter(HMM, HmmAdapter())
register_adapter(Dag, DagAdapter())
