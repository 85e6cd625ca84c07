"""The five workloads: what each builds, how one timed pass runs.

Sizes are constants of the workload definition.  The number of timed
passes is ``round(seconds / pass_s)`` — a function of ``--seconds``
only, never of the clock — so two runs with the same seed and seconds
serve exactly the same requests and their modeled cycles, joules and
report digest are comparable bit for bit.

Every workload is a closed loop driven from one generator thread.
Latency runs from the moment a request is handed to the front door
(for bursts: from burst start) to the moment its answer is back; the
correctness oracle and all bookkeeping run between those windows.
"""

from __future__ import annotations

import concurrent.futures
import gc
import hashlib
import random
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import ReasonService, ReasonSession
from repro.api.adapters import RunOptions, adapter_for
from repro.api.types import ExecutionReport
from repro.core.arch.config import DEFAULT_CONFIG

from bench import kernels, oracle
from bench.hostspeed import HostProbe
from bench.kernels import KernelRequest

clock = time.perf_counter

#: Generous bound on any single wait; a healthy pass finishes in under
#: a second, so hitting this means a future was lost.
WAIT_TIMEOUT_S = 120.0


def fingerprint_of(request: KernelRequest, config) -> str:
    """The compile-cache key the session derives for this request."""
    return adapter_for(request.kernel).fingerprint(
        request.kernel, RunOptions(**request.options), config
    )


class Tally:
    """Everything the timed phase accumulates, in request order.

    With a ``probe`` the pass loops sample the host's speed between
    requests (see :mod:`bench.hostspeed`); without one they do not."""

    def __init__(self, probe: Optional[HostProbe] = None) -> None:
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: One list of request latencies per pass, in submission order.
        self.pass_latencies: List[List[float]] = []
        self.pass_walls: List[float] = []
        #: When each pass started and ended, on :data:`clock`.
        self.pass_windows: List[Tuple[float, float]] = []
        self.cycles = 0
        self.energy_j = 0.0
        self._digest = hashlib.sha256()

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(problem)

    def served(self, report: ExecutionReport, problem: Optional[str]) -> None:
        """Account one resolved request (``problem``: the oracle's
        objection, if any)."""
        self.attempted += 1
        self.cycles += report.cycles
        self.energy_j += report.energy_j
        self._digest.update(repr(report.identity()).encode("utf-8") + b"\n")
        if problem is not None:
            self.fail(problem)

    def lost(self, problem: str) -> None:
        """A request that raised, was rejected or was cancelled."""
        self.attempted += 1
        self.fail(problem)

    @property
    def latencies(self) -> List[float]:
        return [latency for one_pass in self.pass_latencies for latency in one_pass]

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


class WorkloadState:
    """One set-up of a workload, ready to run timed passes."""

    requests_per_pass = 0

    def __init__(self) -> None:
        #: Failures found outside the timed passes (reference checks).
        self.setup_tally = Tally()

    def sequence(self, index: int) -> List[KernelRequest]:
        """The requests of pass ``index``, in submission order."""
        raise NotImplementedError

    def run_pass(self, index: int, tally: Tally) -> None:
        raise NotImplementedError

    def prepare_references(self) -> None:
        """Oracle work that needs the set-up but is not part of it; the
        runner calls this once, outside set-up time."""

    def close(self) -> None:
        """Stop whatever the set-up started."""


class Workload:
    """Static definition: name and sizing.  Why each workload exists is
    one line in ``BENCHMARK.json`` and a paragraph in ``bench/README.md``."""

    name = ""
    #: Nominal seconds one full-size pass takes on the reference
    #: 2-core container; fixes the pass count for a given ``--seconds``.
    pass_s = 1.0

    def passes(self, seconds: float, tiny: bool) -> int:
        if tiny:
            return 10  # enough requests for a p90 at tiny sizes
        return max(3, round(seconds / self.pass_s))

    def setup(self, seed: int, tiny: bool, metrics: bool = False) -> WorkloadState:
        """Build the kernels, start the program, warm it up.
        ``metrics`` turns the program's own telemetry on (the traced
        run measures what that costs)."""
        raise NotImplementedError

    def rng(self, seed: int, *parts: object) -> random.Random:
        return random.Random(":".join(str(p) for p in (self.name, seed, *parts)))


# ------------------------------------------------------- session workloads


def run_requests(
    session: ReasonSession,
    requests: Sequence[KernelRequest],
    tally: Tally,
    verify: Callable[[KernelRequest, ExecutionReport], Optional[str]],
) -> None:
    """One pass of one client over ``requests``: time each
    ``session.run``, verify between the timed windows."""
    latencies = []
    probe = tally.probe
    pass_start = clock()
    for request in requests:
        if probe is not None:
            probe.sample_if_due()
        start = clock()
        try:
            report = session.run(
                request.kernel, queries=request.queries, **request.options
            )
        except Exception as error:  # a failed request, not a failed benchmark
            latencies.append(clock() - start)
            tally.lost(f"{request.name}: {type(error).__name__}: {error}")
            continue
        latencies.append(clock() - start)
        tally.served(report, verify(request, report))
    if probe is not None:
        probe.sample()
    tally.pass_windows.append((pass_start, clock()))
    tally.pass_latencies.append(latencies)
    tally.pass_walls.append(sum(latencies))


def answer_checker(session: ReasonSession):
    """Verify callback: the oracle on the artifact ``session`` served
    the request from."""

    def verify(request: KernelRequest, report: ExecutionReport) -> Optional[str]:
        artifact = session.artifact_for(fingerprint_of(request, session.config))
        return oracle.check_answer(request, report, artifact)

    return verify


class ColdState(WorkloadState):
    """Fresh session and first-sight kernels on every pass."""

    def __init__(self, workload: "ColdWorkload", seed: int, tiny: bool, metrics: bool):
        super().__init__()
        self.workload, self.seed, self.tiny, self.metrics = workload, seed, tiny, metrics

    def sequence(self, index: int) -> List[KernelRequest]:
        return self.workload.requests(self.seed, index, self.tiny)

    def fresh_session(self) -> ReasonSession:
        return ReasonSession(cache_capacity=8, metrics=self.metrics or None)

    def run_pass(self, index: int, tally: Tally) -> None:
        requests = self.sequence(index)
        self.requests_per_pass = len(requests)  # the same on every pass
        session = self.fresh_session()
        gc.collect()
        run_requests(session, requests, tally, answer_checker(session))


class ColdWorkload(Workload):
    def requests(self, seed: int, index: int, tiny: bool) -> List[KernelRequest]:
        raise NotImplementedError

    def setup(self, seed: int, tiny: bool, metrics: bool = False) -> WorkloadState:
        state = ColdState(self, seed, tiny, metrics)
        # Warm-up on kernels of their own: code paths, numpy and lazy
        # imports hot, no kernel of a timed pass seen.
        state.run_pass(-1, Tally())
        return state


class ColdLogic(ColdWorkload):
    """First-sight CNFs: the CDCL solve, exact pruning and the first
    trace replay do the work; the VLIW compiler does nothing.

    Ten refutations of one size carry four fifths of a pass, so p50
    and p90 both fall inside that family; six cheaper formulas, one of
    each kind (SAT and UNSAT, random and structured), ride along.
    """

    name = "cold-logic"
    pass_s = 0.5
    heavy, light = 10, 6

    def requests(self, seed: int, index: int, tiny: bool) -> List[KernelRequest]:
        rng = self.rng(seed, index)
        heavy, light = (6, 6) if tiny else (self.heavy, self.light)
        # 8 pigeons, 7 holes, 5 allowed each: ~35 ms cold, little spread.
        shape = (4, 3) if tiny else (7, 5)
        requests = [kernels.graph_php_request(rng, *shape) for _ in range(heavy)]
        requests += [kernels.light_logic(rng, slot, tiny) for slot in range(light)]
        rng.shuffle(requests)
        return requests


class ColdProb(ColdWorkload):
    """First-sight circuits and HMMs: ``optimize`` and ``compile_dag``
    plus the first ``run_program`` do the work; the solver does nothing."""

    name = "cold-prob"
    pass_s = 0.65
    size = 24

    def requests(self, seed: int, index: int, tiny: bool) -> List[KernelRequest]:
        rng = self.rng(seed, index)
        size = 12 if tiny else self.size
        requests = [kernels.prob_request(rng, slot, tiny) for slot in range(size)]
        rng.shuffle(requests)
        return requests


class WarmState(WorkloadState):
    """One long-lived session with every kernel compiled."""

    def __init__(self, requests: List[KernelRequest], metrics: bool):
        super().__init__()
        self.requests = requests
        self.requests_per_pass = len(requests)
        self.session = ReasonSession(metrics=metrics or None)
        self.compiled = [
            self.session.run(r.kernel, queries=r.queries, **r.options) for r in requests
        ]
        self.references = {
            id(request): report.identity()
            for request, report in zip(requests, self.compiled)
        }
        self.run_pass(-1, Tally())  # one replay pass, untimed

    def sequence(self, index: int) -> List[KernelRequest]:
        return self.requests

    def prepare_references(self) -> None:
        verify = answer_checker(self.session)
        for request, report in zip(self.requests, self.compiled):
            problem = verify(request, report)
            if problem is not None:
                self.setup_tally.fail(f"reference {problem}")

    def verify(self, request: KernelRequest, report: ExecutionReport) -> Optional[str]:
        if not report.cache_hit:
            return f"{request.name}: warm replay missed the compile cache"
        return oracle.check_identity(request, report, self.references[id(request)])

    def run_pass(self, index: int, tally: Tally) -> None:
        run_requests(self.session, self.requests, tally, self.verify)


class WarmReplay(Workload):
    """Compiled kernels replayed from one long-lived session:
    fingerprint, local cache hit, then trace replay or ``run_program``;
    nothing compiles, no threads."""

    name = "warm-replay"
    pass_s = 0.13
    per_family = 12

    def setup(self, seed: int, tiny: bool, metrics: bool = False) -> WorkloadState:
        return WarmState(self.requests(seed, tiny), metrics)

    def requests(self, seed: int, tiny: bool) -> List[KernelRequest]:
        rng = self.rng(seed)
        requests = []
        for turn in range(4 if tiny else self.per_family):
            # A CDCL trace that takes a few ms to replay.
            requests.append(kernels.graph_php_request(rng, *((4, 3) if tiny else (6, 5))))
            if tiny:
                requests.append(kernels.circuit_request(rng, 5, 4, depth=2))
                requests.append(kernels.hmm_request(rng, 4, 4, 5, calibrated=False))
            else:
                requests.append(kernels.circuit_request(rng, 12, 16))
                # Sizes cycle with the turn: the seed decides the models,
                # not how much work a pass holds.
                requests.append(
                    kernels.hmm_request(rng, 8 + turn % 3, 6, 10 + turn // 3 % 3, False)
                )
        for request in requests:
            request.queries = 8
        return requests


# ------------------------------------------------------- service workloads


def _stamp(latencies: List[float], slot: int, start: float, then=None):
    """Done-callback recording one request's latency (and, for the
    closed loop, handing its in-flight permit back)."""

    def on_done(_future) -> None:
        latencies[slot] = clock() - start
        if then is not None:
            then()

    return on_done


class ServiceState(WorkloadState):
    """A running service, its request pool, and reference identities
    from a bare session."""

    def __init__(self, service: ReasonService, pool: List[KernelRequest], rng_for_pass):
        super().__init__()
        self.service = service
        self.pool = pool
        self.rng_for_pass = rng_for_pass
        self.references: Dict[int, tuple] = {}
        try:
            self.warm_up()
        except BaseException:
            service.close()
            raise

    def prepare_references(self) -> None:
        session = ReasonSession()
        verify = answer_checker(session)
        for request in self.pool:
            report = session.run(request.kernel, queries=request.queries, **request.options)
            problem = verify(request, report)
            if problem is not None:
                self.setup_tally.fail(f"reference {problem}")
            self.references[id(request)] = report.identity()

    def warm_up(self) -> None:
        """Compile every kernel once, then serve each once warm."""
        for _ in range(2):
            futures = [
                self.service.submit(r.kernel, queries=r.queries, **r.options)
                for r in self.pool
            ]
            concurrent.futures.wait(futures, timeout=WAIT_TIMEOUT_S)
            for future in futures:
                future.result(timeout=0)

    def account(
        self,
        requests: Sequence[KernelRequest],
        futures: Sequence[Optional[concurrent.futures.Future]],
        tally: Tally,
    ) -> None:
        """Between timed windows: resolve outcomes, check every report
        against the bare-session reference."""
        for request, future in zip(requests, futures):
            if future is None:
                tally.lost(f"{request.name}: rejected at admission")
                continue
            try:
                report = future.result(timeout=WAIT_TIMEOUT_S)
            except Exception as error:
                tally.lost(f"{request.name}: {type(error).__name__}: {error}")
                continue
            reference = self.references.get(id(request))
            problem = None
            if reference is not None:
                problem = oracle.check_identity(request, report, reference)
            tally.served(report, problem)

    def close(self) -> None:
        self.service.close()


class SteadyState(ServiceState):
    """Closed loop, a fixed number of requests in flight."""

    in_flight = 4

    def __init__(self, service, pool, rng_for_pass):
        self.requests_per_pass = sum(request.repeats for request in pool)
        super().__init__(service, pool, rng_for_pass)

    def sequence(self, index: int) -> List[KernelRequest]:
        sequence = [request for request in self.pool for _ in range(request.repeats)]
        self.rng_for_pass(index).shuffle(sequence)
        return sequence

    def run_pass(self, index: int, tally: Tally) -> None:
        sequence = self.sequence(index)
        count = len(sequence)
        latencies = [0.0] * count
        futures: List[Optional[concurrent.futures.Future]] = [None] * count
        gate = threading.Semaphore(self.in_flight)
        submit = self.service.submit
        gc.collect()
        # The closed loop leaves no gap to probe in: before and after.
        if tally.probe is not None:
            tally.probe.sample(4)
        pass_start = clock()
        for slot, request in enumerate(sequence):
            gate.acquire()
            start = clock()
            try:
                future = submit(request.kernel, queries=request.queries, **request.options)
            except Exception:  # rejected: accounted as lost below
                latencies[slot] = clock() - start
                gate.release()
                continue
            futures[slot] = future
            future.add_done_callback(_stamp(latencies, slot, start, gate.release))
        # Every permit back means every callback has run.
        for _ in range(self.in_flight):
            gate.acquire(timeout=WAIT_TIMEOUT_S)
        pass_end = clock()
        if tally.probe is not None:
            tally.probe.sample(4)
        tally.pass_windows.append((pass_start, pass_end))
        tally.pass_walls.append(pass_end - pass_start)
        tally.pass_latencies.append(latencies)
        self.account(sequence, futures, tally)


class ServiceSteady(Workload):
    """The paper's task kernels, all warm, four in flight through two
    cache-affinity shards: replay takes 0.1-3 ms, so admission,
    placement, queueing and future resolution are a large share of
    every request."""

    name = "service-steady"
    pass_s = 0.11

    def setup(self, seed: int, tiny: bool, metrics: bool = False) -> WorkloadState:
        pool = kernels.paper_task_requests(
            seed, kernels.TINY_MIX if tiny else kernels.STEADY_MIX
        )
        service = ReasonService(shards=2, policy="cache-affinity", metrics=metrics or None)
        return SteadyState(service, pool, lambda index: self.rng(seed, index))


class ChurnState(ServiceState):
    """Bursts through ``submit_batch``, each waited out."""

    burst = 64
    #: Places the ranking turns between bursts; coprime to any pool size
    #: in use, so the ranking only repeats after as many bursts as the
    #: pool has kernels.
    TURN = 27

    def __init__(self, service, pool, rng_for_pass, bursts: int):
        self.bursts = bursts
        self.requests_per_pass = bursts * self.burst
        self.weights = [1.0 / rank for rank in range(1, len(pool) + 1)]
        super().__init__(service, pool, rng_for_pass)

    def sequence(self, index: int) -> List[KernelRequest]:
        """Zipf(1) draws over the pool, ranked anew for every burst by
        turning the ranking :data:`TURN` places on: popularity drifts,
        and over a run every kernel holds every rank about equally
        often.  The kernel ranked first takes a fifth of a burst and
        kernels differ tenfold in cost and a hundredfold in modeled
        cycles, so with rankings drawn at random — one per pass at first
        — a run's median pass and its modeled totals hung on the seed's
        draws by several percent."""
        rng = self.rng_for_pass(index)
        sequence: List[KernelRequest] = []
        for burst in range(index * self.bursts, (index + 1) * self.bursts):
            turn = burst * self.TURN % len(self.pool)
            ranked = self.pool[turn:] + self.pool[:turn]
            sequence += rng.choices(ranked, self.weights, k=self.burst)
        return sequence

    def run_pass(self, index: int, tally: Tally) -> None:
        sequence = self.sequence(index)
        gc.collect()
        wall = 0.0
        pass_latencies: List[float] = []
        probe = tally.probe
        pass_start = clock()
        for first in range(0, len(sequence), self.burst):
            draw = sequence[first : first + self.burst]
            batch = [request.kernel for request in draw]
            latencies = [0.0] * len(draw)
            if probe is not None:
                probe.sample(4)
            start = clock()
            try:
                futures = self.service.submit_batch(batch)
            except Exception as error:  # all-or-nothing rejection
                elapsed = clock() - start
                wall += elapsed
                pass_latencies.extend([elapsed] * len(draw))
                for request in draw:
                    tally.lost(f"{request.name}: {type(error).__name__}: {error}")
                continue
            for slot, future in enumerate(futures):
                future.add_done_callback(_stamp(latencies, slot, start))
            concurrent.futures.wait(futures, timeout=WAIT_TIMEOUT_S)
            wall += clock() - start
            # wait() can return before the last callback has stamped.
            patience = clock() + WAIT_TIMEOUT_S
            while not all(latencies) and clock() < patience:
                time.sleep(0)
            pass_latencies.extend(latencies)
            self.account(draw, futures, tally)
        if probe is not None:
            probe.sample(4)
        tally.pass_windows.append((pass_start, clock()))
        tally.pass_latencies.append(pass_latencies)
        tally.pass_walls.append(wall)


class ServiceChurn(Workload):
    """Zipf(1) bursts of 64 over 64 distinct kernels through two
    round-robin shards with 8-entry LRUs over a shared store: most
    lookups miss locally, so batch admission, store hits, promotion,
    eviction and 32-deep queues set the latency."""

    name = "service-churn"
    pass_s = 0.19
    distinct = 64
    bursts = 4

    def pool(self, seed: int, tiny: bool, config) -> List[KernelRequest]:
        """Half paper-task kernels (deduplicated: some tasks share one
        kernel), half small generated ones."""
        rng = self.rng(seed)
        distinct = 16 if tiny else self.distinct
        seen, pool = set(), []
        mix = kernels.TINY_MIX if tiny else kernels.CHURN_MIX
        for request in kernels.paper_task_requests(seed, mix):
            key = fingerprint_of(request, config)
            if key not in seen:
                seen.add(key)
                pool.append(request)
        pool = pool[: distinct // 2]
        for slot in range(distinct - len(pool)):
            pool.append(kernels.small_request(rng, slot))
        rng.shuffle(pool)  # the order is the first burst's ranking
        return pool

    def setup(self, seed: int, tiny: bool, metrics: bool = False) -> WorkloadState:
        pool = self.pool(seed, tiny, DEFAULT_CONFIG)
        service = ReasonService(
            shards=2,
            policy="round-robin",
            store="shared",
            cache_capacity=8,
            metrics=metrics or None,
        )
        return ChurnState(
            service, pool, lambda index: self.rng(seed, index), 2 if tiny else self.bursts
        )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (ColdLogic(), ColdProb(), WarmReplay(), ServiceSteady(), ServiceChurn())
}
