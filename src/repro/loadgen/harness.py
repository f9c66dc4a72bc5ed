"""The closed-loop load harness: scheduled arrivals driving a front door.

:func:`run_load` replays a precomputed Poisson/diurnal arrival schedule
(:mod:`repro.loadgen.arrivals`) with a Zipf-skewed network shape stream
(:mod:`repro.loadgen.workload`) against any :class:`SelectionTarget` —
an in-process :class:`~repro.serving.router.FleetRouter` or a
process-parallel :class:`~repro.shard.ShardedFleet` — from a pool of
worker threads.  Each worker owns a strided slice of the schedule and
walks it in chunks: a chunk of one is a ``select``, a larger chunk one
``select_batch`` (the natural unit for a front door that shards by
shape hash and micro-batches per worker).  Under pacing the worker
sleeps until a chunk's first arrival is due, counting every arrival
that was already overdue when the chunk was reached as late.  Each
decision is retired with ``complete`` — so the ``least-outstanding``
policy sees real in-flight load.  Latency goes straight into
``loadgen.request_seconds`` in the shared obs registry; the report
reads p50/p99/p999 back out of the histograms rather than keeping
per-request samples.

Two hooks support the drift/adaptive scenarios
(:mod:`repro.loadgen.drift`): ``on_request`` observes every completed
request with its global schedule index and due time, and
``LoadgenConfig.pace=False`` replays the schedule as fast as possible
(due times become virtual time — deterministic drift phases without
wall-clock sleeps).
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Protocol, Sequence, Tuple

from repro.loadgen.arrivals import RateProfile, poisson_arrivals
from repro.loadgen.report import LoadReport, WorkerLoad
from repro.loadgen.workload import DEFAULT_NETWORKS, ShapeStream, network_shape_pool
from repro.obs.registry import MetricsRegistry, merged_summary
from repro.serving.router import FleetRouter, RoutedDecision
from repro.workloads.gemm import GemmShape

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.adaptive.bandit import AdaptiveConfig
    from repro.core.deploy import DeployedSelector

__all__ = [
    "LoadgenConfig",
    "SelectionTarget",
    "SyntheticFleet",
    "run_load",
    "synthetic_deployed",
    "synthetic_fleet",
]

#: A worker this far behind schedule counts the arrival as late.
_LATE_TOLERANCE_S = 1e-3

#: Observes (schedule index, due seconds, shape, routed decision) after
#: each completed request — the feedback tap for adaptive scenarios.
RequestHook = Callable[[int, float, GemmShape, RoutedDecision], None]

#: One scheduled arrival: (schedule index, due seconds, shape).
_Arrival = Tuple[int, float, GemmShape]
_due = itemgetter(1)


class SelectionTarget(Protocol):
    """The front-door surface :func:`run_load` drives.

    :class:`~repro.serving.router.FleetRouter` and
    :class:`~repro.shard.ShardedFleet` both provide it.  A target may
    also offer ``pull_metrics()``; the driver calls it after the run so
    remote metrics are merged before the report reads them.
    """

    @property
    def registry(self) -> MetricsRegistry: ...

    def select(
        self, shape: GemmShape, *, policy: Optional[str] = None
    ) -> RoutedDecision: ...

    def select_batch(
        self, shapes: Sequence[GemmShape], *, policy: Optional[str] = None
    ) -> Tuple[RoutedDecision, ...]: ...

    def complete(self, device_id: str, n: int = 1) -> None: ...


@dataclass(frozen=True)
class LoadgenConfig:
    """One load run: how much traffic, shaped how, served by whom."""

    profile: RateProfile = field(
        default_factory=lambda: RateProfile(base_qps=1000.0)
    )
    duration_s: float = 5.0
    workers: int = 4
    networks: Tuple[str, ...] = DEFAULT_NETWORKS
    zipf_skew: float = 1.1
    seed: int = 0
    #: Routing policy per request; None uses the router's default.
    routing_policy: Optional[str] = None
    #: False replays the schedule flat-out: no sleeping, no lateness —
    #: due times act as virtual time (deterministic drift phases).
    pace: bool = True

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be > 0, got {self.duration_s}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


class _Worker(threading.Thread):
    """One generator thread: a strided slice of the schedule, in chunks."""

    def __init__(
        self,
        target: SelectionTarget,
        work: List[_Arrival],
        chunk_size: int,
        policy: Optional[str],
        barrier: threading.Barrier,
        h_request,
        pace: bool,
        on_request: Optional[RequestHook],
    ):
        super().__init__(daemon=True)
        self._target = target
        self._chunks = [
            work[at : at + chunk_size] for at in range(0, len(work), chunk_size)
        ]
        self._policy = policy
        self._barrier = barrier
        self._h_request = h_request
        self._pace = pace
        self._on_request = on_request
        self.offered = len(work)
        self.completed = 0
        self.late = 0
        self.rerouted = 0
        self.dispatched: Dict[str, int] = {}
        self.start_s = 0.0
        self.end_s = 0.0
        self.error: Optional[BaseException] = None

    def run(self) -> None:  # pragma: no cover - exercised via run_load
        try:
            self._run()
        except BaseException as exc:
            self.error = exc

    def _run(self) -> None:
        target = self._target
        observe_n = self._h_request.observe_n
        policy = self._policy
        pace = self._pace
        on_request = self._on_request
        dispatched = self.dispatched
        self._barrier.wait()
        t0 = time.perf_counter()
        self.start_s = t0
        for chunk in self._chunks:
            if pace:
                now = time.perf_counter() - t0
                wait = chunk[0][1] - now
                if wait > 0:
                    time.sleep(wait)
                else:
                    # Dues ascend within a chunk: the overdue arrivals
                    # are a prefix.
                    self.late += bisect_left(
                        chunk, now - _LATE_TOLERANCE_S, key=_due
                    )
            n = len(chunk)
            begin = time.perf_counter()
            if n == 1:
                decisions: Sequence[RoutedDecision] = (
                    target.select(chunk[0][2], policy=policy),
                )
            else:
                decisions = target.select_batch(
                    [shape for _, _, shape in chunk], policy=policy
                )
            observe_n((time.perf_counter() - begin) / n, n)
            for decision in decisions:
                device = decision.device_id
                dispatched[device] = dispatched.get(device, 0) + 1
                if decision.rerouted:
                    self.rerouted += 1
                target.complete(device)
            if on_request is not None:
                for (index, due, shape), decision in zip(chunk, decisions):
                    on_request(index, due, shape, decision)
            self.completed += n
        self.end_s = time.perf_counter()


def run_load(
    target: SelectionTarget,
    config: LoadgenConfig,
    *,
    registry: Optional[MetricsRegistry] = None,
    on_request: Optional[RequestHook] = None,
    chunk_size: int = 1,
) -> LoadReport:
    """Run one load scenario against a front door; returns the report.

    ``registry`` is where the generator's own metrics go and where the
    service-side ``serving.lookup_seconds`` histograms are read back
    from — pass the registry the fleet's services share (defaults to
    the target's).  ``on_request`` is called after every completed
    request with ``(schedule index, due seconds, shape, decision)``;
    exceptions it raises abort the run.  ``chunk_size`` is how many
    arrivals a worker issues per call: 1 uses ``select``, more use
    ``select_batch``.  ``config.routing_policy`` is passed to both
    (a sharded fleet ignores it — routing is the shard hash).
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    registry = registry if registry is not None else target.registry
    h_request = registry.histogram("loadgen.request_seconds")
    c_requests = registry.counter("loadgen.requests")
    c_late = registry.counter("loadgen.late_arrivals")

    arrivals = poisson_arrivals(
        config.profile, config.duration_s, seed=config.seed
    )
    stream = ShapeStream(
        network_shape_pool(config.networks),
        skew=config.zipf_skew,
        seed=config.seed + 1,
    )
    shapes = stream.take(len(arrivals))
    schedule = [
        (index, due, shape)
        for index, (due, shape) in enumerate(zip(arrivals, shapes))
    ]

    n_workers = min(config.workers, max(1, len(schedule)))
    barrier = threading.Barrier(n_workers)
    workers = [
        _Worker(
            target,
            schedule[i::n_workers],
            chunk_size,
            config.routing_policy,
            barrier,
            h_request,
            config.pace,
            on_request,
        )
        for i in range(n_workers)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    for worker in workers:
        if worker.error is not None:
            raise worker.error

    completed = sum(w.completed for w in workers)
    late = sum(w.late for w in workers)
    rerouted = sum(w.rerouted for w in workers)
    dispatched: Dict[str, int] = {}
    for worker in workers:
        for device, count in worker.dispatched.items():
            dispatched[device] = dispatched.get(device, 0) + count
    c_requests.inc(completed)
    c_late.inc(late)

    # A sharded fleet merges every worker process's obs delta here, so
    # lookup_latency below is the fleet-wide view, not the front door's.
    pull_metrics = getattr(target, "pull_metrics", None)
    if pull_metrics is not None:
        pull_metrics()

    if schedule:
        wall = max(w.end_s for w in workers) - min(w.start_s for w in workers)
    else:
        wall = 0.0
    per_worker = tuple(
        WorkerLoad(
            worker=i,
            offered=w.offered,
            completed=w.completed,
            late=w.late,
            offered_qps=w.offered / config.duration_s,
            achieved_qps=(
                w.completed / (w.end_s - w.start_s)
                if w.end_s > w.start_s
                else 0.0
            ),
        )
        for i, w in enumerate(workers)
    )
    return LoadReport(
        duration_s=config.duration_s,
        wall_s=wall,
        offered=len(schedule),
        completed=completed,
        late=late,
        achieved_qps=completed / wall if wall > 0 else 0.0,
        request_latency=h_request.summary(),
        lookup_latency=merged_summary(registry, "serving.lookup_seconds"),
        dispatched=dispatched,
        rerouted=rerouted,
        paced=config.pace,
        workers=per_worker,
    )


@dataclass(frozen=True)
class SyntheticFleet:
    """A synthetic replica fleet plus the pieces drift scenarios need.

    ``services`` maps device ids to the objects registered with the
    router — plain :class:`~repro.serving.SelectionService` instances,
    or :class:`~repro.serving.adaptive.AdaptiveSelectionService`
    wrappers when built with ``adaptive=``.
    """

    router: FleetRouter
    deployed: "DeployedSelector"
    services: Dict[str, object]
    registry: MetricsRegistry


def synthetic_deployed(
    *, budget: int = 4, seed: int = 0
) -> "DeployedSelector":
    """A tuned selector over synthetic measurements — sub-second setup.

    Generates a reduced performance dataset (small configuration space
    over every 7th network shape) and tunes a decision-tree
    :class:`~repro.core.deploy.DeployedSelector` on it.  The common
    fixture behind :func:`synthetic_fleet` and the process-parallel
    shard demos (:class:`~repro.shard.ShardedFleet.from_deployed`).
    """
    from repro.bench.runner import BenchmarkRunner, RunnerConfig
    from repro.core.dataset import PerformanceDataset
    from repro.core.deploy import tune
    from repro.kernels.params import config_space
    from repro.sycl.device import Device
    from repro.workloads.extract import extract_dataset_shapes

    configs = config_space(
        tile_sizes=(1, 2, 4),
        work_groups=((8, 8), (1, 64), (16, 16), (64, 1)),
    )
    all_shapes, _ = extract_dataset_shapes()
    runner = BenchmarkRunner(
        Device.r9_nano(),
        configs=configs,
        runner_config=RunnerConfig(
            warmup_iterations=1, timed_iterations=3, seed=seed
        ),
    )
    dataset = PerformanceDataset.from_benchmark(runner.run(all_shapes[::7]))
    return tune(dataset, n_configs=budget, random_state=seed)


def synthetic_fleet(
    *,
    replicas: int = 2,
    registry: Optional[MetricsRegistry] = None,
    routing_policy: str = "round-robin",
    cache_capacity: int = 4096,
    budget: int = 4,
    seed: int = 0,
    compiled: bool = False,
    adaptive: Optional["AdaptiveConfig"] = None,
) -> SyntheticFleet:
    """A self-contained fleet for load runs: N replicas of one selector.

    Builds a :func:`synthetic_deployed` selector and fronts it with
    ``replicas`` identical :class:`~repro.serving.SelectionService`
    instances named ``dev0..devN-1`` behind one router.  With
    ``compiled=True`` each service fronts the selector's
    :meth:`~repro.core.deploy.DeployedSelector.compiled` hot path
    instead of the NumPy tree walk.  With ``adaptive=`` each service is
    wrapped in an
    :class:`~repro.serving.adaptive.AdaptiveSelectionService` carrying
    that config (each replica adapts independently).
    """
    from repro.serving.service import SelectionService

    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    registry = registry if registry is not None else MetricsRegistry()
    deployed = synthetic_deployed(budget=budget, seed=seed)
    policy = deployed.compiled() if compiled else deployed
    fallback = deployed.library.configs[0]
    router = FleetRouter(default_policy=routing_policy, registry=registry)
    services: Dict[str, object] = {}
    candidates = tuple(deployed.library.configs)
    for i in range(replicas):
        name = f"dev{i}"
        service: object = SelectionService(
            policy,
            capacity=cache_capacity,
            fallback=fallback,
            registry=registry,
            name=name,
        )
        if adaptive is not None:
            from repro.serving.adaptive import AdaptiveSelectionService

            service = AdaptiveSelectionService(
                service,  # type: ignore[arg-type]
                config=adaptive,
                candidates=candidates,
                registry=registry,
                name=name,
            )
        services[name] = service
        router.add_device(name, service, library=candidates)
    return SyntheticFleet(
        router=router,
        deployed=deployed,
        services=services,
        registry=registry,
    )

