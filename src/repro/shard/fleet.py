"""The sharded front door: N worker processes behind one select().

:class:`ShardedFleet` owns a pool of worker processes (each a full
:class:`~repro.serving.service.SelectionService` replica rebuilt from
the same digest-verified mapped artifact) and presents the router
surface the load harness already speaks: ``select`` returning a
:class:`~repro.serving.router.RoutedDecision`, ``select_batch``,
``complete`` and a ``registry``.

Design, layer by layer:

* **Sharding** — shapes route to ``shard_of(key) % N``: the same shape
  always lands on the same worker, so per-worker snapshot caches stay
  hot and never duplicate across the fleet.
* **Micro-batching** — one dispatcher thread per worker owns that
  worker's pipe.  The first queued request starts a batch; the
  dispatcher then drains the queue for up to ``batch_wait_s`` (or until
  ``max_batch`` shapes) before flushing one ``select`` message, so K
  concurrent callers cost one IPC round trip, not K.
* **Failover** — any pipe failure or reply timeout marks the worker
  dead, restarts it (fresh process, same mapped bytes) and requeues the
  in-flight batch on a healthy slot: callers see ``rerouted=True``,
  never an error.  A heartbeat monitor pings idle workers so silent
  deaths are noticed without traffic.
* **Obs aggregation** — workers ship incremental
  :meth:`~repro.obs.registry.MetricsRegistry.snapshot` deltas
  (:class:`~repro.obs.aggregate.SnapshotDeltaTracker`) over the same
  pipe; :meth:`pull_metrics` merges them into the fleet registry, so
  :func:`~repro.obs.registry.merged_summary` of
  ``serving.lookup_seconds`` over ``fleet.registry`` summarises the
  fleet-wide latency distribution and counter totals are exact.

The front door also keeps its own ``shard.requests`` / ``shard.decisions``
counters on the submit/resolve path — those are exact even when a
worker dies mid-batch and takes its unsent delta tail with it.
"""

from __future__ import annotations

import itertools
import multiprocessing
import queue
import shutil
import tempfile
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import HistogramSummary
from repro.obs.registry import MetricsRegistry, merged_summary
from repro.pipeline.mapped import read_mapped_meta
from repro.serving.router import RoutedDecision
from repro.shard.protocol import WorkerSpec, shard_of
from repro.shard.worker import worker_main
from repro.workloads.gemm import GemmShape

__all__ = ["ShardedFleet", "ShardStats", "WorkerStartupError"]

#: Bucket bounds for the micro-batch size histogram (shapes per flush).
_BATCH_SIZE_BOUNDS = tuple(float(2**i) for i in range(13))  # 1 .. 4096


class WorkerStartupError(RuntimeError):
    """A shard worker failed its startup handshake."""


class _Shutdown:
    """Queue sentinel: drain, stop the worker, exit the dispatcher."""


_SHUTDOWN = _Shutdown()


class _Item:
    """One submitted request group (all keys share a shard)."""

    __slots__ = ("keys", "n", "future", "rerouted")

    def __init__(self, keys: Tuple[Tuple[int, ...], ...], rerouted: bool):
        self.keys = keys
        self.n = len(keys)
        self.future: Future = Future()
        self.rerouted = rerouted


class _Control:
    """An in-band control request (serialized with traffic per slot)."""

    __slots__ = ("kind", "future")

    def __init__(self, kind: str):
        self.kind = kind
        self.future: Future = Future()


@dataclass(frozen=True)
class WorkerInfo:
    """One worker's externally visible state."""

    name: str
    pid: Optional[int]
    alive: bool
    restarts: int


@dataclass(frozen=True)
class ShardStats:
    """Fleet-wide counters plus the merged latency view."""

    workers: Tuple[WorkerInfo, ...]
    requests: int
    decisions: int
    rerouted: int
    restarts: int
    batches: int
    mean_batch_size: float
    dispatched: Dict[str, int]
    lookup_latency: Optional[HistogramSummary]
    request_latency: Optional[HistogramSummary]

    def render(self) -> str:
        alive = sum(1 for w in self.workers if w.alive)
        lines = [
            (
                f"fleet: {alive}/{len(self.workers)} workers alive, "
                f"{self.requests} requests -> {self.decisions} decisions "
                f"({self.rerouted} rerouted, {self.restarts} restarts)"
            ),
            (
                f"batching: {self.batches} flushes, mean batch "
                f"{self.mean_batch_size:.1f} shapes"
            ),
        ]
        if self.dispatched:
            per_worker = "  ".join(
                f"{name}={count}"
                for name, count in sorted(self.dispatched.items())
            )
            lines.append(f"dispatch: {per_worker}")
        if self.lookup_latency is not None:
            lines.append(
                f"fleet-wide lookup: {self.lookup_latency.render()}"
            )
        if self.request_latency is not None:
            lines.append(
                f"front-door request: {self.request_latency.render()}"
            )
        return "\n".join(lines)


class _Slot:
    """One worker process, its pipe, its queue, its dispatcher thread."""

    def __init__(self, fleet: "ShardedFleet", index: int):
        self.fleet = fleet
        self.index = index
        self.name = f"{fleet._name_prefix}{index}"
        self.queue: "queue.Queue" = queue.Queue()
        self.conn: Optional[Any] = None
        self.proc: Optional[Any] = None
        self.alive = False
        self.restarts = 0
        self.last_reply = time.monotonic()
        self._ping_pending = False
        self._req_ids = itertools.count()
        self.thread = threading.Thread(
            target=self._dispatch_loop, name=f"shard-{self.name}", daemon=True
        )

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid if self.proc is not None else None

    # -- worker lifecycle ----------------------------------------------------

    def start_worker(self) -> None:
        """Fork/spawn the worker and wait for its startup handshake."""
        fleet = self.fleet
        parent_conn, child_conn = fleet._ctx.Pipe()
        spec = WorkerSpec(
            name=self.name,
            mapped_dir=str(fleet._mapped_dir),
            digest=fleet.digest,
            compiled=fleet._compiled,
            cache_capacity=fleet._cache_capacity,
            verify=fleet._verify,
        )
        proc = fleet._ctx.Process(
            target=worker_main,
            args=(child_conn, spec),
            name=f"repro-shard-{self.name}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        try:
            if not parent_conn.poll(fleet._startup_timeout_s):
                raise WorkerStartupError(
                    f"worker {self.name} sent no handshake within "
                    f"{fleet._startup_timeout_s:.0f} s"
                )
            handshake = parent_conn.recv()
        except WorkerStartupError:
            parent_conn.close()
            proc.kill()
            proc.join(timeout=2.0)
            raise
        except (EOFError, OSError) as exc:
            parent_conn.close()
            proc.join(timeout=2.0)
            raise WorkerStartupError(
                f"worker {self.name} died during startup: {exc!r}"
            ) from exc
        if handshake[0] == "fatal":
            parent_conn.close()
            proc.join(timeout=2.0)
            raise WorkerStartupError(
                f"worker {self.name} failed to start: {handshake[1]}"
            )
        if handshake[0] != "ready":
            parent_conn.close()
            proc.kill()
            proc.join(timeout=2.0)
            raise WorkerStartupError(
                f"worker {self.name} sent unexpected handshake "
                f"{handshake[0]!r}"
            )
        self.conn = parent_conn
        self.proc = proc
        self.alive = True
        self.last_reply = time.monotonic()

    def _teardown_worker(self) -> None:
        self.alive = False
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:
                pass
            self.conn = None
        if self.proc is not None:
            if self.proc.is_alive():
                self.proc.kill()
            self.proc.join(timeout=2.0)

    # -- dispatcher ----------------------------------------------------------

    def _dispatch_loop(self) -> None:
        fleet = self.fleet
        while True:
            item = self.queue.get()
            if item is _SHUTDOWN:
                self._stop_worker()
                return
            if isinstance(item, _Control):
                self._handle_control(item)
                continue
            batch = [item]
            total = item.n
            controls: List[_Control] = []
            stop = False
            # Drain the immediate backlog without sleeping, then wait a
            # bounded window for stragglers — but only while the batch
            # is still small: a bulk submission past ``flush_min``
            # flushes at once instead of paying the wait.
            deadline = time.monotonic() + fleet._batch_wait_s
            while total < fleet._max_batch:
                try:
                    nxt = self.queue.get_nowait()
                except queue.Empty:
                    if total >= fleet._flush_min:
                        break
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    try:
                        nxt = self.queue.get(timeout=remaining)
                    except queue.Empty:
                        break
                if nxt is _SHUTDOWN:
                    stop = True
                    break
                if isinstance(nxt, _Control):
                    controls.append(nxt)
                    continue
                batch.append(nxt)
                total += nxt.n
            self._serve_batch(batch)
            for control in controls:
                self._handle_control(control)
            if stop:
                self._stop_worker()
                return

    def _roundtrip(self, request: Tuple[Any, ...], req_id: int) -> Any:
        """One request/reply exchange; raises on any transport fault."""
        conn = self.conn
        if conn is None:
            raise OSError(f"worker {self.name} has no live connection")
        conn.send(request)
        if not conn.poll(self.fleet._request_timeout_s):
            raise TimeoutError(
                f"worker {self.name} sent no reply within "
                f"{self.fleet._request_timeout_s:.0f} s"
            )
        reply = conn.recv()
        if reply[0] == "fatal":
            raise RuntimeError(f"worker {self.name} fatal: {reply[1]}")
        if len(reply) > 1 and reply[1] != req_id:
            raise RuntimeError(
                f"worker {self.name} protocol error: reply "
                f"{reply[0]!r}/{reply[1]} to request {req_id}"
            )
        self.last_reply = time.monotonic()
        return reply

    def _serve_batch(self, batch: List[_Item]) -> None:
        fleet = self.fleet
        keys: List[Tuple[int, ...]] = []
        for item in batch:
            keys.extend(item.keys)
        req_id = next(self._req_ids)
        try:
            reply = self._roundtrip(("select", req_id, keys), req_id)
        except (OSError, EOFError, BrokenPipeError, TimeoutError, RuntimeError) as exc:
            self._worker_failed(batch, exc)
            return
        indices = reply[2]
        fleet._c_batches.inc()
        fleet._h_batch_size.observe(float(len(keys)))
        fleet._dispatched_counter(self.name).inc(len(keys))
        position = 0
        library = fleet.library
        for item in batch:
            chosen = tuple(
                library[i] for i in indices[position : position + item.n]
            )
            position += item.n
            fleet._c_decisions.inc(item.n)
            item.future.set_result((self.index, chosen, item.rerouted))

    def _handle_control(self, control: _Control) -> None:
        fleet = self.fleet
        req_id = next(self._req_ids)
        try:
            if control.kind == "snapshot":
                reply = self._roundtrip(("snapshot", req_id), req_id)
                fleet.registry.merge_snapshot(reply[2])
                control.future.set_result(True)
            elif control.kind == "ping":
                self._roundtrip(("ping", req_id), req_id)
                self._ping_pending = False
                control.future.set_result(True)
            else:  # pragma: no cover - internal misuse
                control.future.set_result(False)
        except (OSError, EOFError, BrokenPipeError, TimeoutError, RuntimeError) as exc:
            self._ping_pending = False
            control.future.set_result(False)
            self._worker_failed([], exc)

    def _worker_failed(self, batch: List[_Item], exc: BaseException) -> None:
        """Failover: tear down, restart, reroute the in-flight batch."""
        fleet = self.fleet
        was_alive = self.alive
        self._teardown_worker()
        if was_alive:
            fleet._g_alive.dec()
        restarted = False
        if fleet._restart and not fleet._closing:
            try:
                self.start_worker()
                restarted = True
                self.restarts += 1
                fleet._c_restarts.inc()
                fleet._g_alive.inc()
            except WorkerStartupError:
                restarted = False
        if not batch:
            return
        rerouted = sum(item.n for item in batch)
        fleet._c_rerouted.inc(rerouted)
        target = fleet._healthy_slot(exclude=self.index)
        if target is None and restarted:
            target = self
        for item in batch:
            item.rerouted = True
            if target is None:
                item.future.set_exception(
                    RuntimeError(
                        f"no healthy shard workers left "
                        f"(last failure on {self.name}: {exc})"
                    )
                )
            else:
                target.queue.put(item)

    def _stop_worker(self) -> None:
        """Graceful drain: final metrics delta, then a clean exit."""
        fleet = self.fleet
        if self.conn is not None and self.alive:
            try:
                self.conn.send(("stop",))
                if self.conn.poll(2.0):
                    reply = self.conn.recv()
                    if reply[0] == "stopped":
                        fleet.registry.merge_snapshot(reply[1])
            except (OSError, EOFError, BrokenPipeError):
                pass
        self._teardown_worker()


class ShardedFleet:
    """N selector worker processes behind one routed ``select`` surface.

    Built from a mapped selector layout (see
    :func:`repro.pipeline.mapped.write_mapped_selector`); every worker
    maps the same bytes read-only, so memory cost is one tree no matter
    how many processes serve it.  Provides the
    :class:`~repro.loadgen.harness.SelectionTarget` surface the load
    driver uses (``select``/``select_batch``/``complete``/``registry``).
    """

    def __init__(
        self,
        mapped_dir: Path,
        *,
        processes: int = 2,
        compiled: bool = False,
        cache_capacity: int = 4096,
        batch_wait_s: float = 0.0005,
        max_batch: int = 512,
        flush_min: int = 32,
        request_timeout_s: float = 30.0,
        startup_timeout_s: float = 60.0,
        heartbeat_interval_s: float = 1.0,
        restart: bool = True,
        verify: bool = True,
        registry: Optional[MetricsRegistry] = None,
        mp_context: Optional[Any] = None,
        name_prefix: str = "worker",
        _owned_tempdir: Optional[Path] = None,
    ):
        if processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._mapped_dir = Path(mapped_dir)
        self._owned_tempdir = _owned_tempdir
        meta = read_mapped_meta(self._mapped_dir)
        #: The digest every worker must agree on before serving.
        self.digest: str = str(meta["digest"])
        #: The shared pruned library; workers answer indices into it.
        self.library: Tuple[Any, ...] = tuple(meta["pruned"].configs)
        self._compiled = compiled
        self._cache_capacity = cache_capacity
        self._batch_wait_s = batch_wait_s
        self._max_batch = max_batch
        self._flush_min = max(1, min(flush_min, max_batch))
        self._request_timeout_s = request_timeout_s
        self._startup_timeout_s = startup_timeout_s
        self._heartbeat_interval_s = heartbeat_interval_s
        self._restart = restart
        self._verify = verify
        self._name_prefix = name_prefix
        self._closing = False
        self.registry = registry if registry is not None else MetricsRegistry()
        if isinstance(mp_context, str):
            self._ctx = multiprocessing.get_context(mp_context)
        elif mp_context is not None:
            self._ctx = mp_context
        elif "fork" in multiprocessing.get_all_start_methods():
            self._ctx = multiprocessing.get_context("fork")
        else:  # pragma: no cover - non-POSIX fallback
            self._ctx = multiprocessing.get_context()

        reg = self.registry
        self._c_requests = reg.counter("shard.requests")
        self._c_decisions = reg.counter("shard.decisions")
        self._c_rerouted = reg.counter("shard.rerouted")
        self._c_restarts = reg.counter("shard.restarts")
        self._c_batches = reg.counter("shard.batches")
        self._h_batch_size = reg.histogram(
            "shard.batch_size", bounds=_BATCH_SIZE_BOUNDS
        )
        self._h_request = reg.histogram("shard.request_seconds")
        reg.gauge("shard.workers").set(processes)
        self._g_alive = reg.gauge("shard.workers_alive")

        self._slots = [_Slot(self, i) for i in range(processes)]
        started: List[_Slot] = []
        try:
            for slot in self._slots:
                slot.start_worker()
                started.append(slot)
                self._g_alive.inc()
        except WorkerStartupError:
            for slot in started:
                slot._teardown_worker()
            self._cleanup_tempdir()
            raise
        for slot in self._slots:
            slot.thread.start()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="shard-monitor", daemon=True
        )
        self._monitor.start()

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_deployed(
        cls, deployed: Any, **kwargs: Any
    ) -> "ShardedFleet":
        """Export ``deployed`` to a private mapped layout and serve it.

        The temporary export directory belongs to the fleet and is
        removed by :meth:`close`.
        """
        from repro.pipeline.mapped import write_mapped_selector

        tempdir = Path(tempfile.mkdtemp(prefix="repro-shard-"))
        write_mapped_selector(deployed, tempdir / "selector")
        return cls(
            tempdir / "selector", _owned_tempdir=tempdir, **kwargs
        )

    @classmethod
    def from_artifact(
        cls, store: Any, artifact_id: str, **kwargs: Any
    ) -> "ShardedFleet":
        """Serve a ``selector`` artifact straight from the store.

        The artifact's payload is the mapped layout, so workers map the
        store's bytes directly.
        """
        artifact = store.resolve(artifact_id)
        if artifact is None:
            raise KeyError(f"cannot resolve artifact {artifact_id!r}")
        return cls(
            store.root
            / "objects"
            / artifact.provenance.fingerprint
            / "payload"
            / "mapped",
            **kwargs,
        )

    # -- serving surface -----------------------------------------------------

    def select(
        self, shape: GemmShape, *, policy: Optional[str] = None
    ) -> RoutedDecision:
        """One routed lookup (``policy`` accepted for router parity)."""
        item = self._submit((tuple(shape.as_tuple()),))
        start = time.perf_counter()
        slot_index, configs, rerouted = item.future.result(
            timeout=self._result_timeout_s()
        )
        self._h_request.observe(time.perf_counter() - start)
        return RoutedDecision(
            device_id=self._slots[slot_index].name,
            config=configs[0],
            rerouted=rerouted,
        )

    def select_batch(
        self, shapes: Sequence[GemmShape], *, policy: Optional[str] = None
    ) -> Tuple[RoutedDecision, ...]:
        """Routed decisions for many shapes, one flush per shard.

        ``policy`` is accepted for router parity, as in :meth:`select`.
        """
        shapes = tuple(shapes)
        if not shapes:
            return ()
        n = len(self._slots)
        groups: Dict[int, List[int]] = {}
        keys = [tuple(shape.as_tuple()) for shape in shapes]
        for position, key in enumerate(keys):
            groups.setdefault(shard_of(key, n), []).append(position)
        start = time.perf_counter()
        pending = []
        for shard, positions in groups.items():
            item = self._submit(
                tuple(keys[p] for p in positions), shard=shard
            )
            pending.append((item, positions))
        out: List[Optional[RoutedDecision]] = [None] * len(shapes)
        timeout = self._result_timeout_s()
        for item, positions in pending:
            slot_index, configs, rerouted = item.future.result(timeout=timeout)
            name = self._slots[slot_index].name
            for position, config in zip(positions, configs):
                out[position] = RoutedDecision(
                    device_id=name, config=config, rerouted=rerouted
                )
        duration = time.perf_counter() - start
        self._h_request.observe_n(duration / len(shapes), len(shapes))
        return tuple(out)  # type: ignore[arg-type]

    def complete(self, device_id: str, n: int = 1) -> None:
        """Router parity: shard workers track no outstanding work."""

    def _submit(
        self,
        keys: Tuple[Tuple[int, ...], ...],
        *,
        shard: Optional[int] = None,
    ) -> _Item:
        if self._closing:
            raise RuntimeError("fleet is closed")
        if shard is None:
            shard = shard_of(keys[0], len(self._slots))
        slot = self._slots[shard]
        rerouted = False
        if not slot.alive:
            healthy = self._healthy_slot(exclude=shard)
            if healthy is not None:
                slot = healthy
                rerouted = True
        self._c_requests.inc(len(keys))
        item = _Item(keys, rerouted)
        slot.queue.put(item)
        return item

    def _healthy_slot(self, *, exclude: int) -> Optional[_Slot]:
        n = len(self._slots)
        for offset in range(1, n + 1):
            slot = self._slots[(exclude + offset) % n]
            if slot.alive and slot.index != exclude:
                return slot
        return None

    def _result_timeout_s(self) -> float:
        # Worst case a request is rerouted through every slot, each
        # allowed a full reply timeout (plus restart headroom).
        return (self._request_timeout_s + self._startup_timeout_s) * (
            len(self._slots) + 1
        )

    def _dispatched_counter(self, name: str):
        return self.registry.counter("shard.dispatched", {"worker": name})

    # -- observability -------------------------------------------------------

    def pull_metrics(self, timeout_s: float = 10.0) -> int:
        """Merge a fresh snapshot delta from every live worker.

        Returns how many workers answered; their deltas are folded into
        :attr:`registry` (exact totals — see
        :class:`~repro.obs.aggregate.SnapshotDeltaTracker`).
        """
        controls = []
        for slot in self._slots:
            if slot.alive:
                control = _Control("snapshot")
                slot.queue.put(control)
                controls.append(control)
        merged = 0
        deadline = time.monotonic() + timeout_s
        for control in controls:
            remaining = max(0.0, deadline - time.monotonic())
            try:
                if control.future.result(timeout=remaining):
                    merged += 1
            except Exception:  # noqa: BLE001 - stats must not raise
                pass
        return merged

    def stats(self, *, pull: bool = True) -> ShardStats:
        """Fleet-wide stats; ``pull=True`` refreshes worker deltas first."""
        if pull and not self._closing:
            self.pull_metrics()
        dispatched = {
            slot.name: self._dispatched_counter(slot.name).value
            for slot in self._slots
        }
        request_latency = self._h_request.summary()
        return ShardStats(
            workers=tuple(
                WorkerInfo(
                    name=slot.name,
                    pid=slot.pid,
                    alive=slot.alive,
                    restarts=slot.restarts,
                )
                for slot in self._slots
            ),
            requests=self._c_requests.value,
            decisions=self._c_decisions.value,
            rerouted=self._c_rerouted.value,
            restarts=self._c_restarts.value,
            batches=self._c_batches.value,
            mean_batch_size=self._h_batch_size.mean,
            dispatched=dispatched,
            lookup_latency=merged_summary(self.registry, "serving.lookup_seconds"),
            request_latency=request_latency if request_latency.count else None,
        )

    # -- chaos / lifecycle ---------------------------------------------------

    def kill_worker(self, index: int) -> None:
        """Chaos helper: SIGKILL one worker process (no warning, as in
        a real crash).  The next dispatch or heartbeat triggers
        failover."""
        proc = self._slots[index].proc
        if proc is not None and proc.is_alive():
            proc.kill()

    @property
    def workers_alive(self) -> int:
        return sum(1 for slot in self._slots if slot.alive)

    def _monitor_loop(self) -> None:
        interval = self._heartbeat_interval_s
        while not self._closing:
            time.sleep(interval)
            if self._closing:
                return
            now = time.monotonic()
            for slot in self._slots:
                if self._closing:
                    return
                stale = now - slot.last_reply > interval
                # Dead slots get pinged too: the failed send retries
                # the restart path until the worker comes back.
                if (stale or not slot.alive) and not slot._ping_pending:
                    slot._ping_pending = True
                    slot.queue.put(_Control("ping"))

    def close(self, timeout_s: float = 10.0) -> None:
        """Drain final metrics, stop workers, release owned resources."""
        if self._closing:
            return
        self._closing = True
        for slot in self._slots:
            slot.queue.put(_SHUTDOWN)
        deadline = time.monotonic() + timeout_s
        for slot in self._slots:
            slot.thread.join(timeout=max(0.1, deadline - time.monotonic()))
        for slot in self._slots:
            slot._teardown_worker()
        self._monitor.join(timeout=self._heartbeat_interval_s + 1.0)
        self._g_alive.set(0.0)
        self._cleanup_tempdir()

    def _cleanup_tempdir(self) -> None:
        if self._owned_tempdir is not None:
            shutil.rmtree(self._owned_tempdir, ignore_errors=True)
            self._owned_tempdir = None

    def __enter__(self) -> "ShardedFleet":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ShardedFleet({len(self._slots)} workers, "
            f"{self.workers_alive} alive, digest {self.digest[:12]})"
        )
