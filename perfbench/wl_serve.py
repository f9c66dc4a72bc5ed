"""The online workloads: ``serve-hot`` and ``serve-miss``.

Both serve the selector the paper pipeline trains on the three
networks (device placement), loaded from a pipeline ``ArtifactStore``
the way a server starts: a warm pipeline run, then ``from_artifact``.
The store lives in the checkout's work directory, one per version of
the program's source (keyed by its SHA-256), and is built in a child
process by the first run that finds it missing, so neither set-up time
nor peak memory includes the build.

Each is a closed loop with one caller thread: a framework's dispatch
thread waits on every decision, and a second caller only convoys on the
interpreter lock.  Each op is one ``FleetRouter.select`` plus
``complete``, the router fronting two ``SelectionService`` replicas that
share one metrics registry.  The traced run of ``serve-hot`` also times
a ``ShardedFleet`` of two worker processes on the seed's plan draws.

Every decision is compared with the reference tree walk, computed once
after set-up, outside the serving path and outside the timed set-up.
"""

from __future__ import annotations

import gc
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from common import (
    ROOT,
    SRC,
    WORK,
    Ops,
    Speed,
    geomean_vs_best,
    import_program,
    intervals,
    loop_rates,
    per_call_s,
    reference_configs,
    src_sha256,
    timings,
    vm_hwm_mb,
)
from inputs import ServeInputs, network_plans, network_shapes
from tracing import SpanRecorder, span_cost_s

IMPORTS = (
    "repro.pipeline.executor",
    "repro.pipeline.paper",
    "repro.serving",
    "repro.shard",
)
SERVE_STAGES = ("sweep", "dataset", "split", "prune", "train")
REPLICAS = ("replica-0", "replica-1")
SHARD_PROCESSES = 2
N_CONFIGS = 8
SETUP_REPS = 5
RETUNE_REPS = 20
#: Untimed ops before measuring: lets the memo caches reach steady state
#: (``serve-miss`` needs both replicas' 4,096-entry memos full: 10,000
#: uniform draws each from 20,000 shapes hit about 7,900 of them).
WARMUP_OPS = {"serve-hot": 20_000, "serve-miss": 20_000}
#: Plans the traced run sends through the sharded fleet.
SHARD_PLANS = 300


def _pipeline_run(store):
    """The paper pipeline up to the trained selector, against ``store``."""
    from repro.pipeline.executor import PipelineExecutor
    from repro.pipeline.paper import paper_params, paper_pipeline
    from repro.pipeline.stage import Pipeline

    full = paper_pipeline()
    pipeline = Pipeline()
    for name in SERVE_STAGES:
        pipeline.add(full[name])
    params = {k: v for k, v in paper_params().items() if k in SERVE_STAGES}
    return PipelineExecutor(store, max_workers=1).run(pipeline, params)


def _store_root() -> Path:
    """The served selector's store for this version of the program."""
    return WORK / f"serve-store-{src_sha256()[:16]}"


def build_store(root: Path) -> None:
    """Run the paper pipeline into a new store at ``root``."""
    from repro.pipeline.store import ArtifactStore

    _pipeline_run(ArtifactStore(root))
    (root / "BUILT").write_text(src_sha256() + "\n")


def prepare() -> Path:
    """The served selector's store; built in a child process when missing.

    A store built from other sources (an earlier checkout of the
    program) is removed: its selector is not this program's.
    """
    root = _store_root()
    if not (root / "BUILT").is_file():
        for stale in WORK.glob("serve-store-*"):
            shutil.rmtree(stale, ignore_errors=True)
        subprocess.run(
            [sys.executable, __file__, "--build-store", str(root)], cwd=ROOT, check=True
        )
    return root


def _counter_totals(registry) -> Dict[str, float]:
    """Counter values summed over label sets, plus histogram counts/sums."""
    from repro.obs import Counter, Histogram

    out: Dict[str, float] = {}
    for name, _, metric in registry.collect():
        if isinstance(metric, Counter):
            out[name] = out.get(name, 0) + metric.value
        elif isinstance(metric, Histogram):
            out[name + ".count"] = out.get(name + ".count", 0) + metric.count
            out[name + ".sum"] = out.get(name + ".sum", 0.0) + metric.snapshot()["sum"]
    return out


class Served:
    """One set-up of a serving workload: the program's front door.

    Construction makes only program calls (the warm pipeline run, then
    ``from_artifact`` and the router); the inputs and their references
    are attached afterwards with :meth:`feed`.
    """

    def __init__(self, root: Path):
        from repro.obs import MetricsRegistry
        from repro.pipeline.store import ArtifactStore
        from repro.serving import FleetRouter, SelectionService

        self.store = ArtifactStore(root)
        run = _pipeline_run(self.store)
        self.fingerprint = run.artifacts["train"].fingerprint
        self.deployed = run.value("train")
        self.split = run.value("split")
        self.registry = MetricsRegistry()
        self.router = FleetRouter(registry=self.registry)
        for name in REPLICAS:
            self.router.add_device(
                name,
                SelectionService.from_artifact(
                    self.store, self.fingerprint, registry=self.registry, name=name
                ),
            )

    def feed(self, inputs: ServeInputs) -> None:
        """Attach the inputs and each one's reference decision."""
        self.inputs = inputs
        self.refs = reference_configs(self.deployed, inputs.shapes)
        self.plan_refs = [reference_configs(self.deployed, plan) for plan in inputs.plans]

    def loop(
        self,
        seconds: float,
        ops: Ops,
        i: int = 0,
        limit: Optional[int] = None,
        tracer: Optional[SpanRecorder] = None,
    ) -> int:
        """The closed loop from stream position ``i``; returns the next one.

        Runs for ``seconds`` or ``limit`` ops, whichever ends first.  With
        a tracer, each op is an ``op`` span (run id: its stream position)
        around a span covering the call into the program.
        """
        select = self.router.select
        complete = self.router.complete
        shapes = self.inputs.shapes
        stream = self.inputs.stream
        refs = self.refs
        n = len(stream)
        end = i + limit if limit is not None else None
        perf_counter = time.perf_counter
        deadline = perf_counter() + seconds
        while i != end:
            t0 = perf_counter()
            if t0 >= deadline:
                break
            if tracer is not None:
                op_span = tracer.open("op", i)
            k = stream[i % n]
            try:
                if tracer is None:
                    decision = select(shapes[k])
                    complete(decision.device_id)
                else:
                    span = tracer.open("serving.router.select+complete", i)
                    try:
                        decision = select(shapes[k])
                        complete(decision.device_id)
                    finally:
                        tracer.close(span)
            except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
                ops.fail(type(exc).__name__)
            else:
                t1 = perf_counter()
                if decision.config == refs[k]:
                    ops.ok(t1 - t0, t0)
                else:
                    ops.fail("output differs from the reference", wrong=True)
            if tracer is not None:
                tracer.close(op_span)
            i += 1
        return i


def _set_up(root: Path) -> Tuple[Served, Tuple[List[float], List[float]]]:
    """``SETUP_REPS`` set-ups: the last one, and each one's start and end.

    Only the program is timed: a fresh interpreter importing it, then
    :class:`Served`.  The inputs and references are made afterwards.
    """
    starts, ends = [], []
    for _ in range(SETUP_REPS):
        starts.append(time.perf_counter())
        import_program(IMPORTS)
        served = Served(root)
        ends.append(time.perf_counter())
    return served, (starts, ends)


def _retunes(served: Served):
    """``RETUNE_REPS`` re-tunes of the served selector from its split.

    ``tune_s`` on a serving workload is the median re-tune, over batches
    taken at the start, middle and end of the run.
    """
    from repro.core.deploy import tune

    train = served.split.train
    return intervals(lambda: tune(train, n_configs=N_CONFIGS).compiled(), RETUNE_REPS)


def run(workload: str, inputs: ServeInputs, seconds: float) -> Dict:
    """The untraced run: every end-to-end metric."""
    root = prepare()
    ops = Ops()
    with Speed() as speed:
        served, setups = _set_up(root)
        served.feed(inputs)
        starts, ends = _retunes(served)
        position = served.loop(float("inf"), Ops(), 0, WARMUP_OPS[workload])
        more = _retunes(served)
        gc.collect()
        # The program's peak, read before the timed loop: the loop's op
        # records are the benchmark's and grow with throughput.
        peak_rss_mb = vm_hwm_mb(os.getpid())
        served.loop(seconds, ops, position)
        last = _retunes(served)
    retunes = speed.scaled(starts + more[0] + last[0], ends + more[1] + last[1])
    latency, ops_per_s = loop_rates(ops, speed)
    metrics = {
        "setup_s": float(np.median(speed.scaled(*setups))),
        "tune_s": float(np.median(retunes)),
        "selector_geomean": geomean_vs_best(served.deployed, served.split.test),
        "ops_per_s": ops_per_s,
        "op_p50_us": float(np.quantile(latency, 0.5)) * 1e6,
        "op_p99_us": float(np.quantile(latency, 0.99)) * 1e6,
        "ok_frac": ops.ok_frac(),
        "peak_rss_mb": peak_rss_mb,
    }
    return {"ops": ops, "metrics": metrics, "notes": [f"machine speed: {speed.note()}"]}


def _serving_probes(served: Served, tracer: SpanRecorder):
    """Per-call costs of the serving layers, each timed from outside.

    Timed on the 163 network shapes and the three network plans, the
    same on every serving workload, so a change to one layer can be
    told apart from a change in the workload's mix.  Returns the costs
    and the warm in-process service they were timed on.
    """
    from repro.obs import NULL_REGISTRY, MetricsRegistry
    from repro.serving import FleetRouter, SelectionService

    deployed = served.deployed
    shapes = network_shapes()
    plans = list(network_plans().values())
    m: Dict[str, float] = {}

    span = tracer.open("probe.core")
    compiled = deployed.compiled()
    costs = per_call_s({"compiled": compiled.select, "policy": deployed.select}, shapes)
    m["core.compiled_select_ns"] = costs["compiled"] * 1e9
    m["core.policy_select_us"] = costs["policy"] * 1e6
    tracer.close(span)

    span = tracer.open("probe.serving")
    registry = MetricsRegistry()
    shared = SelectionService(deployed, registry=registry, name="probe")
    bare = SelectionService(deployed, registry=NULL_REGISTRY)
    router = FleetRouter(registry=registry)
    for name in REPLICAS:
        router.add_device(
            name, SelectionService(deployed, registry=registry, name=f"probe-{name}")
        )

    def routed(shape):
        router.complete(router.select(shape).device_id)

    for shape in shapes:
        shared.select(shape)
        bare.select(shape)
        routed(shape)
        routed(shape)
    costs = per_call_s(
        {"hit": shared.select, "bare": bare.select, "routed": routed}, shapes * 10
    )
    m["serving.hit_us"] = costs["hit"] * 1e6
    m["obs.instrumentation_us"] = (costs["hit"] - costs["bare"]) * 1e6
    m["serving.router_us"] = (costs["routed"] - costs["hit"]) * 1e6

    def misses() -> None:
        fresh = SelectionService(deployed, registry=MetricsRegistry())
        for shape in shapes:
            fresh.select(shape)

    m["serving.miss_us"] = statistics.median(timings(misses, 5)) / len(shapes) * 1e6
    for plan in plans:
        shared.select_batch(plan)
    items = sum(len(plan) for plan in plans)
    per_plan = per_call_s({"batch": shared.select_batch}, plans * 20)["batch"]
    m["serving.batch_item_us"] = per_plan * len(plans) / items * 1e6
    tracer.close(span)

    return m, shared


def _shard_probe(served: Served, ops: Ops, local, tracer: SpanRecorder) -> Dict[str, float]:
    """The sharded fleet on the seed's plan draws, against in-process batches.

    Each plan sent is a checked op.  ``shard.round_trip_us`` is the fleet's
    time per plan minus the in-process ``select_batch``'s (``local``).
    """
    from repro.obs import MetricsRegistry
    from repro.shard import ShardedFleet

    plans = served.inputs.plans
    registry = MetricsRegistry()
    span = tracer.open("probe.shard")
    fleet = ShardedFleet.from_artifact(
        served.store, served.fingerprint, processes=SHARD_PROCESSES, registry=registry
    )
    try:
        for plan in plans:
            fleet.select_batch(plan)
        costs = per_call_s({"fleet": fleet.select_batch, "local": local}, plans * 5)
        fleet.pull_metrics()
        before = _counter_totals(registry)
        perf_counter = time.perf_counter
        for i, k in enumerate(served.inputs.plan_stream[:SHARD_PLANS]):
            start = perf_counter()
            try:
                out = [d.config for d in fleet.select_batch(plans[k])]
            except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
                ops.fail(f"shard: {type(exc).__name__}")
                continue
            if out == served.plan_refs[k]:
                ops.ok(perf_counter() - start, start)
            else:
                ops.fail("shard: output differs from the reference", wrong=True)
        fleet.pull_metrics()
        after = _counter_totals(registry)
    finally:
        fleet.close()
        tracer.close(span)

    def delta(name: str) -> float:
        return after.get(name, 0) - before.get(name, 0)

    flushes = delta("shard.batch_size.count")
    return {
        "shard.round_trip_us": (costs["fleet"] - costs["local"]) * 1e6,
        "shard.batches": delta("shard.batches"),
        "shard.batch_size_mean": delta("shard.batch_size.sum") / flushes if flushes else 0.0,
        "shard.restarts": delta("shard.restarts"),
        "shard.rerouted": delta("shard.rerouted"),
    }


def run_traced(
    workload: str, inputs: ServeInputs, seconds: float, tracer: SpanRecorder
) -> Dict:
    """The traced run: layer probes, layer counters and the tracing overhead.

    A difference of traced and untraced op latencies reads noise, not
    the couple of spans an op records, so the tracing overhead is the
    recorder's cost per span times the spans per traced op.
    """
    served = Served(prepare())
    served.feed(inputs)
    ops = Ops()
    position = served.loop(float("inf"), Ops(), 0, WARMUP_OPS[workload])
    before = _counter_totals(served.registry)
    spans = len(tracer)
    served.loop(seconds, ops, position, tracer=tracer)
    spans_per_op = (len(tracer) - spans) / ops.attempted
    after = _counter_totals(served.registry)
    m, shared = _serving_probes(served, tracer)
    if served.inputs.plans:
        m.update(_shard_probe(served, ops, shared.select_batch, tracer))

    def delta(name: str) -> float:
        return after.get(name, 0) - before.get(name, 0)

    m["trace.overhead_us"] = span_cost_s() * spans_per_op * 1e6
    lookups = delta("serving.lookups")
    m["serving.hit_ratio"] = delta("serving.cache_hits") / lookups if lookups else 0.0
    m["serving.evictions"] = delta("serving.evictions")
    return {"ops": ops, "metrics": m}


if __name__ == "__main__":
    # python3 perfbench/wl_serve.py --build-store <dir>: what prepare() runs.
    if sys.argv[1:2] != ["--build-store"] or len(sys.argv) != 3:
        raise SystemExit("usage: wl_serve.py --build-store <directory>")
    sys.path.insert(0, str(SRC))
    build_store(Path(sys.argv[2]))
