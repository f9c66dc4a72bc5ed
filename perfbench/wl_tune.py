"""The ``tune`` workload: the offline chain, cold, into a fresh store.

One chain is ``generate_dataset`` over the three networks crossed with
device and host placement (163 shapes x 2 x 640 configs), ``split``,
``tune(n_configs=8)``, ``compiled()``, ``evaluate_selector`` and finally
a warm re-run of ``generate_dataset`` against the same store.  Each call
is one op; its output is checked against a reference the benchmark
computes itself.  Chains repeat, each into a fresh store, until the run
time is used up; the latency a user waits for is the cold chain's,
rescaled by the machine's speed while it ran (``common.Speed``).
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from typing import Callable, Dict, Optional

import numpy as np

from common import (
    WORK,
    Ops,
    Speed,
    geomean_vs_best,
    import_program,
    reference_configs,
    timings,
    vm_hwm_mb,
)
from inputs import PLACEMENTS, network_shapes
from tracing import SpanRecorder, span_cost_s

IMPORTS = (
    "repro.core.dataset",
    "repro.core.deploy",
    "repro.core.selection.evaluate",
    "repro.pipeline.store",
)
N_CONFIGS = 8
TEST_SIZE = 0.2
#: Cells timed one by one for the perf-model per-cell costs.
MODEL_SAMPLE = 2000
SETUP_REPS = 7
#: The calls whose wall time is the cold chain (``tune_s``).
COLD_CHAIN = ("generate_cold", "split", "tune", "compiled", "evaluate")
CHAIN = COLD_CHAIN + ("generate_warm",)


class Setup:
    """What a chain needs besides the program: seeds and expected shapes."""

    def __init__(self, inputs):
        from repro.bench.runner import RunnerConfig
        from repro.workloads.placement import place_shapes

        self.inputs = inputs
        self.runner = RunnerConfig(seed=inputs.runner_seed)
        self.expected_shapes = frozenset(place_shapes(network_shapes(), PLACEMENTS))


class Chain:
    """One run of the chain: every call is a timed, checked op."""

    def __init__(self, ops: Ops, index: int, tracer: Optional[SpanRecorder]):
        self.ops = ops
        self.index = index
        self.tracer = tracer
        self.durations: Dict[str, float] = {}
        #: Wall start and end of each call.
        self.spans: Dict[str, tuple] = {}
        self.succeeded: set = set()
        #: Stage runtimes the pipeline recorded in the store's manifests.
        self.stage_seconds: Dict[str, float] = {}
        self.geomean: Optional[float] = None

    def call(
        self,
        name: str,
        fn: Callable[[], object],
        check: Callable[[object], Optional[str]],
    ):
        """Time ``fn``, check its output; returns it, or None if the op failed."""
        tracer = self.tracer
        span = tracer.open(f"op.{name}", self.index) if tracer is not None else None
        start = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            out, error = None, exc
        else:
            error = None
        end = time.perf_counter()
        self.durations[name] = elapsed = end - start
        self.spans[name] = (start, end)
        if span is not None:
            tracer.close(span)
        if error is not None:
            self.ops.fail(f"{name}: {type(error).__name__}")
            return None
        problem = check(out)
        if problem is not None:
            self.ops.fail(f"{name}: {problem}", wrong=True)
            return None
        self.ops.ok(elapsed, start)
        self.succeeded.add(name)
        return out

    def skip(self, names) -> None:
        for name in names:
            self.ops.fail(f"{name}: not run, an earlier op failed")

    def cold_seconds(self, speed: Speed) -> float:
        """The cold chain's calls, in reference-machine seconds."""
        starts, ends = zip(*(self.spans[name] for name in COLD_CHAIN))
        return float(speed.scaled(starts, ends).sum())

    @property
    def cold_ok(self) -> bool:
        return self.succeeded.issuperset(COLD_CHAIN)


def run_chain(setup: Setup, index: int, ops: Ops, tracer=None) -> Chain:
    """One cold chain into a fresh store, then the warm re-run."""
    from repro.core.dataset import generate_dataset
    from repro.core.deploy import tune
    from repro.core.selection.evaluate import evaluate_selector
    from repro.pipeline.store import ArtifactStore

    root = WORK / f"tune-store-{index}"
    shutil.rmtree(root, ignore_errors=True)
    store = ArtifactStore(root)
    chain = Chain(ops, index, tracer)
    chain_span = tracer.open("tune.chain", index) if tracer is not None else None

    def generate():
        return generate_dataset(
            placements=PLACEMENTS,
            runner_config=setup.runner,
            store=store,
            max_workers=1,
        )

    def check_dataset(ds) -> Optional[str]:
        if ds.n_shapes != len(setup.expected_shapes) or (
            set(ds.shapes) != setup.expected_shapes
        ):
            return "dataset shapes differ from the placed network shapes"
        if ds.n_configs != 640 or ds.n_failed_cells:
            return f"{ds.n_configs} configs, {ds.n_failed_cells} failed cells"
        return None

    def check_split(pair) -> Optional[str]:
        train, test = pair
        if set(train.shapes) & set(test.shapes):
            return "train and test share shapes"
        if train.n_shapes + test.n_shapes != dataset.n_shapes:
            return "split lost shapes"
        return None

    try:
        dataset = chain.call("generate_cold", generate, check_dataset)
        if dataset is None:
            chain.skip(CHAIN[1:])
            return chain
        for manifest in store.ls():
            chain.stage_seconds[manifest.stage] = manifest.runtime_s
        pair = chain.call(
            "split",
            lambda: dataset.split(
                test_size=TEST_SIZE, random_state=setup.inputs.split_seed
            ),
            check_split,
        )
        deployed = None
        if pair is not None:
            train, test = pair
            deployed = chain.call(
                "tune",
                lambda: tune(train, n_configs=N_CONFIGS),
                lambda d: (
                    None
                    if len(d.library.configs) <= N_CONFIGS
                    and list(d.select_batch(train.shapes))
                    == reference_configs(d, train.shapes)
                    else "selector disagrees with the reference tree walk"
                ),
            )
        if deployed is None:
            chain.skip(COLD_CHAIN[len(chain.durations):])
        else:
            batch = list(deployed.select_batch(test.shapes))
            reference = reference_configs(deployed, test.shapes)
            chain.call(
                "compiled",
                deployed.compiled,
                lambda c: (
                    None
                    if [c.select(s) for s in test.shapes] == batch == reference
                    else "compiled selector disagrees with select_batch"
                ),
            )
            geomean = chain.geomean = geomean_vs_best(deployed, test)
            chain.call(
                "evaluate",
                lambda: evaluate_selector(deployed.selector, test),
                lambda ev: (
                    None
                    if abs(ev.score - geomean) <= 1e-9 * geomean
                    else f"score {ev.score} != recomputed {geomean}"
                ),
            )
        chain.call(
            "generate_warm",
            generate,
            lambda ds: (
                None
                if ds.shapes == dataset.shapes
                and np.array_equal(ds.gflops, dataset.gflops)
                else "warm re-run differs from the cold dataset"
            ),
        )
        return chain
    finally:
        if chain_span is not None:
            tracer.close(chain_span)
        shutil.rmtree(root, ignore_errors=True)


def run(inputs, seconds: float) -> Dict:
    """The untraced run: every end-to-end metric."""
    ops = Ops()
    chains = []
    with Speed() as speed:
        starts, ends = [], []
        for _ in range(SETUP_REPS):
            starts.append(time.perf_counter())
            import_program(IMPORTS)
            setup = Setup(inputs)
            ends.append(time.perf_counter())
        deadline = time.perf_counter() + seconds
        while not chains or time.perf_counter() < deadline:
            chains.append(run_chain(setup, len(chains), ops))
    # The op a user of the offline path waits for is the cold chain: each
    # chain that completed is one latency sample.  Failures are counted
    # per call, so a failing call shows in ok_frac without hiding the rest.
    cold = np.array([c.cold_seconds(speed) for c in chains if c.cold_ok])
    if not len(cold):
        raise RuntimeError(f"no chain got through its cold part: {dict(ops.errors)}")
    geomeans = [c.geomean for c in chains if c.geomean is not None]
    return {
        "ops": ops,
        "metrics": {
            "setup_s": float(np.median(speed.scaled(starts, ends))),
            "tune_s": float(np.median(cold)),
            "selector_geomean": statistics.median(geomeans),
            "ops_per_s": len(cold) / cold.sum(),
            "op_p50_us": float(np.quantile(cold, 0.5)) * 1e6,
            "op_p99_us": float(np.quantile(cold, 0.99)) * 1e6,
            "ok_frac": ops.ok_frac(),
            "peak_rss_mb": vm_hwm_mb(os.getpid()),
        },
        "notes": [f"machine speed: {speed.note()}"],
    }


def run_traced(inputs, seconds: float, tracer: SpanRecorder) -> Dict:
    """The traced run: per-layer metrics plus the tracing overhead.

    The chain runs once, traced; the layers are then timed one public
    call at a time.  A cold chain varies by seconds, far more than its
    spans cost, so the tracing overhead is the recorder's cost per span
    times the spans the chain recorded.
    """
    import dataclasses

    from repro.bench.runner import BenchmarkRunner
    from repro.core.dataset import PerformanceDataset
    from repro.core.deploy import DeployedSelector
    from repro.core.pruning.decision_tree import DecisionTreePruner
    from repro.core.selection.classifiers import make_selector
    from repro.core.selection.evaluate import evaluate_selector
    from repro.kernels.params import config_space
    from repro.kernels.registry import KernelLibrary
    from repro.perfmodel.model import GemmPerfModel
    from repro.pipeline.codecs import get_codec
    from repro.sycl.device import Device
    from repro.workloads.extract import extract_dataset_shapes
    from repro.workloads.placement import place_shapes

    setup = Setup(inputs)
    ops = Ops()
    before = len(tracer)
    chain = run_chain(setup, 0, ops, tracer)
    reload_ok = "generate_warm" in chain.succeeded
    m: Dict[str, float] = {
        "trace.overhead_us": span_cost_s() * (len(tracer) - before) * 1e6,
        # The reload's time only counts when it loaded something.
        "pipeline.reload_s": chain.durations["generate_warm"] if reload_ok else 0.0,
        "pipeline.reload_ok": float(reload_ok),
    }
    notes = []
    if not reload_ok:
        notes.append("pipeline.reload_s reads 0: the warm reload failed, see op errors")

    def timed(name: str, fn: Callable[[], object]):
        span = tracer.open(name)
        try:
            return fn()
        finally:
            tracer.close(span)

    layers = tracer.open("tune.layers")
    shapes = timed(
        "workloads.extract",
        lambda: place_shapes(extract_dataset_shapes()[0], PLACEMENTS),
    )
    device = Device.r9_nano()
    rc = setup.runner
    model = GemmPerfModel(device, seed=rc.seed)
    configs = config_space()
    rng = np.random.default_rng(0)
    sample = [
        (shapes[int(i)], configs[int(j)])
        for i, j in zip(
            rng.integers(0, len(shapes), MODEL_SAMPLE),
            rng.integers(0, len(configs), MODEL_SAMPLE),
        )
    ]
    breakdown = timed(
        "perfmodel.breakdown",
        lambda: min(timings(lambda: [model.breakdown(s, c) for s, c in sample], 5)),
    )
    measured = timed(
        "perfmodel.measured",
        lambda: min(timings(
            lambda: [
                model.measured_times_seconds(
                    s,
                    c,
                    iterations=rc.timed_iterations,
                    start_iteration=rc.warmup_iterations,
                )
                for s, c in sample
            ],
            5,
        )),
    )
    m["perfmodel.breakdown_ns"] = breakdown / MODEL_SAMPLE * 1e9
    m["perfmodel.measured_ns"] = measured / MODEL_SAMPLE * 1e9
    runner = BenchmarkRunner(device, runner_config=rc)
    result = timed("bench.sweep", lambda: runner.run(shapes, max_workers=1))
    dataset = timed("core.dataset", lambda: PerformanceDataset.from_benchmark(result))
    # The codec round trip, on the device half of the sweep under plain
    # shapes: that loads on today's code, while a placed sweep does not
    # (the failed warm reload above records that).
    base = network_shapes()
    device_half = dataclasses.replace(
        result,
        shapes=base,
        gflops=result.gflops[: len(base)],
        seconds=result.seconds[: len(base)],
    )
    codec = get_codec("bench-result")
    codec_dir = WORK / "codec"
    shutil.rmtree(codec_dir, ignore_errors=True)
    codec_dir.mkdir(parents=True)
    timed("pipeline.codec_save", lambda: codec.save(device_half, codec_dir))
    start = time.perf_counter()
    loaded = timed("pipeline.codec_load", lambda: codec.load(codec_dir))
    load_s = time.perf_counter() - start
    shutil.rmtree(codec_dir, ignore_errors=True)
    if loaded.shapes == base and np.array_equal(loaded.gflops, device_half.gflops):
        ops.ok(load_s, start)
    else:
        ops.fail("pipeline.codec_load: round trip differs", wrong=True)
    train, test = dataset.split(test_size=TEST_SIZE, random_state=inputs.split_seed)
    pruned = timed("core.prune", lambda: DecisionTreePruner().select(train, N_CONFIGS))
    selector = make_selector("DecisionTree", pruned, random_state=0)
    timed("ml.train", lambda: selector.fit(train))
    deployed = DeployedSelector(KernelLibrary(pruned.configs), selector)
    timed("core.compile", deployed.compiled)
    timed("core.eval", lambda: evaluate_selector(selector, test))
    tracer.close(layers)

    selfs = tracer.self_times()
    for layer in (
        "workloads.extract",
        "bench.sweep",
        "core.dataset",
        "core.prune",
        "ml.train",
        "core.compile",
        "core.eval",
        "pipeline.codec_save",
        "pipeline.codec_load",
    ):
        m[f"{layer}_s"] = selfs[layer]["self_s"]
    m["bench.cells"] = float(result.gflops.size)
    m["bench.failed_cells"] = float(result.n_failed_cells)
    m["bench.ns_per_cell"] = m["bench.sweep_s"] / result.gflops.size * 1e9
    # From the same call's own stage timings: the sweep varies by more
    # than the overhead between two calls on a shared machine.
    m["pipeline.cold_overhead_s"] = chain.durations["generate_cold"] - (
        chain.stage_seconds["sweep"] + chain.stage_seconds["dataset"]
    )
    return {"ops": ops, "metrics": m, "notes": notes}
