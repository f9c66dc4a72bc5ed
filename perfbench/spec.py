"""What the benchmark measures, read from ``BENCHMARK.json``, and why.

``BENCHMARK.json`` at the checkout root names the workloads and the
metrics with their units; this module loads it so the output can be
checked against it, and adds what that file has no room for: which
end-to-end metric each per-layer metric should move, on which workload,
with the prediction made when the benchmark was defined.

Per-layer metrics are reported on every workload.  A time or count of a
layer that a workload does not exercise reads 0 there; the serving
per-call probes are timed on every serving workload, the sharded fleet
on ``serve-hot`` only.
"""

from __future__ import annotations

import json
from pathlib import Path

_DOC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

RUN_SECONDS = _DOC["run_seconds"]
WORKLOAD_NAMES = tuple(w["name"] for w in _DOC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in _DOC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _DOC["per_layer"]}

#: (per-layer metrics, workload, end-to-end metrics they should move, prediction)
LAYER_MAP = (
    (
        (
            "workloads.extract_s",
            "perfmodel.breakdown_ns",
            "perfmodel.measured_ns",
            "bench.sweep_s",
            "bench.ns_per_cell",
            "bench.cells",
            "bench.failed_cells",
            "core.dataset_s",
            "core.prune_s",
            "ml.train_s",
            "core.compile_s",
            "core.eval_s",
            "pipeline.codec_save_s",
            "pipeline.codec_load_s",
            "pipeline.cold_overhead_s",
        ),
        "tune",
        ("tune_s",),
        "the sweep is about 97% of tune_s, so a perf-model speed-up shows "
        "here and nowhere else",
    ),
    (
        ("pipeline.reload_s", "pipeline.reload_ok"),
        "tune",
        ("ok_frac",),
        "the placed warm reload fails today (bench-result codec unpacks "
        "4-tuples); fixing it lifts ok_frac from 5/6 to 1",
    ),
    (
        (
            "serving.hit_us",
            "obs.instrumentation_us",
            "serving.router_us",
            "core.compiled_select_ns",
        ),
        "serve-hot",
        ("op_p50_us", "ops_per_s"),
        "nearly every op is a memo hit; these should move serve-miss by at "
        "most its ~20% share of hits",
    ),
    (
        (
            "core.policy_select_us",
            "serving.miss_us",
            "serving.hit_ratio",
            "serving.evictions",
        ),
        "serve-miss",
        ("op_p50_us", "op_p99_us", "ops_per_s"),
        "policy evaluation and LRU churn dominate; no change on serve-hot",
    ),
    (
        (
            "serving.batch_item_us",
            "shard.round_trip_us",
            "shard.batch_size_mean",
            "shard.batches",
            "shard.restarts",
            "shard.rerouted",
        ),
        "serve-hot",
        (),
        "the sharded fleet has no end-to-end workload (three processes on a "
        "2-vCPU machine measured its scheduler); timed in the traced run, "
        "IPC and micro-batching dominate, no change on the in-process workloads",
    ),
    (
        ("trace.overhead_us", "trace.spans"),
        "every workload",
        (),
        "time tracing adds to one op (the chain on tune): the recorder's "
        "cost per span times the spans per op",
    ),
)


def _check() -> None:
    mapped = [name for names, _, _, _ in LAYER_MAP for name in names]
    if sorted(mapped) != sorted(PER_LAYER):
        raise RuntimeError("LAYER_MAP and the per-layer metrics of BENCHMARK.json differ")


_check()
