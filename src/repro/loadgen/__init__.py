"""Closed-loop load generation for the selection serving stack.

The paper's deployment argument — selector dispatch must be negligible
at traffic scale — is only testable under traffic.  This package
simulates it: Poisson arrivals shaped by a diurnal ramp
(:mod:`~repro.loadgen.arrivals`), a Zipf-skewed stream of real
VGG/ResNet/MobileNet GEMM shapes (:mod:`~repro.loadgen.workload`),
one threaded driver, :func:`~repro.loadgen.harness.run_load`, that
pushes them through any front door — an in-process
:class:`~repro.serving.router.FleetRouter` one ``select`` at a time, or
a process-parallel :class:`~repro.shard.ShardedFleet` in
``select_batch`` chunks (:mod:`~repro.loadgen.harness`) — and
tail-latency reporting straight from the :mod:`repro.obs` histograms
(:mod:`~repro.loadgen.report`).  The drifted adaptive scenario
(:func:`~repro.loadgen.drift.run_drift_load`) is a feedback hook on
that same driver.

``repro loadgen run`` is the CLI front-end (``--processes`` selects the
sharded fleet); CI's bench-smoke job runs pinned-throughput smoke
scenarios through it.
"""

from repro.loadgen.arrivals import RateProfile, poisson_arrivals
from repro.loadgen.drift import (
    DriftReplayReport,
    DriftSpec,
    DriftedLatencyModel,
    drift_adaptive_config,
    replay_drift,
    run_drift_load,
)
from repro.loadgen.harness import (
    LoadgenConfig,
    SelectionTarget,
    SyntheticFleet,
    run_load,
    synthetic_deployed,
    synthetic_fleet,
)
from repro.loadgen.report import (
    DriftSummary,
    LoadReport,
    WorkerLoad,
    git_revision,
    report_document,
)
from repro.loadgen.workload import (
    DEFAULT_NETWORKS,
    ShapeStream,
    network_shape_pool,
)

__all__ = [
    "DEFAULT_NETWORKS",
    "DriftReplayReport",
    "DriftSpec",
    "DriftSummary",
    "DriftedLatencyModel",
    "LoadReport",
    "LoadgenConfig",
    "RateProfile",
    "SelectionTarget",
    "ShapeStream",
    "SyntheticFleet",
    "WorkerLoad",
    "drift_adaptive_config",
    "git_revision",
    "network_shape_pool",
    "poisson_arrivals",
    "replay_drift",
    "report_document",
    "run_drift_load",
    "run_load",
    "synthetic_deployed",
    "synthetic_fleet",
]
