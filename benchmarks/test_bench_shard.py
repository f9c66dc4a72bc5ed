"""Process-parallel scaling gate: N shard workers vs one.

The sharded fleet exists to put selector dispatch on every core, so the
gate measures exactly that: the same flat-out chunked replay
(:func:`~repro.loadgen.run_load`) against a 1-process fleet and
an N-process fleet serving the same mapped artifact, comparing achieved
qps.  The floor is core-count aware — a 4-worker fleet cannot scale 4x
on a 2-CPU runner — and the whole gate skips when the machine cannot
run two workers genuinely in parallel (one CPU is reserved for the
front door and generator threads).

A second check asserts the merged fleet-wide registry stays exact under
the bench load: requests == decisions == per-worker lookups summed.
"""

import os

import pytest

from repro.core.deploy import tune
from repro.loadgen import LoadgenConfig, RateProfile, run_load
from repro.shard import ShardedFleet

PROCESSES = 4
#: Requested scaling floor at full parallelism; relaxed to 75% of the
#: achievable parallelism on smaller runners.
MIN_SCALING = 3.0

USABLE_CPUS = max(1, (os.cpu_count() or 1) - 1)


@pytest.fixture(scope="module")
def deployed(split):
    train, _ = split
    return tune(train, n_configs=8, random_state=0)


def _flat_out_config(seed=0):
    return LoadgenConfig(
        profile=RateProfile(base_qps=40_000.0),
        duration_s=1.0,
        workers=min(4, USABLE_CPUS + 1),
        seed=seed,
        pace=False,
    )


def _run(deployed, processes, seed=0):
    with ShardedFleet.from_deployed(
        deployed, processes=processes, compiled=True
    ) as fleet:
        report = run_load(fleet, _flat_out_config(seed), chunk_size=256)
        requests = fleet.registry.counter("shard.requests").value
        decisions = fleet.registry.counter("shard.decisions").value
        lookups = sum(
            metric.value
            for name, _, metric in fleet.registry.collect()
            if name == "serving.lookups"
        )
    return report, requests, decisions, lookups


@pytest.mark.skipif(
    USABLE_CPUS < 2,
    reason=f"need >= 2 usable CPUs for process scaling, have {USABLE_CPUS}",
)
def test_bench_sharded_fleet_scales_over_one_process(deployed):
    """N workers must beat 1 by >= 75% of the achievable parallelism."""
    single, *_ = _run(deployed, processes=1)
    sharded, requests, decisions, _ = _run(deployed, processes=PROCESSES)
    assert sharded.completed == sharded.offered
    assert requests == decisions == sharded.offered

    parallelism = min(PROCESSES, USABLE_CPUS)
    floor = min(MIN_SCALING, 0.75 * parallelism)
    scaling = sharded.achieved_qps / single.achieved_qps
    print(
        f"\n{PROCESSES} workers ({USABLE_CPUS} usable CPUs): "
        f"single {single.achieved_qps:,.0f} qps, sharded "
        f"{sharded.achieved_qps:,.0f} qps -> {scaling:.2f}x "
        f"(floor {floor:.2f}x); fleet-wide p99 "
        f"{sharded.lookup_latency.p99_s * 1e6:.1f} us"
    )
    assert scaling >= floor
    # The fleet-wide tail comes from the *merged* registry: every
    # worker process contributed its lookup histogram.
    assert sharded.lookup_latency is not None
    assert sharded.lookup_latency.count == sharded.offered


def test_bench_merged_obs_stays_exact_under_load(deployed):
    """Cross-worker counter merge loses nothing at bench throughput."""
    processes = min(2, max(1, USABLE_CPUS))
    report, requests, decisions, lookups = _run(
        deployed, processes=processes, seed=3
    )
    assert report.completed == report.offered > 0
    assert requests == decisions == report.offered
    # Graceful shutdown shipped every worker's final delta, so the
    # merged per-worker lookups cover the whole run exactly.
    assert lookups == report.offered
