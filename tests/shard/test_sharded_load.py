"""run_load over a ShardedFleet: chunked and one-at-a-time replay."""

import pytest

from repro.loadgen import LoadgenConfig, RateProfile, run_load
from repro.shard import ShardedFleet


@pytest.fixture(scope="module")
def fleet(mapped_dir):
    fleet = ShardedFleet(
        mapped_dir,
        processes=2,
        batch_wait_s=0.002,
        heartbeat_interval_s=0.5,
        request_timeout_s=15.0,
    )
    yield fleet
    fleet.close()


def _config(**overrides):
    fields = dict(
        profile=RateProfile(base_qps=4000.0),
        duration_s=0.4,
        workers=2,
        seed=11,
        pace=False,
    )
    fields.update(overrides)
    return LoadgenConfig(**fields)


class TestRunShardedLoad:
    def test_answers_every_offered_request(self, fleet):
        report = run_load(fleet, _config(), chunk_size=128)
        assert report.offered > 0
        assert report.completed == report.offered
        assert not report.paced
        assert not report.saturated
        assert set(report.dispatched) <= {"worker0", "worker1"}
        assert sum(report.dispatched.values()) == report.completed

    def test_lookup_latency_is_the_fleet_wide_merged_view(self, fleet):
        before = sum(
            metric.count
            for name, _, metric in fleet.registry.collect()
            if name == "serving.lookup_seconds"
        )
        report = run_load(fleet, _config(seed=12), chunk_size=64)
        after = sum(
            metric.count
            for name, _, metric in fleet.registry.collect()
            if name == "serving.lookup_seconds"
        )
        # The driver pulled every worker's delta: the merged registry
        # grew by exactly this run's request count, and the report's
        # quantiles read from that merged view.
        assert after - before == report.offered
        assert report.lookup_latency is not None
        assert report.lookup_latency.count == after

    def test_per_worker_breakdown_covers_the_schedule(self, fleet):
        report = run_load(fleet, _config(seed=13), chunk_size=64)
        assert len(report.workers) == 2
        assert sum(w.offered for w in report.workers) == report.offered
        assert sum(w.completed for w in report.workers) == report.completed

    def test_front_door_counters_stay_exact(self, fleet):
        run_load(fleet, _config(seed=14), chunk_size=32)
        requests = fleet.registry.counter("shard.requests").value
        decisions = fleet.registry.counter("shard.decisions").value
        assert requests == decisions > 0

    def test_rejects_a_nonpositive_chunk(self, fleet):
        with pytest.raises(ValueError, match="chunk_size"):
            run_load(fleet, _config(), chunk_size=0)

    def test_chunk_of_one_uses_select_and_answers_everything(self, fleet):
        report = run_load(fleet, _config(seed=15), chunk_size=1)
        assert report.offered > 0
        assert report.completed == report.offered
        assert sum(report.dispatched.values()) == report.completed
        assert report.lookup_latency is not None
        requests = fleet.registry.counter("shard.requests").value
        decisions = fleet.registry.counter("shard.decisions").value
        assert requests == decisions
