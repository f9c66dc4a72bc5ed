"""ShardedFleet correctness: routing, batching, obs merge, lifecycle."""

import threading

import pytest

from repro.obs import MetricsRegistry
from repro.pipeline.mapped import load_mapped_selector
from repro.shard import ShardedFleet, WorkerStartupError, shard_of


@pytest.fixture(scope="module")
def fleet(mapped_dir):
    fleet = ShardedFleet(
        mapped_dir,
        processes=2,
        batch_wait_s=0.01,
        heartbeat_interval_s=0.2,
        request_timeout_s=15.0,
    )
    yield fleet
    fleet.close()


class TestShardOf:
    def test_deterministic_and_in_range(self):
        key = (64, 128, 256, 1)
        assert shard_of(key, 4) == shard_of(key, 4)
        for n in (1, 2, 3, 7):
            assert 0 <= shard_of(key, n) < n

    def test_spreads_across_shards(self, shape_pool):
        shards = {shard_of(s.as_tuple(), 4) for s in shape_pool}
        assert len(shards) > 1

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError, match="n_shards"):
            shard_of((1, 2, 3, 4), 0)


class TestFleetServing:
    def test_select_matches_the_local_selector(
        self, fleet, mapped_dir, shape_pool
    ):
        reference = load_mapped_selector(mapped_dir)
        for shape in shape_pool[:24]:
            decision = fleet.select(shape)
            assert decision.config == reference.select(shape)
            assert decision.device_id.startswith("worker")

    def test_select_batch_matches_the_local_selector(
        self, fleet, mapped_dir, shape_pool
    ):
        reference = load_mapped_selector(mapped_dir)
        decisions = fleet.select_batch(shape_pool)
        expected = reference.select_batch(shape_pool)
        assert tuple(d.config for d in decisions) == expected

    def test_same_shape_always_lands_on_the_same_worker(
        self, fleet, shape_pool
    ):
        shape = shape_pool[0]
        devices = {fleet.select(shape).device_id for _ in range(6)}
        assert len(devices) == 1

    def test_requests_equal_decisions(self, fleet, shape_pool):
        fleet.select_batch(shape_pool[:50])
        requests = fleet.registry.counter("shard.requests").value
        decisions = fleet.registry.counter("shard.decisions").value
        assert requests == decisions > 0

    def test_concurrent_callers_micro_batch(self, fleet, shape_pool):
        shape = shape_pool[3]
        fleet.select(shape)  # warm the route
        before = fleet.registry.counter("shard.batches").value
        n_threads = 16
        barrier = threading.Barrier(n_threads)

        def caller():
            barrier.wait()
            fleet.select(shape)

        threads = [threading.Thread(target=caller) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        flushes = fleet.registry.counter("shard.batches").value - before
        # 16 concurrent single-shape callers must coalesce into fewer
        # pipe round trips than callers (the point of micro-batching).
        assert 0 < flushes < n_threads

    def test_empty_batch(self, fleet):
        assert fleet.select_batch(()) == ()


class TestObsAggregation:
    def test_pull_metrics_merges_worker_registries(self, fleet, shape_pool):
        fleet.select_batch(shape_pool)
        answered = fleet.pull_metrics()
        assert answered == 2
        # Worker-side serving counters arrive labelled per worker and
        # total exactly the keys the front door dispatched.
        total_lookups = sum(
            metric.value
            for name, labels, metric in fleet.registry.collect()
            if name == "serving.lookups"
        )
        assert total_lookups == fleet.registry.counter("shard.requests").value

    def test_stats_reads_the_merged_fleet_view(self, fleet, shape_pool):
        fleet.select_batch(shape_pool[:64])
        stats = fleet.stats()
        assert stats.requests == stats.decisions > 0
        assert len(stats.workers) == 2
        assert all(w.alive for w in stats.workers)
        assert stats.lookup_latency is not None
        assert stats.lookup_latency.count > 0
        assert "workers alive" in stats.render()

    def test_fleet_wide_quantiles_cover_every_worker(self, fleet, shape_pool):
        from repro.obs import merged_summary

        fleet.select_batch(shape_pool)
        fleet.pull_metrics()
        per_worker = [
            metric.count
            for name, labels, metric in fleet.registry.collect()
            if name == "serving.lookup_seconds" and metric.count
        ]
        assert len(per_worker) == 2  # both workers contributed
        merged = merged_summary(fleet.registry, "serving.lookup_seconds")
        assert merged.count == sum(per_worker)


class TestLifecycle:
    def test_corrupt_mapped_artifact_fails_startup_cleanly(
        self, tiny_deployed, tmp_path
    ):
        from repro.pipeline.mapped import write_mapped_selector

        directory = tmp_path / "m"
        write_mapped_selector(tiny_deployed, directory)
        path = directory / "threshold.npy"
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(
            WorkerStartupError, match="MappedIntegrityError"
        ):
            ShardedFleet(directory, processes=1)

    def test_from_deployed_owns_and_cleans_its_export(self, tiny_deployed):
        fleet = ShardedFleet.from_deployed(
            tiny_deployed, processes=1, heartbeat_interval_s=0.2
        )
        tempdir = fleet._owned_tempdir
        assert tempdir is not None and tempdir.exists()
        fleet.close()
        assert not tempdir.exists()

    def test_from_artifact_serves_the_stored_mapped_bytes(
        self, tiny_deployed, tmp_path, shape_pool
    ):
        from repro.pipeline.artifact import Provenance
        from repro.pipeline.store import ArtifactStore

        store = ArtifactStore(tmp_path / "store")
        provenance = Provenance(
            stage="train",
            fingerprint="c" * 64,
            code_version="test",
            params={},
            parents={},
            codec="selector",
        )
        store.put(tiny_deployed, provenance)
        with ShardedFleet.from_artifact(
            store, "train:cccc", processes=1, heartbeat_interval_s=0.2
        ) as fleet:
            assert fleet._owned_tempdir is None  # mapped in place
            decision = fleet.select(shape_pool[0])
            assert decision.config == tiny_deployed.select(shape_pool[0])

    def test_closed_fleet_rejects_traffic(self, tiny_deployed, shape_pool):
        fleet = ShardedFleet.from_deployed(tiny_deployed, processes=1)
        fleet.close()
        with pytest.raises(RuntimeError, match="closed"):
            fleet.select(shape_pool[0])
        fleet.close()  # idempotent

    def test_custom_registry_is_used(self, mapped_dir, shape_pool):
        registry = MetricsRegistry()
        with ShardedFleet(
            mapped_dir, processes=1, registry=registry
        ) as fleet:
            fleet.select(shape_pool[0])
            assert registry.counter("shard.requests").value == 1
