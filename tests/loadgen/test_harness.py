"""run_load against a cheap stub-policy fleet, plus report assembly."""

import pytest

from repro.kernels.params import config_space
from repro.loadgen import (
    LoadgenConfig,
    RateProfile,
    run_load,
)
from repro.obs import HistogramSummary, MetricsRegistry, merged_summary
from repro.serving import SelectionService
from repro.serving.router import FleetRouter

CONFIGS = config_space(tile_sizes=(1, 2), work_groups=((8, 8),))
ANSWER = CONFIGS[0]


class _InstantPolicy:
    def select(self, shape):
        return ANSWER

    def select_batch(self, shapes):
        return tuple(ANSWER for _ in shapes)


def _stub_router(registry, replicas=2):
    router = FleetRouter(registry=registry)
    for i in range(replicas):
        router.add_device(
            f"dev{i}",
            SelectionService(
                _InstantPolicy(), registry=registry, name=f"dev{i}"
            ),
            library=(ANSWER,),
        )
    return router


class TestRunLoad:
    def test_completes_every_offered_request(self):
        registry = MetricsRegistry()
        router = _stub_router(registry)
        config = LoadgenConfig(
            profile=RateProfile(base_qps=3000.0),
            duration_s=0.4,
            workers=3,
        )
        report = run_load(router, config)
        assert report.offered > 0
        assert report.completed == report.offered
        assert report.achieved_qps > 0
        assert sum(report.dispatched.values()) == report.completed
        assert set(report.dispatched) <= {"dev0", "dev1"}
        assert report.request_latency.count == report.completed
        # Lookup latency merges both devices' histograms.
        assert report.lookup_latency is not None
        assert report.lookup_latency.count == report.completed

    def test_metrics_land_in_the_shared_registry(self):
        registry = MetricsRegistry()
        router = _stub_router(registry)
        config = LoadgenConfig(
            profile=RateProfile(base_qps=1500.0), duration_s=0.3, workers=2
        )
        report = run_load(router, config)
        assert registry.counter("loadgen.requests").value == report.completed
        assert (
            registry.histogram("loadgen.request_seconds").count
            == report.completed
        )

    def test_least_outstanding_policy_flows_through(self):
        registry = MetricsRegistry()
        router = _stub_router(registry)
        config = LoadgenConfig(
            profile=RateProfile(base_qps=1000.0),
            duration_s=0.3,
            workers=2,
            routing_policy="least-outstanding",
        )
        report = run_load(router, config)
        assert report.completed == report.offered
        assert registry.counter(
            "fleet.placements", {"policy": "least-outstanding"}
        ).value == pytest.approx(report.completed)

    def test_worker_errors_propagate(self):
        registry = MetricsRegistry()
        router = _stub_router(registry)
        config = LoadgenConfig(
            profile=RateProfile(base_qps=500.0),
            duration_s=0.2,
            routing_policy="no-such-policy",
        )
        with pytest.raises(ValueError, match="policy"):
            run_load(router, config)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="duration_s"):
            LoadgenConfig(duration_s=0.0)
        with pytest.raises(ValueError, match="workers"):
            LoadgenConfig(workers=0)

    def test_report_to_dict_round_trips_the_essentials(self):
        registry = MetricsRegistry()
        router = _stub_router(registry, replicas=1)
        config = LoadgenConfig(
            profile=RateProfile(base_qps=800.0), duration_s=0.25, workers=1
        )
        report = run_load(router, config)
        doc = report.to_dict()
        assert doc["completed"] == report.completed
        assert doc["request_latency"]["count"] == report.completed
        assert doc["dispatched"] == report.dispatched
        rendered = report.render()
        assert "qps" in rendered
        assert "p999" in rendered


class TestHooks:
    def test_on_request_sees_every_scheduled_index_once(self):
        registry = MetricsRegistry()
        router = _stub_router(registry)
        config = LoadgenConfig(
            profile=RateProfile(base_qps=2000.0),
            duration_s=0.4,
            workers=3,
            pace=False,
        )
        seen = {}
        lock = __import__("threading").Lock()

        def on_request(index, due, shape, decision):
            with lock:
                seen[index] = (due, shape, decision.device_id)

        report = run_load(router, config, on_request=on_request)
        assert len(seen) == report.completed == report.offered
        assert sorted(seen) == list(range(report.offered))
        # Due times are the scheduled arrivals: non-negative, bounded.
        assert all(0.0 <= due <= config.duration_s for due, _, _ in seen.values())
        assert {dev for _, _, dev in seen.values()} <= {"dev0", "dev1"}

    def test_unpaced_run_records_no_lateness(self):
        registry = MetricsRegistry()
        router = _stub_router(registry)
        config = LoadgenConfig(
            profile=RateProfile(base_qps=50_000.0),
            duration_s=0.2,
            workers=2,
            pace=False,
        )
        report = run_load(router, config)
        assert report.completed == report.offered > 0
        assert report.late == 0
        assert registry.counter("loadgen.late_arrivals").value == 0

    def test_hook_errors_abort_the_run(self):
        registry = MetricsRegistry()
        router = _stub_router(registry)
        config = LoadgenConfig(
            profile=RateProfile(base_qps=500.0),
            duration_s=0.2,
            workers=1,
            pace=False,
        )

        def exploding(index, due, shape, decision):
            raise RuntimeError("hook boom")

        with pytest.raises(RuntimeError, match="hook boom"):
            run_load(router, config, on_request=exploding)


class TestChunkedRun:
    def test_chunks_use_select_batch_and_retire_every_decision(self):
        registry = MetricsRegistry()
        router = _stub_router(registry)
        config = LoadgenConfig(
            profile=RateProfile(base_qps=5000.0),
            duration_s=0.4,
            workers=2,
            pace=False,
        )
        seen = []
        lock = __import__("threading").Lock()

        def on_request(index, due, shape, decision):
            with lock:
                seen.append(index)

        report = run_load(router, config, on_request=on_request, chunk_size=64)
        assert report.offered > 64
        assert report.completed == report.offered
        assert sorted(seen) == list(range(report.offered))
        assert sum(report.dispatched.values()) == report.completed
        assert report.request_latency.count == report.completed
        # Chunks went through the batch path (only a worker's last
        # chunk can be a lone select), and every decision was retired.
        stats = [router.service(d).stats() for d in ("dev0", "dev1")]
        assert sum(st.batch_calls for st in stats) > 0
        assert sum(st.single_calls for st in stats) <= config.workers
        for device in ("dev0", "dev1"):
            assert registry.gauge(
                "fleet.outstanding", {"device": device}
            ).value == 0
        assert sum(
            registry.counter("fleet.dispatched", {"device": d}).value
            for d in ("dev0", "dev1")
        ) == report.offered

    def test_rejects_a_nonpositive_chunk(self):
        router = _stub_router(MetricsRegistry())
        with pytest.raises(ValueError, match="chunk_size"):
            run_load(router, LoadgenConfig(duration_s=0.1), chunk_size=0)


class TestMergedQuantiles:
    def test_merges_across_label_sets(self):
        registry = MetricsRegistry()
        a = registry.histogram("x.seconds", {"service": "a"})
        b = registry.histogram("x.seconds", {"service": "b"})
        for _ in range(90):
            a.observe(1e-6)
        for _ in range(10):
            b.observe(1e-3)
        merged = merged_summary(registry, "x.seconds")
        assert isinstance(merged, HistogramSummary)
        assert merged.count == 100
        assert merged.p50_s < 1e-4 < merged.p999_s

    def test_none_when_no_observations(self):
        registry = MetricsRegistry()
        registry.histogram("x.seconds")
        assert merged_summary(registry, "x.seconds") is None

    def test_mismatched_bounds_raise(self):
        registry = MetricsRegistry()
        registry.histogram("x.seconds", {"i": "0"}, bounds=(1.0,)).observe(0.5)
        registry.histogram("x.seconds", {"i": "1"}, bounds=(2.0,)).observe(0.5)
        with pytest.raises(ValueError, match="bounds"):
            merged_summary(registry, "x.seconds")
