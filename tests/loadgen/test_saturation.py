"""Saturation reporting: offered-vs-achieved per worker, report meta."""

import json
import re
import time

import pytest

from repro.loadgen import (
    LoadReport,
    LoadgenConfig,
    RateProfile,
    WorkerLoad,
    git_revision,
    report_document,
    run_load,
)
from repro.loadgen.report import REPORT_SCHEMA
from repro.obs import HistogramSummary, MetricsRegistry
from repro.serving.router import RoutedDecision


def _summary(n=10):
    return HistogramSummary(
        count=n,
        mean_s=1e-4,
        p50_s=1e-4,
        p95_s=1.5e-4,
        p99_s=2e-4,
        p999_s=3e-4,
        max_s=4e-4,
    )


def _report(**overrides):
    fields = dict(
        duration_s=1.0,
        wall_s=1.0,
        offered=1000,
        completed=1000,
        late=0,
        achieved_qps=1000.0,
        request_latency=_summary(),
        lookup_latency=None,
        dispatched={"dev0": 1000},
        rerouted=0,
        paced=True,
        workers=(
            WorkerLoad(
                worker=0,
                offered=1000,
                completed=1000,
                late=0,
                offered_qps=1000.0,
                achieved_qps=1000.0,
            ),
        ),
    )
    fields.update(overrides)
    return LoadReport(**fields)


class TestSaturatedProperty:
    def test_keeping_up_is_not_saturated(self):
        assert not _report().saturated

    def test_excess_lateness_flags_saturation(self):
        assert _report(late=100).saturated

    def test_throughput_shortfall_flags_saturation(self):
        assert _report(achieved_qps=500.0, completed=500).saturated

    def test_unpaced_runs_never_saturate(self):
        report = _report(paced=False, late=500, achieved_qps=10.0)
        assert not report.saturated

    def test_empty_run_is_not_saturated(self):
        assert not _report(offered=0, completed=0, achieved_qps=0.0).saturated

    def test_render_warns_with_per_worker_lines(self):
        out = _report(late=100).render()
        assert "WARNING" in out
        assert "saturated" in out
        assert "worker 0" in out
        assert "offered 1,000 qps" in out

    def test_render_stays_quiet_when_keeping_up(self):
        assert "WARNING" not in _report().render()

    def test_to_dict_carries_saturation_and_workers(self):
        doc = _report(late=100).to_dict()
        assert doc["saturated"] is True
        assert doc["paced"] is True
        assert doc["workers"][0]["offered_qps"] == 1000.0


class _SlowRouter:
    """A router stub with a fixed per-select service time."""

    def __init__(self, registry, delay_s):
        self.registry = registry
        self._delay_s = delay_s

    def select(self, shape, policy=None):
        if self._delay_s:
            time.sleep(self._delay_s)
        return RoutedDecision(device_id="dev0", config=None)

    def complete(self, device_id, n=1):
        pass


class TestSaturatedRun:
    def test_overdriven_harness_reports_saturation(self):
        config = LoadgenConfig(
            profile=RateProfile(base_qps=400.0),
            duration_s=0.25,
            workers=1,
            seed=7,
        )
        router = _SlowRouter(MetricsRegistry(), delay_s=0.005)
        report = run_load(router, config)
        assert report.paced
        assert report.saturated
        assert report.late > 0
        assert len(report.workers) == 1
        assert report.workers[0].achieved_qps < report.workers[0].offered_qps
        assert "WARNING" in report.render()

    def test_sustainable_rate_is_not_saturated(self):
        config = LoadgenConfig(
            profile=RateProfile(base_qps=200.0),
            duration_s=0.25,
            workers=2,
            seed=7,
        )
        report = run_load(_SlowRouter(MetricsRegistry(), 0.0), config)
        assert not report.saturated
        assert sum(w.offered for w in report.workers) == report.offered


class TestReportDocument:
    def test_meta_rides_alongside_the_report_keys(self):
        doc = report_document(
            _report(), config={"qps": 1000.0}, command="repro loadgen run"
        )
        assert doc["meta"]["schema"] == REPORT_SCHEMA
        assert doc["meta"]["config"] == {"qps": 1000.0}
        assert doc["meta"]["command"] == "repro loadgen run"
        # The report's own keys stay top-level for existing consumers.
        assert doc["offered"] == 1000
        assert doc["achieved_qps"] == 1000.0
        json.dumps(doc)  # fully serializable

    def test_git_sha_is_the_checkout_head(self):
        sha = git_revision()
        if sha is None:
            pytest.skip("not in a git checkout")
        assert re.fullmatch(r"[0-9a-f]{40}", sha)
        doc = report_document(_report())
        assert doc["meta"]["git_sha"] == sha
