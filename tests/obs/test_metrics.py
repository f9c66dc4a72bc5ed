"""Metrics primitives and registry: semantics, boundaries, thread safety."""

import json
import threading

import pytest

from repro.obs import (
    LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    HistogramSummary,
    MetricsRegistry,
    NullRegistry,
    NULL_REGISTRY,
    format_seconds,
    histogram_quantile,
    merged_summary,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter()
        assert c.value == 0
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_negative_increment_raises(self):
        with pytest.raises(ValueError, match="only go up"):
            Counter().inc(-1)

    def test_reset(self):
        c = Counter()
        c.inc(3)
        c.reset()
        assert c.value == 0


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge()
        g.set(5.0)
        g.inc(2.0)
        g.dec()
        assert g.value == pytest.approx(6.0)

    def test_set_max_is_monotonic(self):
        g = Gauge()
        g.set_max(4.0)
        g.set_max(2.0)
        assert g.value == pytest.approx(4.0)
        g.set_max(9.0)
        assert g.value == pytest.approx(9.0)


class TestHistogramBuckets:
    def test_default_bounds_are_the_latency_buckets(self):
        h = Histogram()
        assert h.bounds == LATENCY_BUCKETS_S

    def test_latency_buckets_span_microseconds_to_seconds(self):
        assert len(LATENCY_BUCKETS_S) == 33
        assert LATENCY_BUCKETS_S[0] == pytest.approx(1e-7)
        assert LATENCY_BUCKETS_S[-1] == pytest.approx(10.0)
        assert all(
            a < b for a, b in zip(LATENCY_BUCKETS_S, LATENCY_BUCKETS_S[1:])
        )

    def test_boundary_value_lands_in_its_own_bucket(self):
        # le-semantics: a bound is the *inclusive* upper edge.
        h = Histogram(bounds=(1.0, 2.0, 4.0))
        h.observe(1.0)
        h.observe(2.0)
        h.observe(2.0000001)
        assert h.bucket_counts() == (1, 1, 1, 0)

    def test_overflow_bucket_catches_values_above_the_last_bound(self):
        h = Histogram(bounds=(1.0, 2.0))
        h.observe(100.0)
        assert h.bucket_counts() == (0, 0, 1)

    def test_summary_statistics(self):
        h = Histogram(bounds=(1.0, 10.0))
        for v in (0.5, 2.0, 8.0, 12.0):
            h.observe(v)
        assert h.count == 4
        assert h.total == pytest.approx(22.5)
        assert h.mean == pytest.approx(22.5 / 4)
        assert h.minimum == pytest.approx(0.5)
        assert h.maximum == pytest.approx(12.0)

    def test_observe_n_equals_n_repeated_observes(self):
        weighted = Histogram(bounds=(1.0, 2.0, 4.0))
        looped = Histogram(bounds=(1.0, 2.0, 4.0))
        weighted.observe_n(1.5, 1000)
        weighted.observe_n(3.0, 5)
        for _ in range(1000):
            looped.observe(1.5)
        for _ in range(5):
            looped.observe(3.0)
        assert weighted.bucket_counts() == looped.bucket_counts() == (0, 1000, 5, 0)
        assert weighted.count == looped.count == 1005
        assert weighted.total == pytest.approx(looped.total)
        assert weighted.minimum == pytest.approx(1.5)
        assert weighted.maximum == pytest.approx(3.0)

    def test_observe_n_zero_is_a_no_op_and_negative_raises(self):
        h = Histogram(bounds=(1.0,))
        h.observe_n(0.5, 0)
        assert h.count == 0
        with pytest.raises(ValueError, match="n"):
            h.observe_n(0.5, -1)

    def test_quantiles_are_ordered_and_clamped_to_observations(self):
        h = Histogram()
        for v in (1e-6, 2e-6, 5e-6, 1e-5, 1e-4):
            h.observe(v)
        q50, q95 = h.quantile(0.5), h.quantile(0.95)
        assert h.minimum <= q50 <= q95 <= h.maximum

    def test_non_increasing_bounds_raise(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram(bounds=(1.0, 1.0))

    def test_histogram_quantile_interpolates_inside_the_bucket(self):
        bounds = (1.0, 2.0, 3.0)
        counts = (0, 10, 0, 0)  # everything in (1, 2]
        q = histogram_quantile(bounds, counts, 0.5, minimum=1.2, maximum=1.8)
        assert 1.2 <= q <= 1.8


class TestHistogramSummary:
    # Sub-microsecond to overflow (> 10 s, past the last default bound).
    VALUES = (3e-7, 2e-6, 2e-6, 2e-6, 4.5e-5, 1e-3, 1e-3, 0.2, 50.0)

    def _mixed(self):
        h = Histogram()
        for value in self.VALUES:
            h.observe(value)
        assert h.bucket_counts()[-1] == 1  # the overflow bucket is used
        return h

    def test_summary_is_the_summary_of_its_json_snapshot(self):
        h = self._mixed()
        doc = json.loads(json.dumps(h.snapshot()))
        assert h.summary() == HistogramSummary.from_snapshot(doc)

    def test_fields_equal_the_histogram_readouts_exactly(self):
        h = self._mixed()
        s = h.summary()
        assert s.count == h.count == len(self.VALUES)
        assert s.mean_s == h.mean
        assert s.max_s == h.maximum == 50.0
        assert s.p50_s == h.quantile(0.5)
        assert s.p95_s == h.quantile(0.95)
        assert s.p99_s == h.quantile(0.99)
        assert s.p999_s == h.quantile(0.999)

    def test_merged_summary_equals_one_histogram_that_saw_everything(self):
        a_values = [1.7e-6] * 40 + [3e-5] * 10 + [50.0]
        b_values = [1.6e-6] + [1.7e-6] * 19 + [2e-3] * 9 + [0.4]
        reg = MetricsRegistry()
        whole = Histogram()
        for label, values in (("a", a_values), ("b", b_values)):
            for value in values:
                reg.histogram("lat", {"device": label}).observe(value)
                whole.observe(value)
        merged = merged_summary(reg, "lat")
        expected = whole.summary()
        assert merged is not None
        assert merged.count == expected.count == 81
        assert merged.max_s == expected.max_s == 50.0
        # Most mass sits at the bottom of one bucket, so interpolation
        # undershoots and p50 is clamped to the observed minimum: the
        # merged minimum (1.6e-6, from "b" only) is exact too.
        assert merged.p50_s == expected.p50_s == 1.6e-6
        assert merged.p95_s == expected.p95_s
        assert merged.p99_s == expected.p99_s
        assert merged.p999_s == expected.p999_s
        assert merged.mean_s == pytest.approx(expected.mean_s)

    def test_empty_summary_is_zero_and_renders_as_such(self):
        s = Histogram().summary()
        assert s == HistogramSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert s.render() == "(no observations)"

    def test_render_and_to_dict_carry_every_field(self):
        s = self._mixed().summary()
        assert set(s.to_dict()) == {
            "count", "mean_s", "p50_s", "p95_s", "p99_s", "p999_s", "max_s"
        }
        for label in ("count", "mean", "p50", "p95", "p99", "p999", "max"):
            assert f"{label} " in s.render()

    def test_format_seconds_picks_the_unit(self):
        assert format_seconds(3e-7) == "300 ns"
        assert format_seconds(4.5e-5) == "45.0 us"
        assert format_seconds(2e-3) == "2.00 ms"
        assert format_seconds(50.0) == "50.000 s"


class TestRegistry:
    def test_get_or_create_returns_the_same_instance(self):
        reg = MetricsRegistry()
        a = reg.counter("x", {"k": "v"})
        b = reg.counter("x", {"k": "v"})
        assert a is b
        assert len(reg) == 1

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        a = reg.counter("x", {"a": 1, "b": 2})
        b = reg.counter("x", {"b": 2, "a": 1})
        assert a is b

    def test_same_name_different_labels_are_distinct(self):
        reg = MetricsRegistry()
        assert reg.counter("x", {"d": "a"}) is not reg.counter("x", {"d": "b"})

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="Counter"):
            reg.gauge("x")

    def test_empty_name_raises(self):
        with pytest.raises(ValueError, match="non-empty"):
            MetricsRegistry().counter("")

    def test_snapshot_structure(self):
        reg = MetricsRegistry()
        reg.counter("c", {"k": "v"}).inc(3)
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(2e-6)
        snap = reg.snapshot()
        assert [e["name"] for e in snap["counters"]] == ["c"]
        assert snap["counters"][0]["labels"] == {"k": "v"}
        assert snap["counters"][0]["value"] == 3
        assert snap["gauges"][0]["value"] == pytest.approx(1.5)
        assert snap["histograms"][0]["count"] == 1

    def test_reset_zeroes_but_keeps_registrations(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        c.inc(5)
        reg.reset()
        assert c.value == 0
        assert len(reg) == 1


class TestThreadSafety:
    N_THREADS = 8
    N_INCS = 2_000

    def test_concurrent_writers_lose_no_updates(self):
        reg = MetricsRegistry()
        counter = reg.counter("hits")
        histogram = reg.histogram("lat")
        gauge = reg.gauge("peak")
        barrier = threading.Barrier(self.N_THREADS)

        def writer(worker: int) -> None:
            barrier.wait()
            for i in range(self.N_INCS):
                counter.inc()
                histogram.observe(1e-6 * (1 + (i + worker) % 7))
                gauge.set_max(worker)

        threads = [
            threading.Thread(target=writer, args=(w,))
            for w in range(self.N_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == self.N_THREADS * self.N_INCS
        assert histogram.count == self.N_THREADS * self.N_INCS
        assert sum(histogram.bucket_counts()) == histogram.count
        assert gauge.value == self.N_THREADS - 1

    def test_concurrent_get_or_create_yields_one_instance(self):
        reg = MetricsRegistry()
        seen = []
        barrier = threading.Barrier(self.N_THREADS)

        def getter() -> None:
            barrier.wait()
            seen.append(reg.counter("shared", {"k": "v"}))

        threads = [
            threading.Thread(target=getter) for _ in range(self.N_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(map(id, seen))) == 1


class TestNullRegistry:
    def test_writes_are_dropped(self):
        reg = NullRegistry()
        c = reg.counter("c")
        c.inc(100)
        assert c.value == 0
        h = reg.histogram("h")
        h.observe(1.0)
        assert h.count == 0
        g = reg.gauge("g")
        g.set(5.0)
        g.set_max(9.0)
        assert g.value == 0.0

    def test_snapshot_is_empty(self):
        snap = NULL_REGISTRY.snapshot()
        assert snap == {"counters": [], "gauges": [], "histograms": []}
