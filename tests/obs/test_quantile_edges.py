"""histogram_quantile / merged_summary edge cases (satellite coverage)."""

import pytest

from repro.obs import Histogram, MetricsRegistry, histogram_quantile, merged_summary


class TestHistogramQuantileEdges:
    def test_no_observations_returns_zero(self):
        assert histogram_quantile((1.0, 2.0), (0, 0, 0), 0.99) == 0.0

    def test_all_mass_in_overflow_bucket(self):
        # Every observation exceeded the last bound: the only data lives
        # in the +Inf bucket, and the estimate must come from the
        # observed maximum, not extrapolate past it.
        h = Histogram(bounds=(1.0,))
        for value in (5.0, 7.0, 9.0):
            h.observe(value)
        assert h.bucket_counts() == (0, 3)
        assert h.quantile(0.5) <= 9.0
        assert h.quantile(0.999) == pytest.approx(9.0, rel=0.01)
        assert h.quantile(1.0) == 9.0
        # The interpolation floor for the overflow bucket is the last
        # bound, so low quantiles stay within [last bound, max].
        assert 1.0 <= h.quantile(0.01) <= 9.0

    def test_single_observation_pins_every_quantile(self):
        h = Histogram()
        h.observe(3.3e-5)
        for q in (0.0, 0.5, 0.99, 0.999, 1.0):
            assert h.quantile(q) == pytest.approx(3.3e-5)

    def test_clamps_to_observed_range(self):
        # One wide bucket [0, 10]: interpolation alone would answer 5.0
        # for p50, but both observations are 2.0 so the clamp wins.
        h = Histogram(bounds=(10.0,))
        h.observe(2.0)
        h.observe(2.0)
        assert h.quantile(0.5) == 2.0

    def test_quantile_out_of_range_raises(self):
        with pytest.raises(ValueError, match="quantile"):
            histogram_quantile((1.0,), (1, 0), 1.5)

    def test_count_width_mismatch_raises(self):
        with pytest.raises(ValueError, match="bucket counts"):
            histogram_quantile((1.0, 2.0), (1, 0), 0.5)


class TestMergedQuantilesEdges:
    def test_empty_registry_returns_none(self):
        assert merged_summary(MetricsRegistry(), "serving.lookup_seconds") is None

    def test_registered_but_unobserved_histograms_return_none(self):
        reg = MetricsRegistry()
        reg.histogram("lat", {"w": "0"})
        assert merged_summary(reg, "lat") is None

    def test_disjoint_label_sets_merge_bucket_counts(self):
        reg = MetricsRegistry()
        reg.histogram("lat", {"worker": "0"}, bounds=(1.0, 10.0)).observe(0.5)
        reg.histogram("lat", {"worker": "1"}, bounds=(1.0, 10.0)).observe(8.0)
        reg.histogram("lat", {"worker": "1"}, bounds=(1.0, 10.0)).observe(8.0)
        summary = merged_summary(reg, "lat")
        assert summary is not None
        assert summary.count == 3
        assert summary.mean_s == pytest.approx((0.5 + 8.0 + 8.0) / 3)
        assert 0.5 <= summary.p50_s <= 8.0
        assert summary.p999_s == 8.0

    def test_mismatched_bounds_across_labels_raise(self):
        reg = MetricsRegistry()
        reg.histogram("lat", {"w": "0"}, bounds=(1.0,)).observe(0.5)
        reg.histogram("lat", {"w": "1"}, bounds=(2.0,)).observe(0.5)
        with pytest.raises(ValueError, match="mismatched"):
            merged_summary(reg, "lat")

    def test_other_metric_names_are_ignored(self):
        reg = MetricsRegistry()
        reg.histogram("other").observe(1.0)
        reg.counter("lat").inc()  # same name, wrong kind: skipped
        assert merged_summary(reg, "lat") is None
