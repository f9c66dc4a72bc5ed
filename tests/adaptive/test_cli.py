"""The `repro adaptive` command and the loadgen --adaptive flags."""

import json

import pytest

from repro.cli import main

DEMO_ARGS = ["adaptive", "demo", "--steps", "400", "--pool-size", "6"]


class TestAdaptiveDemo:
    def test_prints_summary_timeline_and_digest(self, capsys):
        assert main(DEMO_ARGS) == 0
        out = capsys.readouterr().out
        assert "gap closure" in out
        assert "trace digest:" in out
        assert "promotion" in out  # timeline shows at least one event

    def test_verify_replay_passes(self, capsys):
        assert main(DEMO_ARGS + ["--verify-replay"]) == 0
        out = capsys.readouterr().out
        assert "bit-identically" in out

    def test_obs_export_round_trips_through_stats(self, capsys, tmp_path):
        snapshot = tmp_path / "obs.json"
        assert main(DEMO_ARGS + ["--obs-export", str(snapshot)]) == 0
        capsys.readouterr()
        assert main(["adaptive", "stats", "--snapshot", str(snapshot)]) == 0
        out = capsys.readouterr().out
        assert "adaptive.trials" in out
        assert "adaptive.promotions" in out
        assert "adaptive.observed_seconds" in out
        # Only adaptive.* metrics survive the filter.
        assert "serving." not in out and "loadgen." not in out

    def test_seed_changes_the_digest(self, capsys):
        assert main(DEMO_ARGS) == 0
        first = capsys.readouterr().out
        assert main(DEMO_ARGS + ["--seed", "5"]) == 0
        second = capsys.readouterr().out

        def digest_of(out):
            return next(
                line for line in out.splitlines() if "trace digest" in line
            )

        assert digest_of(first) != digest_of(second)


class TestAdaptiveStatsErrors:
    def test_missing_snapshot_flag(self, capsys):
        assert main(["adaptive", "stats"]) == 1
        assert "--snapshot" in capsys.readouterr().err

    def test_nonexistent_snapshot(self, capsys, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(["adaptive", "stats", "--snapshot", str(missing)]) == 1
        assert "no obs snapshot" in capsys.readouterr().err

    def test_snapshot_without_adaptive_metrics(self, capsys, tmp_path):
        snapshot = tmp_path / "plain.json"
        snapshot.write_text(
            json.dumps(
                {
                    "schema": "repro.obs/v1",
                    "metrics": {"counters": [], "gauges": [], "histograms": []},
                    "spans": [],
                }
            )
        )
        assert main(["adaptive", "stats", "--snapshot", str(snapshot)]) == 1
        assert "no adaptive.*" in capsys.readouterr().err


class TestLoadgenAdaptive:
    @pytest.fixture(scope="class")
    def run_out(self, tmp_path_factory):
        report_path = tmp_path_factory.mktemp("adaptive") / "report.json"
        code = main(
            [
                "loadgen",
                "run",
                "--adaptive",
                "--no-pace",
                "--qps",
                "1500",
                "--duration",
                "2",
                "--workers",
                "2",
                "--zipf",
                "1.3",
                "--drift-at",
                "0.35",
                "--min-gap-closure",
                "0.5",
                "--report-json",
                str(report_path),
            ]
        )
        return code, report_path

    def test_gate_passes_and_report_has_drift(self, run_out, capsys):
        code, report_path = run_out
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert doc["drift"]["gap_closure"] >= 0.5
        assert doc["drift"]["promotions"] > 0

    def test_adaptive_conflicts_with_store(self, capsys, tmp_path):
        code = main(
            [
                "loadgen",
                "run",
                "--adaptive",
                "--store",
                str(tmp_path / "store"),
            ]
        )
        assert code == 1
        assert "drop --store" in capsys.readouterr().err

    def test_gap_gate_requires_adaptive(self, capsys):
        code = main(
            [
                "loadgen",
                "run",
                "--no-pace",
                "--qps",
                "200",
                "--duration",
                "0.3",
                "--workers",
                "2",
                "--budget",
                "2",
                "--min-gap-closure",
                "0.5",
            ]
        )
        assert code == 1
        assert "needs a drift report" in capsys.readouterr().err
