"""The `repro obs` command and the --obs-export plumbing."""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs import MetricsRegistry, Tracer, obs_doc


@pytest.fixture
def snapshot_path(tmp_path):
    registry = MetricsRegistry()
    registry.counter("serving.lookups", {"service": "dev-a"}).inc(42)
    registry.gauge("serving.cache_size", {"service": "dev-a"}).set(7)
    histogram = registry.histogram(
        "serving.lookup_seconds", {"service": "dev-a"}
    )
    for value in (1e-6, 3e-6, 8e-6, 2e-5):
        histogram.observe(value)
    tracer = Tracer()
    with tracer.trace("fleet.reroute", **{"from": "dev-b", "to": "dev-a"}):
        pass
    path = tmp_path / "obs.json"
    path.write_text(json.dumps(obs_doc(registry, tracer)))
    return path


class TestObsCommand:
    def test_summary_renders_metrics_and_span_rollup(
        self, snapshot_path, capsys
    ):
        assert main(["obs", "summary", "--snapshot", str(snapshot_path)]) == 0
        out = capsys.readouterr().out
        assert "serving.lookups{service=dev-a}" in out
        assert "serving.lookup_seconds{service=dev-a}" in out
        assert "p95" in out
        assert "fleet.reroute" in out

    def test_dump_renders_bucket_bars_and_span_trees(
        self, snapshot_path, capsys
    ):
        assert main(["obs", "dump", "--snapshot", str(snapshot_path)]) == 0
        out = capsys.readouterr().out
        assert "histograms:" in out
        assert "#" in out  # bucket bars
        assert "spans (1 roots):" in out

    def test_json_round_trips_the_document(self, snapshot_path, capsys):
        assert main(
            ["obs", "summary", "--json", "--snapshot", str(snapshot_path)]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.obs/v1"
        assert doc["metrics"]["counters"][0]["value"] == 42

    def test_missing_snapshot_is_a_clean_error(self, tmp_path, capsys):
        code = main(
            ["obs", "summary", "--snapshot", str(tmp_path / "absent.json")]
        )
        assert code == 1
        assert "no obs snapshot" in capsys.readouterr().err

    def test_wrong_schema_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "something/else"}))
        assert main(["obs", "dump", "--snapshot", str(path)]) == 1
        assert "not an obs document" in capsys.readouterr().err

    def test_without_snapshot_reads_the_in_process_registry(self, capsys):
        assert main(["obs", "summary"]) == 0
        # Nothing recorded in this process is fine; the command still
        # renders a well-formed (possibly empty) document.
        assert capsys.readouterr().out.strip()


class TestBadSnapshots:
    """Every snapshot-reading command fails with one clean ERROR line."""

    @pytest.fixture
    def bad_path(self, request, tmp_path):
        path = tmp_path / "snap.json"
        if request.param == "not-json":
            path.write_text("{not json")
        elif request.param == "wrong-schema":
            # Carries metrics every command would match, so only the
            # schema check can reject it.
            metrics = {
                "counters": [
                    {"name": name, "labels": {}, "value": 1}
                    for name in ("shard.requests", "adaptive.trials")
                ],
                "gauges": [],
                "histograms": [],
            }
            path.write_text(
                json.dumps({"schema": "other/v9", "metrics": metrics})
            )
        return path

    @pytest.mark.parametrize(
        "bad_path", ["missing", "not-json", "wrong-schema"], indirect=True
    )
    @pytest.mark.parametrize(
        "command",
        [["obs", "dump"], ["shard", "stats"], ["adaptive", "stats"]],
        ids=["obs", "shard", "adaptive"],
    )
    def test_exits_1_with_an_error_line(self, command, bad_path, capsys):
        assert main(command + ["--snapshot", str(bad_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ERROR: ")
        assert str(bad_path) in captured.err


class TestObsExportFlags:
    def test_fleet_route_and_serve_stats_accept_obs_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            [
                "fleet", "route", "--kill", "dev-a",
                "--obs-export", "snap.json",
            ]
        )
        assert args.kill == ["dev-a"]
        assert str(args.obs_export) == "snap.json"
        args = parser.parse_args(["serve-stats", "--obs-export", "snap.json"])
        assert str(args.obs_export) == "snap.json"
        args = parser.parse_args(
            ["pipeline", "run", "--obs-export", "snap.json"]
        )
        assert str(args.obs_export) == "snap.json"
