"""The `repro pipeline` and artifact-backed `repro serve-stats` commands."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main

NETWORK_ARGS = ["--networks", "mobilenet_v2"]


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "store"
    assert main(["pipeline", "run", "--store", str(path), *NETWORK_ARGS]) == 0
    return path


class TestPipelineRun:
    def test_run_reports_stages_and_artifacts(self, store_path, capsys):
        main(["pipeline", "run", "--store", str(store_path), *NETWORK_ARGS])
        out = capsys.readouterr().out
        assert "0 executed, 11 cached" in out
        assert "train    ->" in out

    def test_second_run_passes_assert_all_cached(self, store_path):
        code = main(
            [
                "pipeline", "run", "--store", str(store_path),
                *NETWORK_ARGS, "--assert-all-cached",
            ]
        )
        assert code == 0

    def test_assert_all_cached_fails_on_cold_store(self, tmp_path, capsys):
        code = main(
            [
                "pipeline", "run", "--store", str(tmp_path / "cold"),
                *NETWORK_ARGS, "--assert-all-cached",
            ]
        )
        assert code == 1
        assert "expected a fully cached run" in capsys.readouterr().err

    def test_render_includes_the_report(self, store_path, capsys):
        main(
            [
                "pipeline", "run", "--store", str(store_path),
                *NETWORK_ARGS, "--render",
            ]
        )
        out = capsys.readouterr().out
        assert "Reproduction report" in out


class TestPipelineStatus:
    def test_status_lists_artifacts(self, store_path, capsys):
        assert main(["pipeline", "status", "--store", str(store_path)]) == 0
        out = capsys.readouterr().out
        assert "11 artifacts" in out
        assert "sweep" in out and "train" in out

    def test_status_on_empty_store(self, tmp_path, capsys):
        assert main(["pipeline", "status", "--store", str(tmp_path / "e")]) == 0
        assert "empty" in capsys.readouterr().out


class TestPipelineGc:
    def test_gc_keeps_current_config(self, store_path, capsys):
        assert main(
            ["pipeline", "gc", "--store", str(store_path), *NETWORK_ARGS]
        ) == 0
        assert "removed 0 artifacts, kept 11" in capsys.readouterr().out

    def test_gc_all_clears(self, tmp_path, capsys):
        path = tmp_path / "doomed"
        main(["pipeline", "run", "--store", str(path), *NETWORK_ARGS])
        capsys.readouterr()
        assert main(["pipeline", "gc", "--store", str(path), "--all"]) == 0
        assert "kept 0" in capsys.readouterr().out


class TestServeStatsFromStore:
    def test_serves_latest_train_artifact(self, store_path, tmp_path, capsys):
        # Reuse the store's dataset artifact to skip a fresh sweep.
        from repro.pipeline import ArtifactStore

        store = ArtifactStore(store_path)
        latest = store.latest("dataset")
        dataset_path = tmp_path / "ds.npz"
        store.resolve(latest.fingerprint).value.save(dataset_path)
        code = main(
            [
                "serve-stats", "--store", str(store_path),
                "--dataset", str(dataset_path), "--requests", "512",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "policy artifact  train:" in out
        assert "provenance" in out

    def test_errors_cleanly_without_train_artifact(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        code = main(
            [
                "serve-stats", "--store", str(tmp_path / "empty"),
                "--dataset", str(tmp_path / "missing.npz"),
            ]
        )
        assert code == 1
        assert "no trained selector artifact" in capsys.readouterr().err


class TestSharedStoreFlags:
    """pipeline, fleet and onboard share one set of store/selector flags."""

    SHARED = {
        "store": Path(".repro-store"),
        "networks": None,
        "split_seed": 0,
        "test_size": 0.2,
        "pruner": "decision tree",
        "budget": 8,
        "classifier": "DecisionTree",
        "seed": 0,
        "workers": 1,
        "force": False,
        "assert_all_cached": False,
    }

    def test_defaults_are_pinned_and_equal(self):
        parser = build_parser()
        for argv in (
            ["pipeline", "run"],
            ["fleet", "build"],
            ["onboard", "run", "--target", "r9-nano"],
        ):
            args = vars(parser.parse_args(argv))
            assert {k: args[k] for k in self.SHARED} == self.SHARED, argv
