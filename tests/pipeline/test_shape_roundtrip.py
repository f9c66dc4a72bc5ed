"""Every shape-carrying codec round-trips every shape kind.

Property tests over {plain, placed, sparse} shapes x the ``bench-result``,
``dataset``, ``split`` and ``partial-sweep`` codecs: a value put into an
:class:`ArtifactStore` comes back equal, shape classes and annotations
included.
"""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench.cache import CacheMismatchError, load_dataset, save_dataset
from repro.bench.runner import BenchmarkResult, RunnerConfig
from repro.core.dataset import DatasetSplit, PerformanceDataset
from repro.kernels.params import config_space
from repro.onboard.sweep import PartialSweep
from repro.pipeline.artifact import Provenance
from repro.pipeline.store import ArtifactStore
from repro.workloads.gemm import GemmShape
from repro.workloads.placement import PlacedGemmShape
from repro.workloads.sparse import SparseGemmShape

CONFIGS = tuple(config_space(tile_sizes=(1, 2), work_groups=((8, 8), (64, 1))))
_fingerprints = (f"{i:064x}" for i in itertools.count())

_dims = dict(
    m=st.integers(1, 5000),
    k=st.integers(1, 5000),
    n=st.integers(1, 5000),
    batch=st.integers(1, 16),
)
SHAPE_KINDS = {
    "plain": st.builds(GemmShape, **_dims),
    "placed": st.builds(
        PlacedGemmShape, placement=st.sampled_from(["device", "host"]), **_dims
    ),
    "sparse": st.builds(
        SparseGemmShape,
        density=st.floats(0.0, 1.0, exclude_min=True, allow_nan=False),
        **_dims,
    ),
}


def tables(kind: str):
    """(shapes, gflops) with >= 2 distinct shapes and some NaN cells."""
    return st.tuples(
        st.lists(SHAPE_KINDS[kind], min_size=2, max_size=6, unique=True),
        st.integers(0, 2**32 - 1),
    ).map(lambda drawn: _table(*drawn))


def _table(shapes, seed):
    rng = np.random.default_rng(seed)
    gflops = rng.lognormal(3.0, 1.0, size=(len(shapes), len(CONFIGS)))
    # A failed cell per row at most, so no row is all-NaN.
    holes = rng.integers(0, len(CONFIGS), size=len(shapes))
    gflops[np.arange(len(shapes)), holes] = np.where(
        rng.random(len(shapes)) < 0.5, np.nan, gflops[0, 0]
    )
    return tuple(shapes), gflops


def _round_trip(store: ArtifactStore, value, codec: str):
    provenance = Provenance(
        stage="s",
        fingerprint=next(_fingerprints),
        code_version="1",
        params=None,
        parents={},
        codec=codec,
        created_at=1.0,
    )
    store.put(value, provenance)
    return store.get(provenance.fingerprint).value


def _assert_shapes_equal(got, want):
    assert got == want
    assert [type(s) for s in got] == [type(s) for s in want]


def _assert_datasets_equal(got, want):
    _assert_shapes_equal(got.shapes, want.shapes)
    assert got.configs == want.configs
    assert got.device_name == want.device_name
    np.testing.assert_array_equal(got.gflops, want.gflops)


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return ArtifactStore(tmp_path_factory.mktemp("roundtrip") / "store")


PROPERTY = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.mark.parametrize("kind", sorted(SHAPE_KINDS))
class TestCodecRoundTrips:
    def test_bench_result(self, kind, store):
        @PROPERTY
        @given(tables(kind))
        def check(table):
            shapes, gflops = table
            seconds = np.array([[s.flops] for s in shapes]) / gflops / 1e9
            result = BenchmarkResult(
                device_name="dev",
                shapes=shapes,
                configs=CONFIGS,
                gflops=gflops,
                seconds=seconds,
                runner=RunnerConfig(seed=5, max_retries=1),
            )
            loaded = _round_trip(store, result, "bench-result")
            _assert_shapes_equal(loaded.shapes, result.shapes)
            assert loaded.configs == result.configs
            assert loaded.device_name == result.device_name
            assert loaded.runner == result.runner
            np.testing.assert_array_equal(loaded.gflops, result.gflops)
            np.testing.assert_array_equal(loaded.seconds, result.seconds)

        check()

    def test_dataset(self, kind, store):
        @PROPERTY
        @given(tables(kind))
        def check(table):
            shapes, gflops = table
            dataset = PerformanceDataset(shapes, CONFIGS, gflops, "dev")
            _assert_datasets_equal(
                _round_trip(store, dataset, "dataset"), dataset
            )

        check()

    def test_split(self, kind, store):
        @PROPERTY
        @given(tables(kind))
        def check(table):
            shapes, gflops = table
            train, test = PerformanceDataset(shapes, CONFIGS, gflops).split(
                test_size=0.5, random_state=0
            )
            loaded = _round_trip(store, DatasetSplit(train, test), "split")
            _assert_datasets_equal(loaded.train, train)
            _assert_datasets_equal(loaded.test, test)

        check()

    def test_partial_sweep(self, kind, store):
        @PROPERTY
        @given(tables(kind))
        def check(table):
            shapes, gflops = table
            cells = np.flatnonzero(np.isfinite(gflops.ravel()))[::2]
            holey = np.full_like(gflops, np.nan)
            holey.ravel()[cells] = gflops.ravel()[cells]
            holey[np.arange(len(shapes)), np.nanargmax(gflops, axis=1)] = (
                np.nanmax(gflops, axis=1)
            )
            sweep = PartialSweep(
                dataset=PerformanceDataset(shapes, CONFIGS, holey, "dev"),
                cells=cells,
                sampler="random",
                seed=3,
                failed=1,
            )
            loaded = _round_trip(store, sweep, "partial-sweep")
            _assert_datasets_equal(loaded.dataset, sweep.dataset)
            np.testing.assert_array_equal(loaded.cells, sweep.cells)
            assert (loaded.sampler, loaded.seed, loaded.failed) == (
                "random",
                3,
                1,
            )

        check()


class TestCacheFormat:
    def test_mixed_shape_kinds_are_refused(self, tmp_path):
        shapes = (GemmShape(8, 8, 8), PlacedGemmShape(8, 8, 8, placement="host"))
        dataset = PerformanceDataset(shapes, CONFIGS, np.ones((2, len(CONFIGS))))
        with pytest.raises(TypeError, match="cannot store shapes"):
            dataset.save(tmp_path / "mixed.npz")

    def test_kind_tag_recorded(self, tmp_path):
        import json

        shapes = (SparseGemmShape(8, 8, 8, density=0.3),)
        result = BenchmarkResult(
            device_name="dev",
            shapes=shapes,
            configs=CONFIGS,
            gflops=np.ones((1, len(CONFIGS))),
            seconds=np.ones((1, len(CONFIGS))),
        )
        path = save_dataset(result, tmp_path / "sparse.npz")
        with np.load(path) as data:
            assert json.loads(str(data["meta"]))["shape_kind"] == "sparse"
            np.testing.assert_array_equal(data["shape_density"], [0.3])
        assert load_dataset(path).shapes == shapes

    def test_previous_format_is_a_cache_miss(self, tmp_path):
        import json

        shapes = (GemmShape(8, 8, 8),)
        path = PerformanceDataset(
            shapes, CONFIGS, np.ones((1, len(CONFIGS)))
        ).save(tmp_path / "old.npz")
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(str(arrays["meta"]))
        meta["format_version"] = 1
        arrays["meta"] = json.dumps(meta)
        np.savez(path, **arrays)
        with pytest.raises(CacheMismatchError, match="unsupported dataset format"):
            load_dataset(path)
