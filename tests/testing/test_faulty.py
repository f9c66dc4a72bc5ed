"""FaultyModel / FaultyQueue / FaultyDevice wrappers and the queue's
failure bookkeeping."""

import pickle

import numpy as np
import pytest

from repro.bench.failures import CellFaults
from repro.kernels.matmul import TiledMatmulKernel, matmul
from repro.kernels.params import config_index, config_space
from repro.perfmodel.model import GemmPerfModel
from repro.sycl.buffer import AccessMode, Buffer
from repro.sycl.device import Device
from repro.sycl.exceptions import DeviceError, DeviceTimeoutError
from repro.sycl.queue import Queue
from repro.testing import (
    FaultKind,
    FaultPlan,
    FaultyDevice,
    FaultyModel,
    FaultyQueue,
)
from repro.workloads.gemm import GemmShape

CONFIGS = config_space(tile_sizes=(1, 2, 4), work_groups=((8, 8), (16, 16)))
SHAPE = GemmShape(m=96, k=48, n=64)


@pytest.fixture
def device():
    return Device.r9_nano()


class TestFaultyModel:
    def test_passthrough_without_faults(self, device):
        base = GemmPerfModel(device)
        wrapped = FaultyModel(GemmPerfModel(device), FaultPlan(rate=0.0))
        np.testing.assert_array_equal(
            base.measured_times_seconds(SHAPE, CONFIGS[0], iterations=4),
            wrapped.measured_times_seconds(SHAPE, CONFIGS[0], iterations=4),
        )

    def test_poisoned_cell_raises(self, device):
        plan = FaultPlan().poison(SHAPE, CONFIGS[1])
        wrapped = FaultyModel(GemmPerfModel(device), plan)
        with pytest.raises(DeviceError):
            wrapped.measured_times_seconds(SHAPE, CONFIGS[1], iterations=4)

    def test_timeout_kind_raises_timeout(self, device):
        plan = FaultPlan().poison(SHAPE, CONFIGS[1], kind=FaultKind.TIMEOUT)
        wrapped = FaultyModel(GemmPerfModel(device), plan)
        with pytest.raises(DeviceTimeoutError):
            wrapped.measured_times_seconds(SHAPE, CONFIGS[1], iterations=4)

    def test_attempt_counting_and_transient_recovery(self, device):
        plan = FaultPlan().poison(SHAPE, CONFIGS[0], fail_attempts=2)
        wrapped = FaultyModel(GemmPerfModel(device), plan)
        for _ in range(2):
            with pytest.raises(DeviceError):
                wrapped.measured_times_seconds(SHAPE, CONFIGS[0], iterations=4)
        # Third attempt recovers.
        times = wrapped.measured_times_seconds(SHAPE, CONFIGS[0], iterations=4)
        assert np.all(times > 0)
        assert wrapped.attempts_for(SHAPE, CONFIGS[0]) == 3

    def test_reset_restarts_attempts(self, device):
        plan = FaultPlan().poison(SHAPE, CONFIGS[0], fail_attempts=1)
        wrapped = FaultyModel(GemmPerfModel(device), plan)
        with pytest.raises(DeviceError):
            wrapped.measured_times_seconds(SHAPE, CONFIGS[0], iterations=2)
        wrapped.measured_times_seconds(SHAPE, CONFIGS[0], iterations=2)
        wrapped.reset()
        assert wrapped.attempts_for(SHAPE, CONFIGS[0]) == 0
        with pytest.raises(DeviceError):
            wrapped.measured_times_seconds(SHAPE, CONFIGS[0], iterations=2)

    def test_row_passthrough_without_faults(self, device):
        base = GemmPerfModel(device)
        wrapped = FaultyModel(GemmPerfModel(device), FaultPlan(rate=0.0))
        indices = [config_index(c) for c in CONFIGS]
        np.testing.assert_array_equal(
            base.measured_row_seconds(SHAPE, indices, iterations=4),
            wrapped.measured_row_seconds(SHAPE, indices, iterations=4),
        )

    def test_row_with_a_poisoned_cell_carries_the_rest(self, device):
        plan = FaultPlan().poison(SHAPE, CONFIGS[1], kind=FaultKind.TIMEOUT)
        wrapped = FaultyModel(GemmPerfModel(device), plan)
        indices = [config_index(c) for c in CONFIGS]
        with pytest.raises(CellFaults) as info:
            wrapped.measured_row_seconds(SHAPE, indices, iterations=3)
        assert set(info.value.errors) == {1}
        assert isinstance(info.value.errors[1], DeviceTimeoutError)
        assert "attempt 0" in str(info.value.errors[1])
        clean = GemmPerfModel(device).measured_row_seconds(
            SHAPE, indices, iterations=3
        )
        assert np.isnan(info.value.times[1]).all()
        np.testing.assert_array_equal(
            np.delete(info.value.times, 1, axis=0), np.delete(clean, 1, axis=0)
        )

    def test_row_counts_one_attempt_per_requested_cell(self, device):
        plan = FaultPlan().poison(SHAPE, CONFIGS[0], fail_attempts=1)
        wrapped = FaultyModel(GemmPerfModel(device), plan)
        picked = [config_index(CONFIGS[0]), config_index(CONFIGS[2])]
        with pytest.raises(CellFaults):
            wrapped.measured_row_seconds(SHAPE, picked, iterations=2)
        wrapped.measured_row_seconds(SHAPE, picked[:1], iterations=2)
        assert wrapped.attempts_for(SHAPE, CONFIGS[0]) == 2
        assert wrapped.attempts_for(SHAPE, CONFIGS[2]) == 1
        assert wrapped.attempts_for(SHAPE, CONFIGS[1]) == 0

    def test_delegates_model_surface(self, device):
        wrapped = FaultyModel(GemmPerfModel(device), FaultPlan())
        assert wrapped.time_seconds(SHAPE, CONFIGS[0]) > 0
        assert wrapped.seed == GemmPerfModel(device).seed

    def test_picklable_for_process_pools(self, device):
        plan = FaultPlan(seed=3, rate=0.1).poison(SHAPE, CONFIGS[0])
        wrapped = FaultyModel(GemmPerfModel(device), plan)
        clone = pickle.loads(pickle.dumps(wrapped))
        with pytest.raises(DeviceError):
            clone.measured_times_seconds(SHAPE, CONFIGS[0], iterations=2)


class TestFaultyQueue:
    def test_fault_free_submission_delegates(self, device):
        fq = FaultyQueue(Queue(device), FaultPlan(rate=0.0))
        rng = np.random.default_rng(0)
        a = rng.standard_normal((16, 8)).astype(np.float32)
        b = rng.standard_normal((8, 12)).astype(np.float32)
        c, event = matmul(fq, a, b, CONFIGS[0])
        np.testing.assert_allclose(c, a.astype(np.float64) @ b, rtol=1e-5)
        assert event.profiling_duration_ns > 0
        assert len(fq.submission_log) == 1
        assert not fq.failure_log

    def test_poisoned_submission_raises_and_logs(self, device):
        kernel_name = TiledMatmulKernel(CONFIGS[0]).name
        plan = FaultPlan().poison_submission(kernel_name, 1)
        fq = FaultyQueue(Queue(device), plan)
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 8)).astype(np.float32)
        b = rng.standard_normal((8, 8)).astype(np.float32)
        matmul(fq, a, b, CONFIGS[0])  # submission 0 is fine
        with pytest.raises(DeviceError):
            matmul(fq, a, b, CONFIGS[0])  # submission 1 faults
        assert fq.submission_counts[kernel_name] == 2
        assert len(fq.failure_log) == 1
        assert fq.failure_log.records[0].where == kernel_name
        # The completed launch survives in the log; the queue stays usable.
        assert len(fq.submission_log) == 1
        matmul(fq, a, b, CONFIGS[0])
        assert len(fq.submission_log) == 2

    def test_faulted_submission_does_not_advance_clock(self, device):
        kernel_name = TiledMatmulKernel(CONFIGS[0]).name
        plan = FaultPlan().poison_submission(kernel_name, 0)
        fq = FaultyQueue(Queue(device), plan)
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 8)).astype(np.float32)
        with pytest.raises(DeviceError):
            matmul(fq, a, a, CONFIGS[0])
        assert fq.device_time_ns == 0

    def test_requires_real_queue(self):
        with pytest.raises(TypeError):
            FaultyQueue(object(), FaultPlan())

    def test_delegated_properties(self, device):
        fq = FaultyQueue(Queue(device, enable_profiling=False), FaultPlan())
        assert fq.device == device
        assert not fq.profiling_enabled
        fq.wait()


class TestFaultyDevice:
    def test_is_a_device(self, device):
        fd = FaultyDevice(device, FaultPlan())
        assert isinstance(fd, Device)
        assert fd.spec == device.spec

    def test_queue_factory_injects_plan(self, device):
        kernel_name = TiledMatmulKernel(CONFIGS[0]).name
        plan = FaultPlan().poison_submission(kernel_name, 0)
        fd = FaultyDevice(device, plan)
        queue = fd.queue()
        assert queue.plan is plan
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 8)).astype(np.float32)
        with pytest.raises(DeviceError):
            matmul(queue, a, a, CONFIGS[0])


class TestQueueFailureBookkeeping:
    """The Queue itself: partial logs and accessor release on failure."""

    class _ExplodingKernel(TiledMatmulKernel):
        def run(self, device, ndrange, accessors):
            raise DeviceError("kernel crashed mid-flight")

    def test_failed_run_records_and_releases(self, device):
        queue = Queue(device)
        kernel = self._ExplodingKernel(CONFIGS[0])
        buf_a = Buffer((8, 8))
        buf_b = Buffer((8, 8))
        buf_c = Buffer((8, 8))
        accs = (
            buf_a.get_access(AccessMode.READ),
            buf_b.get_access(AccessMode.READ),
            buf_c.get_access(AccessMode.WRITE),
        )
        with pytest.raises(DeviceError):
            queue.submit(kernel, kernel.nd_range_for(SHAPE), accs)
        assert queue.submission_log == []
        assert len(queue.failed_submissions) == 1
        name, message = queue.failed_submissions[0]
        assert name == kernel.name
        assert "crashed" in message
        # Accessors were released despite the failure: the write
        # generation advanced and the buffer remains usable.
        assert buf_c.write_generation == 1
        buf_c.get_access(AccessMode.READ_WRITE).release()

    def test_completed_work_survives_later_failure(self, device):
        queue = Queue(device)
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 8)).astype(np.float32)
        matmul(queue, a, a, CONFIGS[0])
        kernel = self._ExplodingKernel(CONFIGS[0])
        with pytest.raises(DeviceError):
            matmul_through(queue, kernel, a)
        assert len(queue.submission_log) == 1
        assert len(queue.failed_submissions) == 1

    def test_validation_failure_is_recorded(self, device):
        queue = Queue(device)
        config = CONFIGS[0]
        kernel = TiledMatmulKernel(config)

        class _Greedy(TiledMatmulKernel):
            def resource_usage(self, device):
                from repro.sycl.kernel import ResourceUsage

                return ResourceUsage(vgprs_per_lane=10_000)

        greedy = _Greedy(config)
        buf = Buffer((8, 8))
        with pytest.raises(DeviceError):
            queue.submit(
                greedy,
                kernel.nd_range_for(GemmShape(m=8, k=8, n=8)),
                (buf, buf, buf),
            )
        assert len(queue.failed_submissions) == 1


def matmul_through(queue, kernel, a):
    """Submit a prepared kernel through the queue with fresh buffers."""
    shape = GemmShape(m=a.shape[0], k=a.shape[1], n=a.shape[1])
    buf_a = Buffer.from_array(a)
    buf_b = Buffer.from_array(a)
    buf_c = Buffer((a.shape[0], a.shape[1]))
    return queue.submit(
        kernel,
        kernel.nd_range_for(shape),
        (
            buf_a.get_access(AccessMode.READ),
            buf_b.get_access(AccessMode.READ),
            buf_c.get_access(AccessMode.WRITE),
        ),
    )
