"""Device facade tests: contexts, allocation, submission, sync."""

import random

import numpy as np
import pytest

from repro.errors import AllocationError
from repro.gpu.device import Device
from repro.gpu.executor import compile_kernel
from repro.gpu.specs import GEFORCE_RTX_3080TI, QUADRO_RTX_A4000

from tests.conftest import saxpy_kernel


@pytest.fixture
def device():
    return Device(QUADRO_RTX_A4000)


class TestContexts:
    def test_context_ids_unique(self, device):
        a = device.create_context("a")
        b = device.create_context("b")
        assert a.context_id != b.context_id

    def test_destroy_releases_memory(self, device):
        context = device.create_context("a")
        device.allocate(context, 1 << 20)
        used = device.allocator.bytes_in_use
        device.destroy_context(context)
        assert device.allocator.bytes_in_use == used - (1 << 20)

    def test_default_stream_exists(self, device):
        context = device.create_context("a")
        assert context.default_stream is not None
        assert context.default_stream.context_id == context.context_id


class TestSubmission:
    def test_functional_now_timing_later(self, device):
        """D2H data is correct before synchronize() resolves timing."""
        context = device.create_context("a")
        stream = context.default_stream
        addr = device.allocate(context, 256)
        device.submit_h2d(stream, addr, b"\x42" * 256)
        data = device.submit_d2h(stream, addr, 256)
        assert data == b"\x42" * 256
        assert device.pending_tasks == 2
        device.synchronize()
        assert device.pending_tasks == 0

    def test_kernel_submission_counts(self, device):
        context = device.create_context("a")
        compiled = compile_kernel(saxpy_kernel(), device.spec)
        addr = device.allocate(context, 4096)
        device.submit_kernel(context.default_stream, compiled,
                             (1, 1, 1), (32, 1, 1),
                             [addr, addr, 1.0, 16])
        assert device.metrics.kernels_launched == 1

    def test_memset(self, device):
        context = device.create_context("a")
        addr = device.allocate(context, 128)
        device.submit_memset(context.default_stream, addr, 0xAA, 128)
        assert device.memory.read(addr, 128) == b"\xaa" * 128

    def test_clock_advances(self, device):
        context = device.create_context("a")
        addr = device.allocate(context, 1 << 16)
        device.submit_h2d(context.default_stream, addr, b"x" * (1 << 16))
        device.synchronize()
        assert device.clock_cycles > 0
        assert device.elapsed_seconds() > 0

    def test_oom(self, device):
        context = device.create_context("a")
        with pytest.raises(AllocationError):
            device.allocate(context, device.spec.global_memory_bytes + 1)


class TestStreamPending:
    @pytest.mark.parametrize("seed", range(4))
    def test_counts_match_a_scan_of_pending(self, device, seed):
        """A random interleaving of submissions over several contexts
        and streams, with device syncs mixed in: the per-stream count
        always equals a scan of the pending list."""
        rng = random.Random(seed)
        compiled = compile_kernel(saxpy_kernel(), device.spec)
        streams, buffers = [], {}
        for index in range(3):
            context = device.create_context(f"c{index}")
            buffers[context.context_id] = device.allocate(context, 4096)
            streams += [context.default_stream, context.create_stream(),
                        context.create_stream()]
        submits = (
            lambda s, a: device.submit_h2d(s, a, b"\x01" * 64),
            lambda s, a: device.submit_d2h(s, a, 64),
            lambda s, a: device.submit_d2d(s, a + 1024, a, 64),
            lambda s, a: device.submit_memset(s, a, 0x5A, 64),
            lambda s, a: device.submit_kernel(
                s, compiled, (1, 1, 1), (16, 1, 1),
                [a, a + 2048, 2.0, 16]),
        )
        for _ in range(400):
            if rng.random() < 0.05:
                device.synchronize()
                assert all(device.stream_pending(s) == 0 for s in streams)
            else:
                stream = rng.choice(streams)
                rng.choice(submits)(stream, buffers[stream.context_id])
            for stream in streams:
                assert device.stream_pending(stream) == sum(
                    task.stream_key == stream.key
                    for task in device._pending
                )
        device.synchronize()
        assert all(device.stream_pending(s) == 0 for s in streams)


class TestSpecs:
    def test_table2_values_a4000(self):
        spec = QUADRO_RTX_A4000
        assert spec.num_sms == 48
        assert spec.cuda_cores == 6144
        assert spec.l1_kb == 128
        assert spec.l2_kb == 4096
        assert spec.global_memory_bytes == 16 << 30
        assert spec.l1_hit_cycles == 28
        assert spec.l2_hit_cycles == 193
        assert spec.global_avg_cycles == 285
        assert spec.ecc

    def test_table2_values_3080ti(self):
        spec = GEFORCE_RTX_3080TI
        assert spec.num_sms == 80
        assert spec.cuda_cores == 10240
        assert spec.global_memory_bytes == 12 << 30
        assert spec.global_bw_gbps == 912.0
        assert not spec.ecc

    def test_geforce_has_more_capacity(self):
        a = Device(QUADRO_RTX_A4000)
        b = Device(GEFORCE_RTX_3080TI)
        assert b.sm_capacity > a.sm_capacity
