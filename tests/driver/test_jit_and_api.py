"""Driver JIT and cu* API tests."""

import struct

import numpy as np
import pytest

from repro.errors import DriverError, LaunchError, PTXError
from repro.core.policy import FencingMode
from repro.core.server import GuardianServer
from repro.driver.api import JIT_MEMO_CAP, DriverAPI
from repro.driver.fatbin import build_fatbin
from repro.driver.jit import JIT_CYCLES_PER_KERNEL, jit_compile
from repro.gpu.device import Device
from repro.gpu.specs import QUADRO_RTX_A4000
from repro.ptx import emit_module

from tests.conftest import saxpy_module

#: Uses an undeclared register: ptxas rejects it.
BAD_PTX = (".version 7.5\n.target sm_86\n.address_size 64\n"
           ".visible .entry k()\n{\nmov.u32 %r1, 1;\nret;\n}")


@pytest.fixture
def device():
    return Device(QUADRO_RTX_A4000)


@pytest.fixture
def driver(device):
    return DriverAPI(device)


class TestJIT:
    def test_compile_from_text(self):
        compiled = jit_compile(emit_module(saxpy_module()),
                               QUADRO_RTX_A4000)
        assert "saxpy" in compiled.kernels

    def test_compile_from_module(self):
        compiled = jit_compile(saxpy_module(), QUADRO_RTX_A4000)
        assert compiled.kernels["saxpy"].allocation.virtual_regs > 0

    def test_jit_cost_per_kernel(self):
        compiled = jit_compile(saxpy_module(), QUADRO_RTX_A4000)
        assert compiled.jit_cycles == JIT_CYCLES_PER_KERNEL

    def test_invalid_ptx_rejected(self):
        with pytest.raises(PTXError):
            jit_compile(BAD_PTX, QUADRO_RTX_A4000)

    def test_empty_module_rejected(self):
        with pytest.raises(PTXError):
            jit_compile(".version 7.5\n.target sm_86\n"
                        ".address_size 64\n", QUADRO_RTX_A4000)


class TestModuleLoading:
    def test_load_and_launch(self, device, driver):
        context = driver.cuCtxCreate("app")
        module = driver.cuModuleLoadData(
            context, emit_module(saxpy_module()))
        function = driver.cuModuleGetFunction(module, "saxpy")
        addr = driver.cuMemAlloc(context, 4096)
        xs = np.ones(64, dtype=np.float32)
        driver.cuMemcpyHtoD(context.default_stream, addr + 2048,
                            xs.tobytes())
        driver.cuLaunchKernel(function, (1, 1, 1), (64, 1, 1),
                              [addr, addr + 2048, 5.0, 64],
                              context.default_stream)
        out = np.frombuffer(
            driver.cuMemcpyDtoH(context.default_stream, addr, 256),
            dtype=np.float32,
        )
        assert np.allclose(out, 5.0)

    def test_unknown_function_rejected(self, driver):
        context = driver.cuCtxCreate("app")
        module = driver.cuModuleLoadData(
            context, emit_module(saxpy_module()))
        with pytest.raises(DriverError, match="not found"):
            driver.cuModuleGetFunction(module, "nonexistent")

    def test_function_handles_cached(self, driver):
        context = driver.cuCtxCreate("app")
        module = driver.cuModuleLoadData(
            context, emit_module(saxpy_module()))
        a = driver.cuModuleGetFunction(module, "saxpy")
        b = driver.cuModuleGetFunction(module, "saxpy")
        assert a is b


class TestFatbinSelection:
    def test_matching_cubin_preferred(self, device):
        driver = DriverAPI(device, force_ptx_jit=False)
        context = driver.cuCtxCreate("app")
        # CUDA 12 fatbins carry an *ampere* cuBIN — our device arch.
        fatbin = build_fatbin(saxpy_module(), "lib", "12.0")
        driver.cuModuleLoadFatBinary(context, fatbin)
        assert driver.stats.modules_from_cubin == 1

    def test_force_ptx_jit_ignores_cubin(self, device):
        """CUDA_FORCE_PTX_JIT: Guardian's guarantee that patched PTX
        wins over embedded machine code (paper §2.2)."""
        driver = DriverAPI(device, force_ptx_jit=True)
        context = driver.cuCtxCreate("app")
        fatbin = build_fatbin(saxpy_module(), "lib", "12.0")
        driver.cuModuleLoadFatBinary(context, fatbin)
        assert driver.stats.modules_from_cubin == 0

    def test_ptx_fallback_when_no_matching_cubin(self, device):
        driver = DriverAPI(device)
        context = driver.cuCtxCreate("app")
        # CUDA 11.7: cuBIN only for turing; ampere device JITs the PTX.
        fatbin = build_fatbin(saxpy_module(), "lib", "11.7")
        driver.cuModuleLoadFatBinary(context, fatbin)
        assert driver.stats.modules_from_cubin == 0
        assert driver.stats.modules_loaded == 1


class TestGlobals:
    def test_module_globals_allocated(self, device, driver):
        ptx = (
            ".version 7.5\n.target sm_86\n.address_size 64\n"
            ".global .align 4 .f32 table[64];\n"
            ".visible .entry k()\n{\n.reg .b64 %rd<2>;\n"
            "mov.u64 %rd1, table;\nret;\n}"
        )
        context = driver.cuCtxCreate("app")
        before = device.allocator.bytes_in_use
        module = driver.cuModuleLoadData(context, ptx)
        assert device.allocator.bytes_in_use == before + 256
        assert "table" in module.global_addresses

    def test_custom_global_placement(self, device, driver):
        ptx = (
            ".version 7.5\n.target sm_86\n.address_size 64\n"
            ".global .align 4 .f32 table[4];\n"
            ".visible .entry k()\n{\n.reg .b64 %rd<2>;\n"
            "mov.u64 %rd1, table;\nret;\n}"
        )
        context = driver.cuCtxCreate("app")
        placed = {}

        def place(name, size):
            placed[name] = size
            return device.memory.base + 0x9000

        module = driver.cuModuleLoadData(context, ptx,
                                         allocate_global=place)
        assert placed == {"table": 16}
        assert module.global_addresses["table"] == (
            device.memory.base + 0x9000
        )


#: A module-scope array, stored through a register holding its address
#: and loaded through a symbol-based memory operand.
SLOT_PTX = (
    ".version 7.5\n.target sm_86\n.address_size 64\n"
    ".global .align 4 .u32 slot[4];\n"
    ".visible .entry stash(\n.param .u32 stash_value\n)\n{\n"
    ".reg .b32 %r<2>;\n.reg .b64 %rd<2>;\n"
    "ld.param.u32 %r1, [stash_value];\n"
    "mov.u64 %rd1, slot;\n"
    "st.global.u32 [%rd1+4], %r1;\nret;\n}\n"
    ".visible .entry fetch(\n.param .u64 fetch_out\n)\n{\n"
    ".reg .b32 %r<2>;\n.reg .b64 %rd<2>;\n"
    "ld.param.u64 %rd1, [fetch_out];\n"
    "ld.global.u32 %r1, [slot+4];\n"
    "st.global.u32 [%rd1], %r1;\nret;\n}\n"
)


class TestJITMemo:
    @pytest.mark.parametrize("use_codegen", [True, False])
    def test_shared_kernels_address_each_tenants_globals(self, use_codegen):
        device = Device(QUADRO_RTX_A4000)
        device.executor.use_codegen = use_codegen
        server = GuardianServer(device, FencingMode.BITWISE)
        values = {"alice": 111, "bob": 222}
        handles = {}
        for pad, app in enumerate(values):
            server.attach(app, 1 << 20)
            if pad:
                # Different partition offsets, so the fence cannot map
                # one tenant's slot address onto the other's.
                server.malloc(app, 256 * pad)
            handles[app], _ = server.load_module_ptx(app, SLOT_PTX)
        for app, value in values.items():
            server.launch_kernel(app, handles[app]["stash"], (1, 1, 1),
                                 (1, 1, 1), [value])
        stash = {
            app: server._tenant(app).functions[handles[app]["stash"]][0]
            for app in values
        }
        # One compilation serves both loads.
        assert stash["alice"].compiled is stash["bob"].compiled
        for app, value in values.items():
            out, _ = server.malloc(app, 4)
            server.launch_kernel(app, handles[app]["fetch"], (1, 1, 1),
                                 (1, 1, 1), [out])
            data, _ = server.memcpy_d2h(app, out, 4)
            assert struct.unpack("<I", data)[0] == value
            slot = stash[app].module.global_addresses["slot"]
            partition = server.allocator.partition(app)
            assert partition.base <= slot < partition.base + partition.size
            assert struct.unpack(
                "<I", device.memory.read(slot + 4, 4))[0] == value

    def test_launch_needs_the_modules_global_addresses(self, device):
        stash = jit_compile(SLOT_PTX, device.spec).kernels["stash"]
        assert stash.global_names == {"slot"}
        with pytest.raises(LaunchError, match="slot"):
            device.executor.launch(stash, (1, 1, 1), (1, 1, 1), [7])

    def test_cubin_load_leaves_ptx_jit_charge(self, device):
        driver = DriverAPI(device, force_ptx_jit=False)
        context = driver.cuCtxCreate("app")
        fatbin = build_fatbin(saxpy_module(), "lib", "12.0")
        from_cubin = driver.cuModuleLoadFatBinary(context, fatbin)
        assert driver.stats.modules_from_cubin == 1
        assert from_cubin.compiled.jit_cycles == 0
        assert driver.stats.jit_cycles == 0
        from_ptx = driver.cuModuleLoadData(
            context, fatbin.ptx_entries()[-1].ptx_text())
        assert from_ptx.compiled.kernels is from_cubin.compiled.kernels
        assert from_ptx.compiled.jit_cycles == JIT_CYCLES_PER_KERNEL
        assert driver.stats.jit_cycles == JIT_CYCLES_PER_KERNEL

    def test_every_load_is_charged(self, driver):
        context = driver.cuCtxCreate("app")
        text = emit_module(saxpy_module())
        for loads in range(1, 4):
            driver.cuModuleLoadData(context, text)
            assert driver.stats.modules_loaded == loads
            assert driver.stats.jit_cycles == loads * JIT_CYCLES_PER_KERNEL

    def test_malformed_ptx_never_memoized(self, driver):
        context = driver.cuCtxCreate("app")
        for _ in range(3):
            with pytest.raises(PTXError):
                driver.cuModuleLoadData(context, BAD_PTX)
        assert len(driver._jit_memo) == 0
        assert driver.stats.modules_loaded == 0

    def test_memo_stays_within_cap(self, driver):
        context = driver.cuCtxCreate("app")
        text = emit_module(saxpy_module())
        texts = [f"// variant {i}\n{text}" for i in range(JIT_MEMO_CAP + 4)]
        first = driver.cuModuleLoadData(context, texts[0])
        for variant in texts[1:]:
            driver.cuModuleLoadData(context, variant)
            assert len(driver._jit_memo) <= JIT_MEMO_CAP
        assert len(driver._jit_memo) == JIT_MEMO_CAP
        # The least recently used text was evicted and compiles afresh.
        again = driver.cuModuleLoadData(context, texts[0])
        assert again.compiled.kernels is not first.compiled.kernels
