"""The executor's generated-code cache is keyed on the kernel itself.

Kernels are compiled, launched and dropped all the time (every tenant
session loads its own modules). A cache keyed on anything that outlives
a kernel, such as ``id()``, can hand a new kernel a dead kernel's code
and grows with every session.
"""

import gc
import struct

from repro.core.server import GuardianServer
from repro.errors import MemoryFault
from repro.gpu.device import Device
from repro.gpu.executor import compile_kernel
from repro.gpu.specs import QUADRO_RTX_A4000
from repro.loadgen import (
    LoadgenConfig,
    OpenLoopDriver,
    PoissonArrivals,
    SessionSpec,
    run_session,
)

from tests.conftest import reader_kernel, writer_kernel

TRIALS = 400
SESSIONS = 240
WORDS = 1024


def read_u32(device: Device, address: int) -> int:
    return struct.unpack("<I", device.memory.read(address, 4))[0]


def test_each_launch_runs_its_own_kernel():
    """Alternate compile -> launch -> drop of two kernels with the same
    arity but different code; every launch must do what its own kernel
    says."""
    device = Device(QUADRO_RTX_A4000)
    context = device.create_context("trials")
    stream = context.default_stream
    out = device.allocate(context, 4 * WORDS)
    table = device.allocate(context, 4 * WORDS)
    device.memory.write(table, struct.pack(f"<{WORDS}I", *range(WORDS)))
    wrong = []
    for trial in range(TRIALS):
        word = trial % WORDS
        if trial % 2 == 0:
            compiled = compile_kernel(writer_kernel(), device.spec)
            params = [out, 4 * word, trial]
            address, want = out + 4 * word, trial
        else:
            compiled = compile_kernel(reader_kernel(), device.spec)
            params = [out, table, 4 * word]
            address, want = out, word
        try:
            device.submit_kernel(stream, compiled, (1, 1, 1), (1, 1, 1),
                                 params)
        except MemoryFault:
            wrong.append(trial)
        else:
            if read_u32(device, address) != want:
                wrong.append(trial)
        # A dropped kernel dies by reference count; collecting the young
        # generation frees its address for reuse without paying for a
        # full collection on every trial.
        del compiled
        gc.collect(0)
    assert wrong == []
    # Every kernel was dropped, and its generated code with it.
    assert len(device.executor._thread_functions) == 0


def test_cache_does_not_grow_with_sessions():
    server = GuardianServer(Device(QUADRO_RTX_A4000))
    spec = SessionSpec(iterations=2, sync_every=2)
    demand = run_session(
        GuardianServer(Device(QUADRO_RTX_A4000)), "probe", spec
    ).host_cycles
    driver = OpenLoopDriver(server, LoadgenConfig(capacity=2, seed=0))
    report = driver.run(PoissonArrivals(rate=0.5 / demand, seed=0),
                        SESSIONS, spec=spec)
    assert len(report.outcomes) == SESSIONS
    assert server.tenant_count == 0
    gc.collect()
    # The only kernels still alive are the driver's memoized ones.
    live = {
        kernel
        for compiled in server.driver._jit_memo.values()
        for kernel in compiled.kernels.values()
    }
    cached = set(server.device.executor._thread_functions.keys())
    assert cached and cached <= live
