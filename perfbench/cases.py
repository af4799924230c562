"""The benchmark's four workloads, built from the public ``repro`` API.

Each workload is a :class:`Case`: ``setup(seed)`` builds everything up
to the first timed operation and returns a state, ``run(state)``
performs the timed work once and returns an :class:`Outcome`.
``probe(seed)`` is what a cold process does before its first timed
operation; it defaults to ``setup``.

An outcome carries the wall time of the timed region, the units of work
attempted and failed, and the *modelled* numbers. Modelled numbers are
deterministic: the same seed must reproduce them exactly, in any
process, with or without layer tracing. The runner treats a difference
as a failed check.

Functions a traced layer owns are called through their module
(``loadgen.run_churn``), so the tracer's wrapper is what runs.

All inputs come from ``--seed``. Nothing here imports from ``tests/``
or ``benchmarks/``: the benchmark's inputs must not move when those
files are refactored. See ``README.md`` for why each workload exists.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro import Device, FencingMode, GuardianClient, GuardianServer
from repro import QUADRO_RTX_A4000, ServerConfig
from repro.gpu.specs import MIB
import repro.loadgen as loadgen
from repro.loadgen import (
    ChurnConfig,
    LoadgenConfig,
    OpenLoopDriver,
    PoissonArrivals,
    SessionSpec,
    SLOClass,
    session_fatbin,
)
from repro.runtime.api import HostCostModel
from repro.sharing.standalone import run_standalone
from repro.workloads.frameworks import LibraryBundle, train
from repro.workloads.frameworks.datasets import dataset_for
from repro.workloads.frameworks.networks import MODEL_ZOO

MCYCLE = 1e6


@dataclass
class Outcome:
    """One execution of a workload's timed work."""

    wall_s: float
    attempted: int
    failed: int
    #: Deterministic modelled numbers (exact repeat required).
    modelled: dict[str, float]
    #: Human-readable check failures; empty when every output is right.
    errors: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Case:
    name: str
    setup: Callable[[int], Any]
    run: Callable[[Any], Outcome]
    #: Layers the workload is meant to load; the traced run compares
    #: its top self-time layers against this set.
    loads: frozenset[str]
    probe: Callable[[int], Any] | None = None


# -- steady-sharing -------------------------------------------------------------

#: Closed loop: tenants x iterations of (h2d, h2d, launch), sync every 10.
STEADY_TENANTS = 6
STEADY_ITERATIONS = 200
STEADY_SYNC_EVERY = 10
STEADY_ELEMENTS = 16
STEADY_A = 2.0


def steady_setup(seed: int):
    device = Device(QUADRO_RTX_A4000)
    server = GuardianServer(device, FencingMode.BITWISE,
                            config=ServerConfig.traced(telemetry=True))
    rng = np.random.default_rng(seed)
    tenants = []
    for index in range(STEADY_TENANTS):
        client = GuardianClient(server, f"tenant{index}", 1 << 20)
        handle = client.register_fatbin(session_fatbin())["saxpy"]
        buffer = client.malloc(512)
        # Small integers keep a*x + y exact in float32.
        y = rng.integers(-8, 9, STEADY_ELEMENTS).astype(np.float32)
        x = rng.integers(-8, 9, STEADY_ELEMENTS).astype(np.float32)
        tenants.append((client, handle, buffer, y, x))
    return device, server, tenants


def steady_run(state) -> Outcome:
    device, server, tenants = state
    payloads = [(y.tobytes(), x.tobytes()) for _, _, _, y, x in tenants]
    start = time.perf_counter()
    for iteration in range(STEADY_ITERATIONS):
        for (client, handle, buffer, _, _), (y, x) in zip(tenants, payloads):
            client.memcpy_h2d(buffer, y)
            client.memcpy_h2d(buffer + 256, x)
            client.launch_kernel(
                handle, (1, 1, 1), (STEADY_ELEMENTS, 1, 1),
                [buffer, buffer + 256, STEADY_A, STEADY_ELEMENTS],
            )
        if (iteration + 1) % STEADY_SYNC_EVERY == 0:
            for client, *_ in tenants:
                client.synchronize()
    device.synchronize(spatial=True)
    wall = time.perf_counter() - start

    host = server.stats.cycles + sum(
        client.channel.stats.client_cycles for client, *_ in tenants
    )
    errors = []
    failed = 0
    for client, _, buffer, y, x in tenants:
        raw = client.memcpy_d2h(buffer, STEADY_ELEMENTS * 4)
        got = np.frombuffer(raw, dtype=np.float32)
        want = np.float32(STEADY_A) * x + y
        if not np.array_equal(got, want):
            failed += STEADY_ITERATIONS
            errors.append(f"{client.app_id}: y = {got[:4]}..., "
                          f"want a*x+y = {want[:4]}...")
    return Outcome(
        wall_s=wall,
        attempted=STEADY_TENANTS * STEADY_ITERATIONS,
        failed=failed,
        modelled={"modelled_host_mcycles": host / MCYCLE},
        errors=errors,
    )


# -- session-storm --------------------------------------------------------------

STORM_SESSIONS = 320
STORM_LANES = 2
#: Host-cycle demand of one default session on the stock server when the
#: benchmark was defined. Rate and SLO are fixed in absolute terms from
#: it and never recalibrated, so a cheaper or dearer session moves
#: latency, not the offered load.
STORM_SESSION_DEMAND = 147_135
#: About 0.8 of two-lane capacity: the knee of the latency curve.
STORM_RATE_PER_CYCLE = 0.8 * STORM_LANES / STORM_SESSION_DEMAND
STORM_SLO_CYCLES = 3 * STORM_SESSION_DEMAND
#: Sessions needed beyond a percentile before it is reported.
TAIL_BEYOND = 10


def storm_setup(seed: int):
    server = GuardianServer(Device(QUADRO_RTX_A4000))
    classes = {"standard": SLOClass("standard", STORM_SLO_CYCLES)}
    driver = OpenLoopDriver(
        server, LoadgenConfig(capacity=STORM_LANES, seed=seed), classes
    )
    return server, driver, PoissonArrivals(STORM_RATE_PER_CYCLE, seed=seed)


def storm_run(state) -> Outcome:
    server, driver, arrivals = state
    spec = SessionSpec()
    start = time.perf_counter()
    report = driver.run(arrivals, STORM_SESSIONS, spec=spec)
    wall = time.perf_counter() - start

    outcomes = report.outcomes
    completed = [o for o in outcomes if o.outcome == "completed"]
    # A refused or shed session misses the SLO as well.
    failed = STORM_SESSIONS - len(completed)
    errors = []
    if len(outcomes) != STORM_SESSIONS:
        errors.append(f"{len(outcomes)} outcomes for "
                      f"{STORM_SESSIONS} arrivals")
    stats = server.stats
    syncs_per_session = spec.iterations // spec.sync_every + 1
    expected = {
        "launches": STORM_SESSIONS * spec.iterations,
        "syncs": STORM_SESSIONS * syncs_per_session,
        # Each deploy loads the patched module and its native twin.
        "modules_loaded": 2 * STORM_SESSIONS,
    }
    for counter, want in expected.items():
        got = getattr(stats, counter)
        if got != want:
            errors.append(f"server {counter} = {got}, want {want}")
    if server.tenant_count != 0:
        errors.append(f"{server.tenant_count} tenants left attached")
    if server.allocator.bytes_partitioned != 0:
        errors.append(f"{server.allocator.bytes_partitioned} bytes "
                      "still partitioned")
    if errors:
        failed = STORM_SESSIONS

    latencies = sorted(o.latency for o in completed)
    within = sum(1 for value in latencies if value <= STORM_SLO_CYCLES)
    tail_index = len(latencies) - TAIL_BEYOND - 1
    modelled = {
        "modelled_host_mcycles":
            sum(o.host_cycles for o in completed) / MCYCLE,
        "latency_p50_mcycles": statistics.median(latencies) / MCYCLE,
        "latency_tail_mcycles": latencies[tail_index] / MCYCLE,
        "latency_tail_percentile": 100.0 * (tail_index + 1) / len(latencies),
        "latency_samples": float(len(latencies)),
        "goodput_per_mcycle": within * MCYCLE / report.horizon_cycles,
    }
    return Outcome(wall, STORM_SESSIONS, failed, modelled, errors)


# -- elastic-churn --------------------------------------------------------------

CHURN_SESSIONS = 960
#: Independent traces per instance, each on a fresh server. One trace's
#: modelled cost varies by about 11% (coefficient of variation) with its
#: seed, by how many swaps it provokes; eight of them bring the spread
#: of modelled_host_mcycles over ten seeds to about 0.06.
CHURN_TRACES = 8
#: 16 MiB of partitionable space: the mixed-size churn fragments and
#: overflows it, so shrink, compaction and swapping all fire.
CHURN_SPEC = dataclasses.replace(QUADRO_RTX_A4000,
                                 global_memory_bytes=17 * MIB)


def churn_setup(seed: int):
    return [
        (GuardianServer(Device(CHURN_SPEC), config=ServerConfig.elastic()),
         ChurnConfig(sessions=CHURN_SESSIONS,
                     seed=seed * CHURN_TRACES + index))
        for index in range(CHURN_TRACES)
    ]


def churn_run(state) -> Outcome:
    wall, failed, server_cycles = 0.0, 0, 0.0
    errors = []
    for server, config in state:
        start = time.perf_counter()
        report = loadgen.run_churn(server, config)
        wall += time.perf_counter() - start

        trace_errors = []
        if report.admitted + report.shed != report.offered:
            trace_errors.append(
                f"admitted {report.admitted} + shed {report.shed} "
                f"!= offered {report.offered}")
        if report.offered != CHURN_SESSIONS:
            trace_errors.append(
                f"offered {report.offered}, want {CHURN_SESSIONS}")
        if report.touches_failed:
            trace_errors.append(f"{report.touches_failed} touches failed")
        if server.allocator.bytes_partitioned != 0:
            trace_errors.append(f"{server.allocator.bytes_partitioned} "
                                "bytes still partitioned")
        failed += CHURN_SESSIONS if trace_errors else report.shed
        errors += [f"churn seed {config.seed}: {e}" for e in trace_errors]
        server_cycles += report.server_cycles
    # run_churn keeps its clients private, so only the server's busy
    # clock is visible from here; it carries every elastic operation.
    modelled = {"modelled_host_mcycles": server_cycles / MCYCLE}
    return Outcome(wall, CHURN_TRACES * CHURN_SESSIONS, failed, modelled,
                   errors)


# -- train-lenet ----------------------------------------------------------------

LENET_SAMPLES = 32
LENET_BATCH = 16
#: Device-side block sampling, as in the Fig. 8 reproduction.
LENET_MAX_BLOCKS = 4
LENET_ARMS = ("native", "bitwise")


def _lenet_workload(seed: int, box: dict, train_model: bool = True):
    def workload(runtime):
        libs = LibraryBundle.create(runtime, seed=seed)
        net = MODEL_ZOO["lenet"](libs)
        data = dataset_for(net.input_shape, samples=LENET_SAMPLES, seed=seed)
        if not train_model:
            return
        start = time.perf_counter()
        box["result"] = train(net, data, epochs=1, batch_size=LENET_BATCH)
        box["wall"] = time.perf_counter() - start

    return workload


def lenet_setup(seed: int):
    # Each arm builds its libraries and model inside run_standalone,
    # outside the timed region (see _lenet_workload).
    return seed


def lenet_probe(seed: int):
    """A cold process up to the first training batch: the Guardian
    arm's deployment, library registration and model build."""
    run_standalone(_lenet_workload(seed, {}, train_model=False), "bitwise",
                   max_blocks=LENET_MAX_BLOCKS)


def lenet_run(seed) -> Outcome:
    runs, losses, wall = {}, {}, 0.0
    for arm in LENET_ARMS:
        box: dict = {}
        runs[arm] = run_standalone(_lenet_workload(seed, box), arm,
                                   max_blocks=LENET_MAX_BLOCKS)
        losses[arm] = box["result"].losses
        wall += box["wall"]

    native, guardian = losses["native"], losses["bitwise"]
    errors = []
    failed = 0
    batches = max(len(native), len(guardian))
    for index in range(batches):
        pair = native[index:index + 1] + guardian[index:index + 1]
        bad = (len(pair) != 2 or pair[0] != pair[1]
               or not all(math.isfinite(v) for v in pair))
        if bad:
            failed += len(LENET_ARMS)
            errors.append(f"batch {index}: losses {pair} differ or "
                          "are not finite")
    run = runs["bitwise"]
    cpu_hz = HostCostModel().cpu_ghz * 1e9
    host_seconds = run.server_busy_seconds + sum(
        app.host_seconds for app in run.apps
    )
    modelled = {
        "modelled_host_mcycles": host_seconds * cpu_hz / MCYCLE,
        "overhead_vs_native": (run.makespan_seconds
                               / runs["native"].makespan_seconds),
    }
    return Outcome(wall, len(LENET_ARMS) * batches, failed, modelled,
                   errors)


CASES: dict[str, Case] = {
    case.name: case for case in (
        Case("steady-sharing", steady_setup, steady_run,
             loads=frozenset({"executor", "codegen", "device", "timeline",
                              "telemetry", "ipc", "tracecache", "server",
                              "client"})),
        Case("session-storm", storm_setup, storm_run,
             loads=frozenset({"device", "parser", "patcher", "jit",
                              "codegen", "server", "executor"})),
        Case("elastic-churn", churn_setup, churn_run,
             loads=frozenset({"device", "allocator", "elastic", "server",
                              "bounds_table"})),
        Case("train-lenet", lenet_setup, lenet_run,
             loads=frozenset({"executor", "codegen", "parser", "jit"}),
             probe=lenet_probe),
    )
}
