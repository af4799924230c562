"""Multi-tenant dispatch scaling: the concurrent-lanes optimisation.

Runs a fig7-style sharing workload at increasing tenant counts, twice
per point — stock serial dispatch and ``ServerConfig.concurrent()`` —
and reports the modelled makespan speedup (total host work divided by
the lane critical path). Independent tenants overlap everywhere except
the shared critical section (allocator mutations, bounds writes,
patch-cache misses), so the curve should climb toward the lane count
and must clear **2.5x at 8 tenants** (the CI regression floor).

A second experiment measures *wall-clock* time on a cold-patch
workload: eight tenant threads deploying the same cold PTX texts
through the single-flight parallel patch front-end versus each tenant
patching privately. The win is deduplication — concurrent same-hash
misses run one patch — so the speedup survives the GIL.
"""

from __future__ import annotations

import threading
import time

from repro.analysis.metrics import collect_all
from repro.analysis.reporting import render_lane_report
from repro.core.patcher import (
    ParallelPatcher,
    PTXPatcher,
    ThreadSafePatchCache,
)
from repro.core.policy import FencingMode
from repro.core.server import ServerConfig
from repro.ptx.emitter import emit_module

from benchmarks.conftest import (
    emit_bench_json,
    print_table,
    run_sharing_workload,
)
from tests.conftest import saxpy_module

TENANT_COUNTS = (1, 2, 4, 8)
ITERATIONS = 25
SYNC_EVERY = 5

#: The CI gate (mirrored in bench_baseline.json): 8 independent
#: tenants must overlap to at least this modelled speedup.
SPEEDUP_FLOOR_8_TENANTS = 2.5

#: Cold-patch wall-clock floor: single-flight dedup must beat
#: per-tenant private patching even with thread overhead.
PATCH_WALLCLOCK_FLOOR = 1.5


def cold_patch_arms(tenants: int = 8, texts: int = 3, repeats: int = 3):
    """Wall-clock seconds for ``tenants`` deployments of the same cold
    texts: (private per-tenant patching, shared single-flight pool)."""
    base = emit_module(saxpy_module())
    sources = [base + f"\n// cold variant {index}\n"
               for index in range(texts)]

    def private_arm() -> float:
        patcher = PTXPatcher(FencingMode.BITWISE)
        start = time.perf_counter()
        for _ in range(tenants):
            for source in sources:
                patcher.patch_text(source)
        return time.perf_counter() - start

    def pooled_arm() -> tuple[float, int]:
        pool = ParallelPatcher(
            PTXPatcher(FencingMode.BITWISE),
            cache=ThreadSafePatchCache(16),
            workers=4,
        )
        barrier = threading.Barrier(tenants)

        def deploy():
            barrier.wait()
            pool.patch_many(sources)

        threads = [threading.Thread(target=deploy)
                   for _ in range(tenants)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        pool.shutdown()
        return elapsed, pool.patches_run

    private = min(private_arm() for _ in range(repeats))
    pooled_runs = [pooled_arm() for _ in range(repeats)]
    pooled = min(elapsed for elapsed, _ in pooled_runs)
    patches_run = max(runs for _, runs in pooled_runs)
    return private, pooled, patches_run


class TestMultiTenantScaling:
    def test_lanes_scale_makespan_with_tenant_count(self, once):
        def sweep():
            points = []
            for tenants in TENANT_COUNTS:
                serial, _ = run_sharing_workload(
                    tenants, ITERATIONS, SYNC_EVERY, ServerConfig())
                concurrent, _ = run_sharing_workload(
                    tenants, ITERATIONS, SYNC_EVERY,
                    ServerConfig.concurrent())
                points.append((tenants, serial, concurrent))
            return points

        points = once(sweep)

        rows = []
        speedups = {}
        for tenants, serial, concurrent in points:
            metrics = collect_all(concurrent).lanes
            speedups[tenants] = metrics.speedup
            rows.append([
                tenants,
                f"{serial.stats.cycles:,.0f}",
                f"{concurrent.stats.cycles:,.0f}",
                f"{concurrent.makespan_cycles():,.0f}",
                f"{metrics.speedup:.2f}x",
                f"{metrics.overlap_efficiency * 100:.0f}%",
            ])
        print_table(
            "Multi-tenant scaling: serial vs concurrent dispatch",
            ["tenants", "serial cycles", "work", "makespan",
             "speedup", "lane eff."],
            rows,
        )
        _, _, eight = points[-1]
        print()
        print(render_lane_report(collect_all(eight).lanes,
                                 title="Dispatch lanes (8 tenants)"))

        emit_bench_json("multitenant_scaling", {
            "tenant_counts": list(TENANT_COUNTS),
            "speedup_by_tenants": {
                str(tenants): speedups[tenants]
                for tenants in TENANT_COUNTS
            },
            "speedup_8_tenants": speedups[8],
            "iterations": ITERATIONS,
        })

        # Serial arm: lanes off means the makespan IS the busy clock.
        for tenants, serial, _ in points:
            assert serial.makespan_cycles() == serial.stats.cycles
            assert serial.lanes() == []

        # Work is conserved on every concurrent point...
        for tenants, _, concurrent in points:
            lanes = concurrent.lanes()
            assert len(lanes) == tenants
            assert abs(sum(lane.busy for lane in lanes)
                       - concurrent.stats.cycles) < 1e-6

        # ...the curve is monotone in tenant count...
        ordered = [speedups[tenants] for tenants in TENANT_COUNTS]
        assert ordered == sorted(ordered)

        # ...and 8 independent tenants clear the CI floor.
        assert speedups[8] >= SPEEDUP_FLOOR_8_TENANTS, (
            f"8-tenant modelled speedup {speedups[8]:.2f}x below the "
            f"{SPEEDUP_FLOOR_8_TENANTS}x floor"
        )

    def test_cold_patch_wallclock_speedup(self, once):
        private, pooled, patches_run = once(cold_patch_arms)
        speedup = private / pooled
        print_table(
            "Cold-patch deployment: wall-clock",
            ["arm", "seconds", "patches run"],
            [
                ["private per-tenant", f"{private:.4f}", 8 * 3],
                ["shared single-flight", f"{pooled:.4f}", patches_run],
            ],
        )
        print(f"wall-clock speedup: {speedup:.2f}x")

        emit_bench_json("multitenant_coldpatch", {
            "private_seconds": private,
            "pooled_seconds": pooled,
            "wallclock_speedup": speedup,
            "patches_run": patches_run,
        })

        # Single-flight dedup: 8 racing tenants x 3 texts -> 3 patches.
        assert patches_run == 3
        assert speedup >= PATCH_WALLCLOCK_FLOOR, (
            f"cold-patch wall-clock speedup {speedup:.2f}x below the "
            f"{PATCH_WALLCLOCK_FLOOR}x floor"
        )
