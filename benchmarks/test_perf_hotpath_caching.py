"""Hot-path caching & batching: the beyond-the-paper optimisation.

Runs the same fig7-style multi-tenant sharing workload twice — once
with the hot-path caches/batching disabled and once enabled — and
measures total host work (server busy cycles + every client's
IPC-charged critical path). Both arms charge the offline patch/extract
work (``charge_patch_cycles=True``) so the comparison includes the
deployment cost the patch cache amortises; the *stock* default config
(everything off, patching un-charged) is separately pinned against the
paper's Table 5 breakdown below.
"""

from __future__ import annotations

from repro.analysis.metrics import collect_all
from repro.analysis.reporting import render_hotpath_report
from repro.core.policy import FencingMode
from repro.core.server import GuardianServer, ServerConfig
from repro.driver.fatbin import build_fatbin
from repro.gpu.device import Device
from repro.gpu.specs import QUADRO_RTX_A4000

from benchmarks.conftest import (
    emit_bench_json,
    print_table,
    run_sharing_workload,
)
from tests.conftest import saxpy_module

TENANTS = 6
ITERATIONS = 40
SYNC_EVERY = 10
PARTITION = 1 << 20


class TestHotPathCaching:
    def test_caching_cuts_total_cycles(self, once):
        disabled_cfg = ServerConfig(charge_patch_cycles=True)
        enabled_cfg = ServerConfig.hotpath(charge_patch_cycles=True)

        def run_both():
            return [
                run_sharing_workload(TENANTS, ITERATIONS, SYNC_EVERY, config)
                for config in (disabled_cfg, enabled_cfg)
            ]

        disabled, enabled = (
            collect_all(server, clients=clients).hotpath
            for server, clients in once(run_both)
        )

        print()
        print(render_hotpath_report(disabled, title="caches disabled"))
        print()
        print(render_hotpath_report(enabled, title="caches enabled"))
        reduction = 1 - enabled.total_cycles / disabled.total_cycles
        print_table(
            "Hot-path caching: total host cycles",
            ["config", "server", "clients", "total"],
            [
                ["disabled", f"{disabled.server_cycles:,.0f}",
                 f"{disabled.client_cycles:,.0f}",
                 f"{disabled.total_cycles:,.0f}"],
                ["enabled", f"{enabled.server_cycles:,.0f}",
                 f"{enabled.client_cycles:,.0f}",
                 f"{enabled.total_cycles:,.0f}"],
            ],
        )
        print(f"reduction: {reduction * 100:.1f}%")

        emit_bench_json("hotpath_caching", {
            "disabled_total_cycles": disabled.total_cycles,
            "enabled_total_cycles": enabled.total_cycles,
            "cached_vs_default_ratio":
                enabled.total_cycles / disabled.total_cycles,
            "reduction": reduction,
            "tenants": TENANTS,
            "iterations": ITERATIONS,
        })

        # The acceptance bar: >= 25% less total host work.
        assert enabled.total_cycles <= 0.75 * disabled.total_cycles

        # Each optimisation actually engaged.
        assert enabled.patch_cache_misses == 1
        assert enabled.patch_cache_hits == TENANTS - 1
        assert enabled.extract_cache_hits == TENANTS - 1
        assert enabled.fastpath_hits > 0
        assert enabled.ipc_batches > 0
        assert enabled.mean_batch_size > 1.0

        # The disabled arm never exercised any cache.
        assert disabled.patch_cache_hits == 0
        assert disabled.fastpath_hits == 0
        assert disabled.ipc_batches == 0

    def test_default_config_reproduces_table5(self):
        """With the stock ServerConfig the per-launch breakdown is the
        paper's, to the cycle: lookup 557 + augment 400 + syscall 9000."""
        device = Device(QUADRO_RTX_A4000)
        server = GuardianServer(device, FencingMode.BITWISE)
        server.attach("alice", PARTITION)
        handles, _ = server.register_fatbin(
            "alice", build_fatbin(saxpy_module(), "lib", "11.7"))
        buf, _ = server.malloc("alice", 512)
        before = server.stats.cycles
        _, cycles = server.launch_kernel(
            "alice", handles["saxpy"], (1, 1, 1), (16, 1, 1),
            [buf, buf + 256, 2.0, 16])
        assert cycles == 557 + 400 + 9_000
        assert server.stats.cycles - before == cycles

    def test_fast_path_steady_state_launch_cost(self):
        """With the fast path on, a steady-state launch costs
        lookup_cached + syscall."""
        device = Device(QUADRO_RTX_A4000)
        server = GuardianServer(device, FencingMode.BITWISE,
                                config=ServerConfig.hotpath())
        server.attach("alice", PARTITION)
        handles, _ = server.register_fatbin(
            "alice", build_fatbin(saxpy_module(), "lib", "11.7"))
        buf, _ = server.malloc("alice", 512)
        args = ("alice", handles["saxpy"], (1, 1, 1), (16, 1, 1),
                [buf, buf + 256, 2.0, 16])
        server.launch_kernel(*args)  # populate the memo
        _, cycles = server.launch_kernel(*args)
        assert cycles == (server.costs.lookup_cached
                          + server.costs.launch_syscall)
