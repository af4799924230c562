"""Concurrent multi-tenant dispatch (DESIGN.md §7).

Covers the three contracts the concurrency work must keep:

1. **Bit-identity off**: with ``ServerConfig.concurrency`` disabled
   (the default), every cycle total is unchanged — the lanes are pure
   additive bookkeeping that never touches the serial clock.
2. **Work conservation on**: with lanes enabled, the sum of per-lane
   busy cycles equals ``stats.cycles`` and the makespan is the lane
   critical path — shorter than the serial sum for independent
   tenants, never shorter than any single lane.
3. **Safety is config-independent**: coalesced transfer checks still
   fence every out-of-bounds chunk; the thread-pooled patcher runs —
   and charges — exactly one patch per distinct content hash.
"""

import threading

import pytest

from repro.analysis.metrics import collect_hotpath, collect_lanes
from repro.analysis.reporting import render_lane_report
from repro.core.ipc import IPCChannel, IPCStats
from repro.core.patcher import (
    DiskPatchCache,
    ParallelPatcher,
    PTXPatcher,
    ThreadSafePatchCache,
)
from repro.core.policy import FencingMode
from repro.core.server import GuardianServer, ServerConfig
from repro.errors import BoundsViolation, PartitionError
from repro.gpu.device import Device
from repro.gpu.specs import QUADRO_RTX_A4000
from repro.ptx.emitter import emit_module

from tests.conftest import saxpy_module

PARTITION = 1 << 20


def make_server(config=None, mode=FencingMode.BITWISE):
    return GuardianServer(Device(QUADRO_RTX_A4000), mode,
                          config=config or ServerConfig())


def run_tenant(server, app_id, ptx):
    """One tenant's full life: attach, deploy, copy, launch, sync."""
    server.attach(app_id, PARTITION)
    handles, _ = server.load_module_ptx(app_id, ptx)
    address, _ = server.malloc(app_id, 4096)
    server.memcpy_h2d(app_id, address, b"\x01" * 512)
    server.memcpy_h2d(app_id, address + 512, b"\x02" * 512)
    server.launch_kernel(app_id, handles["saxpy"], (1, 1, 1), (32, 1, 1),
                         [address, address + 2048, 2.0, 32])
    server.synchronize(app_id)


def run_workload(config=None, tenants=4):
    server = make_server(config)
    ptx = emit_module(saxpy_module())
    for index in range(tenants):
        run_tenant(server, f"t{index}", ptx)
    return server


class TestSerialBitIdentity:
    def test_new_knob_defaults_change_nothing(self):
        """A config spelling out every new knob's default produces the
        exact stats of the stock config — the Table 5 / Fig. 7-13 pin."""
        stock = run_workload(ServerConfig())
        spelled = run_workload(ServerConfig(
            concurrency=False,
            coalesce_transfer_checks=False,
        ))
        assert spelled.stats == stock.stats

    def test_serial_makespan_is_the_busy_clock(self):
        server = run_workload(ServerConfig(), tenants=3)
        assert server.makespan_cycles() == server.stats.cycles
        assert server.lanes() == []
        assert server.stats.checks_coalesced == 0
        assert server.stats.lanes_retired == 0

    def test_hotpath_config_unchanged_by_concurrency_fields(self):
        """hotpath() still leaves the concurrency knobs off."""
        config = ServerConfig.hotpath()
        assert not config.concurrency
        assert not config.coalesce_transfer_checks


class TestConcurrentAccounting:
    def test_work_is_conserved_across_lanes(self):
        server = run_workload(ServerConfig.concurrent(), tenants=4)
        lanes = server.lanes()
        assert len(lanes) == 4
        assert sum(lane.busy for lane in lanes) == pytest.approx(
            server.stats.cycles
        )

    def test_makespan_is_the_critical_path(self):
        server = run_workload(ServerConfig.concurrent(), tenants=4)
        makespan = server.makespan_cycles()
        assert makespan < server.stats.cycles
        assert makespan >= max(lane.clock for lane in server.lanes())

    def test_eight_independent_tenants_meet_the_speedup_floor(self):
        server = run_workload(ServerConfig.concurrent(), tenants=8)
        speedup = server.stats.cycles / server.makespan_cycles()
        assert speedup >= 2.5

    def test_single_tenant_gains_nothing(self):
        """One lane cannot overlap with itself: its makespan is its
        busy clock (critical-section waits included)."""
        server = run_workload(ServerConfig.concurrent(), tenants=1)
        (lane,) = server.lanes()
        assert server.makespan_cycles() == pytest.approx(lane.clock)
        assert lane.clock == pytest.approx(lane.busy + lane.stalled)

    def test_releases_are_monotone_per_lane(self):
        server = make_server(ServerConfig.concurrent())
        ptx = emit_module(saxpy_module())
        server.attach("a", PARTITION)
        server.attach("b", PARTITION)
        for app_id in ("a", "b"):
            handles, _ = server.load_module_ptx(app_id, ptx)
            address, _ = server.malloc(app_id, 4096)
            releases = []
            for chunk in range(3):
                server.memcpy_h2d(app_id, address + chunk * 256,
                                  b"\x05" * 256)
                releases.append(server._release())
            assert releases == sorted(releases)


class TestCoalescedTransferChecks:
    def test_contiguous_chunks_charge_one_check(self):
        server = make_server(ServerConfig.concurrent())
        server.attach("a", PARTITION)
        address, _ = server.malloc("a", 4096)
        baseline = server.stats.transfers_checked
        for chunk in range(4):
            server.memcpy_h2d("a", address + chunk * 256, b"\x01" * 256)
        assert server.stats.transfers_checked - baseline == 1
        assert server.stats.checks_coalesced == 3

    def test_coalesced_chunks_cost_less(self):
        def charged(config):
            server = make_server(config)
            server.attach("a", PARTITION)
            address, _ = server.malloc("a", 4096)
            total = 0.0
            for chunk in range(8):
                _, cycles = server.memcpy_h2d(
                    "a", address + chunk * 256, b"\x01" * 256
                )
                total += cycles
            return total

        saved = charged(ServerConfig()) - charged(ServerConfig.concurrent())
        server = make_server()
        assert saved == 7 * server.costs.transfer_check

    def test_discontinuity_starts_a_new_run(self):
        server = make_server(ServerConfig.concurrent())
        server.attach("a", PARTITION)
        address, _ = server.malloc("a", 8192)
        baseline = server.stats.transfers_checked
        server.memcpy_h2d("a", address, b"\x01" * 256)
        server.memcpy_h2d("a", address + 4096, b"\x01" * 256)  # gap
        assert server.stats.transfers_checked - baseline == 2
        assert server.stats.checks_coalesced == 0

    def test_runs_are_per_operation_kind(self):
        """Interleaved h2d/memset chunks keep separate runs — each kind
        coalesces against its own tail, not the other's."""
        server = make_server(ServerConfig.concurrent())
        server.attach("a", PARTITION)
        address, _ = server.malloc("a", 8192)
        baseline = server.stats.transfers_checked
        for chunk in range(3):
            server.memcpy_h2d("a", address + chunk * 256, b"\x01" * 256)
            server.memset("a", address + 4096 + chunk * 256, 0, 256)
        assert server.stats.transfers_checked - baseline == 2
        assert server.stats.checks_coalesced == 4

    def test_violation_mid_run_is_still_fenced(self):
        """Coalescing skips charges, never the containment predicate:
        the chunk that crosses the partition edge is rejected."""
        server = make_server(ServerConfig.concurrent())
        server.attach("a", PARTITION)
        record = server.allocator.bounds.read("a")
        edge = record.end - 256
        server.memcpy_h2d("a", edge, b"\x01" * 256)
        with pytest.raises(BoundsViolation):
            server.memcpy_h2d("a", record.end, b"\x01" * 256)
        assert server.stats.transfers_rejected == 1

    def test_detach_drops_the_run_memo(self):
        server = make_server(ServerConfig.concurrent())
        server.attach("a", PARTITION)
        address, _ = server.malloc("a", 4096)
        server.memcpy_h2d("a", address, b"\x01" * 256)
        server.detach("a")
        assert "a" not in server._check_runs


class TestParallelPatching:
    def test_concurrent_same_hash_misses_run_one_patch(self):
        """N threads racing the same cold text produce one patch: the
        single-flight owner patches, every loser joins its Future."""
        patcher = ParallelPatcher(
            PTXPatcher(FencingMode.BITWISE),
            cache=ThreadSafePatchCache(8),
            workers=4,
        )
        ptx = emit_module(saxpy_module())
        barrier = threading.Barrier(8)
        outcomes = []
        lock = threading.Lock()

        def race():
            barrier.wait()
            outcome = patcher.patch(ptx)
            with lock:
                outcomes.append(outcome)

        threads = [threading.Thread(target=race) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert patcher.patches_run == 1
        assert len(outcomes) == 8
        assert sum(1 for o in outcomes if o.source == "patched") == 1
        assert {o.patched_text for o in outcomes} == {
            outcomes[0].patched_text
        }

    def test_one_patch_one_charge_across_tenants(self):
        """Two tenants deploying the same text: one miss charged a full
        patch, one hit charged a probe — never two patches."""
        server = make_server(
            ServerConfig.concurrent(charge_patch_cycles=True)
        )
        ptx = emit_module(saxpy_module())
        server.attach("a", PARTITION)
        server.attach("b", PARTITION)
        before = server.stats.cycles
        server.load_module_ptx("a", ptx)
        first = server.stats.cycles - before
        before = server.stats.cycles
        server.load_module_ptx("b", ptx)
        second = server.stats.cycles - before
        assert server.stats.patch_cache_misses == 1
        assert server.stats.patch_cache_hits == 1
        assert first >= server.costs.patch_module
        assert second == server.costs.patch_lookup

    def test_patch_many_preserves_order_and_patches_each_once(self):
        patcher = ParallelPatcher(
            PTXPatcher(FencingMode.BITWISE),
            cache=ThreadSafePatchCache(8),
            workers=4,
        )
        base = emit_module(saxpy_module())
        texts = [base + f"\n// variant {index}\n" for index in range(4)]
        outcomes = patcher.patch_many(texts)
        assert patcher.patches_run == 4
        assert [o.source for o in outcomes] == ["patched"] * 4
        repeat = patcher.patch_many(texts)
        assert patcher.patches_run == 4
        assert [o.source for o in repeat] == ["hit"] * 4

    def test_duplicates_inside_one_batch_merge(self):
        patcher = ParallelPatcher(
            PTXPatcher(FencingMode.BITWISE),
            cache=ThreadSafePatchCache(8),
            workers=4,
        )
        ptx = emit_module(saxpy_module())
        outcomes = patcher.patch_many([ptx] * 6)
        assert patcher.patches_run == 1
        assert sum(1 for o in outcomes if o.source == "patched") == 1

    def test_failed_cache_write_leaves_no_stale_flight(self, tmp_path,
                                                       monkeypatch):
        """A cache insert that raises (here: the disk write) must still
        resolve the in-flight future. Otherwise, once the text leaves
        the in-memory LRU, every later patch of it joins a future that
        never completes."""
        cache = DiskPatchCache(str(tmp_path), capacity=1)
        patcher = ParallelPatcher(PTXPatcher(FencingMode.BITWISE),
                                  cache=cache)
        store = cache._store
        failures = [OSError("disk full")]

        def store_failing_once(*args):
            if failures:
                raise failures.pop()
            store(*args)

        monkeypatch.setattr(cache, "_store", store_failing_once)
        base = emit_module(saxpy_module())
        first, other = base + "\n// a\n", base + "\n// b\n"
        with pytest.raises(OSError, match="disk full"):
            patcher.patch(first)
        patcher.patch(other)  # evicts ``first`` from the memory tier
        outcomes = []
        retry = threading.Thread(
            target=lambda: outcomes.append(patcher.patch(first)),
            daemon=True,
        )
        retry.start()
        retry.join(timeout=10)
        assert not retry.is_alive(), "re-patch joined a stale flight"
        assert [o.source for o in outcomes] == ["patched"]
        assert patcher._inflight == {}


class TestLaneQuarantine:
    def test_quarantine_drains_one_lane_not_the_world(self):
        server = run_workload(ServerConfig.concurrent(), tenants=3)
        siblings = {
            lane.app_id: (lane.clock, lane.busy, lane.critical)
            for lane in server.lanes() if lane.app_id != "t1"
        }
        epochs_before = {
            app: epoch
            for app, epoch in server.allocator.bounds.epochs().items()
            if app != "t1"
        }
        server.quarantine("t1", reason="test eviction")
        assert server.stats.lanes_retired == 1
        assert server.lane_view("t1") is None
        for lane in server.lanes():
            if lane.app_id != "t1":
                assert siblings[lane.app_id] == (
                    lane.clock, lane.busy, lane.critical
                )
        epochs_after = {
            app: epoch
            for app, epoch in server.allocator.bounds.epochs().items()
            if app != "t1"
        }
        assert epochs_after == epochs_before

    def test_retired_lane_still_counts_toward_makespan(self):
        server = run_workload(ServerConfig.concurrent(), tenants=2)
        makespan_before = server.makespan_cycles()
        server.quarantine("t0", reason="test eviction")
        assert server.makespan_cycles() == makespan_before
        assert len(server.lanes()) == 2  # one live, one retired


class TestLanePolicies:
    def test_fifo_grants_as_soon_as_both_are_free(self):
        """A critical charge starts at ``max(lane clock, section
        clock)``, however much section time the lane has used before."""
        server = make_server(ServerConfig.concurrent())
        server.attach("a", PARTITION)
        lane = server.lane_view("a")
        lane.clock, lane.critical = 100.0, 5_000.0
        server._critical_clock = 250.0
        server._enter("a")
        server._charge(50.0, critical=True)
        assert lane.stalled == 150.0
        assert lane.clock == server._critical_clock == 300.0
        # A lane that is already past the section clock never stalls.
        lane.clock = 1_000.0
        server._charge(50.0, critical=True)
        assert lane.stalled == 150.0
        assert lane.clock == 1_050.0


class TestSnapshotReads:
    def test_read_equals_lookup(self):
        server = make_server()
        server.attach("a", PARTITION)
        table = server.allocator.bounds
        assert table.read("a") is table.lookup("a")

    def test_read_unknown_app_raises(self):
        server = make_server()
        with pytest.raises(PartitionError):
            server.allocator.bounds.read("ghost")

    def test_snapshots_are_immutable_epochs(self):
        server = make_server()
        table = server.allocator.bounds
        server.attach("a", PARTITION)
        old = table.snapshot()
        server.attach("b", PARTITION)
        new = table.snapshot()
        assert "b" not in old and "b" in new
        assert new.version == old.version + 1
        assert old.read("a") is new.read("a")

    def test_non_power_of_two_record_has_no_mask(self):
        server = make_server(mode=FencingMode.MODULO)
        server.attach("a", 3_000_000)
        record = server.allocator.bounds.read("a")
        assert record.mask == 0
        assert record.magic > 0
        assert record.end == record.base + record.size


class TestLaneMetrics:
    def test_collect_lanes_summarises_the_run(self):
        server = run_workload(ServerConfig.concurrent(), tenants=4)
        metrics = collect_lanes(server)
        assert metrics.lane_count == 4
        assert metrics.speedup > 1.0
        assert 0.0 < metrics.overlap_efficiency <= 1.0
        assert 0.0 <= metrics.critical_share < 1.0
        assert set(metrics.lanes) == {f"t{i}" for i in range(4)}
        for app_id in metrics.lanes:
            assert 0.0 < metrics.occupancy(app_id) <= 1.0

    def test_serial_run_degenerates_cleanly(self):
        server = run_workload(ServerConfig(), tenants=2)
        metrics = collect_lanes(server)
        assert metrics.lane_count == 0
        assert metrics.speedup == 1.0
        assert metrics.overlap_efficiency == 1.0

    def test_render_lane_report_mentions_the_speedup(self):
        server = run_workload(ServerConfig.concurrent(), tenants=4)
        report = render_lane_report(collect_lanes(server))
        assert "modelled speedup" in report
        assert "critical section" in report
        for app_id in ("t0", "t3"):
            assert app_id in report


class TestIPCAbortStats:
    def test_mean_batch_size_guards_zero_flushes(self):
        assert IPCStats().mean_batch_size == 0.0

    def test_aborted_batches_counted_separately(self):
        server = make_server(ServerConfig(enable_ipc_batching=True))
        server.attach("a", PARTITION)
        address, _ = server.malloc("a", 4096)
        channel = IPCChannel(server, "a", batching=True, max_batch=64)
        channel.call("memcpy_h2d", address, b"\x01" * 64, 0, sync=False)
        channel.call("memcpy_h2d", address + 64, b"\x01" * 64, 0,
                     sync=False)
        discarded = channel.abort()
        assert discarded == 2
        assert channel.stats.aborted_batches == 1
        assert channel.stats.batches == 0
        assert channel.stats.mean_batch_size == 0.0

    def test_idempotent_abort_counts_once(self):
        server = make_server()
        channel = IPCChannel(server, "a", batching=True)
        assert channel.abort() == 0
        assert channel.stats.aborted_batches == 0

    def test_collect_hotpath_excludes_discarded_from_roundtrips(self):
        server = make_server(ServerConfig(enable_ipc_batching=True))
        server.attach("a", PARTITION)
        address, _ = server.malloc("a", 4096)
        channel = IPCChannel(server, "a", batching=True, max_batch=64)
        channel.call("synchronize")  # 1 sync round-trip
        channel.call("memcpy_h2d", address, b"\x01" * 64, 0, sync=False)
        channel.abort()  # the queued call never crosses
        metrics = collect_hotpath(server, [channel])
        assert metrics.ipc_messages == 2
        assert metrics.ipc_roundtrips == 1
        assert metrics.ipc_discarded_calls == 1
        assert metrics.ipc_aborted_batches == 1
