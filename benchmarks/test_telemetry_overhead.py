"""Telemetry overhead: the spine must observe without charging.

Runs the fig7-style multi-tenant sharing workload twice — stock
``ServerConfig.concurrent()`` and the same config with
``telemetry=True`` — and compares the modelled host-cycle totals. The
tracer hangs off the cycle-charging choke points (``_charge``, the IPC
dispatch boundary, ``Device.synchronize``) but never calls them, so
the two arms must agree **to the cycle**: host_cycle_ratio == 1.0,
gated in CI at <= 1.05 (bench_baseline.json).

The telemetry arm also proves the reconciliation property end to end:
per-tenant call-span cycle sums equal ``server.stats.cycles``, and the
span buffer exports as valid Chrome-trace JSON (uploaded by the CI
bench-smoke job as ``BENCH_telemetry_trace.json`` — load it in
Perfetto / chrome://tracing).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.analysis.metrics import collect_all
from repro.analysis.reporting import render_telemetry_report
from repro.core.server import ServerConfig
from repro.telemetry import SERVER_TRACK
from repro.telemetry.export import write_chrome_trace

from benchmarks.conftest import (
    emit_bench_json,
    print_table,
    run_sharing_workload,
)

TENANTS = 6
ITERATIONS = 40
SYNC_EVERY = 10

#: The CI gate (mirrored in bench_baseline.json): telemetry may not
#: inflate the modelled host-cycle total. The measured ratio is
#: exactly 1.0 by construction; the ceiling leaves headroom only for
#: a future instrumentation point that legitimately charges.
CYCLE_RATIO_CEILING = 1.05


class TestTelemetryOverhead:
    def test_telemetry_is_cycle_neutral(self, once):
        def run_both():
            return [
                run_sharing_workload(TENANTS, ITERATIONS, SYNC_EVERY,
                                     ServerConfig.concurrent(telemetry=on))
                for on in (False, True)
            ]

        (stock, _), (traced, clients) = once(run_both)

        ratio = traced.stats.cycles / stock.stats.cycles
        print_table(
            "Telemetry overhead: modelled host cycles",
            ["config", "server cycles", "makespan"],
            [
                ["telemetry off", f"{stock.stats.cycles:,.0f}",
                 f"{stock.makespan_cycles():,.0f}"],
                ["telemetry on", f"{traced.stats.cycles:,.0f}",
                 f"{traced.makespan_cycles():,.0f}"],
            ],
        )
        print(f"host-cycle ratio: {ratio:.6f}")

        # The spine observes the clock, never charges it.
        assert traced.stats.cycles == stock.stats.cycles
        assert traced.makespan_cycles() == stock.makespan_cycles()

        # Reconciliation: per-tenant call-span sums == server cycles.
        telemetry = traced.telemetry
        call_spans = [span for span in telemetry.tracer.spans()
                      if span.category == "call"
                      and span.track == SERVER_TRACK]
        span_total = sum(span.cycles for span in call_spans)
        assert abs(span_total - traced.stats.cycles) < 1e-6
        per_tenant = {}
        for span in call_spans:
            per_tenant[span.tenant] = (per_tenant.get(span.tenant, 0.0)
                                       + span.cycles)
        assert set(per_tenant) == {f"tenant{i}" for i in range(TENANTS)}

        # Publish the composite snapshot, render the quantile report.
        collect_all(traced, clients=clients)
        print()
        print(render_telemetry_report(
            telemetry.snapshot(meta={"benchmark": "telemetry_overhead"}),
            title="Telemetry (fig7 workload, 6 tenants)"))

        # Export the trace for the CI artifact and validate its shape.
        directory = Path(os.environ.get("GUARDIAN_BENCH_DIR", "."))
        directory.mkdir(parents=True, exist_ok=True)
        trace_path = directory / "BENCH_telemetry_trace.json"
        write_chrome_trace(trace_path, telemetry.tracer.spans())
        trace = json.loads(trace_path.read_text())
        events = trace["traceEvents"]
        assert any(event["ph"] == "X" for event in events)
        assert any(event["ph"] == "M" for event in events)
        print(f"chrome trace: {len(events)} events -> {trace_path}")

        emit_bench_json("telemetry_overhead", {
            "telemetry_off_cycles": stock.stats.cycles,
            "telemetry_on_cycles": traced.stats.cycles,
            "host_cycle_ratio": ratio,
            "call_spans": len(call_spans),
            "spans_dropped": telemetry.tracer.spans_dropped,
            "tenants": TENANTS,
            "iterations": ITERATIONS,
        })

        assert ratio <= CYCLE_RATIO_CEILING
