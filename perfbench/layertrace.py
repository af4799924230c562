"""Per-layer wall-clock tracing, installed from outside the package.

:class:`LayerTracer` wraps each layer's public entry points for the
duration of one traced repetition and restores them afterwards; nothing
under ``src/`` changes. Every wrapped call becomes a span (name, layer,
start, end, parent span, trace id, tenant) kept in memory and written
out as Chrome-trace JSON, which Perfetto opens. A layer's *self time*
is the wall time of its spans minus the part covered by nested spans,
so time spent in a deeper layer is charged there and not twice.

A function is wrapped at every name it is reachable by inside
``repro`` (``driver/jit.py`` calls ``parse_module`` through its own
module namespace, for example), and a class's methods are wrapped on
the class itself, so every caller resolves the wrapper.

Counters the package already keeps (``ServerStats``, ``IPCStats``,
``DeviceMetrics``, ``LaunchResult``) are read after the run from the
objects the wrappers saw constructed, not re-derived.

:class:`LaunchCounter` is the one-hook variant the untraced run uses
on an untimed repetition to count simulated instructions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

#: (layer, module, names). A name is a function, or a class whose public
#: methods (and ``__init__``) are wrapped. Layers are named after their
#: modules; classes of one module belong to its layer.
LAYERS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("client", "repro.core.client", ("GuardianClient",)),
    ("ipc", "repro.core.ipc", ("IPCChannel",)),
    ("server", "repro.core.server", ("GuardianServer",)),
    ("tracecache", "repro.core.tracecache", ("TraceEngine",)),
    ("telemetry", "repro.telemetry", ("Telemetry", "maybe_span")),
    ("telemetry", "repro.telemetry.trace", ("SpanTracer",)),
    ("telemetry", "repro.telemetry.registry",
     ("MetricsRegistry", "Counter", "Gauge", "Histogram")),
    ("patcher", "repro.core.patcher",
     ("PTXPatcher", "PatchCache", "ThreadSafePatchCache", "DiskPatchCache",
      "ParallelPatcher")),
    ("parser", "repro.ptx.parser", ("parse_module",)),
    ("jit", "repro.driver.jit", ("jit_compile", "CompiledModule")),
    ("codegen", "repro.gpu.codegen",
     ("compile_thread_function", "make_memory_helpers")),
    ("executor", "repro.gpu.executor", ("KernelExecutor", "compile_kernel")),
    ("timeline", "repro.gpu.timeline", ("Timeline",)),
    ("device", "repro.gpu.device", ("Device",)),
    ("allocator", "repro.core.allocator", ("GuardianAllocator", "Partition")),
    ("bounds_table", "repro.core.bounds_table",
     ("PartitionBoundsTable", "BoundsSnapshot", "PartitionRecord")),
    ("elastic", "repro.core.elastic", ("ElasticMemoryEngine", "ElasticClient")),
    ("runtime", "repro.runtime.api", ("CudaRuntime",)),
    ("runtime", "repro.runtime.backend", ("NativeBackend",)),
    ("loadgen", "repro.loadgen.driver", ("OpenLoopDriver",)),
    ("loadgen", "repro.loadgen.session", ("run_session",)),
    ("loadgen", "repro.loadgen.churn", ("run_churn", "churn_trace")),
    ("loadgen", "repro.loadgen.arrivals", ("PoissonArrivals",)),
)

LAYER_NAMES = tuple(dict.fromkeys(layer for layer, _, _ in LAYERS))

#: Spans kept for the Chrome trace; aggregates always cover every call.
SPAN_CAP = 50_000

#: Layers the report ranks by self time.
TOP_LAYERS = 3

#: Sessions a run needs before ``loadgen.session_wall_growth`` is given.
MIN_SESSIONS_FOR_GROWTH = 8


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _public_callables(owner):
    """(attribute, raw object) pairs to wrap on a class."""
    for attr, raw in vars(owner).items():
        if attr != "__init__" and attr.startswith("_"):
            continue
        if isinstance(raw, (staticmethod, classmethod)):
            yield attr, raw
        elif inspect.isfunction(raw):
            yield attr, raw


def _tenant_getter(fn, is_method: bool):
    """Return f(args, kwargs) -> tenant id or None for one callable."""
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        params = []
    index = params.index("app_id") if "app_id" in params else None

    def tenant_of(args, kwargs):
        if index is not None:
            value = args[index] if len(args) > index else kwargs.get("app_id")
            if isinstance(value, str):
                return value
        if is_method and args:
            value = getattr(args[0], "app_id", None)
            if isinstance(value, str):
                return value
        return None

    return tenant_of


class LayerTracer:
    """Wraps every layer in :data:`LAYERS` while installed."""

    def __init__(self):
        self.self_ns: dict[str, int] = defaultdict(int)
        #: Entries into a layer from a different layer (or from outside).
        self.entries: dict[str, int] = defaultdict(int)
        #: Calls per wrapped function, by qualified name.
        self.calls: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        #: Objects whose own counters are read after the run.
        self.seen: dict[str, dict[int, object]] = defaultdict(dict)
        # Hook state.
        self.instructions = 0
        self.level_counts: dict[str, int] = defaultdict(int)
        self.timeline_tasks = 0
        self.pending_max = 0
        self.pending_scanned = 0
        self.fragmentation: list[float] = []
        #: Attach instants, grouped by server: one group per session run.
        self.client_starts: dict[int, list[int]] = defaultdict(list)
        self._stack: list[list] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self._origin_ns = 0

    # -- install / uninstall --------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        self._origin_ns = time.perf_counter_ns()
        for layer, module_name, names in LAYERS:
            module = importlib.import_module(module_name)
            for name in names:
                target = getattr(module, name)
                if inspect.isclass(target):
                    self._wrap_class(layer, target)
                else:
                    self._wrap_function(layer, name, target)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, raw in list(_public_callables(cls)):
            qualname = f"{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrapper(
                    raw.__func__, layer, qualname, is_method=False))
            elif isinstance(raw, classmethod):
                wrapped = classmethod(self._wrapper(
                    raw.__func__, layer, qualname, is_method=False))
            else:
                wrapped = self._wrapper(raw, layer, qualname, is_method=True)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def _wrap_function(self, layer: str, name: str, fn) -> None:
        wrapped = self._wrapper(fn, layer, name, is_method=False)
        # Patch every namespace that bound the function by name.
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapped)

    # -- the wrapper ----------------------------------------------------------

    def _wrapper(self, fn, layer: str, name: str, is_method: bool):
        tracer = self
        stack = self._stack
        clock = time.perf_counter_ns
        tenant_of = _tenant_getter(fn, is_method)
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            tenant = tenant_of(args, kwargs)
            if tenant is None and parent is not None:
                tenant = parent[5]
            span_id = next(tracer._ids)
            trace_id = parent[4] if parent is not None else span_id
            # [layer, start, child_ns, span_id, trace_id, tenant]
            frame = [layer, 0, 0, span_id, trace_id, tenant or ""]
            stack.append(frame)
            frame[1] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                tracer.self_ns[layer] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                if parent is None or parent[0] != layer:
                    tracer.entries[layer] += 1
                tracer.calls[name] += 1
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((
                        name, layer, start, end, span_id,
                        parent[3] if parent is not None else None,
                        trace_id, frame[5],
                    ))
                else:
                    tracer.spans_dropped += 1
            if hook is not None:
                hook_start = clock()
                hook(tracer, args, result)
                # Hook time is instrumentation: charge it to no layer.
                if parent is not None:
                    parent[2] += clock() - hook_start
            return result

        return wrapper

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric; a layer the run never entered reads 0."""
        m: dict[str, float] = {}
        for layer in LAYER_NAMES:
            m[f"{layer}.self_ms"] = self.self_ns.get(layer, 0) / 1e6
        calls = self.calls
        m["client.calls"] = self.entries.get("client", 0)

        stats = [ch.stats for ch in self.seen["channel"].values()]
        m["ipc.messages"] = sum(s.messages for s in stats)
        m["ipc.batches"] = sum(s.batches for s in stats)
        batched = sum(s.batched_messages for s in stats)
        m["ipc.mean_batch"] = _ratio(batched, m["ipc.batches"])

        servers = [srv.stats for srv in self.seen["server"].values()]

        def total(counter: str) -> float:
            return sum(getattr(stats, counter) for stats in servers)

        m["server.calls"] = self.entries.get("server", 0)
        m["server.modelled_mcycles"] = total("cycles") / 1e6
        m["server.transfers_checked"] = total("transfers_checked")
        m["server.fastpath_hit_rate"] = _ratio(
            total("fastpath_hits"),
            total("fastpath_hits") + total("fastpath_misses"))

        m["tracecache.offers"] = calls.get("TraceEngine.offer", 0)
        m["tracecache.replay_rate"] = _ratio(
            total("trace_replay_ops"), total("trace_eligible_ops"))
        m["tracecache.guard_failures"] = total("trace_guard_failures")

        m["patcher.patches"] = total("kernels_patched")
        m["patcher.cache_hit_rate"] = _ratio(
            total("patch_cache_hits"),
            total("patch_cache_hits") + total("patch_cache_misses"))
        m["parser.parses"] = calls.get("parse_module", 0)
        m["jit.compiles"] = calls.get("jit_compile", 0)
        m["codegen.compiles"] = calls.get("compile_thread_function", 0)

        devices = [dev.metrics for dev in self.seen["device"].values()]
        m["executor.launches"] = sum(d.kernels_launched for d in devices)
        m["executor.instructions"] = self.instructions
        levels = self.level_counts
        m["executor.l1_hit_ratio"] = _ratio(
            levels["l1"], levels["l1"] + levels["l2"] + levels["global"])

        m["timeline.runs"] = calls.get("Timeline.run", 0)
        m["timeline.tasks"] = self.timeline_tasks
        m["device.submits"] = sum(
            count for name, count in calls.items()
            if name.startswith("Device.submit_"))
        m["device.pending_max"] = self.pending_max
        m["device.pending_scanned"] = self.pending_scanned

        m["allocator.calls"] = self.entries.get("allocator", 0)
        m["allocator.fragmentation"] = (
            statistics.fmean(self.fragmentation) if self.fragmentation else 0.0)
        m["bounds_table.calls"] = self.entries.get("bounds_table", 0)

        m["elastic.shrinks"] = total("partitions_shrunk")
        m["elastic.compactions"] = total("tenants_compacted")
        m["elastic.swaps_out"] = total("swaps_out")
        m["elastic.swaps_in"] = total("swaps_in")
        m["runtime.calls"] = self.entries.get("runtime", 0)
        m["loadgen.session_wall_growth"] = self.session_wall_growth()
        return m

    def session_wall_growth(self) -> float:
        """Median wall per session in the last quarter over the first.

        A session's wall is the interval between consecutive client
        attaches to one server, which covers everything the run did for
        that session (or, in the churn, for that arrival). With several
        servers, the median of their ratios. 0.0 when no server saw
        enough sessions to say."""
        ratios = []
        for starts in self.client_starts.values():
            gaps = [b - a for a, b in zip(starts, starts[1:])]
            if len(gaps) < MIN_SESSIONS_FOR_GROWTH:
                continue
            quarter = len(gaps) // 4
            first = statistics.median(gaps[:quarter])
            ratios.append(statistics.median(gaps[-quarter:]) / first)
        return statistics.median(ratios) if ratios else 0.0

    def top_layers(self) -> list[tuple[str, float]]:
        """The :data:`TOP_LAYERS` layers with the most self time, with
        their shares."""
        total = sum(self.self_ns.values()) or 1
        ranked = sorted(self.self_ns.items(), key=lambda kv: -kv[1])
        return [(layer, ns / total) for layer, ns in ranked[:TOP_LAYERS]]

    def write_chrome_trace(self, path: Path, meta: dict) -> Path:
        """Write the kept spans in the Chrome-trace format the package's
        own exporter emits (wall microseconds here, not cycles)."""
        from repro.telemetry.export import to_chrome_trace
        from repro.telemetry.trace import Span

        origin = self._origin_ns
        spans = (
            Span(trace_id=trace_id, span_id=span_id, parent_id=parent_id,
                 name=name, category=layer, tenant=tenant, track="wall",
                 start=(start - origin) / 1e3, end=(end - origin) / 1e3)
            for name, layer, start, end, span_id, parent_id, trace_id, tenant
            in self.spans
        )
        data = to_chrome_trace(spans)
        data["otherData"] = {
            "time_unit": "wall microseconds",
            "spans_dropped": self.spans_dropped,
            **meta,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(data))
        return path


# -- hooks: read counters off arguments and results -----------------------------

def _remember(kind: str):
    def hook(tracer: LayerTracer, args, result) -> None:
        obj = args[0]
        tracer.seen[kind][id(obj)] = obj
    return hook


def _on_launch(tracer: LayerTracer, args, result) -> None:
    tracer.instructions += result.instructions
    for level, count in result.level_counts.items():
        tracer.level_counts[level] += count


def _on_timeline_run(tracer: LayerTracer, args, result) -> None:
    tracer.timeline_tasks += len(args[1])


def _on_stream_pending(tracer: LayerTracer, args, result) -> None:
    # stream_pending scans the whole pending list: its cost is linear
    # in pending_tasks, which is what this accumulates.
    pending = args[0].pending_tasks
    tracer.pending_scanned += pending
    tracer.pending_max = max(tracer.pending_max, pending)


def _on_device_sync(tracer: LayerTracer, args, result) -> None:
    tracer.pending_max = max(tracer.pending_max, len(result.task_finish))


def _on_create_partition(tracer: LayerTracer, args, result) -> None:
    tracer.fragmentation.append(args[0].fragmentation_score())


def _on_client_init(tracer: LayerTracer, args, result) -> None:
    server = args[1] if len(args) > 1 else None
    tracer.client_starts[id(server)].append(time.perf_counter_ns())


_HOOKS = {
    "IPCChannel.__init__": _remember("channel"),
    "GuardianServer.__init__": _remember("server"),
    "Device.__init__": _remember("device"),
    "KernelExecutor.launch": _on_launch,
    "Timeline.run": _on_timeline_run,
    "Device.stream_pending": _on_stream_pending,
    "Device.synchronize": _on_device_sync,
    "GuardianAllocator.create_partition": _on_create_partition,
    "GuardianClient.__init__": _on_client_init,
}


class LaunchCounter:
    """Counts simulated thread-instructions by reading each
    ``LaunchResult``; the only wrapper the untraced run installs, and
    only around a repetition it does not time."""

    def __init__(self):
        self.instructions = 0
        self._original = None

    def __enter__(self) -> "LaunchCounter":
        from repro.gpu.executor import KernelExecutor

        self._original = original = KernelExecutor.launch
        counter = self

        @functools.wraps(original)
        def launch(*args, **kwargs):
            result = original(*args, **kwargs)
            counter.instructions += result.instructions
            return result

        KernelExecutor.launch = launch
        return self

    def __exit__(self, *exc) -> None:
        from repro.gpu.executor import KernelExecutor

        KernelExecutor.launch = self._original
