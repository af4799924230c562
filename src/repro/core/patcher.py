"""The offline PTX patcher (paper §4.3, Listing 2).

Takes kernels exactly as ``cuobjdump`` extracts them from closed-source
binaries — PTX text, no source — and rewrites every off-chip load,
store and atomic so the kernel cannot touch memory outside its tenant's
partition. ``.func`` device functions are instrumented identically to
``.entry`` kernels.

Per :class:`~repro.core.policy.FencingMode`:

``BITWISE``
    Appends two parameters (partition base, mask) and, before every
    access, two bitwise instructions (paper Listing 2)::

        and.b64  %addr, %addr, %guardian_mask
        or.b64   %addr, %addr, %guardian_base

    For the register-direct addressing mode the masking is applied
    *in place* to the address register, exactly as in Listing 2; the
    ``address+offset`` mode first materialises the effective address in
    a temporary register (the paper's second addressing mode, §4.3).

``MODULO``
    Appends (base, size, magic = floor(2^64/size)) and computes
    ``base + ((addr - base) mod size)`` inline — multiply-by-reciprocal
    plus one conditional correction, avoiding the CUDA 64-bit modulo
    function call (§4.4).

``CHECKING``
    Appends (base, end) and emits conditional lower/upper bounds checks
    before each access; a violating thread branches to an injected
    return label (the "detect and return" debug mode, §4.4). Two
    ``setp`` + guarded ``bra`` pairs cost the paper's ~80 cycles.

Indirect branches (``brx.idx``) are additionally sandboxed by wrapping
the index modulo the target-table length (§4.3, threat model §3).

Instructions with a predicate guard are first normalised into an
explicit branch-around block so the injected fencing code never mutates
state of a predicated-off access.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.errors import PatcherError, ReproError
from repro.core.policy import FencingMode
from repro.ptx import isa
from repro.ptx.ast import (
    Guard,
    Immediate,
    Instruction,
    Kernel,
    Label,
    MemRef,
    Module,
    Param,
    RegDecl,
    Register,
    Symbol,
    TargetList,
)
from repro.ptx.parser import parse_module
from repro.ptx.emitter import emit_module

#: Register names the patcher introduces (its private bank prefixes).
_B64_PREFIX = "%grd"
_B32_PREFIX = "%grdi"
_PRED_PREFIX = "%grdp"

#: State spaces whose accesses must be fenced: everything reachable by
#: co-running kernels (off-chip, shared address space — paper §2.3).
#: ``param`` is the read-only launch buffer, ``shared`` is per-block
#: on-chip, ``local`` is per-thread — none are cross-tenant reachable.
_FENCED_SPACES = frozenset({"global", "generic", "const", None})

_OOB_LABEL = "$GUARDIAN_OOB"


@dataclass
class PatchReport:
    """What the patcher did to one kernel (drives Table 3 / Fig. 10)."""

    kernel: str
    mode: FencingMode
    is_entry: bool = True
    loads_instrumented: int = 0
    stores_instrumented: int = 0
    atomics_instrumented: int = 0
    direct_sites: int = 0
    offset_sites: int = 0
    symbol_sites: int = 0
    brx_sites: int = 0
    extra_instructions: int = 0
    extra_params: int = 0
    extra_param_bytes: int = 0

    @property
    def sites(self) -> int:
        return (
            self.loads_instrumented
            + self.stores_instrumented
            + self.atomics_instrumented
        )


class PatchCache:
    """Content-addressed cache of patched PTX, shared across tenants.

    Closed-source library PTX (cuBLAS, cuDNN, ...) is byte-identical
    across every tenant that deploys the same library version, so the
    offline parse+patch pass only needs to run once per distinct text
    and fencing mode. Entries are keyed by
    ``(sha256(ptx_text), FencingMode)`` — content-addressed, so two
    tenants registering the same library through *different*
    ``FatBinary`` objects still share one entry — and bounded by an LRU
    policy.

    The cached value is ``(patched_text, reports)``. Report objects are
    shared by reference between tenants; they are never mutated after
    patching, so sharing is safe (and is exactly what makes the cache a
    win: per-tenant state stays limited to the partition-bound launch
    parameters, which are *not* baked into the patched text).
    """

    def __init__(self, capacity: int = 64):
        if capacity < 0:
            raise PatcherError(f"bad patch-cache capacity {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[
            tuple[str, FencingMode], tuple[str, list[PatchReport]]
        ] = OrderedDict()

    @staticmethod
    def key_for(ptx_text: str, mode: FencingMode
                ) -> tuple[str, FencingMode]:
        digest = hashlib.sha256(ptx_text.encode("utf-8")).hexdigest()
        return (digest, mode)

    def get(self, ptx_text: str, mode: FencingMode
            ) -> tuple[str, list[PatchReport]] | None:
        """Probe the cache; refreshes LRU recency on a hit."""
        key = self.key_for(ptx_text, mode)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, ptx_text: str, mode: FencingMode,
            patched_text: str, reports: list[PatchReport]) -> int:
        """Insert an entry; returns how many entries were evicted."""
        if self.capacity == 0:
            return 0
        key = self.key_for(ptx_text, mode)
        self._entries[key] = (patched_text, reports)
        self._entries.move_to_end(key)
        evicted = 0
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            evicted += 1
        return evicted

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple[str, FencingMode]) -> bool:
        return key in self._entries


class ThreadSafePatchCache(PatchCache):
    """A :class:`PatchCache` safe to share across patcher threads.

    Every operation (probe, insert, len, contains) holds one mutex, so
    the LRU bookkeeping — ``move_to_end`` + eviction — can never be
    interleaved by two workers of the server's patch pool. The values
    themselves stay immutable, so hits may still be returned by
    reference without copying.
    """

    def __init__(self, capacity: int = 64):
        super().__init__(capacity)
        self._mutex = threading.RLock()

    def get(self, ptx_text: str, mode: FencingMode
            ) -> tuple[str, list[PatchReport]] | None:
        with self._mutex:
            return super().get(ptx_text, mode)

    def put(self, ptx_text: str, mode: FencingMode,
            patched_text: str, reports: list[PatchReport]) -> int:
        with self._mutex:
            return super().put(ptx_text, mode, patched_text, reports)

    def __len__(self) -> int:
        with self._mutex:
            return super().__len__()

    def __contains__(self, key: tuple[str, FencingMode]) -> bool:
        with self._mutex:
            return super().__contains__(key)


#: Bump when the on-disk entry layout (or anything baked into a cached
#: patched text, e.g. the patcher's instrumentation sequences) changes
#: incompatibly. The version is part of every entry's file name, so old
#: and new processes never read each other's entries — stale versions
#: are simply never probed again and can be garbage-collected offline.
DISK_FORMAT_VERSION = 1


class DiskPatchCache(ThreadSafePatchCache):
    """A patch cache persisted to a content-addressed on-disk store.

    The in-memory LRU (inherited) stays the first-level cache; misses
    fall through to ``directory``, where each entry lives in its own
    file named ``{sha256(text)}-{mode}-v{DISK_FORMAT_VERSION}.json``.
    Because the key is the *content* hash, entries written by one
    server process are valid for every other process (and node) that
    patches the same library text in the same fencing mode — cold-start
    patch cost amortizes across the fleet, not just across tenants.

    Durability rules:

    - **atomic writes** — entries are serialised to a temp file in the
      same directory and ``os.replace``d into place, so readers never
      observe a torn entry and concurrent writers of the same key
      settle on one complete file;
    - **versioned keys** — ``DISK_FORMAT_VERSION`` is part of the file
      name, so a format change is an automatic cold start rather than
      a parse error;
    - **corrupt entries are misses** — any unreadable/undecodable file
      is ignored (counted in ``disk_misses``); the patcher simply runs
      and the next ``put`` rewrites the entry.

    Thread safety comes from the inherited mutex: every probe/insert —
    including the disk round-trip — runs under it, which also keeps the
    ``disk_*`` counters exact for the server's stats diffs.
    """

    def __init__(self, directory: str, capacity: int = 64):
        super().__init__(capacity)
        self.directory = os.path.expanduser(directory)
        os.makedirs(self.directory, exist_ok=True)
        #: Probes answered from disk (after an in-memory miss).
        self.disk_hits = 0
        #: Probes that missed both tiers (or hit a corrupt file).
        self.disk_misses = 0
        #: Entries written (or rewritten) to disk.
        self.disk_writes = 0

    def _path_for(self, key: tuple[str, FencingMode]) -> str:
        digest, mode = key
        return os.path.join(
            self.directory,
            f"{digest}-{mode.value}-v{DISK_FORMAT_VERSION}.json",
        )

    # -- probe/insert -------------------------------------------------------

    def get(self, ptx_text: str, mode: FencingMode
            ) -> tuple[str, list[PatchReport]] | None:
        entry, _ = self.get_with_source(ptx_text, mode)
        return entry

    def get_with_source(self, ptx_text: str, mode: FencingMode
                        ) -> tuple[
                            tuple[str, list[PatchReport]] | None,
                            str | None,
                        ]:
        """Probe both tiers; returns ``(entry, "memory"|"disk"|None)``.

        A disk hit is promoted into the in-memory LRU so the next probe
        for the same content is a memory hit.
        """
        with self._mutex:
            entry = PatchCache.get(self, ptx_text, mode)
            if entry is not None:
                return entry, "memory"
            key = self.key_for(ptx_text, mode)
            entry = self._load(self._path_for(key), mode)
            if entry is None:
                self.disk_misses += 1
                return None, None
            self.disk_hits += 1
            PatchCache.put(self, ptx_text, mode, entry[0], entry[1])
            return entry, "disk"

    def put(self, ptx_text: str, mode: FencingMode,
            patched_text: str, reports: list[PatchReport]) -> int:
        with self._mutex:
            evicted = PatchCache.put(
                self, ptx_text, mode, patched_text, reports
            )
            key = self.key_for(ptx_text, mode)
            self._store(self._path_for(key), patched_text, reports)
            self.disk_writes += 1
            return evicted

    # -- serialisation ------------------------------------------------------

    def _store(self, path: str, patched_text: str,
               reports: list[PatchReport]) -> None:
        serialised = []
        for report in reports:
            record = dataclasses.asdict(report)
            record["mode"] = report.mode.value
            serialised.append(record)
        payload = json.dumps({
            "version": DISK_FORMAT_VERSION,
            "patched_text": patched_text,
            "reports": serialised,
        })
        handle, temp_path = tempfile.mkstemp(
            dir=self.directory, suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as stream:
                stream.write(payload)
            os.replace(temp_path, path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise

    @staticmethod
    def _load(path: str, mode: FencingMode
              ) -> tuple[str, list[PatchReport]] | None:
        try:
            with open(path, "r", encoding="utf-8") as stream:
                payload = json.load(stream)
            if payload.get("version") != DISK_FORMAT_VERSION:
                return None
            patched_text = payload["patched_text"]
            if not isinstance(patched_text, str):
                return None
            reports = []
            for record in payload["reports"]:
                record = dict(record)
                record["mode"] = FencingMode(record["mode"])
                reports.append(PatchReport(**record))
            return patched_text, reports
        except (OSError, ValueError, TypeError, KeyError):
            # Missing, torn, corrupt, or future-format file: a miss.
            return None


@dataclass(frozen=True)
class PatchOutcome:
    """One text's trip through the parallel patch front-end.

    ``source`` is one of ``"hit"`` (already in the in-memory cache),
    ``"disk"`` (missed memory but found in a :class:`DiskPatchCache`'s
    on-disk store — charged as a disk lookup, not a patch), ``"join"``
    (another worker was patching the same content hash; we waited on
    its result — no second patch ran, no second patch is charged) or
    ``"patched"`` (this call ran the patcher).
    """

    patched_text: str
    reports: list[PatchReport]
    source: str


class ParallelPatcher:
    """Thread-pooled, single-flight front-end over a :class:`PTXPatcher`.

    The patcher is pure CPU and the patch cache is content-addressed,
    which makes cold patches *mergeable*: two tenants deploying the
    same library concurrently need one parse+patch, not two. This
    class provides

    - **single-flight misses**: concurrent :meth:`patch` calls on the
      same ``sha256(text)`` collapse onto one in-flight patch; the
      losers block on a :class:`~concurrent.futures.Future` and report
      ``source="join"`` so the caller charges a probe, not a patch;
    - **a worker pool** (:meth:`patch_many`): distinct cold texts of
      one deployment are patched on up to ``workers`` threads.

    All cache traffic goes through the (thread-safe) cache the caller
    supplies; with ``cache=None`` the front-end degrades to plain
    patching (every call reports ``"patched"``).
    """

    def __init__(self, patcher: PTXPatcher,
                 cache: PatchCache | None = None,
                 workers: int = 1):
        if workers < 1:
            raise PatcherError(f"bad patch worker count {workers}")
        self.patcher = patcher
        self.cache = cache
        self.workers = workers
        self._pool: ThreadPoolExecutor | None = None
        self._mutex = threading.Lock()
        self._inflight: dict[tuple[str, FencingMode], Future] = {}
        #: How many parse+patch passes actually ran (the thread-safety
        #: tests pin this to 1 for N concurrent same-hash misses).
        self.patches_run = 0
        #: Cumulative LRU evictions caused by this front-end's inserts;
        #: the server diffs it around a batch to keep its stats exact.
        self.evictions = 0

    def patch(self, ptx_text: str) -> PatchOutcome:
        """Patch one text through the cache with single-flight misses."""
        if self.cache is None:
            patched_text, reports = self.patcher.patch_text(ptx_text)
            with self._mutex:
                self.patches_run += 1
            return PatchOutcome(patched_text, reports, "patched")
        key = PatchCache.key_for(ptx_text, self.patcher.mode)
        probe = getattr(self.cache, "get_with_source", None)
        with self._mutex:
            if probe is not None:
                cached, tier = probe(ptx_text, self.patcher.mode)
                if cached is not None:
                    source = "hit" if tier == "memory" else "disk"
                    return PatchOutcome(cached[0], cached[1], source)
            else:
                cached = self.cache.get(ptx_text, self.patcher.mode)
                if cached is not None:
                    return PatchOutcome(cached[0], cached[1], "hit")
            pending = self._inflight.get(key)
            if pending is None:
                pending = Future()
                self._inflight[key] = pending
                owner = True
            else:
                owner = False
        if not owner:
            patched_text, reports = pending.result()
            return PatchOutcome(patched_text, reports, "join")
        # Every exit resolves the future and drops the in-flight entry:
        # a failed patch *or* a failed insert (e.g. a disk write error)
        # left behind would block every later joiner of this key.
        try:
            patched_text, reports = self.patcher.patch_text(ptx_text)
            evicted = self.cache.put(
                ptx_text, self.patcher.mode, patched_text, reports
            )
        except BaseException as failure:
            with self._mutex:
                self._inflight.pop(key, None)
            pending.set_exception(failure)
            raise
        with self._mutex:
            self.patches_run += 1
            self.evictions += evicted
            self._inflight.pop(key, None)
        pending.set_result((patched_text, reports))
        return PatchOutcome(patched_text, reports, "patched")

    def patch_many(self, ptx_texts: list[str]) -> list[PatchOutcome]:
        """Patch a batch of texts, fanning cold ones across the pool.

        Results come back in input order. Duplicate texts inside one
        batch resolve through the single-flight path: the first
        occurrence patches, the rest join.
        """
        if len(ptx_texts) <= 1 or self.workers == 1:
            return [self.patch(text) for text in ptx_texts]
        pool = self._ensure_pool()
        futures = [pool.submit(self.patch, text) for text in ptx_texts]
        return [future.result() for future in futures]

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="guardian-patch",
            )
        return self._pool

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class PTXPatcher:
    """Sandboxes PTX kernels for one fencing mode."""

    def __init__(self, mode: FencingMode = FencingMode.BITWISE):
        if not isinstance(mode, FencingMode):
            raise PatcherError(f"bad fencing mode {mode!r}")
        self.mode = mode

    # -- public API --------------------------------------------------------------

    def patch_text(self, ptx_text: str) -> tuple[str, list[PatchReport]]:
        """Patch PTX text (the cuobjdump output) and re-emit text.

        The input is attacker-controlled (it came out of a tenant's
        binary), so *any* failure — including a parser or patcher bug
        tripped by truncated/garbage text — must surface as a
        :class:`ReproError` the server can reject cleanly, never as a
        raw ``IndexError``/``RecursionError`` that would take the
        trusted process down with it.
        """
        try:
            module, reports = self.patch_module(parse_module(ptx_text))
            return emit_module(module), reports
        except ReproError:
            raise
        except Exception as failure:  # noqa: BLE001 — containment boundary
            raise PatcherError(
                f"malformed PTX crashed the patcher "
                f"({type(failure).__name__}: {failure})"
            ) from failure

    def patch_module(self, module: Module
                     ) -> tuple[Module, list[PatchReport]]:
        """Patch every kernel and device function of a module."""
        patched = Module(
            version=module.version,
            target=module.target,
            address_size=module.address_size,
            globals=list(module.globals),
        )
        reports = []
        for kernel in module.kernels.values():
            new_kernel, report = self.patch_kernel(kernel)
            patched.add(new_kernel)
            reports.append(report)
        return patched, reports

    def patch_kernel(self, kernel: Kernel) -> tuple[Kernel, PatchReport]:
        """Sandbox one kernel; returns (patched kernel, report)."""
        report = PatchReport(kernel=kernel.name, mode=self.mode,
                             is_entry=kernel.is_entry)
        if self.mode is FencingMode.NONE:
            return kernel, report

        state = _PatchState(kernel, self.mode)
        body: list = []
        needs_oob_label = False

        for statement in _normalise_guards(kernel.body, state):
            if not isinstance(statement, Instruction):
                body.append(statement)
                continue
            if statement.base_op == "brx":
                body.extend(state.sandbox_brx(statement, report))
                continue
            if (
                statement.is_memory_access
                and statement.space in _FENCED_SPACES
            ):
                emitted, oob_used = state.sandbox_access(statement, report)
                body.extend(emitted)
                needs_oob_label = needs_oob_label or oob_used
                continue
            body.append(statement)

        if needs_oob_label:
            body.append(Label(_OOB_LABEL))
            body.append(Instruction(opcode="ret"))
            report.extra_instructions += 1

        prologue = state.prologue(report)
        params = list(kernel.params) + state.extra_params()
        report.extra_params = len(state.extra_params())
        report.extra_param_bytes = sum(
            param.width for param in state.extra_params()
        )
        patched = Kernel(
            name=kernel.name,
            params=params,
            body=prologue + body,
            is_entry=kernel.is_entry,
            visible=kernel.visible,
        )
        return patched, report


class _PatchState:
    """Per-kernel bookkeeping while patching."""

    def __init__(self, kernel: Kernel, mode: FencingMode):
        self.kernel = kernel
        self.mode = mode
        self._label_counter = 0
        # Which of the private registers the emitted code actually used.
        self._b64_used = 0
        self._b32_used = 0
        self._pred_used = 0
        self._existing_prefixes = {
            statement.prefix
            for statement in kernel.body
            if isinstance(statement, RegDecl)
        }
        for prefix in (_B64_PREFIX, _B32_PREFIX, _PRED_PREFIX):
            if prefix in self._existing_prefixes:
                raise PatcherError(
                    f"kernel {kernel.name!r} already uses the reserved "
                    f"register prefix {prefix!r}"
                )

    # -- registers ----------------------------------------------------------------

    def _b64(self, index: int) -> Register:
        self._b64_used = max(self._b64_used, index)
        return Register(f"{_B64_PREFIX}{index}")

    def _b32(self, index: int) -> Register:
        self._b32_used = max(self._b32_used, index)
        return Register(f"{_B32_PREFIX}{index}")

    def _pred(self, index: int) -> Register:
        self._pred_used = max(self._pred_used, index)
        return Register(f"{_PRED_PREFIX}{index}")

    # Fixed roles for the first few private b64 registers.
    @property
    def reg_base(self) -> Register:
        return self._b64(1)

    @property
    def reg_second(self) -> Register:  # mask / size / end
        return self._b64(2)

    @property
    def reg_magic(self) -> Register:
        return self._b64(3)

    @property
    def reg_temp(self) -> Register:
        return self._b64(4)

    @property
    def reg_temp2(self) -> Register:
        return self._b64(5)

    @property
    def reg_temp3(self) -> Register:
        return self._b64(6)

    def fresh_label(self) -> str:
        self._label_counter += 1
        return f"$GRD_{self._label_counter}"

    # -- parameters -----------------------------------------------------------------

    def extra_params(self) -> list[Param]:
        names = self.mode.extra_params
        return [
            Param(name=f"{self.kernel.name}_{name}", param_type="u64")
            for name in names
        ]

    def prologue(self, report: PatchReport) -> list:
        """Register declarations plus parameter loads, inserted at the
        top of the body (the paper's Listing 2 lines 15-18)."""
        instructions: list = []
        param_regs = {
            FencingMode.BITWISE: [self.reg_base, self.reg_second],
            FencingMode.MODULO: [
                self.reg_base, self.reg_second, self.reg_magic
            ],
            FencingMode.CHECKING: [self.reg_base, self.reg_second],
        }[self.mode]
        for register, param in zip(param_regs, self.extra_params()):
            instructions.append(
                Instruction(
                    opcode="ld.param.u64",
                    operands=(register, MemRef(Symbol(param.name))),
                )
            )
        report.extra_instructions += len(instructions)

        decls: list = []
        if self._b64_used:
            decls.append(
                RegDecl(reg_type="b64", prefix=_B64_PREFIX,
                        count=self._b64_used + 1)
            )
        if self._b32_used:
            decls.append(
                RegDecl(reg_type="b32", prefix=_B32_PREFIX,
                        count=self._b32_used + 1)
            )
        if self._pred_used:
            decls.append(
                RegDecl(reg_type="pred", prefix=_PRED_PREFIX,
                        count=self._pred_used + 1)
            )
        return decls + instructions

    # -- access instrumentation -------------------------------------------------------

    def sandbox_access(self, instruction: Instruction, report: PatchReport
                       ) -> tuple[list, bool]:
        """Instrument one unguarded load/store/atomic.

        Returns (replacement statements, used-OOB-label?).
        """
        memref = _memref_of(instruction)
        if instruction.is_load:
            report.loads_instrumented += 1
        elif instruction.is_store:
            report.stores_instrumented += 1
        else:
            report.atomics_instrumented += 1

        emitted: list = []
        width = isa.type_width(instruction.dtype or "b32")

        # Resolve the effective address into a register we may fence.
        if isinstance(memref.base, Register) and memref.offset == 0:
            address = memref.base
            in_place = True
            report.direct_sites += 1
        else:
            address = self.reg_temp
            if isinstance(memref.base, Symbol):
                report.symbol_sites += 1
                emitted.append(Instruction(
                    opcode="mov.u64",
                    operands=(address, memref.base),
                ))
                if memref.offset:
                    emitted.append(Instruction(
                        opcode="add.s64",
                        operands=(address, address,
                                  Immediate(memref.offset)),
                    ))
            else:
                report.offset_sites += 1
                emitted.append(Instruction(
                    opcode="add.s64",
                    operands=(address, memref.base,
                              Immediate(memref.offset)),
                ))
            in_place = False

        used_oob = False
        if self.mode is FencingMode.BITWISE:
            emitted.extend(self._emit_bitwise(address))
        elif self.mode is FencingMode.MODULO:
            address = self._emit_modulo(emitted, address, in_place)
        else:
            used_oob = True
            emitted.extend(self._emit_check(address, width))

        # Everything emitted so far (address materialisation + fencing
        # or checks) is added work; the access itself replaces the
        # original instruction.
        report.extra_instructions += len(emitted)

        emitted.append(_with_memref(instruction, MemRef(address)))
        return emitted, used_oob

    def _emit_bitwise(self, address: Register) -> list:
        """Listing 2: AND with the mask, OR with the base."""
        return [
            Instruction(opcode="and.b64",
                        operands=(address, address, self.reg_second)),
            Instruction(opcode="or.b64",
                        operands=(address, address, self.reg_base)),
        ]

    def _emit_modulo(self, emitted: list, address: Register,
                     in_place: bool) -> Register:
        """Inline 64-bit modulo via the reciprocal magic parameter.

        t  = (addr - base) & 0x7fff...   (clamp sign for the estimate)
        q  = mulhi(t, magic)             (~ t / size)
        r  = t - q * size
        r -= size if r >= size           (single correction)
        fenced = base + r
        """
        temp = self.reg_temp if in_place else address
        quotient = self.reg_temp2
        scratch = self.reg_temp3
        predicate = self._pred(1)
        emitted.extend([
            Instruction(opcode="sub.s64",
                        operands=(temp, address, self.reg_base)),
            Instruction(opcode="and.b64",
                        operands=(temp, temp,
                                  Immediate(0x7FFFFFFFFFFFFFFF))),
            Instruction(opcode="mul.hi.u64",
                        operands=(quotient, temp, self.reg_magic)),
            Instruction(opcode="mul.lo.u64",
                        operands=(quotient, quotient, self.reg_second)),
            Instruction(opcode="sub.s64",
                        operands=(temp, temp, quotient)),
            Instruction(opcode="setp.ge.u64",
                        operands=(predicate, temp, self.reg_second)),
            Instruction(opcode="sub.s64",
                        operands=(scratch, temp, self.reg_second)),
            Instruction(opcode="selp.b64",
                        operands=(temp, scratch, temp, predicate)),
            Instruction(opcode="add.s64",
                        operands=(temp, self.reg_base, temp)),
        ])
        return temp

    def _emit_check(self, address: Register, width: int) -> list:
        """Conditional lower/upper bounds checks; violators return."""
        predicate = self._pred(1)
        last = self.reg_temp2
        return [
            Instruction(opcode="setp.lt.u64",
                        operands=(predicate, address, self.reg_base)),
            Instruction(opcode="bra", operands=(Symbol(_OOB_LABEL),),
                        guard=Guard(register=predicate.name)),
            Instruction(opcode="add.s64",
                        operands=(last, address, Immediate(width))),
            Instruction(opcode="setp.gt.u64",
                        operands=(predicate, last, self.reg_second)),
            Instruction(opcode="bra", operands=(Symbol(_OOB_LABEL),),
                        guard=Guard(register=predicate.name)),
        ]

    # -- indirect branches ------------------------------------------------------------

    def sandbox_brx(self, instruction: Instruction,
                    report: PatchReport) -> list:
        """Wrap a brx.idx index modulo the target-table size (§4.3)."""
        index_operand, targets = instruction.operands
        if not isinstance(targets, TargetList):
            raise PatcherError("brx.idx without a target list")
        report.brx_sites += 1
        wrapped = self._b32(1)
        emitted = [
            Instruction(
                opcode="rem.u32",
                operands=(wrapped, index_operand,
                          Immediate(len(targets.labels))),
            ),
            Instruction(
                opcode=instruction.opcode,
                operands=(wrapped, targets),
                guard=instruction.guard,
            ),
        ]
        report.extra_instructions += 1
        return emitted


# --------------------------------------------------------------------------
# Helpers
# --------------------------------------------------------------------------


def _memref_of(instruction: Instruction) -> MemRef:
    for operand in instruction.operands:
        if isinstance(operand, MemRef):
            return operand
    raise PatcherError(
        f"memory instruction {instruction.opcode} has no memory operand"
    )


def _with_memref(instruction: Instruction, memref: MemRef) -> Instruction:
    operands = tuple(
        memref if isinstance(operand, MemRef) else operand
        for operand in instruction.operands
    )
    return Instruction(
        opcode=instruction.opcode,
        operands=operands,
        guard=instruction.guard,
    )


def _normalise_guards(body: list, state: _PatchState):
    """Rewrite guarded memory accesses into branch-around blocks.

    ``@%p st.global [%rd4], %r2`` becomes::

        @!%p bra $GRD_n;
        st.global [%rd4], %r2;
        $GRD_n:

    so the fencing code inserted later never executes (or mutates the
    address register) when the access is predicated off.
    """
    for statement in body:
        if (
            isinstance(statement, Instruction)
            and statement.guard is not None
            and (statement.is_memory_access or statement.base_op == "brx")
            and statement.space in _FENCED_SPACES
        ):
            label = state.fresh_label()
            yield Instruction(
                opcode="bra",
                operands=(Symbol(label),),
                guard=Guard(
                    register=statement.guard.register,
                    negated=not statement.guard.negated,
                ),
            )
            yield Instruction(
                opcode=statement.opcode,
                operands=statement.operands,
                guard=None,
            )
            yield Label(label)
        else:
            yield statement


# --------------------------------------------------------------------------
# Census (Table 3)
# --------------------------------------------------------------------------


@dataclass
class MemoryOpCensus:
    """Load/store inventory of a module (the paper's Table 3 rows)."""

    kernels: int = 0
    funcs: int = 0
    loads: int = 0
    stores: int = 0
    atomics: int = 0
    brx: int = 0


def count_memory_ops(module: Module) -> MemoryOpCensus:
    """Count kernels, device functions and their *fenced* memory
    instructions (off-chip loads/stores — the paper's Table 3 rows)."""
    census = MemoryOpCensus()
    for kernel in module.kernels.values():
        if kernel.is_entry:
            census.kernels += 1
        else:
            census.funcs += 1
        for instruction in kernel.instructions():
            if instruction.base_op == "brx":
                census.brx += 1
        for instruction in kernel.memory_accesses():
            if instruction.is_load:
                census.loads += 1
            elif instruction.is_store:
                census.stores += 1
            else:
                census.atomics += 1
    return census
