"""Bounds-enforcement, lane-scheduling, and autoscaling policies.

Three pluggable policy families live here:

1. **Bounds enforcement** (:class:`FencingMode`, the paper's §4.4
   trade-off space) — which sandboxing scheme the patcher/server apply.
2. **Lane scheduling** (:class:`LaneSchedulingPolicy`) — when the
   server runs in concurrent-dispatch mode (``ServerConfig.concurrency``,
   DESIGN.md §7), which tenant's lane advances first at each
   serialization point (the shared critical section guarding
   bounds-table writes, allocator mutations and patch-cache misses).
3. **Lane autoscaling** (:class:`AutoscalePolicy`) — the SLO control
   loop's decision point (DESIGN.md §13): given a class's windowed
   quantiles and its SLO target, widen, narrow, or hold the service
   capacity. Consulted by the open-loop load generator's driver at
   each control interval; nothing in the stock server calls it.

Guardian supports three bounds schemes, selectable at run time:

=============  =========  =============  ==========================
mode           ~cycles    partition      semantics on violation
               per ld/st  size
=============  =========  =============  ==========================
BITWISE        8          power of two   wrap into own partition
MODULO         ~38        arbitrary      wrap into own partition
CHECKING       80         arbitrary      detect; return from kernel
=============  =========  =============  ==========================

plus ``NONE`` — interception/forwarding without any checks (the
"G-Safe without protection" configuration used to isolate overheads).

Each mode needs different extra kernel parameters; the server fetches
them from the partition bounds table at every launch (§4.2.3).
"""

from __future__ import annotations

import enum


class FencingMode(enum.Enum):
    """Which bounds-enforcement scheme the patcher/server applies."""

    NONE = "none"
    BITWISE = "bitwise"
    MODULO = "modulo"
    CHECKING = "checking"

    @property
    def extra_params(self) -> tuple[str, ...]:
        """The extra kernel parameters this mode appends (in order)."""
        return _EXTRA_PARAMS[self]

    @property
    def requires_power_of_two(self) -> bool:
        return self is FencingMode.BITWISE

    @property
    def detects_violations(self) -> bool:
        """Only address *checking* can report an out-of-bounds access;
        fencing silently contains it (paper: checking is the debug
        mode, fencing the production mode)."""
        return self is FencingMode.CHECKING


_EXTRA_PARAMS = {
    FencingMode.NONE: (),
    FencingMode.BITWISE: ("guardian_base", "guardian_mask"),
    FencingMode.MODULO: (
        "guardian_base", "guardian_size", "guardian_magic"
    ),
    FencingMode.CHECKING: ("guardian_base", "guardian_end"),
}


# --------------------------------------------------------------------------
# Lane scheduling (concurrent dispatch, DESIGN.md §7)
# --------------------------------------------------------------------------


class LaneSchedulingPolicy:
    """Arbitration of the server's shared critical section.

    When concurrent dispatch is enabled every tenant accumulates host
    cycles on its own lane; host-side serialization points charge one
    shared critical section. The policy decides the *start time* of a
    lane's next critical-section entry, given the lane's own clock and
    the instant the section last became free. Implementations must be
    deterministic (pure functions of the accounting state) so modelled
    makespans are reproducible.
    """

    name = "base"

    def grant(self, lane, lanes, critical_clock: float) -> float:
        """Return the cycle instant at which ``lane`` may enter the
        shared critical section.

        ``lane`` carries ``clock`` (lane-local completion time) and
        ``critical`` (cycles this lane has already spent inside the
        section); ``lanes`` is the mapping of all live lanes;
        ``critical_clock`` is when the section last became free. The
        returned instant is clamped to ``max(lane.clock,
        critical_clock)`` by the caller, so a policy only ever *delays*
        entry, never reorders completed work.
        """
        raise NotImplementedError


class FifoLanePolicy(LaneSchedulingPolicy):
    """First-come-first-served: a lane enters the section as soon as
    both the lane and the section are free. A tenant that hammers
    serialization points can monopolise the section."""

    name = "fifo"

    def grant(self, lane, lanes, critical_clock: float) -> float:
        return max(lane.clock, critical_clock)


class FairShareLanePolicy(LaneSchedulingPolicy):
    """Virtual-time fair queuing over the shared critical section.

    Each lane's *virtual time* is its accumulated critical-section
    usage scaled by the number of live lanes: a lane that has consumed
    more than its time-proportional share is throttled until the
    section clock catches up with its normalized usage, leaving gaps
    its siblings can use. With symmetric tenants this degenerates to
    FIFO; with one spammy tenant it bounds that tenant's share at
    ~1/n without starving it.
    """

    name = "fair"

    def grant(self, lane, lanes, critical_clock: float) -> float:
        virtual = lane.critical * max(1, len(lanes))
        return max(lane.clock, critical_clock, virtual)


_LANE_POLICIES = {
    "fifo": FifoLanePolicy,
    "fair": FairShareLanePolicy,
    "fair-share": FairShareLanePolicy,
}


def lane_scheduling_policy(name: str) -> LaneSchedulingPolicy:
    """Resolve a ``ServerConfig.lane_policy`` string to a policy."""
    try:
        return _LANE_POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown lane policy {name!r}; expected one of "
            f"{sorted(_LANE_POLICIES)}"
        ) from None


# --------------------------------------------------------------------------
# Lane autoscaling (SLO control loop, DESIGN.md §13)
# --------------------------------------------------------------------------


class AutoscalePolicy:
    """Capacity decision at each control interval of the load driver.

    ``decide`` receives the observed window (per-class dicts with at
    least ``p99`` — modelled cycles, or ``None`` for an empty window —
    and ``slo`` — the class's p99 target), the current capacity, and
    the configured bounds. It returns the *new* capacity; the caller
    clamps it into ``[min_capacity, max_capacity]``. Implementations
    must be pure functions of their arguments so modelled runs stay
    reproducible.
    """

    name = "base"

    def decide(self, window: dict, capacity: int,
               min_capacity: int, max_capacity: int) -> int:
        raise NotImplementedError


class HoldAutoscaler(AutoscalePolicy):
    """Never changes capacity — the control loop's null hypothesis."""

    name = "hold"

    def decide(self, window: dict, capacity: int,
               min_capacity: int, max_capacity: int) -> int:
        return capacity


class P99BreachAutoscaler(AutoscalePolicy):
    """Widen on a p99 SLO breach, narrow when comfortably under.

    If any class's windowed p99 exceeds its SLO target, add one lane.
    If *every* class with traffic sits below ``narrow_ratio`` of its
    target (default: half), remove one. Empty windows (``p99`` is
    ``None``) hold — no data is not evidence of headroom.
    """

    name = "p99-breach"

    def __init__(self, narrow_ratio: float = 0.5):
        self.narrow_ratio = narrow_ratio

    def decide(self, window: dict, capacity: int,
               min_capacity: int, max_capacity: int) -> int:
        observed = [
            entry for entry in window.values()
            if entry.get("p99") is not None and entry.get("slo")
        ]
        if not observed:
            return capacity
        if any(entry["p99"] > entry["slo"] for entry in observed):
            return capacity + 1
        if all(entry["p99"] < self.narrow_ratio * entry["slo"]
               for entry in observed):
            return capacity - 1
        return capacity


_AUTOSCALE_POLICIES = {
    "hold": HoldAutoscaler,
    "p99": P99BreachAutoscaler,
    "p99-breach": P99BreachAutoscaler,
}


def autoscale_policy(name: str) -> AutoscalePolicy:
    """Resolve a ``LoadgenConfig.autoscale_policy`` string."""
    try:
        return _AUTOSCALE_POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown autoscale policy {name!r}; expected one of "
            f"{sorted(_AUTOSCALE_POLICIES)}"
        ) from None


# --------------------------------------------------------------------------
# Defragmentation (elastic memory engine, DESIGN.md §14)
# --------------------------------------------------------------------------


class DefragPolicy:
    """When the elastic engine should compact (DESIGN.md §14).

    ``should_defrag`` receives the allocator's fragmentation view — a
    dict with at least ``score`` (largest-carveable / unpartitioned
    bytes, 1.0 = one perfect block), ``largest_carveable``,
    ``bytes_unpartitioned`` and ``gaps`` — plus the partition size the
    caller is trying to place (0 for a background sweep). Returning
    True authorises relocations; the engine still only moves tenants
    whose relocation strictly lowers their base. Implementations must
    be pure functions of their arguments (deterministic replans).
    """

    name = "base"

    def should_defrag(self, view: dict, want_bytes: int = 0) -> bool:
        raise NotImplementedError


class NeverDefragPolicy(DefragPolicy):
    """Compaction's null hypothesis: never relocate anybody."""

    name = "never"

    def should_defrag(self, view: dict, want_bytes: int = 0) -> bool:
        return False


class ThresholdDefragPolicy(DefragPolicy):
    """Compact when free space is badly stranded.

    Triggers when the fragmentation score falls below ``threshold``
    (default 0.5: less than half the free bytes are reachable by the
    largest possible carve) — or, when the caller is trying to place a
    partition, whenever the free bytes could hold it but no single gap
    can (the precise moment compaction converts stranded capacity into
    an admission).
    """

    name = "threshold"

    def __init__(self, threshold: float = 0.5):
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(
                f"defrag threshold must be in [0, 1], got {threshold}"
            )
        self.threshold = threshold

    def should_defrag(self, view: dict, want_bytes: int = 0) -> bool:
        if (want_bytes
                and view["bytes_unpartitioned"] >= want_bytes
                and view["largest_carveable"] < want_bytes):
            return True
        return view["score"] < self.threshold


_DEFRAG_POLICIES = {
    "never": NeverDefragPolicy,
    "threshold": ThresholdDefragPolicy,
}


def defrag_policy(name: str, **kwargs) -> DefragPolicy:
    """Resolve a ``ServerConfig.defrag_policy`` string.

    ``kwargs`` forward to the policy constructor (e.g. ``threshold``
    for ``"threshold"``; the server passes none, so each policy runs
    at its constructor defaults).
    """
    try:
        cls = _DEFRAG_POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown defrag policy {name!r}; expected one of "
            f"{sorted(_DEFRAG_POLICIES)}"
        ) from None
    return cls(**kwargs)
