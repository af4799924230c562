"""Bounds enforcement: which sandboxing scheme the patcher/server apply.

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
