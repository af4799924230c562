"""The ``ServerConfig`` surface is pinned: knob count, defaults, presets.

A new knob has to move these pins on purpose, and should move a gated
number too — a knob that moves none is deleted, not kept.
"""

import dataclasses

import pytest

from repro.core.server import ServerConfig

#: Every default, spelled out. Everything defaults off: the stock
#: server reproduces the paper's Table 5 / Fig. 7-13 numbers.
DEFAULTS = {
    "enable_patch_cache": False,
    "enable_launch_fast_path": False,
    "enable_ipc_batching": False,
    "charge_patch_cycles": False,
    "concurrency": False,
    "coalesce_transfer_checks": False,
    "telemetry": False,
    "enable_trace_specialization": False,
    "patch_cache_dir": None,
    "max_resident_tenants": None,
    "ipc_queue_limit": None,
    "ipc_shed_overflow": False,
    "elastic_memory": False,
}

HOTPATH = {"enable_patch_cache", "enable_launch_fast_path",
           "enable_ipc_batching"}

#: preset -> the knobs it switches on (everything else stays default).
PRESETS = {
    "hotpath": HOTPATH,
    "concurrent": HOTPATH | {"concurrency", "coalesce_transfer_checks"},
    "traced": HOTPATH | {"enable_trace_specialization"},
    "elastic": {"elastic_memory"},
}


def test_knob_count_is_pinned():
    assert len(dataclasses.fields(ServerConfig)) == 13


def test_defaults_are_pinned():
    assert dataclasses.asdict(ServerConfig()) == DEFAULTS


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_values_are_pinned(name):
    expected = dict(DEFAULTS, **{knob: True for knob in PRESETS[name]})
    assert dataclasses.asdict(getattr(ServerConfig, name)()) == expected


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_overrides_win(name):
    config = getattr(ServerConfig, name)(enable_patch_cache=False,
                                         max_resident_tenants=3)
    assert not config.enable_patch_cache
    assert config.max_resident_tenants == 3
