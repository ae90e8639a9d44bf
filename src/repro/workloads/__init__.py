"""Workload generation: key distributions and load drivers."""

from .driver import ClosedLoopDriver, WorkloadConfig
from .open_loop import OpenLoopConfig, OpenLoopDriver
from .sharded_open_loop import LiveOpenLoopConfig, ShardedOpenLoopDriver
from .ycsb import (
    YCSB_PRESETS,
    LatestGenerator,
    YcsbPreset,
    ycsb_preset,
)
from .generators import (
    HotspotGenerator,
    KeyGenerator,
    UniformGenerator,
    ZipfianGenerator,
    zipf_harmonic,
    zipf_tail_mass,
)

__all__ = [
    "YcsbPreset",
    "YCSB_PRESETS",
    "ycsb_preset",
    "LatestGenerator",
    "ClosedLoopDriver",
    "WorkloadConfig",
    "OpenLoopDriver",
    "OpenLoopConfig",
    "LiveOpenLoopConfig",
    "ShardedOpenLoopDriver",
    "KeyGenerator",
    "UniformGenerator",
    "ZipfianGenerator",
    "HotspotGenerator",
    "zipf_harmonic",
    "zipf_tail_mass",
]
