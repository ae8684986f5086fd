"""Shared device configurations for experiments.

The paper ran on a 1.2 TB device; we scale geometry down so each bench
finishes in seconds of wall-clock while preserving the ratios that
matter (data-per-snapshot vs device size, segments per device, pages
per segment).  Payload storage is off for benches — headers (which all
scans read) are always kept.
"""

from __future__ import annotations

from repro.core.iosnap import IoSnapConfig
from repro.ftl.vsl import FtlConfig
from repro.nand.geometry import NandConfig, NandGeometry


def small_geometry(page_size: int = 4096) -> NandGeometry:
    """~16 MiB at 4 KiB pages: quick functional benches."""
    return NandGeometry(page_size=page_size, pages_per_block=32,
                        blocks_per_die=32, dies=4, channels=2)


def medium_geometry(page_size: int = 4096) -> NandGeometry:
    """~128 MiB at 4 KiB pages: the default experiment substrate."""
    return NandGeometry(page_size=page_size, pages_per_block=64,
                        blocks_per_die=64, dies=8, channels=4)


def large_geometry(page_size: int = 4096) -> NandGeometry:
    """~256 MiB at 4 KiB pages: the baseline-comparison substrate.

    The Btrfs-like comparator cannot reclaim snapshot-pinned space, so
    the §6.4 experiments need more headroom than the FTL benches.
    """
    return NandGeometry(page_size=page_size, pages_per_block=64,
                        blocks_per_die=128, dies=8, channels=4)


def bench_nand(geometry: NandGeometry) -> NandConfig:
    return NandConfig(geometry=geometry, store_data=False)


def bench_ftl_config(**overrides) -> FtlConfig:
    # The figure-reproduction experiments model the paper's device — a
    # single log head — and their setup code fills specific segments
    # with specific LBAs, so they pin parallel_heads=1.  The channel
    # sweep in tests/ftl/test_parallel_log.py overrides this to measure
    # the multi-queue data path.
    defaults = dict(gc_low_watermark=4, gc_reserve_segments=2,
                    parallel_heads=1)
    defaults.update(overrides)
    return FtlConfig(**defaults)


def bench_iosnap_config(**overrides) -> IoSnapConfig:
    defaults = dict(gc_low_watermark=4, gc_reserve_segments=2,
                    parallel_heads=1)
    defaults.update(overrides)
    return IoSnapConfig(**defaults)
