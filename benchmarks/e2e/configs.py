"""Pinned device shape and workload sizes for the end-to-end benchmark.

Everything here is literal on purpose: the benchmark must not move when
``repro.bench.configs`` or a rig's device helper is refactored.  The
geometry equals today's ``medium_geometry()``: 4 KiB pages, 64
pages/block, 64 blocks/die, 8 dies on 4 channels = 32 768 physical
pages, which exports 24 192 LBAs at ``op_ratio=0.25``.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.core.iosnap import IoSnapConfig
from repro.nand.geometry import NandConfig, NandGeometry

WORKLOADS = ("steady_overwrite", "snap_churn", "activate_read",
             "parallel_mapcache_mixed")

DEFAULT_SEED = 2014
#: Never used while a change is being written; later claims must also
#: hold on it (choosing-metrics, section 6.3).
HELD_OUT_SEED = 592825

#: ``--seconds`` when not given: what BENCHMARK.json's run_seconds asks for.
DEFAULT_SECONDS = 15.0


def nand_config() -> NandConfig:
    geometry = NandGeometry(page_size=4096, pages_per_block=64,
                            blocks_per_die=64, dies=8, channels=4)
    # store_data=True: every read in the benchmark is checked against
    # the driver-side model, so payloads must survive on the media.
    return NandConfig(geometry=geometry, store_data=True)


def device_config(workload: str) -> IoSnapConfig:
    common: Dict[str, Any] = dict(gc_low_watermark=4, gc_reserve_segments=2)
    if workload == "parallel_mapcache_mixed":
        # One user head per channel (4) and a forward map bounded to
        # 32 translation pages x 64 LBAs = 2 048 LBAs of reach, less
        # than the workload's hot set.
        return IoSnapConfig(parallel_heads=0, map_cache_pages=32,
                            map_span=64, **common)
    # The paper's device: one log head, forward map entirely in RAM.
    return IoSnapConfig(parallel_heads=1, **common)


# Sizes.  "full" is what BENCHMARK.json runs.  ``phase_s`` is the host
# time one timed phase took on the 2-core sandbox this was sized on; a
# run makes ceil(--seconds / phase_s) repeats, so the number of repeats
# (and with it every sim number) depends on the flag, never on how fast
# the machine of the day is.  Three ~6 s phases plus their set-up fit
# one 25-30 s driver run.  "smoke" keeps every code path and every
# check, makes as many repeats, and takes each workload under 3 s.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "steady_overwrite": {
        # preload 90 % of LBAs sequentially, then warm_ops random
        # overwrites so cleaning has levelled off before timing starts.
        "full": dict(phase_s=6.2, preload_share=0.90, warm_ops=16_000,
                     ops=64_000),
        "smoke": dict(preload_share=0.90, warm_ops=10_000,
                      ops=5_000),
    },
    "snap_churn": {
        # set-up: preload, then live_snapshots rounds that each end in a
        # create; timed: rounds of {round_writes overwrites, create,
        # delete the oldest}.
        "full": dict(phase_s=6.2, preload_share=0.40, live_snapshots=16,
                     round_writes=1_000, rounds=53),
        "smoke": dict(preload_share=0.40, live_snapshots=16,
                      round_writes=250, rounds=16),
    },
    "activate_read": {
        "full": dict(phase_s=6.2, preload_share=0.25, prebuilt_snapshots=6,
                     snapshot_gap_writes=1_024, rounds=28,
                     round_writes=512, snapshot_reads=256,
                     reader_think_ns=400_000,
                     limiter_work_us=200, limiter_sleep_ms=2),
        "smoke": dict(preload_share=0.25, prebuilt_snapshots=6,
                      snapshot_gap_writes=256, rounds=3,
                      round_writes=128, snapshot_reads=64,
                      reader_think_ns=400_000,
                      limiter_work_us=200, limiter_sleep_ms=2),
    },
    "parallel_mapcache_mixed": {
        # Short phases, many repeats.  The timed phase must end before
        # cleaning saturates: the product defers map writebacks while a
        # clean is in flight, so under sustained cleaning the bounded
        # map grows to full residency (hit rate 1.0, no misses) and the
        # layer this workload exists for goes idle.  16 000 ops from a
        # fresh preload stay in the bounded regime (hit rate ~0.5).
        "full": dict(phase_s=1.7, preload_share=0.50, streams=4,
                     ops_per_stream=4_000, read_share=0.50, write_share=0.45,
                     hot_share=0.20, hot_op_share=0.80),
        "smoke": dict(preload_share=0.50, streams=4,
                      ops_per_stream=1_200, read_share=0.50,
                      write_share=0.45, hot_share=0.20, hot_op_share=0.80),
    },
}
