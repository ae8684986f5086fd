"""Declared metric names: the one list BENCHMARK.json, the run and
``compare`` agree on, plus the map from layer metrics to the end-to-end
metrics they are expected to move (written down before measuring).

Every number is **host** (what Python spent simulating; noisy) or
**sim** (virtual time of the modelled device, or a count; repeats
exactly for a fixed seed).  The model is unvalidated against real
hardware, so no error figure is given anywhere.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float     # share of the base median it may worsen by
    kind: str        # "host" or "sim"


# Bounds cover what the driver sees: ten runs on ten different seeds.
# Host metrics move with the sandbox; sim metrics move with the seed
# (they repeat exactly on one seed, where `compare` shows any change).
# Each bound is at least three times the widest interquartile spread
# seen over three sets of ten seeds (README.md, "Steadiness").
END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25, "host"),
    EndToEnd("host_ops_per_s", "1/s", "higher", 0.10, "host"),
    EndToEnd("host_peak_rss_mb", "MB", "lower", 0.05, "host"),
    EndToEnd("sim_ops_per_s", "1/s", "higher", 0.05, "sim"),
    EndToEnd("sim_lat_mean_us", "us", "lower", 0.05, "sim"),
    EndToEnd("sim_lat_tail_us", "us", "lower", 0.20, "sim"),
    EndToEnd("write_amp", "ratio", "lower", 0.05, "sim"),
    EndToEnd("ftl_ram_kb", "KiB", "lower", 0.05, "sim"),
)

#: Printed and compared beside the bounded metrics, but not in
#: BENCHMARK.json.  The percentiles are quantised to a few steps of the
#: NAND timing model: p50 is the same constant on every seed (which the
#: driver's contract forbids for a reported time) and p99 jumps between
#: two steps from seed to seed (a spread no bound the contract allows
#: can hold); ``sim_lat_mean_us`` and ``sim_lat_tail_us`` stand in for
#: them there.  ``failed_ops_share`` is always 0, so a share of it is
#: undefined; the result line's ``attempted``/``failed`` carry it.
REPORTED_ONLY: Tuple[EndToEnd, ...] = (
    EndToEnd("sim_lat_p50_us", "us", "lower", 0.01, "sim"),
    EndToEnd("sim_lat_p99_us", "us", "lower", 0.01, "sim"),
    EndToEnd("failed_ops_share", "ratio", "lower", 0.0, "sim"),
)


def _layer(prefix: str, *specs: Tuple[str, str, str]) -> List[Tuple[str, str, str]]:
    return [(f"{prefix}.{name}", unit, better) for name, unit, better in specs]


_HOST = ("host_self_s", "s", "lower")

#: (name, unit, better).  Layer = module name under src/repro.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(
    _layer("sim.kernel", _HOST, ("events", "count", "lower"),
           ("events_per_op", "1/op", "lower"),
           ("host_ns_per_event", "ns", "lower"))
    + _layer("sim.resources", _HOST)
    + _layer("nand.device", _HOST, ("page_programs", "count", "lower"),
             ("page_reads", "count", "lower"),
             ("header_reads", "count", "lower"),
             ("block_erases", "count", "lower"),
             ("program.sim_self_ms", "ms", "lower"),
             ("program.sim_p99_us", "us", "lower"),
             ("read_page.sim_self_ms", "ms", "lower"),
             ("read_header.sim_self_ms", "ms", "lower"),
             ("erase.sim_self_ms", "ms", "lower"))
    + _layer("nand.queue", _HOST, ("submitted", "count", "lower"),
             ("depth_max", "count", "higher"),
             ("drain_batches", "count", "lower"))
    + _layer("nand.chip", _HOST)
    + _layer("ftl.vsl", _HOST, ("writes", "count", "lower"),
             ("reads", "count", "lower"), ("trims", "count", "lower"),
             ("readahead_hits", "count", "higher"),
             ("write_proc.sim_self_ms", "ms", "lower"),
             ("write_proc.sim_p99_us", "us", "lower"),
             ("read_proc.sim_self_ms", "ms", "lower"),
             ("read_proc.sim_p99_us", "us", "lower"),
             ("quiesce.sim_total_ms", "ms", "lower"))
    + _layer("ftl.log", _HOST, ("appends_user", "count", "lower"),
             ("appends_gc", "count", "lower"),
             ("appends_map", "count", "lower"),
             ("appends_other", "count", "lower"),
             ("segments_opened", "count", "lower"),
             ("stalls", "count", "lower"), ("stall_sim_ms", "ms", "lower"),
             ("stripe_balance", "ratio", "higher"),
             ("append.sim_self_ms", "ms", "lower"),
             ("append.sim_p99_us", "us", "lower"))
    + _layer("ftl.btree", _HOST)
    + _layer("ftl.map", ("memory_bytes", "bytes", "lower"))
    + _layer("ftl.mapcache", _HOST, ("hits", "count", "higher"),
             ("misses", "count", "lower"), ("hit_rate", "ratio", "higher"),
             ("evictions", "count", "lower"),
             ("writebacks", "count", "lower"),
             ("sync_faults", "count", "lower"),
             ("fault.sim_total_ms", "ms", "lower"))
    + _layer("ftl.cleaner", _HOST, ("segments_cleaned", "count", "lower"),
             ("pages_moved", "count", "lower"),
             ("clean.sim_total_ms", "ms", "lower"),
             ("merge.sim_total_ms", "ms", "lower"))
    + _layer("ftl.fsck", ("findings", "count", "lower"))
    + _layer("ftl.validity", _HOST, ("word_merge", "count", "lower"),
             ("word_count", "count", "lower"),
             ("word_iter", "count", "lower"),
             ("bit_fallback", "count", "lower"))
    + _layer("core.iosnap", _HOST, ("creates", "count", "lower"),
             ("deletes", "count", "lower"),
             ("create.sim_p50_us", "us", "lower"),
             ("create.sim_max_us", "us", "lower"),
             ("bitmap_cow_copies", "count", "lower"),
             ("bitmap_memory_bytes", "bytes", "lower"))
    + _layer("core.cow_bitmap", _HOST)
    + _layer("core.epoch_index", _HOST)
    + _layer("core.activation", _HOST, ("activations", "count", "lower"),
             ("cold", "count", "lower"), ("warm", "count", "higher"),
             ("sim_p50_ms", "ms", "lower"), ("sim_max_ms", "ms", "lower"),
             ("pages_scanned", "count", "lower"),
             ("segments_skipped", "count", "higher"),
             ("header_batches", "count", "lower"))
    + _layer("core.residue", ("cache_bytes", "bytes", "lower"))
    + _layer("checks", _HOST) + _layer("builtins", _HOST)
    + _layer("other", _HOST) + _layer("bench", _HOST)
    + _layer("trace", _HOST, ("overhead_ratio", "ratio", "lower"))
)

PER_LAYER_NAMES = tuple(name for name, _unit, _better in PER_LAYER)
PER_LAYER_UNITS = {name: unit for name, unit, _better in PER_LAYER}

#: Layer metrics that exist only in a traced run (cProfile or spans).
TRACED_ONLY = frozenset(
    name for name in PER_LAYER_NAMES
    if name.endswith(("host_self_s", ".sim_self_ms", ".sim_p99_us"))
    or name in ("sim.kernel.host_ns_per_event", "trace.overhead_ratio",
                "ftl.vsl.quiesce.sim_total_ms",
                "ftl.mapcache.fault.sim_total_ms"))

# Which end-to-end metric each layer metric should move, on which
# workload.  A change claims against this map; anything it moves that
# is not listed here is a finding, not a win.
INTERACTIONS: Tuple[Dict[str, object], ...] = (
    {"layer": ["sim.kernel.host_self_s", "sim.resources.host_self_s",
               "sim.kernel.events_per_op"],
     "moves": ["host_ops_per_s"],
     "on": ["steady_overwrite", "snap_churn", "activate_read",
            "parallel_mapcache_mixed"],
     "note": "most on activate_read; every sim metric and sim_digest "
             "must not move"},
    {"layer": ["nand.queue.host_self_s", "nand.queue.submitted",
               "nand.queue.drain_batches", "nand.device.host_self_s",
               "nand.chip.host_self_s", "checks.host_self_s"],
     "moves": ["host_ops_per_s"], "on": ["steady_overwrite"],
     "note": "the single-head write path's fixed overheads"},
    {"layer": ["nand.queue.depth_max", "ftl.log.stripe_balance"],
     "moves": ["sim_ops_per_s"], "on": ["parallel_mapcache_mixed"],
     "note": "only the four-head device overlaps programs"},
    {"layer": ["ftl.cleaner.pages_moved", "ftl.log.appends_gc",
               "ftl.log.stall_sim_ms"],
     "moves": ["write_amp", "sim_ops_per_s", "sim_lat_tail_us"],
     "on": ["steady_overwrite"],
     "note": "90 % full device; near zero on activate_read"},
    {"layer": ["core.iosnap.bitmap_cow_copies", "core.cow_bitmap.host_self_s",
               "ftl.cleaner.merge.sim_total_ms",
               "core.iosnap.create.sim_max_us",
               "ftl.vsl.quiesce.sim_total_ms",
               "core.iosnap.bitmap_memory_bytes"],
     "moves": ["host_ops_per_s", "sim_lat_tail_us", "ftl_ram_kb"],
     "on": ["snap_churn"],
     "note": "bitmap_cow_copies is exactly 0 on steady_overwrite"},
    {"layer": ["core.activation.pages_scanned",
               "core.activation.segments_skipped",
               "core.activation.header_batches", "nand.device.header_reads",
               "core.activation.sim_p50_ms", "core.residue.cache_bytes"],
     "moves": ["sim_ops_per_s", "host_ops_per_s", "sim_lat_tail_us",
               "ftl_ram_kb"],
     "on": ["activate_read"],
     "note": "the scan's share of channel/die time sets the paced "
             "reader's tail; the residue cache is RAM"},
    {"layer": ["ftl.mapcache.hit_rate", "ftl.mapcache.misses",
               "ftl.mapcache.writebacks", "ftl.log.appends_map",
               "ftl.mapcache.fault.sim_total_ms", "ftl.map.memory_bytes"],
     "moves": ["sim_ops_per_s", "write_amp", "sim_lat_tail_us", "ftl_ram_kb"],
     "on": ["parallel_mapcache_mixed"],
     "note": "all ftl.mapcache.* are exactly 0 on the other three"},
)

