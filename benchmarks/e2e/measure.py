"""Read the device from outside: counters, derived metrics, the digest.

Counts are deltas over the timed phase of existing public counters
(``nand.stats``, ``nand.queues.snapshot()``, ``log.stats``, ``metrics``,
``snap_metrics``, ``cleaner.*``, ``map_info()``, ``info()``,
``ftl.validity.PERF_COUNTERS``).  The one private read is
``Kernel._seq`` — the number of work items the kernel has scheduled —
taken read-only as the event count until the kernel exposes it.

Everything here is **sim** (virtual ns of the modelled device, or a
count): it repeats exactly for a fixed seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from typing import Any, Dict, List, Sequence

from repro.ftl.validity import PERF_COUNTERS

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000


def percentile(ordered: Sequence[int], pct: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    if not ordered:
        return 0.0
    rank = math.ceil(pct / 100.0 * len(ordered)) - 1
    return float(ordered[max(0, rank)])


def calibrate() -> float:
    """Loops per second of a fixed pure-Python loop (informational).

    Lets trajectories from different machines be normalised; no metric
    is divided by it here.
    """
    loops = 1_000_000
    started = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc += i & 7
    return loops / (time.perf_counter() - started)


def _appends_by_source(per_head: Dict[str, int]) -> Dict[str, int]:
    """Dayan & Bonnet's split: user / GC / translation (map) / other."""
    out = {"user": 0, "gc": 0, "map": 0, "other": 0}
    for head, count in per_head.items():
        base = head.split(".", 1)[0].split("-", 1)[0]
        out[base if base in out else "other"] += count
    return out


def read_counters(dev) -> Dict[str, Any]:
    """Cumulative counters; ``delta`` two of these around the timed phase."""
    queues = dev.nand.queues.snapshot()
    log = dev.log.stats
    sources = _appends_by_source(log.per_head_appends)
    mapstats = dev.map_info()
    activation = dev.info()["snapshots"]["activation"]
    cleaner_runs = dev.metrics.cleaner_runs
    counts: Dict[str, Any] = {
        "sim.now_ns": dev.kernel.now,
        "sim.kernel.events": dev.kernel._seq,
        "nand.device.page_programs": dev.nand.stats.page_programs,
        "nand.device.page_reads": dev.nand.stats.page_reads,
        "nand.device.header_reads": dev.nand.stats.header_reads,
        "nand.device.block_erases": dev.nand.stats.block_erases,
        "nand.queue.submitted": sum(queues["submitted"]),
        "nand.queue.drain_batches": sum(queues["drain_batches"]),
        "ftl.vsl.writes": dev.metrics.writes,
        "ftl.vsl.reads": dev.metrics.reads,
        "ftl.vsl.trims": dev.metrics.trims,
        "ftl.vsl.readahead_hits": dev.metrics.readahead_hits,
        "ftl.log.appends_user": sources["user"],
        "ftl.log.appends_gc": sources["gc"],
        "ftl.log.appends_map": sources["map"],
        "ftl.log.appends_other": sources["other"],
        "ftl.log.segments_opened": log.segments_opened,
        "ftl.log.stalls": log.stalls,
        "ftl.log.stall_ns": log.stall_ns,
        "ftl.cleaner.segments_cleaned": dev.cleaner.segments_cleaned,
        "ftl.cleaner.pages_moved": dev.cleaner.pages_moved,
        "ftl.cleaner.clean_ns": sum(r["total_ns"] for r in cleaner_runs),
        "ftl.cleaner.merge_ns": sum(r["merge_ns"] for r in cleaner_runs),
        "core.iosnap.creates": dev.snap_metrics.creates,
        "core.iosnap.deletes": dev.snap_metrics.deletes,
        "core.iosnap.bitmap_cow_copies": dev.metrics.bitmap_cow_copies,
        "core.activation.activations": dev.snap_metrics.activations,
        "core.activation.cold": activation["misses"],
        "core.activation.warm": activation["hits"],
        "core.activation.pages_scanned": activation["pages_scanned"],
        "core.activation.segments_skipped": activation["segments_skipped"],
        "core.activation.header_batches": activation["header_batches"],
    }
    for name in ("hits", "misses", "evictions", "writebacks", "sync_faults"):
        counts[f"ftl.mapcache.{name}"] = mapstats.get(name, 0)
    for name, value in PERF_COUNTERS.items():
        counts[f"ftl.validity.{name}"] = value
    for head in dev.log.user_head_names():
        counts[f"head:{head}"] = log.per_head_appends.get(head, 0)
    return counts


def layer_counts(dev, before: Dict[str, Any], after: Dict[str, Any],
                 scripted_ops: int, create_lat_ns: List[int],
                 activation_ns: List[int],
                 ram_samples: List[Dict[str, int]]) -> Dict[str, float]:
    """Every per-layer metric that needs no tracing (counts and sim)."""
    delta = {key: after[key] - before[key] for key in after}
    out: Dict[str, float] = {
        key: delta[key] for key in delta
        if not key.startswith(("head:", "sim.now"))
        and not key.endswith("_ns")}
    out["sim.kernel.events_per_op"] = delta["sim.kernel.events"] / scripted_ops
    # Since device creation: the queues publish no resettable maximum.
    out["nand.queue.depth_max"] = max(dev.nand.queues.snapshot()["depth_max"])
    out["ftl.log.stall_sim_ms"] = delta["ftl.log.stall_ns"] / NS_PER_MS
    heads = [delta[key] for key in delta if key.startswith("head:")]
    out["ftl.log.stripe_balance"] = \
        min(heads) / max(heads) if max(heads) > 0 else 1.0
    lookups = delta["ftl.mapcache.hits"] + delta["ftl.mapcache.misses"]
    out["ftl.mapcache.hit_rate"] = \
        delta["ftl.mapcache.hits"] / lookups if lookups else 0.0
    out["ftl.cleaner.clean.sim_total_ms"] = \
        delta["ftl.cleaner.clean_ns"] / NS_PER_MS
    out["ftl.cleaner.merge.sim_total_ms"] = \
        delta["ftl.cleaner.merge_ns"] / NS_PER_MS
    creates = sorted(create_lat_ns)
    out["core.iosnap.create.sim_p50_us"] = percentile(creates, 50) / NS_PER_US
    out["core.iosnap.create.sim_max_us"] = \
        (creates[-1] if creates else 0) / NS_PER_US
    activations = sorted(activation_ns)
    out["core.activation.sim_p50_ms"] = \
        percentile(activations, 50) / NS_PER_MS
    out["core.activation.sim_max_ms"] = \
        (activations[-1] if activations else 0) / NS_PER_MS
    out["ftl.map.memory_bytes"] = max(s["map"] for s in ram_samples)
    out["core.iosnap.bitmap_memory_bytes"] = \
        max(s["bitmaps"] for s in ram_samples)
    out["core.residue.cache_bytes"] = max(s["residues"] for s in ram_samples)
    return out


def sim_end_to_end(workload, before: Dict[str, Any],
                   after: Dict[str, Any]) -> Dict[str, float]:
    """The modelled device's side of the end-to-end metrics."""
    sim_s = (after["sim.now_ns"] - before["sim.now_ns"]) / NS_PER_S
    programs = (after["nand.device.page_programs"]
                - before["nand.device.page_programs"])
    writes = after["ftl.vsl.writes"] - before["ftl.vsl.writes"]
    lat = sorted(workload.foreground_latencies())
    # Slowest 5 %.  The percentiles themselves are quantised to a few
    # NAND-timing steps and jump between them from seed to seed; the
    # mean of the slowest 1 % hangs on a few dozen multi-ms stalls and
    # swung 2-9 %; over the slowest 5 % it holds to under 4 %.
    tail = lat[math.ceil(0.95 * len(lat)) - 1:]
    ram = max(sum(sample.values()) for sample in workload.ram_samples)
    return {
        "sim_ops_per_s": workload.ops / sim_s,
        "sim_lat_mean_us": sum(lat) / len(lat) / NS_PER_US,
        "sim_lat_tail_us": sum(tail) / len(tail) / NS_PER_US,
        "sim_lat_p50_us": percentile(lat, 50) / NS_PER_US,
        "sim_lat_p99_us": percentile(lat, 99) / NS_PER_US,
        "sim_lat_samples": len(lat),
        "write_amp": programs / writes,
        "ftl_ram_kb": ram / 1024,
    }


def sim_digest(dev) -> str:
    """SHA-256 over everything a simulator-only speed-up must not move."""
    state = {
        "now": dev.kernel.now,
        "device_stats": vars(dev.nand.stats),
        "per_head_appends": dev.log.stats.per_head_appends,
        "cleaner": [dev.cleaner.segments_cleaned, dev.cleaner.pages_moved,
                    dev.cleaner.notes_moved],
        "map": list(dev.map.items()),
        "snapshots": [[s.snap_id, s.name, s.epoch, s.created_seq, s.deleted]
                      for s in dev.snapshots(include_deleted=True)],
    }
    blob = json.dumps(state, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()
