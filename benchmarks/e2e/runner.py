"""Run one workload in this process: repeats, checks, optional trace.

A *repeat* is a fresh device taken through set-up (host-timed), the
timed phase (host-timed, tracing off), the counter/digest readout and
the untimed verification.  Repeat r draws its op stream from (seed, r);
every end-to-end metric is the median over the repeats, so a run
averages over op streams as well as over host noise, and is still a
pure function of (seed, number of repeats) on the sim side.  A traced
repeat, when asked for, comes last, replays repeat 0, must reproduce
its digest, and supplies the per-layer numbers.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from benchmarks.e2e import configs, measure, metrics, trace, workloads

OUT_DIR = Path(__file__).resolve().parent / "out"

#: The driver loop may cost at most this share of the traced host time.
BENCH_SELF_SHARE_MAX = 0.05


class Repeat:
    """One device's trip through set-up and the timed phase."""

    def __init__(self, name: str, seed: int, index: int,
                 sizes: Dict[str, Any], traced: bool = False,
                 break_model: bool = False) -> None:
        gc.collect()
        started = time.perf_counter()
        self.index = index
        self.workload = workloads.BY_NAME[name](seed, index, sizes,
                                                break_model)
        self.workload.setup()
        self.setup_s = time.perf_counter() - started

        workload, dev = self.workload, self.workload.dev
        creates_before = len(dev.snap_metrics.create_latencies_ns)
        reports_before = len(dev.snap_metrics.activation_reports)
        tracer = trace.Tracer(dev) if traced else None
        profile = cProfile.Profile() if traced else None
        workload.start_timed()
        before = measure.read_counters(dev)
        gc.collect()
        started = time.perf_counter()
        if profile is not None:
            profile.enable()
        workload.run_timed()
        if profile is not None:
            profile.disable()
        self.timed_s = time.perf_counter() - started
        self.trace = tracer.finish() if tracer is not None else None
        after = measure.read_counters(dev)

        self.scripted_ops = workload.ops
        self.digest = measure.sim_digest(dev)
        self.sim = measure.sim_end_to_end(workload, before, after)
        self.counts = measure.layer_counts(
            dev, before, after, workload.ops,
            dev.snap_metrics.create_latencies_ns[creates_before:],
            [report["total_ns"] for report in
             dev.snap_metrics.activation_reports[reports_before:]],
            workload.ram_samples)
        self.host_self = trace.host_self_by_layer(profile) \
            if profile is not None else None


def _zero_expectations(name: str, counts: Dict[str, float]) -> List[str]:
    """A workload that stopped exercising its layer fails, not just reports."""
    problems = []

    def expect(condition: bool, text: str) -> None:
        if not condition:
            problems.append(f"{name}: expected {text}")

    expect(counts["ftl.validity.bit_fallback"] == 0,
           "ftl.validity.bit_fallback == 0")
    if name == "steady_overwrite":
        for key in ("core.iosnap.bitmap_cow_copies",
                    "core.activation.activations"):
            expect(counts[key] == 0, f"{key} == 0")
    if name == "parallel_mapcache_mixed":
        expect(counts["ftl.mapcache.misses"] > 0, "ftl.mapcache.misses > 0")
        expect(counts["ftl.log.stripe_balance"] >= 0.5,
               "ftl.log.stripe_balance >= 0.5")
    else:
        for key in counts:
            if key.startswith("ftl.mapcache."):
                expect(counts[key] == 0, f"{key} == 0")
    return problems


def _per_layer(traced: Repeat, untraced_timed_s: float) -> Dict[str, float]:
    host = traced.host_self
    values = dict(traced.counts)
    values.update(traced.trace["sim_metrics"])
    for layer, seconds in host.items():
        values[f"{layer}.host_self_s"] = seconds
    events = values["sim.kernel.events"]
    values["sim.kernel.host_ns_per_event"] = \
        host["sim.kernel"] / events * 1e9 if events else 0.0
    values["trace.overhead_ratio"] = traced.timed_s / untraced_timed_s
    return {name: values[name] for name in metrics.PER_LAYER_NAMES}


def _write_trace_file(name: str, seed: int, traced: Repeat,
                      per_layer: Dict[str, float]) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{name}.json"
    payload = {
        "workload": name, "seed": seed, "sim_digest": traced.digest,
        "per_layer": {metric: {"value": value,
                               "unit": metrics.PER_LAYER_UNITS[metric]}
                      for metric, value in per_layer.items()},
        "span_table": traced.trace["span_table"],
        "spans_total": traced.trace["spans_total"],
        "spans_written": len(traced.trace["spans"]),
        "spans": traced.trace["spans"],
    }
    path.write_text(json.dumps(payload) + "\n")
    return path


def plan_repeats(name: str, repeats: Optional[int], seconds: float,
                 traced: bool, smoke: bool = False) -> int:
    """Untraced repeats: ``--repeats``, else enough nominal phases to
    cover ``--seconds`` (one if the run is traced, which spends that
    time tracing, or a smoke run)."""
    if repeats is not None:
        return repeats
    if traced or smoke:
        return 1
    return max(1, math.ceil(seconds / configs.SIZES[name]["full"]["phase_s"]))


def _finish(repeat: Repeat, last: bool, problems: List[str],
            findings: List[str]) -> Tuple[int, int]:
    """Untimed verification; returns (attempted, failed), frees the device.

    Every repeat gets fsck and a read-back of the active volume; the
    last one also activates and reads back every live snapshot (each a
    full log scan, which sixteen times per repeat would cost more than
    the set-up being measured).
    """
    workload = repeat.workload
    found = workload.verify(snapshots=last)
    findings += [f"repeat {repeat.index}: {text}" for text in found]
    repeat.counts["ftl.fsck.findings"] = len(found)
    problems += _zero_expectations(workload.name, repeat.counts)
    del repeat.workload
    return (workload.ops + workload.load_ops + workload.verify_ops,
            workload.failed)


def run_workload(name: str, seed: int, smoke: bool = False,
                 repeats: Optional[int] = None,
                 seconds: float = configs.DEFAULT_SECONDS,
                 traced: bool = False,
                 break_model: bool = False) -> Dict[str, Any]:
    """Run ``name`` and return its result record (see README.md)."""
    sizes = configs.SIZES[name]["smoke" if smoke else "full"]
    calib = measure.calibrate()
    problems: List[str] = []
    findings: List[str] = []
    attempted = failed = 0
    done: List[Repeat] = []
    planned = plan_repeats(name, repeats, seconds, traced, smoke)
    for index in range(planned):
        repeat = Repeat(name, seed, index, sizes, break_model=break_model)
        ops, bad = _finish(repeat, index == planned - 1 and not traced,
                           problems, findings)
        attempted, failed = attempted + ops, failed + bad
        done.append(repeat)
    first = done[0]
    if any(r.scripted_ops != first.scripted_ops for r in done):
        problems.append(f"{name}: the scripted-op count varies between "
                        "repeats")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def entry(samples: List[float], unit: str) -> Dict[str, Any]:
        return {"value": statistics.median(samples), "unit": unit,
                "min": min(samples), "max": max(samples), "n": len(samples)}

    # The first repeat of a process grows its heap: a few thousand page
    # faults that later repeats, reusing the freed arenas, do not pay
    # (5-12 % of a timed phase in the sandbox this was written on).
    # With three or more repeats it is warm-up for the host metrics;
    # its sim metrics count like any other repeat's.
    warm = done[1:] if len(done) >= 3 else done
    end_to_end = {
        "setup_s": entry([r.setup_s for r in warm], "s"),
        "host_ops_per_s": entry(
            [r.scripted_ops / r.timed_s for r in warm], "1/s"),
        "host_peak_rss_mb": entry([peak_rss_mb], "MB"),
    }
    for metric in metrics.END_TO_END + metrics.REPORTED_ONLY:
        if metric.name in first.sim:
            end_to_end[metric.name] = entry(
                [r.sim[metric.name] for r in done], metric.unit)

    result: Dict[str, Any] = {
        "workload": name, "seed": seed, "smoke": smoke,
        "scripted_ops": first.scripted_ops, "repeats": len(done),
        "setup_host_s": [r.setup_s for r in done],
        "timed_host_s": [r.timed_s for r in done],
        "latency_samples": first.sim["sim_lat_samples"],
        "calib_loops_per_s": calib,
        "repeat_digests": [r.digest for r in done],
        "sim_digest": hashlib.sha256(
            "".join(r.digest for r in done).encode()).hexdigest(),
        "end_to_end": end_to_end,
        "counts": {key: value for key, value in first.counts.items()
                   if key not in metrics.TRACED_ONLY},
    }

    if traced:
        # Same op stream as repeat 0, so everything sim must match it.
        traced_repeat = Repeat(name, seed, 0, sizes, traced=True,
                               break_model=break_model)
        ops, bad = _finish(traced_repeat, True, problems, findings)
        attempted, failed = attempted + ops, failed + bad
        if traced_repeat.digest != first.digest:
            problems.append(f"{name}: traced sim_digest differs from "
                            "the untraced one")
        per_layer = _per_layer(traced_repeat, first.timed_s)
        bench_share = traced_repeat.host_self["bench"] / \
            sum(traced_repeat.host_self.values())
        if bench_share >= BENCH_SELF_SHARE_MAX:
            problems.append(f"{name}: the driver itself took "
                            f"{bench_share:.1%} of the traced host time")
        result["per_layer"] = per_layer
        result["trace_file"] = os.path.relpath(
            _write_trace_file(name, seed, traced_repeat, per_layer))

    end_to_end["failed_ops_share"] = entry([failed / attempted], "ratio")
    if failed:
        problems.append(f"{name}: {failed} of {attempted} ops failed or "
                        "disagreed with the driver's model")
    result.update(attempted=attempted, failed=failed,
                  problems=list(dict.fromkeys(problems)),
                  fsck_findings=findings, correct=not problems)
    return result
