"""Ablation experiments for design choices and §7 extensions.

These go beyond the paper's evaluation: they quantify the future-work
items the paper sketches (selective activation scans, destaging to
archival storage) and a design choice it leaves open (segment-selection
policy).
"""

from __future__ import annotations

from repro.bench.configs import bench_nand, medium_geometry, small_geometry
from repro.bench.harness import ExperimentResult, Table, ratio
from repro.core.destage import ArchiveTarget, destage_snapshot
from repro.core.iosnap import IoSnapConfig, IoSnapDevice
from repro.sim import Kernel
from repro.sim.stats import NS_PER_MS
from repro.workloads import hotspot_writes, random_writes
from repro.workloads.runner import run_stream


def exp_ablation_selective_scan(snapshot_pages: int = 256,
                                churn_levels=(0, 2000, 8000),
                                ) -> ExperimentResult:
    """§7: skip segments with no path-epoch data during activation."""
    result = ExperimentResult(
        "ablation_selective_scan",
        "Activation scan time: full log scan vs selective (epoch summaries)")

    table = Table(["churn pages after snapshot", "full scan (ms)",
                   "selective scan (ms)", "speedup"])
    speedups = []
    for churn in churn_levels:
        times = {}
        for selective in (False, True):
            kernel = Kernel()
            device = IoSnapDevice.create(
                kernel, bench_nand(medium_geometry()),
                IoSnapConfig(selective_scan=selective))
            span = snapshot_pages
            run_stream(kernel, device, random_writes(snapshot_pages, span,
                                                     seed=1))
            device.snapshot_create("target")
            if churn:
                run_stream(kernel, device,
                           random_writes(churn, device.num_lbas - span,
                                         seed=2))
            view = device.snapshot_activate("target")
            times[selective] = \
                device.snap_metrics.activation_reports[-1]["scan_ns"]
            assert len(view.map) <= snapshot_pages
            view.deactivate()
        speedup = ratio(times[False], times[True])
        speedups.append((churn, speedup))
        table.add_row(churn, times[False] / NS_PER_MS,
                      times[True] / NS_PER_MS, speedup)
    result.add_table(table)

    result.check("selective scan never slower than a full scan",
                 all(s >= 0.99 for _c, s in speedups),
                 f"min speedup {min(s for _c, s in speedups):.2f}")
    result.check("speedup grows with unrelated churn on the log",
                 speedups[-1][1] > speedups[0][1] and speedups[-1][1] > 2,
                 f"{speedups[0][1]:.2f}x -> {speedups[-1][1]:.2f}x")
    result.data["speedups"] = speedups
    return result


def exp_ablation_gc_policy(writes: int = 12_000) -> ExperimentResult:
    """Greedy vs cost-benefit segment selection under a skewed workload."""
    result = ExperimentResult(
        "ablation_gc_policy",
        "Segment-selection policy: write amplification under hotspot writes")

    table = Table(["policy", "user writes", "GC page moves",
                   "write amplification", "erases"])
    wa = {}
    for policy in ("greedy", "cost_benefit"):
        kernel = Kernel()
        # Small device: the workload wraps around it several times, so
        # the cleaner is continuously under pressure.
        device = IoSnapDevice.create(
            kernel, bench_nand(small_geometry()),
            IoSnapConfig(gc_policy=policy, op_ratio=0.4))
        # Fill most of the space with cold data first.
        cold = int(device.num_lbas * 0.8)
        run_stream(kernel, device,
                   (op for op in random_writes(cold, cold, seed=1)))
        for op in hotspot_writes(writes, device.num_lbas, hot_fraction=0.05,
                                 hot_probability=0.95, seed=2):
            device.write(op.lba, None)
        moves = device.cleaner.pages_moved
        amplification = 1.0 + moves / writes
        wa[policy] = amplification
        table.add_row(policy, writes, moves, amplification,
                      device.nand.stats.block_erases)
    result.add_table(table)

    result.check("both policies sustain the workload", True)
    result.check("cost-benefit does not catastrophically regress greedy",
                 wa["cost_benefit"] < wa["greedy"] * 1.5,
                 f"greedy {wa['greedy']:.2f}, "
                 f"cost_benefit {wa['cost_benefit']:.2f}")
    result.data["write_amplification"] = wa
    return result


def exp_ablation_cold_segregation(rounds: int = 6) -> ExperimentResult:
    """§5.4.2: segregating cold (snapshot-only) data during cleaning.

    The harmful intermixing is *hot with cold*: when the cleaner mixes
    still-active data into the same output segments as snapshot-only
    blocks, every future clean of hot churn drags cold data along (and
    spreads old epochs over ever more segments, defeating selective
    scans).  We take a snapshot every round so epochs accumulate, then
    compare how many segments mix the active epoch with older ones.
    """
    result = ExperimentResult(
        "ablation_cold_segregation",
        "GC cold-data segregation: hot/cold intermixing and selective scans")

    table = Table(["segregation", "epoch purity",
                   "segments w/ oldest snapshot", "oldest-snap scan (ms)"])
    stats = {}
    for segregate in (False, True):
        kernel = Kernel()
        device = IoSnapDevice.create(
            kernel, bench_nand(small_geometry()),
            IoSnapConfig(gc_segregate_cold=segregate, selective_scan=True,
                         op_ratio=0.5))
        pages = device.log.segment_pages - 1
        span = 6 * pages
        # Each round: overwrite half the volume twice (the first copy
        # dies within the round, making segments reclaimable), then
        # snapshot.  Cleaning after each round must relocate a mix of
        # still-hot survivors and snapshot-retained cold blocks.
        for lba in range(span):
            device.write(lba, b"base")
        for round_no in range(rounds):
            for lba in range(0, span, 2):
                device.write(lba, bytes([round_no]))
            for lba in range(0, span, 2):
                device.write(lba, bytes([round_no]) * 2)
            device.snapshot_create(f"round-{round_no}")
            while True:
                candidate = device.cleaner.select_candidate()
                if candidate is None:
                    break
                device.cleaner.force_clean(candidate)

        summaries = [epochs for epochs in device._epoch_index.epochs.values()
                     if epochs]
        pure = sum(1 for epochs in summaries if len(epochs) == 1)
        purity = pure / len(summaries) if summaries else 1.0
        oldest = device.tree.resolve("round-0")
        with_oldest = sum(1 for epochs in summaries
                          if oldest.epoch in epochs)
        view = device.snapshot_activate("round-0")
        scan_ns = device.snap_metrics.activation_reports[-1]["scan_ns"]
        view.deactivate()
        stats[segregate] = {"purity": purity,
                            "with_oldest": with_oldest,
                            "scan_ns": scan_ns}
        table.add_row("on" if segregate else "off",
                      f"{purity:.0%} pure", with_oldest,
                      scan_ns / NS_PER_MS)
    result.add_table(table)

    # Honest finding: per-segment cleaning plus the dual append heads
    # already colocate epochs at this scale; explicit hot/cold
    # segregation is a refinement, not a prerequisite.  The checks
    # assert colocation holds and that segregation never makes any of
    # it worse.
    result.check("epochs largely colocated even without segregation "
                 "(>80% single-epoch segments)",
                 stats[False]["purity"] > 0.8,
                 f"purity {stats[False]['purity']:.0%}")
    result.check("segregation does not reduce epoch purity",
                 stats[True]["purity"] >= stats[False]["purity"] - 0.05,
                 f"{stats[False]['purity']:.0%} -> "
                 f"{stats[True]['purity']:.0%}")
    result.check("oldest snapshot's data not spread over more segments",
                 stats[True]["with_oldest"] <= stats[False]["with_oldest"],
                 f"{stats[False]['with_oldest']} -> "
                 f"{stats[True]['with_oldest']}")
    result.check("selective scan of the oldest snapshot not slower",
                 stats[True]["scan_ns"] <= stats[False]["scan_ns"] * 1.1,
                 f"{stats[False]['scan_ns'] / NS_PER_MS:.1f} -> "
                 f"{stats[True]['scan_ns'] / NS_PER_MS:.1f} ms")
    result.data["stats"] = {str(k): v for k, v in stats.items()}
    return result


def exp_ablation_destage(snapshot_pages: int = 512) -> ExperimentResult:
    """§7: destage a snapshot to archival storage and reclaim the flash."""
    result = ExperimentResult(
        "ablation_destage",
        "Destaging snapshots to archival storage frees flash capacity")

    kernel = Kernel()
    device = IoSnapDevice.create(kernel, bench_nand(medium_geometry()),
                                 IoSnapConfig(selective_scan=True))
    span = snapshot_pages
    run_stream(kernel, device, random_writes(snapshot_pages, span, seed=1))
    device.snapshot_create("cold-backup")
    # Diverge fully: the snapshot now holds `span` exclusive blocks.
    run_stream(kernel, device, random_writes(2 * span, span, seed=2))

    def retained():
        snap = device.tree.resolve("cold-backup")
        bitmap = device._epoch_bitmaps[snap.epoch]
        return sum(1 for _ in bitmap.iter_set_in_range(
            0, device.nand.geometry.total_pages))

    before = retained()
    archive = ArchiveTarget(kernel, write_mb_per_s=150.0)
    report = destage_snapshot(device, "cold-backup", archive,
                              delete_after=True)

    table = Table(["metric", "value"])
    table.add_row("blocks archived", report["blocks"])
    table.add_row("bytes archived", report["bytes"])
    table.add_row("destage duration (ms)", report["duration_ns"] / NS_PER_MS)
    table.add_row("flash blocks retained before", before)
    table.add_row("snapshots on flash after", len(device.snapshots()))
    result.add_table(table)

    result.check("every snapshot block reached the archive",
                 report["blocks"] == len(archive._images["cold-backup"]),
                 f"{report['blocks']} blocks")
    result.check("snapshot removed from flash after destage",
                 len(device.snapshots()) == 0)
    result.check("archive verifies (manifest complete)",
                 archive.manifest("cold-backup").block_count
                 == report["blocks"])
    result.data["report"] = report
    return result
