"""The activation acceleration layer: full scan == selective scan ==
delta rescan, plus the warm-activation residue cache's bookkeeping."""

import random

import pytest

from repro.bench.configs import bench_iosnap_config, bench_nand, medium_geometry
from repro.core.activation import _scan_for_path
from repro.core.iosnap import IoSnapDevice
from repro.ftl.ratelimit import NullLimiter
from repro.sim import Kernel
from repro.workloads import random_writes, run_stream

from tests.conftest import make_iosnap


def _fold(device, snap, residue=None, selective=None):
    """Run one winner fold (post-trim) outside the activation plumbing."""
    path = frozenset(device.tree.path_epochs(snap.epoch))
    previous = device.config.selective_scan
    if selective is not None:
        device.config.selective_scan = selective
    move_log = device.begin_scan()
    try:
        winners, trims, _casualties = device.kernel.run_process(
            _scan_for_path(device, path, NullLimiter(), residue=residue),
            name="test-fold")
    finally:
        device.end_scan(move_log)
        device.config.selective_scan = previous
    for lba, trim_seq in trims.items():
        entry = winners.get(lba)
        if entry is not None and entry[0] < trim_seq:
            del winners[lba]
    return winners


class TestScanEquivalence:
    """(full scan) == (selective scan) == (delta rescan from residue)."""

    @pytest.mark.parametrize("seed", [11, 23, 47])
    def test_randomized_workload_with_cleaner_churn(self, seed):
        from repro.sim import Kernel

        rng = random.Random(seed)
        device = make_iosnap(Kernel())
        names = []
        for index in range(4):
            for _ in range(rng.randrange(40, 90)):
                device.write(rng.randrange(200),
                             bytes([rng.randrange(256)]))
            if rng.random() < 0.5:
                device.trim(rng.randrange(200))
            names.append(device.snapshot_create(f"s{index}").name)

        # Seed a residue for every snapshot, then churn hard enough to
        # force cleaning so residues live through copy-forwards/erases.
        for name in names:
            device.snapshot_activate(name).deactivate()
        for i in range(2500):
            device.write(rng.randrange(250), bytes([i % 256]))
        assert device.cleaner.segments_cleaned > 0

        for name in names:
            snap = device.tree.resolve(name)
            full = _fold(device, snap, selective=False)
            selective = _fold(device, snap, selective=True)
            assert selective == full, f"selective != full for {name}"
            path = frozenset(device.tree.path_epochs(snap.epoch))
            residue = device._residues.take(snap.snap_id, path)
            if residue is None:
                # Invalidated by the churn (erase backstop) — that is a
                # legal outcome, the cache just degrades to selective.
                continue
            delta = _fold(device, snap, residue=residue, selective=True)
            assert delta == full, f"delta != full for {name}"

    def test_delta_survives_trim_heavy_history(self):
        from repro.sim import Kernel

        device = make_iosnap(Kernel())
        for lba in range(80):
            device.write(lba, b"v1")
        for lba in range(0, 80, 2):
            device.trim(lba)
        snap = device.snapshot_create("s")
        device.snapshot_activate("s").deactivate()
        for i in range(2500):
            device.write(i % 200, bytes([i % 256]))
        full = _fold(device, snap, selective=False)
        path = frozenset(device.tree.path_epochs(snap.epoch))
        residue = device._residues.take(snap.snap_id, path)
        if residue is not None:
            assert _fold(device, snap, residue=residue) == full
        assert _fold(device, snap, selective=True) == full


class TestWarmActivation:
    def test_reactivation_rides_the_residue(self, iosnap):
        data = {}
        for lba in range(60):
            payload = f"v-{lba}".encode()
            iosnap.write(lba, payload)
            data[lba] = payload
        iosnap.snapshot_create("s")
        for lba in range(200):
            iosnap.write(lba % 150, b"later")

        iosnap.snapshot_activate("s").deactivate()
        cold = iosnap.snap_metrics.activation_reports[-1]
        assert cold["mode"] == "selective"

        view = iosnap.snapshot_activate("s")
        warm = iosnap.snap_metrics.activation_reports[-1]
        assert warm["mode"] == "delta"
        assert warm["pages_scanned"] < cold["pages_scanned"]
        assert warm["segments_skipped"] > 0
        assert warm["entries"] == cold["entries"]
        for lba, payload in data.items():
            assert view.read(lba)[:len(payload)] == payload
        view.deactivate()
        counters = iosnap.activation_counters.as_dict()
        assert counters["hits"] == 1
        assert counters["misses"] >= 1

    def test_selective_scan_skips_unrelated_segments(self, iosnap):
        iosnap.write(0, b"early")
        iosnap.snapshot_create("early")
        for i in range(1000):
            iosnap.write(i % 300, b"deep-log")
        iosnap.snapshot_activate("early").deactivate()
        report = iosnap.snap_metrics.activation_reports[-1]
        assert report["mode"] == "selective"
        assert report["segments_skipped"] > 0

    def test_full_mode_reported_when_disabled(self, kernel):
        device = make_iosnap(kernel, selective_scan=False)
        device.write(0, b"x")
        device.snapshot_create("s")
        device._residues.clear()
        device.snapshot_activate("s").deactivate()
        assert device.snap_metrics.activation_reports[-1]["mode"] == "full"

    def test_disabled_cache_stays_cold(self, kernel):
        device = make_iosnap(kernel, residue_cache_entries=0)
        device.write(0, b"x")
        device.snapshot_create("s")
        device.snapshot_activate("s").deactivate()
        assert len(device._residues) == 0
        device.snapshot_activate("s").deactivate()
        report = device.snap_metrics.activation_reports[-1]
        assert report["mode"] == "selective"
        counters = device.activation_counters.as_dict()
        assert counters["hits"] == 0 and counters["misses"] == 0


class TestSpeedFloors:
    """Virtual-time floors on the fig8-shaped device: an early snapshot
    under a deep pile of unrelated log, activated in each mode."""

    # Far below what the fast paths deliver here (~3x cold, ~100x warm)
    # so only a scan that stopped skipping trips them.
    WARM_SPEEDUP_FLOOR = 5.0
    COLD_SPEEDUP_FLOOR = 2.0

    @staticmethod
    def _activate(device, name):
        device.snapshot_activate(name).deactivate()
        return device.snap_metrics.activation_reports[-1]

    def test_selective_and_delta_beat_the_full_scan(self):
        kernel = Kernel()
        device = IoSnapDevice.create(kernel, bench_nand(medium_geometry()),
                                     bench_iosnap_config())
        for index in range(4):
            run_stream(kernel, device,
                       random_writes(256, 1024, seed=31 + index))
            device.snapshot_create(f"snap-{index + 1}")

        device.config.selective_scan = False
        device._residues.clear()
        full = self._activate(device, "snap-1")
        device.config.selective_scan = True
        device._residues.clear()
        selective = self._activate(device, "snap-1")
        # Dirty the log tail so the warm path folds a real delta.
        run_stream(kernel, device, random_writes(32, device.num_lbas,
                                                 seed=97))
        warm = self._activate(device, "snap-1")

        assert (full["mode"], selective["mode"], warm["mode"]) == (
            "full", "selective", "delta")
        assert full["entries"] == selective["entries"] == warm["entries"]
        assert selective["segments_skipped"] > 0
        assert warm["pages_scanned"] < full["pages_scanned"]
        cold_speedup = full["total_ns"] / selective["total_ns"]
        warm_speedup = full["total_ns"] / warm["total_ns"]
        assert cold_speedup >= self.COLD_SPEEDUP_FLOOR, cold_speedup
        assert warm_speedup >= self.WARM_SPEEDUP_FLOOR, warm_speedup


class TestResidueCacheBookkeeping:
    def test_invalidated_on_snapshot_delete(self, iosnap):
        iosnap.write(0, b"x")
        iosnap.snapshot_create("s")
        iosnap.snapshot_activate("s").deactivate()
        assert len(iosnap._residues) == 1
        iosnap.snapshot_delete("s")
        assert len(iosnap._residues) == 0
        assert iosnap.activation_counters["invalidations"] >= 1

    def test_invalidated_on_ancestor_epoch_reclaim(self, iosnap):
        iosnap.write(0, b"a")
        iosnap.snapshot_create("old")
        iosnap.write(1, b"b")
        iosnap.snapshot_create("new")
        iosnap.snapshot_activate("new").deactivate()
        assert len(iosnap._residues) == 1
        # "new"'s path crosses "old"'s epoch; reclaiming it must drop
        # the residue (its packets may be garbage-collected now).
        iosnap.snapshot_delete("old")
        assert len(iosnap._residues) == 0

    def test_lru_eviction_bounded_by_entries(self, kernel):
        device = make_iosnap(kernel, residue_cache_entries=2)
        for index in range(3):
            device.write(index, b"x")
            device.snapshot_create(f"s{index}")
        for index in range(3):
            device.snapshot_activate(f"s{index}").deactivate()
        assert len(device._residues) == 2
        # s0 was least recently used: its re-activation misses.
        device.snapshot_activate("s0").deactivate()
        assert (device.snap_metrics.activation_reports[-1]["mode"]
                == "selective")
        device.snapshot_activate("s2").deactivate()
        assert (device.snap_metrics.activation_reports[-1]["mode"]
                == "delta")

    def test_memory_bound_evicts(self, kernel):
        device = make_iosnap(kernel, residue_cache_bytes=2048)
        for lba in range(300):
            device.write(lba % 300, b"x")
        device.snapshot_create("big")      # ~300 winners > 2048 bytes
        device.write(0, b"y")
        device.snapshot_create("tiny")
        device.snapshot_activate("big").deactivate()
        assert len(device._residues) == 0  # oversized: never cached
        device.snapshot_activate("tiny").deactivate()
        assert device._residues.memory_bytes() <= 2048 or \
            len(device._residues) == 0

    def test_info_surfaces_activation_counters(self, iosnap):
        iosnap.write(0, b"x")
        iosnap.snapshot_create("s")
        iosnap.snapshot_activate("s").deactivate()
        activation = iosnap.info()["snapshots"]["activation"]
        for key in ("hits", "misses", "invalidations", "segments_skipped",
                    "pages_scanned", "residue_cache_entries",
                    "residue_cache_bytes"):
            assert key in activation
        assert activation["residue_cache_entries"] == 1
