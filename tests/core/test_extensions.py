"""Tests for the §7 future-work extensions: selective activation scans,
GC selection policies, and snapshot destaging to archival storage."""

import random

import pytest

from repro.core.destage import ArchiveTarget, destage_snapshot, restore_snapshot
from repro.core.iosnap import IoSnapDevice
from repro.errors import SnapshotError

from tests.conftest import make_iosnap


class TestSelectiveScan:
    def _prepare(self, kernel, selective):
        device = make_iosnap(kernel, selective_scan=selective)
        for lba in range(60):
            device.write(lba, f"early-{lba}".encode())
        device.snapshot_create("early")
        # A lot of later data in disjoint segments/epochs.
        for lba in range(60, 1200):
            device.write(lba, b"late")
        return device

    def test_summary_tracks_epochs(self, kernel):
        device = self._prepare(kernel, selective=True)
        summaries = [device.segment_epoch_summary(seg)
                     for seg in device.log.segments if seg.seq >= 0]
        assert any(0 in s for s in summaries)          # early epoch
        assert any(s == {1} for s in summaries)        # late-only segments

    def test_selective_scan_correct(self, kernel):
        device = self._prepare(kernel, selective=True)
        view = device.snapshot_activate("early")
        assert len(view.map) == 60
        for lba in range(60):
            expected = f"early-{lba}".encode()
            assert view.read(lba)[:len(expected)] == expected
        view.deactivate()

    def test_selective_scan_faster(self, kernel):
        device = self._prepare(kernel, selective=True)
        view = device.snapshot_activate("early")
        fast = device.snap_metrics.activation_reports[-1]["scan_ns"]
        view.deactivate()

        kernel2_device = self._prepare(type(kernel)(), selective=False)
        view = kernel2_device.snapshot_activate("early")
        slow = kernel2_device.snap_metrics.activation_reports[-1]["scan_ns"]
        view.deactivate()
        assert fast < slow / 3

    def test_summary_survives_crash(self, kernel):
        device = self._prepare(kernel, selective=True)
        device.crash()
        recovered = IoSnapDevice.open(kernel, device.nand)
        assert recovered._epoch_index.epochs  # rebuilt from the scan
        view = recovered.snapshot_activate("early")
        assert len(view.map) == 60
        view.deactivate()

    def test_summary_survives_checkpoint(self, kernel):
        device = self._prepare(kernel, selective=True)
        before = {k: set(v) for k, v in device._epoch_index.epochs.items()}
        device.shutdown()
        reopened = IoSnapDevice.open(kernel, device.nand)
        assert {k: set(v) for k, v in reopened._epoch_index.epochs.items()} \
            == before

    def test_selective_scan_correct_after_cleaning(self, kernel):
        device = self._prepare(kernel, selective=True)
        rng = random.Random(0)
        for i in range(2500):
            device.write(60 + rng.randrange(1000), bytes([i % 256]))
        assert device.cleaner.segments_cleaned > 0
        view = device.snapshot_activate("early")
        for lba in range(60):
            expected = f"early-{lba}".encode()
            assert view.read(lba)[:len(expected)] == expected
        view.deactivate()


class TestGcPolicies:
    def test_bad_policy_rejected(self, kernel):
        with pytest.raises(ValueError):
            make_iosnap(kernel, gc_policy="magic")

    def churn(self, device, writes=3000):
        from repro.workloads.generators import hotspot_writes
        for op in hotspot_writes(writes, device.num_lbas,
                                 hot_fraction=0.1, hot_probability=0.9,
                                 seed=3):
            device.write(op.lba, b"x")

    def test_both_policies_preserve_data(self, kernel):
        for policy in ("greedy", "cost_benefit"):
            device = make_iosnap(type(kernel)(), gc_policy=policy)
            model = {}
            rng = random.Random(7)
            for i in range(2500):
                lba = rng.randrange(200)
                data = bytes([i % 256]) * 4
                device.write(lba, data)
                model[lba] = data
            assert device.cleaner.segments_cleaned > 0
            for lba, data in model.items():
                assert device.read(lba)[:4] == data

    def test_cost_benefit_selects_by_age_and_utilization(self, kernel):
        device = make_iosnap(kernel, gc_policy="cost_benefit")
        pages = device.log.segment_pages - 1
        # Old segment 0: half reclaimable.  Newer segment: almost empty
        # (greedy would take the emptier one; cost-benefit can prefer
        # the much older one).
        for lba in range(pages):
            device.write(lba, b"old")
        for lba in range(pages // 2):
            device.write(lba, b"over")   # invalidates half of seg 0
        # Age gap: many intermediate full segments.
        for lba in range(pages, 6 * pages):
            device.write(lba, b"mid")
        # Fresh segment with one stale page.
        device.write(0, b"newest")
        candidate = device.cleaner.select_candidate()
        assert candidate is not None
        assert candidate.index == 0  # the old, half-empty segment wins


class TestDestage:
    def _device_with_snapshot(self, kernel):
        device = make_iosnap(kernel)
        data = {}
        for lba in range(40):
            payload = f"archive-me-{lba}".encode()
            device.write(lba, payload)
            data[lba] = payload
        device.snapshot_create("nightly")
        for lba in range(20):
            device.write(lba, b"post-snapshot")
        return device, data

    def test_destage_roundtrip(self, kernel):
        device, data = self._device_with_snapshot(kernel)
        archive = ArchiveTarget(kernel)
        report = destage_snapshot(device, "nightly", archive)
        assert report["blocks"] == 40
        assert report["duration_ns"] > 0
        assert archive.images() == ["nightly"]
        manifest = archive.manifest("nightly")
        assert manifest.block_count == 40

    def test_destage_then_restore(self, kernel):
        device, data = self._device_with_snapshot(kernel)
        archive = ArchiveTarget(kernel)
        destage_snapshot(device, "nightly", archive, delete_after=True)
        assert device.snapshots() == []   # freed from flash
        # Disaster: restore the image onto the active volume.
        report = restore_snapshot(device, "nightly", archive)
        assert report["blocks"] == 40
        for lba, payload in data.items():
            assert device.read(lba)[:len(payload)] == payload

    def test_destage_duplicate_image_rejected(self, kernel):
        device, _data = self._device_with_snapshot(kernel)
        archive = ArchiveTarget(kernel)
        destage_snapshot(device, "nightly", archive)
        with pytest.raises(SnapshotError, match="already holds"):
            destage_snapshot(device, "nightly", archive)

    def test_archive_crc_detects_corruption(self, kernel):
        device, _data = self._device_with_snapshot(kernel)
        archive = ArchiveTarget(kernel)
        destage_snapshot(device, "nightly", archive)
        archive._images["nightly"][3] = b"tampered" + bytes(100)

        def fetch():
            return (yield from archive.fetch_block("nightly", 3))

        with pytest.raises(SnapshotError, match="crc"):
            kernel.run_process(fetch())

    def test_fetch_unknown_image(self, kernel):
        archive = ArchiveTarget(kernel)
        with pytest.raises(SnapshotError):
            archive.manifest("ghost")

    def test_delete_image(self, kernel):
        device, _data = self._device_with_snapshot(kernel)
        archive = ArchiveTarget(kernel)
        destage_snapshot(device, "nightly", archive)
        archive.delete_image("nightly")
        assert archive.images() == []

    def test_destage_with_rate_limiter(self, kernel):
        from repro.ftl.ratelimit import DutyCycleLimiter
        device, _data = self._device_with_snapshot(kernel)
        archive = ArchiveTarget(kernel)
        limiter = DutyCycleLimiter.from_paper_knob(kernel, 100, 1)
        report = destage_snapshot(device, "nightly", archive,
                                  limiter=limiter)
        assert report["blocks"] == 40
        assert limiter.total_slept_ns > 0

    def test_archive_timing_charged(self, kernel):
        device, _data = self._device_with_snapshot(kernel)
        archive = ArchiveTarget(kernel, write_mb_per_s=10.0)
        before = kernel.now
        destage_snapshot(device, "nightly", archive)
        elapsed = kernel.now - before
        # 40 blocks * 4096 B at 10 MB/s is at least 16 ms of streaming.
        assert elapsed > 16_000_000
