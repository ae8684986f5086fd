"""Tests for the snapshot-aware segment cleaner (paper §5.4, Figure 6)."""

import random

import pytest

from repro.workloads.generators import Op, WRITE
from repro.workloads.runner import run_stream

from tests.conftest import make_iosnap as _make_iosnap


@pytest.fixture
def iosnap(kernel):
    # parallel_heads=1: fill_segment_zero assumes a sequential fill
    # closes segment 0, which only holds with a single log head.
    return _make_iosnap(kernel, parallel_heads=1)


def make_iosnap(kernel, **overrides):
    overrides.setdefault("parallel_heads", 1)
    return _make_iosnap(kernel, **overrides)


def fill_segment_zero(device):
    pages = device.log.segment_pages - 1
    for lba in range(pages):
        device.write(lba, f"seg0-{lba}".encode())
    return pages


class TestMergedValidity:
    def test_snapshot_retained_blocks_count_as_valid(self, kernel, iosnap):
        pages = fill_segment_zero(iosnap)
        iosnap.snapshot_create("s")
        for lba in range(pages):  # fully overwrite in the active epoch
            iosnap.write(lba, b"new")
        seg = iosnap.log.segments[0]
        # Active-only view: nothing valid.  Merged view: everything.
        assert iosnap.active_bitmap.count_range(seg.first_ppn,
                                                seg.npages) == 0
        valid, _cost = iosnap._compute_valid(seg)
        assert len(valid) == pages

    def test_deleted_snapshot_blocks_become_invalid(self, kernel, iosnap):
        pages = fill_segment_zero(iosnap)
        iosnap.snapshot_create("s")
        for lba in range(pages):
            iosnap.write(lba, b"new")
        iosnap.snapshot_delete("s")
        seg = iosnap.log.segments[0]
        valid, _cost = iosnap._compute_valid(seg)
        assert valid == []

    def test_merge_cost_grows_with_snapshots(self, kernel, iosnap):
        fill_segment_zero(iosnap)
        seg = iosnap.log.segments[0]
        _valid, cost0 = iosnap._compute_valid(seg)
        iosnap.snapshot_create("a")
        _valid, cost1 = iosnap._compute_valid(seg)
        iosnap.snapshot_create("b")
        _valid, cost2 = iosnap._compute_valid(seg)
        assert cost0 < cost1 < cost2


class TestCleaningWithSnapshots:
    def test_clean_preserves_snapshot_only_blocks(self, kernel, iosnap):
        pages = fill_segment_zero(iosnap)
        iosnap.snapshot_create("s")
        for lba in range(pages):
            iosnap.write(lba, b"new")
        seg = iosnap.log.segments[0]
        iosnap.cleaner.force_clean(seg)
        view = iosnap.snapshot_activate("s")
        for lba in range(pages):
            expected = f"seg0-{lba}".encode()
            assert view.read(lba)[:len(expected)] == expected
        view.deactivate()

    def test_clean_fixes_bits_in_every_epoch(self, kernel, iosnap):
        pages = fill_segment_zero(iosnap)
        s1 = iosnap.snapshot_create("s1")
        s2 = iosnap.snapshot_create("s2")
        seg = iosnap.log.segments[0]
        iosnap.cleaner.force_clean(seg)
        # Old locations cleared in every live epoch; block readable in
        # both snapshots from the new locations.
        for epoch, bitmap in iosnap.live_epoch_bitmaps():
            assert bitmap.count_range(seg.first_ppn, seg.npages) == 0
        for name in ("s1", "s2"):
            view = iosnap.snapshot_activate(name)
            assert view.read(0)[:len(b"seg0-0")] == b"seg0-0"
            view.deactivate()

    def test_clean_preserves_epoch_in_headers(self, kernel, iosnap):
        pages = fill_segment_zero(iosnap)
        iosnap.snapshot_create("s")
        for lba in range(pages):
            iosnap.write(lba, b"new")
        seg = iosnap.log.segments[0]
        iosnap.cleaner.force_clean(seg)
        # Find the moved copies: packets with epoch 0 outside segment 0.
        moved = [
            ppn for ppn in range(iosnap.nand.geometry.total_pages)
            if not seg.contains(ppn)
            and iosnap.nand.array.is_programmed(ppn)
            and iosnap.nand.array.read_header(ppn).epoch == 0
        ]
        assert len(moved) >= pages

    def test_clean_updates_activated_map(self, kernel, iosnap):
        pages = fill_segment_zero(iosnap)
        iosnap.snapshot_create("s")
        for lba in range(pages):
            iosnap.write(lba, b"new")
        view = iosnap.snapshot_activate("s")
        old_ppn = view.map.get(0)
        seg = iosnap.log.segments[0]
        iosnap.cleaner.force_clean(seg)
        new_ppn = view.map.get(0)
        assert new_ppn != old_ppn
        assert view.read(0)[:len(b"seg0-0")] == b"seg0-0"
        view.deactivate()

    def test_clean_keeps_snapshot_notes(self, kernel, iosnap):
        iosnap.write(0, b"x")
        iosnap.snapshot_create("keep-my-note")
        pages = iosnap.log.segment_pages - 1
        for lba in range(1, pages):
            iosnap.write(lba, b"fill")
        seg = iosnap.log.segments[0]
        assert any(seg.contains(ppn) for ppn in iosnap._note_registry)
        iosnap.cleaner.force_clean(seg)
        # The create note moved; a crash must still find the snapshot.
        iosnap.crash()
        from repro.core.iosnap import IoSnapDevice
        recovered = IoSnapDevice.open(kernel, iosnap.nand)
        assert [s.name for s in recovered.snapshots()] == ["keep-my-note"]

    def test_snapshot_data_survives_many_cleans(self, kernel, iosnap):
        data = {}
        for lba in range(120):
            payload = f"golden-{lba}".encode()
            iosnap.write(lba, payload)
            data[lba] = payload
        iosnap.snapshot_create("golden")
        rng = random.Random(11)
        for i in range(4000):
            iosnap.write(rng.randrange(500), bytes([i % 256]))
        assert iosnap.cleaner.segments_cleaned > 5
        view = iosnap.snapshot_activate("golden")
        for lba, payload in data.items():
            assert view.read(lba)[:len(payload)] == payload
        view.deactivate()


class TestColdSegregation:
    """§5.4.2 extension: cleaner output segregated by temperature."""

    def _mixed_segment_device(self, kernel, segregate):
        device = make_iosnap(kernel, gc_segregate_cold=segregate)
        pages = device.log.segment_pages - 1
        for lba in range(pages):
            device.write(lba, f"d-{lba}".encode())
        device.snapshot_create("s")
        # Overwrite half: segment 0 now holds half cold (snapshot-only)
        # and half hot (still active) blocks.
        for lba in range(pages // 2):
            device.write(lba, b"new")
        return device, pages

    def test_cold_and_hot_go_to_separate_segments(self, kernel):
        device, pages = self._mixed_segment_device(kernel, segregate=True)
        seg = device.log.segments[0]
        device.cleaner.force_clean(seg)
        heads = device.log._open
        assert "gc-hot" in heads and "gc-cold" in heads
        # Every destination segment holds only one temperature class.
        hot_seg = heads["gc-hot"]
        cold_seg = heads["gc-cold"]
        for out_seg, expect_active in ((hot_seg, True), (cold_seg, False)):
            for ppn in out_seg.written_ppns():
                if not device.nand.array.is_programmed(ppn):
                    continue
                assert device.active_bitmap.test(ppn) == expect_active

    def test_segregation_preserves_all_data(self, kernel):
        device, pages = self._mixed_segment_device(kernel, segregate=True)
        device.cleaner.force_clean(device.log.segments[0])
        from repro.ftl.fsck import fsck
        assert fsck(device) == []
        view = device.snapshot_activate("s")
        for lba in range(pages):
            expected = f"d-{lba}".encode()
            assert view.read(lba)[:len(expected)] == expected
        view.deactivate()
        for lba in range(pages // 2):
            assert device.read(lba)[:3] == b"new"

    def test_segregation_reduces_epoch_intermixing(self, kernel):
        import random
        mixing = {}
        for segregate in (False, True):
            device, pages = self._mixed_segment_device(type(kernel)(),
                                                       segregate)
            rng = random.Random(1)
            # Keep churning and force-cleaning mixed segments.
            for round_no in range(6):
                for lba in range(pages):
                    device.write(lba, bytes([round_no]))
                candidate = device.cleaner.select_candidate()
                if candidate is not None:
                    device.cleaner.force_clean(candidate)
            summaries = [s for s in device._epoch_index.epochs.values() if s]
            mixing[segregate] = sum(1 for s in summaries if len(s) > 1)
        assert mixing[True] <= mixing[False]

    def test_without_segregation_single_gc_head(self, kernel):
        device, pages = self._mixed_segment_device(kernel, segregate=False)
        device.cleaner.force_clean(device.log.segments[0])
        assert "gc-hot" not in device.log._open
        assert "gc-cold" not in device.log._open


class TestPacingEstimates:
    def test_aware_estimate_counts_snapshot_blocks(self, kernel, iosnap):
        pages = fill_segment_zero(iosnap)
        iosnap.snapshot_create("s")
        for lba in range(pages):
            iosnap.write(lba, b"new")
        seg = iosnap.log.segments[0]
        assert iosnap._estimate_valid_count(seg) == pages

    def test_vanilla_estimate_misses_snapshot_blocks(self, kernel):
        device = make_iosnap(kernel, snapshot_aware_pacing=False)
        pages = fill_segment_zero(device)
        device.snapshot_create("s")
        for lba in range(pages):
            device.write(lba, b"new")
        seg = device.log.segments[0]
        assert device._estimate_valid_count(seg) == 0
