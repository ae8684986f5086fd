"""Unit tests for the (vanilla) segment cleaner."""

import random

import pytest

from repro.errors import OutOfSpaceError
from repro.ftl.log import SegmentState
from repro.ftl.vsl import FtlConfig, VslDevice
from repro.nand.geometry import NandConfig

from tests.conftest import tiny_geometry


@pytest.fixture
def device(kernel):
    # parallel_heads=1: these tests assume a sequential fill lands in
    # segment 0 and pin exact page layouts, which only holds single-head.
    return VslDevice.create(kernel, NandConfig(geometry=tiny_geometry()),
                            FtlConfig(gc_low_watermark=3,
                                      gc_reserve_segments=2,
                                      parallel_heads=1))


def fill_segment_zero(kernel, device):
    """Write enough sequential LBAs to close segment 0."""
    pages = device.log.segment_pages - 1
    for lba in range(pages):
        device.write(lba, bytes([lba % 256]))
    return pages


class TestForcedClean:
    def test_clean_preserves_valid_data(self, kernel, device):
        pages = fill_segment_zero(kernel, device)
        seg = device.log.segments[0]
        assert seg.state is SegmentState.CLOSED
        device.cleaner.force_clean(seg)
        assert seg.state is SegmentState.FREE
        for lba in range(pages):
            assert device.read(lba)[0] == lba % 256

    def test_clean_skips_invalidated_data(self, kernel, device):
        pages = fill_segment_zero(kernel, device)
        half = pages // 2
        for lba in range(half):  # overwrite -> lands in later segments
            device.write(lba, b"new")
        seg = device.log.segments[0]
        device.cleaner.force_clean(seg)
        report = device.metrics.cleaner_runs[-1]
        assert report["moved"] == pages - half
        for lba in range(half):
            assert device.read(lba)[:3] == b"new"

    def test_clean_preserves_headers(self, kernel, device):
        fill_segment_zero(kernel, device)
        seg = device.log.segments[0]
        old_ppn = device.map.get(0)
        old_header = device.nand.array.read_header(old_ppn)
        device.cleaner.force_clean(seg)
        new_ppn = device.map.get(0)
        assert new_ppn != old_ppn
        new_header = device.nand.array.read_header(new_ppn)
        assert (new_header.lba, new_header.epoch, new_header.seq) == \
            (old_header.lba, old_header.epoch, old_header.seq)

    def test_clean_moves_live_trim_notes(self, kernel, device):
        device.write(0, b"x")
        device.trim(0)
        pages = device.log.segment_pages - 1
        for lba in range(1, pages):
            device.write(lba, b"y")
        seg = device.log.segments[0]
        assert any(seg.contains(ppn) for ppn in device._note_registry)
        device.cleaner.force_clean(seg)
        assert device.live_note_count() == 1
        assert not any(seg.contains(ppn) for ppn in device._note_registry)

    def test_clean_updates_validity(self, kernel, device):
        fill_segment_zero(kernel, device)
        seg = device.log.segments[0]
        device.cleaner.force_clean(seg)
        assert device.validity.count_range(seg.first_ppn, seg.npages) == 0
        assert device.validity.count() == len(device.map)

    def test_report_recorded(self, kernel, device):
        fill_segment_zero(kernel, device)
        device.cleaner.force_clean(device.log.segments[0])
        report = device.metrics.cleaner_runs[-1]
        assert report["segment"] == 0
        assert report["moved"] > 0
        assert report["total_ns"] > 0
        assert report["merge_ns"] > 0


class TestBackgroundCleaning:
    def test_sustained_overwrites_trigger_cleaning(self, kernel, device):
        rng = random.Random(1)
        for i in range(1500):
            device.write(rng.randrange(device.num_lbas), bytes([i % 256]))
        assert device.cleaner.segments_cleaned > 0
        # Every mapped LBA still readable.
        for lba, ppn in device.map.items():
            assert device.nand.array.is_programmed(ppn)

    def test_cleaner_respects_watermark_when_idle(self, kernel, device):
        device.write(0, b"x")
        kernel.run()
        cleaned_before = device.cleaner.segments_cleaned
        kernel.run(until=kernel.now + 10_000_000)
        assert device.cleaner.segments_cleaned == cleaned_before

    def test_minimal_overprovisioning_still_functions(self, kernel):
        # op_ratio=0.05 is below the structural floor (reserve + heads
        # + scratch); the exported space is clamped so a fully
        # utilized device can still always clean.
        device = VslDevice.create(
            kernel, NandConfig(geometry=tiny_geometry()),
            FtlConfig(op_ratio=0.05, gc_low_watermark=2,
                      gc_reserve_segments=1))
        seg_data = device.log.segment_pages - 1
        assert device.num_lbas <= \
            (device.log.segment_count - 4) * seg_data
        rng = random.Random(2)
        for i in range(3000):
            device.write(rng.randrange(device.num_lbas), b"z")
        assert device.cleaner.segments_cleaned > 10
        # Every mapped block still readable after heavy thrash.
        for lba, ppn in device.map.items():
            assert device.nand.array.is_programmed(ppn)

    def test_selection_prefers_emptier_segment(self, kernel, device):
        pages = device.log.segment_pages - 1
        # Segment 0: all overwritten later (fully invalid).
        for lba in range(pages):
            device.write(lba, b"old")
        # Segment 1: fresh data (valid).
        for lba in range(pages):
            device.write(lba, b"new")
        candidate = device.cleaner.select_candidate()
        assert candidate is not None
        assert candidate.index == 0

    def test_selection_none_when_everything_valid(self, kernel, device):
        pages = device.log.segment_pages - 1
        for lba in range(pages):
            device.write(lba, bytes([lba]))
        # Segment 0 is full of valid data; nothing reclaimable there.
        candidate = device.cleaner.select_candidate()
        assert candidate is None

    def test_stop_parks_cleaner(self, kernel, device):
        device.write(0, b"x")
        device.cleaner.stop()
        kernel.run()
        assert device._cleaner_procs[0].done
