"""Unit tests for the segmented log and its allocator."""

import pytest

from repro.errors import FtlError, OutOfSpaceError
from repro.ftl.log import Log, SegmentState
from repro.nand.device import NandDevice
from repro.nand.geometry import NandConfig, NandGeometry
from repro.nand.oob import OobHeader, PageKind
from repro.sim import Lock


@pytest.fixture
def device(kernel):
    geo = NandGeometry(page_size=512, pages_per_block=4, blocks_per_die=4,
                       dies=2, channels=1)
    return NandDevice(kernel, NandConfig(geometry=geo))


@pytest.fixture
def log(kernel, device):
    return Log(kernel, device, blocks_per_segment=1, reserve_segments=2)


def data_header(lba, seq):
    return OobHeader(kind=PageKind.DATA, lba=lba, seq=seq)


def append(kernel, log, lba=0, seq=1, privileged=False):
    def proc():
        return (yield from log.append(data_header(lba, seq), None,
                                      privileged=privileged))
    return kernel.run_process(proc())


class TestLayout:
    def test_segment_partitioning(self, log):
        assert log.segment_count == 8
        assert log.segment_pages == 4
        assert log.free_segment_count() == 6
        assert log.reserve_segment_count() == 2

    def test_indivisible_blocks_rejected(self, kernel, device):
        with pytest.raises(FtlError, match="divisible"):
            Log(kernel, device, blocks_per_segment=3)

    def test_reserve_too_large_rejected(self, kernel, device):
        with pytest.raises(FtlError, match="reserve"):
            Log(kernel, device, reserve_segments=8)

    def test_segment_of(self, log):
        assert log.segment_of(0).index == 0
        assert log.segment_of(5).index == 1

    def test_written_ppns_excludes_header(self, kernel, log):
        append(kernel, log)
        seg = log.open_segment
        assert list(seg.written_ppns()) == [seg.first_ppn + 1]


class TestAppend:
    def test_first_append_opens_segment_with_header(self, kernel, log,
                                                    device):
        ppn, _done = append(kernel, log, lba=7)
        seg = log.open_segment
        assert seg.state is SegmentState.OPEN
        header_page = device.array.read_header(seg.first_ppn)
        assert header_page.kind is PageKind.SEGMENT_HEADER
        assert header_page.lba == seg.seq
        assert device.array.read_header(ppn).lba == 7

    def test_appends_fill_then_roll_segments(self, kernel, log):
        for i in range(7):  # 3 data pages per segment (1 header)
            append(kernel, log, lba=i, seq=i + 1)
        assert log.stats.segments_opened == 3
        closed = log.closed_segments()
        assert len(closed) == 2
        assert [s.seq for s in closed] == [0, 1]

    def test_segment_seq_monotonic(self, kernel, log):
        for i in range(10):
            append(kernel, log, seq=i + 1)
        seqs = [s.seq for s in log.segments if s.seq >= 0]
        assert sorted(seqs) == list(range(len(seqs)))

    def test_done_event_triggers_after_program(self, kernel, log):
        _ppn, done = append(kernel, log)
        assert not done.triggered
        kernel.run()
        assert done.triggered


def _concurrent_appends_seq_by_ppn(kernel, log):
    """Three same-head appends spawned together on a fresh log: the
    first parks on the segment-header program, the others race it."""
    procs = [kernel.spawn(log.append(data_header(lba=seq, seq=seq), None),
                          name=f"append-{seq}")
             for seq in (1, 2, 3)]
    kernel.run()
    placed = sorted((proc.result[0], seq)
                    for proc, seq in zip(procs, (1, 2, 3)))
    return [seq for _ppn, seq in placed]


def test_head_lock_keeps_same_head_appends_in_seq_order(kernel, log):
    """Control: per-head seq order on flash is what recovery rests on."""
    assert _concurrent_appends_seq_by_ppn(kernel, log) == [1, 2, 3]


def test_removing_head_lock_breaks_per_head_seq_order(kernel, log,
                                                      monkeypatch):
    """Mutation: a fresh head lock per call is no mutual exclusion, so
    later appends slip into the segment ahead of the one opening it."""
    monkeypatch.setattr(
        Log, "_lock_for",
        lambda self, head: Lock(self.kernel, name=f"log.head:{head}"))
    assert _concurrent_appends_seq_by_ppn(kernel, log) != [1, 2, 3]


class TestSpaceManagement:
    def fill_log(self, kernel, log):
        # 6 free segments * 3 data pages = 18 appends exhaust free space.
        for i in range(18):
            append(kernel, log, seq=i + 1)

    def test_writer_stalls_when_free_exhausted(self, kernel, log):
        self.fill_log(kernel, log)
        pressure = []
        log.on_space_pressure = lambda: pressure.append(True)

        def stalled():
            yield from log.append(data_header(0, 99), None)

        proc = kernel.spawn(stalled())
        kernel.run()
        assert not proc.done
        assert pressure
        assert log.stats.stalls == 1

    def test_privileged_append_uses_reserve(self, kernel, log):
        self.fill_log(kernel, log)
        append(kernel, log, seq=100, privileged=True)
        assert log.reserve_segment_count() == 1

    def test_privileged_raises_when_reserve_gone(self, kernel, log):
        self.fill_log(kernel, log)
        for i in range(6):  # drain both reserve segments
            append(kernel, log, seq=200 + i, privileged=True)
        with pytest.raises(OutOfSpaceError):
            append(kernel, log, seq=300, privileged=True)

    def erase_and_release(self, kernel, log, seg):
        def proc():
            first_block = seg.first_ppn // log.device.geometry.pages_per_block
            for block in range(first_block,
                               first_block + log.blocks_per_segment):
                yield from log.device.erase_block(block)
        kernel.run_process(proc())
        log.release_segment(seg.index)

    def test_release_refills_reserve_first(self, kernel, log):
        self.fill_log(kernel, log)
        append(kernel, log, seq=100, privileged=True)
        assert log.reserve_segment_count() == 1
        self.erase_and_release(kernel, log, log.closed_segments()[0])
        assert log.reserve_segment_count() == 2
        assert log.free_segment_count() == 0

    def test_release_wakes_stalled_writer(self, kernel, log):
        self.fill_log(kernel, log)

        def stalled():
            return (yield from log.append(data_header(1, 99), None))

        proc = kernel.spawn(stalled())
        kernel.run()
        assert not proc.done
        # First release refills the (full) reserve?  No — reserve is
        # full, so it goes straight to the free list and wakes writers.
        self.erase_and_release(kernel, log, log.closed_segments()[0])
        kernel.run()
        assert proc.done

    def test_fail_waiters_propagates(self, kernel, log):
        self.fill_log(kernel, log)
        caught = []

        def stalled():
            try:
                yield from log.append(data_header(1, 99), None)
            except OutOfSpaceError as exc:
                caught.append(exc)

        kernel.spawn(stalled())
        kernel.run()
        log.fail_waiters(OutOfSpaceError("full"))
        kernel.run()
        assert len(caught) == 1

    def test_release_non_closed_rejected(self, kernel, log):
        append(kernel, log)
        with pytest.raises(FtlError):
            log.release_segment(log.open_segment.index)

    def test_release_unerased_rejected(self, kernel, log):
        self.fill_log(kernel, log)
        victim = log.closed_segments()[0]
        with pytest.raises(FtlError, match="without erasing"):
            log.release_segment(victim.index)


class TestStateDump:
    def test_dump_adopt_roundtrip(self, kernel, log):
        for i in range(5):
            append(kernel, log, seq=i + 1)
        seg_states, next_seq, open_index = log.dump_state()

        log2 = Log(kernel, log.device, blocks_per_segment=1,
                   reserve_segments=2)
        log2.adopt_state(seg_states, next_seq, open_index)
        assert log2.free_segment_count() == log.free_segment_count()
        assert log2.open_segment.index == log.open_segment.index
        assert log2.open_segment.next_offset == log.open_segment.next_offset
