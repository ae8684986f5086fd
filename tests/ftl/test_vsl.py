"""Unit tests for the base FTL block device."""

import pytest

from repro.errors import FtlError, LbaError
from repro.ftl.vsl import FtlConfig, VslDevice
from repro.nand.geometry import NandConfig, NandGeometry
from repro.nand.oob import PageKind
from repro.sim import Kernel

from tests.conftest import small_geometry, tiny_geometry


class TestConfig:
    def test_bad_op_ratio(self):
        with pytest.raises(ValueError):
            FtlConfig(op_ratio=0.0)
        with pytest.raises(ValueError):
            FtlConfig(op_ratio=0.95)

    def test_bad_watermark(self):
        with pytest.raises(ValueError):
            FtlConfig(gc_low_watermark=0)

    def test_bad_blocks_per_segment(self):
        with pytest.raises(ValueError, match="blocks_per_segment"):
            FtlConfig(blocks_per_segment=0)

    def test_bad_gc_reserve(self):
        with pytest.raises(ValueError, match="gc_reserve_segments"):
            FtlConfig(gc_reserve_segments=-1)

    def test_exported_space_below_physical(self, vsl):
        assert vsl.num_lbas < vsl.nand.geometry.total_pages

    def test_too_small_geometry_rejected(self, kernel):
        geo = NandGeometry(page_size=512, pages_per_block=2,
                           blocks_per_die=2, dies=1, channels=1)
        with pytest.raises(FtlError):
            VslDevice.create(kernel, NandConfig(geometry=geo),
                             FtlConfig(op_ratio=0.8, gc_reserve_segments=1))


class TestReadWrite:
    def test_roundtrip(self, vsl):
        vsl.write(0, b"hello")
        assert vsl.read(0)[:5] == b"hello"

    def test_read_pads_to_block_size(self, vsl):
        vsl.write(1, b"ab")
        data = vsl.read(1)
        assert len(data) == vsl.block_size
        assert data[:2] == b"ab"
        assert data[2:] == bytes(vsl.block_size - 2)

    def test_unwritten_lba_reads_zero(self, vsl):
        assert vsl.read(17) == bytes(vsl.block_size)

    def test_overwrite(self, vsl):
        vsl.write(3, b"first")
        vsl.write(3, b"second")
        assert vsl.read(3)[:6] == b"second"

    def test_out_of_range_lba(self, vsl):
        with pytest.raises(LbaError):
            vsl.write(vsl.num_lbas, b"x")
        with pytest.raises(LbaError):
            vsl.read(-1)

    def test_oversized_write_rejected(self, vsl):
        with pytest.raises(LbaError):
            vsl.write(0, b"x" * (vsl.block_size + 1))

    def test_write_returns_distinct_ppns(self, kernel, vsl):
        ppn1 = kernel.run_process(vsl.write_proc(0, b"a"))
        ppn2 = kernel.run_process(vsl.write_proc(0, b"b"))
        assert ppn1 != ppn2

    def test_write_stamps_headers(self, kernel, vsl):
        ppn = kernel.run_process(vsl.write_proc(9, b"data!"))
        header = vsl.nand.array.read_header(ppn)
        assert header.kind is PageKind.DATA
        assert header.lba == 9
        assert header.epoch == 0
        assert header.length == 5

    def test_seq_monotonic(self, kernel, vsl):
        seqs = []
        for i in range(5):
            ppn = kernel.run_process(vsl.write_proc(i, b"x"))
            seqs.append(vsl.nand.array.read_header(ppn).seq)
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 5

    def test_sync_write_waits_for_program(self, kernel, vsl):
        kernel.run_process(vsl.write_proc(0, b"x", sync=False))
        async_time = kernel.now
        start = kernel.now
        kernel.run_process(vsl.write_proc(1, b"x", sync=True))
        assert kernel.now - start > vsl.nand.timing.program_page_ns

    def test_metrics_counters(self, vsl):
        vsl.write(0, b"a")
        vsl.read(0)
        vsl.trim(0)
        assert vsl.metrics.writes == 1
        assert vsl.metrics.reads == 1
        assert vsl.metrics.trims == 1


class TestTrim:
    def test_trimmed_lba_reads_zero(self, vsl):
        vsl.write(4, b"data")
        vsl.trim(4)
        assert vsl.read(4) == bytes(vsl.block_size)

    def test_trim_clears_validity(self, kernel, vsl):
        ppn = kernel.run_process(vsl.write_proc(4, b"data"))
        assert vsl.validity.test(ppn)
        vsl.trim(4)
        assert not vsl.validity.test(ppn)

    def test_rewrite_after_trim(self, vsl):
        vsl.write(4, b"one")
        vsl.trim(4)
        vsl.write(4, b"two")
        assert vsl.read(4)[:3] == b"two"

    def test_trim_note_registered(self, vsl):
        vsl.write(4, b"data")
        vsl.trim(4)
        assert vsl.live_note_count() == 1


class TestValidityIntegration:
    def test_overwrite_flips_bits(self, kernel, vsl):
        old = kernel.run_process(vsl.write_proc(7, b"v1"))
        new = kernel.run_process(vsl.write_proc(7, b"v2"))
        assert not vsl.validity.test(old)
        assert vsl.validity.test(new)

    def test_valid_count_equals_mapped_lbas(self, kernel, vsl):
        import random
        rng = random.Random(5)
        for _ in range(300):
            vsl.write(rng.randrange(50), b"x")
        assert vsl.validity.count() == len(vsl.map) <= 50


class TestLifecycle:
    def test_shutdown_blocks_io(self, vsl):
        vsl.write(0, b"x")
        vsl.shutdown()
        with pytest.raises(FtlError, match="shut down"):
            vsl.write(1, b"y")
        with pytest.raises(FtlError, match="shut down"):
            vsl.read(0)

    def test_crash_blocks_io(self, vsl):
        vsl.crash()
        with pytest.raises(FtlError):
            vsl.read(0)

    def test_utilization(self, vsl):
        assert vsl.utilization() == 0.0
        vsl.write(0, b"x")
        assert vsl.utilization() == pytest.approx(1 / vsl.num_lbas)


class TestReadahead:
    def test_sequential_reads_hit_cache(self, kernel):
        device = VslDevice.create(
            kernel, NandConfig(geometry=small_geometry()),
            FtlConfig(readahead_pages=8))
        for lba in range(64):
            device.write(lba, bytes([lba]))
        for lba in range(64):
            assert device.read(lba)[0] == lba
        assert device.metrics.readahead_hits > 0

    def test_readahead_disabled(self, kernel):
        device = VslDevice.create(
            kernel, NandConfig(geometry=small_geometry()),
            FtlConfig(readahead_pages=0))
        for lba in range(32):
            device.write(lba, bytes([lba]))
        for lba in range(32):
            device.read(lba)
        assert device.metrics.readahead_hits == 0

    def test_cache_invalidated_on_erase(self, kernel):
        device = VslDevice.create(
            kernel, NandConfig(geometry=small_geometry()),
            FtlConfig(readahead_pages=8))
        for lba in range(64):
            device.write(lba, bytes([lba]))
        for lba in range(64):
            device.read(lba)
        # Force churn so the cleaner erases segments the cache may
        # reference; reads must stay correct afterwards.
        import random
        rng = random.Random(4)
        for i in range(800):
            device.write(rng.randrange(device.num_lbas), bytes([i % 256]))
        for lba in range(64):
            device.read(lba)  # must not raise or return stale pages
