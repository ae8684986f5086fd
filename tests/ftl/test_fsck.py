"""Tests for the consistency checker — both that clean devices pass and
that deliberately corrupted state is detected."""

import random

import pytest

from repro.ftl.fsck import fsck

from tests.conftest import make_iosnap


class TestCleanDevicesPass:
    def test_fresh_device(self, vsl):
        assert fsck(vsl) == []

    def test_fresh_iosnap(self, iosnap):
        assert fsck(iosnap) == []

    def test_after_basic_io(self, vsl):
        for lba in range(50):
            vsl.write(lba, bytes([lba]))
        vsl.trim(3)
        assert fsck(vsl) == []

    def test_after_snapshot_lifecycle(self, iosnap):
        for lba in range(60):
            iosnap.write(lba, b"x")
        iosnap.snapshot_create("a")
        for lba in range(30):
            iosnap.write(lba, b"y")
        iosnap.snapshot_create("b")
        iosnap.snapshot_delete("a")
        assert fsck(iosnap) == []

    def test_after_heavy_cleaning(self, iosnap):
        rng = random.Random(1)
        for lba in range(100):
            iosnap.write(lba, b"base")
        iosnap.snapshot_create("s")
        for i in range(2500):
            iosnap.write(rng.randrange(300), bytes([i % 256]))
        assert iosnap.cleaner.segments_cleaned > 0
        assert fsck(iosnap) == []

    def test_after_crash_recovery(self, kernel, iosnap):
        from repro.core.iosnap import IoSnapDevice
        for lba in range(60):
            iosnap.write(lba, b"x")
        iosnap.snapshot_create("s")
        for lba in range(30):
            iosnap.write(lba, b"y")
        iosnap.crash()
        recovered = IoSnapDevice.open(kernel, iosnap.nand)
        assert fsck(recovered) == []

    def test_after_checkpoint_restore(self, kernel, iosnap):
        from repro.core.iosnap import IoSnapDevice
        for lba in range(60):
            iosnap.write(lba, b"x")
        iosnap.snapshot_create("s")
        iosnap.shutdown()
        reopened = IoSnapDevice.open(kernel, iosnap.nand)
        assert fsck(reopened) == []

    def test_with_open_activation(self, iosnap):
        iosnap.write(0, b"x")
        iosnap.snapshot_create("s")
        view = iosnap.snapshot_activate("s")
        assert fsck(iosnap) == []
        view.deactivate()
        assert fsck(iosnap) == []


class TestCorruptionDetected:
    def test_map_to_unprogrammed_page(self, vsl):
        vsl.write(0, b"x")
        vsl.map.insert(0, vsl.nand.geometry.total_pages - 1)
        assert any("F1" in v for v in fsck(vsl))

    def test_map_to_wrong_lba(self, kernel, vsl):
        ppn0 = kernel.run_process(vsl.write_proc(0, b"x"))
        kernel.run_process(vsl.write_proc(1, b"y"))
        vsl.map.insert(1, ppn0)  # now both map to lba-0's page
        violations = fsck(vsl)
        assert any("F1" in v for v in violations)
        assert any("F2" in v for v in violations)

    def test_stray_validity_bit(self, vsl):
        vsl.write(0, b"x")
        vsl.validity.set(vsl.nand.geometry.total_pages - 1)
        assert any("F3" in v for v in fsck(vsl))

    def test_missing_validity_bit(self, kernel, vsl):
        ppn = kernel.run_process(vsl.write_proc(0, b"x"))
        vsl.validity.clear(ppn)
        assert any("F3" in v for v in fsck(vsl))

    def test_bogus_note_registry_entry(self, vsl):
        from repro.ftl.packet import TrimNote
        vsl.write(0, b"x")
        vsl._note_registry[vsl.nand.geometry.total_pages - 1] = TrimNote(0)
        assert any("F5" in v for v in fsck(vsl))

    def test_active_bitmap_drift(self, kernel, iosnap):
        ppn = kernel.run_process(iosnap.write_proc(0, b"x"))
        iosnap.active_bitmap.clear(ppn)
        assert any("S1" in v for v in fsck(iosnap))

    def test_snapshot_bitmap_drift(self, kernel, iosnap):
        ppn = kernel.run_process(iosnap.write_proc(0, b"x"))
        snap = iosnap.snapshot_create("s")
        iosnap._epoch_bitmaps[snap.epoch].clear_privileged(ppn)
        violations = fsck(iosnap)
        assert any("S2" in v for v in violations)

    def test_foreign_epoch_bit(self, kernel, iosnap):
        iosnap.snapshot_create("s")  # active epoch now 1
        ppn = kernel.run_process(iosnap.write_proc(0, b"x"))  # epoch 1
        snap = iosnap.tree.resolve("s")
        # Mark an epoch-1 page valid in the epoch-0 snapshot bitmap.
        iosnap._epoch_bitmaps[snap.epoch].set_privileged(ppn)
        assert any("S3" in v for v in fsck(iosnap))

    def test_epoch_counter_regression(self, iosnap):
        iosnap.write(0, b"x")
        iosnap.snapshot_create("s")
        iosnap.write(0, b"y")
        iosnap.tree._next_epoch = 1  # corrupt the counter
        assert any("S4" in v for v in fsck(iosnap))

    def test_summary_under_approximation(self, kernel, iosnap):
        ppn = kernel.run_process(iosnap.write_proc(0, b"x"))
        index = iosnap.log.segment_of(ppn).index
        iosnap._epoch_index.epochs[index].clear()
        assert any("S5" in v for v in fsck(iosnap))

    def test_summary_phantom_epoch(self, kernel, iosnap):
        ppn = kernel.run_process(iosnap.write_proc(0, b"x"))
        index = iosnap.log.segment_of(ppn).index
        iosnap._epoch_index.epochs[index].add(999)
        violations = fsck(iosnap)
        # A phantom epoch is still a superset, so S5 stays quiet; only
        # the exactness audit catches it.
        assert not any("S5" in v for v in violations)
        assert any("S7" in v for v in violations)

    def test_summary_high_water_drift(self, kernel, iosnap):
        ppn = kernel.run_process(iosnap.write_proc(0, b"x"))
        index = iosnap.log.segment_of(ppn).index
        iosnap._epoch_index.max_seq[index] += 7
        assert any("S7" in v and "high-water" in v for v in fsck(iosnap))
