"""Tests for clean-shutdown checkpointing and crash recovery (base FTL)."""

import random

import pytest

from repro.errors import CheckpointError
from repro.ftl import checkpoint, recovery
from repro.ftl.checkpoint import restore_checkpoint
from repro.ftl.fsck import fsck
from repro.ftl.recovery import fold_winners
from repro.ftl.vsl import FtlConfig, VslDevice
from repro.nand.geometry import NandConfig
from repro.nand.oob import OobHeader, PageKind

from tests.conftest import small_geometry


def make_device(kernel):
    return VslDevice.create(kernel, NandConfig(geometry=small_geometry()),
                            FtlConfig())


def write_pattern(device, count=200, span=60, seed=0):
    rng = random.Random(seed)
    model = {}
    for i in range(count):
        lba = rng.randrange(span)
        data = bytes([i % 256, lba % 256]) + b"payload"
        device.write(lba, data)
        model[lba] = data
    return model


def verify(device, model):
    for lba, data in model.items():
        assert device.read(lba)[:len(data)] == data


class TestCheckpoint:
    def test_shutdown_reopen_restores_everything(self, kernel):
        device = make_device(kernel)
        model = write_pattern(device)
        device.shutdown()
        reopened = VslDevice.open(kernel, device.nand)
        verify(reopened, model)
        assert len(reopened.map) == len(model)

    def test_checkpoint_restores_seq_counter(self, kernel):
        device = make_device(kernel)
        write_pattern(device, count=50)
        seq_before = device._next_seq
        device.shutdown()
        reopened = VslDevice.open(kernel, device.nand)
        assert reopened._next_seq == seq_before

    def test_reopen_is_crash_armed(self, kernel):
        device = make_device(kernel)
        model = write_pattern(device, count=50)
        device.shutdown()
        reopened = VslDevice.open(kernel, device.nand)
        assert reopened.nand.superblock["clean"] is False
        # Crash now: recovery (not checkpoint restore) must still work.
        reopened.write(0, b"after-reopen")
        reopened.crash()
        model[0] = b"after-reopen"
        again = VslDevice.open(kernel, reopened.nand)
        verify(again, model)

    def test_write_after_reopen_continues_log(self, kernel):
        device = make_device(kernel)
        write_pattern(device, count=50)
        device.shutdown()
        reopened = VslDevice.open(kernel, device.nand)
        reopened.write(0, b"fresh")
        assert reopened.read(0)[:5] == b"fresh"

    def test_restore_without_checkpoint_raises(self, kernel):
        device = make_device(kernel)

        def proc():
            yield from restore_checkpoint(device)

        with pytest.raises(CheckpointError):
            kernel.run_process(proc())

    def test_corrupt_checkpoint_falls_back_to_recovery(self, kernel):
        device = make_device(kernel)
        model = write_pattern(device, count=80)
        device.shutdown()
        # Corrupt one checkpoint page on the media.
        sb = device.nand.superblock
        victim = sb["checkpoint_ppns"][0]
        record = device.nand.array.read(victim)
        record.data = b"\x00garbage" + bytes(64)
        reopened = VslDevice.open(kernel, device.nand)
        verify(reopened, model)  # log recovery saved the day

    def test_missing_checkpoint_pages_fall_back(self, kernel):
        device = make_device(kernel)
        model = write_pattern(device, count=40)
        device.shutdown()
        device.nand.superblock["checkpoint_ppns"] = [
            device.nand.geometry.total_pages - 1]  # points nowhere useful
        reopened = VslDevice.open(kernel, device.nand)
        verify(reopened, model)

    def test_older_version_is_refused_and_log_recovers(self, kernel,
                                                        monkeypatch):
        device = make_device(kernel)
        model = write_pattern(device, count=80)
        monkeypatch.setattr(checkpoint, "CHECKPOINT_VERSION", 3)
        device.shutdown()  # a well-formed blob stamped version 3
        monkeypatch.undo()

        fresh = VslDevice(kernel, device.nand, FtlConfig())

        def proc():
            yield from restore_checkpoint(fresh)

        with pytest.raises(CheckpointError, match="version 3"):
            kernel.run_process(proc())
        fresh.cleaner.stop()
        kernel.run()
        assert device.nand.superblock["clean"]

        scans = []
        real_recover = recovery.recover

        def counting_recover(ftl):
            scans.append(ftl)
            return real_recover(ftl)

        monkeypatch.setattr(recovery, "recover", counting_recover)
        reopened = VslDevice.open(kernel, device.nand)
        assert scans == [reopened]  # opened through the log scan
        verify(reopened, model)
        assert fsck(reopened) == []

    def test_trims_survive_checkpoint(self, kernel):
        device = make_device(kernel)
        device.write(5, b"doomed")
        device.trim(5)
        device.shutdown()
        reopened = VslDevice.open(kernel, device.nand)
        assert reopened.read(5) == bytes(reopened.block_size)


class TestCheckpointGenerations:
    """Checkpoint generations: counter, CRC stamp, prev fallback."""

    def test_generation_and_crc_stamped(self, kernel):
        device = make_device(kernel)
        write_pattern(device, count=30)
        device.shutdown()
        sb = device.nand.superblock
        assert sb["checkpoint_gen"] == 1
        assert isinstance(sb["checkpoint_crc"], int)
        assert sb.get("prev_checkpoint") is None

    def test_second_shutdown_keeps_prev_descriptor(self, kernel):
        device = make_device(kernel)
        write_pattern(device, count=30)
        device.shutdown()
        first = dict(device.nand.superblock)
        reopened = VslDevice.open(kernel, device.nand)
        reopened.write(0, b"gen2")
        reopened.shutdown()
        sb = reopened.nand.superblock
        assert sb["checkpoint_gen"] == 2
        prev = sb["prev_checkpoint"]
        assert prev["gen"] == 1
        assert prev["ppns"] == first["checkpoint_ppns"]
        assert prev["crc"] == first["checkpoint_crc"]

    def test_crc_catches_single_bit_rot(self, kernel):
        device = make_device(kernel)
        model = write_pattern(device, count=60)
        device.shutdown()
        victim = device.nand.superblock["checkpoint_ppns"][0]
        record = device.nand.array.read(victim)
        flipped = bytearray(record.data)
        flipped[7] ^= 0x01
        record.data = bytes(flipped)
        reopened = VslDevice.open(kernel, device.nand)
        verify(reopened, model)  # CRC rejects the page; fallback restores

    def test_corrupt_newest_falls_back_to_prev_plus_replay(self, kernel):
        device = make_device(kernel)
        model = write_pattern(device, count=40)
        device.shutdown()
        reopened = VslDevice.open(kernel, device.nand)
        reopened.write(1, b"after-gen1")
        model[1] = b"after-gen1"
        reopened.shutdown()
        sb = reopened.nand.superblock
        for ppn in sb["checkpoint_ppns"]:
            reopened.nand.array.read(ppn).data = b"\x00torn" + bytes(32)
        again = VslDevice.open(kernel, reopened.nand)
        # The gen-1 checkpoint validates, and the log replay on top of
        # it must resurface the write made after gen 1.
        verify(again, model)

    def test_both_generations_corrupt_still_recovers_from_log(self, kernel):
        device = make_device(kernel)
        model = write_pattern(device, count=40)
        device.shutdown()
        reopened = VslDevice.open(kernel, device.nand)
        reopened.write(2, b"latest")
        model[2] = b"latest"
        reopened.shutdown()
        sb = reopened.nand.superblock
        ppns = list(sb["checkpoint_ppns"]) + list(sb["prev_checkpoint"]["ppns"])
        for ppn in ppns:
            reopened.nand.array.read(ppn).data = b"\x00junk" + bytes(32)
        again = VslDevice.open(kernel, reopened.nand)
        verify(again, model)


class TestCrashRecovery:
    def test_recovery_restores_data(self, kernel):
        device = make_device(kernel)
        model = write_pattern(device)
        device.crash()
        recovered = VslDevice.open(kernel, device.nand)
        verify(recovered, model)
        assert len(recovered.map) == len(model)

    def test_recovery_latest_write_wins(self, kernel):
        device = make_device(kernel)
        for version in range(10):
            device.write(3, bytes([version]))
        device.crash()
        recovered = VslDevice.open(kernel, device.nand)
        assert recovered.read(3)[0] == 9

    def test_recovery_after_cleaning(self, kernel):
        device = make_device(kernel)
        model = write_pattern(device, count=2000, span=100, seed=3)
        assert device.cleaner.segments_cleaned > 0
        device.crash()
        recovered = VslDevice.open(kernel, device.nand)
        verify(recovered, model)

    def test_recovery_honours_trim(self, kernel):
        device = make_device(kernel)
        device.write(8, b"gone")
        device.trim(8)
        device.crash()
        recovered = VslDevice.open(kernel, device.nand)
        assert recovered.read(8) == bytes(recovered.block_size)

    def test_recovery_write_after_trim_wins(self, kernel):
        device = make_device(kernel)
        device.write(8, b"one")
        device.trim(8)
        device.write(8, b"two")
        device.crash()
        recovered = VslDevice.open(kernel, device.nand)
        assert recovered.read(8)[:3] == b"two"

    def test_recovery_seq_counter_advances(self, kernel):
        device = make_device(kernel)
        write_pattern(device, count=30)
        old_seq = device._next_seq
        device.crash()
        recovered = VslDevice.open(kernel, device.nand)
        assert recovered._next_seq >= old_seq
        recovered.write(0, b"x")  # new writes must not reuse seq numbers

    def test_recovery_of_empty_device(self, kernel):
        device = make_device(kernel)
        device.crash()
        recovered = VslDevice.open(kernel, device.nand)
        assert len(recovered.map) == 0
        recovered.write(0, b"first")
        assert recovered.read(0)[:5] == b"first"

    def test_recovery_can_repeat(self, kernel):
        device = make_device(kernel)
        model = write_pattern(device, count=100)
        for _ in range(3):
            device.crash()
            device = VslDevice.open(kernel, device.nand)
            verify(device, model)

    def test_recovered_map_is_compact(self, kernel):
        device = make_device(kernel)
        write_pattern(device, count=1000, span=400, seed=9)
        fragmented = device.map.memory_bytes()
        device.crash()
        recovered = VslDevice.open(kernel, device.nand)
        assert recovered.map.memory_bytes() <= fragmented


class TestFoldWinners:
    class FakePacket:
        def __init__(self, ppn, kind, lba, seq, epoch=0):
            self.ppn = ppn
            self.header = OobHeader(kind=kind, lba=lba, seq=seq, epoch=epoch)
            self.note = None

    def test_highest_seq_wins(self):
        packets = [
            self.FakePacket(1, PageKind.DATA, lba=0, seq=1),
            self.FakePacket(2, PageKind.DATA, lba=0, seq=5),
            self.FakePacket(3, PageKind.DATA, lba=0, seq=3),
        ]
        assert fold_winners(packets) == {0: (5, 2)}

    def test_equal_seq_later_position_wins(self):
        packets = [
            self.FakePacket(1, PageKind.DATA, lba=0, seq=5),
            self.FakePacket(9, PageKind.DATA, lba=0, seq=5),
        ]
        assert fold_winners(packets) == {0: (5, 9)}

    def test_trim_kills_older_data(self):
        packets = [
            self.FakePacket(1, PageKind.DATA, lba=0, seq=1),
            self.FakePacket(2, PageKind.NOTE_TRIM, lba=0, seq=2),
        ]
        assert fold_winners(packets) == {}

    def test_data_after_trim_survives(self):
        packets = [
            self.FakePacket(1, PageKind.DATA, lba=0, seq=1),
            self.FakePacket(2, PageKind.NOTE_TRIM, lba=0, seq=2),
            self.FakePacket(3, PageKind.DATA, lba=0, seq=3),
        ]
        assert fold_winners(packets) == {0: (3, 3)}

    def test_epoch_filter(self):
        packets = [
            self.FakePacket(1, PageKind.DATA, lba=0, seq=1, epoch=0),
            self.FakePacket(2, PageKind.DATA, lba=0, seq=2, epoch=7),
        ]
        assert fold_winners(packets, epoch_filter=frozenset({0})) == \
            {0: (1, 1)}
