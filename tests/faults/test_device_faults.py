"""Device-level fault behavior: scrubbing, healing, degraded mode."""

import pytest

from repro.core.iosnap import IoSnapConfig, IoSnapDevice
from repro.errors import DegradedModeError, UncorrectableError
from repro.faults.ecc import EccConfig
from repro.faults.model import FaultConfig, FaultPlan, MediaFaultModel
from repro.ftl.scrub import Scrubber
from repro.nand.geometry import NandConfig
from repro.sim import Kernel

from tests.conftest import small_geometry, tiny_geometry


def make_faulty(plan, geometry=None, **config_overrides):
    kernel = Kernel()
    device = IoSnapDevice.create(
        kernel, NandConfig(geometry=geometry or small_geometry()),
        IoSnapConfig(**config_overrides), faults=MediaFaultModel(plan))
    return kernel, device


class TestScrubberPreservesEpochValidity:
    def test_scrub_relocation_keeps_every_epoch_and_every_byte(self):
        # Every page seeds 10 bits: past the scrub threshold (the ECC
        # base budget, 8) but comfortably inside the retry ladder's
        # reach (20), so patrols relocate everything live they touch.
        plan = FaultPlan(config=FaultConfig(seed=5, program_wear_bits=10))
        kernel, device = make_faulty(plan)
        for lba in range(40):
            device.write(lba, f"v1-{lba}".encode())
        device.snapshot_create("s0")
        for lba in range(20):
            device.write(lba, f"v2-{lba}".encode())

        total = device.nand.geometry.total_pages
        before = {epoch: bitmap.count_range(0, total)
                  for epoch, bitmap in device.live_epoch_bitmaps()}
        assert len(before) == 2  # frozen s0 epoch + active epoch

        relocated = 0
        for _ in range(64):
            kernel.run_process(device.scrubber.scrub_pass(), name="scrub")
            relocated = device.scrubber.counters["pages_relocated"]
            if relocated >= 60:
                break
        assert relocated >= 60  # the whole live set was rewritten

        after = {epoch: bitmap.count_range(0, total)
                 for epoch, bitmap in device.live_epoch_bitmaps()}
        assert after == before  # no epoch lost (or gained) a valid bit
        assert device.damage.summary()["entries"] == 0

        view = device.snapshot_activate("s0")
        for lba in range(40):
            want = f"v1-{lba}".encode()
            assert view.read(lba)[:len(want)] == want
        view.deactivate()
        for lba in range(20):
            want = f"v2-{lba}".encode()
            assert device.read(lba)[:len(want)] == want


class TestScrubThreshold:
    def test_threshold_is_the_ecc_base_budget(self):
        plan = FaultPlan(config=FaultConfig(
            seed=5, ecc=EccConfig(correctable_bits=5)))
        _kernel, device = make_faulty(plan)
        assert device.scrubber.threshold_bits == 5

    def test_fault_free_device_never_scrubs(self, iosnap):
        assert iosnap.scrubber is None
        for lba in range(40):
            iosnap.write(lba, b"x")
        scrubber = Scrubber(iosnap)
        nand = iosnap.nand
        assert all(nand.media_error_bits(ppn) < scrubber.threshold_bits
                   for ppn in range(nand.geometry.total_pages))


class TestSelfHealing:
    def test_program_fail_is_invisible_to_the_caller(self):
        plan = FaultPlan(config=FaultConfig(), program_fails=(3,))
        _kernel, device = make_faulty(plan)
        for lba in range(6):
            device.write(lba, f"w{lba}".encode())
        for lba in range(6):
            want = f"w{lba}".encode()
            assert device.read(lba)[:len(want)] == want
        assert device.info()["media"]["program_fails_recovered"] == 1

    def test_mapped_uncorrectable_read_raises_typed_error(self):
        _kernel, device = make_faulty(
            FaultPlan(config=FaultConfig(), uncorrectable_reads=(1,)))
        device.write(0, b"doomed")
        with pytest.raises(UncorrectableError):
            device.read(0)
        assert device.damage.covers(0)


class TestDegradedMode:
    def test_relentless_erase_failures_latch_read_only(self):
        # Every erase fails and condemns its block; the cleaner's
        # reclaim attempts retire segment after segment until the
        # surviving pool cannot back the exported LBAs.
        plan = FaultPlan(config=FaultConfig(seed=3, erase_fail_interval=1))
        _kernel, device = make_faulty(plan, geometry=tiny_geometry())
        tripped = False
        for i in range(20_000):
            try:
                device.write(i % 50, bytes([i % 256]))
            except DegradedModeError:
                tripped = True
                break
        assert tripped, "device never entered degraded mode"
        assert device.degraded
        assert "reserve" in (device.degraded_reason or "")
        # Read-only survival: reads still serve, writes stay rejected.
        assert isinstance(device.read(0), bytes)
        with pytest.raises(DegradedModeError):
            device.write(0, b"nope")
        with pytest.raises(DegradedModeError):
            device.trim(0)
        info = device.info()["media"]
        assert info["degraded"] and info["degraded_reason"]
