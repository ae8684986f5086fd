"""Tests for snapshot activation (scan, rate limiting, writable clones)."""

import math
import random

import pytest

from repro.core.activation import _scan_batch_size
from repro.errors import SnapshotError
from repro.ftl.ratelimit import DutyCycleLimiter, NullLimiter


class TestActivation:
    def test_activation_builds_correct_map(self, iosnap):
        data = {}
        for lba in range(60):
            payload = f"v-{lba}".encode()
            iosnap.write(lba, payload)
            data[lba] = payload
        iosnap.snapshot_create("s")
        view = iosnap.snapshot_activate("s")
        assert len(view.map) == 60
        for lba, payload in data.items():
            assert view.read(lba)[:len(payload)] == payload
        view.deactivate()

    def test_activation_reflects_overwrites_before_snapshot(self, iosnap):
        iosnap.write(0, b"first")
        iosnap.write(0, b"last-before-snap")
        iosnap.snapshot_create("s")
        view = iosnap.snapshot_activate("s")
        assert view.read(0)[:16] == b"last-before-snap"
        view.deactivate()

    def test_deep_snapshot_includes_all_ancestors(self, iosnap):
        iosnap.write(0, b"e0")
        iosnap.snapshot_create("s1")
        iosnap.write(1, b"e1")
        iosnap.snapshot_create("s2")
        iosnap.write(2, b"e2")
        iosnap.snapshot_create("s3")
        view = iosnap.snapshot_activate("s3")
        assert view.read(0)[:2] == b"e0"
        assert view.read(1)[:2] == b"e1"
        assert view.read(2)[:2] == b"e2"
        view.deactivate()

    def test_parallel_activations(self, iosnap):
        iosnap.write(0, b"a")
        iosnap.snapshot_create("s1")
        iosnap.write(0, b"b")
        iosnap.snapshot_create("s2")
        v1 = iosnap.snapshot_activate("s1")
        v2 = iosnap.snapshot_activate("s2")
        assert len(iosnap.activations()) == 2
        assert v1.read(0)[:1] == b"a"
        assert v2.read(0)[:1] == b"b"
        v1.deactivate()
        v2.deactivate()
        assert iosnap.activations() == []

    def test_reactivation_after_deactivate(self, iosnap):
        iosnap.write(0, b"x")
        iosnap.snapshot_create("s")
        view = iosnap.snapshot_activate("s")
        view.deactivate()
        again = iosnap.snapshot_activate("s")
        assert again.read(0)[:1] == b"x"
        again.deactivate()

    def test_read_after_deactivate_raises(self, iosnap):
        iosnap.snapshot_create("s")
        view = iosnap.snapshot_activate("s")
        view.deactivate()
        with pytest.raises(SnapshotError, match="deactivated"):
            view.read(0)

    def test_deactivate_twice_raises(self, iosnap):
        iosnap.snapshot_create("s")
        view = iosnap.snapshot_activate("s")
        view.deactivate()
        with pytest.raises(SnapshotError):
            iosnap.snapshot_deactivate(view)

    def test_activation_report_recorded(self, iosnap):
        for lba in range(40):
            iosnap.write(lba, b"x")
        iosnap.snapshot_create("s")
        iosnap.snapshot_activate("s").deactivate()
        report = iosnap.snap_metrics.activation_reports[-1]
        assert report["snapshot"] == "s"
        assert report["entries"] == 40
        assert report["scan_ns"] > 0
        assert report["total_ns"] >= report["scan_ns"]

    def test_activation_time_grows_with_log(self, iosnap):
        iosnap.write(0, b"x")
        iosnap.snapshot_create("early")
        view = iosnap.snapshot_activate("early")
        small = iosnap.snap_metrics.activation_reports[-1]["total_ns"]
        view.deactivate()
        for lba in range(400):
            iosnap.write(lba, b"y")
        view = iosnap.snapshot_activate("early")
        large = iosnap.snap_metrics.activation_reports[-1]["total_ns"]
        view.deactivate()
        assert large > small

    def test_rate_limited_activation_is_slower(self, kernel, iosnap):
        for lba in range(100):
            iosnap.write(lba, b"x")
        iosnap.snapshot_create("s")
        view = iosnap.snapshot_activate("s")
        fast = iosnap.snap_metrics.activation_reports[-1]["total_ns"]
        view.deactivate()
        # Drop the warm-activation residue: this test compares the
        # *cold* scan with and without a rate limiter.
        iosnap._residues.clear()
        limiter = DutyCycleLimiter.from_paper_knob(kernel, 100, 2)
        view = iosnap.snapshot_activate("s", limiter=limiter)
        slow = iosnap.snap_metrics.activation_reports[-1]["total_ns"]
        view.deactivate()
        assert slow > 2 * fast
        assert limiter.total_slept_ns > 0

    def test_cold_scan_reads_headers_in_bursts_of_16(self, iosnap):
        for lba in range(150):
            iosnap.write(lba, b"x")
        iosnap.snapshot_create("s")
        iosnap.snapshot_activate("s").deactivate()
        counters = iosnap.activation_counters
        assert counters["pages_scanned"] > 16
        assert counters["header_batches"] == \
            math.ceil(counters["pages_scanned"] / 16)

    def test_duty_cycle_limiter_shrinks_the_burst(self, kernel, iosnap):
        assert _scan_batch_size(iosnap, NullLimiter()) == 16
        per_read_ns = iosnap.nand.timing.read_page_ns + 300
        limiter = DutyCycleLimiter(kernel, work_ns=5 * per_read_ns + 7,
                                   sleep_ns=1_000)
        assert _scan_batch_size(iosnap, limiter) == 5
        big = DutyCycleLimiter(kernel, work_ns=40 * per_read_ns,
                               sleep_ns=1_000)
        assert _scan_batch_size(iosnap, big) == 16  # capped at the burst

    def test_activated_map_is_compact(self, iosnap):
        rng = random.Random(1)
        for _ in range(500):
            iosnap.write(rng.randrange(300), b"x")
        snap = iosnap.snapshot_create("s")
        view = iosnap.snapshot_activate("s")
        assert view.map.memory_bytes() <= snap.map_bytes_at_create
        view.deactivate()

    def test_activation_survives_concurrent_cleaning(self, kernel, iosnap):
        # Fill, snapshot, churn hard enough to force cleaning, then
        # activate while more churn happens in the background.
        data = {}
        for lba in range(150):
            payload = f"snap-{lba}".encode()
            iosnap.write(lba, payload)
            data[lba] = payload
        iosnap.snapshot_create("s")
        rng = random.Random(5)
        for i in range(2400):
            iosnap.write(rng.randrange(400), bytes([i % 256]))
        assert iosnap.cleaner.segments_cleaned > 0

        from repro.workloads import io_stream, random_writes
        stop = [False]
        writer = kernel.spawn(
            io_stream(kernel, iosnap, random_writes(5000, 400, seed=6),
                      stop_flag=stop), name="bg-writer")

        def orchestrate():
            view = yield from iosnap.snapshot_activate_proc("s")
            stop[0] = True
            return view

        view = kernel.run_process(orchestrate())
        kernel.run_process(_join(writer))
        for lba, payload in data.items():
            assert view.read(lba)[:len(payload)] == payload
        view.deactivate()


def _join(proc):
    yield proc


class TestWritableActivations:
    def test_read_only_by_default(self, iosnap):
        iosnap.snapshot_create("s")
        view = iosnap.snapshot_activate("s")
        assert not view.writable
        with pytest.raises(SnapshotError, match="read-only"):
            view.write(0, b"nope")
        view.deactivate()

    def test_writable_clone_isolated(self, iosnap_writable):
        device = iosnap_writable
        device.write(0, b"prod")
        device.snapshot_create("s")
        clone = device.snapshot_activate("s")
        clone.write(0, b"test")
        assert clone.read(0)[:4] == b"test"
        assert device.read(0)[:4] == b"prod"
        clone.deactivate()

    def test_clone_writes_do_not_survive_reactivation(self, iosnap_writable):
        device = iosnap_writable
        device.write(0, b"orig")
        device.snapshot_create("s")
        clone = device.snapshot_activate("s")
        clone.write(0, b"scratch")
        clone.deactivate()
        fresh = device.snapshot_activate("s")
        assert fresh.read(0)[:4] == b"orig"
        fresh.deactivate()

    def test_clone_epoch_registered_while_active(self, iosnap_writable):
        device = iosnap_writable
        device.write(0, b"x")
        device.snapshot_create("s")
        clone = device.snapshot_activate("s")
        epochs = [e for e, _ in device.live_epoch_bitmaps()]
        assert clone.epoch in epochs
        clone.deactivate()
        epochs = [e for e, _ in device.live_epoch_bitmaps()]
        assert clone.epoch not in epochs

    def test_clone_out_of_range_write(self, iosnap_writable):
        device = iosnap_writable
        device.snapshot_create("s")
        clone = device.snapshot_activate("s")
        with pytest.raises(SnapshotError):
            clone.write(device.num_lbas, b"x")
        clone.deactivate()
