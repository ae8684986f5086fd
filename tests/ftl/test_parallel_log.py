"""Unit tests for the parallel data path: stripes, heads, queues, kill.

The multi-head log (PR 6) partitions the segment pool into per-channel
stripes, runs one die-affine append head per channel (configurable),
and routes every program through per-die submission queues.  These
tests pin the allocator and queue invariants the design depends on;
end-to-end behaviour (crash recovery, equivalence with the single-head
log) lives in tests/integration and tests/torture.
"""

import pytest

from repro.bench.configs import bench_iosnap_config, bench_nand
from repro.core.iosnap import IoSnapDevice
from repro.errors import FtlError, PowerLossError
from repro.ftl.log import Log, SegmentState, stripe_head
from repro.nand.device import NandDevice
from repro.nand.geometry import NandConfig, NandGeometry
from repro.nand.oob import OobHeader, PageKind
from repro.sim import Kernel
from repro.workloads import gather, io_stream, random_writes
from repro.workloads.generators import Op

from tests.conftest import make_iosnap, tiny_geometry


@pytest.fixture
def device(kernel):
    # 2 channels -> 2 stripes; 4 dies, 4 blocks each -> 16 segments.
    geo = NandGeometry(page_size=512, pages_per_block=4, blocks_per_die=4,
                       dies=4, channels=2)
    return NandDevice(kernel, NandConfig(geometry=geo))


@pytest.fixture
def log(kernel, device):
    return Log(kernel, device, blocks_per_segment=1, reserve_segments=2)


def data_header(lba, seq):
    return OobHeader(kind=PageKind.DATA, lba=lba, seq=seq)


def append(kernel, log, lba=0, seq=1, head=None, privileged=False):
    def proc():
        return (yield from log.append(data_header(lba, seq), None,
                                      privileged=privileged, head=head))
    return kernel.run_process(proc())


class TestGeometryValidation:
    def test_dies_must_divide_by_channels(self):
        with pytest.raises(ValueError, match="channels"):
            NandGeometry(page_size=512, pages_per_block=4, blocks_per_die=4,
                         dies=3, channels=2)

    def test_even_split_accepted(self):
        geo = NandGeometry(page_size=512, pages_per_block=4,
                           blocks_per_die=4, dies=8, channels=4)
        assert geo.dies == 8


class TestStriping:
    def test_stripe_is_die_mod_channels(self, log):
        for seg in log.segments:
            die = seg.first_ppn // log.device.geometry.pages_per_die
            assert log.stripe_of_segment(seg.index) == die % 2

    def test_free_pool_partitioned_by_stripe(self, log):
        for stripe in (0, 1):
            for index in log._free[stripe]:
                assert log.stripe_of_segment(index) == stripe

    def test_reserve_drawn_round_robin(self, log):
        # reserve target >= num_stripes, split evenly across stripes.
        assert log.reserve_target == 2
        assert log.reserve_segment_count(0) == 1
        assert log.reserve_segment_count(1) == 1

    def test_reserve_target_floors_at_stripe_count(self, kernel, device):
        lone = Log(kernel, device, reserve_segments=1)
        assert lone.reserve_target == 2  # raised to one per stripe

    def test_stripe_of_head_parses_suffix(self, log):
        assert log.stripe_of_head("user") == 0
        assert log.stripe_of_head("user.1") == 1
        assert log.stripe_of_head("gc") == 0
        assert log.stripe_of_head("gc-cold.1") == 1
        assert log.stripe_of_head("gc-cold") == 0

    def test_stripe_head_naming(self):
        assert stripe_head("gc", 0) == "gc"
        assert stripe_head("gc", 1) == "gc.1"


class TestHeadRouting:
    def test_user_head_for_is_stable(self, log):
        assert log.user_head_count == 2
        for lba in range(8):
            assert log.user_head_for(lba) == log.user_head_for(lba)
        assert {log.user_head_for(lba) for lba in range(8)} == \
            {"user", "user.1"}

    def test_heads_open_segments_in_their_stripe(self, kernel, log):
        append(kernel, log, lba=0, seq=1, head="user")
        append(kernel, log, lba=1, seq=2, head="user.1")
        seg0 = log._open["user"]
        seg1 = log._open["user.1"]
        assert log.stripe_of_segment(seg0.index) == 0
        assert log.stripe_of_segment(seg1.index) == 1

    def test_heads_write_to_distinct_dies(self, kernel, log):
        ppn0 = append(kernel, log, lba=0, seq=1, head="user")[0]
        ppn1 = append(kernel, log, lba=1, seq=2, head="user.1")[0]
        pages_per_die = log.device.geometry.pages_per_die
        assert ppn0 // pages_per_die != ppn1 // pages_per_die

    def test_cross_stripe_borrowing(self, kernel, log):
        # Drain stripe 0's free pool entirely; the stripe-0 head must
        # borrow from stripe 1 rather than stall.
        log._free[0].clear()
        append(kernel, log, lba=0, seq=1, head="user")
        seg = log._open["user"]
        assert log.stripe_of_segment(seg.index) == 1

    def test_single_head_config_uses_plain_name(self, kernel, device):
        lone = Log(kernel, device, user_heads=1)
        assert lone.user_head_count == 1
        assert lone.user_head_for(3) == "user"

    def test_zero_heads_rejected(self, kernel, device):
        with pytest.raises(FtlError, match="head"):
            Log(kernel, device, user_heads=0)


class TestForceClose:
    def test_force_close_by_stripe(self, kernel, log):
        append(kernel, log, lba=0, seq=1, head="user")
        append(kernel, log, lba=1, seq=2, head="user.1")
        closed = log.force_close_head(stripe=1)
        assert closed
        assert log._open.get("user.1") is None
        assert log._open["user"] is not None
        assert log.segments[[s.index for s in log.closed_segments(1)][0]] \
            .state is SegmentState.CLOSED


class TestSubmissionQueues:
    def test_counters_track_programs(self, kernel, log):
        queues = log.device.queues
        append(kernel, log, lba=0, seq=1, head="user")
        snapshot = queues.snapshot()
        # One segment header + one data page, all completed, queue idle.
        assert sum(snapshot["submitted"]) == 2
        assert sum(snapshot["completed"]) == 2
        assert sum(snapshot["failed"]) == 0
        assert sum(snapshot["depth"]) == 0

    def test_discard_queued_drops_pending(self, kernel, device):
        queues = device.queues
        header = data_header(0, 1)
        # Submit without running the kernel: requests sit queued.
        queues.submit(0, header, None, "write.data")
        queues.submit(1, header, None, "write.data")
        assert queues.depth(0) >= 1
        dropped = queues.discard_queued()
        assert dropped >= 1
        assert sum(queues.depths()) == 0

    def test_dead_queues_fail_submissions(self, kernel, device):
        queues = device.queues
        queues._power_died(PowerLossError("cut"))
        ack, _done = queues.submit(0, data_header(0, 1), None, "write.data")
        assert ack.triggered

        def waiter():
            yield ack

        with pytest.raises(PowerLossError):
            kernel.run_process(waiter())


class TestProcessKill:
    def test_kill_runs_finally_blocks(self, kernel):
        cleaned = []

        def proc():
            try:
                yield kernel.event()   # parks forever
            finally:
                cleaned.append(True)

        p = kernel.spawn(proc(), name="victim")
        kernel.run(until=0)
        p.kill()
        assert p.done
        assert cleaned == [True]

    def test_kill_ignores_inflight_resume(self, kernel):
        ev = kernel.event()

        def proc():
            yield ev
            raise AssertionError("resumed after kill")

        p = kernel.spawn(proc(), name="victim")
        kernel.run(until=0)
        ev.trigger()   # resume scheduled...
        p.kill()       # ...but the process dies first
        kernel.run(until=0)
        assert p.done
        assert p.error is None

    def test_kill_finished_process_is_noop(self, kernel):
        def proc():
            return 7
            yield  # pragma: no cover

        p = kernel.spawn(proc(), name="done")
        kernel.run(until=0)
        assert p.result == 7
        p.kill()
        assert p.result == 7


class TestParallelInfo:
    def test_info_surfaces_parallel_metrics(self, kernel):
        device = make_iosnap(kernel, geometry=tiny_geometry())
        for lba in range(8):
            device.write(lba, b"x")
        info = device.info()["parallel"]
        assert info["stripes"] == 2
        assert info["user_heads"] == 2
        assert sum(info["per_head_appends"].values()) == 8
        assert sum(info["per_head_bytes"].values()) > 0
        assert 0.0 < info["stripe_balance"] <= 1.0
        assert sum(info["queues"]["submitted"]) >= 8
        assert sum(info["queues"]["depth"]) == 0

    def test_balance_reflects_skew(self, kernel):
        device = make_iosnap(kernel, geometry=tiny_geometry())
        for _ in range(8):
            device.write(0, b"x")   # one head only
        info = device.parallel_info()
        assert info["stripe_balance"] == 0.0


class TestSaturation:
    """Channel sweep over a fixed 8-die array with concurrent writers:
    one die-affine head per channel must overlap programs across dies,
    so simulated write time shrinks as channels are added."""

    JOBS = 8
    PAGES = 1024
    # Well below ideal scaling, so only a re-serialized data path (a
    # collapsed head count, a queue that stopped overlapping dies) trips.
    SPEEDUP_FLOORS = {2: 1.5, 4: 3.0, 8: 4.0}
    BALANCE_FLOOR = 0.5

    def _sweep_point(self, channels):
        kernel = Kernel()
        geometry = NandGeometry(page_size=4096, pages_per_block=32,
                                blocks_per_die=32, dies=8, channels=channels)
        # parallel_heads=0: one head per channel (the device default;
        # the figure configs pin a single head).
        device = IoSnapDevice.create(kernel, bench_nand(geometry),
                                     bench_iosnap_config(parallel_heads=0))
        span = self.PAGES // self.JOBS
        started_ns = kernel.now
        # Disjoint LBA windows: concurrency comes from the jobs, not
        # from racing writes to the same block.
        streams = [
            io_stream(kernel, device,
                      (Op(op.kind, op.lba + job * span)
                       for op in random_writes(span, span, seed=61 + job)))
            for job in range(self.JOBS)]
        gather(kernel, streams)
        return kernel.now - started_ns, device

    def test_heads_scale_with_channels(self):
        sim_ns = {}
        for channels in (1, 2, 4, 8):
            sim_ns[channels], device = self._sweep_point(channels)
            assert device.log.user_head_count == channels
            if channels > 1:
                balance = device.parallel_info()["stripe_balance"]
                assert balance >= self.BALANCE_FLOOR, (channels, balance)
        for channels, floor in self.SPEEDUP_FLOORS.items():
            speedup = sim_ns[1] / sim_ns[channels]
            assert speedup >= floor, (channels, speedup)
