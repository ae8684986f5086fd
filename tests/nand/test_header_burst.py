"""A header burst schedules exactly what per-page scan processes did.

The oracle is the scan the burst replaced: one spawned ``read_header``
process per page (the generator below is that process's body, kept
verbatim), joined in list order.  Both scans run against the same
concurrent traffic on the same dies and channel — a foreground reader,
queued programs, and a reader the scan's issuer starts right after
issuing — and must agree on every resource operation, every page's
completion and hand-over time, the final clock, and the NAND and media
counters.  The last test starts each burst read as its own ready item
(a mutant) and checks that the comparison notices.
"""

import pytest

from repro.errors import UncorrectableError
from repro.faults.harness import correctable_heavy_config
from repro.faults.model import FaultPlan, MediaFaultModel
from repro.nand import device as device_module
from repro.nand.device import NandDevice
from repro.nand.geometry import NandConfig, NandGeometry
from repro.nand.oob import HEADER_SIZE, OobHeader, PageKind
from repro.sim import Kernel, Resource
from repro.torture import sites

# Two dies on one channel: a scan that crosses from die 0 into die 1
# (a segment boundary) overlaps its own senses and queues on the bus.
GEOMETRY = NandGeometry(page_size=4096, pages_per_block=8, blocks_per_die=4,
                        dies=2, channels=1)
SCAN = list(range(16, 24)) + list(range(32, 40))


def _spawned_read_header(device, ppn, completions):
    """Body of one per-page scan process (the pre-burst read_header)."""
    header = device.array.read_header(ppn)
    resolution = device._resolve_read(ppn)
    die, channel = device._resources_for(ppn)
    if not die.try_acquire():
        yield die.acquire()
    try:
        yield device.timing.read_page_ns
        if resolution is not None and resolution.retries:
            yield device._retry_cost_ns(resolution)
    finally:
        die.release()
    if not channel.try_acquire():
        yield channel.acquire()
    try:
        yield device._header_xfer_ns
    finally:
        channel.release()
    completions.append((device.kernel.now, ppn))
    if resolution is not None:
        device._account_read(ppn, resolution)
        if not resolution.ok:
            return None
    device.stats.header_reads += 1
    device.stats.bytes_read += HEADER_SIZE
    return header


def spawned_scan(device, ppns, deliver, after_issue, completions):
    procs = [device.kernel.spawn(
        _spawned_read_header(device, ppn, completions), name=f"scan@{ppn}")
        for ppn in ppns]
    after_issue()
    for ppn, proc in zip(ppns, procs):
        header = yield proc
        deliver(ppn, header)


def burst_scan(device, ppns, deliver, after_issue, completions):
    del completions  # recorded by the advance() hook in _record_burst
    done = device.read_headers(ppns, deliver)
    after_issue()
    yield done


def _label(actor):
    if actor is None or actor.name.startswith("scan@"):
        return "scan"
    return actor.name


def _instrument(device, trace):
    """Log every die/channel operation: when, which, by whom, result."""
    kernel = device.kernel

    def hook(res):
        def try_acquire():
            ok = Resource.try_acquire(res)
            trace.append(("try", kernel.now, res.name,
                          _label(kernel.current), ok))
            return ok

        def acquire():
            trace.append(("wait", kernel.now, res.name,
                          _label(kernel.current)))
            return Resource.acquire(res)

        def park(callback):
            trace.append(("wait", kernel.now, res.name, "scan"))
            Resource.park(res, callback)

        def release():
            granted = None
            if res._waiting:
                waiter, actor = res._waiting[0]
                granted = (f"scan {waiter.ppn}" if hasattr(waiter, "ppn")
                           else f"scan {actor.name[5:]}"
                           if actor.name.startswith("scan@")
                           else actor.name)
            trace.append(("release", kernel.now, res.name, granted))
            Resource.release(res)

        res.try_acquire = try_acquire
        res.acquire = acquire
        res.park = park
        res.release = release

    for res in device._dies + device._channels:
        hook(res)


def _header(lba):
    return OobHeader(kind=PageKind.DATA, lba=lba, seq=lba)


def _populate(kernel, device):
    def program_all():
        for base in (0, GEOMETRY.pages_per_die):
            for ppn in range(base, base + 24):
                done = yield from device.program_page(ppn, _header(ppn), None)
                yield done

    kernel.run_process(program_all())


def drive(scan, plan=None, record_burst=None):
    """Run ``scan`` beside foreground traffic; return what was observed."""
    kernel = Kernel()
    faults = MediaFaultModel(plan) if plan is not None else None
    device = NandDevice(kernel, NandConfig(geometry=GEOMETRY), faults=faults)
    _populate(kernel, device)
    trace, completions, delivered, lost = [], [], [], []
    if record_burst is not None:
        record_burst(device, completions)
    _instrument(device, trace)

    def deliver(ppn, header):
        delivered.append((kernel.now, ppn,
                          None if header is None else header.lba))

    def read_pages(name, ppns, gap_ns):
        for ppn in ppns:
            try:
                yield from device.read_page(ppn)
            except UncorrectableError:
                lost.append((name, ppn))
            yield gap_ns

    def writer():
        for index, ppn in enumerate((24, 56, 25, 57, 26, 58)):
            ack, _done = device.queues.submit(ppn, _header(100 + index),
                                              None, sites.NAND_PROGRAM)
            yield ack
            yield 15_000

    def late_reader():
        kernel.spawn(read_pages("late", [17, 33, 18], 1_000), name="late")

    def issuer():
        yield 30_000
        yield from scan(device, SCAN, deliver, late_reader, completions)
        return kernel.now

    kernel.spawn(read_pages("fg", [0, 40, 1, 41, 2, 42, 3, 43, 4, 44],
                            7_000), name="fg")
    kernel.spawn(writer(), name="writer")
    scan_done = kernel.run_process(issuer(), name="issuer")
    kernel.run()
    return {
        "trace": trace,
        "completions": sorted(completions),
        "delivered": delivered,
        "lost": lost,
        "scan_done": scan_done,
        "now": kernel.now,
        "stats": vars(device.stats),
        "media": device.media.as_dict(),
        "faults": faults.state_digest() if faults is not None else None,
    }


def _record_burst(monkeypatch):
    """Per-page completion times of burst reads (the oracle logs its own)."""
    def install(device, completions):
        advance = device_module._HeaderRead.advance

        def recorded(read):
            wait = advance(read)
            if read.stage == device_module._DONE and wait is None:
                completions.append((read.device.kernel.now, read.ppn))
            return wait

        monkeypatch.setattr(device_module._HeaderRead, "advance", recorded)

    return install


PLANS = {
    "fault_free": None,
    "correctable_retries": FaultPlan(config=correctable_heavy_config(7)),
    "uncorrectable_salvage": FaultPlan(uncorrectable_reads=(4, 9, 13)),
}


@pytest.mark.parametrize("case", sorted(PLANS))
def test_burst_matches_spawned_scan(case, monkeypatch):
    plan = PLANS[case]
    oracle = drive(spawned_scan, plan)
    burst = drive(burst_scan, plan, _record_burst(monkeypatch))
    assert burst == oracle
    # Every page came back in list order, across the die boundary.
    assert [ppn for _t, ppn, _lba in burst["delivered"]] == SCAN
    assert len(burst["completions"]) == len(SCAN)
    waits = [op for op in burst["trace"] if op[0] == "wait"]
    assert any(op[3] == "scan" for op in waits)   # scan reads queued
    assert any(op[3] != "scan" for op in waits)   # and so did traffic
    if case == "correctable_retries":
        assert burst["media"]["read_retries"] > 0
        assert burst["media"]["uncorrectable_reads"] == 0
    if case == "uncorrectable_salvage":
        casualties = [ppn for _t, ppn, lba in burst["delivered"]
                      if lba is None]
        assert casualties
        assert burst["stats"]["header_reads"] == len(SCAN) - len(casualties)


def test_starting_each_read_as_its_own_item_is_caught(monkeypatch):
    """Mutant: the burst queues one ready item per read instead of
    running every first step in its own start item."""
    oracle = drive(spawned_scan)

    def one_item_per_read(burst):
        kernel = burst.reads[0].device.kernel
        for read in burst.reads:
            kernel.call_at(kernel.now, read)

    monkeypatch.setattr(device_module._HeaderBurst, "__call__",
                        one_item_per_read)
    mutant = drive(burst_scan, None, _record_burst(monkeypatch))
    assert len(mutant["completions"]) == len(SCAN)
    assert mutant["trace"] != oracle["trace"]
    assert mutant["completions"] != oracle["completions"]


def test_read_header_keeps_its_sequential_form():
    """One page, stepped inline: salvage returns None, otherwise raise."""
    kernel = Kernel()
    device = NandDevice(kernel, NandConfig(geometry=GEOMETRY),
                        faults=MediaFaultModel(
                            FaultPlan(uncorrectable_reads=(2, 3))))
    _populate(kernel, device)

    def reads():
        first = yield from device.read_header(5)
        salvaged = yield from device.read_header(6, salvage=True)
        return first.lba, salvaged

    assert kernel.run_process(reads()) == (5, None)
    with pytest.raises(UncorrectableError):
        kernel.run_process(device.read_header(7))
    assert device.stats.header_reads == 1
    assert device.media["uncorrectable_reads"] == 2
    assert not any(res.in_use for res in device._dies + device._channels)
