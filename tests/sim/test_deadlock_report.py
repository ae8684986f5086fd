"""The structured waits-for deadlock report (satellite of PR 8).

These tests run WITHOUT ``REPRO_RACES=1``: the report is part of the
plain kernel, not the opt-in detector.
"""

import pytest

from repro.nand.device import NandDevice
from repro.nand.geometry import NandConfig, NandGeometry
from repro.nand.oob import OobHeader, PageKind
from repro.sim import Kernel, Lock, SimError


def _inversion(kernel):
    """Classic AB/BA inversion; returns the two spawned processes."""
    la = Lock(kernel, name="lock.a")
    lb = Lock(kernel, name="lock.b")

    def worker(first, second):
        yield first.acquire()
        yield 10                  # park so the other grabs its first lock
        yield second.acquire()
        second.release()
        first.release()

    pa = kernel.spawn(worker(la, lb), name="ab")
    pb = kernel.spawn(worker(lb, la), name="ba")
    pa._error_observed = pb._error_observed = True
    return pa, pb


def test_lock_inversion_reports_waits_for_graph(kernel):
    pa, pb = _inversion(kernel)

    def joiner():
        yield pa
        yield pb

    with pytest.raises(SimError) as exc_info:
        kernel.run_process(joiner(), name="joiner")
    message = str(exc_info.value)
    # Keeps the historic keyword plus the full structured graph.
    assert "deadlocked" in message
    assert "waits-for graph" in message
    assert "'ab' waits on Lock 'lock.b' held by 'ba'" in message
    assert "'ba' waits on Lock 'lock.a' held by 'ab'" in message


def test_blocked_processes_and_graph_introspection(kernel):
    pa, pb = _inversion(kernel)
    kernel.run()                 # drains; both stay parked, nobody errors
    blocked = kernel.blocked_processes()
    assert sorted(proc.name for proc, _target in blocked) == ["ab", "ba"]
    graph = kernel.waits_for_graph()
    by_name = {entry["process"]: entry for entry in graph}
    assert by_name["ab"]["waits_on"] == "Lock 'lock.b'"
    assert by_name["ab"]["holders"] == ["ba"]
    assert by_name["ba"]["waits_on"] == "Lock 'lock.a'"
    assert by_name["ba"]["holders"] == ["ab"]


def test_event_wait_names_the_event(kernel):
    ev = kernel.event()

    def waiter():
        yield ev

    proc = kernel.spawn(waiter(), name="parked")
    kernel.run()
    graph = kernel.waits_for_graph()
    assert graph and graph[0]["process"] == "parked"
    assert graph[0]["waits_on"] == "event"
    assert graph[0]["holders"] == []
    ev.trigger()
    kernel.run()
    assert kernel.waits_for_graph() == []
    assert proc._done


def test_join_wait_names_the_target_process(kernel):
    def sleeper():
        yield kernel.event()     # parks forever

    def joiner(target):
        yield target

    target = kernel.spawn(sleeper(), name="sleeper")
    kernel.spawn(joiner(target), name="joiner")
    kernel.run()
    graph = kernel.waits_for_graph()
    by_name = {entry["process"]: entry for entry in graph}
    assert by_name["joiner"]["waits_on"] == "process 'sleeper'"


def test_deadlock_report_without_parked_process(kernel):
    """run_process on a generator that just stops being runnable."""
    ev = kernel.event()           # never triggered

    def stuck():
        yield ev

    with pytest.raises(SimError, match="deadlocked"):
        kernel.run_process(stuck(), name="stuck")


def test_stalled_header_burst_names_the_die_it_waits_on(kernel):
    """A burst read has no process; the report still names its wait."""
    geometry = NandGeometry(page_size=4096, pages_per_block=8,
                            blocks_per_die=4, dies=2, channels=1)
    device = NandDevice(kernel, NandConfig(geometry=geometry))
    die1 = geometry.pages_per_die

    def program():
        for ppn in (0, die1):
            done = yield from device.program_page(
                ppn, OobHeader(kind=PageKind.DATA, lba=ppn), None)
            yield done

    kernel.run_process(program())
    die = device._dies[1]

    def hog():
        yield die.acquire()
        die.hand_off()        # the die is never released

    kernel.run_process(hog(), name="hog")

    def scan():
        yield device.read_headers([0, die1], lambda ppn, header: None)

    with pytest.raises(SimError) as exc_info:
        kernel.run_process(scan(), name="scanner")
    message = str(exc_info.value)
    assert "'scanner' waits on an untriggered event" in message
    assert (f"'header-burst@0: ppn {die1}' waits on Resource 'nand.die:1' "
            "held by '<main>'") in message
    assert device.stats.header_reads == 1   # the die-0 read completed
