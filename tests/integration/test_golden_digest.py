"""Golden simulation digests: a slip in simulated behaviour fails here.

Each configuration runs a seeded script and pins two numbers exactly:

- the *outcome*, ``VslDevice.state_digest()``: virtual time, NAND op
  counts, per-head appends, cleaner totals, forward map, snapshot list;
- the *work*, ``kernel.events``: how many items the kernel scheduled.

A host-side optimisation must leave every outcome pin unchanged.  It may
move an event pin only by scheduling less work for the same outcome,
and then says so.  A change that is meant to move the simulation updates
the outcome pins and says why.
"""

import random

import pytest

from repro.core.diff import snapshot_diff_proc
from repro.ftl.ratelimit import DutyCycleLimiter
from repro.sim import Kernel

from tests.conftest import make_iosnap, small_geometry, tiny_geometry

OPS = 500

GOLDEN = {
    "one_head_ram_map":
        "a7bd57b0add27c1d415be985f829de13e91545c7f94cbe062d0e31925a25d697",
    "four_heads_map_cache":
        "0a269a9e6c21899e33341d71c1d8685dedf744085a78dbf664ba45e3987e7a9c",
    "snapshot_churn":
        "6c0ba43537bbdd887e3412a02ecf44f80ab5ba592c36cde0ec6d093a270cee3a",
    "activation_under_load":
        "59a74433ab9960d02881de138ede97aa0eff18aff171e3b120f6de8bedb03dbf",
}
EVENTS = {
    "one_head_ram_map": 3854,
    "four_heads_map_cache": 4247,
    "snapshot_churn": 6693,
    "activation_under_load": 19184,
}

CONFIGS = {
    "one_head_ram_map": (dict(parallel_heads=1), False),
    "four_heads_map_cache": (dict(parallel_heads=4, map_cache_pages=4), False),
    "snapshot_churn": (dict(parallel_heads=1), True),
}


def run_seeded(config, snapshots: bool, seed: int = 2014):
    """500 ops of 95 % writes and 5 % trims over 85 % of the LBAs.

    With ``snapshots`` a snapshot is created every 60 ops and the
    oldest is deleted once more than 3 are live; the newest is
    activated at op 250, read every 10 ops, and deactivated at op 400.
    """
    dev = make_iosnap(Kernel(), geometry=tiny_geometry(), **config)
    rng = random.Random(seed)
    span = int(dev.num_lbas * 0.85)
    activated = None
    for i in range(OPS):
        if snapshots and i % 60 == 59:
            dev.snapshot_create()
            live = dev.snapshots()
            if len(live) > 3:
                dev.snapshot_delete(live[0])
        if snapshots and i == 250:
            activated = dev.snapshot_activate(dev.snapshots()[-1])
        if activated is not None and i % 10 == 0:
            activated.read(rng.randrange(span))
        if snapshots and i == 400:
            dev.snapshot_deactivate(activated)
            activated = None
        if rng.random() < 0.05:
            dev.trim(rng.randrange(span))
        else:
            dev.write(rng.randrange(span), bytes([i % 256]))
    dev.kernel.run()
    return dev


def run_activation_under_load(seed: int = 2014):
    """Activation scans racing foreground I/O on the same dies.

    Seeded history: snapshots ``a`` and ``b`` over three write phases.
    Then, while a foreground process keeps reading and writing (one op
    every 30 us), an admin process runs a limiter-paced cold activation
    of ``a``, deactivates it, lets more writes land, re-activates ``a``
    warm (a delta rescan over its residue) and diffs ``a`` against
    ``b`` — every scan kind beside live traffic.
    """
    dev = make_iosnap(Kernel(), geometry=small_geometry(), parallel_heads=2)
    kernel = dev.kernel
    rng = random.Random(seed)
    span = int(dev.num_lbas * 0.6)
    for phase, name in ((700, "a"), (400, "b"), (200, None)):
        for i in range(phase):
            dev.write(rng.randrange(span), bytes([i % 256]))
        if name is not None:
            dev.snapshot_create(name)
    stop = []

    def foreground():
        i = 0
        while not stop:
            lba = rng.randrange(span)
            if i % 3 == 0:
                yield from dev.read_proc(lba)
            else:
                yield from dev.write_proc(lba, bytes([i % 256]))
            yield 30_000
            i += 1

    def admin():
        limiter = DutyCycleLimiter(kernel, work_ns=200_000,
                                   sleep_ns=1_000_000)
        cold = yield from dev.snapshot_activate_proc("a", limiter)
        yield 2_000_000
        yield from dev.snapshot_deactivate_proc(cold)
        yield 3_000_000
        warm = yield from dev.snapshot_activate_proc("a")
        yield from dev.snapshot_deactivate_proc(warm)
        diff = yield from snapshot_diff_proc(dev, "a", "b")
        stop.append(True)
        return diff

    kernel.spawn(foreground(), name="foreground")
    diff = kernel.run_process(admin(), name="admin")
    kernel.run()
    modes = [r["mode"] for r in dev.snap_metrics.activation_reports]
    assert modes == ["selective", "delta"]
    assert diff.changed
    return dev


def _run(name):
    if name == "activation_under_load":
        return run_activation_under_load()
    config, snapshots = CONFIGS[name]
    dev = run_seeded(config, snapshots)
    assert dev.cleaner.segments_cleaned > 0  # the cleaner really ran
    return dev


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_state_digest_is_pinned(name):
    dev = _run(name)
    assert (dev.state_digest(), dev.kernel.events) \
        == (GOLDEN[name], EVENTS[name])


def test_digest_sees_a_one_op_difference():
    config, snapshots = CONFIGS["one_head_ram_map"]
    dev = run_seeded(config, snapshots)
    before = dev.state_digest()
    assert dev.state_digest() == before  # reading it changes nothing
    dev.write(0, b"one more")
    assert dev.state_digest() != before


def test_kernel_events_counts_scheduled_work():
    kernel = Kernel()
    assert kernel.events == 0

    def proc():
        yield 10

    kernel.run_process(proc())
    assert kernel.events >= 2  # the spawn and the timed resume
