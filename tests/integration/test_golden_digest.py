"""Golden simulation digests: a slip in simulated behaviour fails here.

Three configurations each run 500 seeded ops and compare
``VslDevice.state_digest()`` (virtual time, kernel events, NAND op
counts, per-head appends, cleaner totals, forward map, snapshot list)
against a pinned hex digest.  A host-side optimisation must leave every
digest unchanged; a change that is meant to move the simulation updates
the pins and says why.
"""

import random

import pytest

from repro.sim import Kernel

from tests.conftest import make_iosnap, tiny_geometry

OPS = 500

GOLDEN = {
    "one_head_ram_map":
        "f1142bc382a70cf0ee8ad6a6faf233013180a103e641773e73eca33f79dc23bc",
    "four_heads_map_cache":
        "843cbbd996d420878fe8d11b1ef14ac9c6c55bb4564e6aa155d5be08391a0960",
    "snapshot_churn":
        "cd0bc9bc7d0852adf86a8f06adafb4e9f8c3635719f307d19c43fec7317becc8",
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


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_state_digest_is_pinned(name):
    config, snapshots = CONFIGS[name]
    dev = run_seeded(config, snapshots)
    assert dev.cleaner.segments_cleaned > 0  # the cleaner really ran
    assert dev.state_digest() == GOLDEN[name]


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
