"""The equivalence property: full ≡ chained incremental ≡ readback.

For randomized workloads with trims and cleaner churn, replicating
``0 -> s2`` in one full stream and replicating ``0 -> s0 -> s1 -> s2``
as an incremental chain must both reproduce exactly the per-LBA
digests a direct activation readback of the source reports.
"""

import random

import pytest

from repro.bench.configs import bench_iosnap_config, medium_geometry
from repro.core.iosnap import IoSnapDevice
from repro.nand.geometry import NandConfig
from repro.replicate import CursorStore, replicate
from repro.sim import Kernel
from repro.workloads import random_writes, run_stream
from tests.conftest import make_iosnap

SNAPSHOTS = ("s0", "s1", "s2")


def build_source(kernel, seed):
    """Seeded history: three chained snapshots, trims, forced GC."""
    device = make_iosnap(kernel)
    rng = random.Random(seed)
    span = 48

    def burst(count, tag_base):
        for i in range(count):
            lba = rng.randrange(span)
            if rng.random() < 0.12:
                device.trim(lba)
            else:
                device.write(lba, f"{tag_base}-{i}-{lba}".encode())

    burst(120, "gen0")
    device.snapshot_create("s0")
    burst(60, "gen1")
    device.snapshot_create("s1")
    burst(60, "gen2")
    device.snapshot_create("s2")
    burst(80, "churn")  # post-target churn: cleaner fodder
    for _ in range(3):
        candidate = device.cleaner.select_candidate()
        if candidate is None:
            break
        kernel.run_process(
            device.cleaner.clean_segment(candidate, paced=False),
            name="forced-gc")
    return device


def digests(device, name):
    activated = device.snapshot_activate(name)
    try:
        return activated.content_digests()
    finally:
        device.snapshot_deactivate(activated)


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_full_equals_chained_equals_readback(seed):
    kernel = Kernel()
    source = build_source(kernel, seed)
    truth = {name: digests(source, name) for name in SNAPSHOTS}

    # Full send straight to the tip.
    full_sink = make_iosnap(kernel)
    replicate(source, full_sink, None, "s2", CursorStore())
    assert digests(full_sink, "s2") == truth["s2"]

    # Chained incrementals through every intermediate snapshot.
    chain_sink = make_iosnap(kernel)
    store = CursorStore()
    previous = None
    for name in SNAPSHOTS:
        report = replicate(source, chain_sink, previous, name, store)
        if previous is not None:
            assert report["mode"] == "delta"
        previous = name
    for name in SNAPSHOTS:
        assert digests(chain_sink, name) == truth[name]

    # Transitivity: the two replicas agree with each other, too.
    assert digests(chain_sink, "s2") == digests(full_sink, "s2")


def test_incremental_is_smaller_than_full():
    kernel = Kernel()
    source = build_source(kernel, 21)
    store = CursorStore()
    sink = make_iosnap(kernel)
    full = replicate(source, sink, None, "s0", store)
    incr = replicate(source, sink, "s0", "s1", store)
    assert incr["pages_scanned"] < full["pages_scanned"] + incr["extent_total"]
    assert incr["extent_total"] <= full["extent_total"]
    assert incr["segments_skipped"] > 0

    # On a 5%-dirty fig8-sized source the delta planner must pay off in
    # simulated send time, not just in pages scanned: it reads only the
    # segments holding delta epochs and ships only the dirty blocks.
    def medium_device():
        return IoSnapDevice.create(
            kernel, NandConfig(geometry=medium_geometry()),
            bench_iosnap_config())

    span = 256
    source = medium_device()
    for lba in range(span):
        source.write(lba, f"base-{lba}".encode())
    source.snapshot_create("base")
    dirty = range(0, span, 20)
    for lba in dirty:
        source.write(lba, f"dirty-{lba}".encode())
    source.snapshot_create("target")
    run_stream(kernel, source, random_writes(128, span, seed=97))

    full_sink = medium_device()
    full = replicate(source, full_sink, None, "target", CursorStore())
    incr_sink = medium_device()
    store = CursorStore()
    replicate(source, incr_sink, None, "base", store)
    incr = replicate(source, incr_sink, "base", "target", store)
    assert incr["mode"] == "delta"
    assert incr["extent_total"] == len(dirty)
    assert full["extent_total"] == span
    assert digests(incr_sink, "target") == digests(full_sink, "target")
    speedup = full["send_ns"] / incr["send_ns"]
    assert speedup >= 10.0, speedup
