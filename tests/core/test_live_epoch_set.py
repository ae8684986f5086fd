"""The live epoch set changes in one place and every reader sees it.

``IoSnapDevice._set_epoch_bitmaps`` is the only writer of the live
epoch set.  Each change bumps a version; ``live_epoch_bitmaps()``
re-sorts its cached read-only tuple and ``_merged_valid_cache()`` drops
its counts only when that version moves.
"""

from repro.core.cow_bitmap import merged_count_range
from repro.core.iosnap import IoSnapDevice


def brute_merged(device, seg) -> int:
    bitmaps = [bm for _epoch, bm in sorted(device._epoch_bitmaps.items())]
    return merged_count_range(bitmaps, seg.first_ppn, seg.npages)


def assert_readers_current(device, seg) -> None:
    live = device.live_epoch_bitmaps()
    assert isinstance(live, tuple)
    assert live == tuple(sorted(device._epoch_bitmaps.items()))
    assert device.live_epoch_bitmaps() is live  # cached until a change
    assert device._estimate_valid_count(seg) == brute_merged(device, seg)


def epochs(device):
    return [epoch for epoch, _bm in device.live_epoch_bitmaps()]


def test_every_epoch_change_reaches_the_readers(kernel, iosnap_writable):
    device = iosnap_writable
    for lba in range(16):
        device.write(lba, b"v1")
    seg = device.log.segment_of(device.map.get(0))
    assert_readers_current(device, seg)

    def changes(action):
        """Run ``action``; the version moves and the cached merged
        count for ``seg`` is dropped."""
        version = device._epoch_set_version
        assert seg.index in device._merged_valid_cache()
        result = action()
        assert device._epoch_set_version == version + 1
        assert seg.index not in device._merged_valid_cache()
        assert_readers_current(device, seg)
        return result

    snap = changes(lambda: device.snapshot_create("s"))
    assert epochs(device) == [snap.epoch, device.tree.active_epoch]
    for lba in range(16):
        device.write(lba, b"v2")  # the old copies live on only in "s"
    assert_readers_current(device, seg)

    clone = changes(lambda: device.snapshot_activate("s"))
    assert clone.epoch in epochs(device)
    changes(clone.deactivate)
    assert clone.epoch not in epochs(device)

    retained = device._estimate_valid_count(seg)
    changes(lambda: device.snapshot_delete("s"))
    assert snap.epoch not in epochs(device)
    assert device._estimate_valid_count(seg) < retained

    device.snapshot_create("t")
    live_before = epochs(device)
    device.shutdown()
    reopened = IoSnapDevice.open(kernel, device.nand)  # checkpoint load
    assert reopened._epoch_set_version > 0
    assert epochs(reopened) == live_before
    assert_readers_current(reopened, reopened.log.segments[seg.index])


def test_read_only_deactivation_leaves_the_set_alone(iosnap):
    iosnap.write(0, b"x")
    iosnap.snapshot_create("s")
    view = iosnap.snapshot_activate("s")
    version = iosnap._epoch_set_version
    live = iosnap.live_epoch_bitmaps()
    view.deactivate()
    assert iosnap._epoch_set_version == version
    assert iosnap.live_epoch_bitmaps() is live
