"""The cleaner's occupancy index agrees with a brute-force scan.

``SegmentCleaner.select_candidate`` reads per-segment occupancy (merged
valid + live notes + live MAP pages) from an index that the validity,
note-registry and map owners keep current by marking segments dirty.
Here every cleaner wake is checked against a reference written from
first principles: it recounts every closed segment straight from the
epoch bitmaps, the note registry on the media and the GTD, then picks
a victim with the selection loop the index replaced.  Every cached
entry must also equal its recount.
"""

import itertools
import random

import pytest

from repro import sanitize
from repro.core.cow_bitmap import merged_count_range
from repro.core.iosnap import IoSnapDevice
from repro.errors import SanitizerError
from repro.ftl.log import SegmentState
from repro.sim import Kernel
from repro.sim.kernel import SimError

from tests.conftest import make_iosnap, tiny_geometry

MAPS = {
    "ram": {},
    "cache4": dict(map_cache_pages=4),
    "cache4_span8": dict(map_cache_pages=4, map_span=8),
}

CELLS = list(itertools.product(
    ("greedy", "cost_benefit"), (1, 4), sorted(MAPS), (False, True),
    (False, True)))


def brute_occupancy(device):
    """segment index -> occupied, recounted from first principles."""
    seg_pages = device.log.segment_pages
    bitmaps = [bm for _epoch, bm in sorted(device._epoch_bitmaps.items())]
    counts = {seg.index: merged_count_range(bitmaps, seg.first_ppn,
                                            seg.npages)
              for seg in device.log.segments}
    array = device.nand.array
    for ppn in device._note_registry:
        if array.is_programmed(ppn) \
                and device._note_is_live(ppn, array.read_header(ppn)):
            counts[ppn // seg_pages] += 1
    if device.map_is_cached:
        for ppn in device.map._gtd:
            if ppn is not None:
                counts[ppn // seg_pages] += 1
    return counts


def reference_select(device, stripe, occupancy):
    """The pre-index selection loop, over brute-force counts."""
    geometry = device.nand.geometry
    closed = [seg for seg in device.log.segments
              if seg.state is SegmentState.CLOSED]
    newest_seq = max((seg.seq for seg in closed), default=0)
    best, best_score = None, None
    for seg in closed:
        seg_stripe = (seg.first_ppn // geometry.pages_per_die) \
            % geometry.channels
        if stripe is not None and seg_stripe != stripe:
            continue
        if seg.index in device.cleaner._cleaning:
            continue
        occupied = occupancy[seg.index]
        if occupied >= seg.data_capacity:
            continue
        if device.config.gc_policy == "greedy":
            score = -occupied
        else:
            u = occupied / seg.data_capacity
            age = newest_seq - seg.seq + 1
            score = (1.0 - u) * age / (1.0 + u)
        if best_score is None or score > best_score:
            best, best_score = seg, score
    return best


def check_every_wake(device):
    """Wrap ``select_candidate`` so each wake is checked against the
    reference; returns a one-element list counting the checked wakes.

    A disagreement raises inside the cleaner worker, and the kernel
    reports the dead worker as a ``SimError`` caused by it: a stale
    index can livelock the cleaner, so the run must stop at once.
    """
    cleaner = device.cleaner
    indexed = cleaner.select_candidate
    wakes = [0]

    def checked(stripe=None):
        choice = indexed(stripe)
        occupancy = brute_occupancy(device)
        expected = reference_select(device, stripe, occupancy)
        assert choice is expected, (
            f"stripe {stripe}: index picked "
            f"{getattr(choice, 'index', None)}, brute force "
            f"{getattr(expected, 'index', None)}")
        for index, occupied in cleaner.occupancy.items():
            assert occupied == occupancy[index], (
                f"segment {index}: index says {occupied}, brute force "
                f"{occupancy[index]}")
        wakes[0] += 1
        return choice

    cleaner.select_candidate = checked
    return wakes


def churn(device, seed: int, ops: int, snapshots: bool) -> None:
    """A sequential fill of 40 % of the LBAs, then seeded overwrites
    with 5 % trims; with ``snapshots``, a snapshot every 25 ops, three
    live ones rotating, and one writable activation kept open."""
    rng = random.Random(seed)
    span = int(device.num_lbas * 0.4)
    for lba in range(span):
        device.write(lba)
    clone = None
    for i in range(ops):
        if snapshots and i % 25 == 24:
            device.snapshot_create()
            pinned = clone.snapshot.snap_id if clone is not None else None
            live = [s for s in device.snapshots() if s.snap_id != pinned]
            if len(device.snapshots()) > 3:
                device.snapshot_delete(live[0])
        if snapshots and i == 50:
            clone = device.snapshot_activate(device.snapshots()[-1])
        if clone is not None and i % 7 == 0:
            clone.write(rng.randrange(span), b"clone")
        if rng.random() < 0.05:
            device.trim(rng.randrange(span))
        else:
            device.write(rng.randrange(span), bytes([i % 256]))
    device.kernel.run()


def build(policy, heads, map_mode, snapshots, cold):
    # A reserve of 4: with cold segregation each of the 2 stripes opens
    # two GC heads, and the default reserve of 2 runs dry on this tiny
    # device once snapshots pin old data.  A high watermark starts the
    # cleaner after ~20 of the 32 segments fill, so a short run wakes
    # it many times.
    return make_iosnap(Kernel(), geometry=tiny_geometry(),
                       gc_policy=policy, parallel_heads=heads,
                       gc_segregate_cold=cold, gc_reserve_segments=4,
                       gc_low_watermark=12,
                       writable_activations=snapshots, **MAPS[map_mode])


@pytest.mark.parametrize("policy,heads,map_mode,snapshots,cold", CELLS)
def test_index_matches_brute_force(policy, heads, map_mode, snapshots,
                                   cold):
    device = build(policy, heads, map_mode, snapshots, cold)
    wakes = check_every_wake(device)
    seed = CELLS.index((policy, heads, map_mode, snapshots, cold))
    churn(device, seed=seed, ops=150, snapshots=snapshots)
    assert wakes[0] > 0
    assert device.cleaner.segments_cleaned > 0


def _mutant_note_bitmap_mutation(self, bit: int) -> None:
    """``_note_bitmap_mutation`` without the occupancy dirty mark."""
    self._seg_merged_valid.pop(bit // self.log.segment_pages, None)


def test_dropped_dirty_mark_fails_the_property(monkeypatch):
    monkeypatch.setattr(IoSnapDevice, "_note_bitmap_mutation",
                        _mutant_note_bitmap_mutation)
    monkeypatch.setattr(sanitize, "enabled", False)  # the test's own check
    device = build("greedy", 1, "ram", True, False)
    check_every_wake(device)
    with pytest.raises(SimError) as caught:
        churn(device, seed=7, ops=150, snapshots=True)
    assert isinstance(caught.value.__cause__, AssertionError)
    assert "brute force" in str(caught.value.__cause__)


def test_dropped_dirty_mark_fails_the_sanitizer(monkeypatch):
    monkeypatch.setattr(IoSnapDevice, "_note_bitmap_mutation",
                        _mutant_note_bitmap_mutation)
    monkeypatch.setattr(sanitize, "enabled", True)
    device = build("greedy", 1, "ram", True, False)
    # The check fires inside a cleaner worker; the kernel reports the
    # dead worker with the sanitizer error as its cause.
    with pytest.raises(SimError) as caught:
        churn(device, seed=7, ops=150, snapshots=True)
    assert isinstance(caught.value.__cause__, SanitizerError)
    assert "occupancy index stale" in str(caught.value.__cause__)
