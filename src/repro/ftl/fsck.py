"""Offline consistency checker ("fsck") for the FTL and ioSnap.

Audits the invariants the rest of the system relies on, by comparing
the in-memory structures against what is actually on the media.  Runs
outside virtual time (it is a debugging/validation tool, like a
device's offline diagnostics):

Base FTL invariants
  F1  every forward-map entry points at a programmed DATA page whose
      OOB header carries the same LBA;
  F2  no two LBAs share a physical page;
  F3  the validity bitmap marks exactly the mapped pages;
  F4  segment bookkeeping matches the media (header pages, sequence
      numbers, programmed extents; FREE segments are erased);
  F5  every registered note is programmed with a matching kind.

ioSnap invariants (additionally)
  S1  the active epoch's bitmap marks exactly the mapped pages;
  S2  every live snapshot's bitmap equals the fold of on-media packets
      over its epoch path (the ground truth an activation would build);
  S3  every valid bit in any live epoch points at a programmed page
      whose epoch lies on that epoch's path;
  S4  the epoch counter exceeds every epoch present on the media;
  S5  per-segment epoch summaries are supersets of the epochs actually
      present (they may over-approximate, never under-approximate);
  S6  activation state never leaks: every ACTIVATION-branch epoch that
      owns a validity bitmap belongs to a currently-open activation
      (after crash recovery there are none — activations die with
      host memory, §5.5);
  S7  the durable epoch-summary index is *exact*: each segment's
      stored epoch set and max-seq high-water mark equal a recompute
      from the OOB headers (the delta-rescan and warm-activation
      machinery assume exactness, not S5's superset leniency).

Flash-resident-map invariants (when ``map_cache_pages`` > 0)
  G1  every GTD entry points at a programmed MAP page whose OOB
      header and payload name that translation page with this
      device's span;
  G2  the dirty set and the resident pages' dirty flags agree, and
      every dirty page is resident (non-resident implies clean
      implies the GTD's flash copy is current);
  G3  the cleaner's per-segment live-MAP-page counts equal a recount
      from the GTD.

Media-fault invariants (when a fault model is attached)
  M1  no forward-map entry points into a RETIRED segment;
  M2  no validity bit (any live epoch) marks a page of a RETIRED
      segment;
  M3  no registered note lives on a RETIRED segment.

Pages recorded ``lost`` in the damage manifest are excluded from the
S2 media folds: the runtime dropped them from every structure when the
loss was recorded, and fsck's job is to prove the structures and the
manifest moved in lockstep (a lost page that still has a validity bit
somewhere IS a violation, and shows up as one).  The S5/S7 summary
audits keep seeing lost pages — the epoch-summary index describes what
is physically programmed, exactly like the raw-OOB recompute it is
checked against.

Usage::

    from repro.ftl.fsck import fsck
    violations = fsck(device)
    assert not violations, "\\n".join(violations)
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Tuple

from repro.core.snaptree import BranchKind
from repro.errors import SnapshotError
from repro.ftl.log import SegmentState
from repro.ftl.validity import iter_word_bits
from repro.nand.oob import PageKind

_NOTE_KIND_BY_TYPE = {
    "TrimNote": PageKind.NOTE_TRIM,
    "SnapCreateNote": PageKind.NOTE_SNAP_CREATE,
    "SnapDeleteNote": PageKind.NOTE_SNAP_DELETE,
    "SnapActivateNote": PageKind.NOTE_SNAP_ACTIVATE,
    "SnapDeactivateNote": PageKind.NOTE_SNAP_DEACTIVATE,
}


def fsck(device) -> List[str]:
    """Run every applicable invariant check; return violations found."""
    violations = _check_base(device)
    if hasattr(device, "tree"):  # ioSnap device
        violations.extend(_check_iosnap(device))
    return violations


# ---------------------------------------------------------------------------
# Page-wise bitmap comparison
# ---------------------------------------------------------------------------
# Bitmap audits used to expand every set bit into a Python set and
# diff the sets; on a realistic device that is millions of ints for a
# check that almost always finds nothing.  Instead, fold the expected
# ppns into per-page words and compare word against word (one XOR and
# popcount per bitmap page), expanding individual bit indices only for
# the pages that actually mismatch.
def _expected_words(ppns: Iterable[int], bits_per_page: int) -> Dict[int, int]:
    """Fold a set of ppns into {bitmap page index: word}."""
    words: Dict[int, int] = {}
    for ppn in ppns:
        idx = ppn // bits_per_page
        words[idx] = words.get(idx, 0) | 1 << (ppn % bits_per_page)
    return words


def _bitmap_page_diffs(get_word: Callable[[int], int],
                       expected: Dict[int, int], page_count: int,
                       bits_per_page: int,
                       ) -> Iterator[Tuple[List[int], List[int]]]:
    """Yield (extra bits, missing bits) for each mismatching page."""
    for page_idx in range(page_count):
        actual = get_word(page_idx)
        want = expected.get(page_idx, 0)
        diff = actual ^ want
        if not diff:
            continue
        base = page_idx * bits_per_page
        yield (list(iter_word_bits(diff & actual, base)),
               list(iter_word_bits(diff & want, base)))


# ---------------------------------------------------------------------------
# Base FTL
# ---------------------------------------------------------------------------
def _check_base(device) -> List[str]:
    out: List[str] = []
    array = device.nand.array
    seen_ppns: Dict[int, int] = {}

    for lba, ppn in device.map.items():
        if not array.is_programmed(ppn):
            out.append(f"F1: lba {lba} maps to unprogrammed ppn {ppn}")
            continue
        header = array.read_header(ppn)
        if header.kind is not PageKind.DATA:
            out.append(f"F1: lba {lba} maps to non-DATA page {ppn} "
                       f"({header.kind.name})")
        elif header.lba != lba:
            out.append(f"F1: lba {lba} maps to ppn {ppn} whose header "
                       f"says lba {header.lba}")
        if ppn in seen_ppns:
            out.append(f"F2: ppn {ppn} shared by lbas {seen_ppns[ppn]} "
                       f"and {lba}")
        seen_ppns[ppn] = lba

    # F3 only applies to the base FTL's single bitmap (ioSnap replaces
    # it with per-epoch CoW bitmaps, checked as S1).
    if hasattr(device, "validity"):
        bitmap = device.validity
        expected = _expected_words(seen_ppns, bitmap.bits_per_page)
        for extras, missings in _bitmap_page_diffs(
                bitmap.page_word, expected, bitmap.page_count,
                bitmap.bits_per_page):
            for extra in extras:
                out.append(f"F3: validity bit set for unmapped ppn {extra}")
            for missing in missings:
                out.append(f"F3: mapped ppn {missing} not marked valid")

    out.extend(_check_segments(device))
    out.extend(_check_notes(device))
    out.extend(_check_retired(device))
    if getattr(device, "map_is_cached", False):
        out.extend(_check_mapcache(device))
    return out


def _check_mapcache(device) -> List[str]:
    """GTD audit for the flash-resident forward map (G1-G3).

    G1  every GTD entry points at a programmed MAP page whose header
        and payload name the same translation page with the device's
        span;
    G2  the dirty set only names resident pages that are marked dirty
        (the non-resident => clean => flash-copy-current invariant);
    G3  the cleaner's per-segment live-MAP-page accounting equals a
        recount from the GTD.
    """
    out: List[str] = []
    cache = device.map
    array = device.nand.array
    from repro.ftl.packet import decode_payload

    for tidx, ppn in enumerate(cache._gtd):
        if ppn is None:
            continue
        if not array.is_programmed(ppn):
            out.append(f"G1: GTD[{tidx}] points at unprogrammed "
                       f"ppn {ppn}")
            continue
        record = array.read(ppn)
        if record.header.kind is not PageKind.MAP:
            out.append(f"G1: GTD[{tidx}] points at non-MAP page {ppn} "
                       f"({record.header.kind.name})")
            continue
        if record.header.lba != tidx:
            out.append(f"G1: GTD[{tidx}] points at ppn {ppn} whose "
                       f"header says tpage {record.header.lba}")
            continue
        if record.data is None:
            out.append(f"G1: MAP page {ppn} lost its payload")
            continue
        payload = decode_payload(record.data)
        if payload.get("tpage") != tidx or payload.get("span") != cache.span:
            out.append(f"G1: MAP page {ppn} payload names "
                       f"tpage {payload.get('tpage')} span "
                       f"{payload.get('span')}, expected {tidx}/"
                       f"{cache.span}")

    for tidx in cache._dirty:
        page = cache._pages.get(tidx)
        if page is None:
            out.append(f"G2: dirty set names non-resident tpage {tidx}")
        elif not page.dirty:
            out.append(f"G2: dirty set names clean tpage {tidx}")
    for tidx, page in cache._pages.items():
        if page.dirty and tidx not in cache._dirty:
            out.append(f"G2: resident tpage {tidx} is dirty but not in "
                       f"the dirty set")

    seg_pages = device.log.segment_pages
    expected: Dict[int, int] = {}
    for ppn in cache._gtd:
        if ppn is not None:
            seg = ppn // seg_pages
            expected[seg] = expected.get(seg, 0) + 1
    if expected != cache._seg_live:
        out.append(f"G3: per-segment live-MAP accounting {cache._seg_live} "
                   f"!= recount from GTD {expected}")
    return out


def _check_segments(device) -> List[str]:
    out: List[str] = []
    array = device.nand.array
    geometry = device.nand.geometry
    for seg in device.log.segments:
        if seg.state is SegmentState.FREE:
            first_block = seg.first_ppn // geometry.pages_per_block
            for block in range(first_block,
                               first_block + device.log.blocks_per_segment):
                if not array.block_is_erased(block):
                    out.append(f"F4: FREE segment {seg.index} has "
                               f"programmed pages in block {block}")
            continue
        if seg.state is SegmentState.RETIRED:
            continue
        if not array.is_programmed(seg.first_ppn):
            out.append(f"F4: {seg.state.value} segment {seg.index} missing "
                       "its header page")
            continue
        if array.is_torn(seg.first_ppn):
            # Crippled segment: the header program was torn by a power
            # cut or rejected by the medium (program-fail).  The log
            # closed it immediately and it holds no packets — a
            # legitimate transient state until the cleaner or recovery
            # scrubs it, not an invariant violation.
            continue
        header = array.read_header(seg.first_ppn)
        if header.kind is not PageKind.SEGMENT_HEADER:
            out.append(f"F4: segment {seg.index} first page is "
                       f"{header.kind.name}, not SEGMENT_HEADER")
        elif header.lba != seg.seq:
            out.append(f"F4: segment {seg.index} header seq {header.lba} "
                       f"!= bookkeeping seq {seg.seq}")
        for ppn in seg.written_ppns():
            if not array.is_programmed(ppn):
                out.append(f"F4: segment {seg.index} claims ppn {ppn} "
                           "written but it is unprogrammed")
                break
    return out


def _check_retired(device) -> List[str]:
    """M1..M3: nothing live may reference a RETIRED segment.

    Retired segments (grown-bad blocks, quarantined uncorrectables)
    are out of circulation forever; the self-healing paths promise to
    relocate or drop every live page before retiring.
    """
    out: List[str] = []
    retired = [seg for seg in device.log.segments
               if seg.state is SegmentState.RETIRED]
    if not retired:
        return out
    retired_idx = {seg.index for seg in retired}
    for lba, ppn in device.map.items():
        index = device.log.segment_of(ppn).index
        if index in retired_idx:
            out.append(f"M1: lba {lba} maps to ppn {ppn} in retired "
                       f"segment {index}")
    if hasattr(device, "validity"):
        for seg in retired:
            for ppn in device.validity.iter_set_in_range(
                    seg.first_ppn, seg.npages):
                out.append(f"M2: validity bit set for ppn {ppn} in "
                           f"retired segment {seg.index}")
    if hasattr(device, "live_epoch_bitmaps"):
        for epoch, bitmap in device.live_epoch_bitmaps():
            for seg in retired:
                for ppn in bitmap.iter_set_in_range(
                        seg.first_ppn, seg.npages):
                    out.append(f"M2: epoch {epoch} marks ppn {ppn} in "
                               f"retired segment {seg.index}")
    for ppn in device._note_registry:
        index = device.log.segment_of(ppn).index
        if index in retired_idx:
            out.append(f"M3: registered note at ppn {ppn} in retired "
                       f"segment {index}")
    return out


def _check_notes(device) -> List[str]:
    out: List[str] = []
    array = device.nand.array
    for ppn, note in device._note_registry.items():
        if not array.is_programmed(ppn):
            out.append(f"F5: registered note at unprogrammed ppn {ppn}")
            continue
        header = array.read_header(ppn)
        expected = _NOTE_KIND_BY_TYPE.get(type(note).__name__)
        if expected is None:
            out.append(f"F5: unknown note type {type(note).__name__} "
                       f"at ppn {ppn}")
        elif header.kind is not expected:
            out.append(f"F5: note at ppn {ppn} is {header.kind.name}, "
                       f"registry says {expected.name}")
    return out


# ---------------------------------------------------------------------------
# ioSnap
# ---------------------------------------------------------------------------
def _scan_media(device) -> List[Tuple[int, object]]:
    """All programmed packets in log order, without advancing time."""
    array = device.nand.array
    packets = []
    segments = sorted((seg for seg in device.log.segments if seg.seq >= 0),
                      key=lambda seg: seg.seq)
    for seg in segments:
        packets.extend(array.readable_headers(seg.written_ppns()))
    return packets


def _fold_path(packets, path: frozenset) -> Dict[int, int]:
    """{lba: ppn} ground truth for one epoch path (later seq wins)."""
    best: Dict[int, Tuple[int, int]] = {}
    trims: Dict[int, int] = {}
    for ppn, header in packets:
        if header.epoch not in path:
            continue
        if header.kind is PageKind.DATA:
            current = best.get(header.lba)
            if current is None or header.seq >= current[0]:
                best[header.lba] = (header.seq, ppn)
        elif header.kind is PageKind.NOTE_TRIM:
            if header.seq > trims.get(header.lba, -1):
                trims[header.lba] = header.seq
    for lba, trim_seq in trims.items():
        entry = best.get(lba)
        if entry is not None and entry[0] < trim_seq:
            del best[lba]
    return {lba: ppn for lba, (_seq, ppn) in best.items()}


def _check_iosnap(device) -> List[str]:
    out: List[str] = []
    total_pages = device.nand.geometry.total_pages
    packets = _scan_media(device)
    # Folds must skip recorded media losses (struck from every bitmap
    # when the loss was recorded); the summary audits must not.
    fold_packets = [(ppn, header) for ppn, header in packets
                    if not device.damage.ppn_lost(ppn)]
    tree = device.tree

    # S1: active bitmap == mapped pages (word compare per bitmap page).
    active = device.active_bitmap
    mapped = {ppn for _lba, ppn in device.map.items()}
    expected = _expected_words(mapped, active.bits_per_page)
    for extras, missings in _bitmap_page_diffs(
            active.resolve_word, expected, active.page_count,
            active.bits_per_page):
        for extra in extras:
            out.append(f"S1: active bitmap marks unmapped ppn {extra}")
        for missing in missings:
            out.append(f"S1: mapped ppn {missing} missing from active bitmap")

    # S2: each live snapshot's bitmap == media fold over its path.
    # (Duplicate copies awaiting erase make the bitmap the arbiter of
    # *which* copy is valid; fold ties resolve the same way.)
    for snap in tree.snapshots():
        bitmap = device._epoch_bitmaps.get(snap.epoch)
        if bitmap is None:
            out.append(f"S2: live snapshot {snap.name!r} has no bitmap")
            continue
        path = frozenset(tree.path_epochs(snap.epoch))
        truth = _fold_path(fold_packets, path)
        # Word-compare the bitmap against the fold first; the detailed
        # per-LBA analysis below only runs for actual mismatches.
        truth_words = _expected_words(truth.values(), bitmap.bits_per_page)
        if any(bitmap.resolve_word(idx) != truth_words.get(idx, 0)
               for idx in range(bitmap.page_count)):
            bits = set(bitmap.iter_set_in_range(0, total_pages))
            # The cleaner may leave a not-yet-erased duplicate; the
            # bitmap points at the surviving copy.  Compare by LBA.
            by_lba_bits = {}
            array = device.nand.array
            for ppn in bits:
                if not array.is_programmed(ppn):
                    out.append(f"S2: snapshot {snap.name!r} bitmap marks "
                               f"unprogrammed ppn {ppn}")
                    continue
                header = array.read_header(ppn)
                by_lba_bits[header.lba] = (header.seq, ppn)
            truth_seqs = {}
            for lba, ppn in truth.items():
                truth_seqs[lba] = array.read_header(ppn).seq
            if set(by_lba_bits) != set(truth):
                out.append(
                    f"S2: snapshot {snap.name!r} bitmap covers lbas "
                    f"{sorted(set(by_lba_bits) ^ set(truth))[:5]}... "
                    "differently from the media fold")
            else:
                for lba, (seq, _ppn) in by_lba_bits.items():
                    if seq != truth_seqs[lba]:
                        out.append(
                            f"S2: snapshot {snap.name!r} lba {lba}: bitmap "
                            f"has seq {seq}, fold says {truth_seqs[lba]}")

    # S3: every valid bit points at a programmed page with a path epoch.
    for epoch, bitmap in device.live_epoch_bitmaps():
        path = frozenset(tree.path_epochs(epoch))
        for ppn in bitmap.iter_set_in_range(0, total_pages):
            if not device.nand.array.is_programmed(ppn):
                out.append(f"S3: epoch {epoch} marks unprogrammed "
                           f"ppn {ppn}")
            else:
                header = device.nand.array.read_header(ppn)
                if header.epoch not in path:
                    out.append(
                        f"S3: epoch {epoch} marks ppn {ppn} from epoch "
                        f"{header.epoch}, not on its path")

    # S4: epoch counter beyond anything on media.
    max_epoch = max((h.epoch for _p, h in packets), default=0)
    if tree.peek_next_epoch() <= max_epoch:
        out.append(f"S4: epoch counter {tree.peek_next_epoch()} <= max "
                   f"on-media epoch {max_epoch}")

    # S5: segment summaries are supersets of reality.
    actual: Dict[int, set] = {}
    for ppn, header in packets:
        if header.kind in (PageKind.DATA, PageKind.NOTE_TRIM):
            index = device.log.segment_of(ppn).index
            actual.setdefault(index, set()).add(header.epoch)
    for index, epochs in actual.items():
        summary = device._epoch_index.epochs.get(index, set())
        missing = epochs - summary
        if missing:
            out.append(f"S5: segment {index} summary missing epochs "
                       f"{sorted(missing)}")

    # S7: the stored epoch-summary index equals an *exact* recompute
    # from OOB headers — epoch sets and max-seq high-water marks both.
    # S5's superset leniency is not enough for the acceleration layer:
    # delta rescans and the durable checkpointed index assume exact
    # summaries (a phantom epoch would survive checkpoint validation
    # and misdirect selective skips forever).
    actual_max: Dict[int, int] = {}
    for ppn, header in packets:
        if header.kind in (PageKind.DATA, PageKind.NOTE_TRIM):
            index = device.log.segment_of(ppn).index
            if header.seq > actual_max.get(index, -1):
                actual_max[index] = header.seq
    epoch_index = device._epoch_index
    for index in sorted(set(actual) | set(epoch_index.epochs)
                        | set(epoch_index.max_seq)):
        stored = set(epoch_index.epochs.get(index, ()))
        media = actual.get(index, set())
        if stored != media:
            out.append(f"S7: segment {index} stored summary "
                       f"{sorted(stored)} != media {sorted(media)}")
        stored_max = epoch_index.high_water(index)
        media_max = actual_max.get(index, -1)
        if stored_max != media_max:
            out.append(f"S7: segment {index} high-water mark "
                       f"{stored_max} != media {media_max}")

    # S6: no leaked activation scan state — an ACTIVATION-branch epoch
    # may own a bitmap only while its activation is open.
    open_activation_epochs = {act.epoch for act in device._activations}
    for epoch in device._epoch_bitmaps:
        try:
            node = tree.node(epoch)
        except SnapshotError:
            out.append(f"S6: epoch {epoch} owns a bitmap but is not in "
                       "the snapshot tree")
            continue
        if (node.kind is BranchKind.ACTIVATION
                and epoch not in open_activation_epochs):
            out.append(f"S6: activation epoch {epoch} bitmap leaked "
                       "(no open activation)")

    return out
