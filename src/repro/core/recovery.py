"""Snapshot-aware crash recovery (paper §5.5).

Reconstruction happens in two phases, exactly as the paper describes:

1. *Identify the snapshots and build the snapshot tree.*  Snapshot
   create/delete notes (replayed in log-sequence order) rebuild the
   epoch lineage and the set of live snapshots.  The active epoch is
   the ``new_epoch`` of the latest create note.

2. *Selectively process translations.*  Only packets whose epoch lies
   on the active tree's ancestor path contribute to the rebuilt
   forward map ("we only reconstruct the active tree and do not build
   trees corresponding to the snapshots").  Per-epoch validity bitmaps
   are rebuilt root-to-leaf: each live epoch's bitmap forks its nearest
   live ancestor's and applies only the delta — re-creating the CoW
   sharing structure rather than materializing full copies.

Activation branches do not survive a crash: activated devices are gone
with host memory, so their epochs are treated as deactivated and any
blocks written there (writable-activation extension) become garbage.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, List, Tuple

from repro.core.epoch_index import SegmentEpochIndex
from repro.core.snaptree import BranchKind, Snapshot, SnapshotTree
from repro.errors import SnapshotError
from repro.ftl.btree import BPlusTree
from repro.ftl.packet import (
    SnapActivateNote,
    SnapCreateNote,
    SnapDeactivateNote,
    SnapDeleteNote,
)
from repro.ftl.recovery import ScannedPacket
from repro.ftl.vsl import BITMAP_ADJUST_NS, MAP_BULK_INSERT_NS
from repro.nand.oob import PageKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.iosnap import IoSnapDevice


def rebuild_iosnap_state(ftl: "IoSnapDevice",
                         packets: List[ScannedPacket]) -> Generator:
    """Rebuild tree, forward map, and per-epoch bitmaps from a log scan."""
    tree = _rebuild_tree(packets)
    ftl.tree = tree
    ftl._activations = []

    # Rebuild the selective-scan index (per-segment epoch summaries +
    # max-seq high-water marks) from the scanned packets — the same
    # information the durable checkpointed index carries, rebuilt from
    # first principles because a crash invalidates the checkpoint.
    epoch_index = SegmentEpochIndex()
    for packet in packets:
        if packet.header.kind in (PageKind.DATA, PageKind.NOTE_TRIM):
            index = ftl.log.segment_of(packet.ppn).index
            epoch_index.note_packet(index, packet.header.epoch,
                                    packet.header.seq)
    ftl._epoch_index = epoch_index

    chain = tree.path_epochs(tree.active_epoch)
    by_epoch = _group_chain_packets(packets, frozenset(chain))

    live_epochs = set(tree.live_snapshot_epochs())
    live_epochs.add(tree.active_epoch)

    state: Dict[int, Tuple[int, int]] = {}   # lba -> (seq, ppn)
    changed: set = set()
    last_live_state: Dict[int, Tuple[int, int]] = {}
    last_live_bitmap = None
    bitmaps = {}
    diff_ops = 0

    for epoch in chain:
        for seq, kind, lba, ppn in by_epoch.get(epoch, ()):
            current = state.get(lba)
            if kind is PageKind.DATA:
                # ">=" so the later log position wins among identical
                # cleaner-made duplicates (sort is stable in scan order).
                if current is None or seq >= current[0]:
                    state[lba] = (seq, ppn)
                    changed.add(lba)
            else:  # trim
                if current is not None and current[0] < seq:
                    del state[lba]
                    changed.add(lba)
        if epoch not in live_epochs:
            continue
        # Build this epoch's bitmap as a CoW child of the nearest live
        # ancestor, touching only the bits that changed in between.
        if last_live_bitmap is None:
            bitmap = ftl._new_bitmap()
        else:
            bitmap = last_live_bitmap.fork()
        for lba in changed:
            old = last_live_state.get(lba)
            new = state.get(lba)
            if old == new:
                continue
            if old is not None:
                bitmap.clear(old[1])
                diff_ops += 1
            if new is not None:
                bitmap.set(new[1])
                diff_ops += 1
        bitmaps[epoch] = bitmap
        last_live_bitmap = bitmap
        last_live_state = dict(state)
        changed = set()

    ftl._set_epoch_bitmaps(bitmaps, replace=True)
    items = sorted((lba, ppn) for lba, (_seq, ppn) in state.items())
    if ftl.map_is_cached:
        # Replay through the bounded cache (flash-resident mode): the
        # log's segment bookkeeping was adopted before this hook ran,
        # so the cache's writeback appends land on live heads.
        yield from ftl.map.rebuild_proc(items)
    else:
        ftl.map = BPlusTree.bulk_load(items)
    _assert_no_activation_residue(ftl)
    cost = (diff_ops * BITMAP_ADJUST_NS + len(items) * MAP_BULK_INSERT_NS)
    if cost:
        yield cost


def _assert_no_activation_residue(ftl: "IoSnapDevice") -> None:
    """Enforce §5.5's "activation branches do not survive a crash".

    The rebuild above only walks the main chain, so this holds by
    construction — but recovery is exactly the code the torture rig
    exists to distrust, so make the invariant explicit (fsck checks
    the same property as S6 on every audit).
    """
    if ftl._activations:
        raise SnapshotError(
            f"recovery leaked {len(ftl._activations)} open activation(s)")
    for epoch in ftl._epoch_bitmaps:
        if ftl.tree.node(epoch).kind is BranchKind.ACTIVATION:
            raise SnapshotError(
                f"recovery leaked a bitmap for activation epoch {epoch}")


def _rebuild_tree(packets: List[ScannedPacket]) -> SnapshotTree:
    """Phase 1: snapshot tree from notes, in log-sequence order."""
    tree = SnapshotTree()
    notes = sorted((p for p in packets if p.note is not None),
                   key=lambda p: p.header.seq)
    active_epoch = 0
    seen_seqs: set = set()
    for packet in notes:
        # The cleaner copy-forwards notes verbatim (same header/seq);
        # until it erases the source segment both copies are on media,
        # so a crash between copy and erase replays the note twice.
        if packet.header.seq in seen_seqs:
            continue
        seen_seqs.add(packet.header.seq)
        note = packet.note
        if isinstance(note, SnapCreateNote):
            tree.register_recovered_epoch(note.new_epoch,
                                          parent=note.captured_epoch,
                                          kind=BranchKind.MAIN)
            tree.register_recovered_snapshot(Snapshot(
                snap_id=note.snap_id, name=note.name,
                epoch=note.captured_epoch,
                created_seq=packet.header.seq))
            active_epoch = note.new_epoch
        elif isinstance(note, SnapDeleteNote):
            try:
                tree.resolve(note.snap_id).deleted = True
            except SnapshotError:
                # A delete note can outlive its create note only if the
                # snapshot was already fully reclaimed; nothing to do.
                pass
        elif isinstance(note, SnapActivateNote):
            tree.note_epoch_consumed(note.new_epoch)
        elif isinstance(note, SnapDeactivateNote):
            tree.note_epoch_consumed(note.epoch)
        # Trim notes are folded with data packets, not here.
    tree.active_epoch = active_epoch
    # Epochs seen only in data headers (dead activation branches) must
    # still never be reused while their packets remain on media.
    for packet in packets:
        tree.note_epoch_consumed(packet.header.epoch)
    return tree


def _group_chain_packets(packets: List[ScannedPacket],
                         chain: frozenset) -> Dict[int, List[Tuple]]:
    """Phase 2 input: (seq, kind, lba, ppn) per chain epoch, seq-sorted."""
    by_epoch: Dict[int, List[Tuple]] = {}
    for packet in packets:
        header = packet.header
        if header.epoch not in chain:
            continue
        if header.kind is PageKind.DATA:
            entry = (header.seq, PageKind.DATA, header.lba, packet.ppn)
        elif header.kind is PageKind.NOTE_TRIM:
            entry = (header.seq, PageKind.NOTE_TRIM, header.lba, None)
        else:
            continue
        by_epoch.setdefault(header.epoch, []).append(entry)
    for entries in by_epoch.values():
        entries.sort(key=lambda e: e[0])
    return by_epoch
