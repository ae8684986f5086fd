"""ioSnap: flash-optimized snapshots layered into the FTL.

:class:`IoSnapDevice` subclasses the base FTL and implements the
paper's design:

- every write is stamped with the current *epoch* (§5.3.2);
- snapshot create/delete are O(1): a synchronous note on the log plus
  an in-memory tree update — no data copying, no map duplication
  (§5.8);
- validity is tracked per epoch with CoW-shared bitmap pages (§5.4.1);
- the segment cleaner merges per-epoch bitmaps to decide liveness and
  fixes bits in every epoch that references a moved block (§5.4.3);
- activation is the deliberate slow path: a rate-limited scan of the
  log rebuilds the snapshot's forward map on demand (§5.6);
- crash recovery reconstructs the snapshot tree from notes and only
  the *active* tree's forward map (§5.5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro import sanitize
from repro.core.activation import ActivatedSnapshot, activate_proc
from repro.core.cow_bitmap import (
    CowValidityBitmap,
    merged_count_range,
    merged_iter_range,
)
from repro.core.epoch_index import SegmentEpochIndex, recompute_segment
from repro.core.residue import ResidueCache
from repro.core.snaptree import Snapshot, SnapshotRef, SnapshotTree
from repro.errors import SnapshotError, SummaryIndexError
from repro.ftl.log import Segment
from repro.sim.stats import Counters
from repro.ftl.packet import (
    SnapCreateNote,
    SnapDeactivateNote,
    SnapDeleteNote,
    encode_note,
)
from repro.ftl.vsl import (
    BITMAP_ADJUST_NS,
    BITMAP_MERGE_PAGE_NS,
    FtlConfig,
    VslDevice,
)
from repro.nand.oob import OobHeader, PageKind


@dataclass
class IoSnapConfig(FtlConfig):
    """FTL tunables plus ioSnap-specific knobs."""

    # Figure 10's toggle: pace the cleaner with the merged multi-epoch
    # estimate (True) or the active-epoch-only estimate the vanilla
    # rate policy would use (False).
    snapshot_aware_pacing: bool = True
    # §5.6 designs writable snapshots; the paper prototypes read-only
    # activation.  We implement both, defaulting to the prototype.
    writable_activations: bool = False
    # §5.4.2: segregate cleaner output by temperature — blocks no
    # longer valid in the active epoch (snapshot-retained, i.e. cold)
    # go to a separate GC head from still-hot active data.  This
    # reduces epoch intermixing, which keeps selective scans effective
    # and lowers future merge/CoW overheads.  Off by default to match
    # the paper's prototype ("we do not delve into the policy aspect").
    gc_segregate_cold: bool = False
    # §7 future-work extension: keep a per-segment summary of which
    # epochs have packets there, letting activation skip segments with
    # nothing on the snapshot's path ("selectively scanning only those
    # segments that have data corresponding to the snapshot").  On by
    # default since the index became durable (checkpointed with CRC +
    # generation stamping and restored validation-first); set False to
    # measure the paper's prototype behavior (full scans).
    selective_scan: bool = True
    # Warm-activation cache: deactivated snapshots leave an
    # ActivationResidue behind so re-activation only rescans log
    # regions that changed since (see repro.core.residue).  Bounded by
    # entry count and accounted bytes; either bound at zero disables
    # caching.
    residue_cache_entries: int = 8
    residue_cache_bytes: int = 4 << 20
    # Snapshot-retention policy (the glusterfs "snap-max-hard-limit" /
    # "auto-delete" shape the scenario corpus exercises).  0 keeps the
    # paper's unlimited behavior.  With a limit set, creating a
    # snapshot once ``snapshot_limit`` live snapshots exist either
    # auto-deletes the oldest deletable one first (auto-delete on;
    # snapshots pinned by an open activation are never victims) or
    # refuses the create with :class:`SnapshotError` (auto-delete
    # off).  Host configuration, not media format: a device reopened
    # with a different limit simply enforces the new policy from the
    # next create on.
    snapshot_limit: int = 0
    snapshot_auto_delete: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.snapshot_limit < 0:
            raise ValueError("snapshot_limit must be >= 0 (0 = unlimited)")
        if self.residue_cache_entries < 0:
            raise ValueError("residue_cache_entries must be >= 0 (0 = off)")
        if self.residue_cache_bytes < 0:
            raise ValueError("residue_cache_bytes must be >= 0 (0 = off)")


@dataclass
class SnapshotMetrics:
    """ioSnap-specific counters layered over FtlMetrics."""

    creates: int = 0
    deletes: int = 0
    auto_deletes: int = 0     # retention-policy evictions (snapshot_limit)
    rejected_creates: int = 0  # creates refused at the snapshot limit
    activations: int = 0
    deactivations: int = 0
    create_latencies_ns: List[int] = field(default_factory=list)
    delete_latencies_ns: List[int] = field(default_factory=list)
    activation_reports: List[Dict[str, Any]] = field(default_factory=list)
    # One entry per snapshot_diff/changed_blocks scan: mode, sizing
    # (bytes/extents to copy), and what the header scan cost — the
    # diff-side analogue of activation_reports.
    diff_reports: List[Dict[str, Any]] = field(default_factory=list)


class IoSnapDevice(VslDevice):
    """The paper's system: an FTL with native snapshots."""

    config: IoSnapConfig
    CONFIG_CLS = IoSnapConfig

    def __init__(self, kernel, nand, config: Optional[IoSnapConfig] = None):
        super().__init__(kernel, nand, config or IoSnapConfig())
        self.snap_metrics = SnapshotMetrics()

    # ------------------------------------------------------------------
    # Snapshot API (synchronous façade)
    # ------------------------------------------------------------------
    def snapshot_create(self, name: Optional[str] = None) -> Snapshot:
        return self.kernel.run_process(self.snapshot_create_proc(name),
                                       name="snap-create")

    def snapshot_delete(self, ref: SnapshotRef) -> None:
        self.kernel.run_process(self.snapshot_delete_proc(ref),
                                name="snap-delete")

    def snapshot_activate(self, ref: SnapshotRef,
                          limiter=None) -> ActivatedSnapshot:
        return self.kernel.run_process(
            self.snapshot_activate_proc(ref, limiter), name="snap-activate")

    def snapshot_deactivate(self, activated: ActivatedSnapshot) -> None:
        self.kernel.run_process(self.snapshot_deactivate_proc(activated),
                                name="snap-deactivate")

    def snapshots(self, include_deleted: bool = False) -> List[Snapshot]:
        return self.tree.snapshots(include_deleted=include_deleted)

    def activations(self) -> List[ActivatedSnapshot]:
        return list(self._activations)

    # ------------------------------------------------------------------
    # Snapshot API (process form)
    # ------------------------------------------------------------------
    def snapshot_create_proc(self, name: Optional[str] = None) -> Generator:
        """Create a snapshot: one synchronous note, O(1) in data volume.

        The paper makes quiescing the application's job (§5.8, step 1);
        here the device enforces it — the write gate closes, in-flight
        writes drain, and only then does the epoch advance, so no write
        ever straddles the boundary.
        """
        self._require_open()
        self._check_writable()
        yield from self._enforce_snapshot_limit()
        started = self.kernel.now
        yield from self.quiesce_begin()
        try:
            snap_id = self.tree.peek_next_snap_id()
            resolved_name = name if name is not None else f"snap-{snap_id}"
            note = SnapCreateNote(snap_id=snap_id, name=resolved_name,
                                  captured_epoch=self.tree.active_epoch,
                                  new_epoch=self.tree.peek_next_epoch())
            yield from self._append_note(note, PageKind.NOTE_SNAP_CREATE)
            snap = self.tree.create_snapshot(name,
                                             created_seq=self._next_seq)
            snap.map_nodes_at_create = self.map.node_count()
            snap.map_bytes_at_create = self.map.memory_bytes()
            # The captured epoch's bitmap freezes; the active device
            # continues on a CoW child (paper Figure 5).
            captured_bitmap = self._epoch_bitmaps[snap.epoch]
            self._set_epoch_bitmaps(
                {self.tree.active_epoch: captured_bitmap.fork()})
        finally:
            self.quiesce_end()
        self.snap_metrics.creates += 1
        self.snap_metrics.create_latencies_ns.append(self.kernel.now - started)
        return snap

    def _enforce_snapshot_limit(self) -> Generator:
        """Apply the retention policy ahead of a snapshot create.

        Runs *before* the create's quiesce: an eviction appends a
        delete note through the normal (privileged) note path, so a
        crash between the eviction and the create recovers to one of
        the three legitimate states — nothing happened, only the
        eviction happened, or both did.  Returns the evicted names.
        """
        limit = self.config.snapshot_limit
        if not limit:
            return []
        evicted: List[str] = []
        while len(self.snapshots()) >= limit:
            if not self.config.snapshot_auto_delete:
                self.snap_metrics.rejected_creates += 1
                raise SnapshotError(
                    f"snapshot limit reached "
                    f"({len(self.snapshots())}/{limit}); delete a snapshot "
                    f"or enable snapshot_auto_delete")
            pinned = {act.snapshot.snap_id for act in self._activations}
            candidates = [s for s in sorted(self.snapshots(),
                                            key=lambda s: s.created_seq)
                          if s.snap_id not in pinned]
            if not candidates:
                self.snap_metrics.rejected_creates += 1
                raise SnapshotError(
                    f"snapshot limit reached ({len(self.snapshots())}/"
                    f"{limit}) and every snapshot is pinned by an open "
                    f"activation")
            victim = candidates[0]
            yield from self.snapshot_delete_proc(victim)
            self.snap_metrics.auto_deletes += 1
            evicted.append(victim.name)
        return evicted

    def snapshot_delete_proc(self, ref: SnapshotRef) -> Generator:
        """Delete a snapshot: a note plus tree bookkeeping; space comes
        back lazily via the segment cleaner (paper Figure 6C)."""
        self._require_open()
        started = self.kernel.now
        snap = self.tree.resolve(ref)
        if snap.deleted:
            raise SnapshotError(f"snapshot {snap.name!r} already deleted")
        if any(act.snapshot.snap_id == snap.snap_id
               for act in self._activations):
            raise SnapshotError(
                f"snapshot {snap.name!r} is activated; deactivate first")
        note = SnapDeleteNote(snap_id=snap.snap_id)
        yield from self._append_note(note, PageKind.NOTE_SNAP_DELETE)
        self.tree.delete_snapshot(snap)
        # Drop the epoch's bitmap from the live set: the cleaner's
        # merged view no longer includes it, which implicitly
        # invalidates blocks only this snapshot kept alive.
        self._set_epoch_bitmaps({snap.epoch: None})
        # Residues for this snapshot are dead; residues whose path
        # crosses the reclaimed epoch are conservatively dropped too
        # (their winners may become cleaner fodder).
        self._residues.invalidate_snapshot(snap.snap_id)
        self._residues.invalidate_epoch(snap.epoch)
        self.snap_metrics.deletes += 1
        self.snap_metrics.delete_latencies_ns.append(self.kernel.now - started)
        self.cleaner.maybe_kick()

    def snapshot_activate_proc(self, ref: SnapshotRef,
                               limiter=None) -> Generator:
        """Activate a snapshot: rate-limited log scan + map rebuild."""
        self._require_open()
        snap = self.tree.resolve(ref)
        activated = yield from activate_proc(self, snap, limiter)
        self.snap_metrics.activations += 1
        return activated

    def snapshot_deactivate_proc(self,
                                 activated: ActivatedSnapshot) -> Generator:
        self._require_open()
        if activated not in self._activations:
            raise SnapshotError("snapshot is not activated")
        note = SnapDeactivateNote(snap_id=activated.snapshot.snap_id,
                                  epoch=activated.epoch)
        yield from self._append_note(note, PageKind.NOTE_SNAP_DEACTIVATE)
        self._activations.remove(activated)
        self._set_epoch_bitmaps({activated.epoch: None})
        # Leave a warm-activation residue behind: the winners/trims
        # digest (kept current by cleaner fixups while activated) plus
        # the log coordinates a delta rescan resumes from.
        self._residues.put(activated.build_residue())
        activated.mark_closed()
        self.snap_metrics.deactivations += 1
        self.cleaner.maybe_kick()

    def _append_note(self, note, kind: PageKind) -> Generator:
        payload = encode_note(note)
        header = OobHeader(kind=kind, lba=0, epoch=self.tree.active_epoch,
                           seq=self._bump_seq(), length=len(payload))
        # Delete/deactivate *release* space, and they are exactly the
        # operations an administrator issues to heal a full device —
        # they may dip into the cleaner's reserve rather than deadlock
        # behind the very snapshot being removed.
        privileged = kind in (PageKind.NOTE_SNAP_DELETE,
                              PageKind.NOTE_SNAP_DEACTIVATE)
        ppn, done = yield from self.log.append(header, payload,
                                               privileged=privileged)
        self._register_note(ppn, note)
        yield done  # notes persist the operation; wait for durability
        return ppn

    # ------------------------------------------------------------------
    # State shared with activation / recovery / cleaner
    # ------------------------------------------------------------------
    @property
    def active_bitmap(self) -> CowValidityBitmap:
        return self._epoch_bitmaps[self.tree.active_epoch]

    def live_epoch_bitmaps(self) -> Tuple[Tuple[int, CowValidityBitmap], ...]:
        """(epoch, bitmap) for every epoch the cleaner must honor, by
        epoch.  A shared read-only tuple, re-sorted only after the live
        epoch set changed (see :meth:`_set_epoch_bitmaps`)."""
        if self._live_epochs_at != self._epoch_set_version:
            self._live_epochs = tuple(sorted(self._epoch_bitmaps.items()))
            self._live_epochs_at = self._epoch_set_version
        return self._live_epochs

    def _set_epoch_bitmaps(
            self, changes: Dict[int, Optional[CowValidityBitmap]],
            replace: bool = False) -> None:
        """The one writer of the live epoch set.

        ``changes`` maps epoch -> bitmap, None dropping the epoch;
        ``replace`` starts from an empty set (construction, recovery,
        checkpoint load).  An actual change bumps
        ``_epoch_set_version``, which retires the sorted
        :meth:`live_epoch_bitmaps` tuple and the merged valid counts,
        and invalidates the cleaner's occupancy index.
        """
        bitmaps = {} if replace else self._epoch_bitmaps
        changed = replace
        for epoch, bitmap in changes.items():
            if bitmap is None:
                changed |= bitmaps.pop(epoch, None) is not None
            elif bitmaps.get(epoch) is not bitmap:
                bitmaps[epoch] = bitmap
                changed = True
        self._epoch_bitmaps = bitmaps
        if changed:
            self._epoch_set_version += 1
            self.cleaner.invalidate_occupancy()

    def _new_bitmap(self, parent: Optional[CowValidityBitmap] = None,
                    ) -> CowValidityBitmap:
        return CowValidityBitmap(self.nand.geometry.total_pages,
                                 page_bytes=self.config.bitmap_page_bytes,
                                 parent=parent, on_cow=self._note_cow,
                                 on_mutate=self._note_bitmap_mutation)

    def _note_cow(self, kind: str) -> None:
        if kind == "write":
            self.metrics.bitmap_cow_copies += 1
            self.metrics.cow_timestamps.append(self.kernel.now)

    def _note_bitmap_mutation(self, bit: int) -> None:
        """Any epoch's validity changed at ``bit``: the merged valid
        count cached for that segment and its occupancy are stale."""
        index = bit // self.log.segment_pages
        self._seg_merged_valid.pop(index, None)
        self.cleaner.occupancy.pop(index, None)

    def _merged_valid_cache(self) -> Dict[int, int]:
        """Per-segment merged valid counts, keyed to the live epoch set.

        Epoch membership changes (snapshot create/delete/deactivate,
        recovery, checkpoint restore) move ``_epoch_set_version``;
        bit-level changes inside a live epoch are caught by the
        ``on_mutate`` callback instead.
        """
        if self._seg_merged_at != self._epoch_set_version:
            self._seg_merged_at = self._epoch_set_version
            self._seg_merged_valid.clear()
        return self._seg_merged_valid

    def bitmap_memory_bytes(self) -> int:
        """Private bitmap bytes across live epochs (paper §6.2.1)."""
        return sum(bm.owned_bytes() for bm in self._epoch_bitmaps.values())

    def info(self) -> Dict[str, Any]:
        summary = super().info()
        summary["snapshots"] = {
            "live": len(self.snapshots()),
            "total_ever": len(self.snapshots(include_deleted=True)),
            "activated": len(self._activations),
            "active_epoch": self.tree.active_epoch,
            "retention": {
                "limit": self.config.snapshot_limit,
                "auto_delete": self.config.snapshot_auto_delete,
                "auto_deletes": self.snap_metrics.auto_deletes,
                "rejected_creates": self.snap_metrics.rejected_creates,
            },
            "bitmap_memory_bytes": self.bitmap_memory_bytes(),
            "activation": {
                **self.activation_counters.as_dict(),
                "residue_cache_entries": len(self._residues),
                "residue_cache_bytes": self._residues.memory_bytes(),
            },
            "diff": self.diff_counters.as_dict(),
        }
        return summary

    def _digest_extra(self) -> Dict[str, Any]:
        return {"snapshots": [
            (snap.snap_id, snap.name, snap.epoch, snap.created_seq,
             snap.deleted)
            for snap in self.snapshots(include_deleted=True)]}

    # ------------------------------------------------------------------
    # FTL hook overrides
    # ------------------------------------------------------------------
    def _make_structures(self) -> None:
        self.tree = SnapshotTree()
        self._activations: List[ActivatedSnapshot] = []
        # Per-segment epoch summaries + max-seq high-water marks for
        # the selective-scan extension; checkpointed and restored
        # validation-first (see repro.core.epoch_index).
        self._epoch_index = SegmentEpochIndex()
        # Activation acceleration counters, shared between the residue
        # cache and the scan loops; surfaced via info() and benchmarks/e2e.
        self.activation_counters = Counters(
            "hits", "misses", "invalidations",
            "segments_skipped", "pages_scanned", "header_batches")
        # Snapshot-diff / changed-block scan counters, kept separate
        # from the activation set so a replication send's scans cannot
        # masquerade as activation fast-path wins (or vice versa).
        self.diff_counters = Counters(
            "diffs", "segments_skipped", "pages_scanned", "header_batches")
        self._residues = ResidueCache(self.config.residue_cache_entries,
                                      self.config.residue_cache_bytes,
                                      self.activation_counters)
        self._erase_check_tick = 0
        # Merged-across-epochs valid counts per segment index, lazily
        # filled by _estimate_valid_count and invalidated by bitmap
        # mutations (see _note_bitmap_mutation / _merged_valid_cache).
        self._seg_merged_valid: Dict[int, int] = {}
        self._seg_merged_at = -1
        # The live epoch set; changed only through _set_epoch_bitmaps.
        self._epoch_set_version = 0
        self._live_epochs: Tuple[Tuple[int, CowValidityBitmap], ...] = ()
        self._live_epochs_at = -1
        self._epoch_bitmaps: Dict[int, CowValidityBitmap] = {}
        self._set_epoch_bitmaps({0: self._new_bitmap()}, replace=True)

    def _current_epoch(self) -> int:
        return self.tree.active_epoch

    def _install_mapping(self, lba: int, ppn: int) -> Generator:
        yield from self._map_fault(lba)
        bitmap = self.active_bitmap
        old = self.map.insert(lba, ppn)
        copies = 1 if bitmap.set(ppn) else 0
        if old is not None:
            # Clearing the old block's bit touches the bitmap page that
            # described the *previous* epoch's data — this is the CoW
            # the paper's Figure 7 measures.
            copies += 1 if bitmap.clear(old) else 0
        if copies:
            yield copies * self.config.bitmap_cow_ns

    def _uninstall_mapping(self, old_ppn: int) -> Generator:
        if self.active_bitmap.clear(old_ppn):
            yield self.config.bitmap_cow_ns

    def _compute_valid(self, seg: Segment) -> Tuple[List[int], int]:
        """Merged validity across live epochs (paper Figure 6).

        One big-int OR per bitmap page unions every epoch's view; the
        *charged* virtual CPU cost still scales with pages x epochs —
        the growing merge column of Table 4 — only the wall-clock cost
        of simulating it is word-level now.
        """
        bitmaps = [bm for _epoch, bm in self.live_epoch_bitmaps()]
        valid = list(merged_iter_range(bitmaps, seg.first_ppn, seg.npages))
        pages_touched = (seg.npages + self.active_bitmap.bits_per_page - 1) \
            // self.active_bitmap.bits_per_page
        merge_cost = pages_touched * len(bitmaps) \
            * BITMAP_MERGE_PAGE_NS
        return valid, merge_cost

    def _estimate_valid_count(self, seg: Segment) -> int:
        if self.config.snapshot_aware_pacing:
            cache = self._merged_valid_cache()
            count = cache.get(seg.index)
            if count is None:
                bitmaps = [bm for _e, bm in self.live_epoch_bitmaps()]
                count = merged_count_range(bitmaps, seg.first_ppn, seg.npages)
                cache[seg.index] = count
            elif sanitize.enabled:
                # The cache must be invalidated on every bitmap
                # mutation (_note_bitmap_mutation); a stale hit here
                # silently skews the cleaner's pacing decisions.
                bitmaps = [bm for _e, bm in self.live_epoch_bitmaps()]
                actual = merged_count_range(bitmaps, seg.first_ppn,
                                            seg.npages)
                sanitize.check(
                    count == actual,
                    f"merged-validity cache stale for segment "
                    f"{seg.index}: cached {count}, bitmaps say {actual}")
            return count
        # Vanilla rate policy: only the active epoch's validity — an
        # underestimate whenever the segment holds snapshotted data.
        return self.active_bitmap.count_range(seg.first_ppn, seg.npages)

    def _block_still_valid(self, ppn: int) -> bool:
        return any(bitmap.test(ppn)
                   for _epoch, bitmap in self.live_epoch_bitmaps())

    def _clear_valid_everywhere(self, ppn: int,
                                lba: Optional[int] = None) -> None:
        """Strike a media casualty from *every* epoch's validity bits.

        The snapshot-aware analogue of the relocation fixups in
        :meth:`_relocate`: a lost page may be referenced by any live
        epoch, by open activations, and by cached residues — all of
        them must stop pointing at it, or later folds would count data
        that can never be read again.
        """
        active_epoch = self.tree.active_epoch
        for epoch, bitmap in self.live_epoch_bitmaps():
            if not bitmap.test(ppn):
                continue
            if epoch == active_epoch:
                bitmap.clear(ppn)
            else:
                bitmap.clear_privileged(ppn)
        for activated in self._activations:
            activated.on_block_lost(ppn, lba)
        self._residues.on_block_lost(lba, ppn)

    def _relocate(self, old_ppn: int, new_ppn: int,
                  header: OobHeader) -> Generator:
        """Fix every epoch that references a moved block (§5.4.3):
        "in the worst case, every valid epoch may refer to this block"."""
        yield from self._map_fault(header.lba)
        active_epoch = self.tree.active_epoch
        # Decide which epochs reference the block BEFORE mutating any
        # bitmap: epochs share pages through CoW, so fixing a parent's
        # page changes what a child that never copied it reads.
        referencing = [(epoch, bitmap)
                       for epoch, bitmap in self.live_epoch_bitmaps()
                       if bitmap.test(old_ppn)]
        adjustments = 0
        for epoch, bitmap in referencing:
            adjustments += 1
            if epoch == active_epoch:
                if self.map.get(header.lba) == old_ppn:
                    self.map.insert(header.lba, new_ppn)
                    bitmap.clear(old_ppn)
                    bitmap.set(new_ppn)
                else:
                    # Overwritten while the copy was in flight.
                    bitmap.clear(old_ppn)
            else:
                bitmap.clear_privileged(old_ppn)
                bitmap.set_privileged(new_ppn)
        for activated in self._activations:
            activated.on_block_moved(header.lba, old_ppn, new_ppn)
        # Cached residues follow moves the same way live activations
        # do, so a warm re-activation never chases erased media.
        self._residues.on_block_moved(header.lba, old_ppn, new_ppn)
        self.record_move(old_ppn, new_ppn, header)
        if adjustments:
            yield adjustments * BITMAP_ADJUST_NS

    def _on_packet_appended(self, ppn: int, header: OobHeader) -> None:
        if header.kind in (PageKind.DATA, PageKind.NOTE_TRIM):
            index = self.log.segment_of(ppn).index
            self._epoch_index.note_packet(index, header.epoch, header.seq)

    def _gc_head_for(self, old_ppn: int, header: OobHeader) -> str:
        if not self.config.gc_segregate_cold:
            return "gc"
        if header.kind is not PageKind.DATA:
            return "gc"
        # Cold = retained only by snapshots (invalid in the active
        # epoch); hot = still live on the active device.
        if self.active_bitmap.test(old_ppn):
            return "gc-hot"
        return "gc-cold"

    def _before_segment_erase(self, seg: Segment) -> None:
        super()._before_segment_erase(seg)
        if not sanitize.enabled:
            return
        # Deterministic sampling (1 in 4 erases, counter-based — sim
        # layers must not consult wall clocks or global RNG): recompute
        # the doomed segment's summary from its OOB headers and audit
        # the index entry we are about to drop.  Any drift here means
        # selective scans were silently skipping live path segments.
        self._erase_check_tick += 1
        if (self._erase_check_tick - 1) % 4:
            return
        epochs, max_seq = recompute_segment(self.nand.array, seg)
        stored = set(self._epoch_index.epochs.get(seg.index, ()))
        sanitize.check(
            stored == epochs,
            f"segment {seg.index} epoch summary drifted before erase: "
            f"index {sorted(stored)}, media {sorted(epochs)}")
        sanitize.check(
            self._epoch_index.high_water(seg.index) == max_seq,
            f"segment {seg.index} high-water mark drifted before erase: "
            f"index {self._epoch_index.high_water(seg.index)}, "
            f"media {max_seq}")

    def _on_segment_erased(self, seg: Segment) -> None:
        super()._on_segment_erased(seg)
        self._epoch_index.drop_segment(seg.index)
        self._residues.on_segment_erased(seg.index)

    def segment_epoch_summary(self, seg: Segment) -> frozenset:
        """Epochs with DATA/TRIM packets in ``seg`` (selective scan)."""
        return self._epoch_index.summary(seg.index)

    def segment_intersects_epochs(self, seg: Segment, epochs) -> bool:
        """Allocation-free ``segment_epoch_summary(seg) & epochs`` test.

        The per-segment question every selective scan asks; scan loops
        call it once per allocated segment, so it goes through the
        index's :meth:`~repro.core.epoch_index.SegmentEpochIndex.
        intersects` fast path instead of materializing a frozenset.
        """
        return self._epoch_index.intersects(seg.index, epochs)

    def _note_is_live(self, ppn: int, header: OobHeader) -> bool:
        """Create/delete notes are kept forever: deleted snapshots'
        epochs can still be ancestors of live data, and recovery needs
        the full main-chain epoch lineage.  Activate/deactivate notes
        die with the crash-ephemeral activations they describe."""
        del ppn
        return header.kind in (PageKind.NOTE_TRIM,
                               PageKind.NOTE_SNAP_CREATE,
                               PageKind.NOTE_SNAP_DELETE)

    def _rebuild_state(self, packets: List[Any]) -> Generator:
        from repro.core.recovery import rebuild_iosnap_state

        yield from rebuild_iosnap_state(self, packets)

    def _dump_extra(self, generation: int) -> Dict[str, Any]:
        return {
            "tree": self.tree.dump(),
            "epoch_bitmaps": {
                epoch: bitmap.materialize()
                for epoch, bitmap in self._epoch_bitmaps.items()
            },
            "epoch_index": self._epoch_index.dump(self.log, generation),
        }

    def _load_extra(self, extra: Dict[str, Any],
                    generation: Optional[int]) -> None:
        self.tree = SnapshotTree.restore(extra["tree"])
        # Durable selective-scan index: validation-first restore, with
        # a full-media sweep as the fallback.  The restore cross-checks
        # the image against the log bookkeeping adopted just before
        # this hook runs; on the stale-generation fallback path the log
        # is still pristine, the image fails validation, and the
        # subsequent log replay rebuilds the index wholesale.
        try:
            index = SegmentEpochIndex.restore(extra["epoch_index"],
                                              self.log, generation)
        except SummaryIndexError:
            index = SegmentEpochIndex.rebuild_from_media(self.nand.array,
                                                         self.log)
        self._epoch_index = index
        bitmaps = {}
        for epoch, pages in extra["epoch_bitmaps"].items():
            bitmap = CowValidityBitmap.from_pages(
                self.nand.geometry.total_pages,
                self.config.bitmap_page_bytes, pages, on_cow=self._note_cow,
                on_mutate=self._note_bitmap_mutation)
            if epoch != self.tree.active_epoch:
                bitmap.freeze()
            bitmaps[epoch] = bitmap
        self._set_epoch_bitmaps(bitmaps, replace=True)
        # Checkpoint restore flattens CoW chains: correctness is
        # preserved, page sharing is rebuilt from the next snapshot on.
