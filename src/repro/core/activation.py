"""Snapshot activation: the deliberate slow path (paper §5.6).

ioSnap keeps no forward map for dormant snapshots, so making one
accessible means scanning the log's OOB headers, selecting the packets
whose epoch lies on the snapshot's ancestor path, resolving winners by
sequence number, and bulk-loading a fresh B+tree.

The scan competes with foreground I/O for the device, which is the
whole point of Figure 9: unthrottled it roughly 10x-es foreground read
latency; a :class:`~repro.ftl.ratelimit.DutyCycleLimiter` trades
activation time for foreground latency.

Concurrency contract with the segment cleaner:

- while a scan is in progress the cleaner may keep copying blocks but
  must not *erase* (``ftl.erase_barrier``), so every PPN the scan saw
  stays readable;
- all moves during the scan are recorded in a move log
  (``ftl.begin_scan``); the fixups are applied before the activated
  map goes live, so it never points into a segment that later gets
  erased.

Acceleration (this layer's §7 extensions): with ``selective_scan`` the
per-segment epoch-summary index skips segments with nothing on the
snapshot's path, and a re-activation that finds an
:class:`~repro.core.residue.ActivationResidue` in the warm cache folds
only the log regions that changed since the residue was captured — a
*delta rescan*.  Soundness rests on the path being frozen: the
winners/trims set of a snapshot never changes after creation, only
winner locations move (cleaner copy-forwards, which update the residue
in place), so folding the changed regions over the residue with the
same ``>=`` tie-break converges to exactly the full scan's winners.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Dict, Generator, Optional, Tuple

from repro.core.residue import ActivationResidue
from repro.errors import SnapshotError, UncorrectableError
from repro.ftl.btree import BPlusTree
from repro.ftl.packet import SnapActivateNote
from repro.ftl.ratelimit import NullLimiter
from repro.ftl.vsl import (
    MAP_BULK_INSERT_NS,
    REPLAY_PACKET_NS,
    UNMAPPED_READ_NS,
)
from repro.nand.oob import OobHeader, PageKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.iosnap import IoSnapDevice
    from repro.core.snaptree import Snapshot

# In-flight OOB reads per scan burst when unthrottled (a duty-cycle
# limiter shrinks the burst to its work quantum).
SCAN_BATCH = 16


class ActivatedSnapshot:
    """A block-device view of an activated snapshot.

    Read-only by default (the paper's prototype); writable when the
    device was configured with ``writable_activations`` — writes then
    land in the activation's own epoch and never disturb the snapshot
    (paper §5.6: "produces a new writable device which resembles the
    snapshot (but never overwrites the snapshot)").
    """

    def __init__(self, ftl: "IoSnapDevice", snapshot: "Snapshot",
                 epoch: int, fmap: BPlusTree, writable: bool,
                 scan_ns: int, reconstruct_ns: int, path: frozenset,
                 winners: Dict[int, Tuple[int, int]],
                 trims: Dict[int, int],
                 damage: Optional[list] = None) -> None:
        self.ftl = ftl
        self.snapshot = snapshot
        self.epoch = epoch
        self.map = fmap
        self.writable = writable
        self.scan_ns = scan_ns
        self.reconstruct_ns = reconstruct_ns
        self.num_lbas = ftl.num_lbas
        # The scan's fold, tracked separately from ``map``: writable
        # activations mutate the map, but the snapshot's own winners
        # digest must stay pristine — it seeds the deactivation
        # residue for later delta rescans.
        self.path = path
        self._winners = winners
        self._trims = trims
        # PPNs the activation scan found uncorrectable: the map is
        # partial and this is the caller's damage report for it (the
        # device-wide manifest has the full entries).
        self.damage: list = list(damage or [])
        # LBAs *this view* lost to media faults while live.  Tracked
        # per activation rather than through the device-wide manifest:
        # a loss that struck the active tree (or another snapshot) must
        # not make this snapshot's reads raise.
        self._lost_lbas: set = set()
        self._closed = False

    # -- lifecycle -----------------------------------------------------------
    def mark_closed(self) -> None:
        self._closed = True

    def deactivate(self) -> None:
        self.ftl.snapshot_deactivate(self)

    def _require_live(self) -> None:
        if self._closed:
            raise SnapshotError("activation has been deactivated")

    # -- cleaner integration --------------------------------------------------
    def on_block_moved(self, lba: int, old_ppn: int, new_ppn: int) -> None:
        """Track a copy-forward: activated maps must follow moved blocks
        ("multiple updates to the map when the packet is moved")."""
        if self.map.get(lba) == old_ppn:
            self.map.insert(lba, new_ppn)
        entry = self._winners.get(lba)
        if entry is not None and entry[1] == old_ppn:
            self._winners[lba] = (entry[0], new_ppn)

    def on_block_lost(self, ppn: int, lba: Optional[int]) -> None:
        """A media fault destroyed ``ppn``: drop it from this view too.

        Mirrors :meth:`on_block_moved` for the loss case — subsequent
        reads of the LBA fail with the typed media error instead of
        chasing an unreadable page.
        """
        if lba is None:
            return
        if self.map.get(lba) == ppn:
            self.map.delete(lba)
            self._lost_lbas.add(lba)
        entry = self._winners.get(lba)
        if entry is not None and entry[1] == ppn:
            del self._winners[lba]
            self.damage.append(ppn)

    def build_residue(self) -> ActivationResidue:
        """Capture the reusable digest for the warm-activation cache."""
        ftl = self.ftl
        seg_vector = {seg.index: (seg.seq, seg.next_offset)
                      for seg in ftl.log.segments if seg.seq >= 0}
        return ActivationResidue(
            snap_id=self.snapshot.snap_id, path=self.path,
            winners=dict(self._winners), trims=dict(self._trims),
            watermark=ftl._next_seq, seg_vector=seg_vector,
            seg_pages=ftl.log.segment_pages)

    # -- I/O ----------------------------------------------------------------
    def read(self, lba: int) -> bytes:
        return self.ftl.kernel.run_process(self.read_proc(lba),
                                           name=f"snap-read@{lba}")

    def read_proc(self, lba: int) -> Generator:
        self._require_live()
        if not 0 <= lba < self.num_lbas:
            raise SnapshotError(f"lba {lba} out of range")
        ppn = self.map.get(lba)
        if ppn is None:
            if lba in self._lost_lbas:
                raise UncorrectableError(
                    f"lba {lba} of snapshot {self.snapshot.name!r} was "
                    "lost to a media fault (see the damage report)")
            yield UNMAPPED_READ_NS
            return bytes(self.ftl.block_size)
        record = yield from self.ftl.nand.read_page(ppn)
        return self.ftl._payload(record)

    def content_digests(self, lbas=None) -> Dict[int, int]:
        return self.ftl.kernel.run_process(self.content_digests_proc(lbas),
                                           name="snap-digests")

    def content_digests_proc(self, lbas=None) -> Generator:
        """Per-LBA CRC32 digests read through the real activation path.

        ``lbas`` defaults to every LBA this activation maps; pass an
        explicit iterable to digest a fixed window (replication's
        end-to-end verification digests the transferred set on both
        devices and compares).  Reads go through :meth:`read_proc`, so
        the digests attest to what the device actually serves — map
        entries pointing at erased or unreadable media cannot pass.
        """
        self._require_live()
        if lbas is None:
            lbas = [lba for lba, _ppn in self.map.items()]
        digests: Dict[int, int] = {}
        for lba in sorted(set(lbas)):
            data = yield from self.read_proc(lba)
            digests[lba] = zlib.crc32(data) & 0xFFFFFFFF
        return digests

    def write(self, lba: int, data: Optional[bytes] = None) -> None:
        self.ftl.kernel.run_process(self.write_proc(lba, data),
                                    name=f"snap-write@{lba}")

    def write_proc(self, lba: int, data: Optional[bytes] = None) -> Generator:
        """Write into the activation's fork epoch (writable extension)."""
        self._require_live()
        if not self.writable:
            raise SnapshotError(
                "activation is read-only (enable writable_activations)")
        if not 0 <= lba < self.num_lbas:
            raise SnapshotError(f"lba {lba} out of range")
        header = OobHeader(kind=PageKind.DATA, lba=lba, epoch=self.epoch,
                           seq=self.ftl._bump_seq(),
                           length=len(data) if data is not None else 0)
        ppn, done = yield from self.ftl.log.append(header, data)
        self.ftl._on_packet_appended(ppn, header)
        bitmap = self.ftl._epoch_bitmaps[self.epoch]
        old = self.map.insert(lba, ppn)
        bitmap.set(ppn)
        if old is not None and bitmap.test(old):
            bitmap.clear(old)
        self.ftl.cleaner.maybe_kick()
        if self.ftl.config.sync_writes:
            yield done


def activate_proc(ftl: "IoSnapDevice", snap: "Snapshot",
                  limiter=None) -> Generator:
    """The five activation steps of paper §5.8."""
    # Step 1: validate the snapshot exists (resolve() already did) and
    # is not deleted.
    if snap.deleted:
        raise SnapshotError(f"snapshot {snap.name!r} is deleted")
    if limiter is None:
        limiter = NullLimiter()

    # Step 2: persist an activate note (crash-correct reconstruction).
    # Step 3: increment the epoch counter — the activation gets a fork
    # epoch inheriting the snapshot's blocks.
    new_epoch = ftl.tree.peek_next_epoch()
    note = SnapActivateNote(snap_id=snap.snap_id, new_epoch=new_epoch)
    yield from ftl._append_note(note, PageKind.NOTE_SNAP_ACTIVATE)
    epoch = ftl.tree.new_activation_epoch(snap)
    assert epoch == new_epoch

    # Step 4: reconstruct the snapshot's FTL from the log.  A residue
    # left by a previous deactivation turns the scan into a delta
    # rescan over only the regions that changed since.
    scan_started = ftl.kernel.now
    path = frozenset(ftl.tree.path_epochs(snap.epoch))
    counters_before = ftl.activation_counters.as_dict()
    move_log = ftl.begin_scan()
    try:
        residue = ftl._residues.take(snap.snap_id, path)
        mode = ("delta" if residue is not None
                else "selective" if ftl.config.selective_scan else "full")
        winners, trims, casualties = yield from _scan_for_path(
            ftl, path, limiter, residue=residue)
        for lba, trim_seq in trims.items():
            entry = winners.get(lba)
            if entry is not None and entry[0] < trim_seq:
                del winners[lba]
        scan_ns = ftl.kernel.now - scan_started

        # Reconstruction: bulk-load a compact tree (paper §6.2.2 notes
        # the activated tree is *more* compact than the fragmented
        # active tree), paced like the scan.
        reconstruct_started = ftl.kernel.now
        items = sorted((lba, ppn) for lba, (_seq, ppn) in winners.items())
        chunk = 1024
        for index in range(0, len(items), chunk):
            cost = len(items[index:index + chunk]) * MAP_BULK_INSERT_NS
            yield cost
            yield from limiter.pace(cost)
        fmap = BPlusTree.bulk_load(items)

        # Apply move-log fixups and publish atomically (no yields from
        # here to end_scan): the map must not reference pages the
        # cleaner is waiting to erase.
        for old_ppn, new_ppn, header in move_log:
            if fmap.get(header.lba) == old_ppn:
                fmap.insert(header.lba, new_ppn)
            entry = winners.get(header.lba)
            if entry is not None and entry[1] == old_ppn:
                winners[header.lba] = (entry[0], new_ppn)
        writable = ftl.config.writable_activations
        if writable:
            ftl._set_epoch_bitmaps(
                {epoch: ftl._epoch_bitmaps[snap.epoch].fork()})
        activated = ActivatedSnapshot(
            ftl, snap, epoch, fmap, writable,
            scan_ns=scan_ns,
            reconstruct_ns=ftl.kernel.now - reconstruct_started,
            path=path, winners=winners, trims=trims,
            damage=casualties)
        ftl._activations.append(activated)
    finally:
        ftl.end_scan(move_log)

    counters_after = ftl.activation_counters.as_dict()
    ftl.snap_metrics.activation_reports.append({
        "snapshot": snap.name,
        "mode": mode,
        "scan_ns": activated.scan_ns,
        "reconstruct_ns": activated.reconstruct_ns,
        "total_ns": ftl.kernel.now - scan_started,
        "entries": len(activated.map),
        "map_nodes": activated.map.node_count(),
        "map_bytes": activated.map.memory_bytes(),
        "segments_skipped": (counters_after["segments_skipped"]
                             - counters_before["segments_skipped"]),
        "pages_scanned": (counters_after["pages_scanned"]
                          - counters_before["pages_scanned"]),
        "pages_lost": len(activated.damage),
    })
    return activated


def _scan_batch_size(ftl: "IoSnapDevice", limiter) -> int:
    """How many header reads to keep in flight per scan burst.

    The scan is vectored I/O: an unthrottled scan keeps the device's
    queues deep (that is exactly why naive activation 10x-es foreground
    latency, Figure 9a).  A duty-cycle limiter bounds the burst to what
    fits its work quantum, which reduces both the *frequency* and the
    *depth* of the interference — the paper's "degree of interspersing".
    """
    work_ns = getattr(limiter, "work_ns", None)
    if work_ns is None:
        return SCAN_BATCH
    per_read_ns = max(1, ftl.nand.timing.read_page_ns + REPLAY_PACKET_NS)
    return max(1, min(SCAN_BATCH, work_ns // per_read_ns))


def _scan_for_path(ftl: "IoSnapDevice", path: frozenset, limiter,
                   residue: Optional[ActivationResidue] = None,
                   counters=None) -> Generator:
    """Fold path-epoch packets from the log into ``(winners, trims)``.

    Without a residue the entire log is read (paper §6.2.2: "the
    entire log needs to be read to ensure all the blocks belonging to
    the snapshot are identified correctly") — modulo the selective-scan
    summary skip.  With a residue the fold starts from its digest and
    only the regions that changed since its capture are read: segments
    still at the recorded (allocation seq, extent) coordinates are
    skipped outright, segments that merely grew are scanned from the
    recorded extent, and segments whose allocation seq changed (erased
    and reused) are rescanned in full.  Re-folding a cleaner duplicate
    over the residue is idempotent under the ``>=`` tie-break, so both
    paths converge to the same winners.
    """
    winners: Dict[int, Tuple[int, int]] = \
        dict(residue.winners) if residue is not None else {}
    trims: Dict[int, int] = \
        dict(residue.trims) if residue is not None else {}
    casualties: list = []
    segments = sorted((seg for seg in ftl.log.segments if seg.seq >= 0),
                      key=lambda seg: seg.seq)
    batch_size = _scan_batch_size(ftl, limiter)
    # Callers other than activation (snapshot diffing, replication
    # sends) pass their own counter set so their scans do not inflate
    # the activation acceleration metrics.
    if counters is None:
        counters = ftl.activation_counters

    def fold(ppn: int, header) -> None:
        if header.epoch not in path:
            return
        if header.kind is PageKind.DATA:
            # ">=": the cleaner leaves identical (lba, seq) duplicates
            # behind until it erases the source segment; the later log
            # position is always the fresher copy, never the one
            # pending erase.
            current = winners.get(header.lba)
            if current is None or header.seq >= current[0]:
                winners[header.lba] = (header.seq, ppn)
        elif header.kind is PageKind.NOTE_TRIM:
            if header.seq > trims.get(header.lba, -1):
                trims[header.lba] = header.seq

    pending: list = []
    selective = ftl.config.selective_scan
    array = ftl.nand.array
    for seg in segments:
        start_offset = 1
        if residue is not None:
            recorded = residue.seg_vector.get(seg.index)
            if recorded is not None and recorded[0] == seg.seq:
                if recorded[1] >= seg.next_offset:
                    # Unchanged since the residue was captured; its
                    # packets are already folded into the digest.
                    counters.bump("segments_skipped")
                    continue
                start_offset = recorded[1]
        if selective and not ftl.segment_intersects_epochs(seg, path):
            # §7 extension: nothing from the snapshot's epoch path ever
            # landed in this segment — skip it wholesale.
            counters.bump("segments_skipped")
            continue
        # A concurrent append may have reserved (but not yet
        # programmed) the tail of the open segment; a torn page is
        # power-cut residue awaiting erase — neither holds a packet.
        for ppn, _header in array.readable_headers(
                seg.written_ppns(start_offset)):
            pending.append(ppn)
            if len(pending) >= batch_size:
                counters.bump("pages_scanned", len(pending))
                counters.bump("header_batches")
                yield from _read_batch(ftl, pending, fold, limiter,
                                       casualties)
                pending = []
    if pending:
        counters.bump("pages_scanned", len(pending))
        counters.bump("header_batches")
        yield from _read_batch(ftl, pending, fold, limiter, casualties)
    return winners, trims, casualties


def _read_batch(ftl: "IoSnapDevice", ppns: list, fold, limiter,
                casualties: list) -> Generator:
    """Issue one vectored burst of OOB reads, fold results, then pace.

    The burst (``NandDevice.read_headers``) hands each header over in
    list order as soon as it and every page before it are read.  It
    salvages: an uncorrectable page comes back as None, and the
    casualty is struck from the device's structures and reported with
    the partial map rather than aborting the whole activation.
    """
    started = ftl.kernel.now

    def deliver(ppn: int, header) -> None:
        if header is None:
            ftl.record_media_loss(ppn, reason="activation-scan")
            casualties.append(ppn)
        else:
            fold(ppn, header)

    yield ftl.nand.read_headers(ppns, deliver)
    yield len(ppns) * REPLAY_PACKET_NS
    yield from limiter.pace(ftl.kernel.now - started)
