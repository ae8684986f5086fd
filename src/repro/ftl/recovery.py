"""Crash recovery by log scan (paper §5.5).

After an unclean shutdown there is no checkpoint to restore, so the FTL
is rebuilt from what the log itself says: every programmed page carries
an OOB header with (kind, lba, epoch, seq), segments carry their
allocation sequence number in their header page, and snapshot/trim
operations left synchronous notes behind.

The generic driver here scans the media (timed: one OOB read per page
plus per-packet replay CPU) and hands the sorted packet lists to the
FTL's ``_rebuild_state`` hook — the base FTL folds every data packet
into a single winners map; the ioSnap layer overrides the hook with the
two-phase snapshot-aware reconstruction of §5.5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Generator, List, Optional, Tuple

from repro.errors import EraseFailError, TornPageError, UncorrectableError
from repro.faults.damage import DamageEntry
from repro.ftl.log import SegmentState
from repro.ftl.packet import decode_note
from repro.ftl.vsl import REPLAY_PACKET_NS
from repro.nand.oob import NOTE_KINDS, OobHeader, PageKind
from repro.torture import sites

if TYPE_CHECKING:  # pragma: no cover
    from repro.ftl.vsl import VslDevice


@dataclass(frozen=True)
class ScannedPacket:
    """One packet found on the log during a scan."""

    ppn: int
    header: OobHeader
    note: object = None  # decoded note dataclass for NOTE_* pages


def _repair_segment(ftl: "VslDevice", seg) -> Generator:
    """Finish an interrupted erase / scrub a torn segment header.

    A power cut can leave a segment with (a) some blocks erased and
    some not (cut between the cleaner's per-block erases) or (b) a
    torn or non-header first page.  Either way nothing in it is
    recoverable — the cleaner only erases after relocating all live
    data — so complete the erase and hand the segment back as FREE.

    Returns False when the medium refused an erase (the segment must
    come back RETIRED instead of FREE).
    """
    pages_per_block = ftl.nand.geometry.pages_per_block
    first_block = seg.first_ppn // pages_per_block
    retired = False
    for block in range(first_block, first_block + ftl.log.blocks_per_segment):
        if not ftl.nand.array.block_is_erased(block):
            try:
                yield from ftl.nand.erase_block(block,
                                                site=sites.RECOVERY_ERASE)
            except EraseFailError:
                # Grown-bad mid-repair: nothing recoverable was in the
                # segment anyway; retire it from circulation.
                retired = True
    return not retired


def scan_log(ftl: "VslDevice") -> Generator:
    """Read every programmed page's header, in log order.

    Returns ``(packets, seg_states, next_seg_seq)`` where ``packets``
    is ordered by (segment allocation seq, offset) and ``seg_states``
    is the :meth:`repro.ftl.log.Log.adopt_state` input.

    Power-cut residue is tolerated: a torn page ends its segment's
    packet extent (the slot is consumed but carries nothing), and a
    segment whose header page is missing or torn while data remains —
    an interrupted erase — is erased the rest of the way and returned
    to the free pool.

    Media faults are tolerated too: an uncorrectable packet header is
    recorded in the damage manifest and skipped (unlike a torn page it
    does NOT end the extent — pages after it programmed fine); an
    uncorrectable *segment* header makes the whole segment
    unattributable, so it is scrubbed like a torn one; an erase that
    fails during repair retires the segment.
    """
    found: List[Tuple[int, List[ScannedPacket], int]] = []
    seg_states: Dict[int, Tuple[str, int, int]] = {}
    array = ftl.nand.array
    pages_per_block = ftl.nand.geometry.pages_per_block
    for seg in ftl.log.segments:
        if not array.is_programmed(seg.first_ppn):
            first_block = seg.first_ppn // pages_per_block
            blocks = range(first_block,
                           first_block + ftl.log.blocks_per_segment)
            erased_ok = True
            if not all(array.block_is_erased(b) for b in blocks):
                # Interrupted erase: the header block went first but
                # later blocks still hold stale pages.
                erased_ok = yield from _repair_segment(ftl, seg)
            seg_states[seg.index] = (
                (SegmentState.FREE if erased_ok
                 else SegmentState.RETIRED).value, -1, 0)
            continue
        try:
            first = yield from ftl.nand.read_header(seg.first_ppn,
                                                    salvage=True)
        except TornPageError:
            first = None  # cut mid segment-header program
        else:
            if first is None:
                # ECC exhausted on the segment header: every packet in
                # the segment just lost its log position.
                ftl.damage.record(DamageEntry(
                    ppn=seg.first_ppn, reason="scan-seg-header",
                    segment=seg.index, at_ns=ftl.kernel.now, lost=True))
        if first is None or first.kind is not PageKind.SEGMENT_HEADER:
            # Torn, half-erased, foreign, or unreadable segment:
            # nothing here is attributable to a log position; scrub it.
            erased_ok = yield from _repair_segment(ftl, seg)
            seg_states[seg.index] = (
                (SegmentState.FREE if erased_ok
                 else SegmentState.RETIRED).value, -1, 0)
            continue
        seg_seq = first.lba
        packets: List[ScannedPacket] = []
        offset = 1
        while (seg.first_ppn + offset < seg.end_ppn
               and array.is_programmed(seg.first_ppn + offset)):
            ppn = seg.first_ppn + offset
            try:
                header = yield from ftl.nand.read_header(ppn, salvage=True)
            except TornPageError:
                if array.is_failed(ppn):
                    # Program-fail residue: unlike a power-cut torn
                    # page the log *continued* — the append retried on
                    # the next PPN — so later packets in this segment
                    # are real.  Step over the burned slot.
                    offset += 1
                    continue
                # The cut hit mid-program of this page: the slot is
                # consumed (keep it inside the written extent so the
                # bookkeeping matches the media) but the packet never
                # happened.  Nothing can follow it: appends serialize
                # on their head, each head's programs drain through the
                # owning die's FIFO queue, and a segment never spans
                # dies — so programs land in submission order within
                # every segment (see docs/parallel.md).
                offset += 1
                break
            if header is None:
                # Uncorrectable header: the packet's content is gone
                # but — unlike a torn page — later pages in the segment
                # programmed fine, so keep scanning past it.
                ftl.damage.record(DamageEntry(
                    ppn=ppn, reason="scan-header", segment=seg.index,
                    at_ns=ftl.kernel.now, lost=True))
                offset += 1
                continue
            yield REPLAY_PACKET_NS
            note = None
            if header.kind in NOTE_KINDS:
                try:
                    record = yield from ftl.nand.read_page(ppn)
                except UncorrectableError:
                    # The note's payload rotted.  Without it the note
                    # cannot be replayed; record the casualty and drop
                    # the packet entirely.
                    ftl.damage.record(DamageEntry(
                        ppn=ppn, reason="scan-note", epoch=header.epoch,
                        segment=seg.index, at_ns=ftl.kernel.now,
                        lost=True))
                    offset += 1
                    continue
                note = decode_note(header.kind, record.data[:header.length])
            packets.append(ScannedPacket(ppn=ppn, header=header, note=note))
            offset += 1
        # Recovered segments all come back CLOSED; the next append
        # opens a fresh segment rather than risking a partially
        # programmed one.
        seg_states[seg.index] = (SegmentState.CLOSED.value, seg_seq, offset)
        found.append((seg_seq, packets, seg.index))

    found.sort(key=lambda item: item[0])
    ordered: List[ScannedPacket] = []
    for _seq, packets, _idx in found:
        ordered.extend(packets)
    next_seg_seq = (max(item[0] for item in found) + 1) if found else 0
    return ordered, seg_states, next_seg_seq


def recover(ftl: "VslDevice") -> Generator:
    """Full crash recovery: scan, restore log bookkeeping, rebuild state."""
    packets, seg_states, next_seg_seq = yield from scan_log(ftl)
    ftl.log.adopt_state(seg_states, next_seg_seq, open_heads=None)

    max_seq = max((p.header.seq for p in packets), default=0)
    ftl._next_seq = max_seq

    for packet in packets:
        if packet.note is not None:
            ftl._register_note(packet.ppn, packet.note)

    yield from ftl._rebuild_state(packets)


def fold_winners(packets: List[ScannedPacket],
                 epoch_filter: Optional[frozenset] = None,
                 ) -> Dict[int, Tuple[int, int]]:
    """Resolve packets to per-LBA winners: {lba: (seq, ppn)}.

    Later sequence numbers win; trim notes kill older data.  When
    ``epoch_filter`` is given, only packets written in those epochs
    participate (this is how a snapshot's state is isolated from
    sibling branches).
    """
    best: Dict[int, Tuple[int, int]] = {}
    trims: Dict[int, int] = {}
    for packet in packets:
        header = packet.header
        if epoch_filter is not None and header.epoch not in epoch_filter:
            continue
        if header.kind is PageKind.DATA:
            # ">=": cleaner copy-forwards preserve (lba, seq); of two
            # identical copies prefer the later log position, matching
            # the activation scan's tie-break.
            current = best.get(header.lba)
            if current is None or header.seq >= current[0]:
                best[header.lba] = (header.seq, packet.ppn)
        elif header.kind is PageKind.NOTE_TRIM:
            if header.seq > trims.get(header.lba, -1):
                trims[header.lba] = header.seq
    for lba, trim_seq in trims.items():
        entry = best.get(lba)
        if entry is not None and entry[0] < trim_seq:
            del best[lba]
    return best
