"""Snapshot differencing: which blocks changed between two snapshots.

The log *is* a change record: every packet carries (lba, epoch, seq),
so the difference between two snapshots on the same lineage falls out
of one header scan folding both epoch paths — no block contents are
read and no forward maps need to exist.  This is the enabler for
incremental backup (see :mod:`repro.core.destage`) and replication
(:mod:`repro.replicate`): after a full transfer of snapshot A, only
``diff(A, B)`` blocks need to leave the device to reproduce B.

Two entry points share the scan machinery:

- :func:`snapshot_diff_proc` computes the *exact classification*
  (changed / added / removed) by folding both epoch paths in one pass;
- :func:`changed_blocks_proc` computes the *transfer set* for a send.
  When ``base`` is an ancestor of ``target`` (the common incremental
  chain) it folds only the delta epochs — packets on the shared prefix
  fold identically into both snapshots and can never contribute a
  difference — so the epoch-summary index skips every segment that
  holds nothing from the delta.  The price is classification fuzz the
  transfer does not care about: a delta winner is "copy" whether the
  block existed in base or not, and a delta trim is a conservative
  "remove" (trimming an LBA the receiver never mapped is a no-op).

Both scans are rate-limited like an activation, charge simulated read
latency per header batch, and bump the device's ``diff_counters`` so
skipped segments are observable (``info()["snapshots"]["diff"]``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Generator, List, Optional, Tuple

from repro.core.activation import _read_batch, _scan_batch_size, _scan_for_path
from repro.ftl.ratelimit import NullLimiter
from repro.nand.oob import PageKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.iosnap import IoSnapDevice


def extents_of(lbas: List[int]) -> List[Tuple[int, int]]:
    """Collapse a sorted LBA list into contiguous (start, count) runs."""
    runs: List[Tuple[int, int]] = []
    for lba in lbas:
        if runs and runs[-1][0] + runs[-1][1] == lba:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((lba, 1))
    return runs


@dataclass
class SnapshotDiff:
    """Result of comparing snapshot ``base`` to snapshot ``target``."""

    base: str
    target: str
    changed: List[int] = field(default_factory=list)   # present in both, different
    added: List[int] = field(default_factory=list)     # only in target
    removed: List[int] = field(default_factory=list)   # only in base
    # Sizing: what an incremental transfer of this diff moves.
    block_size: int = 0
    # Scan cost, for diff_reports / profiling.
    scan_ns: int = 0
    segments_skipped: int = 0
    pages_scanned: int = 0
    header_batches: int = 0

    def lbas_to_copy(self) -> List[int]:
        """Blocks an incremental backup of ``target`` must transfer."""
        return sorted(self.changed + self.added)

    def extents(self) -> List[Tuple[int, int]]:
        """Contiguous (start, count) runs of :meth:`lbas_to_copy`."""
        return extents_of(self.lbas_to_copy())

    @property
    def extent_count(self) -> int:
        return len(self.extents())

    @property
    def bytes_to_copy(self) -> int:
        return len(self.lbas_to_copy()) * self.block_size

    def is_empty(self) -> bool:
        return not (self.changed or self.added or self.removed)

    def summary(self) -> str:
        return (f"{self.base} -> {self.target}: {len(self.changed)} changed, "
                f"{len(self.added)} added, {len(self.removed)} removed; "
                f"{self.extent_count} extents, "
                f"{self.bytes_to_copy} bytes to copy")


def snapshot_diff(device: "IoSnapDevice", base, target,
                  limiter=None) -> SnapshotDiff:
    """Synchronous façade for :func:`snapshot_diff_proc`."""
    return device.kernel.run_process(
        snapshot_diff_proc(device, base, target, limiter), name="snap-diff")


def snapshot_diff_proc(device: "IoSnapDevice", base, target,
                       limiter=None) -> Generator:
    """Compute the block-level difference between two snapshots.

    ``base``/``target`` are snapshot references (name, id, or object).
    Either may also be ``None``, meaning the empty volume — so
    ``snapshot_diff(device, None, "first")`` sizes a full backup.

    One pass over the log's OOB headers folds both snapshots' epoch
    paths simultaneously; the scan is rate-limited like an activation.
    """
    base_snap = device.tree.resolve(base) if base is not None else None
    target_snap = device.tree.resolve(target) if target is not None else None
    if limiter is None:
        limiter = NullLimiter()

    base_path = (frozenset(device.tree.path_epochs(base_snap.epoch))
                 if base_snap is not None else frozenset())
    target_path = (frozenset(device.tree.path_epochs(target_snap.epoch))
                   if target_snap is not None else frozenset())

    started = device.kernel.now
    before = device.diff_counters.as_dict()
    base_state, target_state = yield from _fold_two_paths(
        device, base_path, target_path, limiter)

    diff = SnapshotDiff(
        base=base_snap.name if base_snap else "<empty>",
        target=target_snap.name if target_snap else "<empty>",
        block_size=device.block_size)
    for lba in set(base_state) | set(target_state):
        in_base = lba in base_state
        in_target = lba in target_state
        if in_base and not in_target:
            diff.removed.append(lba)
        elif in_target and not in_base:
            diff.added.append(lba)
        elif base_state[lba][0] != target_state[lba][0]:
            # Different winning sequence number => different contents
            # (every write gets a fresh seq; equal seq means the very
            # same packet, possibly relocated).
            diff.changed.append(lba)
    diff.changed.sort()
    diff.added.sort()
    diff.removed.sort()
    _finish_scan_stats(device, diff, started, before, mode="two-path")
    return diff


@dataclass
class ChangedBlocks:
    """The transfer set a send of ``base -> target`` must move.

    ``winners`` is the multi-version lookup's answer for every block in
    ``copy``: the (seq, ppn) of the packet that is ``target``'s version
    of the LBA.  ``removed`` lists LBAs the receiver must trim; in
    ``delta`` mode it is conservative (it may name LBAs base never
    mapped — trimming those is a no-op), in ``two-path`` mode exact.
    """

    base: str
    target: str
    mode: str                                  # "delta" | "two-path"
    copy: List[int] = field(default_factory=list)
    removed: List[int] = field(default_factory=list)
    winners: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    block_size: int = 0
    scan_ns: int = 0
    segments_skipped: int = 0
    pages_scanned: int = 0
    header_batches: int = 0

    def extents(self) -> List[Tuple[int, int]]:
        return extents_of(sorted(self.copy))

    @property
    def bytes_to_copy(self) -> int:
        return len(self.copy) * self.block_size


def changed_blocks(device: "IoSnapDevice", base, target,
                   limiter=None) -> ChangedBlocks:
    """Synchronous façade for :func:`changed_blocks_proc`."""
    return device.kernel.run_process(
        changed_blocks_proc(device, base, target, limiter),
        name="changed-blocks")


def changed_blocks_proc(device: "IoSnapDevice", base, target,
                        limiter=None) -> Generator:
    """Plan a send: exact changed-block set plus target-epoch winners.

    When ``base``'s epoch path is a prefix of ``target``'s (``None``
    base included), only the delta epochs are folded: a packet in a
    shared epoch contributes the *same* winner to both snapshots, so
    it can never make a block differ.  The epoch-summary index then
    skips every segment holding nothing from the delta — on a lightly
    dirtied device this is the difference between scanning 5% of the
    log and all of it.  Outside the ancestor case (diverged branches)
    the exact two-path fold runs instead.
    """
    base_snap = device.tree.resolve(base) if base is not None else None
    target_snap = device.tree.resolve(target) if target is not None else None
    if limiter is None:
        limiter = NullLimiter()
    base_path = (frozenset(device.tree.path_epochs(base_snap.epoch))
                 if base_snap is not None else frozenset())
    target_path = (frozenset(device.tree.path_epochs(target_snap.epoch))
                   if target_snap is not None else frozenset())

    started = device.kernel.now
    before = device.diff_counters.as_dict()
    result = ChangedBlocks(
        base=base_snap.name if base_snap else "<empty>",
        target=target_snap.name if target_snap else "<empty>",
        mode="delta" if base_path <= target_path else "two-path",
        block_size=device.block_size)

    if result.mode == "delta":
        delta = target_path - base_path
        winners, trims, _casualties = yield from _scan_for_path(
            device, delta, limiter, counters=device.diff_counters)
        for lba, trim_seq in trims.items():
            entry = winners.get(lba)
            if entry is not None and entry[0] < trim_seq:
                del winners[lba]
        result.winners = winners
        result.copy = sorted(winners)
        # Conservative: every LBA whose latest delta event is a trim.
        # If base mapped it, it must go; if base never mapped it, the
        # receiver's trim is a no-op.  Either way the receive converges
        # on target's exact content.
        result.removed = sorted(lba for lba in trims if lba not in winners)
    else:
        base_state, target_state = yield from _fold_two_paths(
            device, base_path, target_path, limiter)
        for lba, entry in target_state.items():
            old = base_state.get(lba)
            if old is None or old[0] != entry[0]:
                result.winners[lba] = entry
        result.copy = sorted(result.winners)
        result.removed = sorted(lba for lba in base_state
                                if lba not in target_state)
    _finish_scan_stats(device, result, started, before, mode=result.mode)
    return result


def _finish_scan_stats(device: "IoSnapDevice", result, started: int,
                       before: Dict[str, int], mode: str) -> None:
    """Fill scan-cost fields and append the diff report."""
    after = device.diff_counters.as_dict()
    device.diff_counters.bump("diffs")
    result.scan_ns = device.kernel.now - started
    result.segments_skipped = after["segments_skipped"] \
        - before["segments_skipped"]
    result.pages_scanned = after["pages_scanned"] - before["pages_scanned"]
    result.header_batches = after["header_batches"] - before["header_batches"]
    copy = (result.lbas_to_copy() if isinstance(result, SnapshotDiff)
            else result.copy)
    device.snap_metrics.diff_reports.append({
        "base": result.base,
        "target": result.target,
        "mode": mode,
        "copy": len(copy),
        "removed": len(result.removed),
        "extents": len(extents_of(sorted(copy))),
        "bytes_to_copy": len(copy) * result.block_size,
        "scan_ns": result.scan_ns,
        "segments_skipped": result.segments_skipped,
        "pages_scanned": result.pages_scanned,
        "header_batches": result.header_batches,
    })


def _fold_two_paths(device: "IoSnapDevice", base_path: frozenset,
                    target_path: frozenset, limiter) -> Generator:
    """One header scan, two simultaneous winner folds.

    Header reads are batched through one pending buffer exactly like
    the activation scan (vectored OOB bursts paced by the limiter); the
    written-extent range is already a stable snapshot view, so no
    per-segment copy is materialized.

    Only the *shared-epoch-or-wider* union scan is sound here: a packet
    in a shared epoch can decide "removed" (its LBA trimmed on one path
    only) and "changed vs added", so shared segments cannot be skipped
    the way :func:`changed_blocks_proc`'s delta mode skips them.
    """
    union = base_path | target_path
    counters = device.diff_counters
    base_best: Dict[int, Tuple[int, int]] = {}
    target_best: Dict[int, Tuple[int, int]] = {}
    # Unreadable headers found mid-diff: recorded in the device's
    # damage manifest by the batch reader; the page simply cannot
    # contribute to either fold.
    casualties: list = []
    base_trims: Dict[int, int] = {}
    target_trims: Dict[int, int] = {}
    batch_size = _scan_batch_size(device, limiter)

    def fold(ppn: int, header) -> None:
        if header.epoch not in union:
            return
        for path, best, trims in (
                (base_path, base_best, base_trims),
                (target_path, target_best, target_trims)):
            if header.epoch not in path:
                continue
            if header.kind is PageKind.DATA:
                current = best.get(header.lba)
                if current is None or header.seq >= current[0]:
                    best[header.lba] = (header.seq, ppn)
            elif header.kind is PageKind.NOTE_TRIM:
                if header.seq > trims.get(header.lba, -1):
                    trims[header.lba] = header.seq

    segments = sorted((seg for seg in device.log.segments if seg.seq >= 0),
                      key=lambda seg: seg.seq)
    move_log = device.begin_scan()
    try:
        pending: list = []
        for seg in segments:
            if (device.config.selective_scan
                    and not device.segment_intersects_epochs(seg, union)):
                counters.bump("segments_skipped")
                continue
            for ppn, _header in device.nand.array.readable_headers(
                    seg.written_ppns()):
                pending.append(ppn)
                if len(pending) >= batch_size:
                    counters.bump("pages_scanned", len(pending))
                    counters.bump("header_batches")
                    yield from _read_batch(device, pending, fold, limiter,
                                           casualties)
                    pending = []
        if pending:
            counters.bump("pages_scanned", len(pending))
            counters.bump("header_batches")
            yield from _read_batch(device, pending, fold, limiter,
                                   casualties)
    finally:
        device.end_scan(move_log)

    for best, trims in ((base_best, base_trims),
                        (target_best, target_trims)):
        for lba, trim_seq in trims.items():
            entry = best.get(lba)
            if entry is not None and entry[0] < trim_seq:
                del best[lba]
    return base_best, target_best
