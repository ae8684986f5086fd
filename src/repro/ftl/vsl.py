"""The base FTL: a simulation of the Fusion-io Virtual Storage Layer.

:class:`VslDevice` is the "vanilla" remap-on-write FTL the paper
describes in §5.2: a host-memory B+tree forward map, a validity bitmap,
log-structured writes, and a background segment cleaner.  The ioSnap
layer (:mod:`repro.core`) subclasses it, overriding the hook methods
grouped at the bottom of the class.

Two calling conventions exist for every I/O operation:

- ``read/write/trim(...)`` — synchronous façade; runs the simulation
  until the operation completes.  For straight-line code (tests,
  examples).
- ``read_proc/write_proc/trim_proc(...)`` — generator processes to be
  spawned on the kernel.  For workloads with concurrency (benchmarks
  measuring interference).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.errors import (
    DegradedModeError,
    FtlError,
    LbaError,
    UncorrectableError,
)
from repro.faults.damage import DamageEntry, DamageReport
from repro.faults.model import MediaFaultModel
from repro.ftl.btree import BPlusTree
from repro.ftl.cleaner import SegmentCleaner
from repro.ftl.log import Log, Segment
from repro.ftl.packet import TrimNote, decode_note, encode_note
from repro.ftl.scrub import Scrubber
from repro.ftl.validity import ValidityBitmap
from repro.nand.device import NandDevice
from repro.nand.geometry import NandConfig
from repro.nand.oob import OobHeader, PageKind
from repro.sim import Kernel


# Host CPU costs charged to virtual time, in nanoseconds.  The one
# cost a caller varies (Figure 7's CoW copy) is ``FtlConfig.bitmap_cow_ns``.
REPLAY_PACKET_NS = 300        # per packet during scans/recovery
MAP_BULK_INSERT_NS = 1_500    # per entry when (re)building a map
BITMAP_MERGE_PAGE_NS = 2_000  # per bitmap page OR'd in a merge
BITMAP_ADJUST_NS = 200        # per epoch bit fixed on copy-forward
UNMAPPED_READ_NS = 1_000      # read of a never-written LBA


@dataclass
class FtlConfig:
    """Tunables for the FTL and its background machinery."""

    blocks_per_segment: int = 1
    op_ratio: float = 0.25             # reserved physical fraction
    # Foreground append heads (the multi-queue data path).  0 means
    # "auto": one user head per channel, which keeps every channel's
    # dies busy.  1 restores the classic single-head log.
    parallel_heads: int = 0
    gc_low_watermark: int = 3          # kick cleaner below this many free
    gc_reserve_segments: int = 2
    bitmap_page_bytes: int = 64        # validity CoW granularity
    sync_writes: bool = False
    # Flash-resident forward map (repro.ftl.mapcache).  0 keeps the
    # classic all-RAM B+ tree; > 0 bounds resident translation pages
    # to that many cache slots, with the map itself living on flash
    # behind a GTD.  ``map_span`` is LBAs per translation page.
    map_cache_pages: int = 0
    map_span: int = 64
    cleaner_budget_ms: float = 20.0    # pacing budget per segment clean
    readahead_pages: int = 8           # 0 disables sequential readahead
    # Segment selection: "greedy" (most reclaimable space) or
    # "cost_benefit" (LFS-style (1-u)*age/(1+u): prefers old, cold
    # segments even when slightly fuller — lower long-run write
    # amplification under skewed workloads).
    gc_policy: str = "greedy"
    # Virtual CPU charged per validity bitmap page copied on write
    # (Figure 7 raises it).
    bitmap_cow_ns: int = 20_000

    def __post_init__(self) -> None:
        if self.blocks_per_segment < 1:
            raise ValueError("blocks_per_segment must be >= 1")
        if not 0.0 < self.op_ratio < 0.9:
            raise ValueError(f"op_ratio out of range: {self.op_ratio}")
        if self.parallel_heads < 0:
            raise ValueError("parallel_heads must be >= 0 (0 = auto)")
        if self.gc_low_watermark < 1:
            raise ValueError("gc_low_watermark must be >= 1")
        if self.gc_reserve_segments < 0:
            raise ValueError("gc_reserve_segments must be >= 0")
        if self.gc_policy not in ("greedy", "cost_benefit"):
            raise ValueError(f"unknown gc_policy {self.gc_policy!r}")
        if self.map_cache_pages < 0:
            raise ValueError("map_cache_pages must be >= 0 (0 = all-RAM)")
        if not 1 <= self.map_span <= 256:
            raise ValueError("map_span must be in [1, 256] "
                             "(one MAP packet must fit a flash page)")
        if self.readahead_pages < 0:
            raise ValueError("readahead_pages must be >= 0 (0 = off)")
        if self.bitmap_cow_ns < 0:
            raise ValueError("bitmap_cow_ns must be >= 0")


@dataclass
class FtlMetrics:
    """Observable counters for experiments."""

    writes: int = 0
    reads: int = 0
    trims: int = 0
    readahead_hits: int = 0
    bitmap_cow_copies: int = 0
    cow_timestamps: List[int] = field(default_factory=list)
    cleaner_runs: List[Dict[str, Any]] = field(default_factory=list)


class _ReadCache:
    """Tiny LRU page cache fed by sequential readahead."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: Dict[int, Any] = {}

    def get(self, ppn: int):
        record = self._entries.pop(ppn, None)
        if record is not None:
            self._entries[ppn] = record
        return record

    def put(self, ppn: int, record) -> None:
        if self.capacity <= 0:
            return
        self._entries.pop(ppn, None)
        self._entries[ppn] = record
        while len(self._entries) > self.capacity:
            self._entries.pop(next(iter(self._entries)))

    def invalidate_range(self, start_ppn: int, count: int) -> None:
        for ppn in range(start_ppn, start_ppn + count):
            self._entries.pop(ppn, None)


class VslDevice:
    """Log-structured remap-on-write FTL exposing a block interface."""

    CONFIG_CLS = FtlConfig
    # Config fields that define the on-media format: they must match
    # between the instance that formatted the device and any later
    # open, so they are persisted in the superblock.
    FORMAT_FIELDS = ("blocks_per_segment", "op_ratio", "bitmap_page_bytes")

    def __init__(self, kernel: Kernel, nand: NandDevice,
                 config: Optional[FtlConfig] = None) -> None:
        self.kernel = kernel
        self.nand = nand
        self.config = config if config is not None else self.CONFIG_CLS()
        self.log = Log(kernel, nand,
                       blocks_per_segment=self.config.blocks_per_segment,
                       reserve_segments=self.config.gc_reserve_segments,
                       user_heads=self.config.parallel_heads or None)
        self.block_size = nand.geometry.page_size
        usable_pages = nand.geometry.total_pages - self.log.segment_count
        self.num_lbas = int(usable_pages * (1.0 - self.config.op_ratio))
        # Structural floor on overprovisioning: the reserve, every
        # append head's open segment, and one cleaning-scratch segment
        # are never available to hold exported data.  Exporting more
        # would let a fully-utilized device wedge with every closed
        # segment 100% valid and nothing for the cleaner to reclaim.
        # GC heads are per stripe (two each when cold segregation is on).
        gc_heads_per_stripe = \
            2 if getattr(self.config, "gc_segregate_cold", False) else 1
        headroom = (self.log.reserve_target
                    + self.log.user_head_count
                    + self.log.num_stripes * gc_heads_per_stripe
                    + 1)
        if self.config.map_cache_pages > 0:
            # The flash-resident map adds its own append head (one more
            # permanently open segment) ...
            headroom += 1
        self._headroom = headroom
        hard_cap = (self.log.segment_count - headroom) * \
            (self.log.segment_pages - 1)
        self.num_lbas = min(self.num_lbas, hard_cap)
        if self.config.map_cache_pages > 0:
            # ... and its translation pages live *in* the log alongside
            # data: budget two log pages per translation page (the live
            # copy plus garbage awaiting cleaning) out of the exported
            # capacity, or a full device would have nowhere to keep its
            # own map.
            tpages = -(-self.num_lbas // self.config.map_span)
            self.num_lbas = min(self.num_lbas, hard_cap - 2 * tpages)
        if self.num_lbas < 1:
            raise FtlError("geometry too small to export any LBAs")
        self.map = self._make_map()
        self.metrics = FtlMetrics()
        self._next_seq = 0
        self._note_registry: Dict[int, Any] = {}   # ppn -> note dataclass
        self._read_cache = _ReadCache(capacity=4 * max(1, self.config.readahead_pages))
        self._prefetch_inflight: Dict[int, Any] = {}   # ppn -> Event
        self._last_read_lba: Optional[int] = None
        self._active_scans: List[List[Tuple[int, int, OobHeader]]] = []
        self._scan_done_waiters: List[Any] = []
        # Write gate: snapshot operations quiesce the data path so no
        # write straddles an epoch boundary (paper §5.8 step 1 — here
        # enforced by the device rather than trusted to applications).
        self._write_gate = None          # Event while closed, else None
        self._inflight_writes = 0
        self._drain_waiters: List[Any] = []
        # Built before the validity structures: their owners mark the
        # cleaner's occupancy index dirty from the first mutation on.
        self.cleaner = SegmentCleaner(self)
        self._make_structures()
        # Incremental per-segment valid-data counts (base FTL only;
        # ioSnap overrides the hooks and keeps a merged-count cache
        # instead).  Maintained on every validity set/clear so cleaner
        # candidate selection never re-scans segment bitmap ranges.
        self._seg_valid: List[int] = [0] * self.log.segment_count
        self._cleaner_procs = [
            kernel.spawn(self.cleaner.run(stripe), name=f"cleaner-{stripe}")
            for stripe in range(self.log.num_stripes)]
        self.log.on_space_pressure = lambda: self.cleaner.maybe_kick(force=True)
        # Media-fault survival state: a manifest of what the medium
        # destroyed, and a read-only latch that trips when grown-bad
        # retirements eat the spare-capacity reserve.
        self.damage = DamageReport()
        self.degraded = False
        self.degraded_reason: Optional[str] = None
        self.log.on_segment_retired = self._note_segment_retired
        self.scrubber: Optional[Scrubber] = None
        self._scrub_procs: List[Any] = []
        if nand.faults is not None:
            self.scrubber = Scrubber(self)
            self._scrub_procs = [
                kernel.spawn(self.scrubber.run(stripe),
                             name=f"scrubber-{stripe}")
                for stripe in range(self.log.num_stripes)]
        self._open = True

    # ------------------------------------------------------------------
    # Construction / lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, kernel: Kernel, nand_config: Optional[NandConfig] = None,
               config: Optional[FtlConfig] = None,
               faults: Optional[MediaFaultModel] = None) -> "VslDevice":
        """Format a fresh device on new NAND (optionally faulty NAND)."""
        nand = NandDevice(kernel, nand_config, faults=faults)
        ftl = cls(kernel, nand, config)
        nand.superblock["format"] = {
            field: getattr(ftl.config, field) for field in cls.FORMAT_FIELDS
        }
        return ftl

    @classmethod
    def open(cls, kernel: Kernel, nand: NandDevice,
             config: Optional[FtlConfig] = None) -> "VslDevice":
        """Attach to existing NAND: restore a checkpoint or run recovery.

        A checkpoint that fails to restore (corruption, version skew)
        is not fatal: the log itself is the source of truth, so the
        open falls back to a full log-scan recovery.
        """
        import dataclasses

        from repro.errors import CheckpointError
        from repro.ftl.checkpoint import restore_checkpoint
        from repro.ftl.recovery import recover

        fmt = nand.superblock.get("format")
        if fmt:
            if config is None:
                config = dataclasses.replace(cls.CONFIG_CLS(), **fmt)
            else:
                mismatched = {
                    field: (getattr(config, field), fmt[field])
                    for field in fmt if getattr(config, field) != fmt[field]
                }
                if mismatched:
                    raise FtlError(
                        "config conflicts with the device's on-media "
                        f"format: {mismatched}")

        ftl = cls(kernel, nand, config)
        restored = False
        if nand.superblock.get("clean"):
            try:
                kernel.run_process(restore_checkpoint(ftl), name="restore")
                restored = True
            except CheckpointError:
                # Rebuild a pristine instance: the failed restore may
                # have partially mutated state.
                ftl.cleaner.stop()
                if ftl.scrubber is not None:
                    ftl.scrubber.stop()
                kernel.run()
                ftl = cls(kernel, nand, config)
            # Arm crash semantics: next open must recover unless we
            # shut down cleanly again.
            nand.superblock["clean"] = False
        if not restored:
            kernel.run_process(recover(ftl), name="recover")
        # Segments retired in a previous life count against the spare
        # reserve from the moment we attach.
        ftl._maybe_degrade()
        return ftl

    def shutdown(self) -> None:
        """Clean shutdown: checkpoint all state and stop the cleaner."""
        self._require_open()
        self.cleaner.stop()
        if self.scrubber is not None:
            self.scrubber.stop()
        self.kernel.run_process(self._shutdown_proc(), name="shutdown")
        self._open = False

    def _shutdown_proc(self) -> Generator:
        from repro.ftl.checkpoint import write_checkpoint

        for proc in self._cleaner_procs:
            if not proc.done:
                yield proc
        for proc in self._scrub_procs:
            if not proc.done:
                yield proc
        # Make headroom for the checkpoint pages before the cleaner is
        # gone; otherwise a nearly-full device cannot be shut down.
        yield from self.cleaner.ensure_free(
            max(self.config.gc_low_watermark, 2))
        yield from write_checkpoint(self)

    def crash(self) -> None:
        """Simulate power loss: stop everything, leave the media as-is."""
        self._require_open()
        self.cleaner.stop()
        if self.scrubber is not None:
            self.scrubber.stop()
        # stop() only takes effect at the loop top; a worker parked
        # mid-clean (or mid-patrol) would otherwise resume during the
        # next incarnation's recovery and mutate the shared media under
        # it.  A crash kills them where they stand.
        for proc in self._cleaner_procs + self._scrub_procs:
            proc.kill()
        # Programs still sitting in the submission queues are
        # controller RAM and die with the power; without this they
        # would drain onto the media *during recovery* of the next
        # incarnation (the queues live on the shared NAND device).
        self.nand.queues.discard_queued()
        self.nand.superblock["clean"] = False
        self._open = False

    def _require_open(self) -> None:
        if not self._open:
            raise FtlError("device is shut down")

    # ------------------------------------------------------------------
    # Media-fault survival
    # ------------------------------------------------------------------
    def record_media_loss(self, ppn: int, reason: str,
                          header: Optional[OobHeader] = None) -> None:
        """Strike an uncorrectable page from every runtime structure.

        Called when the retry ladder ran out on a page we still needed
        (cleaner copy-forward, scrub patrol, activation).  The page is
        dropped from the forward map, from *every* epoch's validity
        bits, and from the note registry, and a ``lost=True`` entry
        lands in the damage manifest — the device keeps running and
        reports exactly what it lost instead of crashing or silently
        serving zeros.
        """
        array = self.nand.array
        if header is None and array.is_programmed(ppn) \
                and not array.is_torn(ppn):
            header = array.read_header(ppn)
        lba = None
        epoch = None
        if header is not None:
            epoch = header.epoch
            if header.kind is PageKind.DATA:
                lba = header.lba
        mapped = lba is not None and self.map.get(lba) == ppn
        if mapped:
            self.map.delete(lba)
        self._clear_valid_everywhere(ppn, lba)
        self._drop_note(ppn)
        self._read_cache.invalidate_range(ppn, 1)
        # ``mapped`` records whether the *active tree* lost this LBA:
        # only then must foreground reads raise instead of returning
        # zeros.  A stale copy (live only in some frozen epoch) dying
        # must not poison active reads of an LBA that was legitimately
        # trimmed or overwritten.
        self.damage.record(DamageEntry(
            ppn=ppn, reason=reason, lba=lba, epoch=epoch,
            segment=ppn // self.log.segment_pages,
            at_ns=self.kernel.now, lost=True, mapped=mapped))

    def _clear_valid_everywhere(self, ppn: int,
                                lba: Optional[int] = None) -> None:
        """Drop ``ppn``'s validity in every epoch (hook; base: one bitmap)."""
        del lba
        self._clear_valid(ppn)

    def _note_segment_retired(self, index: int) -> None:
        del index
        self._maybe_degrade()

    def _maybe_degrade(self) -> None:
        """Latch read-only mode once retirements eat the spare reserve.

        The export-capacity bound from ``__init__`` must keep holding
        as grown-bad blocks shrink the pool; the moment the surviving
        segments (minus structural headroom) can no longer back every
        exported LBA, accepting more writes could wedge the device with
        nothing reclaimable — so stop accepting them, loudly.
        """
        if self.degraded:
            return
        usable = self.log.segment_count - self.log.retired_segment_count()
        capacity = (usable - self._headroom) * (self.log.segment_pages - 1)
        if capacity < self.num_lbas:
            self._enter_degraded(
                f"spare-capacity reserve exhausted: {usable} usable "
                f"segments cannot back {self.num_lbas} exported LBAs")

    def _enter_degraded(self, reason: str) -> None:
        self.degraded = True
        self.degraded_reason = reason
        # Writers parked on segment allocation will never be served.
        self.log.fail_waiters(DegradedModeError(reason))

    def _check_writable(self) -> None:
        if self.degraded:
            raise DegradedModeError(
                f"device is read-only (degraded): {self.degraded_reason}")

    # ------------------------------------------------------------------
    # Synchronous façade
    # ------------------------------------------------------------------
    def write(self, lba: int, data: Optional[bytes] = None,
              sync: Optional[bool] = None) -> None:
        self.kernel.run_process(self.write_proc(lba, data, sync),
                                name=f"write@{lba}")

    def read(self, lba: int) -> bytes:
        return self.kernel.run_process(self.read_proc(lba), name=f"read@{lba}")

    def trim(self, lba: int) -> None:
        self.kernel.run_process(self.trim_proc(lba), name=f"trim@{lba}")

    def write_range(self, lba: int, blocks: List[Optional[bytes]],
                    sync: Optional[bool] = None) -> None:
        self.kernel.run_process(self.write_range_proc(lba, blocks, sync),
                                name=f"writev@{lba}")

    def read_range(self, lba: int, count: int) -> List[bytes]:
        return self.kernel.run_process(self.read_range_proc(lba, count),
                                       name=f"readv@{lba}")

    # ------------------------------------------------------------------
    # Process API
    # ------------------------------------------------------------------
    def write_proc(self, lba: int, data: Optional[bytes] = None,
                   sync: Optional[bool] = None) -> Generator:
        """Write one logical block; returns the PPN it landed on."""
        self._require_open()
        self._check_writable()
        self._check_lba(lba)
        if data is not None and len(data) > self.block_size:
            raise LbaError(f"data length {len(data)} exceeds block size")
        yield from self._enter_write_path()
        try:
            header = OobHeader(kind=PageKind.DATA, lba=lba,
                               epoch=self._current_epoch(),
                               seq=self._bump_seq(),
                               length=len(data) if data is not None else 0)
            ppn, done = yield from self.log.append(
                header, data, head=self.log.user_head_for(lba))
            self._on_packet_appended(ppn, header)
            yield from self._install_mapping(lba, ppn)
        finally:
            self._exit_write_path()
        self.metrics.writes += 1
        self.cleaner.maybe_kick()
        wait_durable = self.config.sync_writes if sync is None else sync
        if wait_durable:
            yield done
        return ppn

    def read_proc(self, lba: int) -> Generator:
        """Read one logical block; never-written LBAs read as zeros."""
        self._require_open()
        self._check_lba(lba)
        self.metrics.reads += 1
        yield from self._map_fault(lba)
        ppn = self.map.get(lba)
        sequential = (self._last_read_lba is not None
                      and lba == self._last_read_lba + 1)
        self._last_read_lba = lba
        if ppn is None:
            if self.damage.lba_lost(lba):
                # The medium destroyed this block's only copy.  Never
                # fabricate zeros for data we once accepted: fail the
                # read with the typed media error (the damage manifest
                # has the details).
                raise UncorrectableError(
                    f"lba {lba} was lost to a media fault "
                    "(see the damage report)")
            yield UNMAPPED_READ_NS
            return bytes(self.block_size)
        record = self._read_cache.get(ppn)
        if record is None and ppn in self._prefetch_inflight:
            # A prefetch for this page is already on the wire; ride it.
            yield self._prefetch_inflight[ppn]
            record = self._read_cache.get(ppn)
        if record is not None:
            self.metrics.readahead_hits += 1
            yield self.nand.timing.xfer_ns(0)  # host-side copy cost
        else:
            try:
                record = yield from self.nand.read_page(ppn)
            except UncorrectableError:
                # Record the casualty (not yet known-lost: the retry
                # ladder may have been defeated by a transient injected
                # fault) and surface the typed error to the caller.
                self.damage.record(DamageEntry(
                    ppn=ppn, reason="read", lba=lba,
                    segment=ppn // self.log.segment_pages,
                    at_ns=self.kernel.now, lost=False))
                raise
            if sequential and self.config.readahead_pages > 0:
                self.kernel.spawn(self._readahead(lba + 1),
                                  name=f"readahead@{lba + 1}")
        if record.header.lba != lba:
            raise FtlError(
                f"map corruption: ppn {ppn} holds lba {record.header.lba}, "
                f"expected {lba}")
        return self._payload(record)

    def trim_proc(self, lba: int) -> Generator:
        """Discard one logical block (persisted via a trim note)."""
        self._require_open()
        self._check_writable()
        self._check_lba(lba)
        yield from self._enter_write_path()
        try:
            note = TrimNote(lba=lba)
            payload = encode_note(note)
            header = OobHeader(kind=PageKind.NOTE_TRIM, lba=lba,
                               epoch=self._current_epoch(),
                               seq=self._bump_seq(),
                               length=len(payload))
            ppn, done = yield from self.log.append(
                header, payload, head=self.log.user_head_for(lba))
            self._on_packet_appended(ppn, header)
            self._register_note(ppn, note)
            yield from self._map_fault(lba)
            old = self.map.delete(lba)
            if old is not None:
                yield from self._uninstall_mapping(old)
        finally:
            self._exit_write_path()
        self.metrics.trims += 1
        self.cleaner.maybe_kick()
        yield done  # notes are durable before returning

    def write_range_proc(self, lba: int, blocks: List[Optional[bytes]],
                         sync: Optional[bool] = None) -> Generator:
        """Vectored write: ``blocks[i]`` lands at ``lba + i``.

        The paper's VSL takes "a range of LBAs and the data to be
        written" (§5.2.2); an 8 KiB database write is two consecutive
        blocks.  Appends serialize on the log head, but with async
        semantics the die programs pipeline behind the bus transfers.
        """
        if not blocks:
            return []
        self._check_writable()
        self._check_lba(lba)
        self._check_lba(lba + len(blocks) - 1)
        wait_durable = self.config.sync_writes if sync is None else sync
        dones = []
        ppns = []
        yield from self._enter_write_path()
        try:
            for offset, data in enumerate(blocks):
                if data is not None and len(data) > self.block_size:
                    raise LbaError(
                        f"data length {len(data)} exceeds block size")
                header = OobHeader(kind=PageKind.DATA, lba=lba + offset,
                                   epoch=self._current_epoch(),
                                   seq=self._bump_seq(),
                                   length=len(data) if data is not None else 0)
                ppn, done = yield from self.log.append(
                    header, data, head=self.log.user_head_for(lba + offset))
                self._on_packet_appended(ppn, header)
                yield from self._install_mapping(lba + offset, ppn)
                self.metrics.writes += 1
                ppns.append(ppn)
                dones.append(done)
        finally:
            self._exit_write_path()
        self.cleaner.maybe_kick()
        if wait_durable:
            for done in dones:
                if not done.triggered:
                    yield done
        return ppns

    def read_range_proc(self, lba: int, count: int) -> Generator:
        """Vectored read: ``count`` consecutive blocks, issued in
        parallel across the device's dies."""
        if count <= 0:
            return []
        self._check_lba(lba)
        self._check_lba(lba + count - 1)
        procs = [
            self.kernel.spawn(self.read_proc(lba + offset),
                              name=f"readv@{lba + offset}")
            for offset in range(count)
        ]
        out = []
        for proc in procs:
            out.append((yield proc))
        return out

    def _readahead(self, lba: int) -> Generator:
        """Prefetch the next few sequentially-mapped blocks."""
        for next_lba in range(lba, min(lba + self.config.readahead_pages,
                                       self.num_lbas)):
            # With a flash-resident map, probe only resident pages: a
            # background prefetch must not charge sync map faults.
            ppn = (self.map.peek(next_lba) if self.map_is_cached
                   else self.map.get(next_lba))
            if ppn is None:
                return
            if (self._read_cache.get(ppn) is not None
                    or ppn in self._prefetch_inflight):
                continue
            done = self.kernel.event()
            self._prefetch_inflight[ppn] = done
            try:
                try:
                    record = yield from self.nand.read_page(ppn)
                except UncorrectableError:
                    # Nobody joins a prefetch, so the error must stop
                    # here: note it and quit prefetching.  A foreground
                    # read of this LBA will hit (and report) the same
                    # fault through the normal path.
                    self.damage.record(DamageEntry(
                        ppn=ppn, reason="readahead", lba=next_lba,
                        segment=ppn // self.log.segment_pages,
                        at_ns=self.kernel.now, lost=False))
                    return
                self._read_cache.put(ppn, record)
            finally:
                del self._prefetch_inflight[ppn]
                done.trigger()

    def _payload(self, record) -> bytes:
        data = record.data
        if data is None:
            return bytes(self.block_size)
        if len(data) < self.block_size:
            return data + bytes(self.block_size - len(data))
        return data

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _check_lba(self, lba: int) -> None:
        if not 0 <= lba < self.num_lbas:
            raise LbaError(f"lba {lba} out of range [0, {self.num_lbas})")

    def _bump_seq(self) -> int:
        self._next_seq += 1
        return self._next_seq

    # ------------------------------------------------------------------
    # Forward map plumbing (RAM B+ tree vs. flash-resident cache)
    # ------------------------------------------------------------------
    @property
    def map_is_cached(self) -> bool:
        """True when the forward map is flash-resident (bounded RAM)."""
        return self.config.map_cache_pages > 0

    def _make_map(self):
        if self.config.map_cache_pages > 0:
            from repro.ftl.mapcache import MapCache
            return MapCache(self, span=self.config.map_span,
                            budget_pages=self.config.map_cache_pages)
        return BPlusTree()

    def map_info(self) -> Dict[str, Any]:
        """Forward-map observability (info()["map"])."""
        out: Dict[str, Any] = {
            "mode": "cached" if self.map_is_cached else "ram",
            "memory_bytes": self.map.memory_bytes(),
            "nodes": self.map.node_count(),
        }
        if self.map_is_cached:
            out["cache_pages_budget"] = self.config.map_cache_pages
            out["span"] = self.config.map_span
            out.update(self.map.stats())
        return out

    def _map_fault(self, lba: int) -> Generator:
        """Charge the cost of making ``lba``'s translation page resident.

        The I/O paths call this *before* their synchronous map touch so
        a miss pays real flash-read latency (and runs the fault model).
        Purely a performance prepayment: the sync facade re-faults for
        free if the page is evicted again before the touch.  A no-op
        for the all-RAM map.
        """
        if self.map_is_cached:
            yield from self.map.fault_proc(lba // self.config.map_span)

    def _relocate_map_page(self, ppn: int, header: OobHeader,
                           gc_stripe: Optional[int] = None) -> Generator:
        """Cleaner hook: copy-forward one MAP page (GTD update only).

        For the all-RAM map there are no MAP pages on the media; any
        that appear (media written by a cached-mode run, then reopened
        all-RAM) are dead by definition and die with the segment.
        """
        if self.map_is_cached:
            yield from self.map.relocate_proc(ppn, header, gc_stripe)

    def _map_pages_in_segment(self, seg) -> int:
        """Cleaner accounting hook: live MAP pages in ``seg``."""
        if self.map_is_cached:
            return self.map.live_in_segment(seg.index)
        return 0

    def _map_gc_pause(self) -> None:
        """Cleaner hook: a segment clean started (defer map evictions)."""
        if self.map_is_cached:
            self.map.pause_writebacks()

    def _map_gc_resume(self) -> None:
        if self.map_is_cached:
            self.map.resume_writebacks()

    def utilization(self) -> float:
        """Fraction of exported LBAs currently mapped."""
        return len(self.map) / self.num_lbas

    def info(self) -> Dict[str, Any]:
        """Operator-facing summary of device state and health."""
        return {
            "block_size": self.block_size,
            "num_lbas": self.num_lbas,
            "capacity_bytes": self.num_lbas * self.block_size,
            "physical_bytes": self.nand.geometry.capacity_bytes,
            "mapped_lbas": len(self.map),
            "utilization": self.utilization(),
            "segments": {
                "total": self.log.segment_count,
                "free": self.log.free_segment_count(),
                "reserve": self.log.reserve_segment_count(),
                "retired": self.log.retired_segment_count(),
            },
            "cleaner": {
                "segments_cleaned": self.cleaner.segments_cleaned,
                "segments_retired": self.cleaner.segments_retired,
                "pages_moved": self.cleaner.pages_moved,
            },
            "wear": self.nand.array.wear_stats(),
            "map_memory_bytes": self.map.memory_bytes(),
            "map": self.map_info(),
            "parallel": self.parallel_info(),
            "media": {
                "faulty": self.nand.faults is not None,
                "device": self.nand.media.as_dict(),
                "program_fails_recovered": self.log.stats.program_fails,
                "segments_skipped_bad": self.log.stats.segments_skipped_bad,
                "pages_lost_in_gc": self.cleaner.pages_lost,
                "segments_quarantined": self.cleaner.segments_quarantined,
                "scrub": (self.scrubber.counters.as_dict()
                          if self.scrubber is not None else None),
                "bad_blocks": (sorted(self.nand.faults.bad_blocks)
                               if self.nand.faults is not None else []),
                "degraded": self.degraded,
                "degraded_reason": self.degraded_reason,
                "damage": self.damage.summary(),
            },
        }

    def state_digest(self) -> str:
        """SHA-256 fingerprint of the simulated outcome so far.

        Covers virtual time, NAND operation counts, per-head appends,
        cleaner totals, the sorted forward map and :meth:`_digest_extra`
        (the snapshot list on ioSnap).  Host-side caches and indexes
        never enter it: a change that keeps the simulation bit-identical
        keeps the digest.  ``kernel.events`` stays out too, so a change
        that reaches the same outcome with less scheduled work keeps
        the digest; read that count on its own.
        """
        cleaner = self.cleaner
        state = {
            "now": self.kernel.now,
            "nand": sorted(vars(self.nand.stats).items()),
            "appends": sorted(self.log.stats.per_head_appends.items()),
            "cleaner": (cleaner.segments_cleaned, cleaner.segments_retired,
                        cleaner.pages_moved, cleaner.notes_moved,
                        cleaner.pages_lost),
            "map": sorted(self.map.items()),
            **self._digest_extra(),
        }
        return hashlib.sha256(
            repr(sorted(state.items())).encode()).hexdigest()

    def _digest_extra(self) -> Dict[str, Any]:
        """Layer state folded into :meth:`state_digest` (hook)."""
        return {}

    def parallel_info(self) -> Dict[str, Any]:
        """Multi-queue data-path observability (info()["parallel"]).

        ``stripe_balance`` is min/max appends across user heads — 1.0
        is perfectly even fan-out, small values mean one head is
        hogging the log (skewed LBA distribution).
        """
        from repro.sim.stats import balance

        stats = self.log.stats
        user_appends = [stats.per_head_appends.get(head, 0)
                        for head in self.log.user_head_names()]
        return {
            "stripes": self.log.num_stripes,
            "user_heads": self.log.user_head_count,
            "per_head_appends": dict(stats.per_head_appends),
            "per_head_bytes": dict(stats.per_head_bytes),
            "per_stripe_opens": dict(stats.per_stripe_opens),
            "stripe_balance": balance(user_appends),
            "queues": self.nand.queues.snapshot(),
        }

    # -- write gate: snapshot ops quiesce the data path --------------------
    def _enter_write_path(self) -> Generator:
        """Block while the gate is closed, then count ourselves in."""
        while self._write_gate is not None:
            yield self._write_gate
        self._inflight_writes += 1
        return
        yield  # pragma: no cover

    def _exit_write_path(self) -> None:
        self._inflight_writes -= 1
        if self._inflight_writes == 0 and self._drain_waiters:
            waiters, self._drain_waiters = self._drain_waiters, []
            for ev in waiters:
                ev.trigger()

    def quiesce_begin(self) -> Generator:
        """Close the write gate and wait for in-flight writes to drain.

        Guarantees no data write straddles what follows (an epoch
        boundary); callers must pair with :meth:`quiesce_end`.
        """
        while self._write_gate is not None:
            # Another snapshot operation is mid-quiesce; take turns.
            yield self._write_gate
        self._write_gate = self.kernel.event()
        while self._inflight_writes > 0:
            ev = self.kernel.event()
            self._drain_waiters.append(ev)
            yield ev

    def quiesce_end(self) -> None:
        gate, self._write_gate = self._write_gate, None
        if gate is not None and not gate.triggered:
            gate.trigger()

    # -- scan barrier: cleaners must not erase under an active scan -------
    def begin_scan(self) -> List[Tuple[int, int, OobHeader]]:
        """Register a log scan; returns its move-log (see cleaner)."""
        move_log: List[Tuple[int, int, OobHeader]] = []
        self._active_scans.append(move_log)
        return move_log

    def end_scan(self, move_log: List[Tuple[int, int, OobHeader]]) -> None:
        self._active_scans.remove(move_log)
        if not self._active_scans:
            waiters, self._scan_done_waiters = self._scan_done_waiters, []
            for ev in waiters:
                ev.trigger()

    def erase_barrier(self) -> Generator:
        """Wait until no log scan is in progress (cleaner, before erase)."""
        while self._active_scans:
            ev = self.kernel.event()
            self._scan_done_waiters.append(ev)
            yield ev

    def record_move(self, old_ppn: int, new_ppn: int,
                    header: OobHeader) -> None:
        for move_log in self._active_scans:
            move_log.append((old_ppn, new_ppn, header))

    # ------------------------------------------------------------------
    # Hooks overridden by the ioSnap layer
    # ------------------------------------------------------------------
    def _make_structures(self) -> None:
        """Create validity tracking (plain single bitmap here)."""
        self.validity = ValidityBitmap(
            self.nand.geometry.total_pages,
            page_bytes=self.config.bitmap_page_bytes)

    def _current_epoch(self) -> int:
        return 0

    def _set_valid(self, ppn: int) -> None:
        if self.validity.set(ppn):
            index = ppn // self.log.segment_pages
            self._seg_valid[index] += 1
            self.cleaner.occupancy.pop(index, None)

    def _clear_valid(self, ppn: int) -> None:
        if self.validity.clear(ppn):
            index = ppn // self.log.segment_pages
            self._seg_valid[index] -= 1
            self.cleaner.occupancy.pop(index, None)

    def _recount_seg_valid(self) -> None:
        """Rebuild the per-segment counts after a bulk bitmap reload."""
        self._seg_valid = [
            self.validity.count_range(seg.first_ppn, seg.npages)
            for seg in self.log.segments
        ]
        self.cleaner.invalidate_occupancy()

    def _install_mapping(self, lba: int, ppn: int) -> Generator:
        """Point ``lba`` at ``ppn``, invalidating any older location."""
        yield from self._map_fault(lba)
        old = self.map.insert(lba, ppn)
        self._set_valid(ppn)
        if old is not None:
            self._clear_valid(old)
        return
        yield  # pragma: no cover - generator for subclass cost charging

    def _uninstall_mapping(self, old_ppn: int) -> Generator:
        self._clear_valid(old_ppn)
        return
        yield  # pragma: no cover

    def _compute_valid(self, seg: Segment) -> Tuple[List[int], int]:
        """Valid data PPNs in ``seg`` plus the CPU cost of finding them."""
        valid = list(self.validity.iter_set_in_range(seg.first_ppn, seg.npages))
        pages_touched = (seg.npages + self.validity.bits_per_page - 1) \
            // self.validity.bits_per_page
        return valid, pages_touched * BITMAP_MERGE_PAGE_NS

    def _estimate_valid_count(self, seg: Segment) -> int:
        """Move-count estimate used to pace the cleaner.

        O(1): read from the incrementally-maintained per-segment
        counts rather than re-counting the bitmap range.
        """
        return self._seg_valid[seg.index]

    def _block_still_valid(self, ppn: int) -> bool:
        """Re-check at move time (foreground may invalidate mid-clean)."""
        return self.validity.test(ppn)

    def _relocate(self, old_ppn: int, new_ppn: int,
                  header: OobHeader) -> Generator:
        """Fix maps/bitmaps after the cleaner copied old -> new."""
        yield from self._map_fault(header.lba)
        if self.map.get(header.lba) == old_ppn:
            self.map.insert(header.lba, new_ppn)
            self._clear_valid(old_ppn)
            self._set_valid(new_ppn)
        else:
            # Overwritten while the copy was in flight: the new copy is
            # stillborn; make sure neither location reads as valid.
            self._clear_valid(old_ppn)
            self._clear_valid(new_ppn)
        self.record_move(old_ppn, new_ppn, header)
        return
        yield  # pragma: no cover

    def _note_is_live(self, ppn: int, header: OobHeader) -> bool:
        """Should the cleaner preserve this note page?

        Trim notes are conservatively kept forever (stale data packets
        for the trimmed LBA may survive in never-cleaned segments and a
        replay without the note would resurrect them).
        """
        del ppn
        return header.kind is PageKind.NOTE_TRIM

    def _register_note(self, ppn: int, note: Any) -> None:
        """Track the note page at ``ppn`` (the registry's one adder)."""
        self._note_registry[ppn] = note
        self.cleaner.note_registry_changed(ppn)

    def _drop_note(self, ppn: int) -> Any:
        """Stop tracking ``ppn``; returns its note, or None if untracked."""
        note = self._note_registry.pop(ppn, None)
        if note is not None:
            self.cleaner.note_registry_changed(ppn)
        return note

    def _relocate_note(self, old_ppn: int, new_ppn: int) -> None:
        note = self._drop_note(old_ppn)
        if note is not None:
            self._register_note(new_ppn, note)

    def _on_packet_appended(self, ppn: int, header: OobHeader) -> None:
        """Hook: a packet landed at ``ppn`` (ioSnap tracks epoch sets)."""
        del ppn, header

    def _gc_head_for(self, old_ppn: int, header: OobHeader) -> str:
        """Which GC append head a copy-forward should use (hook)."""
        del old_ppn, header
        return "gc"

    def _before_segment_erase(self, seg: Segment) -> None:
        """Hook: the cleaner is about to erase ``seg`` (media intact).

        Runs after the erase barrier, so no scan holds references into
        the segment; the ioSnap layer uses it for sanitizer audits that
        need the OOB headers before they are wiped.
        """
        del seg

    def _on_segment_erased(self, seg: Segment) -> None:
        self._read_cache.invalidate_range(seg.first_ppn, seg.npages)
        for ppn in list(self._note_registry):
            if seg.contains(ppn):
                self._drop_note(ppn)

    def _replay_note(self, header: OobHeader, note: Any) -> None:
        """Recovery hook: process one non-trim note (base FTL: none)."""
        del header, note

    def _rebuild_state(self, packets: List[Any]) -> Generator:
        """Recovery hook: rebuild map/validity from scanned packets."""
        from repro.ftl.recovery import fold_winners

        for packet in sorted(
                (p for p in packets if p.note is not None
                 and p.header.kind is not PageKind.NOTE_TRIM),
                key=lambda p: p.header.seq):
            self._replay_note(packet.header, packet.note)
        winners = fold_winners(packets)
        items = sorted((lba, ppn) for lba, (_seq, ppn) in winners.items())
        if self.map_is_cached:
            # Data-packet replay is the map's source of truth after a
            # crash: any MAP pages on the media predate the cut and are
            # orphaned here (the cleaner reclaims them).
            yield from self.map.rebuild_proc(items)
        else:
            self.map = BPlusTree.bulk_load(items)
        yield len(items) * MAP_BULK_INSERT_NS
        self._rebuild_validity(winners)

    def _dump_extra(self, generation: int) -> Dict[str, Any]:
        """Checkpoint hook: extra state (ioSnap adds epochs/snapshots).

        ``generation`` is the checkpoint generation being written, so
        layers can stamp validatable sub-images (ioSnap's durable
        epoch-summary index); the base FTL has no use for it.
        """
        del generation
        return {"validity_pages": self.validity.materialized_pages()}

    def _load_extra(self, extra: Dict[str, Any],
                    generation: Optional[int]) -> None:
        del generation
        self.validity.load_pages(extra["validity_pages"])
        self._recount_seg_valid()

    def _rebuild_validity(self, winners: Dict[int, Tuple[int, int]]) -> None:
        """Recovery hook: rebuild validity from {lba: (seq, ppn)} winners."""
        self.validity = ValidityBitmap(
            self.nand.geometry.total_pages,
            page_bytes=self.config.bitmap_page_bytes)
        for _lba, (_seq, ppn) in winners.items():
            self.validity.set(ppn)
        self._recount_seg_valid()

    def live_note_count(self) -> int:
        return len(self._note_registry)

    @staticmethod
    def decode_registry_note(header: OobHeader, raw: bytes):
        return decode_note(header.kind, raw)
