"""Demand-paged flash-resident forward map (DFTL-style cached mapping).

The all-RAM ``BPlusTree`` forward map grows O(device): fine for the
paper's simulation sizes, a wall at the 1.2 TB card.  Following the
cached-mapping-table design of *Garbage Collection Techniques for
Flash-Resident Page-Mapping FTLs* (Dayan; see PAPERS.md), this module
makes flash the home of the map:

* the LBA space is split into fixed-``span`` **translation pages**
  (``tidx = lba // span``), each serialized as one ``PageKind.MAP``
  packet appended to a dedicated ``"map"`` log head;
* the **global translation directory** (GTD) maps ``tidx`` to the PPN
  of the page's current flash copy — the only O(#translation-pages)
  RAM structure;
* :class:`MapCache` keeps a bounded LRU of at most ``budget_pages``
  translation pages in RAM, with a dirty set written back in batches
  on eviction and flushed wholesale at checkpoint.

Two access planes, one correctness rule:

**The synchronous facade is always self-sufficient.**  ``get`` /
``insert`` / ``delete`` / ``items`` never yield; a non-resident page is
faulted in synchronously via ``array.read`` (no simulated time, no
fault model — the array bypasses both).  Nothing anywhere may depend
on a page *staying* resident across a yield.

**The generator plane charges the time.**  ``fault_proc`` is what the
I/O paths call *before* their sync map touch: it pays the flash read
latency of a miss (so the cache is a performance object, not just a
memory one), runs the page through the real fault model, and drains
the eviction backlog.  If a concurrent process evicts the page again
before the sync touch, the touch silently re-faults — correct, merely
unpaid-for, and counted in ``sync_faults``.

Every post-yield mutation goes through a synchronous commit helper
that re-validates its precondition in the same scheduler resumption
(``_install_faulted``, ``_commit_gtd``), which is exactly the
cooperative-atomicity discipline IOL009 and the map-cache registry
entry (``_gtd``/``_pages``/``_dirty``) in :mod:`repro.lint.shared`
demand.

Crash story: map flushes are made durable (the program's done event is
awaited) *before* the GTD adopts the new PPN, and recovery never reads
MAP packets at all — it replays data packets into a fresh map
(:meth:`rebuild_proc`), so a cut anywhere in ``map.page_flush`` /
``map.gtd_commit`` can at worst orphan a MAP page copy, never corrupt
a mapping.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Generator, Iterator, List, Optional, Tuple

from repro.errors import CheckpointError, UncorrectableError
from repro.ftl.packet import decode_payload, encode_payload
from repro.ftl.vsl import REPLAY_PACKET_NS
from repro.nand.oob import OobHeader, PageKind
from repro.sim.stats import Counters
from repro.torture import sites

#: RAM model, kept commensurable with ``btree.BPlusTree.memory_bytes``:
#: object overhead per resident translation page / directory, and bytes
#: per mapping slot or PPN reference.
_PAGE_FIXED_BYTES = 96
_BYTES_PER_ENTRY = 8
_BYTES_PER_REF = 8
#: Most dirty pages one eviction writes back (in LRU order).
_DIRTY_BATCH = 8


class TranslationPage:
    """One resident translation page: ``span`` mapping slots.

    ``version`` increments on every mutation; writeback snapshots it
    before yielding and only clears ``dirty`` if it is unchanged after
    the append — a page re-dirtied mid-flush stays dirty (RAM remains
    authoritative until a writeback lands a current image).
    """

    __slots__ = ("tidx", "entries", "dirty", "version")

    def __init__(self, tidx: int, entries: List[Optional[int]],
                 dirty: bool = False) -> None:
        self.tidx = tidx
        self.entries = entries
        self.dirty = dirty
        self.version = 0


class MapCache:
    """Bounded-RAM LRU cache over the flash-resident forward map."""

    def __init__(self, ftl, span: int, budget_pages: int) -> None:
        self._ftl = ftl
        self.span = span
        self.budget_pages = budget_pages
        npages = -(-ftl.num_lbas // span)  # ceil
        self._gtd: List[Optional[int]] = [None] * npages
        self._pages: "OrderedDict[int, TranslationPage]" = OrderedDict()
        self._dirty: set = set()
        self._size = 0                      # mapped LBAs (len() contract)
        self._seg_live: Dict[int, int] = {}  # segment -> GTD-referenced pages
        self.counters = Counters("hits", "misses", "evictions",
                                 "writebacks", "sync_faults",
                                 "relocations", "lost_pages")
        # While > 0 (a segment clean is in flight) eviction writebacks
        # are deferred: copy-forward fixups dirty resident pages in RAM
        # instead of appending, because an append here competes for the
        # very space the clean is trying to free (the DFTL batching
        # argument).  The transient over-budget residency drains at the
        # next fault once the cleans finish.
        self._defer_writebacks = 0

    # -- small accessors ---------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __contains__(self, lba: int) -> bool:
        return self.get(lba) is not None

    @property
    def translation_pages(self) -> int:
        """Total translation pages the LBA space divides into."""
        return len(self._gtd)

    def node_count(self) -> int:
        """Resident translation pages (the B+ tree's node analogue)."""
        return len(self._pages)

    def memory_bytes(self) -> int:
        """Total map-subsystem RAM: cache pages + GTD + dirty queue."""
        page_bytes = _PAGE_FIXED_BYTES + self.span * _BYTES_PER_ENTRY
        cache = len(self._pages) * page_bytes
        gtd = _PAGE_FIXED_BYTES + len(self._gtd) * _BYTES_PER_REF
        dirty = _PAGE_FIXED_BYTES + len(self._dirty) * _BYTES_PER_REF
        return cache + gtd + dirty

    def stats(self) -> Dict:
        """Counter snapshot plus derived hit rate, for ``info()``."""
        from repro.sim.stats import rate
        counts = self.counters.as_dict()
        counts["hit_rate"] = rate(counts["hits"],
                                  counts["hits"] + counts["misses"])
        counts["resident_pages"] = len(self._pages)
        counts["dirty_pages"] = len(self._dirty)
        counts["translation_pages"] = len(self._gtd)
        return counts

    # -- synchronous facade (never yields; always self-sufficient) ---------
    def get(self, lba: int) -> Optional[int]:
        page = self._resident(lba // self.span, fault=True)
        return page.entries[lba % self.span]

    def peek(self, lba: int) -> Optional[int]:
        """Resident-only lookup: never faults (readahead's probe)."""
        page = self._pages.get(lba // self.span)
        if page is None:
            return None
        return page.entries[lba % self.span]

    def insert(self, lba: int, ppn: int) -> Optional[int]:
        page = self._resident(lba // self.span, fault=True)
        old = page.entries[lba % self.span]
        page.entries[lba % self.span] = ppn
        if old is None:
            self._size += 1
        self._mark_dirty(page)
        return old

    def delete(self, lba: int) -> Optional[int]:
        page = self._resident(lba // self.span, fault=True)
        old = page.entries[lba % self.span]
        if old is None:
            return None
        page.entries[lba % self.span] = None
        self._size -= 1
        self._mark_dirty(page)
        return old

    def items(self) -> Iterator[Tuple[int, int]]:
        """All ``(lba, ppn)`` mappings in LBA order.

        Read-only: non-resident pages are decoded straight off the
        array without touching the LRU or installing anything, so fsck
        and checkpointing can walk the full map without perturbing (or
        overflowing) the cache.
        """
        for tidx in range(len(self._gtd)):
            page = self._pages.get(tidx)
            if page is not None:
                entries = page.entries
            elif self._gtd[tidx] is not None:
                entries = self._read_flash_entries(self._gtd[tidx])
            else:
                continue
            base = tidx * self.span
            for offset, ppn in enumerate(entries):
                if ppn is not None:
                    yield base + offset, ppn

    # -- the time-charging plane -------------------------------------------
    def fault_proc(self, tidx: int) -> Generator:
        """Pay for residency of translation page ``tidx``.

        Charges a real (fault-model-visible) flash read on a miss and
        drains the eviction backlog.  Purely a performance prepayment:
        the following sync facade op re-faults for free if the page is
        evicted again in between.
        """
        page = self._pages.get(tidx)
        if page is not None:
            self._pages.move_to_end(tidx)
            self.counters.bump("hits")
            return
        self.counters.bump("misses")
        src_ppn = self._gtd[tidx]
        if src_ppn is None:
            entries: List[Optional[int]] = [None] * self.span
        else:
            record = yield from self._ftl.nand.read_page(src_ppn)
            entries = self._decode_entries(record.data, tidx)
        self._install_faulted(tidx, src_ppn, entries)
        yield from self._evict_proc()

    def _evict_proc(self) -> Generator:
        """Shrink the cache back to budget, writing back dirty victims.

        Clean victims drop synchronously; a dirty victim triggers a
        writeback batch (up to ``_DIRTY_BATCH`` LRU-ordered dirty pages
        in one go) and the loop re-evaluates — residency and dirtiness
        are re-read fresh after every yield.
        """
        while len(self._pages) > self.budget_pages:
            victim = next(iter(self._pages.values()))
            if not victim.dirty:
                del self._pages[victim.tidx]
                self.counters.bump("evictions")
                continue
            if self._defer_writebacks \
                    or self._ftl.log.free_segment_count() == 0:
                # Space pressure: tolerate over-budget residency rather
                # than append map pages the cleaner would have to chase.
                return
            batch = [page for page in list(self._pages.values())
                     if page.dirty][:_DIRTY_BATCH]
            for page in batch:
                yield from self._writeback_page_proc(page)

    def _writeback_page_proc(self, page: TranslationPage) -> Generator:
        """Append ``page``'s current image to the map head, durably.

        The GTD adopts the new PPN only after the program's done event
        fires, and ``dirty`` clears only if no mutation raced the
        append (version check) — so a non-resident page is always
        clean and its GTD entry always names a durable, current image.
        """
        if not page.dirty:
            return
        entries = list(page.entries)
        version = page.version
        ppn = yield from self._flush_entries_proc(page.tidx, entries,
                                                 sites.MAP_PAGE_FLUSH)
        self.counters.bump("writebacks")
        self._commit_gtd(page.tidx, ppn)
        if page.version == version:
            page.dirty = False
            self._dirty.discard(page.tidx)

    def pause_writebacks(self) -> None:
        """A segment clean started: defer eviction writebacks."""
        self._defer_writebacks += 1

    def resume_writebacks(self) -> None:
        self._defer_writebacks -= 1

    def flush_all_proc(self) -> Generator:
        """Write back every dirty page (checkpoint's durability pass)."""
        while self._dirty:
            tidx = min(self._dirty)
            page = self._pages[tidx]  # invariant: dirty => resident
            yield from self._writeback_page_proc(page)

    def _flush_entries_proc(self, tidx: int, entries: List[Optional[int]],
                            site: str) -> Generator:
        payload = encode_payload({"span": self.span, "tpage": tidx,
                                  "entries": entries})
        header = OobHeader(kind=PageKind.MAP, lba=tidx, epoch=0,
                           seq=self._ftl._bump_seq(), length=len(payload))
        ppn, done = yield from self._ftl.log.append(
            header, payload, privileged=True, head="map", site=site)
        yield done
        return ppn

    # -- translation-aware cleaning ----------------------------------------
    def live_in_segment(self, seg_index: int) -> int:
        """GTD-referenced MAP pages in ``seg_index`` (cleaner accounting)."""
        return self._seg_live.get(seg_index, 0)

    def relocate_proc(self, ppn: int, header: OobHeader,
                      gc_stripe: Optional[int] = None) -> Generator:
        """Copy-forward one MAP page out of a segment being cleaned.

        Updates the GTD, never the data map.  A copy the GTD no longer
        references is stale — it dies with the segment.  A resident
        dirty page is simply flushed (freshens *and* relocates); the
        re-append of a clean page re-checks the GTD after its yields
        and backs off if a racing writeback already superseded it.
        """
        del gc_stripe  # map head affinity; stripe 0 serves all today
        tidx = header.lba
        if tidx >= len(self._gtd) or self._gtd[tidx] != ppn:
            return
        page = self._pages.get(tidx)
        if page is not None and page.dirty:
            yield from self._writeback_page_proc(page)
            return
        if page is not None:
            entries = list(page.entries)
        else:
            try:
                record = yield from self._ftl.nand.read_page(ppn)
            except UncorrectableError:
                # The only flash copy is unreadable: land the casualty
                # in the damage manifest, then strike the GTD entry
                # (those LBAs now read unmapped) rather than leave it
                # dangling over the imminent erase.
                self._ftl.record_media_loss(ppn, reason="gc-map",
                                            header=header)
                self.counters.bump("lost_pages")
                self._commit_gtd(tidx, None, expect=ppn)
                return
            entries = self._decode_entries(record.data, tidx)
        new_ppn = yield from self._flush_entries_proc(tidx, entries,
                                                      sites.MAP_PAGE_FLUSH)
        self.counters.bump("relocations")
        self._commit_gtd(tidx, new_ppn, expect=ppn)

    # -- checkpoint / recovery ----------------------------------------------
    def dump_gtd(self) -> Dict:
        """Serializable directory image for the checkpoint superblock."""
        return {"span": self.span, "size": self._size,
                "gtd": list(self._gtd)}

    def adopt_gtd(self, image: Dict) -> None:
        """Restore from a checkpoint's directory image (RAM-only)."""
        if image.get("span") != self.span:
            raise CheckpointError(
                f"map span mismatch: checkpoint has {image.get('span')}, "
                f"device configured for {self.span}")
        gtd = image.get("gtd")
        if not isinstance(gtd, list) or len(gtd) != len(self._gtd):
            raise CheckpointError("GTD image does not match device geometry")
        self._gtd = list(gtd)
        self._size = int(image["size"])
        self._pages.clear()
        self._dirty.clear()
        self._recount_seg_live()

    def reset(self) -> None:
        """Forget everything (recovery rebuilds from data packets)."""
        self._gtd = [None] * len(self._gtd)
        self._pages.clear()
        self._dirty.clear()
        self._size = 0
        self._seg_live.clear()
        self._ftl.cleaner.invalidate_occupancy()

    def rebuild_proc(self, items) -> Generator:
        """Rebuild the whole map from ``(lba, ppn)`` pairs, bounded-RAM.

        Recovery's replacement for ``BPlusTree.bulk_load``: inserts
        through the normal facade, draining evictions as it goes so
        peak RAM stays O(budget) even for a full-device replay.  Dirty
        tail pages stay resident; the post-recovery checkpoint (or the
        next eviction) writes them home.
        """
        self.reset()
        for lba, ppn in items:
            self.insert(lba, ppn)
            if len(self._pages) > self.budget_pages:
                yield from self._evict_proc()
        yield len(self._gtd) * REPLAY_PACKET_NS

    # -- internals -----------------------------------------------------------
    def _resident(self, tidx: int, fault: bool) -> TranslationPage:
        """The resident page for ``tidx``, sync-faulting if needed."""
        page = self._pages.get(tidx)
        if page is not None:
            self._pages.move_to_end(tidx)
            return page
        if not fault:
            raise KeyError(tidx)
        self.counters.bump("sync_faults")
        src_ppn = self._gtd[tidx]
        if src_ppn is None:
            entries: List[Optional[int]] = [None] * self.span
        else:
            entries = self._read_flash_entries(src_ppn)
        page = TranslationPage(tidx, entries)
        self._pages[tidx] = page
        self._evict_clean_sync(keep=tidx)
        return page

    def _evict_clean_sync(self, keep: Optional[int] = None) -> None:
        """Drop clean LRU pages over budget; dirty overshoot waits for
        the next ``fault_proc``/``_evict_proc`` drain.

        ``keep`` pins the page the caller is about to mutate: evicting
        it here would orphan the object the facade still holds.
        """
        if len(self._pages) <= self.budget_pages:
            return
        for tidx in [t for t, p in self._pages.items()
                     if not p.dirty and t != keep]:
            if len(self._pages) <= self.budget_pages:
                break
            del self._pages[tidx]
            self.counters.bump("evictions")

    def _mark_dirty(self, page: TranslationPage) -> None:
        page.version += 1
        if not page.dirty:
            page.dirty = True
            self._dirty.add(page.tidx)

    def _install_faulted(self, tidx: int, src_ppn: Optional[int],
                         entries: List[Optional[int]]) -> None:
        """Post-yield install, re-validated in one resumption.

        Discards the faulted image if a concurrent process already
        installed the page (theirs may be newer) or if the GTD moved
        off the PPN we read from (ours is definitely stale).
        """
        if tidx in self._pages:
            return
        if self._gtd[tidx] != src_ppn:
            return
        self._pages[tidx] = TranslationPage(tidx, entries)

    def _commit_gtd(self, tidx: int, new_ppn: Optional[int],
                    expect: Optional[int] = None) -> None:
        """Point the GTD at ``new_ppn``, atomically in one resumption.

        With ``expect`` set (relocation), backs off if the entry no
        longer names the copy being relocated — a racing writeback
        already superseded it and the relocated copy is garbage.
        Maintains the per-segment live-page accounting either way.
        """
        old = self._gtd[tidx]
        if expect is not None and old != expect:
            return
        self._ftl.nand.power_check(
            sites.phased(sites.MAP_GTD_COMMIT, sites.PHASE_PRE))
        self._gtd[tidx] = new_ppn
        seg_pages = self._ftl.log.segment_pages
        occupancy = self._ftl.cleaner.occupancy
        if old is not None:
            seg = old // seg_pages
            remaining = self._seg_live.get(seg, 0) - 1
            if remaining > 0:
                self._seg_live[seg] = remaining
            else:
                self._seg_live.pop(seg, None)
            occupancy.pop(seg, None)
        if new_ppn is not None:
            seg = new_ppn // seg_pages
            self._seg_live[seg] = self._seg_live.get(seg, 0) + 1
            occupancy.pop(seg, None)

    def _recount_seg_live(self) -> None:
        self._seg_live.clear()
        self._ftl.cleaner.invalidate_occupancy()
        seg_pages = self._ftl.log.segment_pages
        for ppn in self._gtd:
            if ppn is not None:
                seg = ppn // seg_pages
                self._seg_live[seg] = self._seg_live.get(seg, 0) + 1

    def _read_flash_entries(self, ppn: int) -> List[Optional[int]]:
        """Decode a MAP page straight off the array (sync, no time)."""
        record = self._ftl.nand.array.read(ppn)
        return self._decode_entries(record.data, None)

    def _decode_entries(self, data: Optional[bytes],
                        tidx: Optional[int]) -> List[Optional[int]]:
        if data is None:
            raise CheckpointError("MAP page has no payload on the media")
        payload = decode_payload(data)
        if payload.get("span") != self.span:
            raise CheckpointError(
                f"MAP page span {payload.get('span')} != device "
                f"span {self.span}")
        if tidx is not None and payload.get("tpage") != tidx:
            raise CheckpointError(
                f"MAP page names tpage {payload.get('tpage')}, "
                f"expected {tidx}")
        entries = payload["entries"]
        if len(entries) != self.span:
            raise CheckpointError("MAP page entry count != span")
        return list(entries)
