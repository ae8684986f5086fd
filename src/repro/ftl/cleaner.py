"""The segment cleaner (garbage collector), paper §5.2.3 and §5.4.

A background process that, when free segments run low, picks the closed
segment with the least valid data, copy-forwards the valid pages to the
head of the log (preserving their OOB headers: LBA, epoch, and sequence
number — activation-by-scan depends on this), then erases the segment
and returns it to the free pool.

All validity decisions go through hook methods on the owning FTL
(``_compute_valid`` / ``_block_still_valid`` / ``_relocate`` /
``_note_is_live``), so the same cleaner drives both the vanilla FTL and
the snapshot-aware ioSnap layer; ioSnap's hooks implement the merged
per-epoch bitmaps of Figure 6.

Pacing: moves are spread over ``cleaner_budget_ms`` using the move-count
estimate from ``_estimate_valid_count`` (see
:class:`repro.ftl.ratelimit.CleanerPacer` for why the quality of that
estimate is exactly the paper's Figure 10 story).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, List, Optional, Set

from repro import sanitize
from repro.errors import (
    EraseFailError,
    FtlError,
    OutOfSpaceError,
    UncorrectableError,
    WearOutError,
)
from repro.ftl.log import Segment, SegmentState, stripe_head
from repro.ftl.ratelimit import CleanerPacer
from repro.nand.oob import PageKind
from repro.sim.stats import NS_PER_MS
from repro.torture import sites

if TYPE_CHECKING:  # pragma: no cover
    from repro.ftl.vsl import VslDevice


class SegmentCleaner:
    """Snapshot-agnostic cleaning engine driven by FTL hooks."""

    def __init__(self, ftl: "VslDevice") -> None:
        self.ftl = ftl
        self.kernel = ftl.kernel
        self.pacer = CleanerPacer(
            self.kernel, budget_ns=int(ftl.config.cleaner_budget_ms * NS_PER_MS))
        self._stopped = False
        # One run() loop per stripe; each parks on its own wakeup and
        # paces with its own budget so concurrent cleans on different
        # stripes don't clobber pacing.  ``pacer`` paces direct
        # clean_segment() calls.
        self._wakeups: Dict[int, object] = {}
        self._pacers: Dict[int, CleanerPacer] = {}
        # Segments currently being cleaned: selection skips these so
        # two stripe workers never claim the same candidate.
        self._cleaning: Set[int] = set()
        # Occupancy index: segment index -> merged valid + live notes +
        # live MAP pages.  A missing entry means dirty.  The FTL's
        # validity, note-registry and map owners pop a segment's entry
        # whenever its count may have moved, so a selection recounts
        # only those segments.  Live notes are regrouped from the
        # registry only after it changed.
        self.occupancy: Dict[int, int] = {}
        self._notes_by_segment: Optional[Dict[int, int]] = None
        self.segments_cleaned = 0
        self.segments_retired = 0
        self.pages_moved = 0
        self.notes_moved = 0
        self.pages_lost = 0       # uncorrectable during copy-forward
        self.segments_quarantined = 0

    # -- control -----------------------------------------------------------
    def stop(self) -> None:
        self._stopped = True
        self.maybe_kick(force=True)

    def maybe_kick(self, force: bool = False) -> None:
        """Wake parked cleaner workers if free space is low (or always)."""
        if not force and not self._pressure():
            return
        wakeups, self._wakeups = self._wakeups, {}
        for wakeup in wakeups.values():
            if not wakeup.triggered:
                wakeup.trigger()

    def _park(self, stripe: int):
        wakeup = self.kernel.event()
        self._wakeups[stripe] = wakeup
        return wakeup

    def _pacer_for(self, stripe: int) -> CleanerPacer:
        pacer = self._pacers.get(stripe)
        if pacer is None:
            pacer = self._pacers[stripe] = CleanerPacer(
                self.kernel, budget_ns=self.pacer.budget_ns)
        return pacer

    def _pressure(self) -> bool:
        return (self.ftl.log.free_segment_count()
                < self.ftl.config.gc_low_watermark)

    # -- main loop -----------------------------------------------------------
    def run(self, stripe: int) -> Generator:
        """Background worker for ``stripe``: clean under space pressure.

        One worker is spawned per stripe.  It prefers candidates homed
        on its stripe (die affinity for its copy-forward appends) but
        borrows globally rather than idling while another stripe holds
        garbage — space is fungible, affinity is just a preference.
        """
        while not self._stopped:
            if not self._pressure():
                yield self._park(stripe)
                continue
            candidate = self.select_candidate(stripe)
            if candidate is None:
                candidate = self.select_candidate()
            if candidate is None and self.ftl.log.free_segment_count() == 0:
                # Last resort: reclaimable pages may be trapped in the
                # open head segments; close one and look again.
                if self.ftl.log.force_close_head(stripe=stripe) \
                        or self.ftl.log.force_close_head():
                    candidate = self.select_candidate()
            if candidate is None:
                if (self.ftl.log.free_segment_count() == 0
                        and not self._cleaning):
                    # Truly wedged: nothing reclaimable anywhere and no
                    # sibling worker mid-clean that could free space.
                    self.ftl.log.fail_waiters(OutOfSpaceError(
                        "no reclaimable segments: device is full "
                        "(all data is live or snapshot-retained)"))
                yield self._park(stripe)
                continue
            try:
                yield from self.clean_segment(
                    candidate, pacer=self._pacer_for(stripe))
            except OutOfSpaceError as exc:
                # Even the reserve ran dry mid-clean.  The media is
                # still consistent (moved blocks were relocated, the
                # source segment simply wasn't erased); report the
                # condition to stalled writers and park.
                self.ftl.log.fail_waiters(exc)
                yield self._park(stripe)

    # -- occupancy index ------------------------------------------------------
    def note_registry_changed(self, ppn: int) -> None:
        """A note at ``ppn`` entered or left the FTL's note registry."""
        self._notes_by_segment = None
        self.occupancy.pop(ppn // self.ftl.log.segment_pages, None)

    def invalidate_occupancy(self) -> None:
        """Forget every segment's occupancy (epoch-set change, recovery,
        checkpoint load, bulk recount)."""
        self.occupancy.clear()
        self._notes_by_segment = None

    def _live_notes_by_segment(self) -> Dict[int, int]:
        """Live-note counts per segment index, in one registry pass.

        The registry holds every note page still tracked; grouping it
        once is O(notes), versus the per-candidate media rescans
        (O(segments x segment_pages)) this replaces.
        """
        counts: Dict[int, int] = {}
        array = self.ftl.nand.array
        seg_pages = self.ftl.log.segment_pages
        for ppn in self.ftl._note_registry:
            if not array.is_programmed(ppn):
                continue
            if self.ftl._note_is_live(ppn, array.read_header(ppn)):
                index = ppn // seg_pages
                counts[index] = counts.get(index, 0) + 1
        return counts

    def _count_occupied(self, seg: Segment, notes_by_seg: Dict[int, int],
                        ) -> int:
        # Translation-aware: GTD-referenced MAP pages occupy space the
        # erase cannot reclaim for free (they must be copied forward),
        # so they count against the candidate exactly like live data
        # and live notes do.
        return (self.ftl._estimate_valid_count(seg)
                + notes_by_seg.get(seg.index, 0)
                + self.ftl._map_pages_in_segment(seg))

    # -- selection ------------------------------------------------------------
    def select_candidate(self,
                         stripe: Optional[int] = None) -> Optional[Segment]:
        """Pick the next segment to clean per the configured policy.

        "greedy" takes the most-reclaimable closed segment, the lowest
        index among equals; "cost_benefit" scores (1 - u) * age /
        (1 + u), preferring old, cold segments (Rosenblum & Ousterhout).
        With ``stripe`` given, only candidates homed on that stripe are
        considered.  Segments a sibling worker is already cleaning are
        skipped.  Returns None when no eligible closed segment would
        free anything.

        Occupancy comes from the index, so only candidates marked dirty
        since they were last counted are recounted.  Under the
        sanitizer every selection is repeated with fresh counts and
        must agree.
        """
        candidates = [seg for seg in self.ftl.log.closed_segments(stripe)
                      if seg.index not in self._cleaning]
        occupancy = self.occupancy
        for seg in candidates:
            if seg.index not in occupancy:
                if self._notes_by_segment is None:
                    self._notes_by_segment = self._live_notes_by_segment()
                occupancy[seg.index] = self._count_occupied(
                    seg, self._notes_by_segment)
        choice = self._choose(candidates, occupancy)
        if sanitize.enabled:
            notes_by_seg = self._live_notes_by_segment()
            fresh = self._choose(candidates, {
                seg.index: self._count_occupied(seg, notes_by_seg)
                for seg in candidates})
            sanitize.check(
                fresh is choice,
                f"cleaner occupancy index stale: selected "
                f"{getattr(choice, 'index', None)}, a fresh count selects "
                f"{getattr(fresh, 'index', None)}")
        return choice

    def _choose(self, candidates: List[Segment],
                occupancy: Dict[int, int]) -> Optional[Segment]:
        eligible = [(occupancy[seg.index], seg) for seg in candidates
                    if occupancy[seg.index] < seg.data_capacity]
        if not eligible:
            return None  # nothing reclaimable
        if self.ftl.config.gc_policy == "greedy":
            # Candidates ascend by index, and min() keeps the first of
            # equals.
            return min(eligible, key=lambda pair: pair[0])[1]
        newest_seq = max(seg.seq for seg in self.ftl.log.segments
                         if seg.state is SegmentState.CLOSED)
        best, best_score = None, None
        for occupied, seg in eligible:
            u = occupied / seg.data_capacity
            score = (1.0 - u) * (newest_seq - seg.seq + 1) / (1.0 + u)
            if best_score is None or score > best_score:
                best, best_score = seg, score
        return best

    # -- cleaning one segment ---------------------------------------------------
    def clean_segment(self, seg: Segment, paced: bool = True,
                      pacer: Optional[CleanerPacer] = None) -> Generator:
        """Copy-forward valid data and live notes, then erase ``seg``."""
        if seg.state is not SegmentState.CLOSED:
            raise FtlError(f"cannot clean segment in state {seg.state}")
        if seg.index in self._cleaning:
            raise FtlError(f"segment {seg.index} is already being cleaned")
        if pacer is None:
            pacer = self.pacer
        # Copy-forwards land on the GC head of the segment's own
        # stripe, so concurrent stripe workers append to disjoint dies.
        gc_stripe = self.ftl.log.stripe_of_segment(seg.index)
        self._cleaning.add(seg.index)
        # A flash-resident map defers eviction writebacks while a clean
        # is in flight: copy-forward map fixups are absorbed by dirty
        # resident pages (RAM) instead of appending — appends here
        # would eat the very space the clean exists to free.
        self.ftl._map_gc_pause()
        try:
            yield from self._clean_segment_locked(seg, paced, pacer,
                                                  gc_stripe)
        finally:
            self.ftl._map_gc_resume()
            self._cleaning.discard(seg.index)

    def _clean_segment_locked(self, seg: Segment, paced: bool,
                              pacer: CleanerPacer,
                              gc_stripe: int) -> Generator:
        started = self.kernel.now

        valid_ppns, merge_cost_ns = self.ftl._compute_valid(seg)
        yield merge_cost_ns  # CPU: merging/scanning validity bitmaps
        estimate = self.ftl._estimate_valid_count(seg)
        if paced:
            pacer.start(estimate)

        moved = 0
        lost = 0
        moves_done_at = self.kernel.now
        for ppn in valid_ppns:
            if not self.ftl._block_still_valid(ppn):
                continue  # invalidated by foreground I/O mid-clean
            move_started = self.kernel.now
            try:
                record = yield from self.ftl.nand.read_page(ppn)
            except UncorrectableError:
                # Copy-forward what's salvageable: record the casualty
                # (drops the page from the map and every epoch's
                # validity bits) and keep moving the rest.  The segment
                # is quarantined below instead of erased.
                self.ftl.record_media_loss(ppn, reason="gc-copy")
                self.pages_lost += 1
                lost += 1
                continue
            new_ppn, _done = yield from self.ftl.log.append(
                record.header, record.data, privileged=True,
                head=stripe_head(self.ftl._gc_head_for(ppn, record.header),
                                 gc_stripe),
                site=sites.GC_COPY)
            self.ftl._on_packet_appended(new_ppn, record.header)
            yield from self.ftl._relocate(ppn, new_ppn, record.header)
            moved += 1
            if paced:
                yield from pacer.pace(self.kernel.now - move_started)
        moves_done_at = self.kernel.now

        # Torn pages (power-cut residue) occupy their slot but hold
        # nothing; they are reclaimed with the segment.
        for ppn, header in self.ftl.nand.array.readable_headers(
                seg.written_ppns()):
            if header.kind is PageKind.DATA:
                continue
            if header.kind is PageKind.MAP:
                # Copy-forward updates the GTD, never the data map; a
                # copy the GTD no longer references is stale and dies
                # with the segment.
                yield from self.ftl._relocate_map_page(ppn, header,
                                                       gc_stripe)
                continue
            if ppn in self.ftl._note_registry and self.ftl._note_is_live(ppn, header):
                try:
                    record = yield from self.ftl.nand.read_page(ppn)
                except UncorrectableError:
                    self.ftl.record_media_loss(ppn, reason="gc-note",
                                               header=header)
                    self.pages_lost += 1
                    lost += 1
                    continue
                new_ppn, _done = yield from self.ftl.log.append(
                    record.header, record.data, privileged=True,
                    head=stripe_head("gc", gc_stripe),
                    site=sites.GC_NOTE)
                self.ftl._on_packet_appended(new_ppn, record.header)
                self.ftl._relocate_note(ppn, new_ppn)
                self.notes_moved += 1

        # Never pull media out from under an in-progress activation or
        # recovery scan (they hold references into this segment).
        yield from self.ftl.erase_barrier()
        # Last look at the segment's OOB headers (sanitizer audits the
        # epoch-summary index against them before they are wiped).
        self.ftl._before_segment_erase(seg)
        retire = False
        if lost:
            # Quarantine: the segment still holds uncorrectable cells.
            # Leave them unerased (nothing live remains — casualties
            # were dropped from the structures, survivors were copied
            # out) and pull the segment from circulation for good.
            self.segments_quarantined += 1
            retire = True
        else:
            first_block = (seg.first_ppn
                           // self.ftl.nand.geometry.pages_per_block)
            for block in range(first_block,
                               first_block + self.ftl.log.blocks_per_segment):
                try:
                    yield from self.ftl.nand.erase_block(block,
                                                         site=sites.GC_ERASE)
                except (WearOutError, EraseFailError):
                    # Either way the block is done: stale data may
                    # linger but every live page was copied out, and
                    # recovery's seq-order folding keeps the copies
                    # ahead of the stale originals.
                    retire = True
        self.ftl._on_segment_erased(seg)
        if retire:
            # All valid data was already copied out; take the segment
            # out of circulation and keep running at reduced capacity.
            self.ftl.log.retire_segment(seg.index)
            self.segments_retired += 1
        else:
            self.ftl.log.release_segment(seg.index)

        self.segments_cleaned += 1
        self.pages_moved += moved
        self.ftl.metrics.cleaner_runs.append({
            "segment": seg.index,
            "moved": moved,
            "estimate": estimate,
            "merge_ns": merge_cost_ns,
            "total_ns": self.kernel.now - started,
            "at": started,
            "moves_done_at": moves_done_at,
        })

    def ensure_free(self, target: int) -> Generator:
        """Clean (unpaced) until at least ``target`` segments are free.

        Used at shutdown to make room for the checkpoint; stops early
        when nothing reclaimable remains.
        """
        while self.ftl.log.free_segment_count() < target:
            candidate = self.select_candidate()
            if candidate is None:
                break
            yield from self.clean_segment(candidate, paced=False)

    def force_clean(self, seg: Segment, paced: bool = True) -> None:
        """Synchronously clean one specific segment (experiment helper)."""
        self.kernel.run_process(self.clean_segment(seg, paced=paced),
                                name=f"force-clean@{seg.index}")
