"""Background media scrubber: rewrite pages before they go uncorrectable.

A patrol process in the spirit of the paper's rate-limited background
machinery (§5.6): it walks the log's occupied segments a few pages per
pass, asks the fault model how many bit errors each live page has
accumulated, and relocates any page whose count crossed the scrub
threshold — *before* retention and read-disturb push it past the ECC's
retry ladder.

Relocation rides the same machinery as the cleaner's copy-forward
(``log.append`` + ``_relocate``/``_relocate_note`` hooks), which makes
the scrubber snapshot-aware for free: ioSnap's ``_relocate`` fixes the
validity bit of *every* epoch that references the old PPN, so a
scrubbed snapshot-only block keeps each epoch's bit.  Scrub copies are
tagged with their own crash site (``scrub.copy``) so the torture sweep
can cut mid-scrub.

Pacing goes through :class:`repro.ftl.ratelimit.DutyCycleLimiter` —
the paper's "x usec work / y msec sleep" knob — so patrols do not
stall foreground I/O.  The scrubber only runs when the device has a
fault model attached; on a perfect medium it is never spawned.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, Optional

from repro.errors import OutOfSpaceError, UncorrectableError
from repro.ftl.log import stripe_head
from repro.ftl.ratelimit import DutyCycleLimiter
from repro.nand.oob import PageKind
from repro.sim.stats import NS_PER_MS, Counters
from repro.torture import sites

if TYPE_CHECKING:  # pragma: no cover
    from repro.ftl.vsl import VslDevice

INTERVAL_MS = 50.0        # one patrol pass per interval
PAGES_PER_PASS = 64       # pass budget, split evenly across stripes
WORK_US = 100.0           # DutyCycleLimiter work quantum ...
SLEEP_MS = 1.0            # ... and sleep per quantum


class Scrubber:
    """Patrol-read live pages; relocate the ones aging toward death."""

    def __init__(self, ftl: "VslDevice") -> None:
        self.ftl = ftl
        self.kernel = ftl.kernel
        self.limiter = DutyCycleLimiter.from_paper_knob(
            self.kernel, WORK_US, SLEEP_MS)
        self._stopped = False
        # Patrol cursor per stripe worker (key None: a direct global
        # scrub_pass()).  Counters are shared.
        self._cursors: Dict[Optional[int], int] = {}
        self.counters = Counters("passes", "pages_scanned",
                                 "pages_relocated", "notes_relocated",
                                 "pages_lost")

    def stop(self) -> None:
        self._stopped = True

    @property
    def threshold_bits(self) -> int:
        """Error count that triggers relocation.

        The ECC's base correction budget: scrub as soon as a read would
        need the retry ladder, well before the ladder's reach runs out.
        Without a fault model nothing ever triggers.
        """
        faults = self.ftl.nand.faults
        if faults is None:
            return 1 << 30
        return faults.ecc.config.correctable_bits

    # -- main loop ---------------------------------------------------------
    def run(self, stripe: int) -> Generator:
        """Background worker: one bounded patrol pass per interval.

        One worker is spawned per stripe; each patrols only segments
        homed on its stripe and relocates onto that stripe's GC head,
        so concurrent patrols overlap across dies instead of queueing
        behind each other (and behind the cleaner) on one head.
        """
        interval_ns = int(INTERVAL_MS * NS_PER_MS)
        while not self._stopped:
            yield interval_ns
            if self._stopped:
                return
            try:
                yield from self.scrub_pass(stripe)
            except OutOfSpaceError:
                # No room to relocate into right now; the cleaner was
                # already kicked by the failed allocation.  Try again
                # next interval.
                continue

    # -- one pass ----------------------------------------------------------
    def scrub_pass(self, stripe: Optional[int] = None) -> Generator:
        """Patrol up to the pass budget of pages, round-robin.

        With ``stripe`` given, only that stripe's segments are
        patrolled and the pass budget is split evenly across stripes.
        """
        ftl = self.ftl
        if ftl.nand.faults is None:
            return
        self.counters.bump("passes")
        budget = PAGES_PER_PASS
        if stripe is not None:
            budget = max(1, budget // ftl.log.num_stripes)
        seg_count = ftl.log.segment_count
        cursor = self._cursors.get(stripe, 0)
        scanned = 0
        wrapped = True
        for step in range(seg_count):
            if scanned >= budget or self._stopped:
                wrapped = False
                break
            index = (cursor + step) % seg_count
            if stripe is not None \
                    and ftl.log.stripe_of_segment(index) != stripe:
                continue
            seg = ftl.log.segments[index]
            if seg.seq < 0:
                continue  # FREE or RETIRED: nothing live to patrol
            for ppn in seg.written_ppns():
                if scanned >= budget or self._stopped:
                    # Resume this segment on the next pass.
                    self._cursors[stripe] = index
                    break
                scanned += 1
                yield from self._patrol_page(ppn, stripe)
            else:
                continue
            wrapped = False
            break
        if wrapped:
            self._cursors[stripe] = 0
        self.counters.bump("pages_scanned", scanned)

    def _patrol_page(self, ppn: int,
                     stripe: Optional[int] = None) -> Generator:
        ftl = self.ftl
        nand = ftl.nand
        array = nand.array
        if not array.is_programmed(ppn) or array.is_torn(ppn):
            return
        bits = nand.media_error_bits(ppn)
        if bits < self.threshold_bits:
            return
        # Bookkeeping peek at the OOB header to decide liveness (the
        # cleaner's note pass does the same); the relocation below does
        # the honest timed read.
        header = array.read_header(ppn)
        if header.kind is PageKind.DATA:
            live = ftl._block_still_valid(ppn)
        elif header.kind is PageKind.SEGMENT_HEADER:
            live = False  # not relocatable; dies with its segment
        else:
            live = (ppn in ftl._note_registry
                    and ftl._note_is_live(ppn, header))
        if not live:
            return
        started = self.kernel.now
        try:
            record = yield from nand.read_page(ppn)
        except UncorrectableError:
            # Too late for this page: the patrol found it after the
            # ladder's reach ran out.  Account the casualty; the
            # cleaner will quarantine the segment.
            ftl.record_media_loss(ppn, reason="scrub", header=header)
            self.counters.bump("pages_lost")
            return
        gc_stripe = (stripe if stripe is not None
                     else ftl.log.stripe_of_segment(
                         ppn // ftl.log.segment_pages))
        if header.kind is PageKind.DATA:
            new_ppn, _done = yield from ftl.log.append(
                record.header, record.data, privileged=True,
                head=stripe_head(ftl._gc_head_for(ppn, record.header),
                                 gc_stripe),
                site=sites.SCRUB_COPY)
            ftl._on_packet_appended(new_ppn, record.header)
            yield from ftl._relocate(ppn, new_ppn, record.header)
            self.counters.bump("pages_relocated")
        else:
            new_ppn, _done = yield from ftl.log.append(
                record.header, record.data, privileged=True,
                head=stripe_head("gc", gc_stripe),
                site=sites.SCRUB_COPY)
            ftl._on_packet_appended(new_ppn, record.header)
            ftl._relocate_note(ppn, new_ppn)
            self.counters.bump("notes_relocated")
        yield from self.limiter.pace(self.kernel.now - started)
