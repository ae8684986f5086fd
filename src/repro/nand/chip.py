"""Functional state of the NAND array: dies, blocks, pages.

This module holds *state and rules* only (what is programmed where,
sequential-program-within-a-block, erase-before-reuse, wear counts).
Timing and contention live in :mod:`repro.nand.device`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import (
    AddressError,
    NandError,
    ProgramOrderError,
    TornPageError,
    WearOutError,
)
from repro.nand.geometry import NandGeometry, WearModel
from repro.nand.oob import OobHeader, PageHealth, PageKind
from repro.torture import sites


@dataclass(slots=True)
class PageRecord:
    """Contents of one programmed page: header always, payload optionally."""

    header: OobHeader
    data: Optional[bytes]


@dataclass(slots=True, frozen=True)
class TornRecord:
    """Residue of a page program cut mid-flight.

    The record occupies its slot in the block's program order (the
    cells are no longer erased) but neither header nor payload can
    ever be read back.  ``site`` remembers which registered crash site
    (see :mod:`repro.torture.sites`) tore the page, purely for
    diagnostics — repro reports can say *where* the cut landed.
    """

    site: Optional[str] = None


@dataclass(slots=True, frozen=True)
class FailedRecord(TornRecord):
    """Residue of a page program the medium rejected (program-fail).

    Like a torn page the slot is burned — the cells were charged, the
    program order advanced, and nothing can ever be read back — so it
    subclasses :class:`TornRecord` and every scan/cleaner/fsck path
    that skips torn pages skips failed programs for free.
    """


class Block:
    """One erase block: pages must be programmed in order, erased in bulk."""

    __slots__ = ("pages_per_block", "next_page", "erase_count", "_pages",
                 "health")

    def __init__(self, pages_per_block: int) -> None:
        self.pages_per_block = pages_per_block
        self.next_page = 0
        self.erase_count = 0
        self._pages: Dict[int, Union[PageRecord, TornRecord]] = {}
        # Per-page error counters (lazy: only pages the device's ECC
        # path actually touched get an entry; see nand.oob.PageHealth).
        self.health: Dict[int, PageHealth] = {}

    def program(self, page: int, record: PageRecord) -> None:
        if page != self.next_page:
            raise ProgramOrderError(
                f"page {page} programmed out of order (expected {self.next_page})")
        if page >= self.pages_per_block:
            raise AddressError(f"page {page} beyond block end")
        self._pages[page] = record
        self.next_page += 1

    def program_torn(self, page: int, site: Optional[str] = None) -> None:
        """Occupy ``page`` with an unreadable torn record (power cut)."""
        if page != self.next_page:
            raise ProgramOrderError(
                f"page {page} programmed out of order (expected {self.next_page})")
        if page >= self.pages_per_block:
            raise AddressError(f"page {page} beyond block end")
        if site is not None and not sites.is_phased(site):
            sites.check_site(site)
        self._pages[page] = TornRecord(site=site)
        self.next_page += 1

    def program_failed(self, page: int) -> None:
        """Occupy ``page`` with the residue of a rejected program.

        The fault model decided this program fails: the slot is
        consumed (program order advances past it) but holds nothing
        readable.  The FTL re-programs the payload elsewhere.
        """
        if page != self.next_page:
            raise ProgramOrderError(
                f"page {page} programmed out of order (expected {self.next_page})")
        if page >= self.pages_per_block:
            raise AddressError(f"page {page} beyond block end")
        self._pages[page] = FailedRecord()
        self.next_page += 1

    def read(self, page: int) -> PageRecord:
        if not 0 <= page < self.pages_per_block:
            raise AddressError(f"page {page} out of block range")
        record = self._pages.get(page)
        if record is None:
            raise NandError(f"read of unprogrammed page {page}")
        if isinstance(record, FailedRecord):
            raise TornPageError(
                f"page {page} holds a failed program (nothing readable)")
        if isinstance(record, TornRecord):
            where = f" by a cut at {record.site}" if record.site else ""
            raise TornPageError(
                f"page {page} is torn{where} (OOB checksum bad)")
        return record

    def is_programmed(self, page: int) -> bool:
        return page in self._pages

    def is_torn(self, page: int) -> bool:
        return isinstance(self._pages.get(page), TornRecord)

    def is_failed(self, page: int) -> bool:
        return isinstance(self._pages.get(page), FailedRecord)

    def torn_site(self, page: int) -> Optional[str]:
        """The crash site that tore ``page`` (None if not torn/unknown)."""
        record = self._pages.get(page)
        return record.site if isinstance(record, TornRecord) else None

    def erase(self, wear: WearModel) -> None:
        self.erase_count += 1
        if wear.max_pe_cycles > 0 and self.erase_count > wear.max_pe_cycles:
            raise WearOutError(
                f"block exceeded {wear.max_pe_cycles} P/E cycles")
        self._pages.clear()
        self.health.clear()
        self.next_page = 0


class NandArray:
    """The full array of blocks, addressed by flat PPN / global block index."""

    def __init__(self, geometry: NandGeometry, wear: WearModel,
                 store_data: bool = True) -> None:
        self.geometry = geometry
        self.wear = wear
        self.store_data = store_data
        self._blocks: List[Block] = [
            Block(geometry.pages_per_block) for _ in range(geometry.total_blocks)
        ]
        # Hot-path constants: _locate runs on every program/read/
        # is_programmed, so it must not allocate a PageAddress.
        self._pages_per_block = geometry.pages_per_block
        self._total_pages = geometry.total_pages

    def _locate(self, ppn: int) -> Tuple[Block, int]:
        # The global block index is ppn // pages_per_block because the
        # PPN space concatenates dies (see geometry module docstring).
        if not 0 <= ppn < self._total_pages:
            raise AddressError(
                f"ppn {ppn} out of range [0, {self._total_pages})")
        return (self._blocks[ppn // self._pages_per_block],
                ppn % self._pages_per_block)

    def program(self, ppn: int, header: OobHeader,
                data: Optional[bytes]) -> None:
        """Program one page; payload dropped if ``store_data`` is off."""
        if data is not None and len(data) > self.geometry.page_size:
            raise NandError(
                f"payload {len(data)} exceeds page size {self.geometry.page_size}")
        block, page = self._locate(ppn)
        # Payloads may be dropped to bound simulator memory on large
        # benchmarks, but notes and checkpoints are always kept: the FTL
        # cannot recover without them.
        keep = (self.store_data
                or header.kind is not PageKind.DATA)
        block.program(page, PageRecord(header=header, data=data if keep else None))

    def program_torn(self, ppn: int, site: Optional[str] = None) -> None:
        """Leave a torn page at ``ppn``: the power-cut residue of a
        program that charged the cells but never finished."""
        block, page = self._locate(ppn)
        block.program_torn(page, site)

    def program_failed(self, ppn: int) -> None:
        """Burn ``ppn``'s slot with program-fail residue (fault model)."""
        block, page = self._locate(ppn)
        block.program_failed(page)

    def health(self, ppn: int) -> PageHealth:
        """Per-page error counters for ``ppn`` (created on demand)."""
        block, page = self._locate(ppn)
        record = block.health.get(page)
        if record is None:
            record = block.health[page] = PageHealth()
        return record

    def read(self, ppn: int) -> PageRecord:
        block, page = self._locate(ppn)
        return block.read(page)

    def read_header(self, ppn: int) -> OobHeader:
        if 0 <= ppn < self._total_pages:
            record = self._blocks[ppn // self._pages_per_block]._pages.get(
                ppn % self._pages_per_block)
            if isinstance(record, PageRecord):
                return record.header
        return self.read(ppn).header  # raises the precise error

    def is_programmed(self, ppn: int) -> bool:
        block, page = self._locate(ppn)
        return block.is_programmed(page)

    def readable_headers(self, ppns: range) -> Iterator[Tuple[int, OobHeader]]:
        """``(ppn, header)`` for each page of ``ppns`` holding a packet.

        Skips erased, torn and program-failed pages, walking the array
        block by block instead of locating every page.  Lazy: a page is
        looked at only when the consumer pulls it, so a scan that lets
        virtual time pass between pulls sees each page as of its pull,
        exactly like a per-page ``is_programmed``/``is_torn`` check.
        """
        ppn, stop = ppns.start, ppns.stop
        if ppn >= stop:
            return
        self._locate(ppn)
        self._locate(stop - 1)
        per_block = self._pages_per_block
        while ppn < stop:
            block_index, page = divmod(ppn, per_block)
            end = min(stop, ppn - page + per_block)
            pages = self._blocks[block_index]._pages
            for ppn in range(ppn, end):
                record = pages.get(page)
                page += 1
                if isinstance(record, PageRecord):
                    yield ppn, record.header
            ppn = end

    def is_torn(self, ppn: int) -> bool:
        block, page = self._locate(ppn)
        return block.is_torn(page)

    def is_failed(self, ppn: int) -> bool:
        """Is ``ppn`` the residue of a rejected (program-failed) page?

        Distinct from :meth:`is_torn` where it matters: a power cut
        ends the log (nothing programs after the lights go out) but a
        program-fail does not — the append retried on the next page,
        so scans must step over the residue, not stop at it.
        """
        block, page = self._locate(ppn)
        return block.is_failed(page)

    def torn_site(self, ppn: int) -> Optional[str]:
        block, page = self._locate(ppn)
        return block.torn_site(page)

    def erase_block(self, global_block: int) -> None:
        if not 0 <= global_block < self.geometry.total_blocks:
            raise AddressError(f"block {global_block} out of range")
        self._blocks[global_block].erase(self.wear)

    def erase_count(self, global_block: int) -> int:
        return self._blocks[global_block].erase_count

    def block_is_erased(self, global_block: int) -> bool:
        """True if no page of the block is currently programmed."""
        return self._blocks[global_block].next_page == 0

    def wear_stats(self) -> Dict[str, Any]:
        counts = [b.erase_count for b in self._blocks]
        return {
            "min": min(counts),
            "max": max(counts),
            "total": sum(counts),
            "mean": sum(counts) / len(counts),
        }
