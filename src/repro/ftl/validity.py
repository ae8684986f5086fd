"""Paged validity bitmaps — word-level engine.

The validity bitmap records, for every physical page, whether it holds
live data (paper §5.2.2, Figure 2).  It is organized as fixed-size
*bitmap pages* so that ioSnap can apply copy-on-write at bitmap-page
granularity (paper §5.4.1, Figure 5); the base FTL uses the same layout
without CoW.

Bitmap pages are allocated lazily: an absent page reads as all-zero.

Storage layout: each bitmap page is one Python big-int interpreted
little-endian — bit ``i`` of the integer is bit ``i`` of the page, and
``int.from_bytes(page_bytes_blob, "little")`` round-trips with the
on-media byte image.  All bulk operations (count, range count, merge,
set-bit iteration) are whole-word arithmetic: a masked ``bit_count()``
replaces per-bit loops, a single big-int OR replaces per-byte merges,
and iteration strips one set bit per step so all-zero words cost
nothing.  ``PERF_COUNTERS`` records which engine path served each
operation so tests and benchmarks can assert the fast paths are used.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from repro import sanitize
from repro.errors import AddressError

# Which engine path served each operation: word_* count fast-path
# invocations (tests/ftl/test_validity_engine.py asserts a snapshot-aware
# cleaner pass drives all three).  Nothing increments bit_fallback any
# more; it stays because benchmarks/e2e reads it and guards it at 0.
PERF_COUNTERS: Dict[str, int] = {
    "word_merge": 0,
    "word_count": 0,
    "word_iter": 0,
    "bit_fallback": 0,
}


def reset_perf_counters() -> None:
    for key in PERF_COUNTERS:
        PERF_COUNTERS[key] = 0


def iter_word_bits(word: int, base: int) -> Iterator[int]:
    """Yield ``base + i`` for every set bit ``i`` of ``word``, ascending.

    Strips the lowest set bit each step (``word & -word``), so cost is
    proportional to the number of set bits, not the word width.
    """
    while word:
        low = word & -word
        yield base + low.bit_length() - 1
        word ^= low


class ValidityBitmap:
    """A flat validity bitmap over ``total_bits`` physical pages."""

    def __init__(self, total_bits: int, page_bytes: int = 512) -> None:
        if total_bits <= 0:
            raise ValueError("total_bits must be positive")
        if page_bytes <= 0:
            raise ValueError("page_bytes must be positive")
        self.total_bits = total_bits
        self.page_bytes = page_bytes
        self.bits_per_page = page_bytes * 8
        self._pages: Dict[int, int] = {}

    # -- addressing -----------------------------------------------------
    def _locate(self, bit: int) -> Tuple[int, int]:
        if not 0 <= bit < self.total_bits:
            raise AddressError(f"bit {bit} out of range [0, {self.total_bits})")
        return divmod(bit, self.bits_per_page)

    def page_index_of(self, bit: int) -> int:
        return self._locate(bit)[0]

    @property
    def page_count(self) -> int:
        """Number of bitmap pages needed to cover the whole device."""
        return (self.total_bits + self.bits_per_page - 1) // self.bits_per_page

    # -- bit operations ---------------------------------------------------
    def set(self, bit: int) -> bool:
        """Set a bit; returns True if the bit was previously clear."""
        page_idx, offset = self._locate(bit)
        mask = 1 << offset
        word = self._pages.get(page_idx, 0)
        if word & mask:
            return False
        self._pages[page_idx] = word | mask
        return True

    def clear(self, bit: int) -> bool:
        """Clear a bit; returns True if the bit was previously set."""
        page_idx, offset = self._locate(bit)
        word = self._pages.get(page_idx)
        if word is None or not word & (1 << offset):
            return False
        self._pages[page_idx] = word & ~(1 << offset)
        return True

    def test(self, bit: int) -> bool:
        page_idx, offset = self._locate(bit)
        word = self._pages.get(page_idx)
        return bool(word is not None and word >> offset & 1)

    # -- bulk queries ------------------------------------------------------
    def count(self) -> int:
        """Total number of set bits."""
        PERF_COUNTERS["word_count"] += 1
        return sum(word.bit_count() for word in self._pages.values())

    def _check_range(self, start: int, length: int) -> None:
        if length < 0 or start < 0 or start + length > self.total_bits:
            raise AddressError(
                f"range [{start}, {start + length}) out of bounds")

    def count_range(self, start: int, length: int) -> int:
        """Number of set bits in [start, start + length)."""
        self._check_range(start, length)
        if length == 0:
            return 0
        PERF_COUNTERS["word_count"] += 1
        end = start + length
        bpp = self.bits_per_page
        pages = self._pages
        total = 0
        for page_idx in range(start // bpp, (end - 1) // bpp + 1):
            word = pages.get(page_idx)
            if not word:
                continue
            total += _mask_word(word, page_idx * bpp, start, end,
                                bpp).bit_count()
        return total

    def iter_set_in_range(self, start: int, length: int) -> Iterator[int]:
        """Yield set bit indices in [start, start + length), ascending."""
        self._check_range(start, length)
        if length == 0:
            return
        PERF_COUNTERS["word_iter"] += 1
        end = start + length
        bpp = self.bits_per_page
        pages = self._pages
        for page_idx in range(start // bpp, (end - 1) // bpp + 1):
            word = pages.get(page_idx)
            if not word:
                continue
            base = page_idx * bpp
            yield from iter_word_bits(
                _mask_word(word, base, start, end, bpp), base)

    # -- page-level access (used by CoW layering and checkpoints) ---------
    def page_word(self, page_idx: int) -> int:
        """One bitmap page as a little-endian big-int (0 if absent)."""
        return self._pages.get(page_idx, 0)

    def materialized_pages(self) -> Dict[int, bytes]:
        """Copies of all allocated bitmap pages, keyed by page index."""
        nbytes = self.page_bytes
        return {idx: word.to_bytes(nbytes, "little")
                for idx, word in self._pages.items()}

    def load_pages(self, pages: Dict[int, bytes]) -> None:
        """Replace contents from a checkpoint image."""
        self._pages = {idx: int.from_bytes(data, "little")
                       for idx, data in pages.items()}
        if sanitize.enabled:
            # A checkpoint image may be stale or corrupt; reject pages
            # that do not belong to this bitmap's geometry.
            for idx, word in self._pages.items():
                sanitize.check(0 <= idx < self.page_count,
                               f"loaded page index {idx} out of range")
                sanitize.check(word >> self.bits_per_page == 0,
                               f"loaded page {idx} overflows "
                               f"{self.bits_per_page}-bit page width")

    def get_page(self, page_idx: int) -> bytes:
        """Contents of one bitmap page (zeros if never allocated)."""
        return self._pages.get(page_idx, 0).to_bytes(self.page_bytes, "little")

    def allocated_page_count(self) -> int:
        return len(self._pages)


def _mask_word(word: int, base: int, start: int, end: int, bpp: int) -> int:
    """Restrict a page word to the overlap of its page with [start, end)."""
    lo = start - base
    if lo > 0:
        word = word >> lo << lo
    hi = end - base
    if hi < bpp:
        word &= (1 << hi) - 1
    return word


def merge_words(words: List[int]) -> int:
    """Logical OR of several page words (paper Figure 6), one op each."""
    PERF_COUNTERS["word_merge"] += 1
    merged = 0
    for word in words:
        merged |= word
    return merged


def merge_pages(pages: List[bytes], page_bytes: int) -> bytearray:
    """Logical OR of several same-sized bitmap pages (paper Figure 6)."""
    for page in pages:
        if len(page) != page_bytes:
            raise ValueError("bitmap page size mismatch")
    merged = merge_words([int.from_bytes(page, "little") for page in pages])
    return bytearray(merged.to_bytes(page_bytes, "little"))


def popcount(page: bytes) -> int:
    return int.from_bytes(page, "little").bit_count()
