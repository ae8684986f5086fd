"""Property-style equivalence tests for the word-level bitmap engine.

The validity layer stores bitmap pages as little-endian big-ints and
answers count/iterate/merge questions with word arithmetic.  These
tests drive :class:`ValidityBitmap` and :class:`CowValidityBitmap`
with randomized operation streams and compare every answer against a
naive per-bit reference (a plain ``set`` of bit indices), so any
word-masking or page-boundary mistake shows up as a divergence.
"""

import random

import pytest

from repro.core.cow_bitmap import (
    CowValidityBitmap,
    merged_count_range,
    merged_iter_range,
)
from repro.errors import SnapshotError
from repro.ftl.validity import (
    PERF_COUNTERS,
    ValidityBitmap,
    merge_pages,
    popcount,
    reset_perf_counters,
)

from tests.conftest import make_iosnap

TOTAL_BITS = 4 * 1024          # a few bitmap pages at small page_bytes
PAGE_BYTES = 64                # 512 bits/page -> page-boundary coverage


def random_ranges(rng, count):
    for _ in range(count):
        start = rng.randrange(TOTAL_BITS)
        length = rng.randrange(TOTAL_BITS - start + 1)
        yield start, length


class TestValidityBitmapEquivalence:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_ops_match_reference(self, seed):
        rng = random.Random(seed)
        bitmap = ValidityBitmap(TOTAL_BITS, page_bytes=PAGE_BYTES)
        reference = set()
        for _ in range(2000):
            bit = rng.randrange(TOTAL_BITS)
            if rng.random() < 0.6:
                changed = bitmap.set(bit)
                assert changed == (bit not in reference)
                reference.add(bit)
            else:
                changed = bitmap.clear(bit)
                assert changed == (bit in reference)
                reference.discard(bit)
            assert bitmap.test(bit) == (bit in reference)

        assert bitmap.count() == len(reference)
        for start, length in random_ranges(rng, 50):
            expected = [b for b in sorted(reference)
                        if start <= b < start + length]
            assert bitmap.count_range(start, length) == len(expected)
            assert list(bitmap.iter_set_in_range(start, length)) == expected

    @pytest.mark.parametrize("seed", [4, 5])
    def test_checkpoint_round_trip(self, seed):
        rng = random.Random(seed)
        bitmap = ValidityBitmap(TOTAL_BITS, page_bytes=PAGE_BYTES)
        reference = set(rng.sample(range(TOTAL_BITS), TOTAL_BITS // 3))
        for bit in reference:
            bitmap.set(bit)

        pages = bitmap.materialized_pages()
        assert all(len(page) == PAGE_BYTES for page in pages.values())
        assert sum(popcount(page) for page in pages.values()) == len(reference)

        restored = ValidityBitmap(TOTAL_BITS, page_bytes=PAGE_BYTES)
        restored.load_pages(pages)
        assert (list(restored.iter_set_in_range(0, TOTAL_BITS))
                == sorted(reference))

    def test_merge_pages_is_bitwise_or(self):
        rng = random.Random(6)
        page_lists = []
        for _ in range(5):
            page = bytearray(PAGE_BYTES)
            for bit in rng.sample(range(PAGE_BYTES * 8), PAGE_BYTES * 2):
                page[bit // 8] |= 1 << (bit % 8)
            page_lists.append(bytes(page))

        merged = merge_pages(page_lists, PAGE_BYTES)
        for byte_idx in range(PAGE_BYTES):
            expected = 0
            for page in page_lists:
                expected |= page[byte_idx]
            assert merged[byte_idx] == expected


class TestCowBitmapEquivalence:
    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_fork_chain_matches_per_epoch_references(self, seed):
        rng = random.Random(seed)
        epochs = []              # [(bitmap, reference set)]
        active = CowValidityBitmap(TOTAL_BITS, page_bytes=PAGE_BYTES)
        reference = set()
        for _ in range(4):
            for _ in range(500):
                bit = rng.randrange(TOTAL_BITS)
                if rng.random() < 0.7:
                    active.set(bit)
                    reference.add(bit)
                else:
                    active.clear(bit)
                    reference.discard(bit)
            epochs.append((active, set(reference)))
            active = active.fork()    # snapshot: freeze + CoW child

        # Every frozen epoch still answers exactly as it did at freeze.
        for bitmap, frozen_reference in epochs:
            assert (list(bitmap.iter_set_in_range(0, TOTAL_BITS))
                    == sorted(frozen_reference))
            assert bitmap.count() == len(frozen_reference)
            for start, length in random_ranges(rng, 20):
                expected = sum(1 for b in frozen_reference
                               if start <= b < start + length)
                assert bitmap.count_range(start, length) == expected

    def test_frozen_rejects_plain_mutation_but_not_privileged(self):
        bitmap = CowValidityBitmap(TOTAL_BITS, page_bytes=PAGE_BYTES)
        bitmap.set(5)
        child = bitmap.fork()
        with pytest.raises(SnapshotError):
            bitmap.set(6)
        # A child still sharing the page sees parent-side cleaner fixes;
        # once it has its own copy, it does not.
        bitmap.set_privileged(6)      # the cleaner's prerogative
        assert bitmap.test(6)
        assert child.test(6)          # page still shared
        child.set(7)                  # CoW copy of page 0
        bitmap.set_privileged(8)
        assert bitmap.test(8)
        assert not child.test(8)      # private copy no longer tracks

    def test_cow_copies_only_on_first_touch_of_shared_page(self):
        parent = CowValidityBitmap(TOTAL_BITS, page_bytes=PAGE_BYTES)
        bits_per_page = PAGE_BYTES * 8
        parent.set(0)
        parent.set(bits_per_page)     # two distinct pages
        child = parent.fork()
        assert child.owned_page_count() == 0
        child.set(1)                  # first touch: page 0 copied
        child.set(2)                  # same page: no new copy
        assert child.cow_copies == 1
        assert child.owned_page_count() == 1
        child.clear(bits_per_page)    # first touch of page 1
        assert child.cow_copies == 2
        # Parent unaffected throughout.
        assert parent.test(0) and parent.test(bits_per_page)
        assert not parent.test(1)

    @pytest.mark.parametrize("seed", [10, 11])
    def test_materialize_round_trip(self, seed):
        rng = random.Random(seed)
        parent = CowValidityBitmap(TOTAL_BITS, page_bytes=PAGE_BYTES)
        for bit in rng.sample(range(TOTAL_BITS), 600):
            parent.set(bit)
        child = parent.fork()
        for bit in rng.sample(range(TOTAL_BITS), 200):
            child.set(bit)

        pages = child.materialize()
        restored = CowValidityBitmap.from_pages(TOTAL_BITS, PAGE_BYTES, pages)
        assert (list(restored.iter_set_in_range(0, TOTAL_BITS))
                == list(child.iter_set_in_range(0, TOTAL_BITS)))
        assert restored.count() == child.count()

    @pytest.mark.parametrize("seed", [12, 13])
    def test_merged_views_equal_per_bit_union(self, seed):
        rng = random.Random(seed)
        bitmaps = []
        union = set()
        bitmap = CowValidityBitmap(TOTAL_BITS, page_bytes=PAGE_BYTES)
        for _ in range(3):
            picked = rng.sample(range(TOTAL_BITS), 300)
            for bit in picked:
                bitmap.set(bit)
            union.update(list(bitmap.iter_set_in_range(0, TOTAL_BITS)))
            bitmaps.append(bitmap)
            bitmap = bitmap.fork()

        union = set()
        for bm in bitmaps:
            union.update(bm.iter_set_in_range(0, TOTAL_BITS))
        assert (list(merged_iter_range(bitmaps, 0, TOTAL_BITS))
                == sorted(union))
        for start, length in random_ranges(rng, 30):
            expected = sum(1 for b in union if start <= b < start + length)
            assert merged_count_range(bitmaps, start, length) == expected


def test_snapshot_aware_cleaning_rides_the_word_engine(kernel):
    """A cleaner pass over segments whose validity spans a snapshot
    epoch must count, iterate and merge through the word-level paths,
    so the engine cannot silently fall out of the data path."""
    device = make_iosnap(kernel)
    rng = random.Random(17)
    span = 512
    for _ in range(3 * span):         # overwrites leave invalid pages
        device.write(rng.randrange(span))
    device.snapshot_create("s")
    for _ in range(2 * span):
        device.write(rng.randrange(span))

    reset_perf_counters()
    candidate = device.cleaner.select_candidate()
    assert candidate is not None
    device.cleaner.force_clean(candidate)
    for name in ("word_merge", "word_count", "word_iter"):
        assert PERF_COUNTERS[name] > 0, name
