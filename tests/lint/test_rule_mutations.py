"""Mutation tests: break each contract in the *real* source and prove
the corresponding rule catches it.

Each test copies a production module into a fixture ``repro`` tree
(same package-relative path, so scoping applies), applies a realistic
regression, and asserts the rule fires.  The unmutated copy linting
clean is the control.
"""

from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _mutate(box, package_rel: str, old: str, new: str) -> Path:
    original = (SRC / package_rel).read_text(encoding="utf-8")
    assert old in original, f"mutation anchor vanished from {package_rel}"
    clean = box.write(package_rel, original)
    assert box.codes(clean) == [], \
        f"control copy of {package_rel} should lint clean"
    return box.write(package_rel, original.replace(old, new))


def test_iol001_fires_when_gc_erase_loses_its_site(box):
    mutated = _mutate(
        box, "ftl/cleaner.py",
        "yield from self.ftl.nand.erase_block(block,\n"
        "                                                         site=sites.GC_ERASE)",
        "yield from self.ftl.nand.erase_block(block)")
    assert "IOL001" in box.codes(mutated)


def test_iol002_fires_when_reducer_drops_its_reraise_guard(box):
    mutated = _mutate(
        box, "torture/reduce.py",
        "    except (PowerLossError, KeyboardInterrupt):",
        "    except (ArithmeticError,):")
    assert "IOL002" in box.codes(mutated)


def test_iol003_fires_when_wall_clock_enters_the_kernel(box):
    mutated = _mutate(
        box, "sim/kernel.py",
        "import heapq",
        "import heapq\nimport time\n_T0 = time.time()")
    assert "IOL003" in box.codes(mutated)


def test_iol004_fires_when_cleaner_mutates_frozen_bitmaps_itself(box):
    mutated = _mutate(
        box, "ftl/cleaner.py",
        "self.ftl._on_segment_erased(seg)",
        "self.ftl.active_bitmap.clear_privileged(0)\n"
        "        self.ftl._on_segment_erased(seg)")
    assert "IOL004" in box.codes(mutated)


def test_iol005_fires_when_epoch_arithmetic_goes_float(box):
    mutated = _mutate(
        box, "core/snaptree.py",
        "        number = self._next_epoch",
        "        number = self._next_epoch\n"
        "        midpoint = self._next_epoch / 2  # noqa: demo regression\n"
        "        del midpoint")
    assert "IOL005" in box.codes(mutated)


def test_iol006_fires_when_read_path_leaks_the_die(box):
    original = (SRC / "nand/device.py").read_text(encoding="utf-8")
    anchor = ("        try:\n"
              "            yield self.timing.read_page_ns\n"
              "            if resolution is not None and resolution.retries:\n"
              "                yield self._retry_cost_ns(resolution)\n"
              "        finally:\n"
              "            die.release()")
    assert anchor in original
    mutated_text = original.replace(
        anchor, "        yield self.timing.read_page_ns", 1)
    mutated = box.write("nand/device.py", mutated_text)
    assert "IOL006" in box.codes(mutated)


def test_iol007_fires_when_cleaner_stops_recording_casualties(box):
    mutated = _mutate(
        box, "ftl/cleaner.py",
        '                self.ftl.record_media_loss(ppn, reason="gc-copy")\n'
        "                self.pages_lost += 1",
        "                self.pages_lost += 1")
    assert "IOL007" in box.codes(mutated)


def test_iol007_fires_when_recovery_drops_the_retire_flag(box):
    mutated = _mutate(
        box, "ftl/recovery.py",
        "            except EraseFailError:\n"
        "                # Grown-bad mid-repair: nothing recoverable was in the\n"
        "                # segment anyway; retire it from circulation.\n"
        "                retired = True",
        "            except EraseFailError:\n"
        "                pass")
    assert "IOL007" in box.codes(mutated)


def test_iol009_fires_when_append_drops_the_head_lock(box):
    """The ISSUE acceptance mutation: un-lock the per-head append path.

    Without the lock span the read of ``self._open`` before the ack
    yield and the writeback after it straddle unprotected.
    """
    mutated = _mutate(
        box, "ftl/log.py",
        "        while True:\n"
        "            if not lock.try_acquire():\n"
        "                yield lock.acquire()\n"
        "            wait_ev: Optional[Event] = None",
        "        while True:\n"
        "            wait_ev: Optional[Event] = None")
    assert "IOL009" in box.codes(mutated)


def test_iol009_fires_when_free_pool_span_is_stripped(box):
    """The other acceptance mutation: naked free-list draws."""
    mutated = _mutate(
        box, "ftl/log.py",
        "        if not self._alloc_lock.try_acquire():\n"
        '            raise FtlError("allocator lock contended in '
        '_pop_free_index: "\n'
        '                           "a free-pool critical section grew a '
        'yield")\n'
        "        try:",
        "        try:")
    assert "IOL009" in box.codes(mutated)


def test_iol009_fires_when_release_segment_span_is_stripped(box):
    """Naked free-list returns: the pool write the concurrent openers'
    draws race with, on the reclamation side of the allocator."""
    mutated = _mutate(
        box, "ftl/log.py",
        "        if not self._alloc_lock.try_acquire():\n"
        '            raise FtlError("allocator lock contended in '
        'release_segment: "\n'
        '                           "a free-pool critical section grew a '
        'yield")\n'
        "        try:",
        "        try:")
    assert "IOL009" in box.codes(mutated)


def test_iol008_fires_on_seeded_lock_inversion(box):
    """Take a head lock inside the allocator span: free -> head edge,
    while append() owns the established head -> free edge."""
    mutated = _mutate(
        box, "ftl/log.py",
        "        try:\n"
        "            order = [(stripe + i) % self.num_stripes",
        "        try:\n"
        '            hlock = self._lock_for("user")\n'
        "            hlock.try_acquire()\n"
        "            hlock.release()\n"
        "            order = [(stripe + i) % self.num_stripes")
    assert "IOL008" in box.codes(mutated)


def test_iol009_fires_when_map_fault_installs_without_revalidating(box):
    """Install the faulted translation page straight after the flash
    read: the residency check before the yield goes stale, and a page a
    concurrent process installed (or a GTD move) is clobbered."""
    mutated = _mutate(
        box, "ftl/mapcache.py",
        "        self._install_faulted(tidx, src_ppn, entries)\n"
        "        yield from self._evict_proc()",
        "        self._pages[tidx] = TranslationPage(tidx, entries)\n"
        "        yield from self._evict_proc()")
    assert "IOL009" in box.codes(mutated)


def test_iol010_fires_when_cleanup_blocks_on_a_lock(box):
    mutated = _mutate(
        box, "ftl/log.py",
        "            finally:\n"
        "                lock.release()\n"
        "            started = self.kernel.now",
        "            finally:\n"
        "                yield lock.acquire()\n"
        "                lock.release()\n"
        "                lock.release()\n"
        "            started = self.kernel.now")
    assert "IOL010" in box.codes(mutated)


@pytest.mark.parametrize("package_rel", [
    "ftl/cleaner.py", "torture/reduce.py", "sim/kernel.py",
    "core/snaptree.py", "nand/device.py", "core/cow_bitmap.py",
    "ftl/checkpoint.py", "baselines/btrfs.py", "ftl/recovery.py",
    "ftl/scrub.py", "ftl/log.py", "torture/model.py", "faults/model.py",
    "faults/ecc.py", "faults/damage.py", "ftl/vsl.py", "core/iosnap.py",
    "ftl/mapcache.py", "replicate/cursor.py",
])
def test_production_modules_lint_clean_as_controls(box, package_rel):
    copy = box.write(package_rel,
                     (SRC / package_rel).read_text(encoding="utf-8"))
    assert box.codes(copy) == []
