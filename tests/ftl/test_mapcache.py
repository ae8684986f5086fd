"""Tests for the demand-paged flash-resident forward map.

The load-bearing property: a bounded cache — even a pathological
``map_cache_pages=1`` — produces **bit-identical logical state** to the
all-RAM B+ tree under randomized write/trim/snapshot/cleaner churn, and
that equivalence survives a clean checkpoint→restore cycle and a
crash→recovery cycle.  Unit tests pin the budget, the counters, the
memory accounting, and the cross-mode open paths around it.
"""

import random

import pytest

from repro.bench.configs import (
    bench_iosnap_config,
    bench_nand,
    medium_geometry,
    small_geometry,
)
from repro.core.iosnap import IoSnapConfig, IoSnapDevice
from repro.ftl.fsck import fsck
from repro.ftl.mapcache import (
    _BYTES_PER_ENTRY,
    _BYTES_PER_REF,
    _PAGE_FIXED_BYTES,
)
from repro.sim import Kernel
from repro.workloads import mixed, random_writes, run_stream

from tests.conftest import make_iosnap, tiny_geometry

SPAN = 8


def make_cached(kernel, budget, span=SPAN, **overrides):
    return make_iosnap(kernel, geometry=tiny_geometry(),
                       map_cache_pages=budget, map_span=span, **overrides)


def make_ram(kernel):
    return make_iosnap(kernel, geometry=tiny_geometry())


def payload(lba, tag):
    return bytes([tag % 256, lba % 256]) + b"mapcache"


def force_gc(device):
    candidate = device.cleaner.select_candidate()
    if candidate is not None:
        device.kernel.run_process(
            device.cleaner.clean_segment(candidate, paced=False),
            name="forced-gc")


def churn(device, span, ops=300, seed=7, snapshots=True):
    """Seeded write/trim/snapshot/GC mix, identical per (seed, span)."""
    rng = random.Random(seed)
    snaps = 0
    for i in range(ops):
        roll = rng.random()
        lba = rng.randrange(span)
        if roll < 0.70:
            device.write(lba, payload(lba, i))
        elif roll < 0.85:
            device.trim(lba)
        elif roll < 0.92 and snapshots and snaps < 3:
            snaps += 1
            device.snapshot_create(f"churn-{snaps}")
        else:
            force_gc(device)


def assert_same_logical_state(cached, ram, span):
    for lba in range(span):
        assert cached.read(lba) == ram.read(lba), f"lba {lba} diverged"
    assert len(cached.map) == len(ram.map)


class TestUnit:
    def test_budget_bounds_residency(self, kernel):
        device = make_cached(kernel, budget=2)
        churn(device, span=min(device.num_lbas, 200), ops=250,
              snapshots=False)
        # Clean evictions are synchronous and dirty backlog drains at
        # each fault; with free segments around, residency converges
        # to the configured budget.
        assert device.map.node_count() <= device.config.map_cache_pages
        assert device.map.translation_pages > device.map.node_count()

    def test_budget_one_still_correct(self, kernel):
        device = make_cached(kernel, budget=1)
        model = {}
        span = min(device.num_lbas, 64)
        for i in range(200):
            lba = (i * 13) % span
            device.write(lba, payload(lba, i))
            model[lba] = payload(lba, i)
        for lba, data in model.items():
            assert device.read(lba)[:len(data)] == data
        assert device.map.node_count() <= 1
        assert fsck(device) == []

    def test_counters_and_stats(self, kernel):
        device = make_cached(kernel, budget=2)
        span = min(device.num_lbas, 160)
        churn(device, span=span, ops=200, snapshots=False)
        stats = device.map.stats()
        assert stats["misses"] > 0
        assert stats["evictions"] > 0
        assert stats["writebacks"] > 0
        assert 0.0 <= stats["hit_rate"] <= 1.0
        # Re-reading one hot LBA is all hits after the first touch.
        before = device.map.counters.as_dict()["hits"]
        for _ in range(10):
            device.read(0)
        assert device.map.counters.as_dict()["hits"] >= before + 9

    def test_peek_never_faults(self, kernel):
        device = make_cached(kernel, budget=1)
        span = min(device.num_lbas, 64)
        for lba in range(0, span, SPAN):
            device.write(lba, payload(lba, 1))
        # LBA 0's page was evicted by the later writes (budget 1).
        misses = device.map.counters.as_dict()["misses"]
        sync_faults = device.map.counters.as_dict()["sync_faults"]
        assert device.map.peek(0) is None       # non-resident: no fault
        assert device.map.counters.as_dict()["misses"] == misses
        assert device.map.counters.as_dict()["sync_faults"] == sync_faults
        assert device.map.get(0) is not None    # the mapping does exist

    def test_memory_accounting(self, kernel):
        device = make_cached(kernel, budget=2)
        churn(device, span=min(device.num_lbas, 200), ops=150,
              snapshots=False)
        info = device.info()
        assert info["map_memory_bytes"] == device.map.memory_bytes()
        assert info["map"]["mode"] == "cached"
        assert info["map"]["cache_pages_budget"] == 2
        assert info["map"]["memory_bytes"] == device.map.memory_bytes()
        # The bound itself: budget pages + GTD + dirty queue, nothing
        # proportional to the mapped-LBA count.
        ram = make_ram(Kernel())
        churn(ram, span=min(device.num_lbas, 200), ops=150,
              snapshots=False)
        assert device.map.memory_bytes() < ram.map.memory_bytes()

    def test_items_is_read_only(self, kernel):
        device = make_cached(kernel, budget=2)
        span = min(device.num_lbas, 128)
        model = {}
        for i in range(120):
            lba = (i * 7) % span
            device.write(lba, payload(lba, i))
            model[lba] = True
        resident_before = set(device.map._pages)
        listed = dict(device.map.items())
        assert set(listed) == set(model)
        assert set(device.map._pages) == resident_before
        assert device.map.node_count() <= device.config.map_cache_pages


class TestEquivalence:
    @pytest.mark.parametrize("budget", [1, 4])
    def test_churn_equivalence(self, budget):
        cached = make_cached(Kernel(), budget=budget)
        ram = make_ram(Kernel())
        span = min(cached.num_lbas, ram.num_lbas, 200)
        churn(cached, span)
        churn(ram, span)
        assert_same_logical_state(cached, ram, span)
        assert fsck(cached) == []
        assert fsck(ram) == []

    def test_checkpoint_restore_equivalence(self):
        kernel = Kernel()
        cached = make_cached(kernel, budget=2)
        ram = make_ram(Kernel())
        span = min(cached.num_lbas, ram.num_lbas, 200)
        churn(cached, span)
        churn(ram, span)
        cached.shutdown()
        reopened = IoSnapDevice.open(
            kernel, cached.nand,
            IoSnapConfig(map_cache_pages=2, map_span=SPAN))
        assert reopened.map_is_cached
        assert_same_logical_state(reopened, ram, span)
        assert fsck(reopened) == []

    def test_crash_recovery_equivalence(self):
        kernel = Kernel()
        cached = make_cached(kernel, budget=2)
        ram = make_ram(Kernel())
        span = min(cached.num_lbas, ram.num_lbas, 200)
        churn(cached, span)
        churn(ram, span)
        cached.crash()
        recovered = IoSnapDevice.open(
            kernel, cached.nand,
            IoSnapConfig(map_cache_pages=2, map_span=SPAN))
        assert recovered.map_is_cached
        assert_same_logical_state(recovered, ram, span)
        assert fsck(recovered) == []

    def test_recovered_device_stays_usable(self):
        kernel = Kernel()
        cached = make_cached(kernel, budget=2)
        span = min(cached.num_lbas, 160)
        churn(cached, span, snapshots=False)
        cached.crash()
        recovered = IoSnapDevice.open(
            kernel, cached.nand,
            IoSnapConfig(map_cache_pages=2, map_span=SPAN))
        # Keep writing and cleaning on the recovered instance.
        for i in range(60):
            recovered.write(i % span, payload(i % span, 200 + i))
        force_gc(recovered)
        assert fsck(recovered) == []


class TestCrossMode:
    """The map mode is host configuration, not media format."""

    def test_cached_media_opens_all_ram(self):
        kernel = Kernel()
        cached = make_cached(kernel, budget=2)
        span = min(cached.num_lbas, 160)
        model = {}
        for i in range(150):
            lba = (i * 11) % span
            cached.write(lba, payload(lba, i))
            model[lba] = payload(lba, i)
        cached.crash()
        # Reopen with the classic all-RAM map: recovery replays data
        # packets and never needs the MAP pages littering the log.
        ram = IoSnapDevice.open(kernel, cached.nand, IoSnapConfig())
        assert not ram.map_is_cached
        for lba, data in model.items():
            assert ram.read(lba)[:len(data)] == data
        assert fsck(ram) == []

    def test_ram_media_opens_cached(self):
        kernel = Kernel()
        ram = make_ram(kernel)
        span = min(ram.num_lbas, 120)
        model = {}
        for i in range(100):
            lba = (i * 11) % span
            ram.write(lba, payload(lba, i))
            model[lba] = payload(lba, i)
        ram.crash()
        cached = IoSnapDevice.open(
            kernel, ram.nand,
            IoSnapConfig(map_cache_pages=2, map_span=SPAN))
        assert cached.map_is_cached
        for lba, data in model.items():
            if lba >= cached.num_lbas:
                continue
            assert cached.read(lba)[:len(data)] == data
        assert fsck(cached) == []


class TestBounds:
    """The two promises of the bounded map at bench scale: RAM is the
    page budget plus the GTD, not O(mapped LBAs), and a working set that
    fits the cache runs as fast as the all-RAM map in simulated time."""

    BUDGET = 32
    MAP_SPAN = 64

    def _device(self, geometry, cached):
        kernel = Kernel()
        overrides = (dict(map_cache_pages=self.BUDGET, map_span=self.MAP_SPAN)
                     if cached else {})
        return kernel, IoSnapDevice.create(
            kernel, bench_nand(geometry), bench_iosnap_config(**overrides))

    def _filled(self, geometry, cached, seed):
        kernel, device = self._device(geometry, cached)
        count = int(device.num_lbas * 0.12)
        run_stream(kernel, device,
                   random_writes(count, device.num_lbas, seed=seed))
        if cached:
            # Follow-up touches drain the dirty-eviction backlog the
            # tail of the fill left (evictions happen at fault time).
            run_stream(kernel, device,
                       random_writes(64, device.num_lbas, seed=99))
        return device

    def _declared_budget_bytes(self, device):
        page = _PAGE_FIXED_BYTES + self.MAP_SPAN * _BYTES_PER_ENTRY
        gtd = (_PAGE_FIXED_BYTES
               + device.map.translation_pages * _BYTES_PER_REF)
        dirty = _PAGE_FIXED_BYTES + self.BUDGET * _BYTES_PER_REF
        return self.BUDGET * page + gtd + dirty

    def test_map_ram_within_budget_and_sublinear(self):
        small = self._filled(small_geometry(), cached=True, seed=3)
        medium = self._filled(medium_geometry(), cached=True, seed=4)
        ram = self._filled(medium_geometry(), cached=False, seed=4)
        for device in (small, medium):
            assert device.map.node_count() <= self.BUDGET
            assert (device.map.memory_bytes()
                    <= self._declared_budget_bytes(device))
        # 8x the device, at most 4x the map RAM: only the GTD grows.
        assert medium.map.memory_bytes() <= 4 * small.map.memory_bytes()
        assert 2 * medium.map.memory_bytes() <= ram.map.memory_bytes()

    def _hot_run_ns(self, cached):
        kernel, device = self._device(small_geometry(), cached)
        hot_span = self.BUDGET * self.MAP_SPAN // 2  # half the cache's reach
        run_stream(kernel, device, random_writes(hot_span, hot_span, seed=5))
        if cached:
            device.map.counters.reset()
        started_ns = kernel.now
        run_stream(kernel, device,
                   mixed(1500, hot_span, read_fraction=0.5, seed=17))
        return kernel.now - started_ns, device

    def test_hot_working_set_runs_at_ram_speed(self):
        ram_ns, _ = self._hot_run_ns(cached=False)
        cached_ns, device = self._hot_run_ns(cached=True)
        assert device.map.stats()["hit_rate"] >= 0.85
        assert ram_ns / cached_ns >= 0.9, ram_ns / cached_ns
