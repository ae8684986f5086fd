"""The four closed-loop workloads and the driver-side model they check.

Each workload owns one fresh device, generates its op stream from the
seed, drives only the product surface (``IoSnapDevice`` and its
``*_proc`` API) and checks every byte it reads back against a model it
keeps itself: ``model`` maps LBA -> version of the active volume and
``snap_models`` holds one frozen copy per live snapshot.  A write's
payload is the 8 bytes ``(lba, version)``, so a read names exactly
which write it returned.

Why these four (see README.md for the long form):

``steady_overwrite``
    the default hot path plus steady-state cleaning; snapshot, map-cache
    and activation machinery must cost exactly nothing here.
``snap_churn``
    the same write path across O(1) creates/deletes, CoW validity
    bitmaps and multi-epoch merged-validity cleaning (fig 7/12, table 4).
``activate_read``
    the deliberately slow path: log scans (cold and warm) beside a paced
    foreground reader whose latencies give the interference (fig 8/9).
``parallel_mapcache_mixed``
    the same FTL used differently: reads and trims beside writes, four
    heads under real concurrency, a hot set larger than the map cache.
"""

from __future__ import annotations

import random
import struct
from typing import Any, Dict, Generator, List, Optional

from repro.core.iosnap import IoSnapDevice
from repro.errors import ReproError
from repro.ftl.fsck import fsck
from repro.ftl.ratelimit import DutyCycleLimiter
from repro.sim import Kernel

from benchmarks.e2e import configs

_PAYLOAD = struct.Struct("<II")
_UNWRITTEN = bytes(_PAYLOAD.size)

#: Reads of the active volume / of each live snapshot in the untimed
#: verification after the timed phase.
VERIFY_ACTIVE_READS = 512
VERIFY_SNAPSHOT_READS = 64


class Workload:
    """One device, one op stream, one model.  Subclasses script it."""

    name = ""

    def __init__(self, seed: int, repeat: int, sizes: Dict[str, Any],
                 break_model: bool = False) -> None:
        # Repeat r of a run draws its own op stream from (seed, r), so
        # a run's medians average over streams as well as host noise.
        self.seed = f"{seed}/{repeat}"
        self.sizes = sizes
        # Self-test hook: record a wrong version for some writes, so
        # the checks below can be shown to catch a lying model.
        self.break_model = break_model
        self.rng = self._rng("script")
        self.kernel = Kernel()
        self.dev = IoSnapDevice.create(self.kernel, configs.nand_config(),
                                       configs.device_config(self.name))
        self.span = int(self.dev.num_lbas * sizes["preload_share"])
        self.model: Dict[int, int] = {}
        self.snap_models: Dict[str, Dict[int, int]] = {}
        self.live: List[str] = []          # live snapshot names, oldest first
        self.version = 0
        self._snap_seq = 0
        # Value the next read may also return: (lba, version) of the one
        # write the script has in flight (read by concurrent readers).
        self.inflight: Optional[tuple] = None
        self.ops = 0            # scripted ops attempted
        self.load_ops = 0       # background-load ops attempted (not scripted)
        self.verify_ops = 0     # untimed verification reads attempted
        self.failed = 0         # raised, refused, or disagreed with the model
        self.op_lat_ns: List[int] = []
        self.load_lat_ns: List[int] = []
        self.ram_samples: List[Dict[str, int]] = []

    def _rng(self, stream: str) -> random.Random:
        # str seeds hash through SHA-512: stable across processes.
        return random.Random(f"{self.name}:{self.seed}:{stream}")

    # -- phases ------------------------------------------------------------
    def setup(self) -> None:
        self.kernel.run_process(self.setup_proc(), name="bench-setup")

    def start_timed(self) -> None:
        """Forget what set-up counted; the timed phase starts clean."""
        self.ops = self.load_ops = 0
        self.op_lat_ns = []
        self.load_lat_ns = []
        self.ram_samples = []

    def run_timed(self) -> None:
        self.kernel.run_process(self.script(), name="bench-script")
        self.sample_ram()

    def setup_proc(self) -> Generator:
        raise NotImplementedError

    def script(self) -> Generator:
        raise NotImplementedError

    def foreground_latencies(self) -> List[int]:
        """The samples behind ``sim_lat_*``: by default, the scripted ops'."""
        return self.op_lat_ns

    # -- building blocks of set-up and scripts -------------------------------
    def preload(self) -> Generator:
        for lba in range(self.span):
            yield from self.write(lba)

    def random_overwrites(self, count: int) -> Generator:
        randrange, span = self.rng.randrange, self.span
        for _ in range(count):
            yield from self.write(randrange(span))

    # -- model checks -------------------------------------------------------
    def _agrees(self, data: bytes, lba: int, version: Optional[int]) -> bool:
        want = _PAYLOAD.pack(lba, version) if version else _UNWRITTEN
        return data[:_PAYLOAD.size] == want

    # -- scripted ops (each counts once, fails at most once) -----------------
    def write(self, lba: int) -> Generator:
        self.version += 1
        version = self.version
        self.ops += 1
        self.inflight = (lba, version)
        started = self.kernel.now
        try:
            yield from self.dev.write_proc(lba, _PAYLOAD.pack(lba, version))
        except ReproError:
            self.failed += 1
            return
        finally:
            self.inflight = None
        self.op_lat_ns.append(self.kernel.now - started)
        if self.break_model and version % 97 == 0:
            version += 1
        self.model[lba] = version

    def read(self, lba: int) -> Generator:
        self.ops += 1
        want = self.model.get(lba)
        started = self.kernel.now
        try:
            data = yield from self.dev.read_proc(lba)
        except ReproError:
            self.failed += 1
            return
        self.op_lat_ns.append(self.kernel.now - started)
        if not self._agrees(data, lba, want):
            self.failed += 1

    def trim(self, lba: int) -> Generator:
        self.ops += 1
        started = self.kernel.now
        try:
            yield from self.dev.trim_proc(lba)
        except ReproError:
            self.failed += 1
            return
        self.op_lat_ns.append(self.kernel.now - started)
        self.model.pop(lba, None)

    def snapshot_create(self) -> Generator:
        self.ops += 1
        name = f"s{self._snap_seq}"
        self._snap_seq += 1
        try:
            yield from self.dev.snapshot_create_proc(name)
        except ReproError:
            self.failed += 1
            return
        self.snap_models[name] = dict(self.model)
        self.live.append(name)

    def snapshot_delete_oldest(self) -> Generator:
        self.ops += 1
        name = self.live[0]
        try:
            yield from self.dev.snapshot_delete_proc(name)
        except ReproError:
            self.failed += 1
            return
        self.live.pop(0)
        del self.snap_models[name]

    def snapshot_activate(self, name: str, limiter=None) -> Generator:
        self.ops += 1
        try:
            return (yield from self.dev.snapshot_activate_proc(name, limiter))
        except ReproError:
            self.failed += 1
            return None

    def snapshot_read(self, activated, name: str, lba: int) -> Generator:
        self.ops += 1
        try:
            data = yield from activated.read_proc(lba)
        except ReproError:
            self.failed += 1
            return
        if not self._agrees(data, lba, self.snap_models[name].get(lba)):
            self.failed += 1

    def snapshot_deactivate(self, activated) -> Generator:
        self.ops += 1
        try:
            yield from self.dev.snapshot_deactivate_proc(activated)
        except ReproError:
            self.failed += 1

    # -- memory sampling (the paper's Table 3 / CoW-bitmap RAM claim) --------
    def sample_ram(self) -> None:
        dev = self.dev
        activation = dev.info()["snapshots"]["activation"]
        self.ram_samples.append({
            "map": dev.map.memory_bytes(),
            "bitmaps": dev.bitmap_memory_bytes(),
            "activated": sum(act.map.memory_bytes()
                             for act in dev.activations()),
            "residues": activation["residue_cache_bytes"],
        })

    # -- untimed verification -----------------------------------------------
    def verify(self, snapshots: bool) -> List[str]:
        """fsck, then read back the active volume (and every snapshot).

        Returns fsck's findings; reads that disagree with the model
        land in ``failed``.
        """
        # Let buffered programs land and the cleaner park: fsck audits
        # the media against RAM state and needs both at rest.
        self.kernel.run()
        findings = list(fsck(self.dev))
        rng = self._rng("verify")
        for _ in range(VERIFY_ACTIVE_READS):
            lba = rng.randrange(self.span)
            self.verify_ops += 1
            if not self._agrees(self.dev.read(lba), lba, self.model.get(lba)):
                self.failed += 1
        for name in self.live if snapshots else ():
            activated = self.dev.snapshot_activate(name)
            frozen = self.snap_models[name]
            for _ in range(VERIFY_SNAPSHOT_READS):
                lba = rng.randrange(self.span)
                self.verify_ops += 1
                if not self._agrees(activated.read(lba), lba,
                                    frozen.get(lba)):
                    self.failed += 1
            self.dev.snapshot_deactivate(activated)
        return findings


class SteadyOverwrite(Workload):
    name = "steady_overwrite"

    def setup_proc(self) -> Generator:
        yield from self.preload()
        yield from self.random_overwrites(self.sizes["warm_ops"])

    def script(self) -> Generator:
        left = self.sizes["ops"]
        while left > 0:
            self.sample_ram()
            yield from self.random_overwrites(min(left, 8192))
            left -= 8192


class SnapChurn(Workload):
    name = "snap_churn"

    def setup_proc(self) -> Generator:
        yield from self.preload()
        for _ in range(self.sizes["live_snapshots"]):
            yield from self.random_overwrites(self.sizes["round_writes"])
            yield from self.snapshot_create()

    def script(self) -> Generator:
        for _ in range(self.sizes["rounds"]):
            yield from self.random_overwrites(self.sizes["round_writes"])
            yield from self.snapshot_create()
            yield from self.snapshot_delete_oldest()
            self.sample_ram()


class ActivateRead(Workload):
    name = "activate_read"

    def foreground_latencies(self) -> List[int]:
        return self.load_lat_ns     # the paced reader's reads

    def setup_proc(self) -> Generator:
        yield from self.preload()
        for _ in range(self.sizes["prebuilt_snapshots"]):
            yield from self.random_overwrites(
                self.sizes["snapshot_gap_writes"])
            yield from self.snapshot_create()

    def _reader(self) -> Generator:
        """Paced foreground reader: load, not scripted ops."""
        rng = self._rng("reader")
        think_ns = self.sizes["reader_think_ns"]
        while not self._script_done:
            lba = rng.randrange(self.span)
            # The map lookup happens as the read starts, so what may
            # come back is fixed now: the modelled version, or the one
            # write in flight on this LBA.
            allowed = [self.model.get(lba)]
            if self.inflight is not None and self.inflight[0] == lba:
                allowed.append(self.inflight[1])
            self.load_ops += 1
            started = self.kernel.now
            try:
                data = yield from self.dev.read_proc(lba)
            except ReproError:
                self.failed += 1
            else:
                self.load_lat_ns.append(self.kernel.now - started)
                if not any(self._agrees(data, lba, v) for v in allowed):
                    self.failed += 1
            yield think_ns

    def _activation_pass(self, name: str, limiter) -> Generator:
        activated = yield from self.snapshot_activate(name, limiter)
        if activated is None:
            return
        self.sample_ram()
        randrange, span = self.rng.randrange, self.span
        for _ in range(self.sizes["snapshot_reads"]):
            yield from self.snapshot_read(activated, name, randrange(span))
        yield from self.snapshot_deactivate(activated)

    def script(self) -> Generator:
        sizes = self.sizes
        self._script_done = False
        reader = self.kernel.spawn(self._reader(), name="bench-reader")
        for _ in range(sizes["rounds"]):
            yield from self.random_overwrites(sizes["round_writes"])
            yield from self.snapshot_create()
            yield from self.snapshot_delete_oldest()
            middle = self.live[len(self.live) // 2]
            # Cold: the delete above dropped every cached residue.
            yield from self._activation_pass(middle, None)
            # Warm: the deactivation just left a residue behind; the
            # rescan runs under the paper's "x usec / y msec" knob.
            limiter = DutyCycleLimiter.from_paper_knob(
                self.kernel, sizes["limiter_work_us"],
                sizes["limiter_sleep_ms"])
            yield from self._activation_pass(middle, limiter)
        self._script_done = True
        yield reader


class ParallelMapcacheMixed(Workload):
    name = "parallel_mapcache_mixed"

    def setup_proc(self) -> Generator:
        yield from self.preload()

    def _stream(self, index: int) -> Generator:
        sizes = self.sizes
        rng = self._rng(f"stream{index}")
        random_, randrange = rng.random, rng.randrange
        # Each stream owns the LBAs whose group-of-four index is its
        # own modulo the stream count: its model stays exact without
        # ordering against the other streams, yet every stream still
        # spreads over all four heads (head = lba % 4) and contends
        # for their locks.
        own = [lba for lba in range(self.span)
               if (lba >> 2) % sizes["streams"] == index]
        hot_count = int(len(own) * sizes["hot_share"])
        hot, cold = own[:hot_count], own[hot_count:]
        read_below = sizes["read_share"]
        write_below = read_below + sizes["write_share"]
        for count in range(sizes["ops_per_stream"]):
            pool = hot if random_() < sizes["hot_op_share"] else cold
            lba = pool[randrange(len(pool))]
            kind = random_()
            if kind < read_below:
                yield from self.read(lba)
            elif kind < write_below:
                yield from self.write(lba)
            else:
                yield from self.trim(lba)
            if index == 0 and count % 2048 == 0:
                self.sample_ram()

    def script(self) -> Generator:
        procs = [self.kernel.spawn(self._stream(index),
                                   name=f"bench-stream-{index}")
                 for index in range(self.sizes["streams"])]
        for proc in procs:
            yield proc


BY_NAME = {cls.name: cls for cls in (SteadyOverwrite, SnapChurn, ActivateRead,
                                     ParallelMapcacheMixed)}
