"""The torture harness: run, cut, reopen, verify.

One torture case is ``run_with_cut(script, target)``:

1. build a fresh simulated device and run ``script`` op by op through
   the synchronous façade, with a :class:`PowerModel` armed at
   ``target = (site, occurrence)``.  A ``send`` op replicates a
   snapshot to a receiver device (the *sink*) on the same host: same
   kernel, same power model, so the sender's cursor commits, the
   receiver's applies and finalize, and every sink program are cut
   points too;
2. when the cut fires — in the foreground op, inside the background
   cleaner, or on the sink — abandon the kernel wholesale (a frozen
   event loop *is* instantaneous power loss) and keep only what
   hardware keeps: the NAND arrays and superblocks, plus the committed
   replication cursors (the sender's fsync'd watermark file);
3. transplant the media under a fresh kernel and reopen through the
   real recovery stack (``VslDevice.open`` →
   ``ftl.checkpoint``/``ftl.recovery``/``core.recovery``); the sink
   reopens on the same kernel, and a ``send`` the cut interrupted
   resumes from its cursor;
4. verify with the oracles: the ``ftl.fsck`` invariant audit (F1-F5,
   S1-S6), the model oracle's prefix/atomicity check and, once a send
   ran, the pair check (fsck the sink, then per-LBA digests of every
   snapshot live on both devices, read through real activations);
   then prove the recovered device is *usable* by running a cleaner
   pass and auditing again.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.iosnap import IoSnapConfig, IoSnapDevice
from repro.errors import (
    FtlError,
    LbaError,
    PowerLossError,
    ReplicationError,
    ReproError,
    SnapshotError,
)
from repro.faults.model import FaultPlan, MediaFaultModel
from repro.ftl.fsck import fsck
from repro.nand.device import NandDevice
from repro.nand.geometry import NandConfig, NandGeometry
from repro.replicate.cursor import CursorStore
from repro.replicate.send import make_stream_id
from repro.replicate.transfer import replicate
from repro.sim import Kernel
from repro.sim.kernel import SimError
from repro.torture.model import Model
from repro.torture.power import PowerModel, Target
from repro.torture.workload import Op, payload_for


@dataclass(frozen=True)
class TortureConfig:
    """Device shape for torture runs (defaults: ~2 MiB, GC kicks fast)."""

    page_size: int = 4096
    pages_per_block: int = 16
    blocks_per_die: int = 8
    dies: int = 4
    channels: int = 2
    # 0 = one log head per channel (the device default); 1 pins the
    # classic single-head layout for cases with coordinate-keyed faults.
    parallel_heads: int = 0
    # 0 = classic all-RAM forward map; > 0 runs the flash-resident
    # mapping cache with that many resident translation pages (the
    # mode is host configuration, not media format, so the reopen
    # after a cut must be told to use it again).
    map_cache_pages: int = 0
    map_span: int = 64
    # Snapshot-retention policy (see IoSnapConfig): like the map-cache
    # mode this is host configuration, re-applied on the post-cut
    # reopen.  The model oracle mirrors the same policy.
    snapshot_limit: int = 0
    snapshot_auto_delete: bool = False
    # None = the kernel's FIFO schedule; an int seeds a random pick
    # among same-timestamp runnable processes (Kernel(schedule_rng=)),
    # on the run and on every reopen.  Every such order is a legal
    # cooperative schedule, so every oracle must still pass.
    schedule_seed: Optional[int] = None

    def kernel(self) -> Kernel:
        if self.schedule_seed is None:
            return Kernel()
        return Kernel(schedule_rng=random.Random(self.schedule_seed))

    def device_config(self) -> IoSnapConfig:
        return IoSnapConfig(parallel_heads=self.parallel_heads,
                            map_cache_pages=self.map_cache_pages,
                            map_span=self.map_span,
                            snapshot_limit=self.snapshot_limit,
                            snapshot_auto_delete=self.snapshot_auto_delete)

    def as_dict(self) -> Dict[str, object]:
        """JSON-able form for artifact config digests."""
        from dataclasses import asdict

        return asdict(self)

    def nand_config(self) -> NandConfig:
        return NandConfig(geometry=NandGeometry(
            page_size=self.page_size,
            pages_per_block=self.pages_per_block,
            blocks_per_die=self.blocks_per_die,
            dies=self.dies, channels=self.channels))


class ScriptInvalid(Exception):
    """The (possibly reducer-mutilated) script is not semantically valid."""


class WorkloadFailure(Exception):
    """An op's own end-to-end verification failed mid-run.

    Raised for failures that are *verdicts*, not broken scripts: a
    replication ``send`` whose finalize digest check rejects the
    received snapshot, say.  The harness folds the message into the
    outcome's failure list instead of marking the case invalid — a
    masked verification failure would silently shrink coverage.
    """


@dataclass
class CutOutcome:
    """Result of one torture case."""

    target: Optional[Target]
    fired: bool = False
    invalid: bool = False
    pending_index: Optional[int] = None   # op in flight at the cut
    failures: List[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.failures)


class TortureFailure(AssertionError):
    """Raised by callers that want a failing case to be fatal."""


# ---------------------------------------------------------------------------
# Running a script
# ---------------------------------------------------------------------------
def _build_device(config: TortureConfig,
                  fault_plan: Optional[FaultPlan] = None) -> IoSnapDevice:
    kernel = config.kernel()
    faults = MediaFaultModel(fault_plan) if fault_plan is not None else None
    return IoSnapDevice.create(
        kernel, config.nand_config(), config.device_config(),
        faults=faults)


class _Replica:
    """The receiving end of ``send`` ops: a sink device and the cursors.

    The sink is created by the first send, on the source's kernel and
    under the source's :class:`PowerModel`: one host, so one cut kills
    sender, wire and receiver together.  The cursor store is the
    sender's fsync'd watermark file — durable host state that outlives
    a cut exactly like the NAND arrays do.
    """

    def __init__(self, config: TortureConfig) -> None:
        # Host configuration the sink is created and reopened with.
        self.sink_config = IoSnapConfig(parallel_heads=config.parallel_heads)
        self.sink: Optional[IoSnapDevice] = None
        self.store = CursorStore()


def _join_burst(procs) -> "object":
    """Join every burst writer; re-raise the first power cut at the end.

    Joining all before raising lets later writers settle, so the model
    sees a single pending op whose sub-writes are each atomic.
    """
    cut = None
    for proc in procs:
        try:
            yield proc
        except PowerLossError as exc:
            if cut is None:
                cut = exc
    if cut is not None:
        raise cut


def _apply_op(device: IoSnapDevice, activations: Dict[str, object],
              op: Op, replica: _Replica) -> None:
    kind = op[0]
    try:
        if kind == "write":
            device.write(op[1], payload_for(op[1], op[2]))
        elif kind == "write_skewed":
            # Mutation-test op: the device writes a payload the model
            # oracle deliberately disagrees with (tag + 1 vs tag).  It
            # exists so campaigns can prove their own teeth; see
            # repro.scenarios and tests/scenarios.
            device.write(op[1], payload_for(op[1], op[2] + 1))
        elif kind == "burst":
            lbas = [lba for lba, _tag in op[1]]
            if len(set(lbas)) != len(lbas):
                raise ScriptInvalid(
                    f"burst with duplicate LBAs is ambiguous: {op!r}")
            kernel = device.kernel
            procs = []
            for lba, tag in op[1]:
                proc = kernel.spawn(
                    device.write_proc(lba, payload_for(lba, tag)),
                    name=f"burst-w{lba}")
                # The joiner below observes every writer's outcome.
                proc._error_observed = True
                procs.append(proc)
            kernel.run_process(_join_burst(procs), name="burst")
        elif kind == "trim":
            device.trim(op[1])
        elif kind == "snap_create":
            device.snapshot_create(op[1])
        elif kind == "snap_try_create":
            # Best-effort create under a snapshot limit: a policy
            # rejection is an expected outcome, not a script error.
            # The model oracle mirrors the same policy, so it knows
            # whether this op actually created anything.
            try:
                device.snapshot_create(op[1])
            except SnapshotError:
                pass
        elif kind == "rollback":
            from repro.core.rollback import snapshot_rollback

            snapshot_rollback(device, op[1])
        elif kind == "scrub":
            # One forced scrubber pass (no-op on a perfect medium:
            # the scrubber only exists when a fault model is attached).
            if device.scrubber is not None:
                device.kernel.run_process(device.scrubber.scrub_pass(),
                                          name="forced-scrub")
        elif kind == "send":
            _apply_send(device, replica, op)
        elif kind == "snap_delete":
            device.snapshot_delete(op[1])
        elif kind == "snap_activate":
            activations[op[1]] = device.snapshot_activate(op[1])
        elif kind == "snap_deactivate":
            device.snapshot_deactivate(activations.pop(op[1]))
        elif kind == "gc":
            candidate = device.cleaner.select_candidate()
            if candidate is not None:
                device.kernel.run_process(
                    device.cleaner.clean_segment(candidate, paced=False),
                    name="forced-gc")
        elif kind == "shutdown":
            device.shutdown()
        else:
            raise ScriptInvalid(f"unknown op {op!r}")
    except (PowerLossError, SimError):
        raise
    except ReplicationError as exc:
        # A send's own verification (CRC, finalize digest readback)
        # rejected the transfer: a verdict, not a broken script.
        raise WorkloadFailure(f"op {op!r}: {exc}") from exc
    except (SnapshotError, LbaError, FtlError, KeyError) as exc:
        raise ScriptInvalid(f"op {op!r}: {exc}") from exc


def _send(device: IoSnapDevice, replica: _Replica, op: Op) -> bool:
    """Run (or resume) the stream of ``["send", target, base?]``.

    Returns False, without sending, if the stream's committed cursor is
    already finalized.  ``replicate`` itself resumes from a committed,
    unfinalized cursor, so the same call starts a stream and finishes
    one a power cut interrupted.
    """
    target = op[1]
    base = op[2] if len(op) > 2 else None
    prior = replica.store.load(make_stream_id(base, target))
    if prior is not None and prior.finalized:
        return False
    assert replica.sink is not None
    replicate(device, replica.sink, base, target, replica.store,
              cursor_every=4)
    return True


def _apply_send(device: IoSnapDevice, replica: _Replica, op: Op) -> None:
    """``["send", target, base?]``: replicate a snapshot to the sink.

    Chained incremental sends share the one sink and cursor store, so
    a ``base`` must have reached the sink through an earlier send.
    """
    device.tree.resolve(op[1])  # unknown snapshot -> ScriptInvalid
    if replica.sink is None:
        replica.sink = IoSnapDevice.create(
            device.kernel, device.nand.config, replica.sink_config)
        replica.sink.nand.power = device.nand.power
    # Reduced scripts can drop the op that shipped the base snapshot
    # or duplicate a transfer; both are script problems, not verdicts.
    base = op[2] if len(op) > 2 else None
    if base is not None and base not in {
            s.name for s in replica.sink.snapshots()}:
        raise ScriptInvalid(f"send base {base!r} never reached the "
                            f"receiver: {op!r}")
    if not _send(device, replica, op):
        raise ScriptInvalid(f"stream already replicated: {op!r}")


def _run(script: List[Op], target: Optional[Target],
         config: TortureConfig,
         fault_plan: Optional[FaultPlan] = None,
         replica: Optional[_Replica] = None,
         ) -> Tuple[PowerModel, IoSnapDevice, Model, Optional[int]]:
    """Run ``script`` with ``target`` armed.

    Returns ``(power, device, model, pending_index)`` where
    ``pending_index`` is the index of the op in flight when the cut
    fired (None if it never fired).  Raises :class:`ScriptInvalid` for
    semantically broken scripts.  ``fault_plan`` composes a media-fault
    schedule with the power cut: the same seeded plan replays the same
    program/erase/read faults on every run, so ``(plan, site,
    occurrence)`` stays a deterministic coordinate.  ``replica``
    receives the script's ``send`` ops; pass one to inspect the sink
    afterwards.
    """
    device = _build_device(config, fault_plan)
    power = PowerModel(target)
    device.nand.power = power
    model = Model(block_size=device.block_size,
                  snapshot_limit=config.snapshot_limit,
                  snapshot_auto_delete=config.snapshot_auto_delete)
    activations: Dict[str, object] = {}
    if replica is None:
        replica = _Replica(config)
    for index, op in enumerate(script):
        try:
            _apply_op(device, activations, op, replica)
        except (PowerLossError, SimError) as exc:
            if power.fired is None:
                raise  # a real bug, not our injected cut
            del exc
            return power, device, model, index
        model.apply(op)
    return power, device, model, None


def enumerate_sites(script: List[Op],
                    config: Optional[TortureConfig] = None,
                    fault_plan: Optional[FaultPlan] = None) -> List[Target]:
    """Every (site, occurrence) injection point this script visits.

    The fault plan must match the one the cut will run with: forced
    program fails insert retry programs (extra site occurrences), so
    enumerating without the plan would renumber every later site.
    """
    power, _device, _model, _pending = _run(script, None,
                                            config or TortureConfig(),
                                            fault_plan)
    return power.injection_points()


def site_kinds(targets: List[Target]) -> List[str]:
    """Distinct site kinds (site names without the :pre/:mid/:post phase)."""
    return sorted({site.split(":")[0] for site, _k in targets})


# ---------------------------------------------------------------------------
# Reopen + verify
# ---------------------------------------------------------------------------
def _reopen(old_nand: NandDevice, kernel: Optional[Kernel] = None,
            device_config: Optional[IoSnapConfig] = None) -> IoSnapDevice:
    """Transplant the surviving media under ``kernel`` and open it.

    What survives a power cut is exactly what hardware keeps: the NAND
    array contents (including torn pages and wear counts), the
    superblock, and the physical fault state — accumulated bit errors,
    read-disturb counts, and grown-bad blocks live in the silicon, so
    the :class:`~repro.faults.model.MediaFaultModel` transplants along
    with the array.  Every in-flight process, event, and in-memory FTL
    structure dies with the abandoned kernel.  ``kernel`` is the fresh
    host (a new one by default; the sink reopens on the source's), and
    ``device_config`` re-applies host configuration (head layout,
    flash-resident-map mode) that is not part of the media format.
    """
    kernel = kernel if kernel is not None else Kernel()
    nand = NandDevice(kernel, old_nand.config, faults=old_nand.faults)
    nand.array = old_nand.array
    nand.superblock = dict(old_nand.superblock)
    return IoSnapDevice.open(kernel, nand, device_config)


def _snapshot_digests(device: IoSnapDevice, name: str) -> Dict[int, int]:
    activated = device.snapshot_activate(name)
    try:
        return activated.content_digests()
    finally:
        device.snapshot_deactivate(activated)


def _check_pair(source: IoSnapDevice, sink: IoSnapDevice) -> List[str]:
    """fsck the sink, then compare every snapshot live on both devices.

    Per-LBA digests are read through real activations on each side, so
    the comparison attests to what both devices actually serve.
    """
    failures = [f"fsck(sink): {v}" for v in fsck(sink)]
    on_sink = {s.name for s in sink.snapshots()}
    for name in sorted(s.name for s in source.snapshots()
                       if s.name in on_sink):
        try:
            src = _snapshot_digests(source, name)
            snk = _snapshot_digests(sink, name)
        except (ReproError, SimError) as exc:
            failures.append(f"pair({name}): activation failed: {exc!r}")
            continue
        if src != snk:
            missing = sorted(set(src) - set(snk))[:8]
            extra = sorted(set(snk) - set(src))[:8]
            differ = sorted(lba for lba in set(src) & set(snk)
                            if src[lba] != snk[lba])[:8]
            failures.append(
                f"pair({name}): source and sink diverge "
                f"(missing={missing} extra={extra} differ={differ})")
    return failures


def run_with_cut(script: List[Op], target: Target,
                 config: Optional[TortureConfig] = None,
                 deep: bool = True,
                 fault_plan: Optional[FaultPlan] = None) -> CutOutcome:
    """One torture case; see the module docstring for the phases."""
    config = config or TortureConfig()
    outcome = CutOutcome(target=target)
    replica = _Replica(config)
    try:
        power, run_device, model, pending_index = _run(
            script, target, config, fault_plan, replica)
    except ScriptInvalid:
        outcome.invalid = True
        return outcome
    except WorkloadFailure as exc:
        # An op's own verification failed before the cut could fire.
        outcome.failures.append(f"workload: {exc}")
        return outcome
    nand = run_device.nand
    outcome.fired = power.fired is not None
    if not outcome.fired:
        # The occurrence was never reached (reduced script); the case
        # simply does not apply.
        return outcome
    outcome.pending_index = pending_index
    pending_op = script[pending_index] if pending_index is not None else None

    try:
        device = _reopen(nand, config.kernel(), config.device_config())
        if replica.sink is not None:
            replica.sink = _reopen(replica.sink.nand, device.kernel,
                                   replica.sink_config)
    except (ReproError, SimError) as exc:
        outcome.failures.append(f"recovery: open failed: {exc!r}")
        return outcome
    if pending_op is not None and pending_op[0] == "send":
        try:
            _send(device, replica, pending_op)
        except (ReproError, SimError) as exc:
            outcome.failures.append(f"send: resume after cut failed: "
                                    f"{exc!r}")

    outcome.failures.extend(f"fsck: {v}" for v in fsck(device))
    try:
        outcome.failures.extend(
            model.check_recovered(device, pending_op, deep=deep))
    except (ReproError, SimError) as exc:
        outcome.failures.append(f"model: verification crashed: {exc!r}")
        return outcome
    if replica.sink is not None:
        outcome.failures.extend(_check_pair(device, replica.sink))

    # The recovered device must also be *operable*: reclaim space and
    # re-audit (catches leaked validity pinning segments forever).
    try:
        candidate = device.cleaner.select_candidate()
        if candidate is not None:
            device.kernel.run_process(
                device.cleaner.clean_segment(candidate, paced=False),
                name="post-recovery-gc")
        outcome.failures.extend(
            f"fsck(post-gc): {v}" for v in fsck(device))
    except (ReproError, SimError) as exc:
        outcome.failures.append(f"post-recovery gc crashed: {exc!r}")
    return outcome


def run_without_cut(script: List[Op],
                    config: Optional[TortureConfig] = None,
                    deep: bool = True,
                    fault_plan: Optional[FaultPlan] = None) -> CutOutcome:
    """One *clean* case: run the whole script, verify the live device.

    The scenario campaign's baseline cell: no power cut, but the same
    oracles — fsck's invariant audit, the model's full-state comparison
    with deep per-snapshot activation readback, and the pair check once
    a send ran — applied to the devices the script actually built.
    Scripts whose final op is ``shutdown`` are additionally reopened
    through the checkpoint path, so a clean cell still exercises
    restore.
    """
    config = config or TortureConfig()
    outcome = CutOutcome(target=None, fired=True)
    replica = _Replica(config)
    try:
        _power, device, model, _pending = _run(script, None, config,
                                               fault_plan, replica)
    except ScriptInvalid:
        outcome.invalid = True
        return outcome
    except WorkloadFailure as exc:
        outcome.failures.append(f"workload: {exc}")
        return outcome
    if script and script[-1] == ["shutdown"]:
        try:
            device = _reopen(device.nand, config.kernel(),
                             config.device_config())
        except (ReproError, SimError) as exc:
            outcome.failures.append(f"clean reopen failed: {exc!r}")
            return outcome
    outcome.failures.extend(f"fsck: {v}" for v in fsck(device))
    try:
        outcome.failures.extend(model.check_recovered(device, None,
                                                      deep=deep))
    except (ReproError, SimError) as exc:
        outcome.failures.append(f"model: verification crashed: {exc!r}")
    if replica.sink is not None:
        outcome.failures.extend(_check_pair(device, replica.sink))
    return outcome
