"""Durability of the epoch-summary index across power cuts.

The index rides the checkpoint: dump → checkpoint pages → superblock
commit.  The dangerous window is *between* those steps — a cut after
the summary pages are durable but before the superblock commit must
not leave the next open trusting a half-committed index, and a reopen
whose log tail moved past the checkpointed watermark must rebuild
rather than serve stale summaries (a stale summary silently drops
segments from selective scans, which corrupts activations, not just
performance)."""

from repro.core.epoch_index import SegmentEpochIndex
from repro.core.iosnap import IoSnapDevice
from repro.ftl.fsck import fsck
from repro.torture.harness import TortureConfig, _reopen, _run, run_with_cut
from repro.torture.workload import payload_for


def _script_with_shutdown():
    script = [["write", lba, lba] for lba in range(8)]
    script.append(["snap_create", "s0"])
    script += [["write", lba, 100 + lba] for lba in range(8)]
    script.append(["snap_create", "s1"])
    script += [["write", lba, 200 + lba] for lba in range(4)]
    script.append(["shutdown"])
    return script


def _assert_index_exact(device) -> None:
    rebuilt = SegmentEpochIndex.rebuild_from_media(device.nand.array,
                                                   device.log)
    assert device._epoch_index.epochs == rebuilt.epochs
    assert device._epoch_index.max_seq == rebuilt.max_seq


def test_cut_between_summary_pages_and_superblock_commit():
    """Summary checkpoint durable, commit point never reached: the
    reopen must take the log-scan path and still end S7-exact."""
    script = _script_with_shutdown()
    outcome = run_with_cut(script, ("checkpoint.superblock:pre", 1),
                           TortureConfig())
    assert outcome.fired
    assert not outcome.failed, outcome.failures


def test_cut_mid_summary_checkpoint_pages():
    """Cut while the checkpoint pages (carrying the index image) are
    still being programmed — a torn image must never be trusted."""
    script = _script_with_shutdown()
    for target in (("checkpoint.page:mid", 1), ("checkpoint.page:post", 1)):
        outcome = run_with_cut(script, target, TortureConfig())
        assert outcome.fired, target
        assert not outcome.failed, (target, outcome.failures)


def test_log_tail_past_checkpoint_watermark_rebuilds_exact():
    """Checkpoint cleanly, reopen, write past the watermark, crash:
    the checkpointed index is now stale relative to the media and the
    recovered device must still be exact and activate correctly."""
    script = _script_with_shutdown()
    _power, run_device, _model, pending = _run(script, None, TortureConfig())
    assert pending is None

    device = _reopen(run_device.nand)
    _assert_index_exact(device)
    # Move the log tail past the checkpointed watermark, then cut.
    for lba in range(8):
        device.write(lba, payload_for(lba, 300 + lba))
    device.crash()

    recovered = IoSnapDevice.open(device.kernel, device.nand)
    assert fsck(recovered) == []
    _assert_index_exact(recovered)

    # Activation equivalence on the recovered device: the selective
    # scan (rebuilt index) and the full scan agree for both snapshots.
    from repro.core.activation import _scan_for_path
    from repro.ftl.ratelimit import NullLimiter

    for name in ("s0", "s1"):
        snap = recovered.tree.resolve(name)
        path = frozenset(recovered.tree.path_epochs(snap.epoch))
        folds = {}
        for selective in (False, True):
            recovered.config.selective_scan = selective
            move_log = recovered.begin_scan()
            try:
                winners, trims, _casualties = recovered.kernel.run_process(
                    _scan_for_path(recovered, path, NullLimiter()),
                    name="verify-fold")
            finally:
                recovered.end_scan(move_log)
            for lba, trim_seq in trims.items():
                entry = winners.get(lba)
                if entry is not None and entry[0] < trim_seq:
                    del winners[lba]
            folds[selective] = winners
        assert folds[True] == folds[False], name
        view = recovered.snapshot_activate(name)
        expected = payload_for(0, 0 if name == "s0" else 100)
        assert view.read(0)[:len(expected)] == expected
        view.deactivate()
