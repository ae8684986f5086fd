"""Media faults during replication: correctable, uncorrectable, composed."""

import pytest

from repro.errors import ReplicationError
from repro.faults.harness import correctable_heavy_config
from repro.faults.model import FaultPlan
from repro.nand.device import BitErrorModel
from repro.replicate import CursorStore, replicate
from repro.torture import sites
from repro.torture.harness import (
    TortureConfig,
    _Replica,
    _run,
    run_with_cut,
    run_without_cut,
)
from tests.conftest import make_iosnap, replication_script

SCRIPT = replication_script()
PLAN = FaultPlan(config=correctable_heavy_config(2014))


class TestCorrectableFaults:
    def test_faulty_source_replicates_clean(self):
        outcome = run_without_cut(SCRIPT, fault_plan=PLAN)
        assert not outcome.invalid
        assert not outcome.failures, outcome.failures

    def test_correctable_reads_do_not_change_stream_digest(self):
        # ECC-correctable media errors cost retry time, never bytes:
        # the committed cursors' digests must match a fault-free twin's.
        digests = []
        for plan in (None, PLAN):
            config = TortureConfig()
            replica = _Replica(config)
            _power, source, _model, _pending = _run(SCRIPT, None, config,
                                                    plan, replica)
            streams = [replica.store.load(sid)
                       for sid in replica.store.streams()]
            digests.append({c.stream_id: (c.extent_digest, c.remove_digest)
                            for c in streams if c is not None})
        assert source.nand.media["read_retries"] > 0, (
            "the faulty run never exercised the retry ladder")
        assert len(digests[0]) == 2
        assert digests[0] == digests[1]

    def test_fault_and_cut_compose(self):
        outcome = run_with_cut(
            SCRIPT, (sites.RECV_APPLY + ":pre", 4), fault_plan=PLAN)
        assert outcome.fired
        assert SCRIPT[outcome.pending_index][0] == "send"
        assert not outcome.failures, outcome.failures


class TestUncorrectableWinner:
    def test_send_aborts_typed_and_records_damage(self, kernel):
        source = make_iosnap(kernel)
        sink = make_iosnap(kernel)
        for lba in range(6):
            source.write(lba, f"v-{lba}".encode())
        source.snapshot_create("s")
        # Every data-page read now fails the full retry ladder; the
        # planner's header scan is unaffected, so the send aborts on
        # its first winner read.
        source.nand.error_model = BitErrorModel(uncorrectable_prob=1.0,
                                                seed=9)
        store = CursorStore()
        with pytest.raises(ReplicationError, match="uncorrectable"):
            replicate(source, sink, None, "s", store)
        source.nand.error_model = None
        # The loss landed in the damage manifest, and the stream never
        # finalized — the failure is visible, not silent.
        assert len(source.damage.entries) == 1
        cursor = store.load("<empty>=>s")
        assert cursor is None or not cursor.finalized
