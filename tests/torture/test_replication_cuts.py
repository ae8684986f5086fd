"""Replication under the torture harness: the sweep and its teeth.

The fixed replication script ends in a full and an incremental
``send``.  Every occurrence of the replication crash sites must cut,
reopen both devices, resume the stream from its committed cursor and
pass the pair check.  The mutation test proves the harness notices a
sender that loses data on resume.
"""

import pytest

from repro.replicate import stream, transfer
from repro.torture import sites
from repro.torture.harness import enumerate_sites, run_with_cut
from tests.conftest import replication_script

SCRIPT = replication_script()
REPLICATION_SITES = (sites.SEND_CURSOR_COMMIT, sites.RECV_APPLY,
                     sites.RECV_FINALIZE)
# A cut before the third cursor commit of the full send: two batches
# are committed, so the resumed stream starts mid-way.
MID_STREAM = (sites.SEND_CURSOR_COMMIT + ":pre", 3)


@pytest.fixture
def skip_first_unacked_extent(monkeypatch):
    """Sender bug: a resumed stream drops its first unacknowledged extent."""
    real = transfer.send_proc

    def broken(source, base, target, emit, *, resume=None, **kwargs):
        dropped = False

        def lossy(record):
            nonlocal dropped
            if (resume is not None and not dropped
                    and record["kind"] == stream.KIND_EXTENT):
                dropped = True
                return record["n"]
            return (yield from emit(record))

        return (yield from real(source, base, target, lossy,
                                resume=resume, **kwargs))

    monkeypatch.setattr(transfer, "send_proc", broken)


def test_resume_that_drops_an_extent_is_caught(skip_first_unacked_extent):
    # Unpatched, the same cut resumes clean:
    # tests/replicate/test_resume.py::test_resume_skips_acknowledged_work.
    outcome = run_with_cut(SCRIPT, MID_STREAM)
    assert outcome.fired
    assert outcome.failed, "a lossy resume escaped the harness"


@pytest.mark.torture
def test_every_replication_site_occurrence():
    targets = [t for t in enumerate_sites(SCRIPT)
               if t[0].split(":")[0] in REPLICATION_SITES]
    assert {t[0].split(":")[0] for t in targets} == set(REPLICATION_SITES)
    failures = []
    for target in targets:
        outcome = run_with_cut(SCRIPT, target)
        if not outcome.fired:
            failures.append(f"{target}: never fired")
        elif outcome.failures:
            failures.append(f"{target}: {outcome.failures}")
    assert not failures, failures
