"""Cut-and-resume: power loss mid-transfer, driven by the torture harness.

The fixed replication script's ``send`` ops run against a receiver on
the source's power model; a cut reopens both devices and resumes the
interrupted stream from its committed cursor.  The exhaustive sweep
over every replication-site occurrence lives in
``tests/torture/test_replication_cuts.py``.
"""

import pytest

from repro.replicate import transfer
from repro.torture import sites
from repro.torture.harness import enumerate_sites, run_with_cut
from tests.conftest import replication_script

SCRIPT = replication_script()
REPLICATION_SITES = {sites.SEND_CURSOR_COMMIT, sites.RECV_APPLY,
                     sites.RECV_FINALIZE}


def _assert_recovered(outcome):
    assert outcome.fired, "the armed cut never fired"
    assert SCRIPT[outcome.pending_index][0] == "send", (
        "the cut did not interrupt a send")
    assert not outcome.failures, outcome.failures


class TestSiteEnumeration:
    def test_transfer_visits_every_replication_site(self):
        kinds = {site.split(":")[0] for site, _k in enumerate_sites(SCRIPT)}
        assert REPLICATION_SITES <= kinds

    def test_enumeration_is_deterministic(self):
        assert enumerate_sites(SCRIPT) == enumerate_sites(SCRIPT)


class TestTargetedCuts:
    @pytest.mark.parametrize("site", [
        sites.SEND_CURSOR_COMMIT + ":pre",
        sites.RECV_APPLY + ":pre",
        sites.RECV_FINALIZE + ":pre",
    ])
    def test_cut_at_replication_site_resumes_clean(self, site):
        _assert_recovered(run_with_cut(SCRIPT, (site, 1)))

    def test_cut_at_receiver_write_resumes_clean(self):
        # The receiver's applies carry the device's own phased sites;
        # a cut inside a durable write must also leave a resumable pair.
        # Occurrences count the source's writes first.
        before_sends = sum(1 for site, _k in enumerate_sites(SCRIPT[:-2])
                           if site == "write.data:mid")
        _assert_recovered(
            run_with_cut(SCRIPT, ("write.data:mid", before_sends + 3)))

    def test_cut_late_in_transfer_resumes_clean(self):
        last_apply = max(occ for site, occ in enumerate_sites(SCRIPT)
                         if site == sites.RECV_APPLY + ":pre")
        _assert_recovered(run_with_cut(
            SCRIPT, (sites.RECV_APPLY + ":pre", last_apply)))

    def test_resume_skips_acknowledged_work(self, monkeypatch):
        reports = []
        real = transfer.send_proc

        def spy(*args, **kwargs):
            report = yield from real(*args, **kwargs)
            reports.append(report)
            return report

        monkeypatch.setattr(transfer, "send_proc", spy)
        _assert_recovered(run_with_cut(
            SCRIPT, (sites.SEND_CURSOR_COMMIT + ":pre", 3)))
        resumed = [r for r in reports if r["resumed"]]
        assert resumed, "no stream actually resumed from a cursor"
        report = resumed[0]
        assert report["extents_sent"] < report["extent_total"]

    def test_unreached_target_completes_clean(self):
        outcome = run_with_cut(SCRIPT, (sites.RECV_FINALIZE + ":pre", 999))
        assert not outcome.fired
        assert not outcome.failures, outcome.failures
