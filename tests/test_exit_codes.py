"""Normalized CLI exit codes across every rig entry point.

The contract (see :mod:`repro.cli`): 0 = every oracle passed, 1 = at
least one case failed verification, 2 = the rig itself could not run
(unreadable inputs, invalid workloads, cuts that never fire).  Each
failing path must also leave a replayable artifact with the shared
envelope from :mod:`repro.sim.artifact`.
"""

import json

from repro.cli import EXIT_FAILURES, EXIT_INFRA, EXIT_OK
from repro.sim.artifact import load_artifact
from repro.torture.harness import enumerate_sites
from repro.torture.reduce import ShrunkRepro, write_repro


# ---------------------------------------------------------------------------
# repro.torture
# ---------------------------------------------------------------------------
def _skewed_repro(tmp_path):
    """A repro whose acked mutation-op failure survives any later cut."""
    script = [["write_skewed", 0, 1], ["write", 1, 2]]
    site, occurrence = enumerate_sites(script)[-1]
    path = str(tmp_path / "repro.json")
    write_repro(path, ShrunkRepro(script=script, site=site,
                                  occurrence=occurrence), seed=7)
    return path


def test_torture_replay_failing_case(tmp_path, capsys):
    from repro.torture.__main__ import main

    assert main(["--replay", _skewed_repro(tmp_path)]) == EXIT_FAILURES
    assert "reproduced" in capsys.readouterr().out


def test_torture_replay_unreadable_input_is_infra(tmp_path, capsys):
    from repro.torture.__main__ import main

    assert main(["--replay", str(tmp_path / "nope.json")]) == EXIT_INFRA
    assert main(["--fault-plan", str(tmp_path / "nope.json")]) == EXIT_INFRA
    capsys.readouterr()


def test_torture_replay_invalid_script_is_infra(tmp_path, capsys):
    from repro.torture.__main__ import main

    path = str(tmp_path / "bad.json")
    write_repro(path, ShrunkRepro(script=[["snap_delete", "ghost"]],
                                  site="write.data:pre", occurrence=1))
    assert main(["--replay", path]) == EXIT_INFRA
    capsys.readouterr()


def test_torture_passing_sweep_is_ok(tmp_path, capsys):
    from repro.torture.__main__ import main

    assert main(["--small", "--max-sites", "3"]) == EXIT_OK
    capsys.readouterr()


def test_torture_failure_writes_enveloped_artifact(tmp_path, capsys):
    from repro.torture.__main__ import main

    repro_path = _skewed_repro(tmp_path)
    with open(repro_path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["artifact"]["kind"] == "torture-repro"
    assert payload["artifact"]["seed"] == 7
    assert "--replay" in payload["artifact"]["replay"]
    capsys.readouterr()


# ---------------------------------------------------------------------------
# repro.faults
# ---------------------------------------------------------------------------
def test_faults_failing_entry_and_artifact(tmp_path, capsys, monkeypatch):
    import repro.faults.__main__ as cli

    monkeypatch.setattr(cli, "run_entry",
                        lambda name, seed, ops: ["injected failure"])
    artifact = str(tmp_path / "faults.json")
    assert cli.main(["--entry", "fault-free", "--seed", "3",
                     "--artifact", artifact]) == EXIT_FAILURES
    payload = load_artifact(artifact, expect_kind="fault-campaign-repro")
    assert payload["failures"]["fault-free"] == ["injected failure"]
    assert payload["artifact"]["seed"] == 3
    capsys.readouterr()


def test_faults_clean_entry_is_ok(capsys):
    import repro.faults.__main__ as cli

    assert cli.main(["--entry", "fault-free", "--ops", "40"]) == EXIT_OK
    capsys.readouterr()


# ---------------------------------------------------------------------------
# repro.scenarios (the campaign CLI's codes are exercised in
# tests/scenarios/test_campaign.py; this pins the failing-case code)
# ---------------------------------------------------------------------------
def test_scenarios_mutant_campaign_exits_with_failures(tmp_path, capsys):
    from repro.scenarios.__main__ import main
    from repro.scenarios.campaign import run_campaign
    from repro.scenarios.library import MUTATION_SCENARIO

    specs = {MUTATION_SCENARIO.name: MUTATION_SCENARIO}
    report = run_campaign("smoke", 7, scenarios=[MUTATION_SCENARIO.name],
                          specs=specs, repro_dir=str(tmp_path))
    assert report.failed_cells
    assert main(["--replay", report.repro_paths[0]]) == EXIT_FAILURES
    capsys.readouterr()
