"""Campaign engine: determinism, resume equivalence, mutation teeth."""

from dataclasses import replace

import pytest

from repro.scenarios.campaign import (
    AXES,
    Combo,
    combo_config,
    plan_combos,
    replay_scenario_repro,
    run_campaign,
)
from repro.scenarios.compile import compile_spec
from repro.scenarios.library import MUTATION_SCENARIO, SCENARIOS
from repro.sim.artifact import load_artifact
from repro.torture.harness import _run, run_without_cut


def _verdicts(report):
    return {r.key: (r.verdict, tuple(r.failures)) for r in report.results}


def test_plan_is_deterministic_and_covers_axes():
    first = plan_combos("nightly")
    assert first == plan_combos("nightly")
    axes_seen = {c.axis for c in first}
    assert axes_seen == set(AXES)
    fault_combos = [c for c in first if c.faults]
    assert fault_combos, "nightly must include fault combos"
    # needs_faults scenarios appear only as fault combos.
    for combo in first:
        if SCENARIOS[combo.scenario].needs_faults:
            assert combo.faults


def test_shuffled_axis_changes_the_layout_and_still_verifies():
    """Same compiled script: a perturbed schedule places the same LBAs
    on different physical pages, and both runs pass every oracle."""
    spec = SCENARIOS["snapshot-under-heavy-io"]
    script = compile_spec(spec, 7)
    layouts = {}
    for axis in ("default", "shuffled"):
        config = combo_config(Combo(spec.name, axis, False, 0), spec)
        _power, device, _model, _pending = _run(script, None, config)
        layouts[axis] = sorted(device.map.items())
        assert run_without_cut(script, config).failures == []
    assert layouts["default"] != layouts["shuffled"]
    assert ([lba for lba, _ppn in layouts["default"]]
            == [lba for lba, _ppn in layouts["shuffled"]])


def test_shuffled_sweep_is_clean():
    """A few schedule seeds beyond the axis's own: every perturbed
    order of the same script is a legal schedule and verifies."""
    spec = SCENARIOS["snapshot-under-heavy-io"]
    script = compile_spec(spec, 7)
    shuffled = combo_config(Combo(spec.name, "shuffled", False, 0), spec)
    for schedule_seed in (2, 3, 4):
        config = replace(shuffled, schedule_seed=schedule_seed)
        assert run_without_cut(script, config).failures == []


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError):
        plan_combos("nightly", ["no-such-scenario"])
    with pytest.raises(ValueError):
        plan_combos("no-such-profile")


def test_smoke_campaign_verdicts_are_deterministic(tmp_path):
    first = run_campaign("smoke", 7)
    second = run_campaign("smoke", 7)
    assert _verdicts(first) == _verdicts(second)
    assert all(r.verdict == "pass" for r in first.results)
    # Every combo contributes a clean cell plus at least one cut cell.
    clean = [r for r in first.results if r.key.endswith("|clean")]
    cuts = [r for r in first.results if not r.key.endswith("|clean")]
    assert clean and cuts


def test_interrupted_campaign_resumes_to_identical_verdicts(tmp_path):
    state = str(tmp_path / "state.json")
    baseline = run_campaign("smoke", 7)

    interrupted = run_campaign("smoke", 7, state_path=state, max_cells=2)
    assert not interrupted.complete
    assert len([r for r in interrupted.results]) < len(baseline.results)

    resumed = run_campaign("smoke", 7, state_path=state)
    assert resumed.complete
    assert _verdicts(resumed) == _verdicts(baseline)

    # A third run is a pure cache replay: same verdict map again.
    replayed = run_campaign("smoke", 7, state_path=state)
    assert _verdicts(replayed) == _verdicts(baseline)


def test_state_from_a_different_campaign_is_refused(tmp_path):
    state = str(tmp_path / "state.json")
    run_campaign("smoke", 7, state_path=state, max_cells=1)
    with pytest.raises(ValueError):
        run_campaign("smoke", 8, state_path=state)


def test_mutation_is_caught_shrunk_and_replayable(tmp_path):
    specs = {MUTATION_SCENARIO.name: MUTATION_SCENARIO}
    report = run_campaign("smoke", 7,
                          scenarios=[MUTATION_SCENARIO.name],
                          specs=specs, repro_dir=str(tmp_path))
    failed = report.failed_cells
    assert failed, "the mutation scenario must fail verification"
    assert any("model:" in f for cell in failed for f in cell.failures)
    assert report.repro_paths, "a failing cell must write a repro"

    payload = load_artifact(report.repro_paths[0],
                            expect_kind="scenario-repro")
    assert payload["scenario"] == MUTATION_SCENARIO.name
    assert payload["artifact"]["replay"].startswith(
        "python -m repro.scenarios --replay")
    # Shrinking really shrank: the repro is smaller than the schedule.
    assert len(payload["script"]) < payload["original_ops"]

    outcome = replay_scenario_repro(report.repro_paths[0])
    assert outcome.failed, "the shrunk repro must still reproduce"


def test_shuffled_finding_is_shrunk_and_replays_its_schedule(tmp_path):
    """A failure found under a perturbed schedule is shrunk, and its
    repro carries the schedule seed so the replay reruns that order."""
    specs = {MUTATION_SCENARIO.name: MUTATION_SCENARIO}
    report = run_campaign("smoke", 7,
                          scenarios=[MUTATION_SCENARIO.name],
                          specs=specs, repro_dir=str(tmp_path))
    shuffled = [path for path in report.repro_paths
                if load_artifact(path, expect_kind="scenario-repro")
                ["combo"]["axis"] == "shuffled"]
    assert shuffled, "the shuffled cell must fail and write a repro"

    payload = load_artifact(shuffled[0], expect_kind="scenario-repro")
    assert payload["config"]["schedule_seed"] == AXES["shuffled"][
        "schedule_seed"]
    assert len(payload["script"]) < payload["original_ops"]
    assert replay_scenario_repro(shuffled[0]).failed


def test_cli_smoke_and_exit_codes(capsys, tmp_path):
    from repro.scenarios.__main__ import main

    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in SCENARIOS:
        assert name in out

    assert main(["--campaign", "smoke", "--seed", "7",
                 "--scenario", "limits-auto-delete"]) == 0
    assert "cells passed" in capsys.readouterr().out

    # Infra errors are distinct from verification failures.
    assert main([]) == 2
    capsys.readouterr()
    assert main(["--replay", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_cli_mutate_self_test(capsys, tmp_path):
    from repro.scenarios.__main__ import main

    assert main(["--mutate", "--seed", "7",
                 "--repro-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "mutation caught" in out
