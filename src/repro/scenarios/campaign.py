"""The campaign matrix: scenarios x cuts x faults x device config.

One *combo* is a (scenario, config axis, media-fault plan) triple; its
*cells* are one clean run (:func:`~repro.torture.harness.run_without_cut`)
plus a seeded sample of power-cut cells
(:func:`~repro.torture.harness.run_with_cut` at enumerated injection
points).  Every cell reopens through real recovery and is verified by
fsck, the model oracle, and deep per-snapshot activation readback.

Everything is a deterministic function of ``(profile, seed)``: the
compiled schedules, the sampled cut sites, the cell order, and the
verdicts.  Campaign state is written to a resumable JSON artifact
after every cell, so an interrupted nightly picks up where it stopped
— and a resumed run must produce the byte-identical verdict map,
which ``tests/scenarios`` asserts.

A failing cell is shrunk — one delta-debugging walk
(:func:`repro.torture.reduce.ddmin`) over the schedule, with cut cells
via :func:`repro.torture.reduce.shrink_failure` and clean cells via
the no-cut predicate here — and written as a replayable
``scenario-repro`` artifact.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import PowerLossError
from repro.faults.model import FaultPlan
from repro.scenarios.compile import CompileError, compile_spec, schedule_digest
from repro.scenarios.library import SCENARIOS
from repro.scenarios.spec import ScenarioSpec
from repro.sim.artifact import (
    config_digest,
    load_artifact,
    write_artifact,
)
from repro.torture.harness import (
    CutOutcome,
    TortureConfig,
    enumerate_sites,
    run_with_cut,
    run_without_cut,
)
from repro.torture.power import Target
from repro.torture.reduce import ddmin, shrink_failure
from repro.torture.workload import Op

# Device-configuration axes.  Keys are stable artifact identifiers;
# values are TortureConfig overrides.  "default" is the device's
# natural shape (one log head per channel, all-RAM forward map);
# "single-head" pins the classic serial layout; "mapcache" runs the
# flash-resident mapping cache with a small resident budget so the
# demand-paging path is actually exercised; "shuffled" is the default
# device under a seeded random order of same-timestamp processes, so
# interleavings the FIFO kernel never produces face every oracle.
AXES: Dict[str, Dict[str, int]] = {
    "default": {},
    "single-head": {"parallel_heads": 1},
    "mapcache": {"map_cache_pages": 8},
    "shuffled": {"schedule_seed": 1},
}

# The smoke profile's axes: the natural device, FIFO and perturbed.
SMOKE_AXES = ("default", "shuffled")

# Scenarios that run an extra fault combo in the nightly profile, on
# top of every needs_faults scenario (which runs *only* as a fault
# combo — the scrubber does not exist on a perfect medium).  The
# replication extra proves a send over correctable-heavy media ships
# exactly the bytes the model oracle expects (via the pair check).
FAULT_EXTRA = ("snapshot-under-heavy-io", "trim-heavy-snapshots",
               "replicate-while-io")

SMOKE_SCENARIOS = ("snapshot-under-heavy-io", "limits-auto-delete",
                   "replicate-while-io")

PROFILES = ("nightly", "smoke")


def _fault_plan(seed: int) -> FaultPlan:
    from repro.faults.harness import correctable_heavy_config

    return FaultPlan(config=correctable_heavy_config(seed))


@dataclass(frozen=True)
class Combo:
    """One (scenario, axis, faults) point of the matrix."""

    scenario: str
    axis: str
    faults: bool
    cuts: int            # cut cells sampled from the enumerated sites

    @property
    def key(self) -> str:
        media = "faulty-media" if self.faults else "clean-media"
        return f"{self.scenario}|{self.axis}|{media}"


@dataclass
class CellResult:
    """One cell's verdict, JSON-able for the campaign state artifact."""

    key: str
    verdict: str                      # "pass" | "fail" | "invalid"
    failures: List[str] = field(default_factory=list)
    target: Optional[Target] = None
    pending_index: Optional[int] = None
    schedule: str = ""                # schedule digest

    def as_dict(self) -> Dict[str, object]:
        return {"key": self.key, "verdict": self.verdict,
                "failures": list(self.failures),
                "target": list(self.target) if self.target else None,
                "pending_index": self.pending_index,
                "schedule": self.schedule}

    @classmethod
    def from_dict(cls, raw: Dict[str, object]) -> "CellResult":
        target = raw.get("target")
        return cls(key=str(raw["key"]), verdict=str(raw["verdict"]),
                   failures=[str(f) for f in raw.get("failures", [])],
                   target=((str(target[0]), int(target[1]))
                           if target else None),
                   pending_index=raw.get("pending_index"),
                   schedule=str(raw.get("schedule", "")))


def plan_combos(profile: str, scenarios: Optional[List[str]] = None,
                specs: Optional[Dict[str, ScenarioSpec]] = None,
                ) -> List[Combo]:
    """The deterministic combo list for a campaign profile."""
    if profile not in PROFILES:
        raise ValueError(f"unknown campaign profile {profile!r}")
    specs = specs if specs is not None else SCENARIOS
    wanted = list(scenarios) if scenarios else list(specs)
    unknown = [n for n in wanted if n not in specs]
    if unknown:
        raise ValueError(f"unknown scenario(s): {', '.join(unknown)}")
    if profile == "smoke" and not scenarios:
        wanted = [n for n in SMOKE_SCENARIOS if n in specs]
    cuts = 4 if profile == "nightly" else 1
    fault_cuts = 2 if profile == "nightly" else 1
    combos: List[Combo] = []
    for name in wanted:
        spec = specs[name]
        if not spec.needs_faults:
            axes = list(AXES) if profile == "nightly" else list(SMOKE_AXES)
            for axis in axes:
                combos.append(Combo(name, axis, faults=False, cuts=cuts))
        if spec.needs_faults or (profile == "nightly"
                                 and name in FAULT_EXTRA):
            combos.append(Combo(name, "default", faults=True,
                                cuts=fault_cuts))
    return combos


def combo_config(combo: Combo, spec: ScenarioSpec) -> TortureConfig:
    overrides = AXES[combo.axis]
    return TortureConfig(snapshot_limit=spec.snapshot_limit,
                         snapshot_auto_delete=spec.snapshot_auto_delete,
                         **overrides)


def sample_cuts(targets: List[Target], count: int, combo: Combo,
                seed: int) -> List[Target]:
    """Seeded, order-stable subset of a combo's injection points."""
    if len(targets) <= count:
        return list(targets)
    rng = random.Random(f"{combo.key}:{seed}")
    subset = rng.sample(targets, count)
    subset.sort()
    return subset


# ---------------------------------------------------------------------------
# Clean-cell shrinking (no cut: delta debugging over run_without_cut)
# ---------------------------------------------------------------------------
def shrink_clean_failure(script: List[Op], config: TortureConfig,
                         deep: bool = True,
                         fault_plan: Optional[FaultPlan] = None,
                         max_attempts: int = 200,
                         ) -> Tuple[List[Op], List[str], int]:
    """Minimize a script whose *clean* run fails verification.

    Same :func:`repro.torture.reduce.ddmin` walk as ``shrink_failure``,
    but the predicate is the no-cut cell: candidates that still fail
    the live-device oracles are kept, invalid candidates are not.
    """

    def still_fails(candidate: List[Op]) -> Optional[List[str]]:
        try:
            outcome = run_without_cut(candidate, config, deep=deep,
                                      fault_plan=fault_plan)
        except (PowerLossError, KeyboardInterrupt):
            raise
        except Exception:
            return None
        if outcome.invalid or not outcome.failed:
            return None
        return outcome.failures

    shrunk = ddmin(script, still_fails, max_attempts)
    if shrunk is None:
        raise ValueError("script does not fail its clean run; "
                         "nothing to shrink")
    return shrunk


# ---------------------------------------------------------------------------
# Campaign state (resumable)
# ---------------------------------------------------------------------------
class CampaignState:
    """The resumable per-cell verdict map, persisted after every cell."""

    def __init__(self, profile: str, seed: int,
                 fingerprint: str, path: Optional[str] = None) -> None:
        self.profile = profile
        self.seed = seed
        self.fingerprint = fingerprint
        self.path = path
        self.cells: Dict[str, CellResult] = {}
        self.combos_done: List[str] = []

    @classmethod
    def load(cls, path: str, profile: str, seed: int,
             fingerprint: str) -> "CampaignState":
        payload = load_artifact(path, expect_kind="scenario-campaign-state")
        if (payload.get("profile") != profile
                or payload.get("seed") != seed
                or payload.get("fingerprint") != fingerprint):
            raise ValueError(
                f"campaign state {path!r} was produced by a different "
                f"campaign (profile/seed/fingerprint mismatch); refusing "
                "to resume from it")
        state = cls(profile, seed, fingerprint, path)
        for key, raw in payload.get("cells", {}).items():
            state.cells[key] = CellResult.from_dict(raw)
        state.combos_done = [str(k) for k in payload.get("combos_done", [])]
        return state

    def record(self, result: CellResult) -> None:
        self.cells[result.key] = result
        self.save()

    def finish_combo(self, combo_key: str) -> None:
        if combo_key not in self.combos_done:
            self.combos_done.append(combo_key)
            self.save()

    def save(self) -> None:
        if self.path is None:
            return
        body = {
            "profile": self.profile,
            "seed": self.seed,
            "fingerprint": self.fingerprint,
            "cells": {k: r.as_dict() for k, r in sorted(self.cells.items())},
            "combos_done": list(self.combos_done),
        }
        write_artifact(
            self.path, "scenario-campaign-state", body,
            seed=self.seed,
            replay=(f"python -m repro.scenarios --campaign {self.profile} "
                    f"--seed {self.seed} --state {self.path}"),
            config={"profile": self.profile, "fingerprint": self.fingerprint})


@dataclass
class CampaignReport:
    """What one campaign invocation did."""

    profile: str
    seed: int
    results: List[CellResult] = field(default_factory=list)
    repro_paths: List[str] = field(default_factory=list)
    complete: bool = True
    infra_errors: List[str] = field(default_factory=list)

    @property
    def failed_cells(self) -> List[CellResult]:
        return [r for r in self.results if r.verdict == "fail"]

    @property
    def invalid_cells(self) -> List[CellResult]:
        return [r for r in self.results if r.verdict == "invalid"]


def campaign_fingerprint(profile: str, seed: int,
                         combos: List[Combo],
                         specs: Dict[str, ScenarioSpec]) -> str:
    """Digest binding a state file to the exact campaign shape."""
    shape = {
        "profile": profile,
        "seed": seed,
        "combos": [[c.scenario, c.axis, c.faults, c.cuts] for c in combos],
        "specs": {name: specs[name].as_dict()
                  for name in sorted({c.scenario for c in combos})},
    }
    return config_digest(shape)


def _cell_result(key: str, outcome: CutOutcome, digest: str) -> CellResult:
    if outcome.invalid:
        verdict = "invalid"
    elif outcome.failed:
        verdict = "fail"
    elif not outcome.fired:
        # Targets come from enumerating this exact script, so a cut
        # that never fires means the rig renumbered sites under us —
        # an infra problem, never a silent pass.
        verdict = "invalid"
    else:
        verdict = "pass"
    return CellResult(key=key, verdict=verdict,
                      failures=list(outcome.failures),
                      target=outcome.target,
                      pending_index=outcome.pending_index,
                      schedule=digest)


def write_scenario_repro(path: str, *, spec: ScenarioSpec, combo: Combo,
                         seed: int, config: TortureConfig,
                         script: List[Op], target: Optional[Target],
                         failures: List[str], attempts: int,
                         original_ops: int,
                         fault_plan: Optional[FaultPlan]) -> None:
    body = {
        "scenario": spec.name,
        "spec": spec.as_dict(),
        "combo": {"axis": combo.axis, "faults": combo.faults},
        "config": config.as_dict(),
        "script": [list(op) for op in script],
        "site": target[0] if target else None,
        "occurrence": target[1] if target else None,
        "failures": list(failures),
        "shrink_attempts": attempts,
        "original_ops": original_ops,
        "fault_plan": fault_plan.as_dict() if fault_plan else None,
        "schedule": schedule_digest(script),
    }
    write_artifact(path, "scenario-repro", body, seed=seed,
                   replay=f"python -m repro.scenarios --replay {path}",
                   config=config.as_dict())


def replay_scenario_repro(path: str, deep: bool = True) -> CutOutcome:
    """Re-execute a scenario-repro artifact byte-identically."""
    payload = load_artifact(path, expect_kind="scenario-repro")
    script = [list(op) for op in payload["script"]]
    config = TortureConfig(**payload["config"])
    raw_plan = payload.get("fault_plan")
    plan = FaultPlan.from_dict(raw_plan) if raw_plan else None
    site = payload.get("site")
    if site is None:
        return run_without_cut(script, config, deep=deep, fault_plan=plan)
    return run_with_cut(script, (site, int(payload["occurrence"])),
                        config, deep=deep, fault_plan=plan)


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------
def _shrink_and_write(report: CampaignReport,
                      spec: ScenarioSpec, combo: Combo, seed: int,
                      config: TortureConfig, script: List[Op],
                      result: CellResult, fault_plan: Optional[FaultPlan],
                      repro_dir: Optional[str], deep: bool,
                      log: Callable[[str], None]) -> None:
    if repro_dir is None:
        return
    path = os.path.join(repro_dir,
                        f"scenario-repro-{len(report.repro_paths)}.json")
    try:
        if result.target is not None:
            shrunk = shrink_failure(script, result.target[0], config,
                                    deep=deep, fault_plan=fault_plan)
            write_scenario_repro(
                path, spec=spec, combo=combo, seed=seed, config=config,
                script=shrunk.script, target=shrunk.target,
                failures=shrunk.failures, attempts=shrunk.attempts,
                original_ops=len(script), fault_plan=fault_plan)
        else:
            small, failures, attempts = shrink_clean_failure(
                script, config, deep=deep, fault_plan=fault_plan)
            write_scenario_repro(
                path, spec=spec, combo=combo, seed=seed, config=config,
                script=small, target=None, failures=failures,
                attempts=attempts, original_ops=len(script),
                fault_plan=fault_plan)
    except ValueError:
        # The failure did not reproduce under the reducer (flaky only
        # under a state we could not recreate would be a determinism
        # bug, but refusing to write *something* hides the verdict).
        write_scenario_repro(
            path, spec=spec, combo=combo, seed=seed, config=config,
            script=script, target=result.target, failures=result.failures,
            attempts=0, original_ops=len(script), fault_plan=fault_plan)
    report.repro_paths.append(path)
    log(f"  repro written: {path}")


def run_campaign(profile: str, seed: int, *,
                 scenarios: Optional[List[str]] = None,
                 specs: Optional[Dict[str, ScenarioSpec]] = None,
                 state_path: Optional[str] = None,
                 repro_dir: Optional[str] = None,
                 max_cells: Optional[int] = None,
                 deep: bool = True,
                 resume: bool = True,
                 log: Callable[[str], None] = lambda _line: None,
                 ) -> CampaignReport:
    """Run (or resume) one campaign; deterministic in ``(profile, seed)``.

    ``max_cells`` caps the number of cells *executed this invocation*
    (not counting cells restored from the state file) — the hook the
    resume-equivalence tests use to interrupt a campaign mid-flight.
    """
    specs = specs if specs is not None else SCENARIOS
    combos = plan_combos(profile, scenarios, specs)
    fingerprint = campaign_fingerprint(profile, seed, combos, specs)
    state: Optional[CampaignState] = None
    if state_path is not None and resume:
        try:
            state = CampaignState.load(state_path, profile, seed,
                                       fingerprint)
            log(f"resuming: {len(state.cells)} cell(s) already done")
        except FileNotFoundError:
            state = None
    if state is None:
        state = CampaignState(profile, seed, fingerprint, state_path)

    report = CampaignReport(profile=profile, seed=seed)
    executed = 0
    for combo in combos:
        spec = specs[combo.scenario]
        config = combo_config(combo, spec)
        fault_plan = _fault_plan(seed) if combo.faults else None

        if combo.key in state.combos_done:
            for key in sorted(state.cells):
                if key.startswith(combo.key + "|"):
                    report.results.append(state.cells[key])
            continue

        try:
            script = compile_spec(spec, seed)
        except CompileError as exc:
            report.infra_errors.append(f"{combo.key}: {exc}")
            continue
        digest = schedule_digest(script)
        log(f"{combo.key}: {len(script)} ops, schedule {digest}")

        # Clean cell first: the baseline the cut cells perturb.
        cell_plan: List[Optional[Target]] = [None]
        try:
            targets = enumerate_sites(script, config, fault_plan)
        except PowerLossError:
            raise
        except Exception as exc:
            report.infra_errors.append(
                f"{combo.key}: site enumeration failed: {exc!r}")
            continue
        cell_plan.extend(sample_cuts(targets, combo.cuts, combo, seed))

        combo_complete = True
        for target in cell_plan:
            cell_key = (f"{combo.key}|clean" if target is None
                        else f"{combo.key}|{target[0]}@{target[1]}")
            cached = state.cells.get(cell_key)
            if cached is not None:
                report.results.append(cached)
                continue
            if max_cells is not None and executed >= max_cells:
                combo_complete = False
                report.complete = False
                break
            if target is None:
                outcome = run_without_cut(script, config, deep=deep,
                                          fault_plan=fault_plan)
            else:
                outcome = run_with_cut(script, target, config, deep=deep,
                                       fault_plan=fault_plan)
            executed += 1
            result = _cell_result(cell_key, outcome, digest)
            state.record(result)
            report.results.append(result)
            if result.verdict == "fail":
                log(f"  FAIL {cell_key}: {result.failures[0]}")
                _shrink_and_write(report, spec, combo, seed,
                                  config, script, result, fault_plan,
                                  repro_dir, deep, log)
            elif result.verdict == "invalid":
                log(f"  INVALID {cell_key}")
        if combo_complete:
            state.finish_combo(combo.key)
        if not report.complete:
            break
    return report
