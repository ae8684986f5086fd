"""Shrink a failing torture case to a minimal replayable repro.

Delta debugging over the op script: repeatedly drop chunks of ops
(halving the chunk size down to single ops) and keep any candidate
that still reproduces a failure at the *same crash-site kind*.  The
occurrence index is re-derived for each candidate — dropping ops
renumbers the sites — by re-enumerating the candidate's injection
points and trying every occurrence of the failing site.

Candidates that become semantically invalid (deleting a snapshot that
was never created, say) simply count as non-reproducing; the harness
flags them instead of crashing.

The result is written as a JSON repro file that ``python -m
repro.torture --replay FILE`` re-executes byte-identically.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, List, Optional, Tuple, TypeVar

from repro.errors import PowerLossError
from repro.faults.model import FaultPlan
from repro.sim.artifact import load_artifact, write_artifact
from repro.torture.harness import (
    TortureConfig,
    enumerate_sites,
    run_with_cut,
)
from repro.torture.power import Target
from repro.torture.workload import Op

# Version history:
#   1 — script + (site, occurrence) power-cut target.
#   2 — adds an optional "fault_plan" (seeded media-fault schedule,
#       see repro.faults.model.FaultPlan); version-1 files still load.
REPRO_VERSION = 2

R = TypeVar("R")


@dataclass
class ShrunkRepro:
    """A minimal failing case: the script, where to cut, what broke."""

    script: List[Op]
    site: str
    occurrence: int
    failures: List[str] = field(default_factory=list)
    attempts: int = 0          # candidate scripts tried by the reducer
    original_ops: int = 0
    fault_plan: Optional[FaultPlan] = None

    @property
    def target(self) -> Target:
        return (self.site, self.occurrence)


def _first_failure(script: List[Op], site: str,
                   config: Optional[TortureConfig],
                   deep: bool,
                   fault_plan: Optional[FaultPlan] = None,
                   ) -> Optional[Tuple[Target, List[str]]]:
    """Does ``script`` still fail when cut at some occurrence of ``site``?

    The fault plan rides along unreduced: its forced indices are global
    op counts, so dropping script ops shifts which op a forced fault
    lands on — exactly like crash-site occurrences, which is why both
    are re-derived per candidate by enumeration rather than pinned.
    """
    try:
        targets = enumerate_sites(script, config, fault_plan)
    except (PowerLossError, KeyboardInterrupt):
        # Never mask the power-cut injection (or a user interrupt):
        # swallowing it here would make the reducer silently "shrink"
        # scripts by hiding the very failure it is minimizing.
        raise
    except Exception:
        return None  # candidate can't even run to enumeration
    for target in targets:
        if target[0] != site:
            continue
        outcome = run_with_cut(script, target, config, deep=deep,
                               fault_plan=fault_plan)
        if outcome.failed:
            return target, outcome.failures
    return None


def ddmin(ops: List[Op], still_fails: Callable[[List[Op]], Optional[R]],
          max_attempts: int) -> Optional[Tuple[List[Op], R, int]]:
    """Delta debugging: drop ever-smaller chunks while ``still_fails``.

    ``still_fails(candidate)`` returns None when the candidate does not
    reproduce, else a description of the failure.  Returns ``(ops,
    failure, attempts)`` for the smallest failing script found within
    ``max_attempts`` candidates, or None when ``ops`` itself passes.
    """
    failure = still_fails(ops)
    if failure is None:
        return None
    current = list(ops)
    attempts = 0
    chunk = max(1, len(current) // 2)
    while True:
        removed_any = False
        i = 0
        while i < len(current) and attempts < max_attempts:
            candidate = current[:i] + current[i + chunk:]
            if not candidate:
                i += chunk
                continue
            attempts += 1
            result = still_fails(candidate)
            if result is not None:
                current, failure = candidate, result
                removed_any = True
                # stay at the same index: the next chunk slid into place
            else:
                i += chunk
        if attempts >= max_attempts or (chunk == 1 and not removed_any):
            break
        chunk = max(1, chunk // 2)
    return current, failure, attempts


def shrink_failure(script: List[Op], site: str,
                   config: Optional[TortureConfig] = None,
                   deep: bool = True,
                   max_attempts: int = 400,
                   fault_plan: Optional[FaultPlan] = None) -> ShrunkRepro:
    """Minimize ``script`` while a cut at ``site`` still fails.

    ``site`` is the full site name (``"note.trim:post"``); the original
    occurrence index is *not* required — any occurrence that fails
    counts, which is what lets shrinking renumber sites freely.
    """
    shrunk = ddmin(
        script,
        lambda ops: _first_failure(ops, site, config, deep, fault_plan),
        max_attempts)
    if shrunk is None:
        raise ValueError(
            f"script does not fail at any occurrence of {site!r}; "
            "nothing to shrink")
    current, (best_target, best_failures), attempts = shrunk
    return ShrunkRepro(script=current, site=best_target[0],
                       occurrence=best_target[1], failures=best_failures,
                       attempts=attempts, original_ops=len(script),
                       fault_plan=fault_plan)


# ---------------------------------------------------------------------------
# Repro files
# ---------------------------------------------------------------------------
def write_repro(path: str, repro: ShrunkRepro, seed: int = 0) -> None:
    """Write a replayable repro with the shared artifact envelope.

    The rig-specific body keys stay at the top level (the pre-envelope
    format), so older readers and the version-gated loader below keep
    working; see :mod:`repro.sim.artifact`.
    """
    body = {"version": REPRO_VERSION,
            **asdict(repro, dict_factory=dict)}
    body["fault_plan"] = (repro.fault_plan.as_dict()
                          if repro.fault_plan is not None else None)
    write_artifact(path, "torture-repro", body, seed=seed,
                   replay=f"python -m repro.torture --replay {path}",
                   config=body["fault_plan"],
                   format_version=REPRO_VERSION)


def load_repro(path: str) -> ShrunkRepro:
    payload = load_artifact(path)
    if payload.get("version") not in (1, REPRO_VERSION):
        raise ValueError(f"unsupported repro version in {path!r}")
    raw_plan = payload.get("fault_plan")
    return ShrunkRepro(
        script=[list(op) for op in payload["script"]],
        site=payload["site"], occurrence=payload["occurrence"],
        failures=list(payload.get("failures", [])),
        attempts=payload.get("attempts", 0),
        original_ops=payload.get("original_ops", 0),
        fault_plan=(FaultPlan.from_dict(raw_plan)
                    if raw_plan is not None else None))
