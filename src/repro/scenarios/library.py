"""The scenario corpus: glusto snapshot tests, re-aimed at ioSnap.

Each spec is derived from a test family in the glusterfs glusto
snapshot suite (``tests/functional/snapshot``), translated from
volume-level operations to the device-level equivalents this repo
simulates.  The original test is named in each summary so a failure
can be traced back to the behaviour the scenario encodes.

All specs share the shape the corpus keeps returning to: churn I/O,
mutate the snapshot set mid-churn, then prove that nothing promised
was lost — here with the stronger oracles the torture rig brings
(power cuts at every plumbing site, fsck invariants, per-snapshot
activation readback).
"""

from __future__ import annotations

from typing import Dict

from repro.scenarios.spec import ScenarioSpec, phases

_IO = {"do": "io", "ops": [10, 16], "trim_ratio": 0.15}
_IO_SMALL = {"do": "io", "ops": [5, 8], "trim_ratio": 0.15}


def _specs() -> Dict[str, ScenarioSpec]:
    corpus = [
        ScenarioSpec(
            name="snapshot-under-heavy-io",
            summary=("glusto test_snap_create_during_io: snapshots taken "
                     "while heavy mixed I/O churns the active tree"),
            phases=phases(
                {"do": "repeat", "times": 3, "body": [
                    dict(_IO, ops=[12, 20], burst_ratio=0.2),
                    {"do": "snap"},
                ]},
                _IO,
            ),
            tags=("io", "create")),
        ScenarioSpec(
            name="create-delete-churn",
            summary=("glusto test_snap_delete_multiple: interleaved "
                     "create/delete churn with I/O between every step"),
            phases=phases(
                {"do": "repeat", "times": [3, 4], "body": [
                    _IO_SMALL,
                    {"do": "snap"},
                    _IO_SMALL,
                    {"do": "delete", "which": "oldest"},
                    {"do": "snap"},
                ]},
            ),
            tags=("create", "delete")),
        ScenarioSpec(
            name="delete-all-under-churn",
            summary=("glusto test_snap_delete_all: build up a snapshot "
                     "set, then delete every snapshot while I/O runs"),
            phases=phases(
                {"do": "repeat", "times": 4, "body": [
                    _IO_SMALL, {"do": "snap"},
                ]},
                {"do": "repeat", "times": 4, "body": [
                    {"do": "delete", "which": "random"},
                    _IO_SMALL,
                ]},
                {"do": "gc"},
            ),
            tags=("delete", "gc")),
        ScenarioSpec(
            name="activate-oldest-during-cleaning",
            summary=("glusto test_activate_deactivate: activate the "
                     "oldest snapshot while forced GC reclaims segments "
                     "its blocks still pin"),
            phases=phases(
                {"do": "snap", "name": "old"},
                dict(_IO, ops=[20, 28]),
                {"do": "snap"},
                {"do": "gc"},
                {"do": "activate", "which": "oldest"},
                _IO,
                {"do": "gc"},
                {"do": "deactivate", "which": "oldest"},
            ),
            tags=("activate", "gc")),
        ScenarioSpec(
            name="restore-under-churn",
            summary=("glusto test_snap_restore_online: restore a "
                     "snapshot into the active tree between bursts of "
                     "foreground I/O"),
            phases=phases(
                _IO,
                {"do": "snap", "name": "golden"},
                dict(_IO, ops=[14, 22], trim_ratio=0.3),
                {"do": "restore", "which": "golden"},
                _IO,
            ),
            tags=("restore",)),
        ScenarioSpec(
            name="restore-chain",
            summary=("glusto test_snap_restore_multiple: restore "
                     "repeatedly, hopping between snapshot points"),
            phases=phases(
                {"do": "repeat", "times": 3, "body": [
                    _IO_SMALL, {"do": "snap"},
                ]},
                {"do": "restore", "which": "oldest"},
                _IO_SMALL,
                {"do": "restore", "which": "newest"},
                _IO_SMALL,
                {"do": "restore", "which": "random"},
            ),
            tags=("restore",)),
        ScenarioSpec(
            name="clone-chain",
            summary=("glusto test_snap_clone: clone a snapshot into a "
                     "writable copy, churn it, clone the clone"),
            phases=phases(
                _IO,
                {"do": "snap", "name": "base"},
                _IO_SMALL,
                {"do": "clone", "which": "base", "name": "copy1"},
                _IO_SMALL,
                {"do": "clone", "which": "copy1", "name": "copy2"},
                _IO_SMALL,
            ),
            tags=("clone", "restore")),
        ScenarioSpec(
            name="limits-auto-delete",
            summary=("glusto test_snap_max_limit with auto-delete on: "
                     "creates past the limit evict the oldest snapshot"),
            snapshot_limit=3,
            snapshot_auto_delete=True,
            phases=phases(
                {"do": "repeat", "times": 6, "body": [
                    _IO_SMALL, {"do": "snap"},
                ]},
                {"do": "activate", "which": "newest"},
                _IO_SMALL,
                {"do": "snap"},
            ),
            tags=("limits",)),
        ScenarioSpec(
            name="limits-reject",
            summary=("glusto test_snap_max_limit with auto-delete off: "
                     "creates at the hard limit are refused, the set "
                     "stays intact"),
            snapshot_limit=2,
            snapshot_auto_delete=False,
            phases=phases(
                _IO_SMALL,
                {"do": "try_snap"},
                _IO_SMALL,
                {"do": "try_snap"},
                {"do": "try_snap"},       # at the limit: refused
                _IO_SMALL,
                {"do": "delete", "which": "oldest"},
                {"do": "try_snap"},       # freed a slot: succeeds
                _IO_SMALL,
            ),
            tags=("limits",)),
        ScenarioSpec(
            name="replicate-while-io",
            summary=("glusto test_snap_geo_rep (georeplication family): "
                     "full + incremental sends to a receiver while the "
                     "source keeps taking I/O"),
            phases=phases(
                _IO,
                {"do": "snap", "name": "base"},
                # Churn plus a forced clean before each send, so the
                # sent blocks have moved since their snapshot.
                _IO_SMALL,
                {"do": "gc"},
                {"do": "send", "which": "base"},
                dict(_IO, ops=[10, 16], trim_ratio=0.25),
                {"do": "snap", "name": "delta"},
                _IO_SMALL,
                {"do": "gc"},
                {"do": "send", "which": "delta", "incremental": True},
                _IO_SMALL,
            ),
            tags=("replicate",)),
        ScenarioSpec(
            name="replicate-after-restore",
            summary=("glusto georeplication + restore composition: "
                     "restore an old point, then ship the restored "
                     "state as an incremental send"),
            phases=phases(
                _IO,
                {"do": "snap", "name": "a"},
                {"do": "send", "which": "a"},
                dict(_IO, ops=[8, 14], trim_ratio=0.3),
                {"do": "restore", "which": "a"},
                _IO_SMALL,
                {"do": "snap", "name": "b"},
                {"do": "send", "which": "b", "incremental": True},
            ),
            tags=("replicate", "restore")),
        ScenarioSpec(
            name="trim-heavy-snapshots",
            summary=("glusto test_snap_del_original_volume analogue: "
                     "trim-dominated churn between snapshots, so images "
                     "differ mostly by absence"),
            phases=phases(
                {"do": "io", "ops": [16, 24], "trim_ratio": 0.05},
                {"do": "snap", "name": "full"},
                {"do": "io", "ops": [16, 24], "trim_ratio": 0.6},
                {"do": "snap", "name": "sparse"},
                {"do": "io", "ops": [6, 10], "trim_ratio": 0.6},
                {"do": "gc"},
            ),
            tags=("trim", "gc")),
        ScenarioSpec(
            name="burst-storm-snapshots",
            summary=("glusto multi-client I/O analogue: concurrent "
                     "burst writers racing on parallel log heads across "
                     "snapshot boundaries"),
            phases=phases(
                {"do": "repeat", "times": 3, "body": [
                    {"do": "io", "ops": [8, 12], "burst_ratio": 0.5,
                     "burst_len": [3, 6]},
                    {"do": "snap"},
                ]},
                {"do": "io", "ops": [6, 10], "burst_ratio": 0.5,
                 "burst_len": [3, 6]},
            ),
            tags=("burst", "parallel")),
        ScenarioSpec(
            name="scrub-under-snapshots",
            summary=("glusto bitrot-scrubber family: forced scrub "
                     "passes over flawed media while snapshots pin old "
                     "blocks"),
            needs_faults=True,
            phases=phases(
                _IO,
                {"do": "snap", "name": "pinned"},
                dict(_IO, ops=[12, 18]),
                {"do": "scrub"},
                {"do": "snap"},
                _IO_SMALL,
                {"do": "scrub"},
                {"do": "gc"},
            ),
            tags=("scrub", "faults")),
    ]
    return {spec.name: spec for spec in corpus}


SCENARIOS: Dict[str, ScenarioSpec] = _specs()

# The campaign's self-test: write_skewed ops make the device disagree
# with the model oracle on purpose.  ``--mutate`` runs this through
# the full cell pipeline and *requires* the campaign to catch it and
# shrink it to a replayable repro — proof the matrix has teeth.  It is
# deliberately not in SCENARIOS: a nightly run must never execute it.
MUTATION_SCENARIO = ScenarioSpec(
    name="mutation-skewed-writes",
    summary=("self-test: device writes diverge from their acknowledged "
             "payloads; the oracle must flag it"),
    phases=phases(
        {"do": "io", "ops": [6, 9]},
        {"do": "snap", "name": "pre"},
        {"do": "io", "ops": [4, 6], "skewed": True},
        {"do": "snap", "name": "post"},
        {"do": "io", "ops": [3, 5]},
    ),
    tags=("mutation",))
