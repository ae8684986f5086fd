"""Tests for the shared repro-artifact envelope (repro.sim.artifact)."""

import json

import pytest

from repro.sim.artifact import (
    ArtifactError,
    canonical_json,
    config_digest,
    load_artifact,
    make_envelope,
    write_artifact,
)


def test_roundtrip_preserves_body_and_envelope(tmp_path):
    path = str(tmp_path / "a.json")
    body = {"script": [["write", 1, 2]], "failures": ["x"]}
    written = write_artifact(path, "torture-repro", body, seed=7,
                             replay="python -m repro.torture --replay a.json",
                             config={"ops": 10}, format_version=2)
    loaded = load_artifact(path, expect_kind="torture-repro")
    assert loaded == written
    # Body keys stay at the top level for pre-envelope readers.
    assert loaded["script"] == [["write", 1, 2]]
    env = loaded["artifact"]
    assert env["schema_version"] == 1
    assert env["kind"] == "torture-repro"
    assert env["format_version"] == 2
    assert env["seed"] == 7
    assert env["replay"].startswith("python -m repro.torture")
    assert env["config_digest"] == config_digest({"ops": 10})


def test_unknown_kind_rejected(tmp_path):
    with pytest.raises(ArtifactError):
        make_envelope("no-such-kind", seed=0, replay="x")


def test_kind_mismatch_rejected(tmp_path):
    path = str(tmp_path / "a.json")
    write_artifact(path, "fault-campaign-repro", {"failures": {}}, seed=0,
                   replay="python -m repro.faults")
    with pytest.raises(ArtifactError):
        load_artifact(path, expect_kind="torture-repro")


def test_pre_envelope_files_still_load(tmp_path):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"version": 2, "script": []}))
    assert load_artifact(str(path))["version"] == 2
    # ... unless a kind is demanded.
    with pytest.raises(ArtifactError):
        load_artifact(str(path), expect_kind="torture-repro")


def test_write_is_atomic_no_tmp_left_behind(tmp_path):
    path = str(tmp_path / "a.json")
    write_artifact(path, "fault-campaign-repro", {"failures": {}}, seed=0,
                   replay="r")
    assert [p.name for p in tmp_path.iterdir()] == ["a.json"]


def test_config_digest_is_order_insensitive_and_stable():
    assert config_digest({"a": 1, "b": 2}) == config_digest({"b": 2, "a": 1})
    assert config_digest({"a": 1}) != config_digest({"a": 2})
    assert canonical_json({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}'
