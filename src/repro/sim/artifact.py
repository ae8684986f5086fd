"""The shared repro-artifact envelope every rig CLI writes.

The torture, media-fault and scenario rigs all
emit JSON repro artifacts so CI can upload a failing case and a human
(or the rig itself) can replay it.  Before this module each CLI
hand-rolled a slightly different format; now every artifact carries
one common envelope under the ``"artifact"`` key:

.. code-block:: json

    {
      "artifact": {
        "schema_version": 1,
        "kind": "torture-repro",
        "format_version": 2,
        "seed": 2014,
        "config_digest": "9f86d081884c7d65",
        "replay": "python -m repro.torture --replay torture-repro.json"
      },
      ...rig-specific body keys at the top level...
    }

The body stays at the top level on purpose: pre-envelope readers (and
old artifacts) keep working, because adding the ``"artifact"`` key is
purely additive.  ``config_digest`` is a stable hash of whatever
configuration shaped the run (device shape, campaign axes, fault
plan), so two artifacts can be compared for "same setup" without
diffing bodies.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Optional

SCHEMA_VERSION = 1

# Registered artifact kinds, for validation at load time.  New rigs
# add theirs here so a typo'd kind fails fast instead of silently
# loading the wrong rig's file.
KINDS = (
    "torture-repro",
    "fault-campaign-repro",
    "scenario-repro",
    "scenario-campaign-state",
)


class ArtifactError(ValueError):
    """An artifact file does not carry a usable envelope."""


def canonical_json(value: Any) -> str:
    """Deterministic JSON rendering (sorted keys, no whitespace)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=str)


def config_digest(config: Any) -> str:
    """Stable 16-hex-digit digest of a JSON-able configuration value."""
    canon = canonical_json(config)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def make_envelope(kind: str, *, seed: int, replay: str,
                  config: Any = None,
                  format_version: int = 1) -> Dict[str, Any]:
    if kind not in KINDS:
        raise ArtifactError(f"unknown artifact kind {kind!r}")
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "format_version": format_version,
        "seed": seed,
        "config_digest": config_digest(config if config is not None else {}),
        "replay": replay,
    }


def write_artifact(path: str, kind: str, body: Dict[str, Any], *,
                   seed: int, replay: str, config: Any = None,
                   format_version: int = 1) -> Dict[str, Any]:
    """Write ``body`` + envelope to ``path`` atomically; return payload.

    The write goes through a temp file and :func:`os.replace`, so a
    killed CLI never leaves a half-written artifact for CI to upload.
    """
    payload = dict(body)
    payload["artifact"] = make_envelope(kind, seed=seed, replay=replay,
                                        config=config,
                                        format_version=format_version)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return payload


def load_artifact(path: str,
                  expect_kind: Optional[str] = None) -> Dict[str, Any]:
    """Load an artifact, validating its envelope when present.

    Pre-envelope files (no ``"artifact"`` key) load as-is for backward
    compatibility — unless ``expect_kind`` is given, in which case the
    envelope is mandatory and must match.
    """
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ArtifactError(f"{path!r} is not a JSON object artifact")
    envelope = payload.get("artifact")
    if envelope is None:
        if expect_kind is not None:
            raise ArtifactError(
                f"{path!r} has no artifact envelope "
                f"(expected kind {expect_kind!r})")
        return payload
    if envelope.get("schema_version") != SCHEMA_VERSION:
        raise ArtifactError(
            f"{path!r}: unsupported artifact schema version "
            f"{envelope.get('schema_version')!r}")
    if expect_kind is not None and envelope.get("kind") != expect_kind:
        raise ArtifactError(
            f"{path!r} is a {envelope.get('kind')!r} artifact, "
            f"expected {expect_kind!r}")
    return payload
