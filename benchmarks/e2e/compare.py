"""``compare BASE.json NEW.json``: the no-regression table.

One row per (workload, end-to-end metric): base, new, the ratio with
its base, the bound, and a verdict:

``better`` / ``worse``
    the medians differ by more than the bound;
``same``
    they do not, and the repeats resolve the bound;
``unresolved``
    they do not, but a side's own min-max spread over its repeats is
    wider than the bound, so "no change" cannot be told from a change
    of the size the bound forbids.

Then exact-equality rows for every count, the scripted-op count and
``sim_digest``: for a fixed seed these repeat bit for bit, so a change
that only speeds up the simulator must leave all of them ``equal``.
Exit 1 on any ``worse`` row or a higher ``failed_ops_share``.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Tuple

from benchmarks.e2e import metrics


def _relative_spread(entry: Dict[str, Any]) -> float:
    return (entry["max"] - entry["min"]) / entry["value"] \
        if entry["value"] else 0.0


def verdict(metric: metrics.EndToEnd, base: Dict[str, Any],
            new: Dict[str, Any]) -> str:
    old, now = base["value"], new["value"]
    if old == now:
        return "same"
    gain = (now - old) if metric.better == "higher" else (old - now)
    share = gain / abs(old) if old else math.copysign(math.inf, gain)
    if share < -metric.bound:
        return "worse"
    if share > metric.bound:
        return "better"
    if max(_relative_spread(base), _relative_spread(new)) > metric.bound:
        return "unresolved"
    return "same"


def compare(base: Dict[str, Any], new: Dict[str, Any]
            ) -> Tuple[List[str], bool]:
    """Render the table; returns (lines, regressed)."""
    lines: List[str] = []
    regressed = False
    differing = 0
    if (base["seed"], base["smoke"]) != (new["seed"], new["smoke"]):
        lines.append(f"note: base is seed {base['seed']} smoke={base['smoke']}"
                     f", new is seed {new['seed']} smoke={new['smoke']}: "
                     "sim rows are not expected to be equal")
    lines.append(f"{'workload':<24}{'metric':<18}{'base':>13}{'new':>13}"
                 f"{'new/base':>10}{'bound':>7}  verdict")
    for name, old in base["workloads"].items():
        now = new["workloads"].get(name)
        if now is None:
            lines.append(f"{name:<24}missing from NEW")
            regressed = True
            continue
        for metric in metrics.END_TO_END + metrics.REPORTED_ONLY:
            a = old["end_to_end"][metric.name]
            b = now["end_to_end"][metric.name]
            word = verdict(metric, a, b)
            regressed |= word == "worse"
            ratio = f"{b['value'] / a['value']:.4f}" if a["value"] else "-"
            lines.append(f"{name:<24}{metric.name:<18}{a['value']:>13.6g}"
                         f"{b['value']:>13.6g}{ratio:>10}"
                         f"{metric.bound:>7.0%}  {word}")
        exact = {"sim_digest": (old["sim_digest"], now["sim_digest"]),
                 "scripted_ops": (old["scripted_ops"], now["scripted_ops"])}
        for key in old["counts"]:
            exact[key] = (old["counts"][key], now["counts"].get(key))
        for key, (a, b) in exact.items():
            if a != b:
                differing += 1
                lines.append(f"{name:<24}{key:<42} differs: {a} -> {b}")
    lines.append(f"exact rows (counts, scripted_ops, sim_digest): "
                 f"{differing} differ" if differing else
                 "exact rows (counts, scripted_ops, sim_digest): all equal")
    lines.append("regression: yes" if regressed else "regression: no")
    return lines, regressed


def compare_files(base_path: str, new_path: str) -> int:
    with open(base_path) as handle:
        base = json.load(handle)
    with open(new_path) as handle:
        new = json.load(handle)
    lines, regressed = compare(base, new)
    print("\n".join(lines))
    return 1 if regressed else 0
