import ast
import copy
import json
import os
import re
import shutil
import subprocess
import sys

from conftest import E2E_DIR, run_cli

import _paths
from benchmarks.e2e import compare, configs, metrics, runner

SPEC = json.loads((_paths.REPO_ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SIM_METRICS = [m.name for m in metrics.END_TO_END + metrics.REPORTED_ONLY
               if m.kind == "sim"]


def test_spec_matches_the_declared_metrics():
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in SPEC["workloads"]] == list(configs.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in SPEC["end_to_end"]] == \
        [(m.name, m.unit, m.better, m.bound) for m in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in SPEC["per_layer"]] == list(metrics.PER_LAYER)
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert "setup_s" in names
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_every_declared_name_is_printed(smoke_run):
    stdout, _document = smoke_run
    printed = set(stdout.split())
    for key in ("workloads", "end_to_end", "per_layer"):
        missing = [e["name"] for e in SPEC[key] if e["name"] not in printed]
        assert not missing, f"{key} never printed: {missing}"


def test_smoke_run_is_correct_and_traced(smoke_run):
    _stdout, document = smoke_run
    assert set(document["machine"]) >= {"python", "platform", "nproc",
                                        "git_commit"}
    for name in configs.WORKLOADS:
        result = document["workloads"][name]
        assert result["correct"] and result["failed"] == 0, result["problems"]
        assert result["calib_loops_per_s"] > 0
        assert list(result["per_layer"]) == list(metrics.PER_LAYER_NAMES)
        trace = json.loads((_paths.REPO_ROOT / result["trace_file"])
                           .read_text())
        assert trace["sim_digest"] == result["repeat_digests"][0]
        assert trace["spans_total"] >= trace["spans_written"] > 0
        by_id = {span["id"]: span for span in trace["spans"]}
        for span in trace["spans"]:
            assert span["end_ns"] is None \
                or span["end_ns"] >= span["start_ns"]
            parent = by_id.get(span["parent"])
            if parent is not None:
                assert parent["start_ns"] <= span["start_ns"]
        assert trace["per_layer"]["trace.overhead_ratio"]["value"] > 1


def test_same_seed_repeats_exactly_and_another_seed_does_not(smoke_run):
    _stdout, document = smoke_run
    theirs = document["workloads"]["activate_read"]   # another process
    mine = runner.run_workload("activate_read", configs.DEFAULT_SEED,
                               smoke=True, repeats=1)
    assert mine["correct"], mine["problems"]
    assert mine["scripted_ops"] == theirs["scripted_ops"]
    assert mine["sim_digest"] == theirs["sim_digest"]
    assert mine["counts"] == theirs["counts"]
    for name in SIM_METRICS:
        assert mine["end_to_end"][name] == theirs["end_to_end"][name], name
    other = runner.run_workload("activate_read", configs.DEFAULT_SEED + 1,
                                smoke=True, repeats=2)
    assert other["correct"], other["problems"]
    assert other["sim_digest"] != mine["sim_digest"]
    # Repeat r draws its own op stream, so two repeats give two values.
    assert other["end_to_end"]["sim_lat_mean_us"]["n"] == 2
    assert other["end_to_end"]["sim_lat_mean_us"]["min"] != \
        other["end_to_end"]["sim_lat_mean_us"]["max"]


def test_seconds_sets_the_number_of_repeats():
    assert runner.plan_repeats("steady_overwrite", None, 15.0, False) == 3
    assert runner.plan_repeats("parallel_mapcache_mixed", None, 15.0,
                               False) == 9
    assert runner.plan_repeats("snap_churn", None, 1.0, False) == 1
    assert runner.plan_repeats("snap_churn", None, 15.0, True) == 1
    assert runner.plan_repeats("snap_churn", 4, 15.0, True) == 4


def test_imports_stay_on_the_product_surface():
    banned = ("repro.bench", "repro.workloads", "repro.torture",
              "repro.scenarios")
    for path in E2E_DIR.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            for module in modules:
                assert not module.startswith(banned), f"{path.name}: {module}"


def test_a_wrong_driver_model_fails_the_run():
    proc = run_cli("--workload", "parallel_mapcache_mixed", "--smoke",
                   "--repeats", "1", "--break-model")
    assert proc.returncode == 1
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["failed"] > 0 and line["correct"] is False
    assert "FAILED CHECK" in proc.stdout


def test_compare_accepts_itself_and_rejects_regressions(smoke_run):
    _stdout, document = smoke_run
    lines, regressed = compare.compare(document, document)
    assert not regressed and "all equal" in "\n".join(lines)

    slower = copy.deepcopy(document)
    entry = slower["workloads"]["snap_churn"]["end_to_end"]["host_ops_per_s"]
    for key in ("value", "min", "max"):
        entry[key] *= 0.8
    lines, regressed = compare.compare(document, slower)
    assert regressed and any("worse" in line for line in lines)

    noisy = copy.deepcopy(document)
    entry = noisy["workloads"]["snap_churn"]["end_to_end"]["host_ops_per_s"]
    entry["value"] *= 0.99
    entry["min"], entry["max"] = entry["value"] * 0.9, entry["value"] * 1.1
    lines, regressed = compare.compare(document, noisy)
    assert not regressed and any("unresolved" in line for line in lines)

    failing = copy.deepcopy(document)
    failing["workloads"]["snap_churn"]["end_to_end"]["failed_ops_share"][
        "value"] = 0.001
    failing["workloads"]["snap_churn"]["counts"]["ftl.vsl.writes"] += 1
    lines, regressed = compare.compare(document, failing)
    assert regressed and any("differs" in line for line in lines)


def test_refuses_to_measure_under_the_sanitizer():
    env = dict(os.environ, REPRO_SANITIZE="1")
    proc = run_cli("--workload", "steady_overwrite", "--smoke", env=env)
    assert proc.returncode == 2 and "{" not in proc.stdout


def test_nothing_to_measure_in_a_bare_directory(tmp_path):
    shutil.copy(_paths.REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(E2E_DIR, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "steady_overwrite", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, text=True, capture_output=True, timeout=60, check=False)
    assert proc.returncode != 0 and proc.stdout.strip() == ""
