"""Command line: ``run`` and ``compare``.

``python -m benchmarks.e2e run`` measures all four workloads, each in a
subprocess of its own (clean ``ru_maxrss``, clean module-global
``PERF_COUNTERS``).  With ``--workload`` the workload runs in this
process and the last line of standard output is the one-object JSON
result the benchmark driver reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from benchmarks.e2e import configs, metrics
from benchmarks.e2e.compare import compare_files

PACKAGE_DIR = Path(__file__).resolve().parent
REPO_ROOT = PACKAGE_DIR.parents[1]
SCHEMA = "iosnap-e2e/1"

EXIT_OK, EXIT_FAILED, EXIT_REFUSED = 0, 1, 2


def _git_commit() -> str:
    """HEAD's commit id read from .git by hand; a driver checkout has none."""
    git = REPO_ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def machine_block() -> Dict[str, Any]:
    return {"python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "git_commit": _git_commit()}


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_report(result: Dict[str, Any]) -> None:
    name = result["workload"]
    print(f"== {name}  seed={result['seed']}  "
          f"scripted_ops={result['scripted_ops']}  "
          f"repeats={result['repeats']}  "
          f"calib_loops_per_s={result['calib_loops_per_s']:.0f}"
          f"{'  [smoke sizes]' if result['smoke'] else ''}")
    print("   NAND/FTL model unvalidated against hardware; host numbers "
          "are this machine's.")
    print(f"   sim_digest {result['sim_digest']}")
    for metric in metrics.END_TO_END + metrics.REPORTED_ONLY:
        entry = result["end_to_end"][metric.name]
        extra = ""
        if entry["n"] > 1:
            extra = (f"  median of n={entry['n']} "
                     f"[{_fmt(entry['min'])} .. {_fmt(entry['max'])}]")
        if metric.name.startswith("sim_lat"):
            extra += f"  samples={result['latency_samples']}"
        print(f"   {metric.kind:<4} {metric.name:<18} "
              f"{_fmt(entry['value']):>12} {entry['unit']:<6}"
              f" bound {metric.bound:.0%} {metric.better}{extra}")
    values = result.get("per_layer") or result["counts"]
    label = "per-layer (traced run)" if "per_layer" in result \
        else "per-layer counts (host self times and spans need --trace)"
    print(f"   -- {label}")
    for layer_metric in metrics.PER_LAYER_NAMES:
        if layer_metric in values:
            print(f"   {layer_metric:<40} "
                  f"{_fmt(values[layer_metric]):>14} "
                  f"{metrics.PER_LAYER_UNITS[layer_metric]}")
    if "trace_file" in result:
        print(f"   trace written to {result['trace_file']}")
    for finding in result["fsck_findings"]:
        # Reported, not fatal: see "fsck" in README.md.
        print(f"   FSCK FINDING: {finding}")
    for problem in result["problems"]:
        print(f"   FAILED CHECK: {problem}")
    print(f"   attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}")


def driver_line(result: Dict[str, Any], traced: bool) -> str:
    """The contract's last line: end-to-end metrics, or per-layer if traced."""
    if traced:
        body = {name: {"value": value, "unit": metrics.PER_LAYER_UNITS[name]}
                for name, value in result["per_layer"].items()}
    else:
        body = {m.name: {"value": result["end_to_end"][m.name]["value"],
                         "unit": m.unit} for m in metrics.END_TO_END}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": body})


def _write_results(path: str, seed: int, smoke: bool,
                   results: Dict[str, Dict[str, Any]]) -> None:
    document = {"schema": SCHEMA, "machine": machine_block(), "seed": seed,
                "smoke": smoke, "workloads": results}
    Path(path).write_text(json.dumps(document, indent=1) + "\n")


def _run_one(args: argparse.Namespace) -> int:
    # Imported here: only this path needs the product on sys.path.
    from repro import sanitize
    from repro.races import runtime as races

    from benchmarks.e2e import runner

    if sanitize.enabled or races.enabled:
        print("refusing to measure with REPRO_SANITIZE or REPRO_RACES set",
              file=sys.stderr)
        return EXIT_REFUSED
    result = runner.run_workload(
        args.workload, args.seed, smoke=args.smoke, repeats=args.repeats,
        seconds=args.seconds, traced=bool(args.trace),
        break_model=args.break_model)
    print_report(result)
    if args.out:
        _write_results(args.out, args.seed, args.smoke,
                       {args.workload: result})
    print(driver_line(result, bool(args.trace)))
    return EXIT_OK if result["correct"] else EXIT_FAILED


def _run_all(args: argparse.Namespace) -> int:
    out_dir = PACKAGE_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    results: Dict[str, Dict[str, Any]] = {}
    worst = EXIT_OK
    for name in configs.WORKLOADS:
        part = out_dir / f"result-{name}.json"
        command = [sys.executable, str(PACKAGE_DIR / "run.py"),
                   "--workload", name, "--seed", str(args.seed),
                   "--trace", str(args.trace), "--out", str(part)]
        if args.repeats is not None:
            command += ["--repeats", str(args.repeats)]
        command += ["--seconds", str(args.seconds)]
        if args.smoke:
            command.append("--smoke")
        if args.break_model:
            command.append("--break-model")
        code = subprocess.run(command, check=False).returncode
        worst = max(worst, code)
        if code == EXIT_REFUSED:
            return code
        results[name] = \
            json.loads(part.read_text())["workloads"][name]
    if args.out:
        _write_results(args.out, args.seed, args.smoke, results)
    failed = [name for name, result in results.items()
              if not result["correct"]]
    print(f"== {len(results) - len(failed)}/{len(results)} workloads correct"
          + (f"; failed: {', '.join(failed)}" if failed else ""))
    return worst


def add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", choices=configs.WORKLOADS,
                        help="run this one in-process (default: all four, "
                             "each in its own subprocess)")
    parser.add_argument("--seed", type=int, default=configs.DEFAULT_SEED)
    parser.add_argument("--repeats", type=int, default=None,
                        help="untraced repeats (default: enough to cover "
                             "--seconds; 1 with --trace)")
    parser.add_argument("--seconds", type=float,
                        default=configs.DEFAULT_SECONDS,
                        help="host seconds of timed phase to aim for, at "
                             "the speed of the machine the workloads were "
                             "sized on (default %(default)s)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="add a traced repeat: per-layer host self "
                             "times, sim spans, trace-<workload>.json")
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes: same metrics, same checks")
    parser.add_argument("--out", help="write the result document here")
    parser.add_argument("--break-model", action="store_true",
                        help=argparse.SUPPRESS)   # self-test mutation


def run_main(args: argparse.Namespace) -> int:
    if args.repeats is not None and args.repeats < 1:
        print("--repeats must be at least 1", file=sys.stderr)
        return EXIT_REFUSED
    return _run_one(args) if args.workload else _run_all(args)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="End-to-end benchmark of the ioSnap data path: host "
                    "time, simulated time and per-layer numbers.")
    commands = parser.add_subparsers(dest="command", required=True)
    add_run_arguments(commands.add_parser(
        "run", help="measure (all workloads, or one with --workload)"))
    compare = commands.add_parser(
        "compare", help="compare two result documents written by run --out")
    compare.add_argument("base")
    compare.add_argument("new")
    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare_files(args.base, args.new)
    return run_main(args)
