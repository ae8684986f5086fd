"""IOL003 — the simulated world must be deterministic.

The torture rig's whole value is the *deterministic replay*: a failure
at (site, occurrence, seed) must reproduce bit-for-bit.  Wall-clock
reads and module-level (shared, unseeded) RNG calls in the simulation
layers break that.  Virtual time comes from ``kernel.now``; randomness
comes from an explicitly seeded ``random.Random`` instance.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint import astutil
from repro.lint.rules.base import Rule
from repro.lint.source import ModuleSource
from repro.lint.violations import Violation

# Layers that must be deterministic.  bench/ is exempt by design: it
# measures the simulator's real wall-clock cost.
SCOPED_DIRS = ("sim/", "ftl/", "core/", "nand/", "workloads/", "torture/",
               "faults/", "replicate/")

WALLCLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
})
DATETIME_CALLS = ("datetime.now", "datetime.utcnow", "datetime.today",
                  "date.today")
FORBIDDEN_TIME_IMPORTS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "process_time", "process_time_ns",
})
ALLOWED_RANDOM_ATTRS = frozenset({"Random"})


class DeterminismRule(Rule):
    code = "IOL003"
    name = "determinism"
    description = ("no wall-clock reads or module-level RNG in sim/, "
                   "ftl/, core/, nand/, workloads/, torture/, faults/, "
                   "replicate/")
    pragma = "allow-nondeterminism"

    def check(self, module: ModuleSource) -> Iterator[Violation]:
        if not module.package_rel.startswith(SCOPED_DIRS):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(module, node)
            elif isinstance(node, ast.ImportFrom):
                yield from self._check_import(module, node)

    def _check_call(self, module: ModuleSource,
                    call: ast.Call) -> Iterator[Violation]:
        target = astutil.call_target(call)
        if target is None:
            return
        if target in WALLCLOCK_CALLS:
            yield self.violation(
                module, call,
                f"{target}() reads the wall clock; simulated layers "
                f"must use the kernel's virtual time")
            return
        if target == "datetime.datetime.now" \
                or any(target == name or target.endswith("." + name)
                       for name in DATETIME_CALLS):
            yield self.violation(
                module, call,
                f"{target}() is nondeterministic; thread a timestamp "
                f"in explicitly if one is needed")
            return
        head, _sep, attr = target.partition(".")
        if head == "random" and attr and "." not in attr \
                and attr not in ALLOWED_RANDOM_ATTRS:
            yield self.violation(
                module, call,
                f"module-level random.{attr}() shares unseeded global "
                f"state; use a seeded random.Random instance")

    def _check_import(self, module: ModuleSource,
                      node: ast.ImportFrom) -> Iterator[Violation]:
        if node.module == "time":
            for alias in node.names:
                if alias.name in FORBIDDEN_TIME_IMPORTS:
                    yield self.violation(
                        module, node,
                        f"'from time import {alias.name}' pulls in a "
                        f"wall-clock source; simulated layers must use "
                        f"virtual time")
        elif node.module == "random":
            for alias in node.names:
                if alias.name not in ALLOWED_RANDOM_ATTRS:
                    yield self.violation(
                        module, node,
                        f"'from random import {alias.name}' exposes the "
                        f"unseeded global RNG; import random.Random and "
                        f"seed it")
