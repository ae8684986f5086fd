"""IOL008 — a single global lock acquisition order.

Deadlock needs four ingredients; the one a linter can kill is circular
wait.  This rule collects, per function, which lock *classes* (see
:mod:`repro.lint.shared`) are acquired while which others are held —
interprocedurally, by propagating each callee's transitively-acquired
classes to its ``self.<method>()`` call sites — and builds one global
acquisition-order graph over the whole source tree.  A cycle means two
code paths rank the same classes in opposite orders, so two processes
can each hold what the other wants::

    append():          log.head  ->  log.free      (via _open_new_segment)
    evil_refill():     log.free  ->  log.head      # IOL008, both edges

Self-edges count: acquiring a second ``log.head`` instance while one
is held deadlocks against any process doing the same in the opposite
instance order.  (The re-try idiom ``if not x.try_acquire(): yield
x.acquire()`` is a single acquisition, not a self-edge.)

Deliberate nestings that are safe for an out-of-band reason carry
``# lint: allow-lock-order(reason)`` on the acquiring line.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Set, Tuple

from repro.lint import astutil
from repro.lint.rules import lockmodel
from repro.lint.rules.base import Rule
from repro.lint.source import ModuleSource
from repro.lint.violations import Violation


@dataclass
class _EdgeSite:
    """One place where ``held -> acquired`` was observed."""

    module: ModuleSource
    lineno: int
    func: str
    via: str = ""                # callee chain note for call-site edges


@dataclass
class _Summary:
    """Merged facts about every function sharing one bare name."""

    acquired: Set[str] = field(default_factory=set)
    calls: List[Tuple[str, Tuple[str, ...], ModuleSource, int, str]] = \
        field(default_factory=list)


class LockOrderRule(Rule):
    code = "IOL008"
    name = "lock-order"
    description = ("lock classes are acquired in one global order; "
                   "cycles in the acquisition graph are deadlocks "
                   "waiting for a schedule")
    pragma = "allow-lock-order"

    def __init__(self) -> None:
        self.begin()

    def begin(self) -> None:
        self._summaries: Dict[str, _Summary] = {}
        self._edges: Dict[Tuple[str, str], List[_EdgeSite]] = {}

    def check(self, module: ModuleSource) -> Iterator[Violation]:
        if not module.package_rel.startswith(lockmodel.SCOPED_DIRS) \
                or module.package_rel in lockmodel.IMPLEMENTATION_MODULES:
            return
        for func in astutil.functions(module.tree):
            info = lockmodel.analyze_function(func)
            for edge in info.edges:
                self._edges.setdefault(
                    (edge.held_cls, edge.acquired_cls), []).append(
                    _EdgeSite(module, edge.lineno, info.name))
            summary = self._summaries.setdefault(info.name, _Summary())
            summary.acquired |= info.acquired
            # ALL calls are kept: held-nothing calls generate no edges
            # themselves but carry acquisitions up the call chain.
            for call in info.calls:
                summary.calls.append((call.callee, call.held, module,
                                      call.lineno, info.name))
        return
        yield  # pragma: no cover -- makes this a generator like its peers

    def finish(self) -> Iterator[Tuple[ModuleSource, Violation]]:
        transitive = self._transitive_acquires()
        for name, summary in self._summaries.items():
            for callee, held, module, lineno, func in summary.calls:
                if not held:
                    continue
                for acquired_cls in sorted(transitive.get(callee, ())):
                    for held_cls in held:
                        self._edges.setdefault(
                            (held_cls, acquired_cls), []).append(
                            _EdgeSite(module, lineno, func,
                                      via=f" (via {callee}())"))
        yield from self._report_cycles()

    def _transitive_acquires(self) -> Dict[str, Set[str]]:
        transitive = {name: set(summary.acquired)
                      for name, summary in self._summaries.items()}
        changed = True
        while changed:
            changed = False
            for name, summary in self._summaries.items():
                mine = transitive[name]
                before = len(mine)
                for callee, _held, _module, _lineno, _func in summary.calls:
                    mine |= transitive.get(callee, set())
                changed |= len(mine) != before
        return transitive

    def _report_cycles(self) -> Iterator[Tuple[ModuleSource, Violation]]:
        graph: Dict[str, Set[str]] = {}
        for held_cls, acquired_cls in self._edges:
            graph.setdefault(held_cls, set()).add(acquired_cls)
            graph.setdefault(acquired_cls, set())
        for (held_cls, acquired_cls), sites in sorted(self._edges.items()):
            if held_cls == acquired_cls:
                in_cycle, path = True, [held_cls, held_cls]
            else:
                path = self._find_path(graph, acquired_cls, held_cls)
                in_cycle = path is not None
                if in_cycle:
                    path = [held_cls] + path
            if not in_cycle:
                continue
            cycle = " -> ".join(repr(cls) for cls in path)
            for site in sites:
                yield site.module, self.violation(
                    site.module, site.module.tree, line=site.lineno,
                    message=f"in {site.func}(): acquiring lock class "
                            f"{acquired_cls!r} while holding "
                            f"{held_cls!r}{site.via} closes the "
                            f"acquisition-order cycle {cycle}; two "
                            f"processes taking these paths concurrently "
                            f"deadlock")

    @staticmethod
    def _find_path(graph: Dict[str, Set[str]], start: str,
                   goal: str) -> "List[str] | None":
        """A path start -> ... -> goal in the edge graph, or None."""
        stack: List[Tuple[str, List[str]]] = [(start, [start])]
        seen: Set[str] = set()
        while stack:
            node, path = stack.pop()
            if node == goal:
                return path
            if node in seen:
                continue
            seen.add(node)
            for succ in sorted(graph.get(node, ())):
                stack.append((succ, path + [succ]))
        return None
