"""Per-function lock-span model shared by IOL008 and IOL009.

Both rules need the same intraprocedural facts about a function:
which expressions denote locks of which *class* (see
:mod:`repro.lint.shared`), where each class is acquired and released,
the resulting textual spans, and which lock classes are held at each
outgoing call.  This module computes them once, by a line-ordered scan:

* **classification** — ``self._alloc_lock`` and friends via
  :data:`repro.lint.shared.LOCK_ATTRS`; ``self._lock_for(head)`` via
  :data:`~repro.lint.shared.LOCK_FACTORIES`; ``Lock(k, name="x:y")``
  constructors via the name prefix; locals assigned from any of these
  (including through subscripts, ``die = self.dies[i]``) propagate.
* **events** — every ``<lock>.acquire()`` / ``try_acquire()`` is an
  acquisition, ``release()`` / ``hand_off()`` a release.  The guarded
  idiom ``if not x.try_acquire(): yield x.acquire()`` counts once.
* **simulation** — a multiset of held classes replayed in line order
  yields the spans, the order edges (class A held while acquiring B),
  and the held-set snapshot at each ``self.<method>()`` call site for
  the interprocedural fixpoint in IOL008.

This is a *textual* model: it trusts source order within one function
and does not follow control flow.  That is the right fidelity for a
lint — the enforced idioms (IOL006 pairing, yield-free spans) keep
acquire/release textually ordered.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.lint import astutil
from repro.lint import shared

#: Layers where lock discipline is checked (mirrors IOL003's scope).
SCOPED_DIRS = ("sim/", "ftl/", "core/", "nand/", "workloads/", "torture/",
               "faults/", "replicate/")

#: The resource primitives themselves are the implementation, not users.
IMPLEMENTATION_MODULES = frozenset({"sim/resources.py"})

ACQUIRE_METHODS = frozenset({"acquire", "try_acquire"})
RELEASE_METHODS = frozenset({"release", "hand_off"})


@dataclass
class LockEvent:
    lineno: int
    kind: str                    # "acq" or "rel"
    cls: str


@dataclass
class CallSite:
    lineno: int
    callee: str                  # bare method/function name
    held: Tuple[str, ...]        # lock classes held at the call


@dataclass
class OrderEdge:
    held_cls: str
    acquired_cls: str
    lineno: int


@dataclass
class FuncLocks:
    """Everything IOL008/IOL009 need to know about one function."""

    name: str
    lineno: int
    end_lineno: int
    events: List[LockEvent] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    edges: List[OrderEdge] = field(default_factory=list)
    acquired: Set[str] = field(default_factory=set)
    # class -> [(first line, last line)] textual spans where it is held.
    spans: Dict[str, List[Tuple[int, int]]] = field(default_factory=dict)

    def covered(self, lineno: int, cls: Optional[str] = None) -> bool:
        """Is ``lineno`` inside a span (of ``cls``, or of any class)?"""
        classes = (cls,) if cls is not None else tuple(self.spans)
        for candidate in classes:
            for start, end in self.spans.get(candidate, ()):
                if start <= lineno <= end:
                    return True
        return False


def lock_class_of(expr: ast.AST,
                  lock_vars: Dict[str, str]) -> Optional[str]:
    """The lock class an expression denotes, or None."""
    if isinstance(expr, ast.Name):
        return lock_vars.get(expr.id)
    if isinstance(expr, ast.Attribute):
        if astutil.dotted(expr.value) == "self" \
                and expr.attr in shared.LOCK_ATTRS:
            return shared.LOCK_ATTRS[expr.attr]
        return None
    if isinstance(expr, ast.Subscript):
        return lock_class_of(expr.value, lock_vars)
    if isinstance(expr, ast.Call):
        target = astutil.call_target(expr)
        if target is None:
            return None
        bare = target.rsplit(".", 1)[-1]
        if bare in shared.LOCK_FACTORIES:
            return shared.LOCK_FACTORIES[bare]
        if bare == "Lock":
            name = astutil.str_const(astutil.keyword_arg(expr, "name"))
            if name:
                return name.split(":", 1)[0]
        return None
    return None


def _guarded_reacquires(func: ast.AST) -> Set[int]:
    """ids of ``acquire()`` calls that re-try a failed ``try_acquire``.

    The idiom ``if not x.try_acquire(): yield x.acquire()`` performs
    ONE acquisition; counting both calls would fabricate a self-edge.
    """
    skip: Set[int] = set()
    for node in astutil.walk_own(func):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        if not (isinstance(test, ast.UnaryOp)
                and isinstance(test.op, ast.Not)
                and isinstance(test.operand, ast.Call)
                and isinstance(test.operand.func, ast.Attribute)
                and test.operand.func.attr == "try_acquire"):
            continue
        guard_recv = ast.dump(test.operand.func.value)
        for sub in node.body:
            for inner in ast.walk(sub):
                if (isinstance(inner, ast.Call)
                        and isinstance(inner.func, ast.Attribute)
                        and inner.func.attr == "acquire"
                        and ast.dump(inner.func.value) == guard_recv):
                    skip.add(id(inner))
    return skip


def _lock_vars(func: ast.AST) -> Dict[str, str]:
    """Locals that hold classified locks (single textual pass, in order)."""
    assigns = [node for node in astutil.walk_own(func)
               if isinstance(node, ast.Assign)
               and len(node.targets) == 1
               and isinstance(node.targets[0], ast.Name)]
    assigns.sort(key=lambda node: node.lineno)
    lock_vars: Dict[str, str] = {}
    for node in assigns:
        cls = lock_class_of(node.value, lock_vars)
        if cls is not None:
            lock_vars[node.targets[0].id] = cls
    return lock_vars


def analyze_function(func: ast.AST) -> FuncLocks:
    """Build the lock model for one function definition."""
    info = FuncLocks(name=getattr(func, "name", "<lambda>"),
                     lineno=func.lineno,
                     end_lineno=getattr(func, "end_lineno", func.lineno))
    lock_vars = _lock_vars(func)
    skip = _guarded_reacquires(func)

    raw: List[Tuple[int, int, str, str]] = []   # (line, order, kind, cls/name)
    for node in astutil.walk_own(func):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr in ACQUIRE_METHODS | RELEASE_METHODS:
            cls = lock_class_of(node.func.value, lock_vars)
            if cls is None or id(node) in skip:
                continue
            kind = "acq" if node.func.attr in ACQUIRE_METHODS else "rel"
            raw.append((node.lineno, 0, kind, cls))
            continue
        target = astutil.call_target(node)
        if target is None:
            continue
        parts = target.split(".")
        if len(parts) == 1:
            raw.append((node.lineno, 1, "call", parts[0]))
        elif len(parts) == 2 and parts[0] == "self":
            raw.append((node.lineno, 1, "call", parts[1]))
    raw.sort(key=lambda item: (item[0], item[1]))

    held: Dict[str, int] = {}
    open_line: Dict[str, int] = {}
    for lineno, _order, kind, name in raw:
        if kind == "acq":
            for cls, count in held.items():
                if count > 0:
                    info.edges.append(OrderEdge(cls, name, lineno))
            if held.get(name, 0) == 0:
                open_line[name] = lineno
            held[name] = held.get(name, 0) + 1
            info.acquired.add(name)
            info.events.append(LockEvent(lineno, "acq", name))
        elif kind == "rel":
            count = held.get(name, 0)
            if count == 1:
                info.spans.setdefault(name, []).append(
                    (open_line.pop(name), lineno))
            if count > 0:
                held[name] = count - 1
            info.events.append(LockEvent(lineno, "rel", name))
        else:
            snapshot = tuple(sorted(
                cls for cls, count in held.items() if count > 0))
            info.calls.append(CallSite(lineno, name, snapshot))
    for cls, count in held.items():
        if count > 0 and cls in open_line:
            # Never textually released (hand-off protocols release
            # elsewhere): treat as held to the end of the function.
            info.spans.setdefault(cls, []).append(
                (open_line[cls], info.end_lineno))
    return info
