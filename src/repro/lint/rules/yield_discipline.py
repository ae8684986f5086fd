"""IOL009 — registered shared state must not straddle a yield unprotected.

Every ``yield`` is a scheduling point: whatever invariant a function
was mid-way through re-establishing is visible to every other process.
For the shared state declared in :mod:`repro.lint.shared` this rule
enforces two disciplines per function:

**(a) declared-lock writes.**  Attributes whose registry entry names a
``lock_class`` (the striped allocator's ``_free``/``_reserve`` pools
under ``"log.free"``) may only be written inside a textual span of
that class.  ``__init__``/``__post_init__`` are exempt — construction
precedes sharing.

**(b) read/yield/write straddles.**  A registered attribute read
before a ``yield`` and written after it is a lost-update window: the
value the write was computed from may be stale by the time it lands.
The yield is fine when a lock span covers it (the registry's declared
class, or any classified lock for entries that rely on per-instance
locks)::

    seg = self._open.get(head)          # read
    yield self.kernel.timeout(1)        # IOL009: unprotected yield
    self._open[head] = seg.successor()  # write of the stale decision

Genuinely safe straddles (e.g. the caller holds the protecting lock
across a ``yield from`` into this helper, which a per-function scan
cannot see) carry ``# lint: allow-yield-straddle(reason)`` on the
yield line.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Tuple

from repro.lint import astutil
from repro.lint.rules import lockmodel
from repro.lint.rules.base import Rule
from repro.lint.source import ModuleSource
from repro.lint.violations import Violation
from repro.lint import shared

#: Method names that mutate their receiver (containers, maps, bitmaps).
MUTATORS = frozenset({
    "insert", "delete", "append", "appendleft", "pop", "popleft",
    "push", "add", "remove", "discard", "clear", "update", "extend",
    "setdefault", "set", "set_bit", "clear_bit",
})

#: Construction happens before the object is shared.
EXEMPT_FUNCS = frozenset({"__init__", "__post_init__"})


class YieldDisciplineRule(Rule):
    code = "IOL009"
    name = "yield-discipline"
    description = ("registered shared state is not read before and "
                   "written after an unprotected yield, and "
                   "declared-lock attributes are written only inside "
                   "their lock span")
    pragma = "allow-yield-straddle"

    def check(self, module: ModuleSource) -> Iterator[Violation]:
        if not module.package_rel.startswith(lockmodel.SCOPED_DIRS) \
                or module.package_rel in lockmodel.IMPLEMENTATION_MODULES:
            return
        entries = [entry for entry in shared.REGISTRY
                   if module.package_rel in entry.modules]
        if not entries:
            return
        for func in astutil.functions(module.tree):
            yield from self._check_function(module, func, entries)

    def _check_function(self, module: ModuleSource, func: ast.AST,
                        entries: List[shared.SharedState]
                        ) -> Iterator[Violation]:
        info = lockmodel.analyze_function(func)
        parents = _parent_map(func)
        yields = [node.lineno for node in astutil.walk_own(func)
                  if isinstance(node, (ast.Yield, ast.YieldFrom))]
        for entry in entries:
            accesses = _accesses(func, parents, entry)
            if not accesses:
                continue
            reads = [line for line, kind in accesses if kind == "r"]
            writes = [line for line, kind in accesses if kind == "w"]
            attrs = "/".join(f"self.{attr}" for attr in entry.attrs)
            if entry.lock_class is not None \
                    and info.name not in EXEMPT_FUNCS:
                for line in writes:
                    if not info.covered(line, entry.lock_class):
                        yield self.violation(
                            module, func, line=line,
                            message=f"in {info.name}(): write to {attrs} "
                                    f"outside a {entry.lock_class!r} lock "
                                    f"span; the registry declares that "
                                    f"class as its protection "
                                    f"({entry.description})")
            for yline in yields:
                if info.covered(yline):
                    continue
                if any(r < yline for r in reads) \
                        and any(w > yline for w in writes):
                    read_line = max(r for r in reads if r < yline)
                    write_line = min(w for w in writes if w > yline)
                    yield self.violation(
                        module, func, line=yline,
                        message=f"in {info.name}(): {attrs} is read at "
                                f"line {read_line} and written at line "
                                f"{write_line} across this unprotected "
                                f"yield; another process can update it "
                                f"in between and the write clobbers "
                                f"that update ({entry.description})")


def _parent_map(func: ast.AST) -> Dict[int, ast.AST]:
    parents: Dict[int, ast.AST] = {}
    for node in ast.walk(func):
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    return parents


def _accesses(func: ast.AST, parents: Dict[int, ast.AST],
              entry: shared.SharedState) -> List[Tuple[int, str]]:
    """(line, "r"/"w") for every ``self.<attr>`` touch of the entry."""
    out: List[Tuple[int, str]] = []
    for node in astutil.walk_own(func):
        if not (isinstance(node, ast.Attribute)
                and node.attr in entry.attrs
                and astutil.dotted(node.value) == "self"):
            continue
        out.append((node.lineno, _classify(node, parents)))
    out.sort()
    return out


def _classify(node: ast.Attribute, parents: Dict[int, ast.AST]) -> str:
    """Is this attribute reference a read or a mutation?"""
    if isinstance(node.ctx, (ast.Store, ast.Del)):
        return "w"
    current: ast.AST = node
    while True:
        parent = parents.get(id(current))
        if isinstance(parent, ast.Subscript) and parent.value is current:
            if isinstance(parent.ctx, (ast.Store, ast.Del)):
                return "w"
            current = parent
            continue
        if isinstance(parent, ast.Attribute) and parent.value is current:
            grand = parents.get(id(parent))
            if isinstance(grand, ast.Call) and grand.func is parent \
                    and parent.attr in MUTATORS:
                return "w"
            if isinstance(parent.ctx, (ast.Store, ast.Del)):
                return "w"
            return "r"
        if isinstance(parent, ast.AugAssign) and parent.target is current:
            return "w"
        return "r"
