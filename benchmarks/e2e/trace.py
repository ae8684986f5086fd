"""The traced run: host self time per layer and sim spans per entry point.

Two instruments, both applied from outside ``src/``:

(a) **host**: ``cProfile`` around the timed phase; each function's
    ``tottime`` is summed into the layer named after its source module
    under ``src/repro``.  cProfile taxes every Python call but no
    native work, so the shares are a guide to where to look — claims
    are made against the untraced ``host_ops_per_s``.

(b) **sim**: generator wrappers installed as instance attributes over
    the public layer entry points of one device.  A span records its
    name, start/end ``kernel.now``, the kernel process it ran in and
    its parent span: the enclosing span of the same process, or, for
    the first span of a spawned process, the span that was open in the
    spawner (how a scan's header reads point at their activation).
    A span's self time is its duration minus the part of that interval
    its child spans cover.

Spans inside ``src/repro`` are a later change (ROADMAP ``repro.sim.trace``).
"""

from __future__ import annotations

import cProfile
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from benchmarks.e2e.measure import NS_PER_MS, NS_PER_US, percentile

#: (attribute path from the device, method, span name).  The span name's
#: prefix is the layer it is charged to.
ENTRY_POINTS = (
    ("", "write_proc", "ftl.vsl.write_proc"),
    ("", "read_proc", "ftl.vsl.read_proc"),
    ("", "trim_proc", "ftl.vsl.trim_proc"),
    ("", "quiesce_begin", "ftl.vsl.quiesce"),
    ("", "snapshot_activate_proc", "core.activation.activate"),
    ("log", "append", "ftl.log.append"),
    ("map", "fault_proc", "ftl.mapcache.fault"),   # bounded map only
    ("cleaner", "clean_segment", "ftl.cleaner.clean"),
    ("nand", "program_page", "nand.device.program"),
    ("nand", "read_page", "nand.device.read_page"),
    ("nand", "read_header", "nand.device.read_header"),
    ("nand", "erase_block", "nand.device.erase"),
)

#: Spans kept verbatim for trace-<workload>.json; every span still
#: feeds the per-name totals.
MAX_SPANS_WRITTEN = 20_000

#: src/repro module (path suffix) -> layer for host self time.  A prefix
#: ending in "/" claims a whole package.
_LAYER_OF_MODULE = {
    "sim/kernel.py": "sim.kernel",
    "sim/resources.py": "sim.resources",
    "nand/device.py": "nand.device",
    "nand/queue.py": "nand.queue",
    "nand/chip.py": "nand.chip",
    "ftl/vsl.py": "ftl.vsl",
    "ftl/log.py": "ftl.log",
    "ftl/btree.py": "ftl.btree",
    "ftl/mapcache.py": "ftl.mapcache",
    "ftl/cleaner.py": "ftl.cleaner",
    "ftl/validity.py": "ftl.validity",
    "core/iosnap.py": "core.iosnap",
    "core/cow_bitmap.py": "core.cow_bitmap",
    "core/epoch_index.py": "core.epoch_index",
    "core/activation.py": "core.activation",
    # The "unused features" the ROADMAP wants to be free.
    "sanitize.py": "checks",
    "races/runtime.py": "checks",
    "torture/sites.py": "checks",
    "faults/": "checks",
}
HOST_LAYERS = tuple(dict.fromkeys(_LAYER_OF_MODULE.values())) \
    + ("builtins", "other", "bench", "trace")


class Span:
    __slots__ = ("ident", "name", "start", "end", "proc", "parent",
                 "children")

    def __init__(self, ident: int, name: str, start: int, proc: str,
                 parent: Optional["Span"]) -> None:
        self.ident = ident
        self.name = name
        self.start = start
        self.end = -1          # open
        self.proc = proc
        self.parent = parent
        self.children: List[Tuple[int, int]] = []


def _covered(intervals: List[Tuple[int, int]], start: int, end: int) -> int:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    covered = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


class Tracer:
    """Span recorder for one device on one kernel."""

    def __init__(self, dev) -> None:
        self.kernel = dev.kernel
        self.written: List[Span] = []
        self.count = 0
        self.durations: Dict[str, List[int]] = {}
        self.self_ns: Dict[str, int] = {}
        self._top: Dict[Any, Span] = {}        # process -> innermost open span
        self._inherit: Dict[Any, Span] = {}    # spawned process -> causing span
        self._installed: List[Any] = []        # (object, attribute) pairs
        self._install(dev)

    # -- installation --------------------------------------------------------
    def _install(self, dev) -> None:
        for path, method, name in ENTRY_POINTS:
            target = getattr(dev, path) if path else dev
            if hasattr(target, method):
                setattr(target, method,
                        self._traced(name, getattr(target, method)))
                self._installed.append((target, method))
            self.durations[name] = []
            self.self_ns[name] = 0
        spawn = self.kernel.spawn

        def spawn_traced(gen, name: str = ""):
            proc = spawn(gen, name=name)
            cause = self._top.get(self.kernel.current)
            if cause is not None:
                self._inherit[proc] = cause
            return proc

        self.kernel.spawn = spawn_traced
        self._installed.append((self.kernel, "spawn"))

    def finish(self) -> Dict[str, Any]:
        """End of the timed phase: take the wrappers off and freeze the
        results (spans still open, such as a clean in flight, stay open)."""
        for target, attribute in self._installed:
            delattr(target, attribute)
        return {"sim_metrics": self.sim_metrics(),
                "span_table": self.span_table(), "spans": self.spans_json(),
                "spans_total": self.count}

    def _traced(self, name: str, fn: Callable[..., Generator]) -> Callable:
        kernel, top, inherit = self.kernel, self._top, self._inherit

        def wrapper(*args, **kwargs):
            proc = kernel.current
            enclosing = top.get(proc)
            parent = enclosing
            if parent is None:
                parent = inherit.pop(proc, None)
                if parent is not None and parent.end >= 0:
                    parent = None   # the spawner's span closed long ago
            span = Span(self.count, name, kernel.now,
                        proc.name if proc is not None else "main", parent)
            self.count += 1
            if len(self.written) < MAX_SPANS_WRITTEN:
                self.written.append(span)
            top[proc] = span
            try:
                return (yield from fn(*args, **kwargs))
            finally:
                self._close(span)
                if enclosing is None:
                    del top[proc]
                else:
                    top[proc] = enclosing

        return wrapper

    def _close(self, span: Span) -> None:
        span.end = end = self.kernel.now
        duration = end - span.start
        self.durations[span.name].append(duration)
        self.self_ns[span.name] += \
            duration - _covered(span.children, span.start, end)
        span.children = []
        parent = span.parent
        if parent is not None and parent.end < 0:
            parent.children.append((span.start, end))

    # -- results ----------------------------------------------------------------
    def sim_metrics(self) -> Dict[str, float]:
        """The ``*.sim_*`` per-layer metrics that need spans."""
        def self_ms(name):
            return self.self_ns[name] / NS_PER_MS

        def total_ms(name):
            return sum(self.durations[name]) / NS_PER_MS

        def p99_us(name):
            return percentile(sorted(self.durations[name]), 99) / NS_PER_US

        return {
            "nand.device.program.sim_self_ms": self_ms("nand.device.program"),
            "nand.device.program.sim_p99_us": p99_us("nand.device.program"),
            "nand.device.read_page.sim_self_ms":
                self_ms("nand.device.read_page"),
            "nand.device.read_header.sim_self_ms":
                self_ms("nand.device.read_header"),
            "nand.device.erase.sim_self_ms": self_ms("nand.device.erase"),
            "ftl.vsl.write_proc.sim_self_ms": self_ms("ftl.vsl.write_proc"),
            "ftl.vsl.write_proc.sim_p99_us": p99_us("ftl.vsl.write_proc"),
            "ftl.vsl.read_proc.sim_self_ms": self_ms("ftl.vsl.read_proc"),
            "ftl.vsl.read_proc.sim_p99_us": p99_us("ftl.vsl.read_proc"),
            "ftl.vsl.quiesce.sim_total_ms": total_ms("ftl.vsl.quiesce"),
            "ftl.log.append.sim_self_ms": self_ms("ftl.log.append"),
            "ftl.log.append.sim_p99_us": p99_us("ftl.log.append"),
            "ftl.mapcache.fault.sim_total_ms": total_ms("ftl.mapcache.fault"),
        }

    def span_table(self) -> Dict[str, Dict[str, float]]:
        return {name: {"count": len(durations),
                       "sim_total_ms": sum(durations) / NS_PER_MS,
                       "sim_self_ms": self.self_ns[name] / NS_PER_MS}
                for name, durations in self.durations.items()}

    def spans_json(self) -> List[Dict[str, Any]]:
        return [{"id": s.ident, "name": s.name, "start_ns": s.start,
                 "end_ns": s.end if s.end >= 0 else None, "process": s.proc,
                 "parent": s.parent.ident if s.parent is not None else None}
                for s in self.written]


def _layer_of(filename: str) -> str:
    marker = filename.rfind("/repro/")
    if marker >= 0 and "/src/" in filename[:marker + 1]:
        module = filename[marker + len("/repro/"):]
        layer = _LAYER_OF_MODULE.get(module) \
            or _LAYER_OF_MODULE.get(module.split("/", 1)[0] + "/")
        return layer or "other"
    if filename.endswith("benchmarks/e2e/trace.py"):
        return "trace"
    if "/benchmarks/e2e/" in filename:
        return "bench"
    return "other"


def host_self_by_layer(profile: cProfile.Profile) -> Dict[str, float]:
    """Sum cProfile ``tottime`` by layer; every layer is present."""
    out = {layer: 0.0 for layer in HOST_LAYERS}
    for entry in profile.getstats():
        code = entry.code
        layer = "builtins" if isinstance(code, str) \
            else _layer_of(code.co_filename)
        out[layer] += entry.inlinetime
    return out
