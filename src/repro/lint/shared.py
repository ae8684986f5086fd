"""The shared-state registry: what the concurrency lint rules watch.

One declaration, consumed by the static lock rules:

* the yield-discipline rule (IOL009) flags accesses to a registered
  attribute that straddle a ``yield`` without a protecting lock span,
  and writes to attributes with a *declared* lock class made outside a
  span of that class;
* the lock-order rule (IOL008) classifies lock receivers via
  :data:`LOCK_ATTRS` / :data:`LOCK_FACTORIES` (see
  :mod:`repro.lint.rules.lockmodel`) to build the global
  acquisition-order graph.

The kernel is cooperative, so an entry without a ``lock_class`` is
protected by *cooperative atomicity*: it is only touched between two
yields of one process (or under per-instance locks the lock model
classifies), and IOL009's straddle check is what enforces that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class SharedState:
    """One registered piece of shared FTL state."""

    attrs: Tuple[str, ...]       # ``self.<attr>`` names the rules watch
    modules: Tuple[str, ...]     # package_rel paths that own the attrs
    lock_class: Optional[str]    # declared protecting lock class, or None
    description: str


REGISTRY: Tuple[SharedState, ...] = (
    SharedState(
        attrs=("_open",),
        modules=("ftl/log.py",),
        lock_class=None,          # per-head instances, not one class
        description="per-head open-segment table: which segment each "
                    "append head is filling and its write offset",
    ),
    SharedState(
        attrs=("_free", "_reserve"),
        modules=("ftl/log.py",),
        lock_class="log.free",
        description="striped segment allocator free/reserve pools",
    ),
    SharedState(
        attrs=("map",),
        modules=("ftl/vsl.py", "core/iosnap.py"),
        lock_class=None,
        description="forward map (LBA -> PPN B+ tree); cooperative "
                    "atomicity: lookup and install never straddle a yield",
    ),
    SharedState(
        attrs=("_gtd", "_pages", "_dirty"),
        modules=("ftl/mapcache.py",),
        lock_class=None,
        description="flash-resident map cache: global translation "
                    "directory, resident translation-page LRU, and "
                    "dirty set; cooperative atomicity — every "
                    "post-yield mutation re-validates residency and "
                    "GTD currency in one resumption",
    ),
    SharedState(
        attrs=("validity", "_seg_valid"),
        modules=("ftl/vsl.py", "core/iosnap.py"),
        lock_class=None,
        description="validity bitmap and per-segment valid counts",
    ),
    SharedState(
        attrs=("_epoch_bitmaps",),
        modules=("core/iosnap.py",),
        lock_class=None,
        description="per-epoch CoW validity bitmaps",
    ),
    SharedState(
        attrs=("_epoch_index",),
        modules=("core/iosnap.py",),
        lock_class=None,
        description="durable per-segment epoch-summary index",
    ),
    SharedState(
        attrs=("_committed",),
        modules=("replicate/cursor.py",),
        lock_class=None,
        description="committed replication cursors (host watermark file)",
    ),
)

#: ``self.<attr>`` receivers that *are* locks, and their lock class.
#: Die/channel queues are plain capacity-1 resources, not Locks, but
#: they serialize all the same — the lock-order rule ranks them.
LOCK_ATTRS: Dict[str, str] = {
    "_head_locks": "log.head",
    "_alloc_lock": "log.free",
    "dies": "nand.die",
    "channels": "nand.channel",
}

#: method/factory names whose return value is a lock of the given class.
LOCK_FACTORIES: Dict[str, str] = {
    "_lock_for": "log.head",
}
