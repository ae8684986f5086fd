"""ioSnap reproduction: flash-optimized snapshots in a simulated FTL.

Reproduction of "Snapshots in a Flash with ioSnap" (EuroSys 2014).
The public API re-exports the pieces most users need:

- :class:`IoSnapDevice` — the paper's system: an FTL with native
  snapshots (create/delete/activate/deactivate).
- :class:`VslDevice` — the vanilla log-structured FTL it extends.
- :class:`BtrfsLikeDevice` — the disk-optimized CoW comparator.
- :class:`Kernel` — the discrete-event simulator everything runs on.

Quickstart::

    from repro import Kernel, IoSnapDevice

    kernel = Kernel()
    device = IoSnapDevice.create(kernel)
    device.write(0, b"hello")
    snap = device.snapshot_create("before-edit")
    device.write(0, b"world")
    view = device.snapshot_activate(snap)
    assert view.read(0)[:5] == b"hello"
    assert device.read(0)[:5] == b"world"
"""

from repro.baselines import BtrfsConfig, BtrfsLikeDevice
from repro.compat import ByteVolume
from repro.core import (
    ActivatedSnapshot,
    CowValidityBitmap,
    IoSnapConfig,
    IoSnapDevice,
    Snapshot,
    SnapshotTree,
)
from repro.errors import (
    AddressError,
    CheckpointError,
    FtlError,
    LbaError,
    NandError,
    OutOfSpaceError,
    ProgramOrderError,
    ReproError,
    SnapshotError,
    UncorrectableError,
    WearOutError,
)
from repro.ftl import (
    BPlusTree,
    DutyCycleLimiter,
    FtlConfig,
    NullLimiter,
    ValidityBitmap,
    VslDevice,
)
from repro.nand import (
    BitErrorModel,
    NandConfig,
    NandDevice,
    NandGeometry,
    NandTiming,
    OobHeader,
    PageKind,
    WearModel,
)
from repro.sim import Kernel

__version__ = "1.0.0"

__all__ = [
    "ActivatedSnapshot",
    "AddressError",
    "BPlusTree",
    "BitErrorModel",
    "BtrfsConfig",
    "BtrfsLikeDevice",
    "ByteVolume",
    "CheckpointError",
    "CowValidityBitmap",
    "DutyCycleLimiter",
    "FtlConfig",
    "FtlError",
    "IoSnapConfig",
    "IoSnapDevice",
    "Kernel",
    "LbaError",
    "NandConfig",
    "NandDevice",
    "NandError",
    "NandGeometry",
    "NandTiming",
    "NullLimiter",
    "OobHeader",
    "OutOfSpaceError",
    "PageKind",
    "ProgramOrderError",
    "ReproError",
    "Snapshot",
    "SnapshotError",
    "SnapshotTree",
    "UncorrectableError",
    "ValidityBitmap",
    "VslDevice",
    "WearModel",
    "WearOutError",
]
