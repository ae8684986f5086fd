"""The base FTL: a simulation of the Fusion-io Virtual Storage Layer.

Provides the "vanilla" remap-on-write FTL of paper §5.2 — forward map,
validity bitmap, log-structured segments, segment cleaner, checkpoint,
and log-scan crash recovery — on top of :mod:`repro.nand`.
"""

from repro.ftl.btree import BPlusTree
from repro.ftl.cleaner import SegmentCleaner
from repro.ftl.fsck import fsck
from repro.ftl.log import Log, Segment, SegmentState
from repro.ftl.packet import (
    SnapActivateNote,
    SnapCreateNote,
    SnapDeactivateNote,
    SnapDeleteNote,
    TrimNote,
    decode_note,
    encode_note,
)
from repro.ftl.ratelimit import CleanerPacer, DutyCycleLimiter, NullLimiter
from repro.ftl.recovery import ScannedPacket, fold_winners, recover, scan_log
from repro.ftl.validity import ValidityBitmap, merge_pages, popcount
from repro.ftl.vsl import FtlConfig, FtlMetrics, VslDevice

__all__ = [
    "BPlusTree",
    "CleanerPacer",
    "DutyCycleLimiter",
    "FtlConfig",
    "FtlMetrics",
    "Log",
    "NullLimiter",
    "ScannedPacket",
    "Segment",
    "SegmentCleaner",
    "SegmentState",
    "SnapActivateNote",
    "SnapCreateNote",
    "SnapDeactivateNote",
    "SnapDeleteNote",
    "TrimNote",
    "ValidityBitmap",
    "VslDevice",
    "decode_note",
    "encode_note",
    "fold_winners",
    "fsck",
    "merge_pages",
    "popcount",
    "recover",
    "scan_log",
]
