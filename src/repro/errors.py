"""Exception hierarchy shared across the reproduction."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class NandError(ReproError):
    """Physical-layer misuse or failure (bad address, program order, wear)."""


class AddressError(NandError):
    """Physical or logical address out of range."""


class ProgramOrderError(NandError):
    """Pages within an erase block must be programmed sequentially."""


class WearOutError(NandError):
    """An erase block exceeded its program/erase cycle budget."""


class MediaError(NandError):
    """Base class for flash media faults (see :mod:`repro.faults`).

    The typed surface the FTL's self-healing machinery keys on:
    correctable reads are absorbed by ECC, uncorrectable reads and
    program/erase failures trigger relocation, retirement, or damage
    reporting.  Lint rule IOL007 enforces that handlers never swallow
    these silently.
    """


class CorrectableError(MediaError):
    """Bit errors within ECC reach (classification result, not raised
    on the read path — the read succeeds after correction/retry)."""


class UncorrectableError(MediaError):
    """Bit errors exceeded ECC correction capability, retries included."""


class ProgramFailError(MediaError):
    """A page program failed; the slot is burned and must be skipped.

    The FTL re-allocates a fresh PPN and re-programs there (validity
    bits and the epoch-summary index follow the final location).
    """


class EraseFailError(MediaError):
    """A block erase failed; the containing segment must be retired."""


class BadBlockError(MediaError):
    """Operation on a block marked grown-bad by the fault model."""


class TornPageError(NandError):
    """Read of a page whose program was interrupted by power loss.

    The page occupies its slot in the block's program order, but its
    OOB checksum can never verify — the torture rig's model of a torn
    write.
    """


class PowerLossError(ReproError):
    """An injected power cut fired (see :mod:`repro.torture.power`).

    Raised at the crash site and by every subsequent operation on the
    dead device: after the cut, nothing executes until the next open.
    """


class CrashSiteError(ReproError):
    """A crash-site name is missing from the central registry.

    Raised by :mod:`repro.torture.sites` when an operation threads a
    site name the registry does not know — such a site would be
    invisible to the torture sweep (see IOL001 in :mod:`repro.lint`).
    """


class SanitizerError(ReproError):
    """A runtime invariant armed by ``REPRO_SANITIZE=1`` failed.

    See :mod:`repro.sanitize`: these checks are compiled out of the hot
    path unless the sanitizer is enabled, and a failure means internal
    state broke an invariant the rest of the system relies on.
    """


class FtlError(ReproError):
    """Logical-layer error in the FTL."""


class OutOfSpaceError(FtlError):
    """The log has no free segments and cleaning cannot make progress."""


class LbaError(FtlError):
    """Logical block address out of the exported range."""


class CheckpointError(FtlError):
    """Missing or unusable checkpoint on device open."""


class DegradedModeError(FtlError):
    """The device is in read-only degraded mode.

    Entered when media retirement eats the spare-capacity reserve (see
    :mod:`repro.faults` and ``docs/faults.md``): foreground writes,
    trims, and snapshot creates are refused so the remaining good
    segments can keep the existing data readable.
    """


class SnapshotError(ReproError):
    """Snapshot-layer misuse (unknown snapshot, double delete, ...)."""


class ReplicationError(ReproError):
    """Snapshot send/receive failed (see :mod:`repro.replicate`).

    Raised for wire corruption (a record CRC that does not verify),
    stream/cursor mismatches on resume, digest verification failures
    at finalize, and sends that hit uncorrectable media.  A transfer
    that dies with this error is restartable from the last committed
    cursor; the error never leaves partial state the receiver counts
    as acknowledged.
    """


class SummaryIndexError(FtlError):
    """A durable segment-epoch-summary image failed validation.

    Raised by :meth:`repro.core.epoch_index.SegmentEpochIndex.restore`
    when a checkpointed index does not match the log state it claims to
    describe; callers fall back to rebuilding the index from media.
    """

