"""Clean-shutdown checkpointing (paper §5.5: "the device state is fully
checkpointed only on a clean shutdown").

The checkpoint is the pickled FTL state (forward map items, validity
pages, sequence counters, live notes, and whatever extra state the
ioSnap layer adds via ``_dump_extra``), chunked into CHECKPOINT pages
appended to the log.  The superblock — the device's small out-of-band
config area — records where the chunks live, a generation number and a
CRC32 over the serialized blob, plus the log's segment bookkeeping and
the ``clean`` flag that decides between checkpoint restore and log-scan
recovery at the next open.

Torn-checkpoint handling: ``restore_checkpoint`` validates a candidate
checkpoint *completely* (read every chunk, CRC, unpickle, version
check) before mutating any FTL state, so a bad checkpoint can never
leave a half-restored device behind.  If the newest generation fails
validation, the restore falls back to the previous complete generation
(its descriptor is stashed in the superblock on every checkpoint
write) and then replays the log on top of it — the scan-based rebuild
supersedes whatever the stale generation said, so the result is
current; the validated old generation is what proves the fallback path
is intact rather than raising outright.  Only when no generation
validates does the restore raise, and ``VslDevice.open`` falls back to
pure log-scan recovery.
"""

from __future__ import annotations

import pickle
import zlib
from typing import TYPE_CHECKING, Generator, List, Optional

from repro.errors import CheckpointError, PowerLossError
from repro.ftl.btree import BPlusTree
from repro.ftl.vsl import MAP_BULK_INSERT_NS, REPLAY_PACKET_NS
from repro.nand.oob import OobHeader, PageKind
from repro.torture import sites

if TYPE_CHECKING:  # pragma: no cover
    from repro.ftl.vsl import VslDevice

# The only image version restore accepts; anything else is refused
# and the open falls back to log-scan recovery.  A flash-resident-map
# image carries ``map_items: None`` plus a ``map_gtd`` directory image
# (the map's pages already live on flash); an all-RAM image carries
# ``map_items`` and no directory.
CHECKPOINT_VERSION = 4


def write_checkpoint(ftl: "VslDevice") -> Generator:
    """Serialize FTL state onto the log and mark the superblock clean.

    The caller must have stopped the cleaner and waited for it to park
    (see ``VslDevice._shutdown_proc``), so the state captured here
    cannot change under us.
    """
    sb = ftl.nand.superblock
    generation = sb.get("checkpoint_gen", 0) + 1
    if ftl.map_is_cached:
        # Flash is the map's home: make every dirty translation page
        # durable, then persist only the (small) directory.  The full
        # map never transits the checkpoint blob.
        yield from ftl.map.flush_all_proc()
        map_items = None
        map_gtd = ftl.map.dump_gtd()
    else:
        map_items = list(ftl.map.items())
        map_gtd = None
    state = {
        "version": CHECKPOINT_VERSION,
        "generation": generation,
        "seq": ftl._next_seq,
        "map_items": map_items,
        "map_gtd": map_gtd,
        "notes": dict(ftl._note_registry),
        "extra": ftl._dump_extra(generation),
    }
    blob = pickle.dumps(state)
    crc = zlib.crc32(blob)
    chunk_size = ftl.nand.geometry.page_size
    ppns = []
    for index in range(0, len(blob), chunk_size):
        chunk = blob[index:index + chunk_size]
        header = OobHeader(kind=PageKind.CHECKPOINT, lba=index // chunk_size,
                           epoch=0, seq=ftl._bump_seq(), length=len(chunk))
        # Privileged: with the cleaner stopped nobody can free space,
        # so the checkpoint may dip into the cleaner's reserve.
        ppn, done = yield from ftl.log.append(header, chunk, privileged=True)
        ppns.append(ppn)
        yield done  # checkpoints must be durable

    # Stash the outgoing generation's descriptor before overwriting it:
    # if the superblock update below completes but the *next* shutdown
    # tears its checkpoint, restore can still find this one.  (Its
    # pages may be cleaned during the coming run; validation decides.)
    prev = None
    if sb.get("checkpoint_ppns") is not None:
        prev = {
            "ppns": list(sb["checkpoint_ppns"]),
            "crc": sb.get("checkpoint_crc"),
            "gen": sb.get("checkpoint_gen", 0),
        }

    # The superblock write is the checkpoint's commit point: a cut
    # before it leaves clean=False and the next open scans the log.
    ftl.nand.power_check(sites.phased(sites.CHECKPOINT_SUPERBLOCK, "pre"))
    sb.update({
        "clean": True,
        "checkpoint_ppns": ppns,
        "checkpoint_crc": crc,
        "checkpoint_gen": generation,
        "prev_checkpoint": prev,
        "log_state": ftl.log.dump_state(),
        "next_seq": ftl._next_seq,
    })


def _read_and_validate(ftl: "VslDevice", ppns: List[int],
                       crc: Optional[int]) -> Generator:
    """Read one checkpoint generation and validate it end to end.

    Raises :class:`CheckpointError` on any problem; mutates nothing.
    """
    blob = b""
    for ppn in ppns:
        try:
            record = yield from ftl.nand.read_page(ppn)
        except PowerLossError:
            # Never convert an injected power cut into a CheckpointError:
            # the torture rig must see the cut propagate.
            raise
        except Exception as exc:  # noqa: BLE001 - any media error is fatal
            raise CheckpointError(
                f"checkpoint page {ppn} unreadable: {exc}") from exc
        if record.header.kind is not PageKind.CHECKPOINT:
            raise CheckpointError(f"ppn {ppn} is not a checkpoint page")
        if record.data is None:
            raise CheckpointError(f"checkpoint page {ppn} lost its payload")
        blob += record.data[:record.header.length]
    if crc is not None and zlib.crc32(blob) != crc:
        raise CheckpointError("checkpoint CRC mismatch (torn or corrupt)")
    try:
        state = pickle.loads(blob)
    except Exception as exc:  # lint: allow-broad-except(pickle.loads raises arbitrary exception types on corrupt input; no media I/O happens here so a power cut cannot be swallowed)
        raise CheckpointError(f"corrupt checkpoint: {exc}") from exc
    version = state.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    for key in ("seq", "map_items", "notes", "extra"):
        if key not in state:
            raise CheckpointError(f"checkpoint missing field {key!r}")
    return state


def restore_checkpoint(ftl: "VslDevice") -> Generator:
    """Rebuild FTL state from the checkpoint referenced by the superblock.

    Tries the newest generation first, then the stashed previous
    generation.  State is only mutated after a generation validates
    completely, so a failed restore leaves a pristine instance.
    """
    sb = ftl.nand.superblock
    ppns = sb.get("checkpoint_ppns")
    if not sb.get("clean") or ppns is None:
        raise CheckpointError("superblock has no clean checkpoint")

    attempts = [(ppns, sb.get("checkpoint_crc"), False)]
    prev = sb.get("prev_checkpoint")
    if prev and prev.get("ppns"):
        attempts.append((prev["ppns"], prev.get("crc"), True))

    state = None
    fallback = False
    last_error: Optional[CheckpointError] = None
    for attempt_ppns, crc, is_prev in attempts:
        try:
            state = yield from _read_and_validate(ftl, attempt_ppns, crc)
        except CheckpointError as exc:
            last_error = exc
            continue
        fallback = is_prev
        break
    if state is None:
        assert last_error is not None
        raise last_error

    # Cross-mode compatibility gate, before any state mutates.  An
    # all-RAM open of a flash-resident image (or a span mismatch the
    # other way) cannot restore from the blob — raising here sends
    # ``VslDevice.open`` down the log-scan recovery path, which
    # rebuilds the map in whichever mode this device is configured for.
    if ftl.map_is_cached:
        gtd_image = state.get("map_gtd")
        if gtd_image is not None \
                and gtd_image.get("span") != ftl.config.map_span:
            raise CheckpointError(
                f"map span mismatch: checkpoint has "
                f"{gtd_image.get('span')}, device configured for "
                f"{ftl.config.map_span}")
        if gtd_image is None and state.get("map_items") is None:
            raise CheckpointError("checkpoint carries no map image")
    elif state.get("map_items") is None:
        raise CheckpointError(
            "checkpoint carries only a GTD (written by a "
            "flash-resident-map configuration); the all-RAM map must "
            "rebuild by log scan")

    ftl._next_seq = state["seq"]
    if not ftl.map_is_cached:
        ftl.map = BPlusTree.bulk_load(state["map_items"])
        yield len(state["map_items"]) * MAP_BULK_INSERT_NS
    ftl._note_registry = state["notes"]
    ftl.cleaner.invalidate_occupancy()
    if not fallback:
        # Adopt the log's segment bookkeeping *before* the extra-state
        # hook: the ioSnap layer cross-validates its durable epoch
        # index against each segment's adopted allocation seq, and the
        # cached map's restore below may append (an all-RAM image
        # replays its map_items through the bounded cache, flushing
        # pages to the map head) — appends need adopted heads.
        ftl.log.adopt_state(*sb["log_state"])
        ftl._load_extra(state["extra"], state.get("generation"))
        if ftl.map_is_cached:
            gtd_image = state.get("map_gtd")
            if gtd_image is not None:
                ftl.map.adopt_gtd(gtd_image)
                yield len(gtd_image["gtd"]) * REPLAY_PACKET_NS
            else:
                yield from ftl.map.rebuild_proc(state["map_items"])
        return
    ftl._load_extra(state["extra"], state.get("generation"))

    # Fallback path: the previous generation is stale — it predates
    # the superblock's log bookkeeping and everything written since it
    # was taken.  Replay the log on top: the scan rebuilds segment
    # bookkeeping, forward map, validity, and the note registry
    # wholesale (superseding the stale images), while the validated
    # old generation established that the fallback is sound instead of
    # giving up.  Clear the stale registry first so note pages the
    # cleaner relocated after that generation cannot linger.
    from repro.ftl.recovery import recover

    ftl._note_registry = {}
    ftl.cleaner.invalidate_occupancy()
    yield from recover(ftl)
