"""Snapshot send/receive: changed-block replication between devices.

The log-structured FTL already knows exactly which blocks changed
between two snapshots (per-epoch validity + the epoch-summary index,
:mod:`repro.core.diff`); this package turns that into a production
replication story:

- :mod:`repro.replicate.stream` — the self-describing record stream: a
  header, per-segment extents in allocation-seq order, conservative
  removes, cursor watermarks, and an end marker, every record CRC'd
  and folded into an order-independent content digest;
- :mod:`repro.replicate.cursor` — durable resumable cursors: the
  committed watermark of receiver-acknowledged records a killed
  transfer restarts from;
- :mod:`repro.replicate.send` — the sender: plans the transfer with
  the multi-version changed-block lookup, reads winners under the
  scan barrier, streams records;
- :mod:`repro.replicate.receive` — the receiver: validates, applies,
  acknowledges, and at finalize materializes the snapshot and verifies
  the digest against a real activation readback;
- :mod:`repro.replicate.transfer` — the driver wiring sender to
  receiver with cursor commits, corruption injection for tests, and
  resume.

The failure matrix is the torture harness's ``send`` op
(:mod:`repro.torture.harness`): the receiver shares the source's power
model, a cut reopens both devices through real recovery and resumes
the stream from its committed cursor, and every case ends with the
pair check — fsck the receiver, then per-LBA digests of each snapshot
on both devices.  The scenario campaign's ``replicate-*`` cells
(:mod:`repro.scenarios`) drive it across every device axis and media
faults.
"""

from repro.replicate.cursor import CursorStore, ReplicationCursor
from repro.replicate.receive import Receiver
from repro.replicate.send import make_stream_id, send_proc
from repro.replicate.transfer import replicate, replicate_proc

__all__ = [
    "CursorStore",
    "Receiver",
    "ReplicationCursor",
    "make_stream_id",
    "replicate",
    "replicate_proc",
    "send_proc",
]
