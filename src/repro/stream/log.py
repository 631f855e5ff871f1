"""The append-only blocklist update log.

One file carries an ordered stream of :class:`~repro.stream.delta.
DeltaBatch` records: a header member followed by one gzip member per
batch, each member holding one JSON document. Records carry contiguous
sequence numbers and a CRC32 checksum of their body, so a reader can
detect both corruption (checksum or sequence violation — an error) and
a crash mid-append (a truncated final member — recoverable: everything
before it is intact, which is the property the whole design buys).

Per-record gzip members make appends atomic at the member boundary: a
writer appends complete members only, and a reader parses members until
one fails to complete. :class:`UpdateLogWriter` opened on an existing
log *recovers* first — it reads the file through an
:class:`UpdateLogReader` (the one place a log is scanned and checked),
truncates any partial tail, and resumes the sequence after the last
complete record.

:class:`UpdateLogReader.follow` tails the file for a live consumer
(the server's follower thread), yielding batches as they are appended.
"""

from __future__ import annotations

import gzip
import json
import os
import threading
import zlib
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from ..net.family import family_named
from .delta import DeltaBatch, ListingDelta

__all__ = [
    "LOG_MAGIC",
    "LOG_VERSION",
    "UpdateLogError",
    "UpdateLogReader",
    "UpdateLogWriter",
    "read_update_log",
    "write_update_log",
]

LOG_MAGIC = "repro-update-log"
LOG_VERSION = 1

#: Hard ceiling on one decompressed record (a day batch is kilobytes;
#: nothing legitimate comes close).
MAX_RECORD_BYTES = 8 << 20


#: How every member the writer appends begins: gzip magic, deflate, no
#: optional header field. A damaged flag byte would have the inflater
#: read the records behind it as header padding and report the member
#: as merely unfinished.
_MEMBER_HEAD = b"\x1f\x8b\x08\x00"


class UpdateLogError(RuntimeError):
    """The log is missing, corrupt, or violates the sequence contract."""


def _canonical(body: Dict[str, Any]) -> bytes:
    return json.dumps(
        body, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")


def _encode_record(batch: DeltaBatch) -> bytes:
    body: Dict[str, Any] = {
        "seq": batch.seq,
        "day": batch.day,
        "deltas": [delta.to_wire() for delta in batch.deltas],
    }
    body["crc"] = zlib.crc32(_canonical(body))
    return gzip.compress(_canonical(body), compresslevel=6)


def _header_max_ip(header: Dict[str, Any]) -> int:
    """The delta-ip ceiling a log's header declares.

    The family rides in ``meta.family`` (absent → IPv4, like every
    other payload in the stack), so pre-existing v4 logs validate
    exactly as before while an ``ipv6`` log admits 128-bit addresses.
    """
    meta = header.get("meta")
    name = meta.get("family") if isinstance(meta, dict) else None
    try:
        return family_named(name).max_int
    except ValueError as exc:
        raise UpdateLogError(str(exc)) from None


def _decode_batch(doc: Any, max_ip: int = 0xFFFFFFFF) -> DeltaBatch:
    if not isinstance(doc, dict):
        raise UpdateLogError(f"record is not an object: {doc!r}")
    try:
        seq, day, rows, crc = (
            doc["seq"], doc["day"], doc["deltas"], doc["crc"]
        )
    except (KeyError, TypeError) as exc:
        raise UpdateLogError(f"record missing field: {exc}") from None
    if not isinstance(seq, int) or not isinstance(day, int):
        raise UpdateLogError(f"bad record header: seq={seq!r} day={day!r}")
    expected = zlib.crc32(
        _canonical({"seq": seq, "day": day, "deltas": rows})
    )
    if crc != expected:
        raise UpdateLogError(
            f"record seq={seq} checksum mismatch "
            f"(stored {crc!r}, computed {expected})"
        )
    try:
        deltas = tuple(
            ListingDelta.from_wire(row, max_ip=max_ip) for row in rows
        )
    except (TypeError, ValueError) as exc:
        raise UpdateLogError(f"record seq={seq}: {exc}") from None
    try:
        return DeltaBatch(seq, day, deltas)
    except ValueError as exc:
        raise UpdateLogError(str(exc)) from None


def _scan_members(
    blob: bytes, base: int, limit: Optional[int] = None
) -> Tuple[List[Any], int]:
    """Parse complete gzip members off the front of ``blob`` — all of
    them, or the first ``limit``.

    Returns ``(documents, bytes_consumed)``; bytes past ``consumed``
    are members beyond ``limit``, or an unfinished member — the one
    shape a torn append can leave, since a crash mid-append writes a
    strict prefix of a valid member and a prefix never fails to
    inflate. Anything else is corruption and raises, naming the byte
    offset (``base`` = where ``blob`` starts in the file): a header the
    writer does not write, data that is not a deflate stream, a failed
    gzip checksum, a member over :data:`MAX_RECORD_BYTES`, a member
    that is not JSON. Reading any of those as a tail would leave every
    batch behind it unread for ever.
    """
    documents: List[Any] = []
    pos = 0
    while pos < len(blob) and len(documents) != limit:
        head = blob[pos:pos + len(_MEMBER_HEAD)]
        if head != _MEMBER_HEAD[:len(head)]:
            raise UpdateLogError(
                f"corrupt record at byte {base + pos}: not a member "
                f"header of this log"
            )
        decomp = zlib.decompressobj(wbits=31)
        try:
            data = decomp.decompress(blob[pos:], MAX_RECORD_BYTES)
        except zlib.error as exc:
            raise UpdateLogError(
                f"corrupt record at byte {base + pos}: {exc}"
            ) from None
        if decomp.unconsumed_tail:
            raise UpdateLogError(
                f"record at byte {base + pos} exceeds "
                f"{MAX_RECORD_BYTES} bytes"
            )
        if not decomp.eof:
            break  # member not finished — truncated tail
        consumed = len(blob) - pos - len(decomp.unused_data)
        try:
            documents.append(json.loads(data.decode("utf-8")))
        except (UnicodeDecodeError, ValueError) as exc:
            raise UpdateLogError(
                f"undecodable record at byte {base + pos}: {exc}"
            ) from None
        pos += consumed
    return documents, pos


def _check_header(doc: Any, path: Path) -> Dict[str, Any]:
    if not isinstance(doc, dict) or doc.get("magic") != LOG_MAGIC:
        raise UpdateLogError(f"{path} is not an update log")
    if doc.get("version") != LOG_VERSION:
        raise UpdateLogError(
            f"update log version {doc.get('version')!r} does not match "
            f"expected {LOG_VERSION}"
        )
    return doc


class UpdateLogWriter:
    """Appends batches to an update log, recovering on open.

    A fresh path gets a header member first; an existing log is scanned,
    any partial tail left by a crash is truncated away, and the sequence
    resumes after the last complete record. ``append`` enforces the
    next-sequence contract, so a writer bug cannot silently fork the
    stream.
    """

    def __init__(
        self,
        path: "Path | str",
        *,
        start_day: int = 0,
        meta: Optional[Dict[str, Any]] = None,
        fsync: bool = False,
    ) -> None:
        self._path = Path(path)
        self._fsync = fsync
        self._lock = threading.Lock()
        reader = UpdateLogReader(self._path)
        batches: List[DeltaBatch] = []
        if self._path.exists():
            batches = reader.poll()
            if reader.offset < self._path.stat().st_size:
                # What a crash left past the last complete member.
                with open(self._path, "r+b") as handle:
                    handle.truncate(reader.offset)
        if reader.offset:
            self._header = reader.header
            self._next_seq = (batches[-1].seq + 1) if batches else 1
        else:
            # Fresh path, or a crash left not even one complete member:
            # start the log over with a header.
            self._header = {
                "magic": LOG_MAGIC,
                "version": LOG_VERSION,
                "start_day": int(start_day),
                "meta": dict(meta or {}),
            }
            self._next_seq = 1
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._write(gzip.compress(_canonical(self._header), 6))

    @property
    def path(self) -> Path:
        return self._path

    @property
    def header(self) -> Dict[str, Any]:
        return dict(self._header)

    @property
    def next_seq(self) -> int:
        """The sequence number the next appended batch must carry."""
        return self._next_seq

    def _write(self, blob: bytes) -> None:
        with open(self._path, "ab") as handle:
            handle.write(blob)
            handle.flush()
            if self._fsync:
                os.fsync(handle.fileno())

    def _append(self, batch: DeltaBatch) -> None:
        # A failed write (ENOSPC, EIO) is taken back whole: a retry must
        # not land behind a partial member, which every reader fails on.
        size = self._path.stat().st_size
        try:
            self._write(_encode_record(batch))
        except BaseException:
            os.truncate(self._path, size)
            raise
        self._next_seq += 1

    def append(self, batch: DeltaBatch) -> None:
        """Append one batch; its ``seq`` must be the next in line."""
        with self._lock:
            if batch.seq != self._next_seq:
                raise UpdateLogError(
                    f"batch seq {batch.seq} does not follow "
                    f"{self._next_seq - 1}"
                )
            self._append(batch)

    def append_deltas(
        self, day: int, deltas: Iterable[ListingDelta]
    ) -> DeltaBatch:
        """Wrap loose deltas into the next-sequence batch and append."""
        with self._lock:
            batch = DeltaBatch(self._next_seq, day, tuple(deltas))
            self._append(batch)
        return batch


def read_update_log(
    path: "Path | str",
) -> Tuple[Dict[str, Any], List[DeltaBatch]]:
    """Read a whole log; a truncated tail is silently dropped (that is
    the crash-recovery contract), any other violation raises."""
    reader = UpdateLogReader(path)
    batches = reader.poll()
    return reader.header, batches


def write_update_log(
    path: "Path | str",
    batches: Iterable[DeltaBatch],
    *,
    start_day: int = 0,
    meta: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write a complete log in one call (the batch-mode producer)."""
    writer = UpdateLogWriter(path, start_day=start_day, meta=meta)
    for batch in batches:
        writer.append(batch)
    return writer.path


class UpdateLogReader:
    """Incremental reader: read what is there, then tail for more."""

    def __init__(self, path: "Path | str") -> None:
        self._path = Path(path)
        # One poll at a time: the cursor (offset + expected seq) is
        # read-modify-write state, and a reader may be shared between
        # a follower thread and a stats/header probe.
        self._lock = threading.Lock()
        self._offset = 0
        self._next_seq = 1
        self._header: Optional[Dict[str, Any]] = None
        self._max_ip = 0xFFFFFFFF

    @property
    def offset(self) -> int:
        """Bytes of the file consumed so far: the end of the last
        complete member a :meth:`poll` has returned."""
        return self._offset

    @property
    def header(self) -> Dict[str, Any]:
        """The log header. Before the first :meth:`poll` this reads the
        header member and nothing else: the cursor stays put, so the
        batches behind the header are still the next poll's."""
        with self._lock:
            if self._header is None:
                documents, _ = _scan_members(self._unread(), 0, limit=1)
                if not documents:
                    raise UpdateLogError(
                        f"{self._path} holds no complete header yet"
                    )
                self._header = _check_header(documents[0], self._path)
            return dict(self._header)

    def _unread(self) -> bytes:
        """The file's bytes from the cursor on."""
        try:
            with open(self._path, "rb") as handle:
                handle.seek(self._offset)
                # Catch-up read of the local log tail: bounded by the
                # on-disk file, and every member is re-checked against
                # MAX_RECORD_BYTES during the scan.
                # reprolint: disable=WIRE
                return handle.read()
        except FileNotFoundError:
            raise UpdateLogError(
                f"update log not found: {self._path}"
            ) from None

    def poll(self) -> List[DeltaBatch]:
        """Batches appended since the last call (empty when none)."""
        with self._lock:
            blob = self._unread()
            documents, consumed = _scan_members(blob, self._offset)
            if self._offset == 0 and documents:
                self._header = _check_header(
                    documents.pop(0), self._path
                )
                self._max_ip = _header_max_ip(self._header)
            batches: List[DeltaBatch] = []
            for doc in documents:
                batch = _decode_batch(doc, self._max_ip)
                if batch.seq != self._next_seq:
                    raise UpdateLogError(
                        f"sequence gap: expected {self._next_seq}, "
                        f"found {batch.seq}"
                    )
                batches.append(batch)
                self._next_seq += 1
            self._offset += consumed
            return batches

    def follow(
        self,
        *,
        poll_interval: float = 0.1,
        stop: Optional[threading.Event] = None,
    ) -> Iterator[DeltaBatch]:
        """Yield batches as they are appended, until ``stop`` is set."""
        stop = stop or threading.Event()
        while not stop.is_set():
            batches = self.poll()
            for batch in batches:
                yield batch
            if not batches:
                stop.wait(poll_interval)
