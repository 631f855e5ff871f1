"""The index snapshot file: columns behind a checked header.

:func:`write_snapshot` lays a :class:`~repro.service.columns.Columns`
out as it sits in memory — little-endian, every section on an 8-byte
boundary — behind a versioned header, a section table and a CRC-32.
:func:`read_snapshot` copies such a file into sealed memory, checks
header, length, checksum and section bounds, and hands back typed views
of the mapped copy: no parse, no per-address work, and no byte of the
file is ever executed. Everything that is wrong with a file is a
:class:`SnapshotError` that says what.

DESIGN.md §9 has the layout table, the versioning rule and the reasons
(why the file is replaced by rename, why version 1 is refused unread).
"""

from __future__ import annotations

import fcntl
import json
import mmap
import os
import struct
import sys
import zlib
from array import array
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, NamedTuple, Tuple

from ..net.family import V4, AddressFamily, family_named
from .columns import Columns, KeyColumn, check_list_ids, is_wide

if TYPE_CHECKING:
    from ..blocklists.timeline import Window

__all__ = ["Snapshot", "SnapshotError", "read_snapshot", "write_snapshot"]


class SnapshotError(RuntimeError):
    """A snapshot file is missing, corrupt, or from another version."""


class Snapshot(NamedTuple):
    """What one snapshot file holds."""

    family: AddressFamily
    columns: Columns
    windows: Tuple[Window, ...]
    categories: Dict[str, str]
    #: The index's ``stats()`` counters.
    counts: Dict[str, int]


_MAGIC = b"REPROIDX"
_VERSION = 2
#: magic, version, key bytes, family tag, sections, file bytes, CRC-32.
_HEADER = struct.Struct("<8sHH8sIQI4x")
#: Byte offset of the CRC field, the one field the CRC skips.
_CRC_AT = 32
#: One section-table entry: tag, item bytes, offset, byte length.
_ENTRY = struct.Struct("<4sB3xQQ")
_ALIGN = 8
#: The META section is JSON over a few hundred short strings.
_MAX_META_BYTES = 1 << 24
#: ``list_idx`` is u16.
_MAX_LISTS = 1 << 16
#: What a version-1 snapshot (a gzip stream) starts with.
_GZIP_MAGIC = b"\x1f\x8b"

#: The column sections, in file order (after META): section tag,
#: ``Columns`` field, item typecode. No typecode marks a key column,
#: stored as ``<tag>L`` (u32) or, for 128-bit families, ``<tag>L`` and
#: ``<tag>H`` (both u64).
_SCHEMA: Tuple[Tuple[bytes, str, str], ...] = (
    (b"KEY", "keys", ""),
    (b"OFFS", "offsets", "I"),
    (b"FLAG", "flags", "B"),
    (b"USER", "users", "I"),
    (b"ASNS", "asns", "I"),
    (b"IFST", "first", "i"),
    (b"ILST", "last", "i"),
    (b"ILID", "list_idx", "H"),
    (b"DFS", "dyn_first", ""),
    (b"DLS", "dyn_last", ""),
)

_COUNT_KEYS = (
    "ips", "intervals", "nated_ips", "dynamic_prefixes", "lists", "ases",
)


def _section_plan(wide: bool) -> List[Tuple[bytes, str]]:
    """``(tag, typecode)`` of every section, in file order."""
    plan = [(b"META", "B")]
    for tag, _field, code in _SCHEMA:
        if code:
            plan.append((tag, code))
        elif wide:
            plan += [(tag + b"L", "Q"), (tag + b"H", "Q")]
        else:
            plan.append((tag + b"L", "I"))
    return plan


def _check_host() -> None:
    """Snapshots are the host's native arrays, so the host must be
    little-endian with the usual C integer widths."""
    widths = {code: array(code).itemsize for code in "BHIiQ"}
    if sys.byteorder != "little" or widths != {
        "B": 1, "H": 2, "I": 4, "i": 4, "Q": 8,
    }:
        raise SnapshotError(
            "index snapshots are little-endian with 1/2/4/8-byte "
            f"integers; this host is {sys.byteorder}-endian with {widths}"
        )


def _crc_of(data: memoryview) -> int:
    """CRC-32 of a whole snapshot, its own CRC field skipped."""
    return zlib.crc32(data[_CRC_AT + 4:], zlib.crc32(data[:_CRC_AT]))


# -- writing -----------------------------------------------------------


def write_snapshot(
    path: "Path | str",
    family: AddressFamily,
    columns: Columns,
    windows: Tuple[Window, ...],
    categories: Mapping[str, str],
    counts: Mapping[str, int],
) -> Path:
    """Write ``columns`` (tight ones) and the run-wide products to
    ``path``, atomically: temp file + rename.

    Never written in place: a running server may have the old file
    mapped, and the rename leaves that mapping its inode.
    """
    # Here, not at the top: a process that only maps a snapshot never
    # writes one, and every module it loads is boot time and memory.
    import tempfile

    _check_host()
    meta = json.dumps(
        {
            "windows": windows,
            "list_ids": columns.list_ids,
            "categories": categories,
            "counts": counts,
        },
        separators=(",", ":"),
    ).encode("utf-8")
    raws = [memoryview(meta)]
    for _tag, field, code in _SCHEMA:
        column = getattr(columns, field)
        if code:
            raws.append(column.cast("B"))
        else:
            raws.append(column.low.cast("B"))
            if column.high is not None:
                raws.append(column.high.cast("B"))
    plan = _section_plan(is_wide(family))
    at = _HEADER.size + _ENTRY.size * len(plan)
    table = bytearray()
    for (tag, code), raw in zip(plan, raws):
        table += _ENTRY.pack(tag, array(code).itemsize, at, len(raw))
        at += len(raw) + -len(raw) % _ALIGN
    tag = b"" if family is V4 else family.name.encode("ascii")
    image = bytearray(
        _HEADER.pack(
            _MAGIC, _VERSION, family.bits // 8, tag, len(plan), at, 0
        )
    )
    image += table
    for raw in raws:
        image += raw
        image += bytes(-len(raw) % _ALIGN)
    struct.pack_into("<I", image, _CRC_AT, _crc_of(memoryview(image)))

    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    handle, temp_name = tempfile.mkstemp(
        dir=target.parent, prefix="tmp-index-"
    )
    try:
        with os.fdopen(handle, "wb") as out:
            out.write(image)
        os.replace(temp_name, target)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    return target


# -- reading -----------------------------------------------------------


def read_snapshot(path: "Path | str") -> Snapshot:
    """Map a sealed copy of the snapshot at ``path``;
    :class:`SnapshotError`, with the reason, on anything that is not a
    readable snapshot of this version.

    The copy, not the file, is what the views read: a file truncated
    or rewritten in place under a mapping takes its pages with it, and
    the next read of one is a ``SIGBUS`` that kills the reader."""
    _check_host()
    try:
        with open(path, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            sealed = _sealed_copy(handle.fileno(), size)
        try:
            family, crc = _check_header(
                path, os.pread(sealed, _HEADER.size, 0), size
            )
            mapped = mmap.mmap(sealed, size, access=mmap.ACCESS_READ)
        finally:
            os.close(sealed)  # the mapping holds its own reference
    except FileNotFoundError:
        raise SnapshotError(f"snapshot not found: {path}") from None
    except (OSError, ValueError) as exc:
        raise SnapshotError(f"unreadable snapshot {path}: {exc}") from None
    # The views handed out below keep the mapping alive; it is never
    # closed by hand, only collected with the last index that reads it.
    buffer = memoryview(mapped)
    if _crc_of(buffer) != crc:
        raise SnapshotError(
            f"checksum mismatch in {path}: the file is corrupt"
        )
    wide = is_wide(family)
    views = _section_views(path, buffer, wide)
    windows, list_ids, categories, counts = _parse_meta(path, views.pop(0))
    fields: Dict[str, Any] = {"list_ids": list_ids}
    for _tag, field, code in _SCHEMA:
        if code:
            fields[field] = views.pop(0)
        else:
            low = views.pop(0)
            fields[field] = KeyColumn(low, views.pop(0) if wide else None)
    columns = Columns(**fields)
    _check_shape(path, columns, counts)
    return Snapshot(family, columns, windows, categories, counts)


def _sealed_copy(source: int, size: int) -> int:
    """A memfd holding the first ``size`` bytes of file ``source``,
    sealed: from here on nothing — this process, a ``cp`` over the
    file, a restore from backup — can shrink, grow or write it. Forked
    workers share its pages as they would the file's."""
    sealed = os.memfd_create(
        "repro-snapshot", os.MFD_ALLOW_SEALING | os.MFD_CLOEXEC
    )
    try:
        copied = 0
        while copied < size:
            sent = os.sendfile(sealed, source, copied, size - copied)
            if not sent:
                raise OSError("the file shrank while being copied")
            copied += sent
        fcntl.fcntl(
            sealed,
            fcntl.F_ADD_SEALS,
            fcntl.F_SEAL_SHRINK | fcntl.F_SEAL_GROW | fcntl.F_SEAL_WRITE
            | fcntl.F_SEAL_SEAL,
        )
    except BaseException:
        os.close(sealed)
        raise
    return sealed


def _check_header(
    path: Any, head: bytes, size: int
) -> Tuple[AddressFamily, int]:
    """Validate the fixed header against the file's real size;
    returns the family and the stored CRC."""
    if head[:2] == _GZIP_MAGIC:
        raise SnapshotError(
            f"{path} is a version-1 (gzip-framed) snapshot, which is no "
            f"longer read: delete it and let `repro serve --snapshot "
            f"{path}` rebuild it"
        )
    if len(head) < _HEADER.size:
        raise SnapshotError(
            f"{path} is too short to be a snapshot ({size} bytes)"
        )
    magic, version, key_bytes, tag, sections, file_bytes, crc = (
        _HEADER.unpack(head)
    )
    if magic != _MAGIC:
        raise SnapshotError(f"{path} is not a reputation-index snapshot")
    if version > _VERSION:
        raise SnapshotError(
            f"{path} is a version-{version} snapshot; this build reads "
            f"version {_VERSION}"
        )
    if version != _VERSION:
        raise SnapshotError(
            f"{path} has unsupported snapshot version {version}"
        )
    if file_bytes != size:
        raise SnapshotError(
            f"{path} is truncated or padded: header says {file_bytes} "
            f"bytes, file has {size}"
        )
    try:
        name = tag.rstrip(b"\x00").decode("ascii")
        family = family_named(name or None)
    except ValueError:  # UnicodeDecodeError is one
        raise SnapshotError(
            f"{path} names an unknown address family: {tag!r}"
        ) from None
    if key_bytes * 8 != family.bits:
        raise SnapshotError(
            f"{path} has {key_bytes}-byte keys, which {family.name} "
            f"does not use"
        )
    expected = len(_section_plan(is_wide(family)))
    if sections != expected:
        raise SnapshotError(
            f"{path} has {sections} sections, not the {expected} of a "
            f"{family.name} snapshot"
        )
    return family, crc


def _section_views(
    path: Any, buffer: memoryview, wide: bool
) -> List[memoryview]:
    """Typed views of every section, bounds-checked against the file."""
    plan = _section_plan(wide)
    floor = _HEADER.size + _ENTRY.size * len(plan)
    if len(buffer) < floor:
        raise SnapshotError(f"{path}: section table runs past end of file")
    views = []
    for at, (want_tag, code) in enumerate(plan):
        tag, item_bytes, offset, nbytes = _ENTRY.unpack_from(
            buffer, _HEADER.size + _ENTRY.size * at
        )
        name = want_tag.decode()
        if tag != want_tag or item_bytes != array(code).itemsize:
            raise SnapshotError(
                f"{path}: section {at} is {tag!r} with {item_bytes}-byte "
                f"items, expected {name} with {array(code).itemsize}"
            )
        if offset < floor or offset % _ALIGN or nbytes % item_bytes:
            raise SnapshotError(
                f"{path}: section {name} is misplaced "
                f"(offset {offset}, {nbytes} bytes)"
            )
        if offset + nbytes > len(buffer):
            raise SnapshotError(
                f"{path}: section {name} runs past end of file"
            )
        views.append(buffer[offset:offset + nbytes].cast(code))
    return views


def _parse_meta(
    path: Any, raw: memoryview
) -> Tuple[Tuple[Window, ...], Tuple[str, ...], Dict[str, str], Dict[str, int]]:
    """``(windows, list_ids, categories, counts)`` from the META
    section, type-checked."""
    if len(raw) > _MAX_META_BYTES:
        raise SnapshotError(f"{path}: META section is {len(raw)} bytes")
    try:
        meta = json.loads(bytes(raw))
        windows = tuple(
            (_as_int(start), _as_int(end)) for start, end in meta["windows"]
        )
        list_ids = tuple(_as_str(item) for item in meta["list_ids"])
        check_list_ids(list_ids)
        categories = {
            _as_str(key): _as_str(value)
            for key, value in meta["categories"].items()
        }
        counts = {key: _as_int(meta["counts"][key]) for key in _COUNT_KEYS}
    except (
        AttributeError, KeyError, RecursionError, TypeError, ValueError
    ) as exc:
        raise SnapshotError(f"{path}: malformed META section: {exc}") from None
    if len(list_ids) > _MAX_LISTS:
        raise SnapshotError(f"{path}: {len(list_ids)} lists")
    return windows, list_ids, categories, counts


def _as_int(value: object) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"not an integer: {value!r}")
    return value


def _as_str(value: object) -> str:
    if not isinstance(value, str):
        raise TypeError(f"not a string: {value!r}")
    return value


def _check_shape(path: Any, columns: Columns, counts: Dict[str, int]) -> None:
    """The columns must describe the same number of rows, and the
    offsets column must span the interval columns exactly."""
    rows = len(columns.keys)
    intervals = len(columns.first)
    key_columns = (columns.keys, columns.dyn_first, columns.dyn_last)
    consistent = (
        len(columns.offsets) == rows + 1
        and len(columns.flags) == rows
        and len(columns.users) == rows
        and len(columns.asns) == rows
        and len(columns.last) == intervals
        and len(columns.list_idx) == intervals
        and columns.is_tight()
        and counts["intervals"] == intervals
        and len(columns.dyn_first) == len(columns.dyn_last)
        and len(columns.dyn_first) == counts["dynamic_prefixes"]
        and all(
            column.high is None or len(column.high) == len(column.low)
            for column in key_columns
        )
    )
    if not consistent:
        raise SnapshotError(f"{path}: columns disagree on their lengths")
