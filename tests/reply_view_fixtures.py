"""Corpus and recorded outcomes for the hostile-payload property test.

``tests/data/reply_views.json`` holds, for a corpus of valid batch-reply
payloads in both families, what the eager decoder of commit ``ec4189a``
(the last one that built a dict per record) made of every single-byte
mutation: per byte position, how many of the 255 other values raised
``WireError`` and a digest over all 255 outcomes. The test in
``tests/test_service_binary.py`` decodes the same mutations into record
views and must read the same outcomes, so the recording — not a second
decoder — is the reference.

To regenerate (only ever against that commit; today's decoder would
record itself)::

    git archive ec4189a src | tar -x -C /tmp/eager
    PYTHONPATH=/tmp/eager/src python -m tests.reply_view_fixtures
"""

import hashlib
import json
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.net.family import V4, V6, AddressFamily
from repro.service.wire import CODECS, WireError

FIXTURE = Path(__file__).with_name("data") / "reply_views.json"

_ERROR = "WireError"


def _verdict(family, **overrides) -> SimpleNamespace:
    base = dict(
        ip=0x01020304 if family is V4 else (0x20010DB8 << 96) | 0x1234,
        day=17, listed=True, lists=("dnsbl-alpha", "dnsbl-beta"),
        nated=True, dynamic=False, unjust=True, reuse_kind="nat",
        users=37, asn=64500, action="greylist", epoch=3, seq=41,
    )
    base.update(overrides)
    return SimpleNamespace(**base)


def corpus() -> Iterator[Tuple[AddressFamily, str, bytes]]:
    """``(family, case name, reply payload)``: each record kind
    alone, so a mutation is charged to one record, then all of them in
    one reply, where a mutated length can re-cut the records after it."""
    for family in (V4, V6):
        codec = CODECS[family]
        records = {
            "listed": codec.pack_verdict(_verdict(family)),
            "unlisted": codec.pack_verdict(
                _verdict(
                    family, ip=family.max_int, day=-3, listed=False,
                    lists=(), nated=False, dynamic=True, unjust=False,
                    reuse_kind="dynamic", action="ignore", seq=1 << 40,
                )
            ),
            "degraded": codec.pack_degraded(
                family.max_int - 7, 12, 2, "SHARD_UNAVAILABLE"
            ),
            "degraded-no-day": codec.pack_degraded(9, None, 0, "é"),
            "long-list-id": codec.pack_verdict(
                _verdict(family, lists=("é" * 127 + "x", ""))
            ),
        }
        for name, record in records.items():
            yield family, name, (1).to_bytes(4, "big") + record
        yield family, "all", len(records).to_bytes(4, "big") + b"".join(
            records.values()
        )


def _wire_dicts(entries: List[Any]) -> List[Dict[str, Any]]:
    return [dict(entry) for entry in entries]


def outcome(
    decode: Callable[[bytes], List[Any]],
    payload: bytes,
    read: Callable[[List[Any]], List[Dict[str, Any]]] = _wire_dicts,
) -> Any:
    """What decoding ``payload`` comes to: the wire dicts ``read``
    makes of the decoded entries, or the one error a reply payload may
    raise — which only ``decode`` may raise, never the reading."""
    try:
        entries = decode(payload)
    except WireError:
        return _ERROR
    return read(entries)


def mutations(payload: bytes, position: int) -> Iterator[bytes]:
    """``payload`` with the byte at ``position`` set to each of the 255
    values it does not hold, in ascending order."""
    for value in range(256):
        if value != payload[position]:
            yield payload[:position] + bytes((value,)) + payload[position + 1:]


def position_record(outcomes: List[Any]) -> Tuple[int, str]:
    """``(errors, digest)`` over one position's 255 outcomes."""
    text = json.dumps(outcomes, sort_keys=True, separators=(",", ":"))
    return (
        sum(1 for entry in outcomes if entry == _ERROR),
        hashlib.sha256(text.encode("ascii")).hexdigest()[:12],
    )


def record_all() -> List[Dict[str, Any]]:
    cases = []
    for family, name, payload in corpus():
        decode = CODECS[family].decode_batch_reply
        for cut in range(len(payload)):
            assert outcome(decode, payload[:cut]) == _ERROR, (name, cut)
        cases.append({
            "family": family.name,
            "name": name,
            "payload": payload.hex(),
            "decoded": outcome(decode, payload),
            "positions": [
                position_record(
                    [outcome(decode, m) for m in mutations(payload, position)]
                )
                for position in range(len(payload))
            ],
        })
    return cases


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    lines = ",\n".join(
        json.dumps(case, sort_keys=True, separators=(",", ":"))
        for case in record_all()
    )
    FIXTURE.write_text('{"cases":[\n' + lines + "\n]}\n")
    print(f"wrote {FIXTURE}")
