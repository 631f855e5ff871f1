"""A single server's ``stats`` payload, pinned key by key.

The literals below are what commit ``18db6cd`` sent back — the engine
then still kept its own locked counter table — for a static server and
for one following an update log, before any query and after a fixed
sequence of them on both codecs, then grown by the ``loop`` block's
``closes`` and the ``events`` list. Every block is compared as a list of
items, so key order is pinned along with the values; only each
``queries.<kind>.seconds`` and each event's ``at`` are measurements,
checked for type and sign and then masked.

What the sequence exercises: a JSON ``query`` op (a ``point``), its
repeat (a cache hit, so no engine query), a day outside i32 (a cache
miss on its address's default-day record, which the engine answers),
packed batches that partly hit, and a binary ``query()`` (a one-pair
packed batch).
"""


from repro.service.client import ReputationClient
from repro.service.engine import QueryEngine
from repro.service.server import PACKED_CACHE_SIZE, ReputationServer
from repro.stream.epoch import EpochIndex, index_as_of
from repro.stream.follower import LogFollower
from repro.stream.log import UpdateLogWriter
from tests.conftest import wait_for_seq

SIZES = [
    ("ips", 188), ("intervals", 1683), ("nated_ips", 26),
    ("dynamic_prefixes", 1), ("lists", 151), ("ases", 11),
]


def _items(stats):
    """``stats`` as nested item lists (so order is compared), with each
    ``seconds`` and ``at`` checked and masked."""
    queries = stats.get("queries")
    for row in (queries or {}).values():
        assert isinstance(row["seconds"], float) and row["seconds"] >= 0
        row["seconds"] = "s"
    for event in stats.get("events", []):
        assert isinstance(event["at"], float) and event["at"] > 0
        event["at"] = "t"
    return [
        (key, [(k, list(v.items()) if isinstance(v, dict) else v)
               for k, v in block.items()]
         if isinstance(block, dict) else [list(e.items()) for e in block])
        for key, block in stats.items()
    ]


def _ask(address, listed):
    """The fixed query sequence; returns the ``stats`` payloads taken
    before and after it."""
    with ReputationClient(*address, codec="json") as json_client, \
            ReputationClient(*address, codec="binary") as binary_client:
        before = json_client.stats()
        json_client.query(listed[0], 230)
        json_client.query(listed[0], 230)
        json_client.query(listed[1], 2**40)
        binary_client.query_batch([(ip, 230) for ip in listed[:10]])
        binary_client.query_batch([(ip, 230) for ip in listed[5:12]])
        binary_client.query(listed[2], 231)
        after = json_client.stats()
    return before, after


#: The ``queries`` block after the sequence, on either server.
QUERIES = [
    ("point", [("calls", 2), ("queries", 2), ("cache_hits", 0),
               ("seconds", "s")]),
    ("batch", [("calls", 3), ("queries", 12), ("cache_hits", 0),
               ("seconds", "s")]),
]


def _cache(entries, hits, misses):
    return [("entries", entries), ("capacity", PACKED_CACHE_SIZE),
            ("hits", hits), ("misses", misses)]


def _loop(closes=()):
    """The ``loop`` block, which every door adds before its events:
    nothing caught, no accept short of a descriptor, ``closes``."""
    return ("loop", [("callback_errors", 0), ("callback_error", None),
                     ("accept_errors", 0), ("closes", list(closes))])


#: A static server: no connection closed yet, and no event.
LOOP = _loop()
NO_EVENTS = ("events", [])


def test_static_server_payload(full_index):
    listed = sorted(ip for ip, _spans in full_index.interval_items())
    with ReputationServer(QueryEngine(full_index)) as server:
        server.start()
        before, after = _ask(server.address, listed)
    assert _items(before) == [
        ("queries", []),
        ("index", SIZES),
        ("epoch", [("epoch", 0), ("seq", 0)]),
        ("cache", _cache(0, 0, 0)),
        LOOP,
        NO_EVENTS,
    ]
    assert _items(after) == [
        ("queries", QUERIES),
        ("index", SIZES),
        ("epoch", [("epoch", 0), ("seq", 0)]),
        ("cache", _cache(14, 7, 14)),
        LOOP,
        NO_EVENTS,
    ]


def test_following_server_payload(
    tmp_path, full_index, start_day, replay_batches
):
    batches = replay_batches[:3]
    log_path = tmp_path / "updates.gz"
    writer = UpdateLogWriter(log_path, start_day=start_day)
    for batch in batches:
        writer.append(batch)
    epochs = EpochIndex(index_as_of(full_index, start_day), day=start_day)
    listed = sorted(ip for ip, _spans in full_index.interval_items())
    with ReputationServer(
        QueryEngine(epochs), streaming=True
    ) as server, LogFollower(log_path, epochs, poll_interval=0.01):
        server.start()
        assert wait_for_seq([server.address], batches[-1].seq, timeout=10.0)
        before, after = _ask(server.address, listed)
    epoch = [
        ("epoch", 3), ("seq", 3), ("day", 217), ("deltas_applied", 188),
        ("batches_skipped", 0), ("error", None),
    ]
    sizes = [
        ("ips", 21), ("intervals", 89), ("nated_ips", 26),
        ("dynamic_prefixes", 1), ("lists", 151), ("ases", 11),
    ]
    # Each of the wait's probes was a connection, closed by its client.
    probes = before["loop"]["closes"].get("connection closed", 0)
    assert probes >= 1
    loop = _loop([("connection closed", probes)])
    events = ("events", [
        [("at", "t"), ("kind", "epoch"), ("number", batch.seq),
         ("seq", batch.seq), ("day", batch.day),
         ("deltas", len(batch.deltas))]
        for batch in reversed(batches)
    ])
    assert _items(before) == [
        ("queries", []),
        ("index", sizes),
        ("epoch", epoch),
        ("cache", _cache(0, 0, 0)),
        loop,
        events,
    ]
    assert _items(after) == [
        ("queries", QUERIES),
        ("index", sizes),
        ("epoch", epoch),
        ("cache", _cache(14, 7, 14)),
        loop,
        events,
    ]
