"""Every seeded fault in ``tests/faults.py``, held to the one check;
then the check itself, seen to catch each clause on a doctored record.

    pytest tests/test_faults.py -k snapshot-truncated   # one fault
"""

import socket
import threading
import time

import pytest

from repro.cluster import SHARD_UNAVAILABLE, PartitionMap
from repro.cluster.partition import ShardRange
from repro.service.client import ServiceError
from repro.service.wire import FrameReader, encode_frame
from tests.fake_peer import FakePeer, silent
from tests.faults import FAULTS, Expect, Record, check


@pytest.mark.parametrize("fault", FAULTS, ids=[fault.name for fault in FAULTS])
def test_fault(fault, world, tmp_path):
    check(fault.run(tmp_path, world), fault.expect, world)


def test_a_fake_backend_leaves_no_thread_behind():
    """A connection's thread ends at its peer's EOF (it used to spin a
    core on it), and ``close`` ends the accept thread (it used to stay
    blocked, the port listening, until one more peer came)."""
    before = set(threading.enumerate())
    fake = FakePeer(silent)
    with socket.create_connection(fake.address, timeout=5.0) as peer:
        peer.sendall(encode_frame({"op": "ping"}))
        assert FrameReader(peer).read()["result"] == "pong"
    fake.close()
    deadline = time.monotonic() + 1.0
    while set(threading.enumerate()) - before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not set(threading.enumerate()) - before


def _clean(world):
    """Two listed addresses asked as a batch, then the first alone,
    answered as the model says: ``(record, its calls, that address)``."""
    ips = world.listed[:2]
    verdicts = [{**world.owed(ip, None), "epoch": 0, "seq": 0} for ip in ips]
    record = Record()
    record.conn("client").extend([
        (1, ("query_batch", [(ip, None) for ip in ips]), verdicts, 0.01),
        (2, ("query", ips[0]), dict(verdicts[0]), 0.01),
    ])
    return record, record.conns["client-0"], ips[0]


def _degrade(record, calls, ip, dead=None):
    """The batch's first answer is shard 0's ``SHARD_UNAVAILABLE``,
    and shard 0 covers ``dead``."""
    calls[0][2][0] = {"ip": calls[0][2][0]["ip"], "day": None,
                      "error": SHARD_UNAVAILABLE, "shard": 0}
    record.dead.update({0: dead} if dead else {})


def _answer(calls, answer, seconds=0.01):
    calls[1] = (*calls[1][:2], answer, seconds)


#: name -> (doctoring of the clean record, expect, what check says).
DOCTORED = {
    "duplicated-rid": (lambda r, c, ip: c.append(c[-1]), Expect(), "answered once"),
    "seq-stepped-back": (lambda r, c, ip: c[0][2][1].update(seq=1), Expect(),
                         "seq stepped back 1 -> 0"),
    "seq-back-in-one-shard": (
        lambda r, c, ip: (c[0][2][1].update(seq=1),
                          setattr(r, "partition", PartitionMap(2))),
        Expect(), "seq stepped back 1 -> 0 on shard 0"),
    "off-the-model": (lambda r, c, ip: c[0][2][0].update(lists=["bogus"]),
                      Expect(), "is not the model's"),
    "undeclared-degraded": (lambda r, c, ip: _degrade(r, c, ip), Expect(),
                            "undeclared degraded answer"),
    "degraded-off-its-shard": (lambda r, c, ip: _degrade(r, c, ip, (ip + 1, ip + 9)),
                               Expect(degraded=True), "not shard 0's to declare"),
    "error-without-cause": (lambda r, c, ip: _answer(c, ServiceError("boom")),
                            Expect(), "undeclared error boom"),
    "signal-death": (lambda r, c, ip: r.exits.update(cluster=-9), Expect(),
                     r"cluster exited -9 \(signal death\)"),
    "over-the-bound": (lambda r, c, ip: _answer(c, c[1][2], 2.5),
                       Expect(bound=2.0), "bound 2.0"),
    "never-answered": (lambda r, c, ip: _answer(c, None), Expect(), "never answered"),
    "never-declared": (lambda r, c, ip: None, Expect(cause="sequence gap"),
                       r"declared \[\]"),
    "declared-unasked": (lambda r, c, ip: r.causes.append("boom"), Expect(),
                         r"declared \['boom'\]"),
}


@pytest.mark.parametrize("doctor, expect, says", DOCTORED.values(), ids=DOCTORED)
def test_the_check_catches(world, doctor, expect, says):
    record, calls, ip = _clean(world)
    check(record, Expect(bound=1.0), world)
    doctor(record, calls, ip)
    with pytest.raises(AssertionError, match=says):
        check(record, expect, world)


def test_shards_on_one_connection_keep_their_own_seq(world):
    """Through a router a connection sees each shard's own seq: a
    shard behind another is no step back, unless one shard it is."""
    ips = [world.listed[0], world.listed[-1]]
    split = ips[1] & ~0xFF
    record = Record(partition=PartitionMap.from_ranges(
        [ShardRange(0, split - 1), ShardRange(split, (1 << 32) - 1)]
    ))
    record.conn("client").extend(
        (rid, ("query", ip), {**world.owed(ip, None), "epoch": seq, "seq": seq},
         0.01)
        for rid, (ip, seq) in enumerate(zip(ips, (1, 0)), 1)
    )
    check(record, Expect(), world)
    record.partition = None
    with pytest.raises(AssertionError, match="stepped back 1 -> 0"):
        check(record, Expect(), world)


def test_declared_answers_pass(world):
    record, calls, ip = _clean(world)
    _degrade(record, calls, ip, (ip, ip))
    _answer(calls, ServiceError(f"{SHARD_UNAVAILABLE}: shard 0 has no live backend"))
    check(record, Expect(degraded=True), world)
    _answer(calls, ServiceError("refused: sequence gap"))
    record.causes.append("sequence gap at seq 3")
    check(record, Expect(degraded=True, cause="sequence gap"), world)
