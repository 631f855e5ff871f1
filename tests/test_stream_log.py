"""Update-log tests: roundtrip, crash recovery, and hostile bytes.

The log's one load-bearing promise is the recovery contract: a crash
mid-append (the file ends in a truncated gzip member) loses at most
the record being written — everything before it reads back intact, and
a writer reopened on the damaged file truncates the tail and resumes
the sequence. The kill-mid-write test proves it at every byte offset
of a real log. Anything else — bit flips inside a complete member,
sequence gaps, non-log files — must surface as
:class:`UpdateLogError`, never as a raw exception.
"""

import gzip
import json
import threading
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.stream.delta import DeltaBatch, ListingDelta
from repro.stream.log import (
    LOG_MAGIC,
    LOG_VERSION,
    UpdateLogError,
    UpdateLogReader,
    UpdateLogWriter,
    read_update_log,
    write_update_log,
)


def _batch(seq, day=None, n=2):
    day = seq + 10 if day is None else day
    return DeltaBatch(
        seq,
        day,
        tuple(
            ListingDelta(day, 100 + i, "alpha", "extend", 1, day)
            for i in range(n)
        ),
    )


BATCHES = [_batch(seq) for seq in range(1, 5)]


def _member(doc):
    """A complete gzip member holding one JSON document — for crafting
    corrupt logs by hand."""
    return gzip.compress(
        json.dumps(doc, separators=(",", ":"), sort_keys=True).encode(),
        6,
    )


def _header_doc(start_day=0):
    return {
        "magic": LOG_MAGIC,
        "version": LOG_VERSION,
        "start_day": start_day,
        "meta": {},
    }


def _record_doc(batch):
    body = {
        "seq": batch.seq,
        "day": batch.day,
        "deltas": [d.to_wire() for d in batch.deltas],
    }
    crc = zlib.crc32(
        json.dumps(body, separators=(",", ":"), sort_keys=True).encode()
    )
    return {**body, "crc": crc}


class TestRoundtrip:
    def test_write_then_read(self, tmp_path):
        path = tmp_path / "log.gz"
        write_update_log(
            path, BATCHES, start_day=11, meta={"preset": "small"}
        )
        header, batches = read_update_log(path)
        assert header["magic"] == LOG_MAGIC
        assert header["version"] == LOG_VERSION
        assert header["start_day"] == 11
        assert header["meta"] == {"preset": "small"}
        assert batches == BATCHES

    def test_empty_log_has_header_only(self, tmp_path):
        path = tmp_path / "log.gz"
        UpdateLogWriter(path, start_day=3)
        header, batches = read_update_log(path)
        assert header["start_day"] == 3
        assert batches == []

    def test_append_deltas_assigns_next_seq(self, tmp_path):
        writer = UpdateLogWriter(tmp_path / "log.gz")
        first = writer.append_deltas(5, BATCHES[0].deltas)
        second = writer.append_deltas(6, BATCHES[1].deltas)
        assert (first.seq, second.seq) == (1, 2)
        _, batches = read_update_log(writer.path)
        assert [b.seq for b in batches] == [1, 2]

    def test_writer_enforces_sequence(self, tmp_path):
        writer = UpdateLogWriter(tmp_path / "log.gz")
        writer.append(BATCHES[0])
        with pytest.raises(UpdateLogError):
            writer.append(_batch(5))
        with pytest.raises(UpdateLogError):
            writer.append(BATCHES[0])  # replaying seq 1

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(UpdateLogError):
            read_update_log(tmp_path / "nope.gz")


class TestKillMidWrite:
    """Truncate a real log at *every* byte offset and check the
    recovery contract holds at each one."""

    def _boundaries(self, path):
        """Byte offsets at which the log is whole: after the header
        and after each appended record."""
        writer = UpdateLogWriter(path, start_day=11)
        offsets = [path.stat().st_size]
        for batch in BATCHES:
            writer.append(batch)
            offsets.append(path.stat().st_size)
        return offsets

    def test_every_truncation_recovers_a_prefix(self, tmp_path):
        path = tmp_path / "log.gz"
        offsets = self._boundaries(path)
        blob = path.read_bytes()
        assert offsets[-1] == len(blob)
        victim = tmp_path / "cut.gz"
        for cut in range(len(blob) + 1):
            victim.write_bytes(blob[:cut])
            complete = sum(1 for off in offsets if off <= cut)
            if complete == 0:
                # Not even the header survived.
                with pytest.raises(UpdateLogError):
                    read_update_log(victim)
                continue
            header, batches = read_update_log(victim)
            assert header["start_day"] == 11
            assert batches == BATCHES[: complete - 1], cut

    def test_writer_reopen_truncates_tail_and_resumes(self, tmp_path):
        path = tmp_path / "log.gz"
        offsets = self._boundaries(path)
        blob = path.read_bytes()
        # Cut inside the last record: two complete batches survive.
        cut = offsets[3] + (offsets[4] - offsets[3]) // 2
        victim = tmp_path / "cut.gz"
        victim.write_bytes(blob[:cut])
        writer = UpdateLogWriter(victim)
        assert writer.next_seq == 4
        assert victim.stat().st_size == offsets[3]
        assert writer.header["start_day"] == 11  # header preserved
        writer.append(_batch(4, day=99))
        _, batches = read_update_log(victim)
        assert [b.seq for b in batches] == [1, 2, 3, 4]
        assert batches[-1].day == 99

    def test_reopen_on_partial_header_starts_over(self, tmp_path):
        path = tmp_path / "log.gz"
        self._boundaries(path)
        blob = path.read_bytes()
        victim = tmp_path / "cut.gz"
        victim.write_bytes(blob[:7])  # inside the header member
        writer = UpdateLogWriter(victim, start_day=21)
        assert writer.next_seq == 1
        header, batches = read_update_log(victim)
        assert header["start_day"] == 21
        assert batches == []


class TestCorruption:
    def _write(self, tmp_path, *members):
        path = tmp_path / "log.gz"
        path.write_bytes(b"".join(members))
        return path

    def test_checksum_mismatch_detected(self, tmp_path):
        doc = _record_doc(BATCHES[0])
        doc["crc"] ^= 1
        path = self._write(tmp_path, _member(_header_doc()), _member(doc))
        with pytest.raises(UpdateLogError, match="checksum"):
            read_update_log(path)

    def test_sequence_gap_detected(self, tmp_path):
        path = self._write(
            tmp_path,
            _member(_header_doc()),
            _member(_record_doc(_batch(2))),
        )
        with pytest.raises(UpdateLogError, match="sequence gap"):
            read_update_log(path)

    def test_tampered_delta_row_detected(self, tmp_path):
        # A self-consistent record (valid crc) whose rows are not
        # valid deltas must still fail loudly.
        body = {"seq": 1, "day": 3, "deltas": [["add", 1, True, "x", 0, 0]]}
        crc = zlib.crc32(
            json.dumps(
                body, separators=(",", ":"), sort_keys=True
            ).encode()
        )
        path = self._write(
            tmp_path, _member(_header_doc()), _member({**body, "crc": crc})
        )
        with pytest.raises(UpdateLogError):
            read_update_log(path)

    def test_non_json_member_detected(self, tmp_path):
        path = self._write(
            tmp_path, _member(_header_doc()), gzip.compress(b"not json", 6)
        )
        with pytest.raises(UpdateLogError, match="undecodable"):
            read_update_log(path)

    def test_wrong_magic_and_version_detected(self, tmp_path):
        path = self._write(tmp_path, _member({"magic": "nope"}))
        with pytest.raises(UpdateLogError, match="not an update log"):
            read_update_log(path)
        doc = _header_doc()
        doc["version"] = LOG_VERSION + 1
        path = self._write(tmp_path, _member(doc))
        with pytest.raises(UpdateLogError, match="version"):
            read_update_log(path)

    def test_plain_garbage_is_an_error(self, tmp_path):
        path = tmp_path / "log.gz"
        path.write_bytes(b"this is not gzip at all")
        with pytest.raises(UpdateLogError):
            read_update_log(path)

    def _three_batches(self, tmp_path):
        """A real log of three batches and where each member starts."""
        path = tmp_path / "log.gz"
        writer = UpdateLogWriter(path)
        starts = []
        for batch in BATCHES[:3]:
            starts.append(path.stat().st_size)
            writer.append(batch)
        return path, starts

    def test_damage_inside_a_middle_member_is_not_a_tail(self, tmp_path):
        """Invalid deflate data is corruption, not truncation: valid
        batches sit behind it, and a reader that took it for a torn
        tail would return ``[1]`` and then ``[]`` for ever."""
        path, starts = self._three_batches(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[(starts[1] + starts[2]) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        reader = UpdateLogReader(path)
        for _ in range(2):  # and it stays an error: no cursor moved
            with pytest.raises(
                UpdateLogError, match=f"corrupt record at byte {starts[1]}:"
            ):
                reader.poll()
        assert reader.offset == 0

    def test_damage_found_by_a_later_poll_names_the_file_offset(
        self, tmp_path
    ):
        path, starts = self._three_batches(tmp_path)
        whole = path.read_bytes()
        path.write_bytes(whole[: starts[1]])
        reader = UpdateLogReader(path)
        assert reader.poll() == [BATCHES[0]]
        blob = bytearray(whole)
        blob[starts[1] + 20] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(UpdateLogError, match=f"at byte {starts[1]}:"):
            reader.poll()

    def test_damaged_member_header_is_not_a_tail(self, tmp_path):
        # FLG.FEXTRA set by a flipped bit: the inflater would skip the
        # records behind it as an "extra field" and never finish.
        path, starts = self._three_batches(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[starts[1] + 3] ^= 0x04
        path.write_bytes(bytes(blob))
        with pytest.raises(UpdateLogError, match="not a member header"):
            read_update_log(path)

    def test_oversize_member_is_not_a_tail(self, tmp_path, monkeypatch):
        from repro.stream import log

        monkeypatch.setattr(log, "MAX_RECORD_BYTES", 64)
        path = self._write(
            tmp_path,
            _member(_header_doc()),
            gzip.compress(b" " * 65, 6),
            _member(_record_doc(BATCHES[0])),
        )
        with pytest.raises(UpdateLogError, match="exceeds 64 bytes"):
            read_update_log(path)

    def test_writer_refuses_to_recover_over_damage(self, tmp_path):
        # Recovery truncates a torn tail; it must not "recover" a
        # corrupt log by cutting valid batches off behind the damage.
        path, starts = self._three_batches(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[starts[1] + 20] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(UpdateLogError, match="corrupt record"):
            UpdateLogWriter(path)
        assert path.read_bytes() == bytes(blob)


class TestFuzz:
    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(blob=st.binary(max_size=300))
    def test_arbitrary_bytes_never_crash(self, blob, tmp_path):
        path = tmp_path / "fuzz.gz"
        path.write_bytes(blob)
        try:
            read_update_log(path)
        except UpdateLogError:
            pass

    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_single_byte_flips_never_crash(self, data, tmp_path):
        path = tmp_path / "flip.gz"
        # One tmp_path serves every hypothesis example: start each
        # example from a pristine log, not the last one's corpse.
        path.unlink(missing_ok=True)
        write_update_log(path, BATCHES[:1], start_day=1)
        last_member = path.stat().st_size
        UpdateLogWriter(path).append(BATCHES[1])
        blob = bytearray(path.read_bytes())
        pos = data.draw(
            st.integers(min_value=0, max_value=len(blob) - 1)
        )
        bit = data.draw(st.integers(min_value=0, max_value=7))
        blob[pos] ^= 1 << bit
        path.write_bytes(bytes(blob))
        try:
            header, batches = read_update_log(path)
        except UpdateLogError:
            return
        # A flip the reader accepted changed nothing it reads (gzip
        # mtime/OS bytes, deflate padding bits) — or it left the last
        # member unfinished, which is what a torn append looks like.
        # Damage with a complete member behind it is never accepted.
        assert header["magic"] == LOG_MAGIC
        if batches != BATCHES[:2]:
            assert batches == BATCHES[:1] and pos >= last_member


class TestReader:
    def test_poll_is_incremental(self, tmp_path):
        path = tmp_path / "log.gz"
        writer = UpdateLogWriter(path, start_day=2)
        writer.append(BATCHES[0])
        writer.append(BATCHES[1])
        reader = UpdateLogReader(path)
        assert reader.poll() == BATCHES[:2]
        assert reader.poll() == []
        writer.append(BATCHES[2])
        assert reader.poll() == [BATCHES[2]]
        assert reader.header["start_day"] == 2

    def test_header_property_reads_on_demand(self, tmp_path):
        path = tmp_path / "log.gz"
        UpdateLogWriter(path, start_day=7, meta={"k": 1})
        reader = UpdateLogReader(path)
        assert reader.header == {
            "magic": LOG_MAGIC,
            "version": LOG_VERSION,
            "start_day": 7,
            "meta": {"k": 1},
        }

    def test_header_first_leaves_the_backlog_to_poll(self, tmp_path):
        """``header`` on a fresh reader used to poll the whole file and
        throw the batches away: a follower that read its header first
        would skip the backlog and serve stale without declaring it."""
        path = tmp_path / "log.gz"
        writer = UpdateLogWriter(path, start_day=4)
        writer.append(BATCHES[0])
        writer.append(BATCHES[1])
        reader = UpdateLogReader(path)
        assert reader.header["start_day"] == 4
        assert reader.offset < path.stat().st_size
        assert reader.poll() == BATCHES[:2]
        assert reader.offset == path.stat().st_size
        assert reader.header["start_day"] == 4
        assert reader.poll() == []

    def test_header_on_empty_file_raises(self, tmp_path):
        path = tmp_path / "log.gz"
        path.write_bytes(b"")
        with pytest.raises(UpdateLogError, match="no complete header"):
            UpdateLogReader(path).header

    def test_poll_sees_through_a_truncated_tail(self, tmp_path):
        """A reader polling mid-append sees the complete prefix, then
        the rest once the append finishes — the tailing contract the
        follower thread relies on."""
        path = tmp_path / "log.gz"
        writer = UpdateLogWriter(path)
        writer.append(BATCHES[0])
        before = path.stat().st_size
        writer.append(BATCHES[1])
        whole = path.read_bytes()
        reader = UpdateLogReader(path)
        # A torn append is a strict prefix of the member being
        # written: at every cut the reader sees batch 1 and waits.
        path.write_bytes(whole[: before + 1])
        assert reader.poll() == [BATCHES[0]]
        for cut in range(before + 2, len(whole)):
            path.write_bytes(whole[:cut])
            assert reader.poll() == [], cut
        # Writer finishes the append.
        path.write_bytes(whole)
        assert reader.poll() == [BATCHES[1]]

    def test_follow_yields_live_appends(self, tmp_path):
        path = tmp_path / "log.gz"
        writer = UpdateLogWriter(path)
        writer.append(BATCHES[0])
        stop = threading.Event()
        received = []
        for batch in UpdateLogReader(path).follow(
            poll_interval=0.01, stop=stop
        ):
            received.append(batch)
            if len(received) == 1:
                writer.append(BATCHES[1])  # append while tailing
            if len(received) == 2:
                stop.set()
        assert received == BATCHES[:2]

    def test_follow_respects_preset_stop(self, tmp_path):
        path = tmp_path / "log.gz"
        UpdateLogWriter(path)
        stop = threading.Event()
        stop.set()
        assert list(
            UpdateLogReader(path).follow(poll_interval=0.01, stop=stop)
        ) == []
