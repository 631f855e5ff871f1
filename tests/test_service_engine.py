"""Engine and index tests: the online path must be a faithful,
read-optimised view of the batch :class:`ReuseAnalysis`."""

import gzip
import os
import struct
import zlib

import pytest

from repro.core.greylist import BlockAction, recommend_action
from repro.service import snapshot
from repro.service.engine import ACTION_IGNORE, QueryEngine
from repro.internet.categories import AbuseCategory
from repro.service.index import ReputationIndex, SnapshotError, policy_category


@pytest.fixture()
def engine(index):
    return QueryEngine(index)


def _listed_ips(index):
    """Every address the index holds a listing for, address-ordered."""
    return sorted(ip for ip, _spans in index.interval_items())


def _sample_days(analysis):
    """Days inside, at the edges of, and between the windows."""
    days = []
    for start, end in analysis.windows:
        days += [start, (start + end) // 2, end]
    days += [analysis.windows[0][1] + 1, 0]
    return sorted(set(days))


class TestIndexFaithfulness:
    def test_lists_match_store_intervals(self, small_full_run, index):
        """``lists_active_on`` must agree with the interval store's
        answer for every blocklisted IP on every probed day."""
        analysis = small_full_run.analysis
        store = analysis.observed
        for ip in analysis.blocklisted_ips:
            for day in _sample_days(analysis):
                expected = sorted(
                    {l.list_id for l in store.listings_active_on(ip, day)}
                )
                assert list(index.lists_active_on(ip, day)) == expected

    def test_reuse_flags_match_analysis(self, small_full_run, engine):
        analysis = small_full_run.analysis
        probe = set(analysis.blocklisted_ips) | set(analysis.nated_ips)
        for ip in probe:
            verdict = engine.query(ip)
            assert verdict.nated == (ip in analysis.nated_ips)
            assert verdict.dynamic == analysis._dynamic_set.contains_ip(ip)
            assert bool(verdict.reuse_kind) == analysis.is_reused(ip)
            assert verdict.users == (
                analysis.nat.users_behind(ip) if ip in analysis.nated_ips else 0
            )
            if ip in analysis.blocklisted_ips:
                assert verdict.asn == analysis.asn_of(ip)

    def test_default_day_is_last_window_day(self, small_full_run, index):
        assert index.default_day() == small_full_run.analysis.windows[-1][1]


class TestVerdicts:
    def test_verdicts_match_batch_analysis(self, small_full_run, engine):
        """The acceptance contract: engine verdicts equal the batch
        analysis for every blocklisted IP in the scenario."""
        analysis = small_full_run.analysis
        category_of = {
            info.list_id: policy_category(info)
            for info in small_full_run.scenario.catalog
        }
        for ip in analysis.blocklisted_ips:
            for day in _sample_days(analysis):
                verdict = engine.query(ip, day)
                listed_lists = {
                    l.list_id
                    for l in analysis.observed.listings_active_on(ip, day)
                }
                assert verdict.listed == bool(listed_lists)
                assert set(verdict.lists) == listed_lists
                assert verdict.nated == (ip in analysis.nated_ips)
                assert verdict.unjust == (
                    bool(listed_lists) and analysis.is_reused(ip)
                )
                if not listed_lists:
                    assert verdict.action == ACTION_IGNORE
                else:
                    per_list = {
                        recommend_action(
                            analysis, ip,
                            blocklist_category=category_of.get(
                                list_id, AbuseCategory.REPUTATION
                            ),
                        )
                        for list_id in listed_lists
                    }
                    expected = (
                        BlockAction.BLOCK
                        if BlockAction.BLOCK in per_list
                        else BlockAction.GREYLIST
                    )
                    assert verdict.action == expected

    def test_unjust_ips_exist_in_scenario(self, small_full_run, engine):
        """The scenario must actually exercise the unjust path."""
        analysis = small_full_run.analysis
        unjust_seen = False
        for ip in analysis.reused_ips():
            for start, end in analysis.windows:
                for day in range(start, end + 1):
                    if engine.query(ip, day).unjust:
                        unjust_seen = True
                        break
        assert unjust_seen

    def test_batch_equals_points(self, small_full_run, engine):
        ips = sorted(small_full_run.analysis.blocklisted_ips)[:40]
        pairs = [(ip, 230) for ip in ips]
        assert engine.query_batch(pairs) == [
            engine.query(ip, day) for ip, day in pairs
        ]

    def test_default_day_applied(self, engine):
        ip = _listed_ips(engine.index)[0]
        assert engine.query(ip) == engine.query(
            ip, engine.index.default_day()
        )

    def test_bad_ip_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.query(-1, 230)
        with pytest.raises(ValueError):
            engine.query(1 << 33, 230)


class TestEngineCache:
    """The engine keeps no state (the server's packed-record cache is
    the stack's one verdict cache, its counters the server's): a repeat
    is re-evaluated and equal."""

    def test_cached_verdicts_identical(self, index):
        engine = QueryEngine(index)
        ip = _listed_ips(index)[0]
        assert engine.query(ip, 230) == engine.query(ip, 230)
        # A plain index is served as an epoch no log feeds.
        assert engine.epochs.current.index is index
        assert engine.epochs.stats()["epoch"] == 0


class TestSnapshots:
    def test_roundtrip_preserves_verdicts(
        self, small_full_run, index, tmp_path
    ):
        path = tmp_path / "small.idx"
        index.save(path)
        loaded = ReputationIndex.load(path)
        assert loaded.stats() == index.stats()
        engine, loaded_engine = QueryEngine(index), QueryEngine(loaded)
        analysis = small_full_run.analysis
        for ip in sorted(analysis.blocklisted_ips):
            for day in _sample_days(analysis):
                assert engine.query(ip, day) == loaded_engine.query(ip, day)

    def test_missing_snapshot(self, tmp_path):
        with pytest.raises(SnapshotError):
            ReputationIndex.load(tmp_path / "nope.idx")

    def test_garbage_snapshot(self, tmp_path):
        path = tmp_path / "garbage.idx"
        path.write_bytes(b"\x00\x01 not a snapshot at all")
        with pytest.raises(SnapshotError):
            ReputationIndex.load(path)

    # The fixed header (DESIGN.md §9, "Snapshot file"): magic, version,
    # key bytes, family tag, sections, file bytes, CRC-32, padding.
    HEADER = struct.Struct("<8sHH8sIQI4x")
    CRC_AT = 32

    def _saved(self, index, tmp_path):
        path = tmp_path / "bytes.idx"
        index.save(path)
        return path, bytearray(path.read_bytes())

    def _crc(self, data):
        """CRC-32 of everything but the CRC field itself."""
        return zlib.crc32(
            bytes(data[self.CRC_AT + 4:]),
            zlib.crc32(bytes(data[:self.CRC_AT])),
        )

    def _reseal(self, data):
        """Recompute the CRC so only the edited field is at fault."""
        struct.pack_into("<I", data, self.CRC_AT, self._crc(data))

    def _load_error(self, path, data):
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotError) as caught:
            ReputationIndex.load(path)
        return str(caught.value)

    def test_header_layout_is_pinned(self, index, tmp_path):
        path, data = self._saved(index, tmp_path)
        magic, version, key_bytes, tag, sections, size, crc = (
            self.HEADER.unpack_from(data)
        )
        assert (magic, version, key_bytes) == (b"REPROIDX", 2, 4)
        assert tag == bytes(8)  # v4 carries no family tag
        assert sections == 11
        assert size == len(data) == path.stat().st_size
        assert crc == self._crc(data)
        assert data[self.HEADER.size:self.HEADER.size + 4] == b"META"

    def test_wrong_magic_snapshot(self, index, tmp_path):
        path, data = self._saved(index, tmp_path)
        data[:8] = b"REPROIDY"
        self._reseal(data)
        assert "not a reputation-index" in self._load_error(path, data)

    def test_wrong_version_snapshot(self, index, tmp_path):
        path, data = self._saved(index, tmp_path)
        struct.pack_into("<H", data, 8, 999)
        self._reseal(data)
        assert "version-999" in self._load_error(path, data)
        struct.pack_into("<H", data, 8, 1)
        self._reseal(data)
        assert "unsupported" in self._load_error(path, data)

    def test_short_and_empty_files(self, tmp_path):
        path = tmp_path / "short.idx"
        for blob in (b"", b"REPROIDX", b"REPROIDX" + bytes(20)):
            assert "too short" in self._load_error(path, blob)

    def test_checksum_mismatch(self, index, tmp_path):
        path, data = self._saved(index, tmp_path)
        data[-1] ^= 0x01
        assert "checksum mismatch" in self._load_error(path, data)

    def test_truncated_file(self, index, tmp_path):
        path, data = self._saved(index, tmp_path)
        assert "truncated" in self._load_error(path, data[:-8])

    def test_section_past_end_of_file(self, index, tmp_path):
        path, data = self._saved(index, tmp_path)
        # Last section-table entry: tag, item bytes, offset, length.
        entry = self.HEADER.size + 24 * 10
        struct.pack_into("<Q", data, entry + 16, len(data))
        self._reseal(data)
        assert "past end of file" in self._load_error(path, data)

    def test_key_width_and_family_mismatch(self, index, tmp_path):
        path, data = self._saved(index, tmp_path)
        struct.pack_into("<H", data, 10, 16)
        self._reseal(data)
        assert "16-byte keys" in self._load_error(path, data)
        struct.pack_into("<H8s", data, 10, 4, b"ipv6")
        self._reseal(data)
        assert "4-byte keys" in self._load_error(path, data)
        struct.pack_into("<8s", data, 12, b"ipx")
        self._reseal(data)
        assert "unknown address family" in self._load_error(path, data)

    def test_big_endian_host_refused(self, index, tmp_path, monkeypatch):
        path, _data = self._saved(index, tmp_path)
        monkeypatch.setattr("sys.byteorder", "big")
        with pytest.raises(SnapshotError, match="big-endian"):
            ReputationIndex.load(path)
        with pytest.raises(SnapshotError, match="big-endian"):
            index.save(tmp_path / "never.idx")
        assert not (tmp_path / "never.idx").exists()

    def test_v1_pickle_snapshot_is_refused_unread(self, tmp_path):
        """A version-1 file is recognised by its gzip magic alone: the
        payload here would fail to unpickle, and is never asked to."""
        path = tmp_path / "v1.idx"
        with gzip.open(path, "wb") as handle:
            handle.write(b"\x80\x05 this is not a pickle")
        with pytest.raises(SnapshotError) as caught:
            ReputationIndex.load(path)
        message = str(caught.value)
        assert "version-1" in message and "delete it" in message
        assert f"repro serve --snapshot {path}" in message

    def test_save_replaces_by_rename_under_a_live_mapping(
        self, index, tmp_path
    ):
        """A loaded index keeps answering from the old inode while a
        new snapshot is renamed over its path."""
        path = tmp_path / "live.idx"
        index.save(path)
        loaded = ReputationIndex.load(path)
        ip = _listed_ips(index)[0]
        before = loaded.intervals_of(ip)
        inode = path.stat().st_ino
        index.with_interval_updates({ip: ()}).save(path)
        assert path.stat().st_ino != inode
        assert loaded.intervals_of(ip) == before
        assert ReputationIndex.load(path).intervals_of(ip) == ()
        assert not list(tmp_path.glob("tmp-index-*"))

    def test_the_sealed_copy_cannot_change(self, index, tmp_path):
        path = tmp_path / "sealed.idx"
        index.save(path)
        image = path.read_bytes()
        with open(path, "rb") as handle:
            sealed = snapshot._sealed_copy(handle.fileno(), len(image))
        try:
            for change in (
                lambda: os.ftruncate(sealed, 0),
                lambda: os.ftruncate(sealed, 2 * len(image)),
                lambda: os.pwrite(sealed, b"x", 0),
            ):
                with pytest.raises(PermissionError):
                    change()
            assert os.pread(sealed, len(image) + 1, 0) == image
        finally:
            os.close(sealed)
