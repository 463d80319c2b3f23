"""Round-trip, integrity and schema-bump tests for the columnar store.

The append-only ``.npz``-segment + JSON-manifest format replaces pickle
bundles and the monolithic sweep JSON at scale, so these tests pin its
contracts: lossless round-trips (dtypes, NaN/None nullables, unicode
fields), loud detection and quarantine of torn segments (never a silent
drop), streaming reads identical to the in-memory payload, and the
schema-version supersede that forces recompute instead of reusing stale
rows.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import zipfile

import numpy as np
import pytest

from repro.eval import columnar
from repro.eval.columnar import (
    ColumnarStore,
    CorruptSegmentError,
    SegmentInfo,
    SWEEP_RECORD_DTYPE,
    array_to_sweep_records,
    iter_sweep_rows,
    sweep_records_to_array,
    task_identity,
)
from repro.eval.sweep import SweepGrid, SweepRecord, run_sweep
from repro.eval.shard import identified_points


def _record(**overrides) -> SweepRecord:
    values = dict(
        network="MLP-S",
        design="einsteinbarrier",
        crossbar_size=128,
        wdm_capacity=4,
        noise_sigma=0.05,
        latency_s=1.25e-6,
        energy_j=3.5e-9,
        speedup_vs_baseline=12.5,
        energy_ratio_vs_baseline=0.2,
        popcount_error=0.015625,
    )
    values.update(overrides)
    return SweepRecord(**values)


def _pairs(records):
    return [(task_identity({"row": index}), record)
            for index, record in enumerate(records)]


class TestSweepRoundTrip:
    def test_append_then_stream_read_is_lossless(self, tmp_path):
        """dtypes, None-as-NaN nullables and unicode all survive."""
        records = [
            _record(),
            _record(network="MLP-Ünïcødé-网", noise_sigma=None,
                    popcount_error=None, node_utilisation=0.875),
            _record(design="baseline_epcm", latency_s=float("inf")),
        ]
        pairs = _pairs(records)
        store = ColumnarStore(str(tmp_path / "columnar"))
        store.append(sweep_records_to_array(pairs[:2]))
        store.append(sweep_records_to_array(pairs[2:]))

        assert store.rows == 3
        assert len(store.segments()) == 2
        streamed = list(iter_sweep_rows(store))
        assert [identity for identity, _ in streamed] == \
            [identity for identity, _ in pairs]
        for (_, got), (_, want) in zip(streamed, pairs):
            assert got == want
            assert pickle.dumps(got) == pickle.dumps(want)
        # None came back as None, not as NaN
        assert streamed[1][1].noise_sigma is None
        assert streamed[1][1].popcount_error is None
        assert streamed[1][1].network == "MLP-Ünïcødé-网"
        assert store.published_identities() == \
            {identity for identity, _ in pairs}

    def test_generic_structured_dtype_round_trips(self, tmp_path):
        """The store is generic over any identity-first structured dtype."""
        dtype = np.dtype([
            ("identity", "U64"), ("label", "U16"),
            ("value", "f8"), ("count", "i4"),
        ])
        arr = np.array([
            ("a" * 64, "ünïcødé", 1.5, 7),
            ("b" * 64, "plain", np.nan, -3),
        ], dtype=dtype)
        store = ColumnarStore(str(tmp_path / "generic"))
        store.append(arr)
        (back,) = list(store.iter_segments())
        assert back.dtype == dtype
        assert list(back["label"]) == ["ünïcødé", "plain"]
        assert back["value"][0] == 1.5 and np.isnan(back["value"][1])
        assert list(back["count"]) == [7, -3]

    def test_identical_appends_are_byte_idempotent(self, tmp_path):
        """Same rows -> same segment bytes (the content-hash suffix)."""
        arr = sweep_records_to_array(_pairs([_record()]))
        store = ColumnarStore(str(tmp_path / "columnar"))
        first, second = store.append(arr), store.append(arr)
        assert first.sha256 == second.sha256
        assert first.name != second.name  # distinct sequence numbers

    def test_streaming_reader_matches_in_memory_sweep_result(self, tmp_path):
        """iter_sweep_rows over a real sweep == SweepResult.to_payload."""
        grid = SweepGrid(
            networks=("MLP-S",),
            designs=("baseline_epcm", "einsteinbarrier"),
            crossbar_sizes=(64,),
            wdm_capacities=(4, 8),
            noise_sigmas=(0.0, 0.05),
            noise_trials=1,
            noise_vector_length=16,
            noise_num_outputs=4,
            seed=5,
        )
        result = run_sweep(grid)
        pairs = list(zip(
            [identity for identity, _ in identified_points(grid)],
            result.records,
        ))
        store = ColumnarStore(str(tmp_path / "columnar"))
        # split across segments the way a sharded drain would
        store.append(sweep_records_to_array(pairs[: len(pairs) // 2]))
        store.append(sweep_records_to_array(pairs[len(pairs) // 2:]))
        streamed = [record.to_dict() for _, record in iter_sweep_rows(store)]
        assert json.dumps(streamed, sort_keys=True) == json.dumps(
            result.to_payload()["records"], sort_keys=True)

    def test_empty_append_is_a_no_op(self, tmp_path):
        store = ColumnarStore(str(tmp_path / "columnar"))
        assert store.append(np.empty(0, dtype=SWEEP_RECORD_DTYPE)) is None
        assert store.segments() == [] and store.rows == 0


class TestIntegrity:
    def _store_with_two_segments(self, tmp_path):
        store = ColumnarStore(str(tmp_path / "columnar"))
        pairs = _pairs([_record(), _record(crossbar_size=256)])
        store.append(sweep_records_to_array(pairs[:1]))
        store.append(sweep_records_to_array(pairs[1:]))
        return store, pairs

    def test_truncated_tail_segment_is_detected_and_quarantined(
            self, tmp_path):
        """A torn tail raises on read and quarantines on repair —
        loudly reported, never silently dropped."""
        store, pairs = self._store_with_two_segments(tmp_path)
        tail = store.segments()[-1]
        tail_path = os.path.join(store.root, tail.name)
        with open(tail_path, "rb") as handle:
            blob = handle.read()
        with open(tail_path, "wb") as handle:
            handle.write(blob[: len(blob) // 2])  # the torn write

        with pytest.raises(CorruptSegmentError, match="checksum"):
            list(store.iter_segments())
        report = store.scan()
        assert report.corrupt == (tail.name,)
        assert report.quarantined == ()  # scan alone never mutates

        report = store.scan(repair=True)
        assert report.quarantined == (tail.name,)
        assert os.path.exists(
            os.path.join(store.root, "quarantine", tail.name))
        # the survivor still reads; the torn rows are unpublished again
        assert [segment.name for segment in store.segments()] == \
            [report.ok[0]]
        assert store.published_identities() == {pairs[0][0]}
        assert store.scan().corrupt == ()

    def test_orphan_segment_is_reported_and_quarantined(self, tmp_path):
        """A segment file the manifest never adopted (crash between the
        two append steps) is an orphan, not data."""
        store, pairs = self._store_with_two_segments(tmp_path)
        orphan = "seg-0000042-deadbeef.npz"
        with open(os.path.join(store.root, orphan), "wb") as handle:
            handle.write(b"half-written garbage")
        report = store.scan()
        assert report.orphans == (orphan,)
        assert store.scan(repair=True).quarantined == (orphan,)
        assert os.path.exists(
            os.path.join(store.root, "quarantine", orphan))
        assert store.published_identities() == \
            {identity for identity, _ in pairs}

    def test_missing_segment_bytes_raise_not_skip(self, tmp_path):
        store, _ = self._store_with_two_segments(tmp_path)
        os.remove(os.path.join(store.root, store.segments()[0].name))
        with pytest.raises(CorruptSegmentError, match="missing"):
            list(store.iter_segments())


class TestSchemaSupersede:
    def test_schema_bump_archives_and_forces_recompute(self, tmp_path):
        root = str(tmp_path / "columnar")
        pairs = _pairs([_record()])
        old = ColumnarStore(root, schema_version=1)
        old.append(sweep_records_to_array(pairs))
        assert old.published_identities()

        new = ColumnarStore(root, schema_version=2)
        # the store restarts empty: nothing published, so every point of
        # a resuming sweep recomputes (identities hash the version too)
        assert new.rows == 0
        assert new.published_identities() == set()
        archives = [name for name in os.listdir(root)
                    if name.startswith("superseded-v1-")]
        assert len(archives) == 1
        archived = os.listdir(os.path.join(root, archives[0]))
        assert "manifest.json" in archived
        assert any(name.startswith("seg-") for name in archived)

    def test_reopening_same_schema_keeps_rows(self, tmp_path):
        root = str(tmp_path / "columnar")
        ColumnarStore(root).append(
            sweep_records_to_array(_pairs([_record()])))
        assert ColumnarStore(root).rows == 1


def test_array_round_trip_survives_helper_inverse():
    """array_to_sweep_records exactly inverts sweep_records_to_array."""
    pairs = _pairs([
        _record(noise_sigma=None, popcount_error=None),
        _record(network="Δ-net", nodes_required=12, node_utilisation=0.5),
    ])
    assert array_to_sweep_records(sweep_records_to_array(pairs)) == pairs


def _row_wise_decode(arr):
    """Reference copy of the original per-row, per-NumPy-scalar decoder."""
    pairs = []
    field_types = {name: SWEEP_RECORD_DTYPE[name].kind
                   for name in SWEEP_RECORD_DTYPE.names}
    for row in arr:
        values = {}
        for name in SWEEP_RECORD_DTYPE.names:
            value = row[name]
            kind = field_types[name]
            if kind == "U":
                values[name] = str(value)
            elif kind == "i":
                values[name] = int(value)
            else:
                values[name] = float(value)
        for name in ("noise_sigma", "popcount_error"):
            if isinstance(values[name], float) and np.isnan(values[name]):
                values[name] = None
        identity = str(values.pop("identity"))
        pairs.append((identity, SweepRecord(**values)))
    return pairs


def test_column_wise_decode_matches_row_wise_reference():
    """Same records, same pickle bytes, same exact Python types."""
    i64 = np.iinfo(np.int64)
    arr = sweep_records_to_array(_pairs([
        _record(noise_sigma=None, popcount_error=None),
        _record(network="MLP-Ünïcødé-网", design="設計-Δ",
                crossbar_size=int(i64.max), wdm_capacity=int(i64.min),
                vcores_required=int(i64.min), nodes_required=int(i64.max)),
        _record(noise_sigma=0.0, popcount_error=None, latency_s=float("inf"),
                energy_j=-0.0, speedup_vs_baseline=5e-324,
                node_utilisation=float("nan")),
        _record(noise_sigma=None, popcount_error=0.0, network=""),
    ]))
    got = array_to_sweep_records(arr)
    want = _row_wise_decode(arr)
    assert len(got) == len(want) == 4
    for (got_id, got_record), (want_id, want_record) in zip(got, want):
        assert pickle.dumps((got_id, got_record)) == \
            pickle.dumps((want_id, want_record))
        assert type(got_id) is str
        for name, value in got_record.to_dict().items():
            assert type(value) is type(getattr(want_record, name)), name
            assert type(value) in (int, float, str, type(None)), name
    assert got[0][1].noise_sigma is None and got[0][1].popcount_error is None
    assert got[2][1].noise_sigma == 0.0 and got[3][1].popcount_error == 0.0
    assert array_to_sweep_records(arr[:0]) == []


def _npy(arr, version=None, allow_pickle=False) -> bytes:
    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, arr, version=version,
                              allow_pickle=allow_pickle)
    return buffer.getvalue()


def _install_segment(store, member: bytes, rows: int) -> SegmentInfo:
    """Publish hand-made ``records.npy`` bytes with a matching checksum."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        archive.writestr("records.npy", member)
    blob = buffer.getvalue()
    digest = hashlib.sha256(blob).hexdigest()
    segment = SegmentInfo(name=f"seg-{len(store.segments()):07d}-"
                               f"{digest[:8]}.npz", rows=rows, sha256=digest)
    with open(os.path.join(store.root, segment.name), "wb") as handle:
        handle.write(blob)
    store._write_manifest(store.segments() + [segment])
    return segment


#: set by :class:`_Unpickled` if anything ever unpickles one
_UNPICKLED = []


def _note_unpickled():
    _UNPICKLED.append(True)
    return "unpickled"


class _Unpickled:
    def __reduce__(self):
        return _note_unpickled, ()


class TestSegmentDecoder:
    """The in-house ``.npy`` decoder reads what ``np.load`` reads."""

    ARRAYS = [
        sweep_records_to_array(_pairs([_record(), _record(noise_sigma=None)])),
        np.array([(1.5, -2), (np.nan, 7)],
                 dtype=[("value", ">f8"), ("count", "<i4")]),
        np.arange(24, dtype=np.int16).reshape(2, 3, 4),
        np.empty((0, 3), dtype=np.float32),
        np.array(["Ünïcødé", "网"], dtype="U8"),
        np.asfortranarray(np.arange(6, dtype=np.float64).reshape(2, 3)),
        np.float64(2.5).reshape(()),
    ]

    @pytest.mark.parametrize("version", [(1, 0), (2, 0), (3, 0)])
    @pytest.mark.parametrize("index", range(len(ARRAYS)))
    def test_header_versions_decode_like_np_load(self, tmp_path, version,
                                                 index):
        arr = self.ARRAYS[index]
        member = _npy(arr, version=version)
        want = np.load(io.BytesIO(member))
        store = ColumnarStore(str(tmp_path / "columnar"))
        _install_segment(store, member, rows=len(arr) if arr.ndim else 1)
        for got in (columnar._decode_npy(member, "seg"),
                    *store.iter_segments()):
            assert got.dtype == want.dtype
            assert got.shape == want.shape
            assert got.tobytes(order="A") == want.tobytes(order="A")
            assert got.flags.writeable
            got[...] = want  # writable, and owned: the member is untouched
            assert np.load(io.BytesIO(member)).tobytes() == want.tobytes()

    def test_each_distinct_header_is_parsed_once(self, tmp_path):
        store = ColumnarStore(str(tmp_path / "columnar"))
        for start in range(0, 6, 2):
            store.append(sweep_records_to_array(_pairs(
                [_record(crossbar_size=size)
                 for size in (start, start + 1)])))
        columnar._parse_npy_header.cache_clear()
        for _ in range(2):
            assert len(store.published_identities()) == 2
            assert len(list(iter_sweep_rows(store))) == 6
        info = columnar._parse_npy_header.cache_info()
        assert (info.misses, info.hits) == (1, 11)

    @pytest.mark.parametrize("version", [(1, 0), (3, 0)])
    @pytest.mark.parametrize("dtype", [object, [("identity", "U64"),
                                                ("payload", object)]])
    def test_object_dtype_is_refused_never_unpickled(self, tmp_path,
                                                     version, dtype):
        arr = np.empty(2, dtype=dtype)
        if arr.dtype.names:
            arr["payload"] = [_Unpickled(), _Unpickled()]
        else:
            arr[:] = [_Unpickled(), _Unpickled()]
        member = _npy(arr, version=version, allow_pickle=True)
        store = ColumnarStore(str(tmp_path / "columnar"))
        _install_segment(store, member, rows=2)
        del _UNPICKLED[:]
        with pytest.raises(ValueError, match="allow_pickle=False"):
            list(store.iter_segments())
        with pytest.raises(ValueError, match="allow_pickle=False"):
            store.published_identities()
        assert _UNPICKLED == []
        # the checksum matches, so an integrity scan passes it
        assert store.scan().ok == (store.segments()[0].name,)

    @pytest.mark.parametrize("cut", [1, 100, -8])
    def test_wrong_length_member_raises(self, tmp_path, cut):
        """Checksum-valid bytes whose data section is short (or long)."""
        arr = sweep_records_to_array(_pairs([_record(), _record()]))
        member = _npy(arr)
        member = member[:-cut] if cut > 0 else member + b"\0" * -cut
        store = ColumnarStore(str(tmp_path / "columnar"))
        _install_segment(store, member, rows=2)
        with pytest.raises(CorruptSegmentError, match="array bytes"):
            list(store.iter_segments())

    @pytest.mark.parametrize("arr,version", [
        (np.arange(3.0), (3, 0)),
        (np.asfortranarray(np.arange(6.0).reshape(2, 3)), (1, 0)),
    ])
    def test_other_members_fall_back_to_np_load(self, monkeypatch, arr,
                                                version):
        member = _npy(arr, version=version)
        calls = []
        real = np.load

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(columnar.np, "load", spy)
        assert np.array_equal(columnar._decode_npy(member, "seg"), arr)
        assert calls == [{"allow_pickle": False}]

    def test_scan_repair_checks_checksums_only(self, tmp_path, monkeypatch):
        """A torn tail and an orphan still quarantine; a parse is never
        needed to tell them apart from good segments."""
        store = ColumnarStore(str(tmp_path / "columnar"))
        pairs = _pairs([_record(), _record(crossbar_size=256)])
        store.append(sweep_records_to_array(pairs[:1]))
        tail = store.append(sweep_records_to_array(pairs[1:]))
        tail_path = os.path.join(store.root, tail.name)
        with open(tail_path, "rb") as handle:
            blob = handle.read()
        with open(tail_path, "wb") as handle:
            handle.write(blob[:-1])
        orphan = "seg-0000009-0badf00d.npz"
        with open(os.path.join(store.root, orphan), "wb") as handle:
            handle.write(blob)

        def no_parse(*args):
            raise AssertionError("scan parsed a segment")

        with monkeypatch.context() as patch:
            patch.setattr(columnar, "_decode_npy", no_parse)
            report = store.scan(repair=True)
        assert report.corrupt == (tail.name,)
        assert report.orphans == (orphan,)
        assert report.quarantined == (tail.name, orphan)
        assert sorted(os.listdir(os.path.join(store.root, "quarantine"))) \
            == sorted([tail.name, orphan])
        assert store.published_identities() == {pairs[0][0]}


def test_append_reads_the_manifest_once(tmp_path, monkeypatch):
    store = ColumnarStore(str(tmp_path / "columnar"))
    store.append(sweep_records_to_array(_pairs([_record()])))
    reads = []
    real = ColumnarStore._read_manifest

    def counted(self):
        reads.append(1)
        return real(self)

    monkeypatch.setattr(ColumnarStore, "_read_manifest", counted)
    segment = store.append(sweep_records_to_array(_pairs([_record()])))
    assert len(reads) == 1
    assert segment.name.startswith("seg-0000001-")
    assert [entry.name for entry in store.segments()][-1] == segment.name
