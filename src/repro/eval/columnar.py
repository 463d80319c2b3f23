"""Append-only columnar sweep results: ``.npz`` segments + JSON manifest.

The sweep layer historically materialised every record twice — pickle
result bundles inside the queue namespace, then one monolithic JSON
artifact — which is fine at 10^4 records and hopeless at the 10^7-record
design-space studies the crossbar/WDM/noise/hierarchy axes imply.  This
module owns the at-scale result format:

* **Segments** are immutable ``seg-NNNNNNN-<hash8>.npz`` files, each one
  structured NumPy array whose first field is the row's
  **content-addressed identity** (:func:`task_identity`).  A segment is
  written once (tmp + atomic rename) and never mutated.
* The **manifest** (``manifest.json``) is the single small mutable
  object: an ordered list of ``{name, rows, sha256}`` entries plus the
  record schema version.  It is rewritten atomically on every append, so
  a reader always sees a consistent prefix of the store.
* **Integrity is checked, never assumed**: every read verifies the
  segment's SHA-256 against the manifest before any of its bytes are
  parsed; a mismatch raises :class:`CorruptSegmentError`, and
  :meth:`ColumnarStore.scan` (``repair=True``) *quarantines* corrupt or
  truncated segments into ``quarantine/`` — loudly, in the returned
  report — instead of silently dropping rows.  A verified segment is
  decoded straight from its one ``records.npy`` member: each distinct
  ``.npy`` header is parsed once per process, object dtypes are
  refused (NumPy's ``allow_pickle=False``), and a format 3.0 or
  Fortran-ordered member goes through :func:`numpy.load`.
* **Schema bumps force recompute.**  Opening a store whose manifest
  carries a different ``schema_version`` archives the old manifest and
  segments into ``superseded-v<N>-<hash>/`` and starts fresh; because
  :func:`task_identity` hashes the schema version too, every identity
  changes and a resuming sweep re-evaluates everything rather than
  silently reusing stale records.

Concurrency contract: **one writer, any number of readers**.  The
sharded-sweep collector (:mod:`repro.eval.shard`) is the only appender —
partitions drain through the queue protocol and the submitter folds each
drained partition into one segment — while streaming readers
(:func:`iter_sweep_rows`, consumed by ``eval/reporting.py`` and
``benchmarks/record_trend.py``) never hold more than one segment in
memory.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import os
import shutil
import zipfile
from dataclasses import asdict, dataclass, fields, is_dataclass
from json.encoder import encode_basestring_ascii
from typing import (
    Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence,
    Set, Tuple,
)

import numpy as np
from numpy.lib import format as npy_format

from repro.eval.sweep import SweepRecord

#: bump when the meaning/derivation of a sweep record changes; hashed
#: into every :func:`task_identity`, so a bump invalidates all published
#: identities and forces recompute instead of silently reusing stale rows
RECORD_SCHEMA_VERSION = 1

#: manifest file format version (the envelope, not the record schema)
MANIFEST_FORMAT = "repro-columnar"
MANIFEST_FORMAT_VERSION = 1

_MANIFEST_NAME = "manifest.json"
_SEGMENT_PREFIX = "seg-"
_SEGMENT_SUFFIX = ".npz"
_QUARANTINE_DIR = "quarantine"
_ARRAY_KEY = "records"
_ARRAY_MEMBER = f"{_ARRAY_KEY}.npy"

#: structured dtype of one sweep record row (field 0 is the identity);
#: ``U``-fields hold unicode, nullable floats map ``None`` <-> NaN
SWEEP_RECORD_DTYPE = np.dtype([
    ("identity", "U64"),
    ("network", "U32"),
    ("design", "U32"),
    ("crossbar_size", "i8"),
    ("wdm_capacity", "i8"),
    ("noise_sigma", "f8"),
    ("latency_s", "f8"),
    ("energy_j", "f8"),
    ("speedup_vs_baseline", "f8"),
    ("energy_ratio_vs_baseline", "f8"),
    ("popcount_error", "f8"),
    ("columns_per_adc", "i8"),
    ("thermal_sigma", "f8"),
    ("shot_factor", "f8"),
    ("ir_drop_alpha", "f8"),
    ("vcores_per_ecore", "i8"),
    ("ecores_per_tile", "i8"),
    ("tiles_per_node", "i8"),
    ("vcores_required", "i8"),
    ("nodes_required", "i8"),
    ("node_utilisation", "f8"),
])

#: SweepRecord fields whose ``None`` is stored as NaN (Optional[float])
_NULLABLE_FIELDS = ("noise_sigma", "popcount_error")

# the record columns after ``identity`` are the SweepRecord fields, in
# order, so a decoded row builds its record positionally
assert SWEEP_RECORD_DTYPE.names[1:] == tuple(
    field.name for field in fields(SweepRecord))


#: how :func:`json.dumps` (``allow_nan``) spells the non-finite floats
_NONFINITE_JSON = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_json(value: float) -> str:
    text = float.__repr__(value)
    return _NONFINITE_JSON.get(text, text)


#: canonical JSON of each exact scalar type, as :func:`json.dumps` writes
#: it with ``ensure_ascii=True``; every other type takes ``json.dumps``
_SCALAR_JSON: Dict[type, Callable[[object], str]] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_json,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


@functools.lru_cache(maxsize=64)
def _field_prefixes(cls: type) -> Tuple[Tuple[str, str], ...]:
    """``(name, '"name":')`` per dataclass field, in sorted-key order."""
    return tuple((name, encode_basestring_ascii(name) + ":")
                 for name in sorted(field.name for field in fields(cls)))


class CorruptSegmentError(RuntimeError):
    """A segment's bytes do not match the manifest's checksum."""


def task_identity(point: object, *,
                  schema_version: int = RECORD_SCHEMA_VERSION) -> str:
    """Stable content hash of one (design point, seed, schema) task.

    The identity is the SHA-256 of the canonical JSON of the point's
    fields plus the record schema version.  Canonical means sorted keys,
    no whitespace, ASCII-escaped — so the hash is independent of dict
    insertion order, process, host and Python hash randomisation, and
    changes whenever any axis value, the seed, or the schema version
    changes.  Attached to every queued task and every published row,
    it is what lets an interrupted/extended/re-submitted sweep *resume*
    by skipping already-published identities.

    A dataclass whose field values are all exact JSON scalars (``str``,
    ``int``, ``float``, ``bool``, ``None``) is encoded field by field,
    straight into the canonical JSON; any other value (a nested
    dataclass, a tuple, a NumPy scalar) sends the point through
    :func:`dataclasses.asdict` and :func:`json.dumps`.  Both routes
    write the same bytes for the same values.
    """
    schema = int(schema_version)
    if is_dataclass(point) and not isinstance(point, type):
        try:
            body = ",".join([
                prefix + _SCALAR_JSON[type(value)](value)
                for name, prefix in _field_prefixes(type(point))
                for value in (getattr(point, name),)
            ])
        except KeyError:
            values: Mapping[str, object] = asdict(point)
        else:
            blob = f'{{"point":{{{body}}},"schema":{schema}}}'
            return hashlib.sha256(blob.encode("ascii")).hexdigest()
    elif isinstance(point, Mapping):
        values = dict(point)
    else:
        raise TypeError(
            f"point must be a dataclass instance or a mapping, got {point!r}"
        )
    payload = {"point": values, "schema": schema}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def sweep_records_to_array(
        rows: Iterable[Tuple[str, SweepRecord]]) -> np.ndarray:
    """Pack ``(identity, record)`` pairs into one structured array."""
    rows = list(rows)
    arr = np.empty(len(rows), dtype=SWEEP_RECORD_DTYPE)
    for i, (identity, record) in enumerate(rows):
        values = record.to_dict()
        values["identity"] = identity
        for name in _NULLABLE_FIELDS:
            if values[name] is None:
                values[name] = np.nan
        arr[i] = tuple(values[name] for name in SWEEP_RECORD_DTYPE.names)
    return arr


def array_to_sweep_records(
        arr: np.ndarray) -> List[Tuple[str, SweepRecord]]:
    """Unpack a structured array back into ``(identity, record)`` pairs.

    Exactly inverts :func:`sweep_records_to_array`: NaN in a nullable
    field becomes ``None`` again and integer/float fields come back as
    native Python scalars, so a round-tripped :class:`SweepRecord`
    compares (and pickles) identical to the original.  Decoding goes
    column by column (``tolist`` per field), never through per-row NumPy
    scalars, and each record is built positionally (the columns after
    ``identity`` are the record's fields, in order).
    """
    columns = {name: arr[name].tolist() for name in SWEEP_RECORD_DTYPE.names}
    for name in _NULLABLE_FIELDS:
        columns[name] = [None if value != value else value
                         for value in columns[name]]
    identities = columns.pop("identity")
    return [(identity, SweepRecord(*values))
            for identity, *values in zip(identities, *columns.values())]


#: ``.npy`` format versions :func:`_decode_npy` reads itself: the width
#: of the header-length field and NumPy's public reader of the header
_NPY_HEADERS = {
    (1, 0): (2, npy_format.read_array_header_1_0),
    (2, 0): (4, npy_format.read_array_header_2_0),
}


@functools.lru_cache(maxsize=64)
def _parse_npy_header(version: Tuple[int, int], header: bytes
                      ) -> Tuple[Tuple[int, ...], bool, np.dtype]:
    """``(shape, fortran_order, dtype)`` of one ``.npy`` header, parsed once.

    ``header`` is the length field plus the header dict, validated by
    NumPy's own reader exactly as :func:`numpy.load` validates it.
    """
    return _NPY_HEADERS[version][1](io.BytesIO(header))


def _decode_npy(member: bytes, name: str) -> np.ndarray:
    """One ``.npy`` member -> a writable array, as ``np.load`` reads it.

    Format 1.0 and 2.0 members of C-ordered arrays are decoded here:
    the header through :func:`_parse_npy_header`, the data through
    :func:`numpy.frombuffer` and a copy.  Anything else (format 3.0,
    which NumPy writes only for non-Latin-1 field names, or a Fortran
    order) goes through :func:`numpy.load`.  Either way object dtypes
    raise instead of unpickling.  Here a data section whose length
    differs from the header's raises :class:`CorruptSegmentError`.
    """
    version = tuple(member[6:8])
    known = _NPY_HEADERS.get(version)
    if member[:6] == npy_format.MAGIC_PREFIX and known is not None:
        start = 8 + known[0]
        end = start + int.from_bytes(member[8:start], "little")
        shape, fortran_order, dtype = _parse_npy_header(version,
                                                        member[8:end])
        if not fortran_order:
            if dtype.hasobject:
                raise ValueError(
                    f"segment {name} holds an object array; object arrays "
                    "cannot be loaded when allow_pickle=False")
            count = int(np.prod(shape))
            data = memoryview(member)[end:]
            if len(data) != count * dtype.itemsize:
                raise CorruptSegmentError(
                    f"segment {name} holds {len(data)} array bytes, its "
                    f"header declares {count * dtype.itemsize}")
            return np.frombuffer(data, dtype=dtype).reshape(shape).copy()
    return np.load(io.BytesIO(member), allow_pickle=False)


def _decode_segment(blob: bytes, name: str) -> np.ndarray:
    """The records array of one segment's (checksum-verified) bytes."""
    with zipfile.ZipFile(io.BytesIO(blob)) as archive:
        member = archive.read(_ARRAY_MEMBER)
    return _decode_npy(member, name)


@dataclass(frozen=True)
class SegmentInfo:
    """One manifest entry: an immutable, checksummed segment."""

    name: str
    rows: int
    sha256: str

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "rows": self.rows, "sha256": self.sha256}


@dataclass(frozen=True)
class ScanReport:
    """Outcome of a :meth:`ColumnarStore.scan` integrity pass."""

    ok: Tuple[str, ...]
    corrupt: Tuple[str, ...]
    orphans: Tuple[str, ...]
    quarantined: Tuple[str, ...]

    def to_dict(self) -> Dict[str, object]:
        return {"ok": list(self.ok), "corrupt": list(self.corrupt),
                "orphans": list(self.orphans),
                "quarantined": list(self.quarantined)}


class ColumnarStore:
    """Append-only columnar record store under one directory.

    Generic over any structured dtype whose first field is ``identity``
    (a unicode content hash); the sweep layer uses it with
    :data:`SWEEP_RECORD_DTYPE`.  See the module docstring for the
    durability/concurrency contract.  Storage is plain file I/O on the
    shared mount — segments are written next to the queue layouts both
    :class:`~repro.runtime.store.DirStore` and the hermetic object fake
    keep on a filesystem, and every write is tmp + atomic rename.
    """

    def __init__(self, root: str, *,
                 schema_version: int = RECORD_SCHEMA_VERSION) -> None:
        self.root = root
        self.schema_version = int(schema_version)
        os.makedirs(self.root, exist_ok=True)
        self._supersede_on_schema_bump()

    # -- manifest ---------------------------------------------------------
    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, _MANIFEST_NAME)

    def _read_manifest(self) -> Optional[Dict[str, object]]:
        try:
            with open(self.manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        return manifest if isinstance(manifest, dict) else None

    def _write_manifest(self, segments: Sequence[SegmentInfo]) -> None:
        payload = {
            "format": MANIFEST_FORMAT,
            "format_version": MANIFEST_FORMAT_VERSION,
            "schema_version": self.schema_version,
            "segments": [segment.to_dict() for segment in segments],
        }
        blob = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        tmp_path = f"{self.manifest_path}.{os.getpid()}.tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            handle.write(blob)
        os.replace(tmp_path, self.manifest_path)

    def segments(self) -> List[SegmentInfo]:
        """Manifest entries, in append order ([] when empty/missing)."""
        manifest = self._read_manifest()
        if manifest is None:
            return []
        entries = manifest.get("segments")
        segments: List[SegmentInfo] = []
        for entry in entries if isinstance(entries, list) else []:
            if not isinstance(entry, dict):
                continue
            segments.append(SegmentInfo(
                name=str(entry.get("name", "")),
                rows=int(entry.get("rows", 0)),
                sha256=str(entry.get("sha256", "")),
            ))
        return segments

    @property
    def rows(self) -> int:
        """Total published rows (manifest metadata; no segment is read)."""
        return sum(segment.rows for segment in self.segments())

    def _supersede_on_schema_bump(self) -> None:
        """Archive segments written under a different record schema.

        The archive directory name carries the old version and a hash of
        the old manifest, so repeated bumps never collide.  Nothing is
        deleted — stale records stay inspectable — but the store starts
        empty, and because the schema version is part of every task
        identity, a resuming sweep recomputes every point.
        """
        manifest = self._read_manifest()
        if manifest is None:
            return
        found = manifest.get("schema_version")
        if found == self.schema_version:
            return
        stamp = hashlib.sha256(
            json.dumps(manifest, sort_keys=True).encode("utf-8")
        ).hexdigest()[:8]
        archive = os.path.join(self.root, f"superseded-v{found}-{stamp}")
        os.makedirs(archive, exist_ok=True)
        for segment in self.segments():
            source = os.path.join(self.root, segment.name)
            if os.path.exists(source):
                os.replace(source, os.path.join(archive, segment.name))
        os.replace(self.manifest_path,
                   os.path.join(archive, _MANIFEST_NAME))

    # -- segments ---------------------------------------------------------
    def _segment_files_on_disk(self) -> List[str]:
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        return sorted(name for name in names
                      if name.startswith(_SEGMENT_PREFIX)
                      and name.endswith(_SEGMENT_SUFFIX))

    @staticmethod
    def _parse_sequence(name: str) -> int:
        try:
            return int(name[len(_SEGMENT_PREFIX):].split("-", 1)[0])
        except (ValueError, IndexError):
            return -1

    def _next_sequence(self, segments: Sequence[SegmentInfo]) -> int:
        taken = [self._parse_sequence(segment.name) for segment in segments]
        taken += [self._parse_sequence(name)
                  for name in self._segment_files_on_disk()]
        return max(taken, default=-1) + 1

    def append(self, arr: np.ndarray) -> Optional[SegmentInfo]:
        """Durably publish one structured array as a new segment.

        The segment file lands first (tmp + rename, name carrying a
        content-hash suffix so identical appends are idempotent at the
        byte level), then the manifest is atomically extended — a crash
        between the two leaves an *orphan* segment that the next
        :meth:`scan(repair=True) <scan>` quarantines, never a manifest
        entry pointing at missing bytes.  Empty arrays are a no-op.
        """
        if arr.shape[0] == 0:
            return None
        buffer = io.BytesIO()
        np.savez(buffer, **{_ARRAY_KEY: arr})
        blob = buffer.getvalue()
        digest = hashlib.sha256(blob).hexdigest()
        segments = self.segments()
        name = (f"{_SEGMENT_PREFIX}{self._next_sequence(segments):07d}"
                f"-{digest[:8]}{_SEGMENT_SUFFIX}")
        path = os.path.join(self.root, name)
        tmp_path = f"{path}.{os.getpid()}.tmp"
        with open(tmp_path, "wb") as handle:
            handle.write(blob)
        os.replace(tmp_path, path)
        segment = SegmentInfo(name=name, rows=int(arr.shape[0]),
                              sha256=digest)
        self._write_manifest(segments + [segment])
        return segment

    def _read_verified(self, segment: SegmentInfo) -> bytes:
        """The segment's bytes, once their SHA-256 matches the manifest."""
        path = os.path.join(self.root, segment.name)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError as exc:
            raise CorruptSegmentError(
                f"segment {segment.name} is missing from {self.root}"
            ) from exc
        digest = hashlib.sha256(blob).hexdigest()
        if digest != segment.sha256:
            raise CorruptSegmentError(
                f"segment {segment.name} fails its checksum "
                f"(manifest {segment.sha256[:12]}..., found {digest[:12]}...)"
                " — truncated or corrupted; run scan(repair=True) to"
                " quarantine it"
            )
        return blob

    def iter_segments(self) -> Iterator[np.ndarray]:
        """Stream segment arrays in append order (one in memory at a time).

        Every segment is checksum-verified before any of it is parsed;
        corruption raises :class:`CorruptSegmentError` instead of
        yielding garbage rows.
        """
        for segment in self.segments():
            yield _decode_segment(self._read_verified(segment), segment.name)

    def iter_rows(self) -> Iterator[np.void]:
        """Stream individual rows across all segments, in append order."""
        for arr in self.iter_segments():
            yield from arr

    def published_identities(self) -> Set[str]:
        """Identities of every published row (streamed, full set returned).

        This is the resume seam: a planner skips any task whose identity
        is already here.  Only the ``identity`` column of each segment is
        materialised.
        """
        identities: Set[str] = set()
        for arr in self.iter_segments():
            identities.update(arr["identity"].tolist())
        return identities

    # -- integrity --------------------------------------------------------
    def scan(self, *, repair: bool = False,
             identities: Optional[Set[str]] = None) -> ScanReport:
        """Verify every segment's checksum; optionally quarantine the damage.

        Each segment is read and its SHA-256 compared with the manifest;
        nothing is parsed, because a segment is written once with the
        bytes its checksum was taken from (readers still decode what
        they read, and raise on a malformed array).  ``corrupt`` lists
        manifest entries whose bytes are missing or fail their checksum
        (the torn tail a crash mid-append can leave); ``orphans`` lists
        on-disk ``seg-*.npz`` files the manifest does not know (the
        other half of the same crash).  With ``repair=True`` both are
        *moved* into ``quarantine/`` — loudly reported, never silently
        dropped — and the manifest is rewritten to the surviving
        entries; their rows recompute on the next resume because their
        identities are no longer published.

        ``identities``, when given, receives the identities of every
        segment that passes its checksum, decoded from the read the
        checksum took: after a repair, what :meth:`published_identities`
        returns, with each segment read once.
        """
        ok: List[str] = []
        corrupt: List[str] = []
        quarantined: List[str] = []
        survivors: List[SegmentInfo] = []
        listed = set()
        for segment in self.segments():
            listed.add(segment.name)
            try:
                blob = self._read_verified(segment)
            except CorruptSegmentError:
                corrupt.append(segment.name)
                continue
            ok.append(segment.name)
            survivors.append(segment)
            if identities is not None:
                identities.update(
                    _decode_segment(blob, segment.name)["identity"].tolist())
        orphans = [name for name in self._segment_files_on_disk()
                   if name not in listed]
        if repair and (corrupt or orphans):
            quarantine = os.path.join(self.root, _QUARANTINE_DIR)
            os.makedirs(quarantine, exist_ok=True)
            for name in corrupt + orphans:
                source = os.path.join(self.root, name)
                if os.path.exists(source):
                    os.replace(source, os.path.join(quarantine, name))
                    quarantined.append(name)
            self._write_manifest(survivors)
        return ScanReport(ok=tuple(ok), corrupt=tuple(corrupt),
                          orphans=tuple(orphans),
                          quarantined=tuple(quarantined))

    def remove(self) -> None:
        """Delete the store directory and everything under it."""
        shutil.rmtree(self.root, ignore_errors=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ColumnarStore({self.root!r}, "
                f"schema_version={self.schema_version})")


def iter_sweep_rows(store: ColumnarStore
                    ) -> Iterator[Tuple[str, SweepRecord]]:
    """Stream ``(identity, record)`` pairs out of a sweep columnar store.

    One segment is decoded at a time, so reporting over a 10^7-row store
    never materialises the full record set.
    """
    for arr in store.iter_segments():
        yield from array_to_sweep_records(arr)
