"""Correctness checks every benchmark run applies to the program's outputs.

The simulator is deterministic, so a change that only speeds it up must
leave every simulated value unchanged.  Each check raises
:class:`CheckFailed` on a mismatch; the run then reports an error instead
of numbers.  ``reference.json`` holds the seed-independent references
(recorded with ``record_reference.py``).
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Iterable, Mapping, Sequence

import numpy as np

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


class CheckFailed(AssertionError):
    """A program output disagreed with its oracle."""


def load_reference() -> Dict[str, object]:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def records_digest(records: Iterable[object]) -> str:
    """SHA-256 over the exact JSON of sweep records (floats by ``repr``)."""
    payload = json.dumps([r.to_dict() for r in records], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def array_digest(arr: np.ndarray) -> str:
    """SHA-256 over an array's dtype, shape and bytes."""
    arr = np.ascontiguousarray(arr)
    digest = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
    digest.update(arr.tobytes())
    return digest.hexdigest()


def check_equal(what: str, got: object, expected: object) -> None:
    if got != expected:
        raise CheckFailed(f"{what}: got {got!r}, expected {expected!r}")


def check_records(what: str, got: Sequence[object],
                  expected: Sequence[object]) -> None:
    """Record-for-record equality of two sweep results."""
    check_equal(f"{what} record count", len(got), len(expected))
    for index, (a, b) in enumerate(zip(got, expected)):
        if a != b:
            raise CheckFailed(f"{what}: record {index} differs: {a} != {b}")


def check_arrays_equal(what: str, got: np.ndarray, expected: np.ndarray) -> None:
    """Exact (bitwise) equality of two arrays."""
    if got.shape != expected.shape or not np.array_equal(got, expected):
        raise CheckFailed(f"{what}: arrays differ")


def check_headline(got: Mapping[str, float],
                   expected: Mapping[str, float]) -> None:
    """The paper-fidelity numbers must equal the recorded ones exactly."""
    for key, value in expected.items():
        check_equal(f"headline {key}", got.get(key), value)
