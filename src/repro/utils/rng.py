"""Deterministic random-number-generator helpers.

Every stochastic component in the simulator (device variability, read noise,
dataset synthesis, weight initialisation) accepts either an integer seed, an
existing :class:`numpy.random.Generator`, or ``None``.  Funnelling creation
through :func:`make_rng` keeps runs reproducible and keeps seed handling in a
single place.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence, Union

import numpy as np

RngLike = Union[int, np.random.Generator, None]

_DEFAULT_SEED = 0xB1A5


def make_rng(seed: RngLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` selects the library default seed (deterministic), an ``int``
        seeds a fresh generator, and an existing generator is passed through
        unchanged.
    """
    if seed is None:
        return np.random.default_rng(_DEFAULT_SEED)
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)):
        return np.random.default_rng(int(seed))
    raise TypeError(f"seed must be None, int, or numpy Generator, got {type(seed)!r}")


def spawn_rngs(seed: RngLike, count: int) -> Sequence[np.random.Generator]:
    """Derive ``count`` statistically independent generators from ``seed``.

    Useful when a component owns several stochastic sub-components (e.g. one
    generator per crossbar tile) and wants their streams decoupled so adding a
    tile does not perturb the noise seen by existing tiles.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    base = make_rng(seed)
    seeds = base.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]


@lru_cache(maxsize=256)
def _base_draw(seed: Optional[int]) -> int:
    """First draw of a fresh generator seeded with ``seed`` (memoised)."""
    return int(make_rng(seed).integers(0, 2**31 - 1))


def _salt_sums(salts: Sequence[str]) -> np.ndarray:
    """``sum(ord(c) * (i + 1) for i, c in enumerate(salt)) % 2**31`` per salt.

    One numpy pass over all salts: their UTF-32 code points, each weighted
    by its 1-based position inside its own salt, one running sum, and the
    differences of that sum at the salt boundaries.  The int64 products and
    sums may wrap, but wrapping is modulo 2**64, a multiple of 2**31, so the
    low 31 bits kept here are exact for salts of any length.
    """
    lengths = np.fromiter(map(len, salts), dtype=np.int64, count=len(salts))
    ends = np.cumsum(lengths)
    starts = ends - lengths
    # codes[k] is the k-th code point of the concatenated salts (1-based;
    # codes[0] = 0 starts the running sum), weighted by k minus the start
    # of its salt
    codes = np.zeros(int(lengths.sum()) + 1, dtype=np.int64)
    codes[1:] = np.frombuffer(
        "".join(salts).encode("utf-32-le", "surrogatepass"), dtype=np.uint32,
    )
    weights = np.arange(codes.size, dtype=np.int64)
    weights[1:] -= np.repeat(starts, lengths)
    codes *= weights
    np.cumsum(codes, out=codes)
    return (codes[ends] - codes[starts]) & (2**31 - 1)


def derive_seeds(seed: RngLike, salts: Sequence[str]) -> List[int]:
    """``[derive_seed(seed, salt) for salt in salts]``, in one pass.

    A :class:`numpy.random.Generator` seed is drawn from once per salt, in
    order, exactly as the repeated calls would draw from it.
    """
    if seed is None or isinstance(seed, (int, np.integer)):
        base = _base_draw(None if seed is None else int(seed))
        return (_salt_sums(salts) ^ base).tolist()
    rng = make_rng(seed)
    return [int(rng.integers(0, 2**31 - 1)) ^ salt_sum
            for salt_sum in _salt_sums(salts).tolist()]


def derive_seed(seed: RngLike, salt: str) -> int:
    """Derive a reproducible integer seed from ``seed`` and a string salt.

    The seed is a base draw of ``seed`` XOR a position-weighted character
    sum of ``salt`` (see :func:`derive_seeds` for many salts at once).  For
    ``None`` and integer seeds the base draw depends on the seed alone, so
    it is memoised; a :class:`numpy.random.Generator` is drawn from (and
    advanced) on every call.
    """
    return derive_seeds(seed, (salt,))[0]
