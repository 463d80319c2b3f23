"""Deterministic random-number-generator helpers.

Every stochastic component in the simulator (device variability, read noise,
dataset synthesis, weight initialisation) accepts either an integer seed, an
existing :class:`numpy.random.Generator`, or ``None``.  Funnelling creation
through :func:`make_rng` keeps runs reproducible and keeps seed handling in a
single place.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence, Union

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


def derive_seed(seed: RngLike, salt: str) -> int:
    """Derive a reproducible integer seed from ``seed`` and a string salt.

    For ``None`` and integer seeds the base draw depends on the seed alone,
    so it is memoised; a :class:`numpy.random.Generator` is drawn from (and
    advanced) on every call.
    """
    if seed is None or isinstance(seed, (int, np.integer)):
        base = _base_draw(None if seed is None else int(seed))
    else:
        base = int(make_rng(seed).integers(0, 2**31 - 1))
    salt_value = sum(ord(c) * (i + 1) for i, c in enumerate(salt)) % (2**31)
    return base ^ salt_value
