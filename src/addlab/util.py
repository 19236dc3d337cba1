"""Small shared helpers: seeded RNG spawning, bit masks, rationals, signed
residues, sorted distinct integers."""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def spawn_rng(seed: int, *path) -> np.random.Generator:
    """Deterministic splittable RNG: one 64-bit root seed plus a spawn path.

    Distinct paths under the same root give independent streams, so corpus
    generators can be re-run piecemeal without replaying the whole suite.
    """
    key = tuple(int(x) & 0xFFFFFFFF for x in path)
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=key))


def as_fraction(x) -> Fraction:
    """Coerce int / Fraction / 'p/q' string to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        # floats are exact binary rationals; accept them verbatim
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational")


def indices_to_mask(indices, size: int) -> int:
    """Pack a set of indices in [0, size) into a Python-int bitset."""
    arr = np.zeros(size, dtype=bool)
    if len(indices):
        arr[np.asarray(indices, dtype=np.int64)] = True
    return int.from_bytes(np.packbits(arr, bitorder="little").tobytes(), "little")


def sorted_unique(values) -> np.ndarray:
    """The distinct entries of an integer array, flattened, as sorted int64:
    a sort, then every entry that differs from its predecessor.

    np.unique gives the same array, but without return_counts it imports
    numpy.ma on its first call and takes a hash path that is slower than the
    sort on the sizes used here.
    """
    a = np.sort(np.asarray(values, dtype=np.int64), axis=None)
    keep = np.empty(len(a), dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def signed_residue(x, modulus: int):
    """Representative of x mod M in (-M/2, M/2]."""
    if not isinstance(x, np.ndarray):
        x = int(x) % modulus
        return x - modulus if x > modulus // 2 else x
    x = x % modulus
    return np.where(x > modulus // 2, x - modulus, x)
