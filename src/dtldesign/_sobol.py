"""Scrambled Sobol points, bit for bit those of scipy's `qmc.Sobol`.

The direction numbers are Joe & Kuo's (2008), read from the table scipy
ships beside `scipy.stats` without importing that package, and extended
by the recurrence of Bratley & Fox (1988).  The scramble follows
`qmc.Sobol(dim, seed=rng)`: a child of `rng` spawned from its seed
sequence draws a random digital shift, then a lower-triangular matrix
with unit diagonal per coordinate (a linear matrix scramble).  Points
come in Gray-code order as 30-bit integers, so point i of the unit cube
is `points[i] / 2**30`.
"""

from __future__ import annotations

import functools
import importlib.util
from collections.abc import Iterator
from pathlib import Path

import numpy as np

BITS = 30

# the first set holds this many points, the smallest power of two the
# integrator uses
_FIRST = 128

# bit positions from the most significant binary digit down
_DIGITS = np.arange(BITS - 1, -1, -1)
_POW2 = np.uint32(1) << np.arange(BITS, dtype=np.uint32)

# the scramble matrices are lower triangular with a unit diagonal
_LOWER = np.tri(BITS, k=-1, dtype=bool)
_EYE = np.eye(BITS)


def _table_path() -> Path:
    return (Path(importlib.util.find_spec("scipy").origin).parent
            / "stats" / "_sobol_direction_numbers.npz")


@functools.lru_cache(maxsize=None)
def _table() -> tuple[np.ndarray, np.ndarray]:
    # vinit is kept as uint32, half the 3 MB it loads as.  Freeing the
    # loaded copy also lifts glibc's mmap threshold above the integrand's
    # slab buffers, so they reuse heap pages rather than fault in fresh ones
    with np.load(_table_path()) as table:
        return table["poly"], table["vinit"].astype(np.uint32)


@functools.lru_cache(maxsize=None)
def _directions(dim: int) -> np.ndarray:
    """Binary digits of the unscrambled direction numbers: [i, k, q] is
    digit q, most significant first, of direction k of coordinate i."""
    try:
        poly, vinit = _table()
    except (OSError, KeyError, ValueError) as exc:
        raise RuntimeError(f"cannot read the Sobol direction numbers for "
                           f"dimension {dim} from {_table_path()}: {exc}"
                           ) from exc
    if dim > len(poly):
        raise RuntimeError(f"no Sobol direction numbers for dimension {dim} "
                           f"in {_table_path()}: it holds {len(poly)}")
    v = np.ones((dim, BITS), dtype=np.int64)
    for i in range(1, dim):
        p = int(poly[i])
        m = p.bit_length() - 1
        v[i, :m] = vinit[i, :m]
        for j in range(m, BITS):
            new = int(v[i, j - m])
            for k in range(1, m + 1):
                if (p >> (m - k)) & 1:
                    new ^= int(v[i, j - k]) << k
            v[i, j] = new
    v <<= _DIGITS
    digits = ((v[:, :, None] >> _DIGITS) & 1).astype(float)
    digits.flags.writeable = False
    return digits


def scramble(dim: int, rng: np.random.Generator
             ) -> tuple[np.ndarray, np.ndarray]:
    """The random digital shift, shape (dim,), and the scrambled direction
    numbers, shape (BITS, dim) with row k direction k of every
    coordinate, of one Sobol set, drawn from a child of rng."""
    seq = rng.bit_generator._seed_seq
    child = np.random.Generator(type(rng.bit_generator)(seq.spawn(1)[0]))
    shift = child.integers(2, size=(dim, BITS), dtype=np.uint32) @ _POW2
    ltm = np.where(_LOWER, child.integers(2, size=(dim, BITS, BITS),
                                          dtype=np.uint32), _EYE)
    # the scramble multiplies the digits of each direction number over
    # GF(2); the float products sum at most BITS ones, so they are exact
    sums = np.matmul(_directions(dim), ltm.transpose(0, 2, 1))
    v = (sums.astype(np.uint32) & 1) @ _POW2[::-1]
    return shift, v.T


def sobol_rounds(shift: np.ndarray, v: np.ndarray,
                 done: int = 0) -> Iterator[np.ndarray]:
    """Yield the points of the Sobol set scramble() drew, as uint32 arrays
    of shape (n, dim): the first _FIRST points, then each time as many
    more as were yielded before, starting after the first `done` points
    (0, or a total this schedule reaches).  Round m reflects every
    earlier point, p(2**m + i) = p(2**m - 1 - i) XOR v_m, from the shifted
    first point on, which is the Gray-code order; the points before
    `done` are rebuilt that way, not yielded.
    """
    n, points = 1, shift[None, :]
    for m in range(BITS):
        grown = np.empty((2 * n, shift.shape[0]), dtype=np.uint32)
        grown[:n] = points
        np.bitwise_xor(points[::-1], v[m], out=grown[n:])
        n, points = 2 * n, grown
        if n >= _FIRST and n > done:
            yield points if n == _FIRST else points[n // 2:]
