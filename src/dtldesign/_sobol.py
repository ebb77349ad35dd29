"""Scrambled Sobol points, bit for bit those of scipy's `qmc.Sobol`.

The direction numbers are the leading rows of Joe & Kuo's (2008) table,
the one scipy ships, carried here as a constant and extended by the
recurrence of Bratley & Fox (1988).  The scramble follows
`qmc.Sobol(dim, seed=rng)`: a child of `rng` spawned from its seed
sequence draws a random digital shift, then a lower-triangular matrix
with unit diagonal per coordinate (a linear matrix scramble).  Points
come in Gray-code order as 30-bit integers, so point i of the unit cube
is `points[i] / 2**30`.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator

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

# Rows 1-34 of Joe & Kuo's table (row 0, the first coordinate, has every
# direction number 1): a primitive polynomial over GF(2), as the integer
# whose bits are its coefficients, and its initial direction numbers, as
# many as its degree.  Stage i of a K-arm design constrains the K - i + 1
# arms still in play, so its rectangles span at most K(K+1)/2 coordinates
# and K(K+1)/2 - 1 cube dimensions: 35, rows 0-34, at the enumeration cap
# of 8 arms (events.PERMUTATION_CAP).
_JOE_KUO = (
    (3, (1,)), (7, (1, 3)), (11, (1, 3, 1)), (13, (1, 1, 1)),
    (19, (1, 1, 3, 3)), (25, (1, 3, 5, 13)), (37, (1, 1, 5, 5, 17)),
    (41, (1, 1, 5, 5, 5)), (47, (1, 1, 7, 11, 19)), (55, (1, 1, 5, 1, 1)),
    (59, (1, 1, 1, 3, 11)), (61, (1, 3, 5, 5, 31)), (67, (1, 3, 3, 9, 7, 49)),
    (91, (1, 1, 1, 15, 21, 21)), (97, (1, 3, 1, 13, 27, 49)),
    (103, (1, 1, 1, 15, 7, 5)), (109, (1, 3, 1, 15, 13, 25)),
    (115, (1, 1, 5, 5, 19, 61)), (131, (1, 3, 7, 11, 23, 15, 103)),
    (137, (1, 3, 7, 13, 13, 15, 69)), (143, (1, 1, 3, 13, 7, 35, 63)),
    (145, (1, 3, 5, 9, 1, 25, 53)), (157, (1, 3, 1, 13, 9, 35, 107)),
    (167, (1, 3, 1, 5, 27, 61, 31)), (171, (1, 1, 5, 11, 19, 41, 61)),
    (185, (1, 3, 5, 3, 3, 13, 69)), (191, (1, 1, 7, 13, 1, 19, 1)),
    (193, (1, 3, 7, 5, 13, 19, 59)), (203, (1, 1, 3, 9, 25, 29, 41)),
    (211, (1, 3, 5, 13, 23, 1, 55)), (213, (1, 3, 7, 3, 13, 59, 17)),
    (229, (1, 3, 1, 3, 5, 53, 69)), (239, (1, 1, 5, 5, 23, 33, 13)),
    (241, (1, 1, 7, 7, 1, 61, 123)),
)


@functools.lru_cache(maxsize=None)
def _directions(dim: int) -> np.ndarray:
    """Binary digits of the unscrambled direction numbers: [i, k, q] is
    digit q, most significant first, of direction k of coordinate i."""
    if dim > len(_JOE_KUO) + 1:
        raise RuntimeError(f"no Sobol direction numbers for dimension {dim}: "
                           f"{len(_JOE_KUO) + 1} are carried")
    v = np.ones((dim, BITS), dtype=np.int64)
    for i, (p, initial) in enumerate(_JOE_KUO[:dim - 1], 1):
        m = len(initial)
        v[i, :m] = initial
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
