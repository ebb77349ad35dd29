"""Scrambled Sobol points, bit for bit those of scipy's `qmc.Sobol`.

The direction numbers are Joe & Kuo's (2008), read from the table scipy
ships beside `scipy.stats` without importing that package, and extended
by the recurrence of Bratley & Fox (1988).  Only the leading rows the
integrator reaches are read, streamed from the table's zip members, so
the 3 MB table is never held whole.  The scramble follows
`qmc.Sobol(dim, seed=rng)`: a child of `rng` spawned from its seed
sequence draws a random digital shift, then a lower-triangular matrix
with unit diagonal per coordinate (a linear matrix scramble).  Points
come in Gray-code order as 30-bit integers, so point i of the unit cube
is `points[i] / 2**30`.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import zipfile
import zlib
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

# direction-table rows the first read takes: more cube dimensions than a
# supported design integrates over, so one read serves a whole process
_FIRST_ROWS = 16

# most bytes inflated at once while skipping the unused rows of a column
_SKIP_BYTES = 1 << 16

# the direction rows read so far: how many were asked for, then poly and
# vinit, which hold fewer rows when the table is shorter
_rows = (0, np.empty(0, dtype=np.int64), np.empty((0, 0), dtype=np.uint32))


def _table_path() -> Path:
    return (Path(importlib.util.find_spec("scipy").origin).parent
            / "stats" / "_sobol_direction_numbers.npz")


def _exactly(stream, size: int) -> bytes:
    data = stream.read(size)
    if len(data) != size:
        raise ValueError("the table ends early")
    return data


def _leading_rows(table: zipfile.ZipFile, name: str, rows: int
                  ) -> np.ndarray:
    """The first `rows` rows (all, if it has fewer) of the integer array
    stored as `name`.npy in `table`, read from the member's stream, so
    the rest is inflated a bounded piece at a time and never held."""
    with table.open(f"{name}.npy") as stream:
        version = np.lib.format.read_magic(stream)
        if version != (1, 0):
            raise ValueError(f"{name}: unsupported .npy version {version}")
        shape, fortran, dtype = np.lib.format.read_array_header_1_0(stream)
        if dtype.kind not in "iu" or len(shape) not in (1, 2):
            raise ValueError(f"{name} holds {dtype} of shape {shape}")
        total, kept = shape[0], min(rows, shape[0])
        if not fortran or len(shape) == 1:
            # row-major: the leading rows come first
            size = kept * math.prod(shape[1:]) * dtype.itemsize
            return np.frombuffer(_exactly(stream, size), dtype).reshape(
                kept, *shape[1:])
        # column-major: the leading rows of each column, then skip the rest
        out = np.empty((kept, shape[1]), dtype)
        for j in range(shape[1]):
            out[:, j] = np.frombuffer(
                _exactly(stream, kept * dtype.itemsize), dtype)
            skip = (total - kept) * dtype.itemsize if j + 1 < shape[1] else 0
            while skip:
                skip -= len(_exactly(stream, min(skip, _SKIP_BYTES)))
        return out


def _table(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """`poly` and `vinit` (as uint32) of the first `dim` coordinates, or
    of every coordinate if the table holds fewer.  Each read inflates the
    whole table, so one read serves every dimension up to the largest
    asked for so far: at least _FIRST_ROWS rows, doubling when a larger
    dimension comes."""
    global _rows
    asked, poly, vinit = _rows
    if dim > asked:
        asked = max(dim, 2 * asked, _FIRST_ROWS)
        with zipfile.ZipFile(_table_path()) as table:
            poly = _leading_rows(table, "poly", asked)
            vinit = _leading_rows(table, "vinit", asked).astype(np.uint32)
        _rows = asked, poly, vinit
    return poly, vinit


@functools.lru_cache(maxsize=None)
def _directions(dim: int) -> np.ndarray:
    """Binary digits of the unscrambled direction numbers: [i, k, q] is
    digit q, most significant first, of direction k of coordinate i."""
    try:
        poly, vinit = _table(dim)
    except (OSError, KeyError, ValueError, EOFError, zipfile.BadZipFile,
            zlib.error) as exc:
        raise RuntimeError(f"cannot read the Sobol direction numbers for "
                           f"dimension {dim} from {_table_path()}: {exc}"
                           ) from exc
    held = min(len(poly), len(vinit))
    if dim > held:
        raise RuntimeError(f"no Sobol direction numbers for dimension {dim} "
                           f"in {_table_path()}: it holds {held}")
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
