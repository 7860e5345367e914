"""Dense GF(2) matrices with bit-packed rows.

Each row is one Python integer; bit j of row i is the entry (i, j).
Elimination and products are XOR word operations, which keeps the sizes
used here (hundreds of columns) far from needing anything fancier.
A whole array of masks times a matrix is `BinaryMatrix._mul_masks`, the
one batched GF(2) product.  It splits the rows into ceil(rows / 16) chunks
of equal width (the last may be narrower) and tabulates, per chunk, the
XOR of the rows picked by every value of its bits, at most 2^16 entries;
a product is then the XOR of one gather per chunk, each indexed by that
chunk's bits of the masks.  The columns of
the `_annihilator` span the vectors orthogonal to every row, so a vector
is in the row space exactly when its product with it is 0; the pivot
walk of `_contains_mask` is the one-vector oracle of that test.

This module also owns the bit-vector convention of the whole package:
entry i of a 0/1 tuple is bit i of an integer mask, and any entry other
than 0 or 1 is a ValueError.  Every public call that takes or returns
such a tuple converts through `_bits_to_mask` and `_mask_to_bits`.  It
owns the argument checks too: every integer argument is read through
`_as_int`, which refuses a bool or a float and a value outside its bounds
(lo and hi, where given), and every probability through `_as_probability`,
which refuses anything outside [0, 1] and NaN.
Tables indexed by a mask (a syndrome) are built only up to
2^_MAX_TABLE_BITS entries, and a bool table of a test over every mask of
a width is built by `_mask_table`, `_TABLE_CHUNK` masks per call of the
test.

Text serialization: a header line "rows cols", then one line of '0'/'1'
characters per row.
"""

from __future__ import annotations

import operator
from functools import cached_property
from typing import Iterable, List, Sequence, Tuple

import numpy as np

# the widest index of a lookup table built as an array: 2^20 int64 entries is 8 MB
_MAX_TABLE_BITS = 20
# the most matrix rows one `_mul_masks` table covers: 2^16 int64 entries is 512 KB
_CHUNK_BITS = 16
# masks per test call while `_mask_table` builds a table: a whole 2^18-word
# repetition(3) readout at once held about 8 MB of temporaries, and all 4^10
# Paulis of a 10-qubit code about 40 MB
_TABLE_CHUNK = 1 << 12


def _bits_to_mask(bits: Iterable[int], what: str, width: int | None = None) -> int:
    """Pack 0/1 entries into a mask, entry i at bit i.  With width given,
    any other entry count is a ValueError."""
    bits = tuple(bits)
    if width is not None and len(bits) != width:
        raise ValueError(f"{what} must have {width} entries, got {len(bits)}")
    mask = 0
    for i, b in enumerate(bits):
        if b not in (0, 1):
            raise ValueError(f"{what} must be 0/1 bits")
        mask |= b << i
    return mask


def _mask_to_bits(mask: int, width: int) -> Tuple[int, ...]:
    """The low width bits of mask as a tuple, bit i at entry i."""
    return tuple((mask >> i) & 1 for i in range(width))


def _mask_dtype(width: int):
    """The dtype of an array of width-bit masks: int64 up to 62 bits,
    else object (Python ints)."""
    return np.int64 if width <= 62 else object


def _as_int(value, what: str, lo: int | None = None, hi: int | None = None) -> int:
    """value as a Python int, by operator.index, in [lo, hi] where those
    are given.  A bool, which Python counts an int, anything
    operator.index refuses (a float) and a value out of bounds are each a
    ValueError naming what and the value."""
    if type(value) is not int:
        try:
            if isinstance(value, (bool, np.bool_)):
                raise TypeError
            value = operator.index(value)
        except TypeError:
            raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if lo is not None and value < lo:
        bound = {0: "nonnegative", 1: "positive"}.get(lo, f"at least {lo}")
        raise ValueError(f"{what} must be {bound}, got {value}")
    if hi is not None and value > hi:
        raise ValueError(f"{what} must be at most {hi}, got {value}")
    return value


def _as_probability(value: float, what: str) -> float:
    """value where it is in [0, 1]; anything else, NaN too, is a ValueError
    naming what and the value."""
    if not 0.0 <= value <= 1.0:  # also true for NaN
        raise ValueError(f"{what} must be a probability, got {value}")
    return value


def _mask_table(width: int, test) -> np.ndarray | None:
    """test(masks) over all 2^width masks, as a bool array indexed by mask.
    test takes an array of the `_mask_dtype` of width and is called on
    `_TABLE_CHUNK` masks at a time, so the build's temporaries stay small
    beside the table.  None, with no call of test, where 2^width passes
    2^_MAX_TABLE_BITS."""
    if width > _MAX_TABLE_BITS:
        return None
    out = np.empty(1 << width, dtype=bool)
    for lo in range(0, len(out), _TABLE_CHUNK):
        masks = np.arange(lo, min(lo + _TABLE_CHUNK, len(out)), dtype=_mask_dtype(width))
        out[lo : lo + len(masks)] = test(masks)
    return out


class BinaryMatrix:
    """An immutable rows x cols matrix over GF(2)."""

    def __init__(self, rows: int, cols: int, data: Sequence[int]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        data = tuple(int(r) for r in data)
        if len(data) != rows:
            raise ValueError(f"expected {rows} rows, got {len(data)}")
        for i, r in enumerate(data):
            if r < 0 or (r >> cols) != 0:
                raise ValueError(f"row {i} has bits outside {cols} columns")
        self.rows = rows
        self.cols = cols
        self.data = data

    # --- constructors ---

    @classmethod
    def from_rows(cls, bit_rows: Sequence[Sequence[int]], cols: int | None = None) -> "BinaryMatrix":
        bit_rows = [tuple(r) for r in bit_rows]
        if cols is None:
            cols = len(bit_rows[0]) if bit_rows else 0
        return cls(len(bit_rows), cols, [_bits_to_mask(r, "row", cols) for r in bit_rows])

    @classmethod
    def from_strings(cls, lines: Sequence[str]) -> "BinaryMatrix":
        return cls.from_rows([[int(ch) for ch in line] for line in lines])

    @classmethod
    def identity(cls, n: int) -> "BinaryMatrix":
        return cls(n, n, [1 << i for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BinaryMatrix":
        return cls(rows, cols, [0] * rows)

    # --- element access ---

    def get(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError("matrix index out of range")
        return (self.data[i] >> j) & 1

    def row_mask(self, i: int) -> int:
        return self.data[i]

    def row_bits(self, i: int) -> Tuple[int, ...]:
        return _mask_to_bits(self.data[i], self.cols)

    def to_lists(self) -> List[List[int]]:
        return [list(self.row_bits(i)) for i in range(self.rows)]

    def to_numpy(self) -> np.ndarray:
        return np.array(self.to_lists(), dtype=np.uint8).reshape(self.rows, self.cols)

    # --- algebra ---

    def transpose(self) -> "BinaryMatrix":
        out = [0] * self.cols
        for i, r in enumerate(self.data):
            while r:
                low = r & -r
                out[low.bit_length() - 1] |= 1 << i
                r ^= low
        return BinaryMatrix(self.cols, self.rows, out)

    def __matmul__(self, other: "BinaryMatrix") -> "BinaryMatrix":
        return self.mat_mul(other)

    def mat_mul(self, other: "BinaryMatrix") -> "BinaryMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"dimension mismatch: ({self.rows}x{self.cols}) @ ({other.rows}x{other.cols})"
            )
        brow = other.data
        out = []
        for a in self.data:
            acc = 0
            r = a
            while r:
                low = r & -r
                acc ^= brow[low.bit_length() - 1]
                r ^= low
            out.append(acc)
        return BinaryMatrix(self.rows, other.cols, out)

    @cached_property
    def _chunk_tables(self) -> List[Tuple[int, np.ndarray]]:
        """(first row, table) per chunk of ceil(rows / chunks) <= 16 rows,
        chunks = ceil(rows / 16), the last chunk taking what is left.  A
        table is the XOR of the chunk's rows picked by each value of its
        bits, as an array of `_mask_dtype` of the column count; it doubles
        by one row at a time, to at most 2^16 entries."""
        if not self.rows:
            return []
        chunks = -(-self.rows // _CHUNK_BITS)
        width = -(-self.rows // chunks)
        tables = []
        for lo in range(0, self.rows, width):
            table = np.zeros(1, dtype=_mask_dtype(self.cols))
            for row in self.data[lo : lo + width]:
                table = np.concatenate((table, table ^ row))
            tables.append((lo, table))
        return tables

    def _mul_masks(self, masks: np.ndarray) -> np.ndarray:
        """Each mask (rows bits, int64 or object) as a row vector times the
        matrix, as an array of `_mask_dtype` of the column count: the XOR
        of one gather per chunk table of `_chunk_tables`, each indexed by
        the chunk's bits of the masks."""
        out = np.zeros(len(masks), dtype=_mask_dtype(self.cols))
        for lo, table in self._chunk_tables:
            out ^= table[((masks >> lo) & (len(table) - 1)).astype(np.intp, copy=False)]
        return out

    def __xor__(self, other: "BinaryMatrix") -> "BinaryMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return BinaryMatrix(self.rows, self.cols, [a ^ b for a, b in zip(self.data, other.data)])

    def row_reduce(self) -> Tuple["BinaryMatrix", int, Tuple[int, ...]]:
        """Reduced row echelon form.

        Returns (rref_matrix, rank, pivot_columns).  Deterministic: pivots
        are chosen left to right, first nonzero row wins.
        """
        rows = list(self.data)
        pivots = []
        rank = 0
        for col in range(self.cols):
            bit = 1 << col
            pivot_row = None
            for i in range(rank, len(rows)):
                if rows[i] & bit:
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
            for i in range(len(rows)):
                if i != rank and rows[i] & bit:
                    rows[i] ^= rows[rank]
            pivots.append(col)
            rank += 1
            if rank == len(rows):
                break
        return BinaryMatrix(self.rows, self.cols, rows), rank, tuple(pivots)

    @property
    def rank(self) -> int:
        return self._rref[1]

    @cached_property
    def _rref(self) -> Tuple["BinaryMatrix", int, Tuple[int, ...]]:
        return self.row_reduce()

    def in_row_space(self, vector: Sequence[int]) -> bool:
        """Is the given bit vector a GF(2) combination of the rows?"""
        return self._contains_mask(_bits_to_mask(vector, "vector", self.cols))

    def _contains_mask(self, mask: int) -> bool:
        rref, rank, pivots = self._rref
        for i, col in enumerate(pivots):
            if (mask >> col) & 1:
                mask ^= rref.data[i]
        return mask == 0

    @cached_property
    def _annihilator(self) -> "BinaryMatrix":
        """The cols x (cols - rank) matrix whose columns span the vectors
        orthogonal to every row, so a vector is in the row space exactly
        when its product with it is 0.  Column c is the null vector of the
        c-th free column f of the RREF: a 1 at f and at each pivot whose
        RREF row has a 1 at f."""
        rref, _, pivots = self._rref
        free = sorted(set(range(self.cols)) - set(pivots))
        out = [0] * self.cols
        for c, f in enumerate(free):
            out[f] |= 1 << c
            for row, col in zip(rref.data, pivots):
                if (row >> f) & 1:
                    out[col] |= 1 << c
        return BinaryMatrix(self.cols, len(free), out)

    # --- serialization ---

    def to_text(self) -> str:
        lines = [f"{self.rows} {self.cols}"]
        for i in range(self.rows):
            lines.append("".join(str(b) for b in self.row_bits(i)))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "BinaryMatrix":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty matrix text")
        header = lines[0].split()
        if len(header) != 2:
            raise ValueError("header must be 'rows cols'")
        rows, cols = int(header[0]), int(header[1])
        body = lines[1:]
        if len(body) != rows:
            raise ValueError(f"expected {rows} row lines, got {len(body)}")
        data = []
        for i, line in enumerate(body):
            if len(line) != cols:
                raise ValueError(f"row {i} has length {len(line)}, expected {cols}")
            if set(line) - {"0", "1"}:
                raise ValueError(f"row {i} contains characters other than 0/1")
            data.append(int(line[::-1], 2) if line else 0)
        return cls(rows, cols, data)

    # --- misc ---

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BinaryMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        return f"BinaryMatrix({self.rows}x{self.cols})"
