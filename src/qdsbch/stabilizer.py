"""Pauli operators, stabilizer codes, syndromes, and table decoders.

A Pauli on n qubits is stored phase-free as two n-bit masks (x, z): bit i
of x set means the letter on qubit i has an X component, bit i of z a Z
component, so per qubit (0,0)=I, (1,0)=X, (0,1)=Z, (1,1)=Y.  String order
is qubit 0 first.

The symplectic mask x | z << n of a Pauli, a Python int, is read here
only.  `PauliOperator._from_mask` is the one split of a mask into its
halves, and `_anticommuting` the one symplectic product: x_a.z_b + z_a.x_b
(mod 2), 0 exactly when two Paulis commute, taken for a whole list of
rows at once.  A stabilizer code's check matrix has one [x_bits | z_bits]
row of length 2n per generator, and a syndrome is `_anticommuting` of an
error over those rows; `symplectic_product`, the commutation check of
`StabilizerCode()` and `QdsCode.measure` (over the rows of H_Q) call it
too.

Classification of a residual error: "trivial" if it is in the row space
of the check matrix (an element of the stabilizer group), otherwise
"detectable" if any generator anticommutes with it (a nonzero syndrome)
and "logical" if none does.

Batches of Paulis are arrays of symplectic masks x | z << n, built by
`_pauli_masks` and multiplied by `StabilizerCode._syndrome_and_class`.
Every weight-w Pauli comes from `_weight_pauli_blocks`, as blocks of
qubit and letter indices; `StabilizerCode._pauli_products` evaluates
their products sparsely, as the XOR of one table row per letter.  A
`LookupDecoder`'s table is the rows of those products that
`lookup_decoder_build` picks, one (syndrome, class, mask) row per
syndrome; a one-syndrome lookup binary-searches it and makes only the
PauliOperator it returns, and a batch of syndromes (`_classes_of`) reads
only the class column, by one gather or one binary search.  Whether the
table corrects each Pauli of a batch (`_corrects`, the data half of a
trial's verdict) is one gather on `_corrected`, that answer for all 4^n
Paulis built by `linalg._mask_table`, or past n = 10 one product of the
batch and a `_classes_of`.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import chain, combinations, islice, product
from math import comb
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from .linalg import (
    _MAX_TABLE_BITS,
    BinaryMatrix,
    _as_int,
    _bits_to_mask,
    _mask_dtype,
    _mask_table,
    _mask_to_bits,
)

_LETTERS = "IXZY"  # index = x_bit + 2*z_bit

RESIDUAL_TRIVIAL = "trivial"
RESIDUAL_LOGICAL = "logical"
RESIDUAL_DETECTABLE = "detectable"


class BudgetExceededError(ValueError):
    """An enumeration would exceed its case budget.

    Carries the required count so callers can report what budget the
    refused run would have needed.
    """

    def __init__(self, message: str, required: int, budget: int):
        super().__init__(message)
        self.required = required
        self.budget = budget


class PauliOperator:
    """A phase-free n-qubit Pauli operator."""

    __slots__ = ("n", "x", "z")

    def __init__(self, n: int, x: int, z: int):
        if n < 1:
            raise ValueError("need at least one qubit")
        if x < 0 or z < 0 or (x >> n) or (z >> n):
            raise ValueError("x/z masks must fit in n bits")
        self.n = n
        self.x = x
        self.z = z

    @classmethod
    def identity(cls, n: int) -> "PauliOperator":
        return cls(n, 0, 0)

    @classmethod
    def from_string(cls, s: str) -> "PauliOperator":
        if not s:
            raise ValueError("empty Pauli string")
        x = z = 0
        for i, ch in enumerate(s):
            code = _LETTERS.find(ch)
            if code < 0:
                raise ValueError(f"invalid Pauli letter {ch!r} at position {i}")
            x |= (code & 1) << i
            z |= (code >> 1) << i
        return cls(len(s), x, z)

    @classmethod
    def _from_mask(cls, n: int, mask: int) -> "PauliOperator":
        """The Pauli of the symplectic mask x | z << n, the one place a mask
        is split into its halves."""
        return cls(n, mask & ((1 << n) - 1), mask >> n)

    def to_string(self) -> str:
        return "".join(
            _LETTERS[((self.x >> i) & 1) | (((self.z >> i) & 1) << 1)] for i in range(self.n)
        )

    @property
    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    @property
    def x_bits(self) -> Tuple[int, ...]:
        return _mask_to_bits(self.x, self.n)

    @property
    def z_bits(self) -> Tuple[int, ...]:
        return _mask_to_bits(self.z, self.n)

    def symplectic_mask(self) -> int:
        """The [x_bits | z_bits] row as a 2n-bit mask (x in the low half)."""
        return self.x | (self.z << self.n)

    def __mul__(self, other: "PauliOperator") -> "PauliOperator":
        if self.n != other.n:
            raise ValueError("qubit count mismatch")
        return PauliOperator(self.n, self.x ^ other.x, self.z ^ other.z)

    def commutes_with(self, other: "PauliOperator") -> bool:
        return symplectic_product(self, other) == 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PauliOperator)
            and (self.n, self.x, self.z) == (other.n, other.x, other.z)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.x, self.z))

    def __repr__(self) -> str:
        return f"PauliOperator({self.to_string()!r})"


def _anticommuting(rows: Sequence[int], n: int, mask: int) -> int:
    """Bit i set where the symplectic row i (x | z << n) anticommutes with
    the Pauli of symplectic mask `mask`: the row ANDed with the mask's two
    halves swapped has odd weight.  The one symplectic-product formula of
    the package; the batched path multiplies by
    `StabilizerCode._syndrome_and_class` instead."""
    swapped = (mask >> n) | ((mask & ((1 << n) - 1)) << n)
    out = 0
    for i, row in enumerate(rows):
        out |= ((row & swapped).bit_count() & 1) << i
    return out


def symplectic_product(a: PauliOperator, b: PauliOperator) -> int:
    if a.n != b.n:
        raise ValueError("qubit count mismatch")
    return _anticommuting((a.symplectic_mask(),), a.n, b.symplectic_mask())


def _pauli_masks(qubits: np.ndarray, letters: np.ndarray, n: int) -> np.ndarray:
    """Symplectic masks x | z << n, of the `_mask_dtype` of 2n, of Paulis
    with letter codes (0 = X, 1 = Y, 2 = Z, 3 = I) on qubits given along
    the last axis of the broadcast arrays, which may be empty."""
    return np.bitwise_or.reduce(_letter_masks(n)[letters] << qubits, axis=-1)


@lru_cache(maxsize=None)
def _letter_masks(n: int) -> np.ndarray:
    """The masks of X, Y, Z and I on qubit 0 of n, indexed by the letter
    codes of `_pauli_masks`; made once per n, read-only as every call
    shares it."""
    masks = np.array([1, 1 | 1 << n, 1 << n, 0], dtype=_mask_dtype(2 * n))
    masks.flags.writeable = False
    return masks


# the most Paulis `_weight_pauli_blocks` puts in one block, and the most
# supports `qds._support_mask_blocks` does: with the temporaries of
# `_pauli_masks` or `StabilizerCode._pauli_products`, a few MB
_PAULI_BLOCK = 1 << 16


def _tuple_blocks(tuples: Iterator[tuple], total: int, w: int, size: int) -> Iterator[np.ndarray]:
    """The total w-tuples of `tuples`, in order, as (count, w) index arrays
    of at most size tuples each, each block made only when it is asked
    for."""
    for lo in range(0, total, size):
        count = min(size, total - lo)
        flat = chain.from_iterable(islice(tuples, count))
        yield np.fromiter(flat, dtype=np.intp, count=count * w).reshape(count, w)


def _subset_blocks(n: int, w: int, size: int) -> Iterator[np.ndarray]:
    """Every w-subset of range(n), lexicographic, in `_tuple_blocks` of at
    most size subsets."""
    return _tuple_blocks(combinations(range(n), w), comb(n, w), w, size)


def _letter_blocks(w: int) -> Iterator[np.ndarray]:
    """Every letter word of length w, X, Y, Z per position (the last
    position fastest), in `_tuple_blocks` of at most `_PAULI_BLOCK`."""
    return _tuple_blocks(product(range(3), repeat=w), 3**w, w, _PAULI_BLOCK)


def _weight_pauli_blocks(n: int, w: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Every weight-w Pauli on n qubits, supports in lexicographic order and,
    within a support, letters per position in X, Y, Z order (the last
    position fastest), in blocks of at most `_PAULI_BLOCK` Paulis: all
    letters on a block of supports, one array shared by every block, or,
    past 3^w > `_PAULI_BLOCK`, a block of the letters on one support, made
    afresh for each support, so no more than a block of letters is held.
    A block is the index arrays (qubits, letters) of `_pauli_masks`, of
    shapes (S, 1, w) and (L, w): they broadcast to S x L Paulis,
    support-major."""
    shared = list(_letter_blocks(w)) if 3**w <= _PAULI_BLOCK else None
    for supports in _subset_blocks(n, w, max(1, _PAULI_BLOCK // 3**w)):
        for letters in shared or _letter_blocks(w):
            yield supports[:, None, :], letters


def _weight_pauli_masks(n: int, w: int) -> np.ndarray:
    """The masks of the Paulis of `_weight_pauli_blocks`, in order, in one array."""
    blocks = [_pauli_masks(*block, n).reshape(-1) for block in _weight_pauli_blocks(n, w)]
    return np.concatenate([np.zeros(0, dtype=_mask_dtype(2 * n)), *blocks])


def iter_weight_paulis(n: int, w: int) -> Iterator[PauliOperator]:
    """All weight-w Paulis on n qubits, in the fixed order of
    `_weight_pauli_blocks`, turned into Python ints a block at a time."""
    for block in _weight_pauli_blocks(n, w):
        for mask in _pauli_masks(*block, n).reshape(-1).tolist():
            yield PauliOperator._from_mask(n, mask)


class StabilizerCode:
    """An [[n, k]] stabilizer code given by independent commuting generators."""

    def __init__(self, generators: Sequence[PauliOperator]):
        generators = tuple(generators)
        if not generators:
            raise ValueError("need at least one generator")
        n = generators[0].n
        for g in generators:
            if g.n != n:
                raise ValueError("generators act on different qubit counts")
        masks = [g.symplectic_mask() for g in generators]
        for i, mask in enumerate(masks):
            later = _anticommuting(masks[i + 1 :], n, mask)
            if later:
                # the first generator after i that anticommutes with it
                j = i + (later & -later).bit_length()
                raise ValueError(
                    f"generators {i} and {j} anticommute: "
                    f"{generators[i].to_string()} vs {generators[j].to_string()}"
                )
        check = BinaryMatrix(len(generators), 2 * n, masks)
        if check.rank != len(generators):
            raise ValueError("generators are not independent")
        self.n = n
        self.ell = len(generators)
        self.k = n - self.ell
        self.generators = generators
        self.check_matrix = check

    def syndrome(self, error: PauliOperator) -> Tuple[int, ...]:
        if error.n != self.n:
            raise ValueError("error acts on wrong qubit count")
        return _mask_to_bits(self._syndrome_mask(error.symplectic_mask()), self.ell)

    def _syndrome_mask(self, mask: int) -> int:
        return _anticommuting(self.check_matrix.data, self.n, mask)

    def classify(self, residual: PauliOperator) -> str:
        """One of "trivial", "logical", "detectable" for a residual error."""
        if residual.n != self.n:
            raise ValueError("error acts on wrong qubit count")
        return self._classify_mask(residual.symplectic_mask())

    def _classify_mask(self, mask: int) -> str:
        if self.check_matrix._contains_mask(mask):
            return RESIDUAL_TRIVIAL
        if self._syndrome_mask(mask):
            return RESIDUAL_DETECTABLE
        return RESIDUAL_LOGICAL

    @cached_property
    def _syndrome_and_class(self) -> BinaryMatrix:
        """The 2n x 2n matrix whose product with a symplectic mask holds the
        Pauli's syndrome in the low ell bits and its class (its product
        with the check matrix's `_annihilator`, 0 exactly on the stabilizer
        group) above them.  The syndrome part is the check matrix
        transposed with its halves swapped: an X on qubit j flips the
        generators with a Z at j, and a Z those with an X."""
        n, ell = self.n, self.ell
        columns = self.check_matrix.transpose().data
        annihilator = self.check_matrix._annihilator
        rows = [s | (a << ell) for s, a in zip(columns[n:] + columns[:n], annihilator.data)]
        return BinaryMatrix(2 * n, ell + annihilator.cols, rows)

    @cached_property
    def _letter_products(self) -> np.ndarray:
        """Four linear images of each one-qubit Pauli, as a (3, n, 4) array
        of the `_mask_dtype` of 2n: entry [l, q] is letter code l of
        `_pauli_masks` (X, Y, Z) on qubit q, and its four values are the
        syndrome and the class (the two parts of the `_syndrome_and_class`
        product), the tie key of `lookup_decoder_build` (the symplectic
        mask with its 2n bits reversed) and the symplectic mask."""
        n, ell = self.n, self.ell
        top = 2 * n - 1
        rows = [(r & ((1 << ell) - 1), r >> ell, 1 << (top - j), 1 << j)
                for j, r in enumerate(self._syndrome_and_class.data)]
        # X on qubit q is row q, Z row n + q, and Y their XOR
        xs, zs = rows[:n], rows[n:]
        ys = [tuple(a ^ b for a, b in zip(x, z)) for x, z in zip(xs, zs)]
        return np.array((xs, ys, zs), dtype=_mask_dtype(2 * n))

    def _pauli_products(self, qubits: np.ndarray, letters: np.ndarray) -> np.ndarray:
        """The four `_letter_products` values of each Pauli that
        `_pauli_masks` builds from these index arrays (letters X, Y or Z
        only), along a new last axis.  All four are linear, so a Pauli's
        values are the XOR of the entries its letters pick."""
        return np.bitwise_xor.reduce(self._letter_products[letters, qubits], axis=-2)

    def __repr__(self) -> str:
        return f"StabilizerCode(n={self.n}, k={self.k}, ell={self.ell})"


def _min_logical_weight(code: StabilizerCode, budget: int = 10**6) -> Optional[int]:
    """Minimum weight of a logical operator (zero syndrome, nonzero class),
    by ascending enumeration, one block of Paulis at a time.

    Returns None when enumeration would blow the budget first.
    """
    spent = 0
    for w in range(1, code.n + 1):
        spent += comb(code.n, w) * 3**w
        if spent > budget:
            return None
        for qubits, letters in _weight_pauli_blocks(code.n, w):
            products = code._pauli_products(qubits, letters)
            if np.any((products[..., 0] == 0) & (products[..., 1] != 0)):
                return w
    return None


def css_from_parity(h: BinaryMatrix) -> StabilizerCode:
    """CSS code from a self-orthogonal parity-check matrix (H used for both
    the X-type and Z-type generators).

    Requires h to have full row rank and h @ h^T = 0 over GF(2), so that
    X- and Z-type rows commute.  X-type generators come first.
    """
    if h.rank != h.rows:
        raise ValueError("parity-check matrix must have full row rank")
    ht = h.transpose()
    gram = h.mat_mul(ht)
    if any(gram.data):
        raise ValueError("parity-check matrix is not self-orthogonal (h h^T != 0)")
    n = h.cols
    gens = [PauliOperator(n, h.row_mask(i), 0) for i in range(h.rows)]
    gens += [PauliOperator(n, 0, h.row_mask(i)) for i in range(h.rows)]
    return StabilizerCode(gens)


def hamming_parity_check() -> BinaryMatrix:
    """The [7,4] Hamming parity-check matrix with columns 1..7 in binary."""
    return BinaryMatrix.from_strings(
        [
            "1010101",
            "0110011",
            "0001111",
        ]
    )


def steane_code() -> StabilizerCode:
    """The [[7,1,3]] code: Hamming checks as both X- and Z-type generators."""
    return css_from_parity(hamming_parity_check())


class LookupDecoder:
    """Minimum-weight table decoder: syndrome -> lowest-weight Pauli seen.

    The table is the winning `StabilizerCode._pauli_products` row of each
    syndrome reached, in syndrome order: an (entries, 3) array, of the
    `_mask_dtype` of 2n, of (syndrome, class, symplectic mask)."""

    def __init__(self, code: StabilizerCode, rows: np.ndarray, max_weight: int):
        self.code = code
        self.max_weight = max_weight
        self._rows = rows

    def decode(self, syndrome: Sequence[int]) -> Optional[PauliOperator]:
        """The stored correction, or None if the syndrome was never reached."""
        return self._decode_mask(_bits_to_mask(syndrome, "syndrome", self.code.ell))

    def _decode_mask(self, mask: int) -> Optional[PauliOperator]:
        """A binary search of the syndrome column; only the correction
        returned is made a PauliOperator."""
        i = int(np.searchsorted(self._rows[:, 0], mask))
        if i == len(self._rows) or self._rows[i, 0] != mask:
            return None
        return PauliOperator._from_mask(self.code.n, int(self._rows[i, 2]))

    @cached_property
    def _correction_classes(self) -> Optional[np.ndarray]:
        """The table as an array over all 2^ell syndromes: the class of
        each correction (the rows' class column, the class part of its
        `StabilizerCode._syndrome_and_class` product, so an error times the
        correction is in the stabilizer group exactly when their classes
        are equal), -1 where the table has none.  None when it would pass
        2^_MAX_TABLE_BITS entries; built on first use, for the batched
        trial kernel."""
        if self.code.ell > _MAX_TABLE_BITS:
            return None
        classes = np.full(1 << self.code.ell, -1, dtype=self._rows.dtype)
        classes[self._rows[:, 0].astype(np.intp)] = self._rows[:, 1]
        return classes

    def _classes_of(self, syndromes: np.ndarray) -> np.ndarray:
        """The class of the correction for each syndrome of an array, -1
        where the table has none: a gather on `_correction_classes`, or,
        where that is None, one binary search of the syndrome column for
        the whole array."""
        table = self._correction_classes
        if table is not None:
            return table[syndromes]
        keys = self._rows[:, 0]
        at = np.minimum(np.searchsorted(keys, syndromes), len(keys) - 1)
        return np.where(keys[at] == syndromes, self._rows[at, 1], -1)

    def _corrects(self, errors: np.ndarray) -> np.ndarray:
        """Whether the table corrects each Pauli of an array of symplectic
        masks: a gather on `_corrected` where that table exists, otherwise
        `_matches_class` of the array."""
        table = self._corrected
        return self._matches_class(errors) if table is None else table[errors]

    def _matches_class(self, errors: np.ndarray) -> np.ndarray:
        """True where the correction for a Pauli's syndrome has the Pauli's
        class, so their product is in the stabilizer group (a miss's -1 is
        no class): one `_syndrome_and_class` product of the array."""
        ell = self.code.ell
        products = self.code._syndrome_and_class._mul_masks(errors)
        syndromes = (products & ((1 << ell) - 1)).astype(_mask_dtype(ell), copy=False)
        return self._classes_of(syndromes) == products >> ell

    @cached_property
    def _corrected(self) -> Optional[np.ndarray]:
        """`_matches_class` of all 4^n symplectic masks, as a bool array
        indexed by mask (`_mask_table`).  None where the 4^n masks would
        pass 2^_MAX_TABLE_BITS entries; built on first use."""
        return _mask_table(2 * self.code.n, self._matches_class)

    @property
    def covered(self) -> bool:
        return len(self._rows) == 1 << self.code.ell

    def __len__(self) -> int:
        return len(self._rows)


def _smallest_key_rows(rows: np.ndarray, key: np.ndarray) -> np.ndarray:
    """The row of the smallest key of each syndrome (column 0), in
    syndrome order."""
    rows = rows[np.lexsort((key, rows[:, 0]))]
    return rows[np.concatenate(([True], rows[1:, 0] != rows[:-1, 0]))]


def lookup_decoder_build(
    code: StabilizerCode, max_weight: int, budget: int = 10**7
) -> LookupDecoder:
    """Build a lookup decoder by enumerating Paulis in ascending weight.

    The first (lowest-weight) Pauli producing each syndrome wins; ties at
    equal weight go to the smallest tie key, the 2n-bit symplectic mask
    read from bit 0 (x_0 ... x_{n-1} z_0 ... z_{n-1}), which orders Paulis
    as their (x_bits, z_bits).  If some syndromes are still unreached at
    max_weight, enumeration keeps extending to higher weights while the
    cumulative case count stays within budget; syndromes never reached
    stay out of the table and decode to None.

    Weight 0 is the identity alone.  Each higher weight is taken in the
    blocks of `_weight_pauli_blocks`, at most `_PAULI_BLOCK` Paulis at a
    time, and one `StabilizerCode._pauli_products` call gives a block's
    rows.  `_smallest_key_rows` picks every winner, twice a weight: by tie
    key within each block, then over the older rows and every block's
    winners together.  The older rows' tie keys are -1 by then, so a
    syndrome reached at a lower weight keeps its row.

    A max_weight outside [0, n], a negative budget, or either one not an
    integer (a bool or a float) is a ValueError, and a numpy integer
    max_weight is kept as a Python one, since a grid records it as t_data.
    """
    n = code.n
    max_weight, budget = _as_int(max_weight, "max_weight", 0, n), _as_int(budget, "budget", 0)
    requested = sum(comb(n, w) * 3**w for w in range(max_weight + 1))
    if requested > budget:
        raise BudgetExceededError(
            f"enumeration up to weight {max_weight} needs {requested} cases, "
            f"budget is {budget}",
            required=requested,
            budget=budget,
        )
    # the identity's row: (syndrome, class, tie key, mask)
    rows = np.zeros((1, 4), dtype=_mask_dtype(2 * n))
    spent = 1
    for w in range(1, n + 1):
        cost = comb(n, w) * 3**w
        if w > max_weight and spent + cost > budget:
            break
        spent += cost
        blocks = (code._pauli_products(*idx).reshape(-1, 4) for idx in _weight_pauli_blocks(n, w))
        rows = np.concatenate([rows] + [_smallest_key_rows(b, b[:, 2]) for b in blocks])
        rows = _smallest_key_rows(rows, rows[:, 2])
        rows[:, 2] = -1  # below every tie key, so a later weight never replaces a row
        if len(rows) == 1 << code.ell:
            break
    return LookupDecoder(code, rows[:, [0, 1, 3]], max_weight)


# --- text format -----------------------------------------------------------


def format_stabilizer_code(code: StabilizerCode) -> str:
    """Serialize: a header line "n k", then one Pauli string per generator."""
    lines = [f"{code.n} {code.k}"]
    lines += [g.to_string() for g in code.generators]
    return "\n".join(lines) + "\n"


def parse_stabilizer_code(text: str) -> StabilizerCode:
    """Parse the text format; validates commutativity, independence, and
    that the declared n and k match the generators."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty stabilizer code text")
    try:
        n, k = map(int, lines[0].split())
    except ValueError:  # not two integers
        n = k = 0
    if not 0 <= k < n:
        raise ValueError(f"header must be 'n k', integers with 0 <= k < n, got {lines[0]!r}")
    gens = [PauliOperator.from_string(s) for s in lines[1:]]
    if len(gens) != n - k:
        raise ValueError(f"expected {n - k} generators for n={n}, k={k}, got {len(gens)}")
    for i, g in enumerate(gens):
        if g.n != n:
            raise ValueError(f"generator {i} acts on {g.n} qubits, expected {n}")
    code = StabilizerCode(gens)
    return code
