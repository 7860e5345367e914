"""Pauli operators, stabilizer codes, syndromes, and table decoders.

A Pauli on n qubits is stored phase-free as two n-bit masks (x, z): bit i
of x set means the letter on qubit i has an X component, bit i of z a Z
component, so per qubit (0,0)=I, (1,0)=X, (0,1)=Z, (1,1)=Y.  String order
is qubit 0 first.

The symplectic product x_a.z_b + z_a.x_b (mod 2) is 0 exactly when two
Paulis commute; a stabilizer code's check matrix has one [x_bits | z_bits]
row of length 2n per generator and a syndrome is the vector of symplectic
products of an error with each generator.

Classification of a residual error: "trivial" if it is in the row space
of the check matrix (an element of the stabilizer group), otherwise
"detectable" if any generator anticommutes with it (a nonzero syndrome)
and "logical" if none does.

Batches of Paulis are arrays of symplectic masks x | z << n, built by
`_pauli_masks` and multiplied by `StabilizerCode._syndrome_and_class`.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, product
from math import comb
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from .linalg import _MAX_TABLE_BITS, BinaryMatrix, _bits_to_mask, _mask_dtype, _mask_to_bits

_LETTERS = "IXZY"  # index = x_bit + 2*z_bit
_PAULI_LETTERS = "XYZI"  # the letter codes of `_pauli_masks`

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
        for i, ch in enumerate(s):
            if ch not in _PAULI_LETTERS:
                raise ValueError(f"invalid Pauli letter {ch!r} at position {i}")
        n = len(s)
        letters = np.array([_PAULI_LETTERS.index(ch) for ch in s], dtype=np.intp)
        mask = int(_pauli_masks(np.arange(n), letters, n))
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


def symplectic_product(a: PauliOperator, b: PauliOperator) -> int:
    if a.n != b.n:
        raise ValueError("qubit count mismatch")
    return ((a.x & b.z).bit_count() + (a.z & b.x).bit_count()) & 1


def _pauli_masks(qubits: np.ndarray, letters: np.ndarray, n: int) -> np.ndarray:
    """Symplectic masks x | z << n, of the `_mask_dtype` of 2n, of Paulis
    with letter codes (0 = X, 1 = Y, 2 = Z, 3 = I) on qubits given along
    the last axis of the broadcast arrays, which may be empty."""
    letter_masks = np.array([1, 1 | 1 << n, 1 << n, 0], dtype=_mask_dtype(2 * n))
    return np.bitwise_or.reduce(letter_masks[letters] << qubits, axis=-1)


def _weight_pauli_masks(n: int, w: int) -> np.ndarray:
    """Every weight-w Pauli on n qubits as a symplectic mask, supports in
    lexicographic order and, within a support, letters per position in
    X, Y, Z order (the last position fastest)."""
    supports = np.array(list(combinations(range(n), w)), dtype=np.intp).reshape(comb(n, w), w)
    letters = np.array(list(product(range(3), repeat=w)), dtype=np.intp).reshape(3**w, w)
    return _pauli_masks(supports[:, None, :], letters[None, :, :], n).reshape(-1)


def iter_weight_paulis(n: int, w: int) -> Iterator[PauliOperator]:
    """All weight-w Paulis on n qubits, in the fixed order of
    `_weight_pauli_masks`, turned into Python ints a block at a time."""
    low = (1 << n) - 1
    masks = _weight_pauli_masks(n, w)
    for lo in range(0, len(masks), 1 << 16):
        for mask in masks[lo : lo + (1 << 16)].tolist():
            yield PauliOperator(n, mask & low, mask >> n)


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
        for i in range(len(generators)):
            for j in range(i + 1, len(generators)):
                if symplectic_product(generators[i], generators[j]):
                    raise ValueError(
                        f"generators {i} and {j} anticommute: "
                        f"{generators[i].to_string()} vs {generators[j].to_string()}"
                    )
        check = BinaryMatrix(
            len(generators), 2 * n, [g.symplectic_mask() for g in generators]
        )
        if check.rank != len(generators):
            raise ValueError("generators are not independent")
        self.n = n
        self.ell = len(generators)
        self.k = n - self.ell
        self.generators = generators
        self.check_matrix = check
        self._gen_masks = tuple((g.x, g.z) for g in generators)

    def syndrome(self, error: PauliOperator) -> Tuple[int, ...]:
        if error.n != self.n:
            raise ValueError("error acts on wrong qubit count")
        return _mask_to_bits(self._syndrome_mask(error.x, error.z), self.ell)

    def _syndrome_mask(self, ex: int, ez: int) -> int:
        s = 0
        for i, (gx, gz) in enumerate(self._gen_masks):
            if ((gx & ez).bit_count() + (gz & ex).bit_count()) & 1:
                s |= 1 << i
        return s

    def classify(self, residual: PauliOperator) -> str:
        """One of "trivial", "logical", "detectable" for a residual error."""
        if residual.n != self.n:
            raise ValueError("error acts on wrong qubit count")
        return self._classify_mask(residual.x, residual.z)

    def _classify_mask(self, x: int, z: int) -> str:
        if self.check_matrix._contains_mask(x | (z << self.n)):
            return RESIDUAL_TRIVIAL
        if self._syndrome_mask(x, z):
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

    def __repr__(self) -> str:
        return f"StabilizerCode(n={self.n}, k={self.k}, ell={self.ell})"


def _min_logical_weight(code: StabilizerCode, budget: int = 10**6) -> Optional[int]:
    """Minimum weight of a logical operator (zero syndrome, nonzero class),
    by ascending enumeration, one batch per weight.

    Returns None when enumeration would blow the budget first.
    """
    low = (1 << code.ell) - 1
    spent = 0
    for w in range(1, code.n + 1):
        spent += comb(code.n, w) * 3**w
        if spent > budget:
            return None
        products = code._syndrome_and_class._mul_masks(_weight_pauli_masks(code.n, w))
        if np.any(((products & low) == 0) & ((products >> code.ell) != 0)):
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
    """Minimum-weight table decoder: syndrome -> lowest-weight Pauli seen."""

    def __init__(self, code: StabilizerCode, table: Dict[int, PauliOperator], max_weight: int):
        self.code = code
        self.max_weight = max_weight
        self._table = table

    def decode(self, syndrome: Sequence[int]) -> Optional[PauliOperator]:
        """The stored correction, or None if the syndrome was never reached."""
        return self._table.get(_bits_to_mask(syndrome, "syndrome", self.code.ell))

    def _decode_mask(self, mask: int) -> Optional[PauliOperator]:
        return self._table.get(mask)

    @cached_property
    def _correction_classes(self) -> Optional[np.ndarray]:
        """The table as an array over all 2^ell syndromes: the class of
        each correction (from `StabilizerCode._syndrome_and_class`, so an
        error times the correction is in the stabilizer group exactly when
        their classes are equal), -1 where the table has none.  None when
        it would pass 2^_MAX_TABLE_BITS entries; built on first use, for
        the batched trial kernel."""
        code = self.code
        if code.ell > _MAX_TABLE_BITS:
            return None
        dtype = _mask_dtype(2 * code.n)
        corrections = np.array([p.symplectic_mask() for p in self._table.values()], dtype=dtype)
        classes = np.full(1 << code.ell, -1, dtype=dtype)
        classes[list(self._table)] = code._syndrome_and_class._mul_masks(corrections) >> code.ell
        return classes

    @property
    def covered(self) -> bool:
        return len(self._table) == 1 << self.code.ell

    def __len__(self) -> int:
        return len(self._table)


def lookup_decoder_build(
    code: StabilizerCode, max_weight: int, budget: int = 10**7
) -> LookupDecoder:
    """Build a lookup decoder by enumerating Paulis in ascending weight.

    The first (lowest-weight) Pauli producing each syndrome wins; ties at
    equal weight go to the lexicographically smaller (x_bits, z_bits).  If
    some syndromes are still unreached at max_weight, enumeration keeps
    extending to higher weights while the cumulative case count stays
    within budget; syndromes never reached stay out of the table and
    decode to None.
    """
    if max_weight < 0 or max_weight > code.n:
        raise ValueError("max_weight must be in [0, n]")
    n = code.n
    requested = sum(comb(n, w) * 3**w for w in range(max_weight + 1))
    if requested > budget:
        raise BudgetExceededError(
            f"enumeration up to weight {max_weight} needs {requested} cases, "
            f"budget is {budget}",
            required=requested,
            budget=budget,
        )
    table: Dict[int, PauliOperator] = {}
    full = 1 << code.ell
    spent = 0
    w = 0
    while w <= n:
        cost = comb(n, w) * 3**w
        if w > max_weight and spent + cost > budget:
            break
        spent += cost
        for p in iter_weight_paulis(n, w):
            s = code._syndrome_mask(p.x, p.z)
            held = table.get(s)
            if held is None:
                table[s] = p
            elif held.weight == w and (p.x_bits, p.z_bits) < (held.x_bits, held.z_bits):
                table[s] = p
        if len(table) == full:
            break
        w += 1
    return LookupDecoder(code, table, max_weight)


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
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError("header must be 'n k'")
    n, k = int(header[0]), int(header[1])
    gens = [PauliOperator.from_string(s) for s in lines[1:]]
    if len(gens) != n - k:
        raise ValueError(f"expected {n - k} generators for n={n}, k={k}, got {len(gens)}")
    for i, g in enumerate(gens):
        if g.n != n:
            raise ValueError(f"generator {i} acts on {g.n} qubits, expected {n}")
    code = StabilizerCode(gens)
    return code
