"""Arithmetic substrate: polynomials over GF(2), GF(2^m) tables, cyclotomic cosets.

Polynomials over GF(2) are integer bit masks: bit i holds the coefficient
of x^i, so 0b100101 is x^5 + x^2 + 1.  Field elements of GF(2^m) are
integers in [0, 2^m) whose bits are coordinates in the polynomial basis
{1, alpha, ..., alpha^(m-1)} with alpha = x a root of the primitive
polynomial; multiplication goes through log/antilog tables.  The tables
are built once per primitive polynomial and shared by every GF2m over it.
Minimal polynomials need no coset: each is the first GF(2) dependency
among the powers of its root.  `minimal_polynomial` computes one per call
and keeps nothing.
"""

from __future__ import annotations

import functools
from typing import Iterable, List, Sequence, Tuple

from .linalg import _bits_to_mask, _mask_to_bits

# Primitive polynomials over GF(2), one per supported extension degree.
# Masks are bit-reversible to the usual textbook tables; each is checked
# for primitivity when the field tables are built, so a typo here cannot
# survive construction.
PRIMITIVE_POLYNOMIALS = {
    2: 0b111,                # x^2 + x + 1
    3: 0b1011,               # x^3 + x + 1
    4: 0b10011,              # x^4 + x + 1
    5: 0b100101,             # x^5 + x^2 + 1
    6: 0b1000011,            # x^6 + x + 1
    7: 0b10001001,           # x^7 + x^3 + 1
    8: 0b100011101,          # x^8 + x^4 + x^3 + x^2 + 1
    9: 0b1000010001,         # x^9 + x^4 + 1
    10: 0b10000001001,       # x^10 + x^3 + 1
    11: 0b100000000101,      # x^11 + x^2 + 1
    12: 0b1000001010011,     # x^12 + x^6 + x^4 + x + 1
    13: 0b10000000011011,    # x^13 + x^4 + x^3 + x + 1
    14: 0b100010001000011,   # x^14 + x^10 + x^6 + x + 1
    15: 0b1000000000000011,  # x^15 + x + 1
    16: 0b10001000000001011, # x^16 + x^12 + x^3 + x + 1
}

MAX_EXTENSION_DEGREE = max(PRIMITIVE_POLYNOMIALS)


class BinaryPolynomial:
    """A polynomial over GF(2), stored as an integer bit mask.

    Instances are immutable.  Arithmetic (`+`, `*`, `divmod`, `%`, `//`)
    is carry-less; `+` and `-` coincide.
    """

    __slots__ = ("mask",)

    def __init__(self, mask: int):
        if mask < 0:
            raise ValueError("polynomial mask must be nonnegative")
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, name, value):
        raise AttributeError("BinaryPolynomial is immutable")

    @classmethod
    def zero(cls) -> "BinaryPolynomial":
        return cls(0)

    @classmethod
    def one(cls) -> "BinaryPolynomial":
        return cls(1)

    @classmethod
    def x_power(cls, k: int) -> "BinaryPolynomial":
        if k < 0:
            raise ValueError("exponent must be nonnegative")
        return cls(1 << k)

    @classmethod
    def from_coefficients(cls, coeffs: Iterable[int]) -> "BinaryPolynomial":
        """Build from coefficients listed lowest degree first."""
        return cls(_bits_to_mask(coeffs, "coefficients"))

    @classmethod
    def from_hex(cls, text: str) -> "BinaryPolynomial":
        return cls(int(text, 16))

    def to_hex(self) -> str:
        return hex(self.mask)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return self.mask.bit_length() - 1

    @property
    def is_zero(self) -> bool:
        return self.mask == 0

    def coefficients(self) -> Tuple[int, ...]:
        """Coefficients lowest degree first; () for the zero polynomial."""
        return _mask_to_bits(self.mask, self.degree + 1)

    def __add__(self, other: "BinaryPolynomial") -> "BinaryPolynomial":
        return BinaryPolynomial(self.mask ^ other.mask)

    __sub__ = __add__

    def __mul__(self, other: "BinaryPolynomial") -> "BinaryPolynomial":
        a, b = self.mask, other.mask
        if a == 0 or b == 0:
            return BinaryPolynomial(0)
        # keep the inner loop over the sparser operand
        if a.bit_count() > b.bit_count():
            a, b = b, a
        acc = 0
        while a:
            low = a & -a
            acc ^= b << (low.bit_length() - 1)
            a ^= low
        return BinaryPolynomial(acc)

    def __divmod__(self, other: "BinaryPolynomial"):
        if other.mask == 0:
            raise ZeroDivisionError("polynomial division by zero")
        rem = self.mask
        quot = 0
        dd = other.degree
        while rem.bit_length() - 1 >= dd:
            shift = rem.bit_length() - 1 - dd
            rem ^= other.mask << shift
            quot |= 1 << shift
        return BinaryPolynomial(quot), BinaryPolynomial(rem)

    def __mod__(self, other: "BinaryPolynomial") -> "BinaryPolynomial":
        return divmod(self, other)[1]

    def __floordiv__(self, other: "BinaryPolynomial") -> "BinaryPolynomial":
        return divmod(self, other)[0]

    def gcd(self, other: "BinaryPolynomial") -> "BinaryPolynomial":
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a

    def eval_in(self, field: "GF2m", element: int) -> int:
        """Evaluate at an element of GF(2^m), returning a field element."""
        acc = 0
        for i in range(self.degree, -1, -1):
            acc = field.mul(acc, element)
            if (self.mask >> i) & 1:
                acc ^= 1
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, BinaryPolynomial) and self.mask == other.mask

    def __hash__(self) -> int:
        return hash(("BinaryPolynomial", self.mask))

    def __str__(self) -> str:
        if self.mask == 0:
            return "0"
        terms = []
        for i in range(self.degree, -1, -1):
            if (self.mask >> i) & 1:
                terms.append("1" if i == 0 else ("x" if i == 1 else f"x^{i}"))
        return " + ".join(terms)

    def __repr__(self) -> str:
        return f"BinaryPolynomial({self.to_hex()})"


def poly_lcm(polys: Sequence[BinaryPolynomial]) -> BinaryPolynomial:
    """Least common multiple of nonzero polynomials over GF(2)."""
    if not polys:
        raise ValueError("poly_lcm needs at least one polynomial")
    acc = BinaryPolynomial.one()
    for p in polys:
        if p.is_zero:
            raise ValueError("poly_lcm is undefined for the zero polynomial")
        g = acc.gcd(p)
        # coprime factors (distinct minimal polynomials are) need no division
        acc = acc * p if g.degree == 0 else (acc // g) * p
    return acc


@functools.lru_cache(maxsize=len(PRIMITIVE_POLYNOMIALS))
def _field_tables(mask: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Log and doubled antilog tables of GF(2^m) over the degree-m
    polynomial `mask`, shared by every GF2m built on it.

    log[a] is the exponent of a != 0 (log[0] is unused); antilog[i] is
    alpha**i for i in [0, 2(2^m - 1)), doubled so mul can skip a mod.
    Raises ValueError unless alpha has order exactly 2^m - 1; lru_cache
    keeps no raised call, so a rejected polynomial raises every time.
    """
    order = 1 << (mask.bit_length() - 1)
    n = order - 1
    log = [0] * order
    antilog = [0] * n
    val = 1
    for i in range(n):
        if val == 1 and i != 0:
            raise ValueError(f"{BinaryPolynomial(mask)} is not primitive: alpha has order {i}")
        antilog[i] = val
        log[val] = i
        val <<= 1
        if val & order:
            val ^= mask
    if val != 1:
        raise ValueError(f"{BinaryPolynomial(mask)} is not irreducible over GF(2)")
    return tuple(log), tuple(antilog * 2)


class GF2m:
    """GF(2^m) with log/antilog tables over a primitive polynomial.

    Parameters
    ----------
    m:
        Extension degree, 2 <= m <= 16, the degrees PRIMITIVE_POLYNOMIALS
        covers.  This is the package's one degree cap: counting builds no
        field.
    primitive_polynomial:
        Degree-m polynomial defining the field, as a BinaryPolynomial or a
        bit mask.  Defaults to the entry in PRIMITIVE_POLYNOMIALS.  The
        table build verifies primitivity (alpha must have order 2^m - 1)
        and raises ValueError otherwise.

    Every field over one polynomial shares one immutable pair of tables
    (tuples), so a process that builds many codes of one m builds its
    tables once, and bch_construct builds one field per m and keeps it.
    At most len(PRIMITIVE_POLYNOMIALS) = 15 polynomials keep their tables,
    the least recently used dropped first.  The cost is that tables
    outlive their last field, and a field of each m that bch_construct
    has built stays alive for the process: m = 16's tables hold 5.75 MB
    and all 15 default fields' 11.4 MB (tracemalloc).
    """

    def __init__(self, m: int, primitive_polynomial=None):
        if not 2 <= m <= MAX_EXTENSION_DEGREE:
            raise ValueError(
                f"no primitive polynomial is tabulated for m = {m}; "
                f"GF(2^m) is built for m in [2, {MAX_EXTENSION_DEGREE}]"
            )
        if primitive_polynomial is None:
            primitive_polynomial = BinaryPolynomial(PRIMITIVE_POLYNOMIALS[m])
        elif isinstance(primitive_polynomial, int):
            primitive_polynomial = BinaryPolynomial(primitive_polynomial)
        if primitive_polynomial.degree != m:
            raise ValueError("primitive polynomial must have degree m")
        self.m = m
        self.primitive_polynomial = primitive_polynomial
        self.order = 1 << m
        self.group_order = self.order - 1  # multiplicative order of alpha
        self._log, self._antilog = _field_tables(primitive_polynomial.mask)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._antilog[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self._antilog[self.group_order - self._log[a]]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by zero field element")
        if a == 0:
            return 0
        return self._antilog[self._log[a] - self._log[b] + self.group_order]

    def pow_alpha(self, i: int) -> int:
        """alpha**i for any integer i (exponent taken mod 2^m - 1)."""
        return self._antilog[i % self.group_order]

    def log_of(self, a: int) -> int:
        if a == 0:
            raise ValueError("log of zero is undefined")
        return self._log[a]

    def elements(self) -> range:
        return range(self.order)

    def __repr__(self) -> str:
        return f"GF2m(m={self.m}, primitive={self.primitive_polynomial.to_hex()})"


def cyclotomic_cosets(m: int) -> List[List[int]]:
    """2-cyclotomic cosets mod 2^m - 1, each sorted, ordered by leader.

    Every coset is closed under doubling mod 2^m - 1; the coset {0} is
    included.  Coset sizes divide m and the cosets partition
    [0, 2^m - 2].
    """
    if m < 1:
        raise ValueError("m must be positive")
    n = (1 << m) - 1
    seen = set()
    cosets: List[List[int]] = []
    for lead in range(n):
        if lead not in seen:
            # n is odd, so doubling permutes [0, n) and comes back to lead
            coset = [lead]
            c = 2 * lead % n
            while c != lead:
                coset.append(c)
                c = 2 * c % n
            seen.update(coset)
            cosets.append(sorted(coset))
    return cosets


def minimal_polynomial(field: GF2m, exponent: int) -> BinaryPolynomial:
    """Minimal polynomial of beta = alpha**exponent over GF(2).

    The powers beta^0, beta^1, ... are m-bit vectors over GF(2).  The
    first one that is a GF(2) combination of the powers before it gives
    the monic dependency of least degree, which is the minimal polynomial
    by definition; m + 1 vectors in GF(2)^m are always dependent.  The
    pivots are two lists indexed by top bit: the reduced vector (0 while
    that bit has none) and the mask of the powers combined in it.  Each
    power is reduced against them, XOR-ing a pivot's mask into its own.
    """
    n = field.group_order
    step = exponent % n
    antilog = field._antilog
    pivot_vecs = [0] * field.m  # top bit -> reduced vector; 0: no pivot yet
    pivot_combos = [0] * field.m  # top bit -> mask of the powers in it
    power = 0
    for k in range(field.m + 1):
        vec, combo = antilog[power], 1 << k
        while vec:
            top = vec.bit_length() - 1
            pivot = pivot_vecs[top]
            if not pivot:
                pivot_vecs[top] = vec
                pivot_combos[top] = combo
                break
            vec ^= pivot
            combo ^= pivot_combos[top]
        else:
            return BinaryPolynomial(combo)
        power = (power + step) % n
    raise AssertionError("m + 1 powers in GF(2^m) must be dependent")

