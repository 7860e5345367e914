"""Primitive narrow-sense BCH codes: construct, shorten, encode, decode.

A code is defined over GF(2^m) by the generator polynomial

    g(x) = lcm of the minimal polynomials of alpha, alpha^2, ..., alpha^2t,

giving a cyclic [n, k, >= 2t+1] code with n = 2^m - 1, k = n - deg g.
The minimal polynomial of alpha^j depends only on the 2-cyclotomic coset
of j mod n, and those of distinct cosets are distinct irreducibles, so
pairwise coprime: g is the product of one minimal polynomial per coset
meeting {1, ..., 2t}, and deg g is the total size of those cosets.  One
memo, _PER_M, holds a record per m: its coset leaders, found once up to
the largest t asked so far; two lists indexed by t up to there, R(m, t)
and the count of leaders <= 2t, so either is one index; and the running
product of their minimal polynomials, so g for (m, t) is one entry of it
and a call multiplies in only the leaders not yet there, each once per m.
The record also keeps the GF2m that m's first bch_construct builds, so
every later code of m (and every code shortened from one) shares that
field; parity_bit_count builds none.  The memo holds 56 KB after every
code of m = 3..10, and 20.1 MB after `bch_construct(16, 32767)` alone,
nearly all of it the 4,114 products, of degree up to 65,534 (tracemalloc,
field tables built and the memo emptied first, codes dropped before
reading).
Codewords are bit masks, position j = coefficient of x^j.  Encoding is
systematic with the message in the first k positions: because x^n = 1
(mod g), the matrix row for message bit i is x^i + x^k * (x^(i+r) mod g),
so the parity block lands in the last r positions and no elimination is
needed.

Shortening by a drops the first a coordinates (fixing them to zero), an
[n-a, k-a, >= 2t+1] code; decoding re-prepends a zeros.

Decoding is classical Berlekamp-Massey over the 2t power-sum syndromes
S_j = r(alpha^j), then a search for the error locator's roots alpha^-p
over the live positions p in [a, n) only.  Within the design radius t it
corrects exactly; beyond it, it either reports failure (None) or lands on
a wrong codeword, but it never emits a non-codeword (BchCode._decode_mask
gives the proof).
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .fields import BinaryPolynomial, GF2m, minimal_polynomial
from .linalg import BinaryMatrix, _as_int, _bits_to_mask, _mask_to_bits


class BchCode:
    """A (possibly shortened) primitive narrow-sense BCH code.

    Attributes
    ----------
    m, t:        extension degree and design correction radius
    n, k:        parent (unshortened) length and dimension
    r:           parity bit count, deg g = n - k
    shorten_by:  number of leading coordinates removed
    length:      n - shorten_by
    dimension:   k - shorten_by
    distance:    the design distance 2t + 1 (a lower bound on the true one)
    """

    def __init__(self, field: GF2m, t: int, generator: BinaryPolynomial, shorten_by: int = 0):
        n = field.group_order
        r = generator.degree
        k = n - r
        if not 0 <= shorten_by < k:
            raise ValueError(f"shorten_by must be in [0, {k}), got {shorten_by}")
        self.field = field
        self.m = field.m
        self.t = t
        self.generator = generator
        self.n = n
        self.r = r
        self.k = k
        self.shorten_by = shorten_by
        self.length = n - shorten_by
        self.dimension = k - shorten_by
        self.distance = 2 * t + 1

    # --- derived structure ---

    def shortened(self, a: int) -> "BchCode":
        """Shorten by a further leading coordinates."""
        if a < 0:
            raise ValueError("shortening amount must be nonnegative")
        return BchCode(self.field, self.t, self.generator, self.shorten_by + a)

    def generator_matrix(self) -> BinaryMatrix:
        """Systematic dimension x length generator matrix [I | P]: row i is
        the encoding of message bit i."""
        rows = [self._encode_mask(1 << i) for i in range(self.dimension)]
        return BinaryMatrix(self.dimension, self.length, rows)

    # --- encode ---

    def encode(self, message: Sequence[int]) -> Tuple[int, ...]:
        word = self._encode_mask(_bits_to_mask(message, "message", self.dimension))
        return _mask_to_bits(word, self.length)

    def _encode_mask(self, msg_mask: int) -> int:
        # parent message has the dropped prefix fixed to zero
        parent_msg = msg_mask << self.shorten_by
        parity = (BinaryPolynomial(parent_msg << self.r) % self.generator).mask
        return ((parity << self.k) | parent_msg) >> self.shorten_by

    # --- decode ---

    def decode(self, received: Sequence[int]) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        """Bounded-distance decode.

        Returns (message_bits, corrected_positions) or None on failure.
        Up to t bit errors are always corrected; beyond t the call may
        return None or a wrong codeword's message, never a non-codeword.
        """
        out = self._decode_mask(_bits_to_mask(received, "received word", self.length))
        if out is None:
            return None
        msg_mask, positions = out
        return _mask_to_bits(msg_mask, self.dimension), positions

    def _decode_mask(self, word: int) -> Optional[Tuple[int, Tuple[int, ...]]]:
        """(message mask, flipped positions) for a received word, or None.

        A corrected word is always a codeword, with no re-check of the
        syndromes.  BM returns the shortest LFSR generating S_1..S_2t; a
        result needs its length L <= t to equal deg sigma and sigma to have
        L distinct live roots X_i = alpha^p_i.  The sequences that
        recurrence generates are then the sums S_j = sum_i Y_i X_i^j.  A
        binary word has S_2j = S_j^2, so sum_i (Y_i + Y_i^2) X_i^2j = 0 for
        j = 1..t, and the Vandermonde matrix on the L <= t distinct X_i^2
        gives every Y_i in {0, 1}.  A zero Y_i would leave a shorter LFSR,
        so every Y_i = 1: flipping the p_i cancels every syndrome.
        """
        a = self.shorten_by
        parent = word << a
        pow_tables = self._pow_tables
        # power-sum syndromes S_j = sum over support of alpha^(j*i)
        syndromes = [0] * (2 * self.t)
        rem = parent
        while rem:
            low = rem & -rem
            i = low.bit_length() - 1
            rem ^= low
            for j in range(2 * self.t):
                syndromes[j] ^= pow_tables[j][i]
        if not any(syndromes):
            return (word & ((1 << self.dimension) - 1), ())
        sigma, errors = self._berlekamp_massey(syndromes)
        if errors == 0 or errors > self.t or len(sigma) - 1 != errors:
            return None
        # a root in the dropped prefix, or a repeated one, leaves fewer
        # live roots than deg sigma
        n = self.n
        log = self.field._log
        antilog = self.field._antilog
        terms = [(log[c], j) for j, c in enumerate(sigma) if c]
        positions = []
        for p in range(a, n):
            v = 0
            for log_c, j in terms:
                v ^= antilog[(log_c - p * j) % n]
            if v == 0:
                positions.append(p)
        if len(positions) != errors:
            return None
        positions = tuple(p - a for p in positions)
        for p in positions:
            word ^= 1 << p
        return word & ((1 << self.dimension) - 1), positions

    @cached_property
    def _pow_tables(self) -> List[List[int]]:
        """Row j-1 holds alpha^(j*i) for every parent position i."""
        antilog = self.field._antilog
        n = self.n
        return [[antilog[(j * i) % n] for i in range(n)] for j in range(1, 2 * self.t + 1)]

    def _berlekamp_massey(self, syndromes: List[int]) -> Tuple[List[int], int]:
        """Minimal LFSR (error locator sigma, as field coefficients lowest
        degree first) generating the syndrome sequence, and its length."""
        mul = self.field.mul
        div = self.field.div
        sigma = [1]
        prev = [1]
        length = 0
        shift = 1
        prev_disc = 1
        for i, s in enumerate(syndromes):
            disc = s
            for j in range(1, length + 1):
                if j < len(sigma) and sigma[j] and syndromes[i - j]:
                    disc ^= mul(sigma[j], syndromes[i - j])
            if disc:
                coef = div(disc, prev_disc)
                sigma.extend([0] * (len(prev) + shift - len(sigma)))
                saved = sigma[: length + 1]
                for j, pj in enumerate(prev):
                    if pj:
                        sigma[j + shift] ^= mul(coef, pj)
                if 2 * length <= i:
                    length, prev, prev_disc, shift = i + 1 - length, saved, disc, 0
            shift += 1
        while sigma and sigma[-1] == 0:
            sigma.pop()
        return sigma, length

    def __repr__(self) -> str:
        return (
            f"BchCode([{self.length},{self.dimension},{self.distance}], "
            f"m={self.m}, t={self.t}, shorten_by={self.shorten_by})"
        )


# m -> [the 2-cyclotomic coset leaders mod 2^m - 1 found so far, ascending;
# R(m, t) and the count of leaders <= 2t, each a list indexed by t = 0..T,
# where T is how far the record has been walked; the running products of
# the leaders' minimal polynomials, as far as bch_construct has asked;
# GF(2^m), once bch_construct has built it].  A leader is its coset's least
# element, so the cosets meeting {1, ..., 2t} are those of the leaders
# <= 2t, and product i is the generator of every (m, t) with i + 1 of them.
_PER_M: Dict[int, list] = {}


def _designed_record(m: int, t: int) -> list:
    """m's record in _PER_M, walked at least to t: read as it is where it
    reaches t, else walked on from where it stopped."""
    record = _PER_M.get(m)
    if record is None or not 0 < t < len(record[1]):
        record = _walk(m, t)
    return record


def _walk(m: int, t: int) -> list:
    """m's record walked on to t, t < 1 refused before any read."""
    if t < 1:
        raise ValueError("t must be at least 1")
    record = _PER_M.get(m) or [[], [0], [0], [], None]
    leaders, rs, counts, _, _ = record
    # a record is only ever walked below its code length
    n = (1 << m) - 1 if m >= 1 else 0
    if 2 * t >= n:
        raise ValueError(f"2t = {2 * t} must be below the code length {n}")
    _PER_M[m] = record
    total = rs[-1]
    # an even e has e/2 in its coset, so of 2t - 1 and 2t only 2t - 1 can
    # lead; it does when doubling comes back to it before going below it,
    # and the doublings taken are its coset's size
    for e in range(2 * len(rs) - 1, 2 * t, 2):
        c, size = 2 * e % n, 1
        while c > e:
            c, size = 2 * c % n, size + 1
        if c == e:
            total += size
            leaders.append(e)
        rs.append(total)
        counts.append(len(leaders))
    return record


def bch_construct(m: int, t: int) -> BchCode:
    """The primitive narrow-sense BCH code of length 2^m - 1 correcting t errors.

    m's running generator products are extended only where they stop short
    of the (m, t) code's leader count, so a warm call, on a record walked
    to t with products that far, is one memo read, two list reads and one
    BchCode: no minimal polynomial and no product."""
    if type(m) is not int or type(t) is not int:
        m, t = _as_int(m, "m"), _as_int(t, "t")
    record = _designed_record(m, t)
    leaders, _, counts, products, field = record
    if field is None:
        field = record[4] = GF2m(m)
    count = counts[t]
    if count > len(products):
        g = products[-1] if products else BinaryPolynomial.one()
        for e in leaders[len(products) : count]:
            g = g * minimal_polynomial(field, e)
            products.append(g)
    code = BchCode(field, t, products[count - 1])
    if code.r > m * t:
        raise AssertionError("parity count exceeded the m*t bound")
    return code


def parity_bit_count(m: int, t: int) -> int:
    """R(m, t) = deg g for the (m, t) code: the number of distinct roots of
    g, i.e. the total size of the cosets meeting {1, ..., 2t}.  No field is
    built, so m has no cap here."""
    m, t = _as_int(m, "m"), _as_int(t, "t")
    return _designed_record(m, t)[1][t]


def bch_select_parameters(ell: int, t: int) -> Tuple[int, int]:
    """(m, R) for the smallest m with ell <= 2^m - m*t - 1.

    The bound guarantees room for ell message bits even in the worst case
    deg g = m*t; R is the actual parity count of the selected code.  This
    counts coset sizes and builds no field, so m has no cap: the search
    always ends, because 2^m - m*t - 1 grows without bound.
    """
    return next(_select_parameters(_as_int(ell, "ell", 1), [_as_int(t, "t")]))


def _select_parameters(ell: int, ts: Sequence[int]) -> Iterator[Tuple[int, int]]:
    """bch_select_parameters(ell, t) for each int t of ts, in order, from
    one upward walk of m.  For fixed m, 2t < 2^m - 1 and ell <= 2^m - m*t - 1
    both get harder as t grows, so the least admissible m never falls while
    t rises; the walk starts over only where t falls.  R is read off the
    walked m's list, fetched again only where m moves or t passes its end;
    a t below 1 always fetches, for _walk to refuse.  ell is at least 1."""
    # ell <= 2^m - m*t - 1 < 2^m, so no m below ell's bit length qualifies
    m = start = max(2, ell.bit_length())
    rs = []
    for last, t in zip([0, *ts], ts):
        if t < last:
            m, rs = start, []
        while 2 * t >= (1 << m) - 1 or ell > (1 << m) - m * t - 1:
            m, rs = m + 1, []
        if not 0 < t < len(rs):
            rs = _designed_record(m, t)[1]
        yield m, rs[t]


def bch_select_m(ell: int, t: int) -> Tuple[int, BchCode]:
    """Smallest-m BCH code shortened to dimension ell, correcting t errors.

    Returns (m, code); the code's length is ell + R(m, t).  The selection
    has no degree cap, but building the code needs GF(2^m), which raises
    ValueError past the primitive-polynomial table.
    """
    m, _ = bch_select_parameters(ell, t)
    code = bch_construct(m, t)
    return m, code.shortened(code.k - ell)


def bch_encode(code: BchCode, message: Sequence[int]) -> Tuple[int, ...]:
    return code.encode(message)


def bch_decode(code: BchCode, received: Sequence[int]):
    return code.decode(received)
