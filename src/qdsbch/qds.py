"""Quantum data-syndrome codes: a stabilizer code plus a syndrome
measurement (SM) code that protects the syndrome bits themselves.

An SM code is a binary [n_s, ell] code; instead of measuring the ell
generators once, one measures the n_s products of generators given by the
columns of the SM encode matrix G, so a clean readout of a data error E is
the SM encoding of E's ordinary syndrome.  The combined check matrix is

    H_Q = G^T H      (n_s rows of length 2n),

each row a measurable product of generators.  Decoding is two-step: decode
the noisy n_s-bit readout with the classical SM decoder to recover the
ell-bit syndrome, then hand that syndrome to any decoder for the base
stabilizer code.

Three SM families are provided: a shortened BCH code of dimension ell
(the interesting one), the (2t+1)-fold repetition of all ell measurements,
and the identity (plain single measurement, no protection).

Every trial that direct_monte_carlo draws, or that a grid draws
(sim._run_cell), gets one verdict, taken as whole-batch numpy operations
on tables that are built on the first batch (never by QdsCode() or
decode).  A batch is an array of error masks x | z << n and
one of n_s-bit flip masks, the masks the one-trial path uses
(sim._draw_flips draws a flip mask as the set of a row's w_s smallest
random keys, in no order).  QdsCode._count_failures is the verdict: a
trial passes exactly when its flips decode alone to 0 with no give-up
and the decoder corrects its error.  The readout is never formed: the SM
code is linear and its decoders commute with adding a codeword (the
contract in SyndromeMeasurementCode), so decoding encode(s) ^ f gives
s ^ D(f), D(f) the decode of f alone, and gives up exactly when decoding
f alone does.  The correction for s ^ D(f) has that syndrome, so the
residual's syndrome is D(f), and only D(f) = 0 can leave it in the
stabilizer group.  The verdict's two halves:

- Readout, SyndromeMeasurementCode._decodes_to_zero: a gather on
  _zero_words, a bool over all 2^n_s words (n_s <= 20), or else the SM
  code's batched _decode_is_zero.  A BCH code looks the flips' syndrome
  (one product) up in a table of its coset leaders of weight <= t, and a
  word decodes to 0 exactly when it is its own syndrome's leader: the
  word plus the leader is the codeword it decodes to, which carries
  message 0 exactly when it is 0, whatever the code's layout.  A
  repetition code takes the bit-sliced majority of _decode_mask over the
  whole array.  A BCH code whose table would pass 2^20 entries (R > 20)
  is decoded word by word with Berlekamp-Massey.
- Data, QdsCode._corrects: a LookupDecoder answers for the whole batch,
  by a gather on its _corrected table over all 4^n masks (n <= 10), or
  else from one product of the errors by StabilizerCode._syndrome_and_class.
  That gives each error's syndrome s and class, the error times the
  annihilator of H: an error times a correction is in the stabilizer
  group exactly when the two have the same class.  The correction's class
  is LookupDecoder._classes_of(s), a gather on the correction classes as
  an array over all 2^ell syndromes, or past ell = 20 one binary search
  of its rows for the whole batch.  Any other decoder is called once per
  error, and the error times its correction must have product 0.  A
  LookupDecoder reads its code's check matrix alone, so _corrects takes
  one of any code object with the base code's check matrix and refuses
  any other, whose table reads another code's syndromes and classes.

Both tables, _zero_words and _corrected, are linalg._mask_table of their
half's batched test, built a few thousand masks per call.

Since neither half reads the other's input, nothing exact pairs them.
K(w), how many weight-w errors the decoder corrects, is
QdsCode._corrected_counts, which tests each error once with _corrects;
Z(w), how many weight-w flip patterns decode alone to 0, is the SM code's
_count_zero_decodes (each pattern tested once) or _zero_counts (closed
form or the word table).  A cell (w_q, w_s) passes on K(w_q) Z(w_s) of
its |E_wq| C(n_s, w_s) cases, the one formula _exact_cells, which
verify_correction_guarantee reads up to its radii and sim._grid_plan over
the whole grid.

Every GF(2) product on a batch is BinaryMatrix._mul_masks, the XOR of one
gather per chunk of at most 16 matrix rows, each indexed by that chunk's
bits of the masks: one gather for Steane's 14-row syndrome-and-class
product, two for the 21-row syndrome of the [21,6,7] BCH code.

measure, decode_two_step and StabilizerCode.classify are the one-trial
path the tests check the verdict against.  measure reads H_Q's rows, kept
as symplectic masks in h_q, through stabilizer._anticommuting, the same
helper the base code's syndrome uses; measurement_pauli and row_weights
read the same rows, so QdsCode keeps no second copy of them.

For overhead comparisons, fujiwara_extra_measurements counts the extra
rows of the earlier distinct-pair-measurement construction, and
overhead_table tabulates all three against each other.  Both read one
formula, _distinct_pair_counts: the stage widths m_i depend on (ell, i)
alone, and the count for t is a running total over them, so
overhead_table computes each ell's widths and totals once, for the
largest applicable t it is asked, and reads every row from them.  With b
the bit length of d, 2^b < d * e < 2^(b+2), so a width is b + 1, or b + 2
where d passes floor(2^(b+1) / e): one compare with a threshold kept per
b (_e_threshold), which is read off a fixed-point bracket of e * 2^w
(_e_fixed_point, kept per 64-bit width w).  The table's BCH column is
bch._select_parameters, one upward walk of m across the t of each ell
reading R off the per-t lists of bch's per-m memo, and its rows are built
as plain tuples.  Each argument is read once, and apart from the
thresholds, the brackets and that memo nothing is kept between calls.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .bch import BchCode, _select_parameters, bch_select_m
from .linalg import (
    _MAX_TABLE_BITS,
    BinaryMatrix,
    _as_int,
    _bits_to_mask,
    _mask_dtype,
    _mask_table,
    _mask_to_bits,
)
from .stabilizer import (
    _PAULI_BLOCK,
    BudgetExceededError,
    LookupDecoder,
    PauliOperator,
    StabilizerCode,
    _anticommuting,
    _subset_blocks,
    _weight_pauli_masks,
)

Bits = Tuple[int, ...]


class SyndromeMeasurementCode(ABC):
    """Binary [n_s, ell] code used to protect syndrome readout.

    encode maps an ell-bit syndrome to the n_s-bit clean readout; decode
    maps a noisy readout back to an ell-bit syndrome estimate (None if the
    decoder gives up).  t_s is the guaranteed correction radius.

    The trial verdict (QdsCode._count_failures) decodes the flips alone, so
    every subclass must keep this contract for all s and f:
    _decode_mask(encode(s) ^ f) == s ^ _decode_mask(f), where either both
    calls give up or neither does; and _decode_is_zero(f) must be
    _decode_mask(f) == 0.  A syndrome decoder of a linear code keeps it (a
    codeword has a zero syndrome), and so does a bitwise majority over
    copies.
    """

    ell: int
    n_s: int
    t_s: int
    name: str

    @cached_property
    def encode_matrix(self) -> BinaryMatrix:
        """ell x n_s matrix G with encode(s) = s G: row i encodes bit i.
        Built on first use."""
        rows = [self._encode_mask(1 << i) for i in range(self.ell)]
        return BinaryMatrix(self.ell, self.n_s, rows)

    def encode(self, syndrome: Sequence[int]) -> Bits:
        mask = _bits_to_mask(syndrome, "syndrome", self.ell)
        return _mask_to_bits(self._encode_mask(mask), self.n_s)

    def decode(self, received: Sequence[int]) -> Optional[Bits]:
        msg = self._decode_mask(_bits_to_mask(received, "received word", self.n_s))
        return None if msg is None else _mask_to_bits(msg, self.ell)

    @abstractmethod
    def _encode_mask(self, mask: int) -> int: ...

    @abstractmethod
    def _decode_mask(self, mask: int) -> Optional[int]: ...

    def _decode_is_zero(self, words: np.ndarray) -> np.ndarray:
        """Whether each n_s-bit word of an array (`_mask_dtype` of n_s)
        decodes alone to 0 with no give-up, as a bool array.

        This loop over `_decode_mask` is the reference that the subclasses'
        batched tests are checked against, and their fallback."""
        return np.array([self._decode_mask(word) == 0 for word in words.tolist()], dtype=bool)

    def _count_zero_decodes(self, max_weight: int) -> Tuple[int, ...]:
        """For w <= max_weight, how many weight-w flip patterns decode alone
        to 0 with no give-up, by testing every one with `_decode_is_zero`:
        the readout half of verify_correction_guarantee, which so builds no
        `_zero_words` table, and the reference `_zero_counts`, in closed
        form or from the word table, is tested against."""
        out = []
        for w in range(max_weight + 1):
            blocks = _support_mask_blocks(self.n_s, w)
            out.append(sum(int(np.count_nonzero(self._decode_is_zero(f))) for f in blocks))
        return tuple(out)

    @cached_property
    def _zero_counts(self) -> Optional[Tuple[int, ...]]:
        """Z[w] for w = 0..n_s: how many weight-w flip patterns decode alone
        to 0 with no give-up, as Python ints.  Built on first use by
        counting `_zero_words`' marked words by weight, so a grid that
        reads both decodes each word once; None where that table is.  The
        subclasses count in closed form."""
        table = self._zero_words
        if table is None:
            return None
        counts = np.bincount(_word_weights(self.n_s)[table], minlength=self.n_s + 1)
        return tuple(counts.tolist())

    @cached_property
    def _zero_words(self) -> Optional[np.ndarray]:
        """Whether each n_s-bit word decodes alone to 0 with no give-up, as
        a bool array over all 2^n_s words: `_decode_is_zero` of every word,
        by `_mask_table`.  Built on first use; None where 2^n_s passes
        2^_MAX_TABLE_BITS."""
        return _mask_table(self.n_s, self._decode_is_zero)

    def _decodes_to_zero(self, flips: np.ndarray) -> np.ndarray:
        """The readout half of a trial's verdict: whether each flip mask of
        an array decodes alone to 0 with no give-up, a gather on
        `_zero_words`, or, where that is None, `_decode_is_zero` of the
        array."""
        table = self._zero_words
        if table is not None:
            return table[flips]
        return self._decode_is_zero(flips)

    @property
    def extra_measurements(self) -> int:
        return self.n_s - self.ell

    def __repr__(self) -> str:
        return f"{type(self).__name__}(ell={self.ell}, n_s={self.n_s}, t_s={self.t_s})"


class BchSyndromeMeasurement(SyndromeMeasurementCode):
    """SM code backed by a shortened BCH code of dimension ell."""

    name = "bch"

    def __init__(self, code: BchCode):
        self.code = code
        self.ell = code.dimension
        self.n_s = code.length
        self.t_s = code.t

    def _encode_mask(self, mask: int) -> int:
        return self.code._encode_mask(mask)

    def _decode_mask(self, mask: int) -> Optional[int]:
        out = self.code._decode_mask(mask)
        return None if out is None else out[0]

    def _decode_is_zero(self, words: np.ndarray) -> np.ndarray:
        """Syndrome decoding by table: a word decodes to 0 exactly when it
        is its own syndrome's coset leader (a give-up's -1 is no word).
        The word plus its leader is the codeword it decodes to, and that
        codeword carries message 0 exactly when it is 0, in any layout."""
        table = self._fix_table
        if table is None:
            return super()._decode_is_zero(words)
        syndrome, fix = table
        return fix[syndrome._mul_masks(words)] == words

    @cached_property
    def _zero_counts(self) -> Tuple[int, ...]:
        """Every pattern of weight <= t_s, and none above: the decoder is
        bounded-distance, so it decodes a word to the codeword within t_s
        of it (distance 2t_s + 1 makes that one unique) or gives up, and 0
        is within t_s of exactly those patterns."""
        return tuple(comb(self.n_s, w) if w <= self.t_s else 0 for w in range(self.n_s + 1))

    @cached_property
    def _fix_table(self) -> Optional[Tuple[BinaryMatrix, np.ndarray]]:
        """Coset leaders of weight <= t as a table, built on first use.

        Returns (syndrome, fix).  syndrome is the n_s x R matrix (R =
        n_s - ell) whose product with a word is its syndrome, the
        `_annihilator` of the encode matrix.  fix[s] is the pattern of
        weight <= t with syndrome s, its coset leader, or -1 where there
        is none, in the `_mask_dtype` of n_s.  Distance 2t+1 gives those
        patterns distinct syndromes, so there are at most 2^R of them.
        None, and BM decoding, when 2^R passes 2^_MAX_TABLE_BITS.  Only
        the encode matrix, t_s and n_s are read.
        """
        r = self.n_s - self.ell
        if r > _MAX_TABLE_BITS:
            return None
        syndrome = self.encode_matrix._annihilator
        fix = np.full(1 << r, -1, dtype=_mask_dtype(self.n_s))
        for w in range(self.t_s + 1):
            patterns = _support_masks(self.n_s, w)
            fix[syndrome._mul_masks(patterns)] = patterns
        return syndrome, fix


class RepetitionSyndromeMeasurement(SyndromeMeasurementCode):
    """Each of the ell syndrome bits measured reps times (reps odd).

    Layout is copy-major: the whole ell-bit syndrome repeated whole, so
    bit b of copy c sits at position b + c*ell.  Decoding is an
    independent majority vote per bit; it never reports failure.  reps=1
    is the identity SM code (single unprotected measurement).  An ell or
    reps that is not a positive integer (a bool or a float, or below 1),
    or an even reps, is a ValueError, and numpy integers are kept as
    Python ones, so n_s and t_s are too.
    """

    def __init__(self, ell: int, reps: int):
        ell, reps = _as_int(ell, "ell", 1), _as_int(reps, "reps", 1)
        if reps % 2 == 0:
            raise ValueError(f"reps must be odd, got {reps}")
        self.ell = ell
        self.reps = reps
        self.n_s = ell * reps
        self.t_s = (reps - 1) // 2
        self.name = "identity" if reps == 1 else "repetition"

    def _encode_mask(self, mask: int) -> int:
        word = 0
        for c in range(self.reps):
            word |= mask << (c * self.ell)
        return word

    def _decode_is_zero(self, words: np.ndarray) -> np.ndarray:
        # the bit-sliced majority runs unchanged on a whole array of words
        return self._decode_mask(words) == 0

    def _decode_mask(self, mask: int) -> int:
        # at_least[k] holds the bits set in more than k of the copies so far;
        # a majority is more than reps // 2
        full = (1 << self.ell) - 1
        at_least = [0] * (self.reps // 2 + 1)
        for c in range(self.reps):
            copy = (mask >> (c * self.ell)) & full
            for k in range(len(at_least) - 1, 0, -1):
                at_least[k] |= at_least[k - 1] & copy
            at_least[0] |= copy
        return at_least[-1]

    @cached_property
    def _zero_counts(self) -> Tuple[int, ...]:
        """The offset is 0 exactly when at most reps // 2 copies of each bit
        flip, j of them in C(reps, j) ways: Z[w] is the x^w coefficient of
        low(x)^ell, low(x) = sum_{j <= reps // 2} C(reps, j) x^j."""
        low = [comb(self.reps, j) for j in range(self.reps // 2 + 1)]
        poly = [1]
        for _ in range(self.ell):
            poly = np.convolve(np.array(poly, dtype=object), low).tolist()
        return tuple(poly) + (0,) * (self.n_s + 1 - len(poly))


def _word_weights(n: int) -> np.ndarray:
    """The weight of each n-bit word, over all 2^n words in order, as
    uint8: the weights of the words below 2^i, then those plus 1, for each
    bit i."""
    weights = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        weights = np.concatenate((weights, weights + 1))
    return weights


def _support_mask_blocks(n: int, w: int) -> Iterator[np.ndarray]:
    """Every w-subset of range(n) as a mask, lexicographic, in arrays of the
    `_mask_dtype` of n of at most `_PAULI_BLOCK` masks."""
    one = np.array(1, dtype=_mask_dtype(n))
    for sites in _subset_blocks(n, w, _PAULI_BLOCK):
        yield np.bitwise_or.reduce(one << sites, axis=1)


def _support_masks(n: int, w: int) -> np.ndarray:
    """The masks of `_support_mask_blocks`, in order, in one array."""
    return np.concatenate([np.zeros(0, dtype=_mask_dtype(n)), *_support_mask_blocks(n, w)])


def bch_sm(ell: int, t: int) -> BchSyndromeMeasurement:
    """BCH SM code for ell syndrome bits correcting t measurement errors."""
    _, code = bch_select_m(ell, t)
    return BchSyndromeMeasurement(code)


def repetition_sm(ell: int, reps: int) -> RepetitionSyndromeMeasurement:
    return RepetitionSyndromeMeasurement(ell, reps)


def identity_sm(ell: int) -> RepetitionSyndromeMeasurement:
    return RepetitionSyndromeMeasurement(ell, 1)


class QdsCode:
    """A stabilizer code with its syndrome measurements encoded by an SM code."""

    def __init__(self, base: StabilizerCode, sm: SyndromeMeasurementCode):
        if sm.ell != base.ell:
            raise ValueError(
                f"SM code dimension {sm.ell} != generator count {base.ell}"
            )
        self.base = base
        self.sm = sm
        self.h_q = sm.encode_matrix.transpose().mat_mul(base.check_matrix)
        self.extra_measurements = sm.extra_measurements
        self.row_weights = tuple(PauliOperator._from_mask(base.n, r).weight for r in self.h_q.data)
        # (decoder, plan) of sim.build_grid's last decoder, made by its first grid
        self._grid_plan = None

    def measurement_pauli(self, i: int) -> PauliOperator:
        """Row i of H_Q as the product of generators it measures."""
        return PauliOperator._from_mask(self.base.n, self.h_q.data[i])

    def measure(
        self, data_error: PauliOperator, syndrome_error: Optional[Sequence[int]] = None
    ) -> Bits:
        """The n_s-bit readout for a data error plus readout bit flips."""
        if data_error.n != self.base.n:
            raise ValueError("data error acts on wrong qubit count")
        flips = 0
        if syndrome_error is not None:
            flips = _bits_to_mask(syndrome_error, "syndrome error", self.sm.n_s)
        word = flips ^ _anticommuting(self.h_q.data, self.base.n, data_error.symplectic_mask())
        return _mask_to_bits(word, self.sm.n_s)

    def decode_two_step(self, measured: Sequence[int], quantum_decoder):
        """SM-decode the readout, then look up a correction for the
        recovered syndrome.  Returns (correction, syndrome_bits) or None
        if either step fails."""
        msg = self.sm._decode_mask(_bits_to_mask(measured, "measured word", self.sm.n_s))
        if msg is None:
            return None
        correction = quantum_decoder._decode_mask(msg)
        if correction is None:
            return None
        return correction, _mask_to_bits(msg, self.sm.ell)

    def _count_failures(self, decoder, errors: np.ndarray, flips: np.ndarray) -> int:
        """Failures over a batch of trials given as masks: errors[i] is
        trial i's data error as its symplectic mask x | z << n, flips[i]
        its n_s readout flips, each array of the `_mask_dtype` of its width.
        A trial passes exactly when its flips decode alone to 0 with no
        give-up (`SyndromeMeasurementCode._decodes_to_zero`) and the
        decoder corrects its error (`_corrects`); the module docstring says
        why."""
        passed = self.sm._decodes_to_zero(flips) & self._corrects(decoder, errors)
        return len(errors) - int(np.count_nonzero(passed))

    def _corrects(self, decoder, errors: np.ndarray) -> np.ndarray:
        """The data half of a trial's verdict: whether the decoder's
        correction for each error's syndrome times the error is in the
        stabilizer group, as a bool array.  A `LookupDecoder` answers for
        the whole batch (`LookupDecoder._corrects`); any other decoder is
        called once per error, and passes where it finds a correction and
        the residual, error times correction, has a `_syndrome_and_class`
        product of 0 (that class is 0 exactly on the stabilizer group, where
        the syndrome is 0 too).  A `LookupDecoder` of a code whose
        check matrix is not the base code's is a ValueError: its table
        reads another code's syndromes and classes."""
        if type(decoder) is LookupDecoder:
            code = decoder.code
            if code is not self.base and code.check_matrix != self.base.check_matrix:
                raise ValueError("the decoder's code has a check matrix other than the base code's")
            return decoder._corrects(errors)
        product = self.base._syndrome_and_class._mul_masks(errors)
        found = [decoder._decode_mask(s) for s in (product & ((1 << self.base.ell) - 1)).tolist()]
        # a miss as 0, a valid mask; it fails on `found` alone
        corrections = np.array(
            [0 if c is None else c.symplectic_mask() for c in found], dtype=errors.dtype
        )
        residual = self.base._syndrome_and_class._mul_masks(errors ^ corrections)
        return np.array([c is not None for c in found], dtype=bool) & (residual == 0)

    def _corrected_counts(self, decoder, max_weight: int) -> Tuple[int, ...]:
        """K(w) for w <= max_weight: how many weight-w Paulis the decoder
        corrects, by testing every one with `_corrects`, as Python ints.
        Any decoder of the base code and any n; a `LookupDecoder` with a
        `_corrected` table answers by gathers on it."""
        errors = (_weight_pauli_masks(self.base.n, w) for w in range(max_weight + 1))
        return tuple(int(np.count_nonzero(self._corrects(decoder, e))) for e in errors)

    def __repr__(self) -> str:
        return f"QdsCode(base={self.base!r}, sm={self.sm!r})"


def qds_assemble(base: StabilizerCode, sm: SyndromeMeasurementCode) -> QdsCode:
    return QdsCode(base, sm)


# --- measurement overhead counting -----------------------------------------


@lru_cache(maxsize=None)
def _e_fixed_point(bits: int) -> Tuple[int, int]:
    """(lo, hi) with lo <= e * 2^bits <= hi.  terms[j] = floor(2^bits / j!)
    up to the first zero, and lo is their sum: each floor drops less than
    1, and the exact terms 2^bits / j! from the first zero on, the first
    below 1 and each below the one before over j, sum below 2.  Built once
    per width, a multiple of 64."""
    terms = [1 << bits]
    while terms[-1]:
        terms.append(terms[-1] // len(terms))
    return sum(terms), sum(terms) + len(terms) + 1


@lru_cache(maxsize=None)
def _e_threshold(b: int) -> int:
    """floor(2^(b+1) / e), from the bracket lo <= e * 2^w <= hi of
    `_e_fixed_point`: with top = 2^(b+1+w) it lies between top // hi and
    top // lo.  w starts 65 to 128 bits past b and widens by 64 until the
    two agree, which they do at last because 2^(b+1) / e is irrational.
    Built once per b."""
    bits = 64 * ((b >> 6) + 2)
    while True:
        lo, hi = _e_fixed_point(bits)
        top = 1 << (b + 1 + bits)
        if top // hi == top // lo:
            return top // lo
        bits += 64


def _min_power_of_two_exponent_times_e(d: int) -> int:
    """Smallest z with 2^z >= d * e, computed exactly in integers.

    With b the bit length of d, 2^(b-1) <= d < 2^b and 2 < e < 4 give
    2^b < d * e < 2^(b+2), so z is b + 1 exactly when d * e <= 2^(b+1),
    that is when d <= floor(2^(b+1) / e) (d * e is irrational), and b + 2
    otherwise: one compare with `_e_threshold(b)`.
    """
    if d <= 0:
        raise ValueError("d must be positive")
    b = d.bit_length()
    return b + 1 + (d > _e_threshold(b))


def _distinct_pair_counts(ell: int, t_c: int) -> Tuple[List[int], List[int]]:
    """([m_1, ..., m_tc], [total(0), ..., total(tc)]) of the distinct-pair
    construction.  The stage width m_t is the smallest z with

        2^z >= (C(ell, 2t) - C(ell - 2t, 2t)) * e,

    and total(t) = total(t-1) + 2 + 2*(m_1 + ... + m_(t-1)) + m_t, from
    total(0) = 0, is the extra measurement count for t.  Both depend on
    (ell, t) alone, so the lists for t_c are prefixes of those for any
    larger t_c."""
    widths, totals, widths_sum = [], [0], 0
    for t in range(1, t_c + 1):
        m_t = _min_power_of_two_exponent_times_e(comb(ell, 2 * t) - comb(ell - 2 * t, 2 * t))
        totals.append(totals[-1] + 2 + 2 * widths_sum + m_t)
        widths.append(m_t)
        widths_sum += m_t
    return widths, totals


def fujiwara_extra_measurements(ell: int, t_c: int) -> Tuple[int, List[int]]:
    """Extra measurement count of the distinct-pair construction.

    For correcting up to t_c syndrome bit flips on ell syndrome bits, the
    construction takes 2*t_c full-weight reference measurements plus, for
    each i = 1..t_c, (2*t_c - 2*i + 1) repetitions of an m_i-bit block,
    m_i and the total from `_distinct_pair_counts`.

    Returns (total_extra, [m_1, ..., m_tc]).  Requires 2*t_c <= ell;
    t_c = 0 costs nothing.
    """
    ell = _as_int(ell, "ell", 1)
    t_c = _as_int(t_c, "t_c", 0, ell // 2)
    widths, totals = _distinct_pair_counts(ell, t_c)
    return totals[t_c], widths


class OverheadEntry(NamedTuple):
    """Extra measurements needed by each construction at one (ell, t)."""

    ell: int
    t: int
    bch: int
    fujiwara: Optional[int]  # None where 2t > ell
    repetition: int


def overhead_table(ells: Iterable[int], ts: Iterable[int]) -> List[OverheadEntry]:
    """Extra-measurement comparison over a grid of syndrome lengths and t,
    each argument read once.

    bch: parity count R of the bound-rule-selected shortened BCH code, one
    walk of m across ts per ell; repetition: (2t+1)-fold repetition costs
    2*t*ell extra; fujiwara: the distinct-pair count, None where the
    formula does not apply.
    """
    ts = [t if type(t) is int else _as_int(t, "t") for t in ts]
    t_top = max(ts, default=0)
    out = []
    for ell in ells:
        ell = _as_int(ell, "ell", 1)
        # the totals of one ell up to the largest t asked, capped at
        # ell // 2 where the distinct-pair count stops, serve every row
        _, totals = _distinct_pair_counts(ell, min(t_top, ell // 2))
        for t, (_, r) in zip(ts, _select_parameters(ell, ts)):
            # what OverheadEntry's own __new__ does, without its Python-level call
            row = (ell, t, r, totals[t] if 2 * t <= ell else None, 2 * t * ell)
            out.append(tuple.__new__(OverheadEntry, row))
    return out


# --- exhaustive verification -----------------------------------------------


def _exact_cells(n: int, n_s: int, kept: Sequence[int], zero: Sequence[int]) -> Iterator[tuple]:
    """((w_q, w_s), (cases, failures)) of each cell w_q < len(kept), w_s <
    len(zero), in row-major order, from K = kept and Z = zero: a case
    passes exactly when the decoder corrects its error and its flips
    decode alone to 0 (the module docstring says why), and errors and
    flips are independent, so of the |E_wq| C(n_s, w_s) cases
    K(w_q) Z(w_s) pass."""
    for w_q, k in enumerate(kept):
        errors = comb(n, w_q) * 3**w_q
        for w_s, z in enumerate(zero):
            cases = errors * comb(n_s, w_s)
            yield (w_q, w_s), (cases, cases - k * z)


@dataclass(frozen=True)
class VerifyCell:
    """Exhaustive two-step check over one (data weight, flip weight) cell."""

    w_q: int
    w_s: int
    cases: int
    failures: int


def verify_correction_guarantee(
    qds: QdsCode, quantum_decoder, budget: int = 10**6
) -> List[VerifyCell]:
    """Prove the guarantee region: every data error of weight <= t_data
    combined with every readout flip pattern of weight <= t_s must decode
    to a correction with trivial residual.

    A case passes exactly when its flips decode alone to 0 and the decoder
    corrects its error (the module docstring says why), so each half is
    enumerated once: K is `QdsCode._corrected_counts` up to t_data, Z the
    SM code's `_count_zero_decodes` up to t_s, and the cells are
    `_exact_cells` of the two.  Raises
    BudgetExceededError (with the required count of cases) instead of
    verifying a region of more cases than budget; a budget that is not a
    nonnegative integer is a plain ValueError.
    """
    budget = _as_int(budget, "budget", 0)
    n = qds.base.n
    n_s = qds.sm.n_s
    # the data-error radius the decoder is on the hook for
    t_data = quantum_decoder.max_weight
    t_s = qds.sm.t_s
    total = sum(comb(n, w) * 3**w for w in range(t_data + 1)) * sum(
        comb(n_s, w) for w in range(t_s + 1)
    )
    if total > budget:
        raise BudgetExceededError(
            f"exhaustive verification needs {total} cases, budget is {budget}",
            required=total,
            budget=budget,
        )
    kept = qds._corrected_counts(quantum_decoder, t_data)
    zero = qds.sm._count_zero_decodes(t_s)
    return [VerifyCell(*cell, *count) for cell, count in _exact_cells(n, n_s, kept, zero)]
