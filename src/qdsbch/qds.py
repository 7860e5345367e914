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

Every trial, sampled or enumerated, goes through one batched kernel,
QdsCode._count_failures, as whole-batch numpy operations on tables that
are built on the first batch (never by QdsCode() or decode).  A batch is
an array of error masks x | z << n and one of n_s-bit flip masks, the
masks the one-trial path uses; every GF(2) product on it is
BinaryMatrix._mul_masks.  The kernel never forms the readout: the SM code
is linear and its decoders commute with adding a codeword (the contract
in SyndromeMeasurementCode), so decoding encode(s) ^ f gives s ^ D(f),
and gives up exactly when decoding f alone does.

- SM decode of the flips alone, giving each trial's offset D(f): a BCH
  code looks the flips' syndrome (one product) up in a table of the coset
  leaders of weight <= t; a repetition code takes the bit-sliced majority
  of _decode_mask over the whole array.  A BCH code whose table would
  pass 2^20 entries is decoded word by word with Berlekamp-Massey.
- One product of the errors by StabilizerCode._syndrome_and_class gives
  each error's syndrome s (the decoded syndrome is s ^ D(f)) and class,
  the error times the annihilator of H: an error times a correction is
  in the stabilizer group exactly when the two have the same class.
- Lookup: a LookupDecoder's correction classes as an array over all
  2^ell syndromes.  Any other decoder is called once per trial whose SM
  decode succeeded, and its corrections' classes come from the same
  product.

measure, decode_two_step and StabilizerCode.classify are the one-trial
path the tests check the kernel against.

For overhead comparisons, fujiwara_extra_measurements counts the extra
rows of the earlier distinct-pair-measurement construction, and
overhead_table tabulates all three against each other.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from math import comb, factorial
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .bch import BchCode, bch_select_m, bch_select_parameters
from .linalg import (
    _MAX_TABLE_BITS,
    BinaryMatrix,
    _bits_to_mask,
    _mask_dtype,
    _mask_to_bits,
)
from .stabilizer import (
    BudgetExceededError,
    LookupDecoder,
    PauliOperator,
    StabilizerCode,
    _weight_pauli_masks,
)

Bits = Tuple[int, ...]


class SyndromeMeasurementCode(ABC):
    """Binary [n_s, ell] code used to protect syndrome readout.

    encode maps an ell-bit syndrome to the n_s-bit clean readout; decode
    maps a noisy readout back to an ell-bit syndrome estimate (None if the
    decoder gives up).  t_s is the guaranteed correction radius.

    The trial kernel (QdsCode._count_failures) decodes the flips alone, so
    every subclass must keep this contract for all s and f:
    _decode_mask(encode(s) ^ f) == s ^ _decode_mask(f), where either both
    calls give up or neither does, and the same for _decode_masks.  A
    syndrome decoder of a linear code keeps it (a codeword has a zero
    syndrome), and so does a bitwise majority over copies.
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

    def _decode_masks(self, words: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """`_decode_mask` over an array of n_s-bit words (`_mask_dtype` of
        n_s).  Returns the messages as an array of masks and a bool array
        that is False where the decoder gave up (the message there is
        meaningless).

        This loop over `_decode_mask` is the reference that the subclasses'
        table decoders are tested against, and their fallback."""
        out = [self._decode_mask(word) for word in words.tolist()]
        ok = np.array([msg is not None for msg in out], dtype=bool)
        msgs = np.array([msg or 0 for msg in out], dtype=_mask_dtype(self.ell))
        return msgs, ok

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

    def _decode_masks(self, words: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Syndrome decoding by table: the code is systematic, so the
        message is the word's first ell bits with the table's fix applied."""
        table = self._fix_table
        if table is None:
            return super()._decode_masks(words)
        syndrome, fix = table
        fixes = fix[syndrome._mul_masks(words)]
        return (words & ((1 << self.ell) - 1)) ^ fixes, fixes >= 0

    @cached_property
    def _fix_table(self) -> Optional[Tuple[BinaryMatrix, np.ndarray]]:
        """Coset leaders of weight <= t as a table, built on first use.

        Returns (syndrome, fix).  syndrome is the n_s x R matrix (R =
        n_s - ell) whose product with a word is its syndrome: row j < ell
        is the parity bits of message bit j, row ell + i is bit i.  fix[s]
        is the first ell bits of the pattern of weight <= t with syndrome
        s, or -1 where there is none.  Distance 2t+1 gives those patterns
        distinct syndromes, so there are at most 2^R of them.  None, and BM
        decoding, when 2^R passes 2^_MAX_TABLE_BITS or a word does not fit
        an int64.
        """
        r = self.n_s - self.ell
        if r > _MAX_TABLE_BITS or self.n_s > 62:
            return None
        parities = [row >> self.ell for row in self.encode_matrix.data]
        syndrome = BinaryMatrix(self.n_s, r, parities + [1 << i for i in range(r)])
        fix = np.full(1 << r, -1, dtype=np.int64)
        for w in range(self.t_s + 1):
            patterns = _support_masks(self.n_s, w)
            fix[syndrome._mul_masks(patterns)] = patterns & ((1 << self.ell) - 1)
        return syndrome, fix


class RepetitionSyndromeMeasurement(SyndromeMeasurementCode):
    """Each of the ell syndrome bits measured reps times (reps odd).

    Layout is copy-major: the whole ell-bit syndrome repeated whole, so
    bit b of copy c sits at position b + c*ell.  Decoding is an
    independent majority vote per bit; it never reports failure.  reps=1
    is the identity SM code (single unprotected measurement).
    """

    def __init__(self, ell: int, reps: int):
        if ell < 1:
            raise ValueError("ell must be positive")
        if reps < 1 or reps % 2 == 0:
            raise ValueError("reps must be odd and positive")
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

    def _decode_masks(self, words: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        # the bit-sliced majority runs unchanged on a whole array of words
        msgs = self._decode_mask(words).astype(_mask_dtype(self.ell))
        return msgs, np.ones(len(words), dtype=bool)

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


def _support_masks(n: int, w: int) -> np.ndarray:
    """Every w-subset of range(n) as a mask, lexicographic, in an array of
    the `_mask_dtype` of n."""
    count = comb(n, w)
    flat = chain.from_iterable(combinations(range(n), w))
    sites = np.fromiter(flat, dtype=np.intp, count=count * w).reshape(count, w)
    return np.bitwise_or.reduce(np.array(1, dtype=_mask_dtype(n)) << sites, axis=1)


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
        n = base.n
        low = (1 << n) - 1
        self._rows = tuple(
            (self.h_q.row_mask(i) & low, self.h_q.row_mask(i) >> n)
            for i in range(self.h_q.rows)
        )
        self.row_weights = tuple((rx | rz).bit_count() for rx, rz in self._rows)

    def measurement_pauli(self, i: int) -> PauliOperator:
        """Row i of H_Q as the product of generators it measures."""
        rx, rz = self._rows[i]
        return PauliOperator(self.base.n, rx, rz)

    def measure(
        self, data_error: PauliOperator, syndrome_error: Optional[Sequence[int]] = None
    ) -> Bits:
        """The n_s-bit readout for a data error plus readout bit flips."""
        if data_error.n != self.base.n:
            raise ValueError("data error acts on wrong qubit count")
        flips = 0
        if syndrome_error is not None:
            flips = _bits_to_mask(syndrome_error, "syndrome error", self.sm.n_s)
        word = self._measure_mask(data_error.x, data_error.z, flips)
        return _mask_to_bits(word, self.sm.n_s)

    def _measure_mask(self, ex: int, ez: int, flips: int) -> int:
        word = flips
        for i, (rx, rz) in enumerate(self._rows):
            if ((rx & ez).bit_count() + (rz & ex).bit_count()) & 1:
                word ^= 1 << i
        return word

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
        A trial fails when the SM decoder gives up, the syndrome is missing
        from the lookup table, or the residual is not in the stabilizer
        group (the row space of H).

        The flips are SM-decoded alone, to offsets D(f); one product gives
        each error's syndrome s and class, the decoded syndrome is s ^ D(f),
        and the residual is trivial exactly when the correction's class
        equals the error's.  The module docstring lists the tables each
        step uses and their fallbacks."""
        ell = self.sm.ell
        offsets, ok = self.sm._decode_masks(flips)
        product = self.base._syndrome_and_class._mul_masks(errors)
        msgs = (product & ((1 << ell) - 1)).astype(_mask_dtype(ell)) ^ offsets
        classes = product >> ell
        table = decoder._correction_classes if type(decoder) is LookupDecoder else None
        if table is not None:
            # a miss is -1, which no class equals
            fixed = table[np.where(ok, msgs, 0)]
        else:
            # one call per trial the SM decoder did not give up on
            found = [
                decoder._decode_mask(m) if good else None
                for m, good in zip(msgs.tolist(), ok.tolist())
            ]
            ok = np.array([c is not None for c in found], dtype=bool)
            # a miss as 0: the bytes of -1 would index past a short last table
            corrections = np.array(
                [0 if c is None else c.symplectic_mask() for c in found], dtype=errors.dtype
            )
            fixed = self.base._syndrome_and_class._mul_masks(corrections) >> ell
        return len(errors) - int(np.count_nonzero(ok & (fixed == classes)))

    def __repr__(self) -> str:
        return f"QdsCode(base={self.base!r}, sm={self.sm!r})"


def qds_assemble(base: StabilizerCode, sm: SyndromeMeasurementCode) -> QdsCode:
    return QdsCode(base, sm)


# --- measurement overhead counting -----------------------------------------


def _min_power_of_two_exponent_times_e(d: int) -> int:
    """Smallest z with 2^z >= d * e, computed exactly in integers.

    Brackets e between p/q = sum_{j<K} 1/j! with q = (K-1)! and
    p/q + 2/(Kq) (the tail after j = K-1 is below 2/K!).  For a bound a/b,
    z is the bit length of ceil(d*a/b) - 1; K widens until both bounds give
    the same z.
    """
    if d <= 0:
        raise ValueError("d must be positive")
    terms = 30
    while True:
        q = factorial(terms - 1)
        p = sum(q // factorial(j) for j in range(terms))
        z_low = (-(-d * p // q) - 1).bit_length()
        z_high = (-(-d * (terms * p + 2) // (terms * q)) - 1).bit_length()
        if z_low == z_high:
            return z_low
        terms += 20


def fujiwara_extra_measurements(ell: int, t_c: int) -> Tuple[int, List[int]]:
    """Extra measurement count of the distinct-pair construction.

    For correcting up to t_c syndrome bit flips on ell syndrome bits, the
    construction takes 2*t_c full-weight reference measurements plus, for
    each i = 1..t_c, (2*t_c - 2*i + 1) repetitions of an m_i-bit block
    where m_i is the smallest z with

        2^z >= (C(ell, 2i) - C(ell - 2i, 2i)) * e.

    Returns (total_extra, [m_1, ..., m_tc]).  Requires 2*t_c <= ell;
    t_c = 0 costs nothing.
    """
    if ell < 1:
        raise ValueError("ell must be positive")
    if t_c < 0:
        raise ValueError("t_c must be nonnegative")
    if 2 * t_c > ell:
        raise ValueError(f"need 2*t_c <= ell, got t_c={t_c}, ell={ell}")
    m_list: List[int] = []
    total = 2 * t_c
    for i in range(1, t_c + 1):
        d = comb(ell, 2 * i) - comb(ell - 2 * i, 2 * i)
        m_i = _min_power_of_two_exponent_times_e(d)
        m_list.append(m_i)
        total += (2 * t_c - 2 * i + 1) * m_i
    return total, m_list


@dataclass(frozen=True)
class OverheadEntry:
    """Extra measurements needed by each construction at one (ell, t)."""

    ell: int
    t: int
    bch: int
    fujiwara: Optional[int]  # None where 2t > ell
    repetition: int


def overhead_table(ells: Sequence[int], ts: Sequence[int]) -> List[OverheadEntry]:
    """Extra-measurement comparison over a grid of syndrome lengths and t.

    bch: parity count R of the bound-rule-selected shortened BCH code;
    repetition: (2t+1)-fold repetition costs 2*t*ell extra; fujiwara: the
    distinct-pair count, None where the formula does not apply.
    """
    out = []
    for ell in ells:
        for t in ts:
            _, r = bch_select_parameters(ell, t)
            if 2 * t <= ell:
                fuji, _ = fujiwara_extra_measurements(ell, t)
            else:
                fuji = None
            out.append(
                OverheadEntry(ell=ell, t=t, bch=r, fujiwara=fuji, repetition=2 * t * ell)
            )
    return out


# --- exhaustive verification -----------------------------------------------


@dataclass(frozen=True)
class VerifyCell:
    """Exhaustive two-step check over one (data weight, flip weight) cell."""

    w_q: int
    w_s: int
    cases: int
    failures: int


_VERIFY_BATCH = 1024


def verify_correction_guarantee(
    qds: QdsCode, quantum_decoder, budget: int = 10**6
) -> List[VerifyCell]:
    """Prove the guarantee region: every data error of weight <= t_data
    combined with every readout flip pattern of weight <= t_s must decode
    to a correction with trivial residual.

    Runs all cases exhaustively; raises BudgetExceededError (with the
    required count) instead of starting a run larger than budget.
    """
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
    # all flip patterns of each weight, lexicographic by support
    flip_sets = [_support_masks(n_s, w_s) for w_s in range(t_s + 1)]
    cells = []
    for w_q in range(t_data + 1):
        errors = _weight_pauli_masks(n, w_q)
        for w_s, flips in enumerate(flip_sets):
            # case k is error k // F with flips k % F; bounded batches keep
            # the kernel's temporaries small
            cases = len(errors) * len(flips)
            failures = 0
            for lo in range(0, cases, _VERIFY_BATCH):
                e, f = np.divmod(np.arange(lo, min(lo + _VERIFY_BATCH, cases)), len(flips))
                failures += qds._count_failures(quantum_decoder, errors[e], flips[f])
            cells.append(VerifyCell(w_q=w_q, w_s=w_s, cases=cases, failures=failures))
    return cells
