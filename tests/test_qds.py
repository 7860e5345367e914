"""QDS assembly, noisy measurement, two-step decoding, overhead counting."""

import decimal
import itertools
import math
import random
import re
import tracemalloc
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdsbch import qds as qds_module
from qdsbch import sim
from qdsbch.bch import bch_construct, bch_select_m, bch_select_parameters, parity_bit_count
from qdsbch.linalg import _MAX_TABLE_BITS, BinaryMatrix, _bits_to_mask, _mask_dtype
from qdsbch.qds import (
    BchSyndromeMeasurement,
    OverheadEntry,
    QdsCode,
    RepetitionSyndromeMeasurement,
    SyndromeMeasurementCode,
    _e_fixed_point,
    _e_threshold,
    _min_power_of_two_exponent_times_e,
    _support_masks,
    bch_sm,
    fujiwara_extra_measurements,
    identity_sm,
    overhead_table,
    qds_assemble,
    repetition_sm,
    verify_correction_guarantee,
)
from qdsbch.stabilizer import (
    BudgetExceededError,
    PauliOperator,
    StabilizerCode,
    css_from_parity,
    iter_weight_paulis,
    _weight_pauli_masks,
    lookup_decoder_build,
    steane_code,
)


# --- syndrome measurement codes ----------------------------------------------


def test_bch_sm_parameters():
    sm = bch_sm(6, 3)
    assert isinstance(sm, BchSyndromeMeasurement)
    assert (sm.ell, sm.n_s, sm.t_s) == (6, 21, 3)
    assert sm.extra_measurements == 15
    assert sm.name == "bch"
    g = sm.encode_matrix
    assert (g.rows, g.cols) == (6, 21)


def test_bch_sm_encode_decode_roundtrip():
    sm = bch_sm(6, 3)
    rng = random.Random(79)
    for _ in range(100):
        syn = tuple(rng.randrange(2) for _ in range(6))
        word = list(sm.encode(syn))
        assert tuple(word[:6]) == syn
        for pos in rng.sample(range(21), rng.randrange(4)):
            word[pos] ^= 1
        assert sm.decode(word) == syn


@pytest.mark.parametrize("ell, reps", [(3, 1), (3, 3), (2, 5), (1, 7), (4, 3)])
def test_repetition_sm_majority_exhaustive(ell, reps):
    sm = repetition_sm(ell, reps)
    n_s = ell * reps
    assert (sm.ell, sm.n_s, sm.t_s) == (ell, n_s, reps // 2)
    assert sm.extra_measurements == n_s - ell
    for mask in range(1 << n_s):
        word = [(mask >> i) & 1 for i in range(n_s)]
        got = sm.decode(word)
        assert got is not None
        # copy-major layout: copies of bit b live at b, b+ell, b+2*ell, ...
        want = tuple(
            1 if sum(word[b + c * ell] for c in range(reps)) > reps // 2 else 0
            for b in range(ell)
        )
        assert got == want
    # the batched majority's zero test against the per-word decode
    masks = np.arange(1 << n_s)
    want = [sm._decode_mask(mask) == 0 for mask in masks.tolist()]
    assert sm._decode_is_zero(masks).tolist() == want and any(want)


# every (m, t) with m = 3..7 whose syndrome table fits (R <= 20), so the
# table path runs, on int64 words and, past 62 bits (m = 6 unshortened and
# m = 7 shortened by up to 64), on object words too
_TABULATED = [
    (m, t)
    for m in range(3, 8)
    for t in range(1, ((1 << m) - 2) // 2 + 1)
    if parity_bit_count(m, t) <= _MAX_TABLE_BITS
]


@st.composite
def _tabulated_bch_sms(draw):
    m, t = draw(st.sampled_from(_TABULATED))
    code = bch_construct(m, t)
    shorten = draw(st.integers(0, code.k - 1))
    return BchSyndromeMeasurement(code.shortened(shorten))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_tabulated_bch_sms(), st.data())
def test_bch_table_decode_matches_berlekamp_massey(sm, data):
    code = sm.code
    assert sm._fix_table is not None
    words = []
    for w in range(code.t + 4):  # inside the radius, at it and past it
        for _ in range(5):
            word = code._encode_mask(data.draw(st.integers(0, (1 << sm.ell) - 1)))
            for p in data.draw(st.sets(st.integers(0, sm.n_s - 1), min_size=w, max_size=w)):
                word ^= 1 << p
            words.append(word)
    words += data.draw(st.lists(st.integers(0, (1 << sm.n_s) - 1), min_size=20, max_size=20))
    want = [code._decode_mask(word) for word in words]
    # the table's decode: the word plus its syndrome's coset leader is the
    # codeword, whose first ell bits are the message (bch.py puts it
    # first), and a give-up where the syndrome has no leader
    syndrome, fix = sm._fix_table
    words = np.array(words, dtype=_mask_dtype(sm.n_s))
    fixes = fix[syndrome._mul_masks(words)]
    found = fixes >= 0
    msgs = (words ^ fixes) & ((1 << sm.ell) - 1)
    assert found.tolist() == [out is not None for out in want]
    assert msgs[found].tolist() == [out[0] for out in want if out is not None]
    # and its zero test: the words of each decoded message, less that
    # message's codeword, decode to 0 exactly where BM decodes them at all
    decoded = np.where(found, msgs, 0)
    codewords = np.array([code._encode_mask(msg) for msg in decoded.tolist()], dtype=words.dtype)
    assert sm._decode_is_zero(words ^ codewords).tolist() == [out is not None for out in want]


def test_a_readout_past_62_bits_is_decoded_by_its_table():
    """bch_sm(60, 1) has 67-bit object words but R = 7, so its coset
    leaders are tabled, and the table's zero test is BM's word for word on
    every pattern of weight <= 2, alone and plus a codeword."""
    sm = bch_sm(60, 1)
    assert (sm.n_s, sm.n_s - sm.ell) == (67, 7)
    assert sm._fix_table is not None and sm._fix_table[1].dtype == object
    rng = random.Random(67)
    flips = np.concatenate([_support_masks(67, w) for w in range(3)])
    codewords = np.array([sm._encode_mask(rng.getrandbits(60)) for _ in flips], dtype=object)
    for words in (flips, flips ^ codewords):
        got = sm._decode_is_zero(words)
        assert got.tolist() == [sm._decode_mask(word) == 0 for word in words.tolist()]
    assert int(np.count_nonzero(sm._decode_is_zero(flips))) == 1 + 67
    assert sm._count_zero_decodes(2) == (1, 67, 0)


def _bch_sms_up_to_39():
    """Every bch_sm(ell, t) with ell <= 39 and t <= 7."""
    return [bch_sm(ell, t) for ell in range(1, 40) for t in range(1, 8)]


def test_bch_fix_table_holds_every_coset_leader_of_weight_up_to_t():
    """On every tabled bch_sm(ell <= 39, t <= 7): the table holds
    sum_{w <= t} C(n_s, w) leaders, each at its own syndrome, and their
    weight counts are the closed-form Z of `_zero_counts`."""
    tabled = 0
    for sm in _bch_sms_up_to_39():
        if sm.n_s - sm.ell > _MAX_TABLE_BITS:
            assert sm._fix_table is None
            continue
        syndrome, fix = sm._fix_table
        (at,) = np.nonzero(fix >= 0)
        leaders = fix[at]
        t = sm.t_s
        assert len(leaders) == sum(comb(sm.n_s, w) for w in range(t + 1))
        assert syndrome._mul_masks(leaders).tolist() == at.tolist()
        weights = np.bincount([x.bit_count() for x in leaders.tolist()], minlength=t + 1)
        assert tuple(weights.tolist()) == sm._zero_counts[: t + 1]
        tabled += 1
    assert tabled == 134


def _systematic_syndrome_matrix(sm):
    """The parity-plus-identity syndrome matrix of a systematic code: row
    j < ell is the parity bits of message bit j, row ell + i is bit i."""
    r = sm.n_s - sm.ell
    parities = [row >> sm.ell for row in sm.encode_matrix.data]
    return BinaryMatrix(sm.n_s, r, parities + [1 << i for i in range(r)])


def test_bch_syndrome_matrix_is_the_encode_annihilator():
    """The table decode's syndrome matrix, the encode matrix's annihilator,
    against the parity-plus-identity matrix on every bch_sm(ell, t) with
    ell <= 39 and t <= 7; the tabulated ones (R <= 20) through
    `_fix_table`."""
    tabulated = 0
    for sm in _bch_sms_up_to_39():
        want = _systematic_syndrome_matrix(sm)
        got = sm.encode_matrix._annihilator
        assert (got.rows, got.cols, got.data) == (want.rows, want.cols, want.data)
        if sm.n_s - sm.ell <= _MAX_TABLE_BITS:
            assert sm._fix_table[0].data == want.data
            tabulated += 1
    assert tabulated == 134


# the SM decode paths the trial kernel's split runs on: BCH by table (R <=
# 20), BCH by Berlekamp-Massey (R > 20) on int64 words (bch_sm(6, 6), n_s =
# 39) and on 69-bit object words (bch_sm(6, 10)), and majority up to the
# 66-bit readout
_SPLIT_SMS = [
    bch_sm(6, 3),
    bch_sm(4, 2),
    bch_sm(6, 6),
    bch_sm(6, 10),
    identity_sm(6),
    repetition_sm(6, 3),
    repetition_sm(6, 11),
]


@pytest.mark.parametrize(
    "sm",
    _SPLIT_SMS,
    ids=["bch-t3", "bch-t2", "bch-t6-bm", "bch-t10-69bits", "identity", "rep3", "rep11"],
)
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_sm_decode_commutes_with_adding_a_codeword(sm, data):
    """The contract the trial verdict relies on: decoding a codeword plus
    flips f gives the codeword's message XOR the decode of f alone, and
    gives up exactly when decoding f alone does; and the batched zero test
    is the word-by-word decode's, on the flips, the words and the words
    whose message is the flips' offset."""
    flip_sets = [
        data.draw(st.sets(st.integers(0, sm.n_s - 1), min_size=w, max_size=w))
        for w in range(min(sm.n_s, sm.t_s + 4))  # inside the radius, at it and past it
        for _ in range(3)
    ]
    flips = [sum(1 << p for p in positions) for positions in flip_sets]
    flips += data.draw(st.lists(st.integers(0, (1 << sm.n_s) - 1), min_size=5, max_size=5))
    msgs = data.draw(
        st.lists(st.integers(0, (1 << sm.ell) - 1), min_size=len(flips), max_size=len(flips))
    )
    words = [sm._encode_mask(m) ^ f for m, f in zip(msgs, flips)]
    offsets = [sm._decode_mask(f) for f in flips]
    for m, alone, word in zip(msgs, offsets, words):
        got = sm._decode_mask(word)
        assert (got is None) == (alone is None)
        if alone is not None:
            assert got == m ^ alone
    ok = [alone is not None for alone in offsets]
    assert all(ok[: 3 * (sm.t_s + 1)])  # up to t_s flips always decode
    assert all(ok) == (sm.name != "bch")  # and BCH gives up past them
    cancelled = [sm._encode_mask(a) ^ f for a, f in zip(offsets, flips) if a is not None]
    for batch in (flips, words, cancelled):
        got = sm._decode_is_zero(np.array(batch, dtype=_mask_dtype(sm.n_s)))
        assert got.tolist() == [sm._decode_mask(word) == 0 for word in batch]
    assert all(sm._decode_mask(word) == 0 for word in cancelled)


def test_repetition_sm_encode_layout():
    sm = repetition_sm(3, 3)
    assert sm.encode((1, 0, 1)) == (1, 0, 1, 1, 0, 1, 1, 0, 1)


def test_identity_sm_is_reps_one():
    sm = identity_sm(6)
    assert isinstance(sm, RepetitionSyndromeMeasurement)
    assert (sm.ell, sm.n_s, sm.t_s) == (6, 6, 0)
    assert sm.extra_measurements == 0
    assert sm.name == "identity"
    syn = (1, 0, 1, 1, 0, 0)
    assert sm.encode(syn) == syn
    assert sm.decode(syn) == syn


def test_repetition_sm_rejects_even_reps():
    with pytest.raises(ValueError):
        repetition_sm(6, 2)
    with pytest.raises(ValueError):
        repetition_sm(6, 0)


@pytest.mark.parametrize(
    "ell, reps, bad",
    [
        (6, 3.0, 3.0),
        (6.0, 3, 6.0),
        (6, True, True),
        (np.bool_(True), 3, np.bool_(True)),
    ],
    ids=["reps-float", "ell-float", "reps-bool", "ell-numpy-bool"],
)
def test_repetition_sm_refuses_what_is_not_an_integer(ell, reps, bad):
    """A float reps was taken, with n_s = 18.0, until `qds_assemble` raised
    a TypeError."""
    which = "reps" if reps is bad else "ell"
    message = f"^{which} must be an integer, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=message):
        RepetitionSyndromeMeasurement(ell, reps)


def test_repetition_sm_keeps_numpy_integers_as_python_ints():
    """n_s and t_s reach a grid's meta, which must stay JSON."""
    for sm in (repetition_sm(np.int64(6), np.int64(3)), identity_sm(np.int64(6))):
        assert all(type(v) is int for v in (sm.ell, sm.reps, sm.n_s, sm.t_s))
    assert repetition_sm(np.int64(6), np.int64(3)).n_s == 18


def test_encode_validates_length():
    sm = bch_sm(6, 3)
    with pytest.raises(ValueError):
        sm.encode((1, 0))
    with pytest.raises(ValueError):
        sm.decode([0] * 10)


def _codec_callers():
    """Each public call that packs a fixed-width 0/1 tuple, with its width."""
    code = bch_construct(5, 3).shortened(10)
    base = steane_code()
    q = qds_assemble(base, bch_sm(6, 3))
    dec = lookup_decoder_build(base, max_weight=1)
    return {
        "BchCode.encode": (code.encode, code.dimension),
        "BchCode.decode": (code.decode, code.length),
        "SyndromeMeasurementCode.encode": (q.sm.encode, q.sm.ell),
        "SyndromeMeasurementCode.decode": (q.sm.decode, q.sm.n_s),
        "QdsCode.measure": (lambda bits: q.measure(PauliOperator.identity(7), bits), q.sm.n_s),
        "QdsCode.decode_two_step": (lambda bits: q.decode_two_step(bits, dec), q.sm.n_s),
        "LookupDecoder.decode": (dec.decode, base.ell),
        "BinaryMatrix.in_row_space": (base.check_matrix.in_row_space, 2 * base.n),
        "BinaryMatrix.from_rows": (lambda bits: BinaryMatrix.from_rows([[0] * 5, bits]), 5),
    }


@pytest.mark.parametrize("caller", sorted(_codec_callers()))
@pytest.mark.parametrize("delta", [-1, 1], ids=["short", "long"])
def test_codec_callers_reject_wrong_length(caller, delta):
    call, width = _codec_callers()[caller]
    call((0,) * width)
    with pytest.raises(ValueError, match=f"must have {width} entries, got {width + delta}"):
        call((0,) * (width + delta))


# --- QDS assembly -------------------------------------------------------------


def test_assembly_shapes():
    base = steane_code()
    q = qds_assemble(base, bch_sm(6, 3))
    assert isinstance(q, QdsCode)
    assert (q.h_q.rows, q.h_q.cols) == (21, 14)
    assert q.extra_measurements == 15
    assert q.sm.extra_measurements == 15


def test_identity_assembly_reproduces_the_base_matrix():
    base = steane_code()
    q = qds_assemble(base, identity_sm(6))
    assert q.h_q == base.check_matrix


def test_measurement_rows_are_stabilizers():
    """Each measured operator is a product of base-code generators."""
    base = steane_code()
    h_s = base.check_matrix
    for sm in (bch_sm(6, 3), repetition_sm(6, 3), identity_sm(6)):
        q = qds_assemble(base, sm)
        for i in range(q.sm.n_s):
            op = q.measurement_pauli(i)
            row = [(op.symplectic_mask() >> j) & 1 for j in range(2 * base.n)]
            assert h_s.in_row_space(row)
            for g in base.generators:
                assert op.commutes_with(g)


def test_clean_measurement_is_the_encoded_syndrome():
    base = steane_code()
    for sm in (bch_sm(6, 3), identity_sm(6), repetition_sm(6, 3)):
        q = qds_assemble(base, sm)
        zero = (0,) * sm.n_s
        for w in (0, 1):
            for e in iter_weight_paulis(7, w):
                assert q.measure(e, zero) == sm.encode(base.syndrome(e))


def test_measurement_is_linear_in_flips():
    base = steane_code()
    q = qds_assemble(base, bch_sm(6, 3))
    rng = random.Random(83)
    letters = "IXYZ"
    for _ in range(50):
        e = PauliOperator.from_string("".join(rng.choice(letters) for _ in range(7)))
        flips = tuple(rng.randrange(2) for _ in range(21))
        clean = q.measure(e, (0,) * 21)
        noisy = q.measure(e, flips)
        assert noisy == tuple(c ^ f for c, f in zip(clean, flips))


def test_two_step_decode_recovers_small_errors():
    base = steane_code()
    q = qds_assemble(base, bch_sm(6, 3))
    dec = lookup_decoder_build(base, max_weight=1)
    rng = random.Random(89)
    for e in iter_weight_paulis(7, 1):
        flips = [0] * 21
        for pos in rng.sample(range(21), 3):
            flips[pos] = 1
        measured = q.measure(e, tuple(flips))
        out = q.decode_two_step(measured, dec)
        assert out is not None
        correction, syn = out
        assert syn == base.syndrome(e)
        assert base.classify(correction * e) == "trivial"


def test_two_step_decode_propagates_sm_failure():
    base = steane_code()
    q = qds_assemble(base, bch_sm(6, 3))
    dec = lookup_decoder_build(base, max_weight=1)
    sm = q.sm
    # hunt for a received word the inner decoder rejects
    rng = random.Random(97)
    found = None
    for _ in range(200):
        word = [rng.randrange(2) for _ in range(21)]
        if sm.decode(word) is None:
            found = tuple(word)
            break
    assert found is not None, "no undecodable word in 200 random draws"
    assert q.decode_two_step(found, dec) is None


# --- batched trial kernel -----------------------------------------------------


def _oracle_fails(q, dec, e, flips):
    """One trial through the public chain: measure, decode twice, classify."""
    out = q.decode_two_step(q.measure(e, flips), dec)
    return out is None or q.base.classify(out[0] * e) != "trivial"


class _CountingDecoder:
    """Forwards `_decode_mask` to a decoder and counts the calls; the kernel
    has no table for it, so it looks up trial by trial."""

    def __init__(self, inner):
        self.inner = inner
        self.max_weight = inner.max_weight
        self.calls = 0

    def _decode_mask(self, mask):
        self.calls += 1
        return self.inner._decode_mask(mask)


FIVE_QUBIT = StabilizerCode(
    [PauliOperator.from_string(s) for s in ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]]
)
# Hamming checks repeated over five blocks: 35 qubits, so 2n = 70 bits is too
# wide for int64 masks
WIDE = css_from_parity(
    BinaryMatrix.from_strings([row * 5 for row in ["1010101", "0110011", "0001111"]])
)


@pytest.mark.parametrize("base", [steane_code(), WIDE], ids=["steane", "wide-70bit-masks"])
@pytest.mark.parametrize(
    "make_sm",
    [lambda ell: bch_sm(ell, 3), lambda ell: repetition_sm(ell, 3), identity_sm],
    ids=["bch-t3", "rep3", "identity"],
)
def test_measurement_rows_and_clean_readout_read_h_q(base, make_sm):
    """row_weights and measurement_pauli read H_Q's rows, and a clean
    readout is the SM encoding of the syndrome for every error of weight
    <= 2; the syndrome is checked against the symplectic product of the
    error with each generator, split into halves here."""
    n = base.n
    q = qds_assemble(base, make_sm(base.ell))
    ops = [q.measurement_pauli(i) for i in range(q.sm.n_s)]
    assert q.row_weights == tuple(op.weight for op in ops)
    for op, row in zip(ops, q.h_q.data):
        assert op.symplectic_mask() == row
        assert op.weight == sum(((row >> j) | (row >> (n + j))) & 1 for j in range(n))
    zero = (0,) * q.sm.n_s
    for w in (0, 1, 2):
        for e in iter_weight_paulis(n, w):
            syndrome = base.syndrome(e)
            assert syndrome == tuple(
                ((g.x & e.z).bit_count() + (g.z & e.x).bit_count()) & 1 for g in base.generators
            )
            assert q.measure(e, zero) == q.sm.encode(syndrome)


@pytest.mark.parametrize(
    "base, sm",
    [
        (steane_code(), bch_sm(6, 3)),
        (steane_code(), repetition_sm(6, 3)),
        (steane_code(), bch_sm(6, 10)),
        (FIVE_QUBIT, bch_sm(4, 2)),
        (WIDE, bch_sm(6, 3)),
        (steane_code(), repetition_sm(6, 11)),
    ],
    ids=[
        "bch-t3",
        "rep3",
        "bch-t10-69bits",
        "five-qubit-bch-t2",
        "wide-70bit-masks",
        "rep11-66bit-readout",
    ],
)
def test_trial_kernel_matches_the_public_chain(base, sm):
    n = base.n
    q = qds_assemble(base, sm)
    dec = lookup_decoder_build(base, max_weight=1)
    rng = np.random.default_rng(113)
    trials = 300
    # per-trial rates, so weights spread from inside the guarantee to beyond it
    hits = rng.random((trials, n)) < 0.3 * rng.random((trials, 1))
    letters = rng.integers(0, 3, size=(trials, n))
    x = (hits & (letters <= 1)).astype(np.uint8)
    z = (hits & (letters >= 1)).astype(np.uint8)
    flip_rate = 2.0 * sm.t_s / sm.n_s * rng.random((trials, 1))
    flips = (rng.random((trials, sm.n_s)) < flip_rate).astype(np.uint8)
    want = []
    for i in range(trials):
        e = PauliOperator(n, int(x[i] @ (1 << np.arange(n))), int(z[i] @ (1 << np.arange(n))))
        want.append(_oracle_fails(q, dec, e, tuple(flips[i].tolist())))
    # both verdicts occur, so a wrong readout bit cannot hide
    assert 0 < sum(want) < trials
    errors = np.array(
        [_bits_to_mask(row, "error") for row in np.concatenate((x, z), axis=1).tolist()],
        dtype=_mask_dtype(2 * n),
    )
    flip_masks = np.array(
        [_bits_to_mask(row, "flips") for row in flips.tolist()], dtype=_mask_dtype(sm.n_s)
    )
    # the gathered lookup of a real decoder, then one call per error to a proxy
    proxy = _CountingDecoder(dec)
    for decoder in (dec, proxy):
        assert q._count_failures(decoder, errors, flip_masks) == sum(want)
        for i in range(trials):
            one = slice(i, i + 1)
            assert q._count_failures(decoder, errors[one], flip_masks[one]) == want[i]
    assert proxy.calls == 2 * trials


def test_trial_kernel_counts_lookup_misses():
    """A table that stops at weight 1 misses 42 of Steane's 64 syndromes: a
    miss fails the trial on the gathered path (class -1) and on the
    per-trial path (no correction) alike, even for an error in the
    stabilizer group, whose class is that of no correction at all."""
    base = steane_code()
    q = qds_assemble(base, bch_sm(6, 3))
    dec = lookup_decoder_build(base, max_weight=1, budget=22)
    assert len(dec) == 22
    rng = np.random.default_rng(131)
    trials = 400
    errors, flips, want, found = [], [], [], []
    for i in range(trials):
        if i % 2:
            hits = rng.random(base.n) < 0.4 * rng.random()
            letters = rng.integers(0, 3, size=base.n)  # 0 = X, 1 = Y, 2 = Z
            x = sum(1 << j for j in range(base.n) if hits[j] and letters[j] <= 1)
            z = sum(1 << j for j in range(base.n) if hits[j] and letters[j] >= 1)
            e = PauliOperator(base.n, x, z)
        else:  # a stabilizer: only a miscorrected readout makes it fail
            e = PauliOperator.identity(base.n)
            for g in base.generators:
                e = e * g if rng.random() < 0.5 else e
        f = tuple(int(b) for b in rng.random(q.sm.n_s) < 0.3 * rng.random())
        errors.append(e.symplectic_mask())
        flips.append(sum(b << k for k, b in enumerate(f)))
        want.append(_oracle_fails(q, dec, e, f))
        msg = q.sm.decode(q.measure(e, f))
        if msg is not None:
            found.append((dec.decode(msg) is not None, i % 2))
    # hits and misses for both kinds of error, and both verdicts, all occur
    assert {(True, 0), (False, 0), (True, 1), (False, 1)} <= set(found)
    assert 0 < sum(want) < trials
    errors, flips = np.array(errors, dtype=np.int64), np.array(flips, dtype=np.int64)
    for decoder in (dec, _CountingDecoder(dec)):
        assert q._count_failures(decoder, errors, flips) == sum(want)
        for i in range(trials):
            assert q._count_failures(decoder, errors[i : i + 1], flips[i : i + 1]) == want[i]


# --- overhead counting --------------------------------------------------------


def test_fujiwara_worked_values():
    assert fujiwara_extra_measurements(10, 3) == (76, [6, 10, 10])
    assert fujiwara_extra_measurements(6, 3) == (51, [5, 6, 2])
    assert fujiwara_extra_measurements(6, 0) == (0, [])


def test_fujiwara_domain_errors():
    with pytest.raises(ValueError):
        fujiwara_extra_measurements(6, 4)  # 2 t_c > ell
    with pytest.raises(ValueError):
        fujiwara_extra_measurements(0, 0)
    with pytest.raises(ValueError):
        fujiwara_extra_measurements(6, -1)


def test_fujiwara_block_sizes_match_float_logs():
    """m_i = ceil(log2(D e)) away from exact powers of two."""
    for ell in range(2, 33):
        for t_c in range(1, ell // 2 + 1):
            total, m_list = fujiwara_extra_measurements(ell, t_c)
            assert len(m_list) == t_c
            running = 2 * t_c
            for i, m_i in enumerate(m_list, start=1):
                d = comb(ell, 2 * i) - comb(ell - 2 * i, 2 * i)
                bound = math.log2(d) + math.log2(math.e)
                if abs(bound - round(bound)) > 1e-9:
                    assert m_i == math.ceil(bound)
                assert 2.0**m_i >= d * math.e * (1 - 1e-12)
                running += (2 * t_c - 2 * i + 1) * m_i
            assert running == total


def _closed_form_fujiwara(ell, t_c):
    """(2t + sum_i (2t - 2i + 1) m_i, [m_1, ..., m_t]) with each m_i taken
    alone: the closed form the running total replaced, kept as its oracle."""
    widths = [
        _min_power_of_two_exponent_times_e(comb(ell, 2 * i) - comb(ell - 2 * i, 2 * i))
        for i in range(1, t_c + 1)
    ]
    return 2 * t_c + sum((2 * t_c - 2 * i + 1) * m_i for i, m_i in enumerate(widths, 1)), widths


def test_fujiwara_running_total_equals_the_closed_form():
    for ell in range(1, 65):
        for t_c in range(min(16, ell // 2) + 1):
            want = _closed_form_fujiwara(ell, t_c)
            assert fujiwara_extra_measurements(ell, t_c) == want, (ell, t_c)


def test_overhead_table_fujiwara_column_equals_the_count_alone():
    """Every row of ell = 1..64 x t = 1..16, within the distinct-pair domain
    and past it."""
    rows = overhead_table(range(1, 65), range(1, 17))
    assert len(rows) == 1024
    for r in rows:
        want = fujiwara_extra_measurements(r.ell, r.t)[0] if 2 * r.t <= r.ell else None
        assert r.fujiwara == want, (r.ell, r.t)


def _straddling_powers_of_two(top):
    """(z, d, e) for the d that straddle 2^z / e, z = 2..top, with e in
    the caller's decimal precision, which must keep int(d * e) exact."""
    e = decimal.Decimal(1).exp()
    for z in range(2, top + 1):
        near = int(decimal.Decimal(1 << z) / e)
        for d in range(max(1, near - 1), near + 3):
            yield z, d, e


def test_e_bound_matches_a_decimal_oracle():
    """The least z with 2^z >= d*e, against e to 400 digits, for the d that
    straddle each power of two up to 2^1000, past the d ~ 2^822 of
    ell = 2^30 with t = 16: there d*e is within e of 2^z, and only a
    bracket of e tight to d's width tells the two answers apart."""
    with decimal.localcontext() as ctx:
        ctx.prec = 400
        for z, d, e in _straddling_powers_of_two(1000):
            # d*e is irrational, so 2^z >= d*e exactly when 2^z > floor(d*e)
            want = int(d * e).bit_length()
            assert _min_power_of_two_exponent_times_e(d) == want, (z, d)


def test_e_bound_widens_a_bracket_too_loose_to_decide(monkeypatch):
    """With hi quadrupled at the threshold's first width, top // hi and
    top // lo disagree there: floor(2^(b+1) / e) comes from the next width,
    64 bits wider, and every straddling d still gets the oracle's z.  The
    thresholds are cleared before each d, so each d builds its own, and
    after the test, so none built from the loose bracket is kept."""
    widths = []

    def loose(bits):
        lo, hi = _e_fixed_point(bits)
        widths.append(bits)
        return (lo, 4 * hi) if len(widths) == 1 else (lo, hi)

    monkeypatch.setattr(qds_module, "_e_fixed_point", loose)
    try:
        with decimal.localcontext() as ctx:
            ctx.prec = 200
            for z, d, e in _straddling_powers_of_two(300):
                _e_threshold.cache_clear()
                widths.clear()
                want = int(d * e).bit_length()
                assert _min_power_of_two_exponent_times_e(d) == want, (z, d)
                assert len(widths) == 2 and widths[1] == widths[0] + 64, (z, d)
    finally:
        _e_threshold.cache_clear()


@pytest.mark.parametrize("bits", [64, 128, 192, 1024])
def test_e_fixed_point_brackets_the_series(bits):
    """lo <= e * 2^bits <= hi against the exact series: e lies between the
    partial sum S_K = sum_{j<=K} 1/j! and S_K + 1/(K! K), here with
    K = bits, far past the first j! > 2^bits.  The bracket is narrow, and
    lo is the sum of the floors of 2^bits / j!."""
    lo, hi = _e_fixed_point(bits)
    q = math.factorial(bits)
    partial = Fraction(sum(q // math.factorial(j) for j in range(bits + 1)), q)
    assert lo <= partial * 2**bits
    assert (partial + Fraction(1, q * bits)) * 2**bits <= hi
    assert hi - lo <= bits
    floors = itertools.takewhile(bool, ((1 << bits) // math.factorial(j) for j in itertools.count()))
    assert lo == sum(floors)


def test_overhead_scales_as_the_abstract_claims():
    """BCH needs about t*log2(ell) extra measurements and the distinct-pair
    construction about t^3*log2(ell), for ell past the GF(2^m) table.

    d_i = C(ell, 2i) - C(ell - 2i, 2i) grows like ell^(2i-1), so
    m_i ~ (2i-1)*log2(ell) and the distinct-pair count over t^3*log2(ell)
    tends to sum_i (2t-2i+1)(2i-1) / t^2 = (2t^2+1)/(3t^2) at fixed t."""
    for k in range(8, 31):
        for t in range(1, 17):
            assert bch_select_parameters(2**k, t) == (k + 1, (k + 1) * t), (k, t)
    (row,) = overhead_table([2**20], [16])
    assert (row.bch, row.fujiwara) == (336, 48931)
    for t in range(1, 17):
        limit = (2 * t * t + 1) / (3 * t * t)
        gaps = [
            abs(fujiwara_extra_measurements(2**k, t)[0] / (t**3 * k) - limit) for k in (8, 30)
        ]
        assert gaps[1] < gaps[0], t
    # counting has no degree cap; building the field still has one
    with pytest.raises(ValueError, match="no primitive polynomial is tabulated"):
        bch_select_m(2**16, 1)


def test_overhead_scaling_table_is_pinned():
    """The abstract's scaling as numbers, for ell = 2^4..2^30 and t = 1..16:
    m runs to 35, past every field, so this pinned CSV (written by the
    coset-walk count that preceded the per-m leader memo) is the oracle of
    the counting there."""
    rows = overhead_table([2**k for k in range(4, 31)], range(1, 17))
    lines = ["ell,t,bch,fujiwara,repetition"] + [
        f"{r.ell},{r.t},{r.bch},{'' if r.fujiwara is None else r.fujiwara},{r.repetition}"
        for r in rows
    ]
    pinned = Path(__file__).parent / "data" / "overhead_scaling.csv"
    assert "\n".join(lines) + "\n" == pinned.read_text(encoding="utf-8")


def test_fujiwara_monotone_in_t():
    for ell in (8, 15, 20):
        totals = [fujiwara_extra_measurements(ell, t)[0] for t in range(ell // 2 + 1)]
        assert totals == sorted(totals)


def test_overhead_table_values():
    rows = {(r.ell, r.t): r for r in overhead_table(range(5, 11), range(1, 4))}
    assert rows[(6, 3)].bch == 15
    assert rows[(6, 3)].fujiwara == 51
    assert rows[(6, 3)].repetition == 36
    assert rows[(10, 3)].bch == 15
    assert rows[(10, 3)].fujiwara == 76
    assert rows[(10, 3)].repetition == 60
    assert rows[(6, 1)].repetition == 12


def test_overhead_table_computes_each_width_once(monkeypatch):
    """ell = 64 with t = 1..16 needs the 16 widths m_1..m_16 once each,
    not m_1..m_t again for every row (136)."""
    calls = []

    def counting(d):
        calls.append(d)
        return _min_power_of_two_exponent_times_e(d)

    monkeypatch.setattr(qds_module, "_min_power_of_two_exponent_times_e", counting)
    rows = overhead_table([64], range(1, 17))
    assert len(calls) == 16
    monkeypatch.undo()
    assert [r.fujiwara for r in rows] == [fujiwara_extra_measurements(64, t)[0] for t in range(1, 17)]


def test_overhead_table_reads_each_argument_once():
    """Generators for both ells and ts give the rows that lists give."""
    rows = overhead_table((ell for ell in [6, 10, 3]), (t for t in [1, 2, 3, 2]))
    assert rows == overhead_table([6, 10, 3], [1, 2, 3, 2])
    assert [(r.ell, r.t) for r in rows] == [(ell, t) for ell in [6, 10, 3] for t in [1, 2, 3, 2]]


def test_overhead_entry_fields_keep_their_order():
    """Rows are built positionally, so the field order is the column order."""
    (row,) = overhead_table([10], [3])
    assert row == OverheadEntry(ell=10, t=3, bch=bch_select_parameters(10, 3)[1],
                                fujiwara=76, repetition=60)
    assert tuple(row) == (row.ell, row.t, row.bch, row.fujiwara, row.repetition)


def test_overhead_table_marks_inapplicable_fujiwara():
    """Unordered t, a repeated t and one t past the distinct-pair domain:
    the rows keep the asked order, and each equals its counts asked alone."""
    ts = [3, 1, 4, 1, 2]
    rows = overhead_table([6], ts)
    assert [(r.ell, r.t) for r in rows] == [(6, t) for t in ts]
    for r in rows:
        assert r.bch == bch_select_parameters(6, r.t)[1]
        assert r.repetition == 12 * r.t
        if 2 * r.t > 6:
            assert r.fujiwara is None
        else:
            assert r.fujiwara == fujiwara_extra_measurements(6, r.t)[0]
    assert [r.fujiwara for r in rows] == [51, 7, None, 7, 25]


def test_overhead_table_monotone_in_t():
    for ell in (5, 10, 16, 25, 30):
        rows = [r for r in overhead_table([ell], range(1, 9))]
        for a, b in zip(rows, rows[1:]):
            assert b.bch >= a.bch
            assert b.repetition > a.repetition
            if a.fujiwara is not None and b.fujiwara is not None:
                assert b.fujiwara >= a.fujiwara


# --- exhaustive guarantee verification ----------------------------------------


def test_steane_fails_seven_ninths_of_weight_two_errors_with_a_clean_readout():
    """The data-side cell behind demo 03's low-p_s slope: with no readout
    flips, the radius-1 lookup fails on 147 of the 189 weight-2 Paulis of
    Steane, so the data term 21 * (7/9) * p_q^2 outlasts the readout's
    C(21, 4) * p_s^4 once p_s is small enough."""
    base = steane_code()
    q = qds_assemble(base, bch_sm(6, 3))
    dec = lookup_decoder_build(base, max_weight=1)
    errors = list(iter_weight_paulis(7, 2))
    assert len(errors) == 189
    assert sum(_oracle_fails(q, dec, e, None) for e in errors) == 147


def test_verify_identity_sm():
    base = steane_code()
    q = qds_assemble(base, identity_sm(6))
    dec = lookup_decoder_build(base, max_weight=1)
    cells = verify_correction_guarantee(q, dec)
    assert [(c.w_q, c.w_s) for c in cells] == [(0, 0), (1, 0)]
    assert [c.cases for c in cells] == [1, 21]
    assert all(c.failures == 0 for c in cells)


def test_verify_tests_every_error_and_every_flip_pattern_once(monkeypatch):
    """verify tests each half of the region once, never their pairs: a
    decoder the kernel has no table for is looked up once per data error of
    weight <= t_data, and the readout decodes each flip pattern of weight
    <= t_s once."""
    base = steane_code()
    q = qds_assemble(base, bch_sm(6, 3))
    dec = _CountingDecoder(lookup_decoder_build(base, max_weight=1))
    words = []
    decode_is_zero = q.sm._decode_is_zero
    monkeypatch.setattr(
        q.sm, "_decode_is_zero", lambda f: words.append(len(f)) or decode_is_zero(f)
    )
    cells = verify_correction_guarantee(q, dec)
    assert [c.cases for c in cells] == [
        comb(7, w_q) * 3**w_q * comb(21, w_s) for w_q in range(2) for w_s in range(4)
    ]
    assert all(c.failures == 0 for c in cells)
    assert dec.calls == 1 + 21
    assert sum(words) == sum(comb(21, w) for w in range(4)) == 1562


@pytest.mark.parametrize(
    "sm, max_weight",
    [(bch_sm(6, 3), 1), (bch_sm(6, 4), 1), (repetition_sm(6, 3), 1), (repetition_sm(6, 3), 2)],
    ids=["bch3", "bch4", "rep3", "rep3-overreaching-decoder"],
)
def test_verify_cells_equal_the_kernel_over_every_pair(sm, max_weight):
    """The pairing verify does not make is its oracle: every (error, flips)
    case of each cell of the region, each exactly once, through the trial
    kernel."""
    base = steane_code()
    q = qds_assemble(base, sm)
    dec = lookup_decoder_build(base, max_weight=max_weight)
    cells = verify_correction_guarantee(q, dec)
    assert [(c.w_q, c.w_s) for c in cells] == [
        (w_q, w_s) for w_q in range(max_weight + 1) for w_s in range(sm.t_s + 1)
    ]
    for c in cells:
        errors = _weight_pauli_masks(base.n, c.w_q)
        flips = _support_masks(sm.n_s, c.w_s)
        pairs = np.repeat(errors, len(flips)), np.tile(flips, len(errors))
        assert (c.cases, c.failures) == (len(pairs[0]), q._count_failures(dec, *pairs))


def test_verify_counts_the_failures_of_an_overreaching_decoder():
    """A lookup decoder built to weight 2 claims more than the distance-3
    Steane code can correct, so verify must report the oracle's failures."""
    base = steane_code()
    q = qds_assemble(base, repetition_sm(6, 3))
    dec = lookup_decoder_build(base, max_weight=2)
    cells = verify_correction_guarantee(q, dec)
    for cell in cells:
        want = 0
        for e in iter_weight_paulis(7, cell.w_q):
            for sites in itertools.combinations(range(q.sm.n_s), cell.w_s):
                flips = tuple(int(i in sites) for i in range(q.sm.n_s))
                want += _oracle_fails(q, dec, e, flips)
        assert cell.failures == want
        assert cell.cases == comb(7, cell.w_q) * 3**cell.w_q * comb(q.sm.n_s, cell.w_s)
    assert sum(c.failures for c in cells) > 0


def test_verify_budget_refusal():
    base = steane_code()
    q = qds_assemble(base, bch_sm(6, 3))
    dec = lookup_decoder_build(base, max_weight=1)
    with pytest.raises(BudgetExceededError) as err:
        verify_correction_guarantee(q, dec, budget=100)
    assert err.value.required == 34364
    assert err.value.budget == 100


@pytest.mark.parametrize(
    "bad, message",
    [
        pytest.param(True, "budget must be an integer, got True", id="bool"),
        pytest.param("10", "budget must be an integer, got '10'", id="str"),
        pytest.param(-1, "budget must be nonnegative, got -1", id="negative"),
    ],
)
def test_decoder_build_and_verify_refuse_a_budget_that_is_not_a_count(bad, message):
    """budget=True was refused as a BudgetExceededError saying "budget is
    True", a string raised a bare TypeError from the compare, and -1 was a
    refusal that no code could meet; each is now a plain ValueError."""
    base = steane_code()
    q = qds_assemble(base, repetition_sm(6, 3))
    dec = lookup_decoder_build(base, max_weight=1)
    calls = [
        lambda: lookup_decoder_build(base, max_weight=1, budget=bad),
        lambda: verify_correction_guarantee(q, dec, budget=bad),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as err:
            call()
        assert type(err.value) is ValueError


_FIVE_QUBIT = StabilizerCode(
    [PauliOperator.from_string(g) for g in ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")]
)
_SHOR = StabilizerCode(
    [
        PauliOperator.from_string(g)
        for g in (
            "ZZIIIIIII", "IZZIIIIII", "IIIZZIIII", "IIIIZZIII",
            "IIIIIIZZI", "IIIIIIIZZ", "XXXXXXIII", "IIIXXXXXX",
        )
    ]
)


# --- exact failure tables -----------------------------------------------------


@pytest.mark.parametrize(
    "sm, max_weight",
    [
        (bch_sm(6, 1), 10),
        (bch_sm(6, 2), 14),
        (bch_sm(6, 3), 21),
        (bch_sm(6, 4), 8),
        (repetition_sm(6, 3), 8),
        (repetition_sm(6, 1), 6),
        (repetition_sm(6, 5), 8),
        (repetition_sm(8, 3), 10),
    ],
    ids=["bch1", "bch2", "bch3", "bch4", "rep3", "identity", "rep5", "rep3-ell8"],
)
def test_closed_form_offset_counts_equal_the_enumeration(sm, max_weight):
    """Z, the count of the patterns that decode alone to offset 0, in
    closed form (C(n_s, w) up to t_s for BCH, the majority polynomial for
    repetition) against every flip pattern of each weight tested by
    `_decode_is_zero`."""
    want = sm._count_zero_decodes(max_weight)
    got = sm._zero_counts
    assert len(got) == sm.n_s + 1
    assert got[: max_weight + 1] == want
    assert all(type(z) is int for z in got)


def test_repetition_zero_counts_are_pinned():
    assert repetition_sm(6, 3)._zero_counts[:5] == (1, 18, 135, 540, 1215)
    assert identity_sm(6)._zero_counts == (1,) + (0,) * 6


@pytest.mark.parametrize(
    "sm", [bch_sm(6, 3), bch_sm(6, 4), repetition_sm(6, 3), identity_sm(6), bch_sm(6, 10)],
    ids=["bch3", "bch4", "rep3", "identity", "bch10-object-counts"],
)
def test_flip_offsets_count_every_pattern_once(sm):
    """Z counts each pattern at most once: every pattern of weight <= t_s
    decodes alone to offset 0, and no weight has more than C(n_s, w)."""
    zero = sm._zero_counts
    assert zero[: sm.t_s + 1] == tuple(comb(sm.n_s, w) for w in range(sm.t_s + 1))
    assert all(0 <= z <= comb(sm.n_s, w) for w, z in enumerate(zero))


_COUNT_BASES = [steane_code(), steane_code(), _FIVE_QUBIT, _SHOR]


@pytest.mark.parametrize(
    "base, radius",
    list(zip(_COUNT_BASES, [0, 1, 1, 1])),
    ids=["steane-radius0", "steane-radius1", "five-qubit", "shor"],
)
def test_corrected_counts_are_the_kernel_with_no_flips(base, radius):
    """K[w] against the kernel: the weight-w Paulis that pass it with zero
    flips, counted by `_count_failures` on each weight."""
    q = qds_assemble(base, identity_sm(base.ell))
    dec = lookup_decoder_build(base, max_weight=radius)
    kept = q._corrected_counts(dec, base.n)
    assert len(kept) == base.n + 1 and all(type(k) is int for k in kept)
    for w, k in enumerate(kept):
        errors = _weight_pauli_masks(base.n, w)
        no_flips = np.zeros(len(errors), dtype=_mask_dtype(q.sm.n_s))
        assert len(errors) - q._count_failures(dec, errors, no_flips) == k


def test_steane_corrected_counts_are_pinned():
    q = qds_assemble(steane_code(), identity_sm(6))
    dec = lookup_decoder_build(q.base, max_weight=1)
    assert q._corrected_counts(dec, 7) == (1, 21, 42, 252, 609, 1281, 1428, 462)


def _exact_cell(q, dec, w_q, w_s):
    """(cases, failures) of cell (w_q, w_s) from the two counts: a case
    passes exactly when its flips decode alone to offset 0 (Z) and the
    table corrects its error (K), so |E_wq| C(n_s, w_s) - K(w_q) Z(w_s)
    fail."""
    cases = comb(q.base.n, w_q) * 3**w_q * comb(q.sm.n_s, w_s)
    return cases, cases - q._corrected_counts(dec, q.base.n)[w_q] * q.sm._zero_counts[w_s]


@pytest.mark.parametrize(
    "sm, max_weight",
    [
        (bch_sm(6, 3), 1),
        (bch_sm(6, 4), 1),
        (repetition_sm(6, 3), 1),
        (identity_sm(6), 1),
        (repetition_sm(6, 3), 2),
    ],
    ids=["bch3", "bch4", "rep3", "identity", "rep3-overreaching-decoder"],
)
def test_exact_counts_equal_the_verify_cells(sm, max_weight):
    base = steane_code()
    q = qds_assemble(base, sm)
    dec = lookup_decoder_build(base, max_weight=max_weight)
    cells = verify_correction_guarantee(q, dec)
    assert [(c.cases, c.failures) for c in cells] == [
        _exact_cell(q, dec, c.w_q, c.w_s) for c in cells
    ]


def test_exact_counts_equal_an_exhaustive_kernel_run():
    """Steane + identity readout: all 4^7 x 2^6 cases through the kernel."""
    base = steane_code()
    q = qds_assemble(base, identity_sm(6))
    dec = lookup_decoder_build(base, max_weight=1)
    for w_q in range(base.n + 1):
        errors = _weight_pauli_masks(base.n, w_q)
        for w_s in range(q.sm.n_s + 1):
            flips = _support_masks(q.sm.n_s, w_s)
            got = q._count_failures(
                dec, np.repeat(errors, len(flips)), np.tile(flips, len(errors))
            )
            assert (len(errors) * len(flips), got) == _exact_cell(q, dec, w_q, w_s)


@pytest.mark.parametrize(
    "base", [steane_code(), _FIVE_QUBIT, _SHOR], ids=["steane", "five-qubit", "shor-4^9"]
)
def test_corrected_is_the_kernel_with_no_flips(base):
    """Every Pauli the table corrects passes the old kernel's lookup of
    s ^ D(f) with zero flips, and every other one fails it."""
    q = qds_assemble(base, identity_sm(base.ell))
    dec = lookup_decoder_build(base, max_weight=1)
    paulis = np.arange(1 << 2 * base.n)
    corrected = dec._corrected
    assert corrected.dtype == bool and corrected.shape == paulis.shape
    no_flips = np.zeros(len(paulis), dtype=_mask_dtype(q.sm.n_s))
    assert np.array_equal(corrected, _kernel_passes(q, dec, paulis, no_flips))
    failed = paulis[~corrected]
    assert q._count_failures(dec, paulis, no_flips) == len(failed)
    assert corrected[_weight_pauli_masks(base.n, 1)].all() and len(failed) > 0


def test_corrected_is_the_one_trial_chain_on_the_five_qubit_code():
    q = qds_assemble(_FIVE_QUBIT, identity_sm(4))
    dec = lookup_decoder_build(_FIVE_QUBIT, max_weight=1)
    for mask, corrected in enumerate(dec._corrected.tolist()):
        error = PauliOperator._from_mask(5, mask)
        correction, _ = q.decode_two_step(q.measure(error), dec)
        assert corrected == (_FIVE_QUBIT.classify(error * correction) == "trivial")


def test_assembly_and_decoder_build_make_no_exact_table():
    """The tables are built by the first grid that reads them, not by
    set-up."""
    base = steane_code()
    q = qds_assemble(base, bch_sm(6, 3))
    dec = lookup_decoder_build(base, max_weight=1)
    assert "_zero_counts" not in vars(q.sm)
    assert "_corrected" not in vars(dec)
    assert q._grid_plan is None
    # nor by a first decode, for a readout whose word table would exist
    for sm in (q.sm, repetition_sm(6, 3)):
        sm.decode((0,) * sm.n_s)
        assert "_zero_words" not in vars(sm)


class _Enumerated(SyndromeMeasurementCode):
    """A repetition code's codec with no closed form for its Z."""

    name = "enumerated"

    def __init__(self, inner):
        self.inner = inner
        self.ell, self.n_s, self.t_s = inner.ell, inner.n_s, inner.t_s

    def _encode_mask(self, mask):
        return self.inner._encode_mask(mask)

    def _decode_mask(self, mask):
        return self.inner._decode_mask(mask)


def test_exact_tables_stop_at_their_caps():
    """4^15 Paulis for the [[15,7,3]] code pass 2^20 entries, so its grid
    plan certifies no cell, and a readout has no Z past 2^20 flip patterns
    when only the enumeration can count them."""
    simplex = [sum(((c >> i) & 1) << (c - 1) for c in range(1, 16)) for i in range(4)]
    wide = css_from_parity(BinaryMatrix(4, 15, simplex))
    assert (wide.n, wide.k) == (15, 7)
    wide_decoder = lookup_decoder_build(wide, max_weight=1)
    assert wide_decoder._corrected is None
    _, verdicts = sim._grid_plan(qds_assemble(wide, identity_sm(wide.ell)), wide_decoder)
    assert len(verdicts) == 16 and {v for row in verdicts for v in row} == {sim._DRAW}
    small = _Enumerated(repetition_sm(6, 3))
    assert small._zero_counts == repetition_sm(6, 3)._zero_counts
    assert _Enumerated(repetition_sm(7, 3))._zero_counts is None
    # a closed form has no cap
    assert repetition_sm(7, 3)._zero_counts[:3] == (1, 21, 189)


def test_enumerated_zero_counts_decode_each_word_once():
    """With no closed form, Z is `_zero_words`' marked words counted by
    weight: the oracle's counts, from one decode of each word, which the
    grid's word table then reuses."""
    sm = _Enumerated(repetition_sm(4, 3))
    decoded = []
    decode = sm._decode_mask
    sm._decode_mask = lambda mask: decoded.append(mask) or decode(mask)
    zero = sm._zero_counts
    sm._zero_words
    assert sorted(decoded) == list(range(1 << sm.n_s))
    del sm._decode_mask
    assert zero == sm._count_zero_decodes(sm.n_s) == repetition_sm(4, 3)._zero_counts
    assert all(type(z) is int for z in zero)


def _berlekamp_massey(sm):
    """A BCH readout decoded word by word, without its coset-leader table:
    `_decode_is_zero` is then the base class's loop, which reads a
    give-up as no zero."""
    sm.__dict__["_fix_table"] = None  # the cached_property's slot
    return sm


# the readouts whose `_zero_words` table exists (n_s <= 20, the last at the
# cap)
_WORD_TABLE_SMS = [
    repetition_sm(6, 3),
    identity_sm(6),
    bch_sm(6, 1),
    bch_sm(6, 2),
    repetition_sm(4, 5),
    _berlekamp_massey(bch_sm(6, 1)),
]
_WORD_TABLE_IDS = ["rep3", "identity", "bch1", "bch2", "rep5-ell4-n_s20", "bch1-bm"]


@pytest.mark.parametrize("sm", _WORD_TABLE_SMS, ids=_WORD_TABLE_IDS)
def test_zero_words_is_the_decoder_on_every_word(sm):
    words = np.arange(1 << sm.n_s, dtype=_mask_dtype(sm.n_s))
    table = sm._zero_words
    assert table.dtype == bool and table.shape == words.shape
    assert table.tolist() == [sm._decode_mask(word) == 0 for word in words.tolist()]
    assert np.array_equal(table, sm._decode_is_zero(words))
    # and as many words as Z counts over every weight
    assert table.sum() == sum(sm._zero_counts)


def test_zero_words_stops_at_the_cap():
    assert repetition_sm(6, 5).n_s == 30 and repetition_sm(6, 5)._zero_words is None
    assert bch_sm(6, 3).n_s == 21 and bch_sm(6, 3)._zero_words is None


def test_zero_words_builds_in_small_chunks():
    """The 2^18-word table of repetition(3) is 256 KB; built in one
    `_decode_is_zero` call its temporaries took several MB more."""
    sm = repetition_sm(6, 3)
    tracemalloc.start()
    try:
        sm._zero_words
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_corrected_builds_in_small_chunks():
    """The 4^10-entry table of two [[5,1,3]] blocks is 1 MB; built in one
    `_matches_class` call its temporaries took about 40 MB.  Its counts
    equal those of `_matches_class` run on each weight without it: every
    weight-1 error, and the 5 * 5 * 9 weight-2 errors with one letter in
    each block."""
    five = [g.to_string() for g in _FIVE_QUBIT.generators]
    base = StabilizerCode(
        [PauliOperator.from_string(g + "IIIII") for g in five]
        + [PauliOperator.from_string("IIIII" + g) for g in five]
    )
    dec = lookup_decoder_build(base, max_weight=1)
    tracemalloc.start()
    try:
        dec._corrected
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    q = qds_assemble(base, repetition_sm(base.ell, 3))
    direct = [dec._matches_class(_weight_pauli_masks(10, w)).sum() for w in range(3)]
    assert q._corrected_counts(dec, 2) == tuple(direct) == (1, 30, 225)


def _kernel_passes(q, dec, errors, flips):
    """Each trial's verdict as the kernel once took it, for a
    `LookupDecoder`: the flips decoded alone word by word to their offsets
    D(f), the decoded syndrome s ^ D(f) looked up, and the correction's
    class compared with the error's.  The oracle of `_count_failures`,
    which reads neither of its halves."""
    ell = q.sm.ell
    offsets = [q.sm._decode_mask(f) for f in flips.tolist()]
    ok = np.array([d is not None for d in offsets], dtype=bool)
    offsets = np.array([d or 0 for d in offsets], dtype=_mask_dtype(ell))
    product = q.base._syndrome_and_class._mul_masks(errors)
    msgs = (product & ((1 << ell) - 1)).astype(_mask_dtype(ell), copy=False) ^ offsets
    return ok & (dec._classes_of(np.where(ok, msgs, 0)) == product >> ell)


def _low_weight_pairs(q, rng, per_cell=25):
    """Random (error, flips) pairs over every w_q <= 3 and w_s <= t_s + 3,
    where passes and failures of every kind mix, and as many uniform ones."""
    n, n_s = q.base.n, q.sm.n_s
    errors, flips = [], []
    for w_q in range(4):
        for w_s in range(min(n_s, q.sm.t_s + 3) + 1):
            errors.append(sim._draw_errors(n, w_q, per_cell, rng))
            flips.append(sim._draw_flips(n_s, w_s, per_cell, rng))
    count = sum(map(len, errors))
    errors.append(rng.integers(1 << 2 * n, size=count).astype(errors[0].dtype))
    flips.append(rng.integers(1 << n_s, size=count).astype(flips[0].dtype))
    return np.concatenate(errors), np.concatenate(flips)


_PREDICATE_BASES = [steane_code(), _FIVE_QUBIT, _SHOR]


def _predicate_readouts(ell):
    """Fresh readouts of ell bits, so no table is shared between runs:
    those of `_WORD_TABLE_SMS`, and repetition(5) and BCH(t=3), whose word
    tables pass the cap for ell = 6 and 8."""
    sms = [repetition_sm(ell, 3), identity_sm(ell), repetition_sm(ell, 5)]
    return sms + [bch_sm(ell, t) for t in (1, 2, 3)] + [_berlekamp_massey(bch_sm(ell, 1))]


@pytest.mark.parametrize("radius", [0, 1])
@pytest.mark.parametrize("base", _PREDICATE_BASES, ids=["steane", "five-qubit", "shor"])
def test_two_gathers_are_the_kernel_on_random_pairs(base, radius):
    """A trial passes the kernel's old lookup of s ^ D(f) exactly when its
    flips decode alone to offset 0 and the table corrects its error, with
    the word table, with its `_decode_is_zero` fallback (past the cap, and
    forced below it), and with a readout decoder that gives up."""
    ell = base.ell
    dec = lookup_decoder_build(base, max_weight=radius)
    rng = np.random.default_rng(17 + radius)
    for forced in (False, True):
        for sm in _predicate_readouts(ell):
            if forced:
                sm.__dict__["_zero_words"] = None  # the cached_property's slot
            q = qds_assemble(base, sm)
            errors, flips = _low_weight_pairs(q, rng)
            want = _kernel_passes(q, dec, errors, flips)
            assert q._count_failures(dec, errors, flips) == len(want) - want.sum()
            got = dec._corrected[errors] & sm._decodes_to_zero(flips)
            assert np.array_equal(got, want)
            assert 0 < want.sum() < len(want)
