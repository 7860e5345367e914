"""QDS assembly, noisy measurement, two-step decoding, overhead counting."""

import decimal
import itertools
import math
import random
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdsbch.bch import bch_construct, bch_select_m, bch_select_parameters, parity_bit_count
from qdsbch.linalg import _MAX_TABLE_BITS, BinaryMatrix, _bits_to_mask, _mask_dtype
from qdsbch.qds import (
    BchSyndromeMeasurement,
    QdsCode,
    RepetitionSyndromeMeasurement,
    _min_power_of_two_exponent_times_e,
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
    # the batched majority against the per-word one
    masks = np.arange(1 << n_s)
    msgs, ok = sm._decode_masks(masks)
    assert ok.all()
    assert msgs.tolist() == [sm._decode_mask(mask) for mask in masks.tolist()]


# every (m, t) with m = 3..6 whose syndrome table fits, so the table path runs
_TABULATED = [
    (m, t)
    for m in range(3, 7)
    for t in range(1, ((1 << m) - 2) // 2 + 1)
    if parity_bit_count(m, t) <= _MAX_TABLE_BITS
]


@st.composite
def _tabulated_bch_sms(draw):
    m, t = draw(st.sampled_from(_TABULATED))
    code = bch_construct(m, t)
    # shortened to n_s <= 62, the widest word the table decodes
    shorten = draw(st.integers(max(0, code.n - 62), code.k - 1))
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
    msgs, ok = sm._decode_masks(np.array(words, dtype=np.int64))
    want = [code._decode_mask(word) for word in words]
    assert ok.tolist() == [out is not None for out in want]
    assert [msg for msg, good in zip(msgs.tolist(), ok) if good] == [
        out[0] for out in want if out is not None
    ]


# the SM decode paths the trial kernel's split runs on: BCH by table, BCH by
# Berlekamp-Massey on int64 words (bch_sm(6, 6), n_s = 39) and on 69-bit
# object words (bch_sm(6, 10)), and majority up to the 66-bit readout
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
    """The contract the trial kernel's split relies on: decoding a codeword
    plus flips f gives the codeword's message XOR the decode of f alone,
    and gives up exactly when decoding f alone does; word by word and as
    a batch."""
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
    for m, f, word in zip(msgs, flips, words):
        alone = sm._decode_mask(f)
        got = sm._decode_mask(word)
        assert (got is None) == (alone is None)
        if alone is not None:
            assert got == m ^ alone
    dtype = _mask_dtype(sm.n_s)
    offsets, ok_alone = sm._decode_masks(np.array(flips, dtype=dtype))
    got, ok = sm._decode_masks(np.array(words, dtype=dtype))
    assert ok.tolist() == ok_alone.tolist()
    assert ok[: 3 * (sm.t_s + 1)].all()  # up to t_s flips always decode
    assert ok.all() == (sm.name != "bch")  # and BCH gives up past them
    assert (got ^ offsets)[ok].tolist() == np.array(msgs, dtype=got.dtype)[ok].tolist()


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
    sm_decoded = 0
    for i in range(trials):
        e = PauliOperator(n, int(x[i] @ (1 << np.arange(n))), int(z[i] @ (1 << np.arange(n))))
        want.append(_oracle_fails(q, dec, e, tuple(flips[i].tolist())))
        sm_decoded += sm.decode(q.measure(e, tuple(flips[i].tolist()))) is not None
    # both verdicts occur, so a wrong readout bit cannot hide
    assert 0 < sum(want) < trials
    errors = np.array(
        [_bits_to_mask(row, "error") for row in np.concatenate((x, z), axis=1).tolist()],
        dtype=_mask_dtype(2 * n),
    )
    flip_masks = np.array(
        [_bits_to_mask(row, "flips") for row in flips.tolist()], dtype=_mask_dtype(sm.n_s)
    )
    # the gathered lookup of a real decoder, then per-trial calls to a proxy
    proxy = _CountingDecoder(dec)
    for decoder in (dec, proxy):
        assert q._count_failures(decoder, errors, flip_masks) == sum(want)
        for i in range(trials):
            one = slice(i, i + 1)
            assert q._count_failures(decoder, errors[one], flip_masks[one]) == want[i]
    assert proxy.calls == 2 * sm_decoded


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


def test_e_bound_matches_a_decimal_oracle():
    """The least z with 2^z >= d*e, against e to 200 digits, for the d that
    straddle each power of two up to 2^400: there the first bracket of e
    gives two answers and only the widening decides."""
    with decimal.localcontext() as ctx:
        ctx.prec = 200
        e = decimal.Decimal(1).exp()
        for z in range(2, 401):
            near = int(decimal.Decimal(1 << z) / e)
            for d in range(max(1, near - 1), near + 3):
                # d*e is irrational, so 2^z >= d*e exactly when 2^z > floor(d*e)
                want = int(d * e).bit_length()
                assert _min_power_of_two_exponent_times_e(d) == want, (z, d)


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


def test_overhead_table_marks_inapplicable_fujiwara():
    rows = {(r.ell, r.t): r for r in overhead_table([6], [3, 4])}
    assert rows[(6, 3)].fujiwara is not None
    assert rows[(6, 4)].fujiwara is None


def test_overhead_table_monotone_in_t():
    for ell in (5, 10, 16, 25, 30):
        rows = [r for r in overhead_table([ell], range(1, 9))]
        for a, b in zip(rows, rows[1:]):
            assert b.bch >= a.bch
            assert b.repetition > a.repetition
            if a.fujiwara is not None and b.fujiwara is not None:
                assert b.fujiwara >= a.fujiwara


# --- exhaustive guarantee verification ----------------------------------------


def test_verify_identity_sm():
    base = steane_code()
    q = qds_assemble(base, identity_sm(6))
    dec = lookup_decoder_build(base, max_weight=1)
    cells = verify_correction_guarantee(q, dec)
    assert [(c.w_q, c.w_s) for c in cells] == [(0, 0), (1, 0)]
    assert [c.cases for c in cells] == [1, 21]
    assert all(c.failures == 0 for c in cells)


def test_verify_looks_up_every_case_once():
    """Inside the guarantee every case reaches the lookup decoder, so the
    lookups must equal the cases, including cells split into batches."""
    base = steane_code()
    q = qds_assemble(base, bch_sm(6, 3))
    dec = _CountingDecoder(lookup_decoder_build(base, max_weight=0))
    cells = verify_correction_guarantee(q, dec)
    assert [c.cases for c in cells] == [comb(21, w) for w in range(4)]  # 1330 > one batch
    assert all(c.failures == 0 for c in cells)
    assert dec.calls == sum(c.cases for c in cells)


def test_verify_sends_every_case_to_the_kernel_once():
    """Inside the guarantee a failure never depends on which flips meet
    which error, so the pairing is checked on the batches themselves:
    every (error, flips) case of a cell, each exactly once."""
    base = steane_code()
    q = qds_assemble(base, bch_sm(6, 3))
    dec = lookup_decoder_build(base, max_weight=1)
    seen = []
    q._count_failures = lambda decoder, errors, flips: seen.extend(
        zip(errors.tolist(), flips.tolist())
    ) or 0
    cells = verify_correction_guarantee(q, dec)
    want = [
        (e.symplectic_mask(), sum(1 << i for i in sites))
        for cell in cells
        for e in iter_weight_paulis(base.n, cell.w_q)
        for sites in itertools.combinations(range(q.sm.n_s), cell.w_s)
    ]
    assert len(want) == 34364
    assert sorted(seen) == sorted(want)


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
