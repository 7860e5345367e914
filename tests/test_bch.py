"""BCH construction, encoding, decoding, and parameter selection."""

import hashlib
import itertools
import random
from functools import lru_cache
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdsbch import bch as bch_module
from qdsbch.bch import (
    BchCode,
    bch_construct,
    bch_decode,
    bch_encode,
    bch_select_m,
    _select_parameters,
    bch_select_parameters,
    parity_bit_count,
)
from qdsbch.fields import (
    PRIMITIVE_POLYNOMIALS,
    BinaryPolynomial,
    GF2m,
    cyclotomic_cosets,
    minimal_polynomial,
    poly_lcm,
)
from qdsbch.qds import fujiwara_extra_measurements, overhead_table

# the systematic generator matrix of the [21,6,7] code built on x^5 + x^2 + 1
SHORTENED_21_6_ROWS = [
    "100000000101011010010",
    "010000000010101101001",
    "001000111100001001100",
    "000100011110000100110",
    "000010001111000010011",
    "000001111010111110001",
]


def test_hamming_15_11():
    code = bch_construct(4, 1)
    assert (code.length, code.dimension, code.distance) == (15, 11, 3)
    assert code.generator.mask == 0b10011


def test_triple_error_correcting_31_16():
    code = bch_construct(5, 3)
    assert (code.n, code.k, code.r) == (31, 16, 15)
    assert code.distance == 7
    assert code.generator.mask == 0x8FAF


def test_generator_divides_x_n_plus_one():
    for m, t in [(4, 1), (5, 3), (6, 5), (7, 4)]:
        code = bch_construct(m, t)
        x_n_1 = BinaryPolynomial.x_power(code.n) + BinaryPolynomial.one()
        assert (x_n_1 % code.generator).is_zero


def test_generator_has_the_designed_roots():
    """g(alpha^j) = 0 for j = 1..2t, and g is the smallest such divisor:
    the lcm over every j, which does not group the j into cosets."""
    for m in range(2, 8):
        field = GF2m(m)
        for t in range(1, (field.group_order - 1) // 2 + 1):
            code = bch_construct(m, t)
            for j in range(1, 2 * t + 1):
                assert code.generator.eval_in(field, field.pow_alpha(j)) == 0
            want = poly_lcm([minimal_polynomial(field, j) for j in range(1, 2 * t + 1)])
            assert code.generator == want, (m, t)


@pytest.fixture
def empty_memos():
    """Drop the per-m construction memo (coset leaders, per-t R and leader
    counts, generator products and fields), so a test sees it filled in its
    own order, and again afterwards, so what the test built is not kept."""
    bch_module._PER_M.clear()
    yield
    bch_module._PER_M.clear()


def _designed_cosets(m, t):
    """The distinct 2-cyclotomic cosets mod 2^m - 1 that meet {1, ..., 2t},
    each walked from its first exponent: the coset-walk oracle of the
    leader memo."""
    n = (1 << m) - 1
    seen = set()
    cosets = []
    for e in range(1, 2 * t + 1):
        if e not in seen:
            coset = [e]
            c = 2 * e % n
            while c != e:
                coset.append(c)
                c = 2 * c % n
            seen.update(coset)
            cosets.append(coset)
    return cosets


_SMALL_CODES = [(m, t) for m in range(2, 9) for t in range(1, (1 << (m - 1)))]


@lru_cache(maxsize=None)
def _lcm_generator(m, t):
    field = GF2m(m)
    return poly_lcm([minimal_polynomial(field, j) for j in range(1, 2 * t + 1)])


def _assert_lists_match_cosets():
    """Every record's per-t lists, R and the count of leaders <= 2t, for
    every t it was walked to, against the coset walk."""
    for m, (leaders, rs, counts, _, _) in bch_module._PER_M.items():
        cosets = _designed_cosets(m, len(rs) - 1)
        assert leaders == [c[0] for c in cosets], m
        assert rs[0] == counts[0] == 0, m
        for t in range(1, len(rs)):
            hit = [c for c in cosets if c[0] <= 2 * t]
            assert (rs[t], counts[t]) == (sum(map(len, hit)), len(hit)), (m, t)


@pytest.mark.parametrize("order", ["shuffled", "descending-t"])
def test_construction_ignores_call_order(empty_memos, order):
    """Every admissible (m, t) with m <= 8, built from empty memos in a
    shuffled order or with t descending (so each m's leaders are found in
    one walk and later calls read a prefix), equals the lcm of the minimal
    polynomials of alpha^1..alpha^2t, and each m's per-t lists equal the
    coset walk."""
    pairs = list(_SMALL_CODES)
    if order == "shuffled":
        random.Random(16).shuffle(pairs)
    else:
        pairs.sort(key=lambda mt: (mt[0], -mt[1]))
    assert len(pairs) == 247
    for m, t in pairs:
        code = bch_construct(m, t)
        assert code.generator == _lcm_generator(m, t), (m, t)
        assert code.r == parity_bit_count(m, t) == sum(map(len, _designed_cosets(m, t)))
    _assert_lists_match_cosets()


def test_parity_bit_count_ignores_call_order(empty_memos):
    """m = 17..40, past every field, t <= 64, asked from empty memos in a
    shuffled order and again with t descending, against the coset walk,
    and so are the per-t lists; no record gets a field."""
    pairs = [(m, t) for m in range(17, 41) for t in range(1, 65)]
    random.Random(17).shuffle(pairs)
    for order in (pairs, sorted(pairs, key=lambda mt: (mt[0], -mt[1]))):
        bch_module._PER_M.clear()
        for m, t in order:
            assert parity_bit_count(m, t) == sum(map(len, _designed_cosets(m, t))), (m, t)
        assert sorted(bch_module._PER_M) == list(range(17, 41))
        assert all(record[4] is None for record in bch_module._PER_M.values())
        assert all(len(record[1]) == 65 for record in bch_module._PER_M.values())
        _assert_lists_match_cosets()


def test_memos_walk_only_as_far_as_asked(empty_memos):
    """t = 1 walks exponents 1 and 2 of GF(2^16), not its 4,115 cosets,
    and keeps one record: leader 1, R and the leader count for t = 0, 1,
    one generator product, the minimal polynomial of alpha, and the code's
    field.  parity_bit_count(16, 3) then walks on to t = 3 only."""
    code = bch_construct(16, 1)
    primitive = BinaryPolynomial(PRIMITIVE_POLYNOMIALS[16])
    assert bch_module._PER_M == {16: [[1], [0, 16], [0, 1], [primitive], code.field]}
    assert bch_module._PER_M[16][4] is code.field
    assert parity_bit_count(16, 3) == 48
    assert bch_module._PER_M[16][:4] == [[1, 3, 5], [0, 16, 32, 48], [0, 1, 2, 3], [primitive]]


def test_codes_of_one_m_share_one_field(empty_memos):
    """For m = 2..16, the t = 1 code, the code of the largest admissible t
    and that code shortened to dimension 1 all use the one GF(2^m) that
    m's first bch_construct built, over the default primitive polynomial."""
    for m in range(2, 17):
        field = bch_construct(m, 1).field
        assert (field.m, field.primitive_polynomial.mask) == (m, PRIMITIVE_POLYNOMIALS[m])
        largest = bch_construct(m, (1 << (m - 1)) - 1)
        assert largest.field is field, m
        assert largest.shortened(largest.k - 1).field is field, m
        assert bch_module._PER_M[m][4] is field, m


def test_generators_multiply_each_leader_in_once(empty_memos, monkeypatch):
    """Every admissible code of m = 10, in ascending t from empty memos,
    costs one polynomial product per coset leader <= 2 t_max; building
    them all again costs none."""
    calls = []
    mul = BinaryPolynomial.__mul__

    def counting_mul(a, b):
        calls.append(None)
        return mul(a, b)

    monkeypatch.setattr(BinaryPolynomial, "__mul__", counting_mul)
    ts = range(1, 512)
    for t in ts:
        bch_construct(10, t)
    leaders = len(_designed_cosets(10, ts[-1]))
    assert leaders == len(bch_module._PER_M[10][3])
    assert len(calls) == leaders
    calls.clear()
    for t in ts:
        bch_construct(10, t)
    assert calls == []


def _count_construction_calls(monkeypatch):
    """A list that gets "minpoly" for each minimal_polynomial bch_construct
    asks for and "mul" for each BinaryPolynomial product."""
    calls = []
    minpoly = bch_module.minimal_polynomial
    mul = BinaryPolynomial.__mul__

    def counting_minpoly(field, e):
        calls.append("minpoly")
        return minpoly(field, e)

    def counting_mul(a, b):
        calls.append("mul")
        return mul(a, b)

    monkeypatch.setattr(bch_module, "minimal_polynomial", counting_minpoly)
    monkeypatch.setattr(BinaryPolynomial, "__mul__", counting_mul)
    return calls


def test_a_warm_construct_makes_no_minimal_polynomial_and_no_product(empty_memos, monkeypatch):
    """Once m's record is walked past t and its products past the (m, t)
    leader count, bch_construct asks for neither a minimal polynomial nor a
    product.  A record walked by parity_bit_count alone, or with products
    short of a larger t, multiplies in each missing leader once."""
    calls = _count_construction_calls(monkeypatch)
    assert parity_bit_count(10, 100) == 745
    counts = bch_module._PER_M[10][2]
    assert (counts[50], counts[100]) == (46, 76)
    assert calls == []
    bch_construct(10, 50)
    assert calls == ["minpoly", "mul"] * 46
    calls.clear()
    for t in (1, 2, 49, 50, 50):
        bch_construct(10, t)
    assert calls == []
    bch_construct(10, 100)
    assert calls == ["minpoly", "mul"] * 30
    calls.clear()
    for t in (100, 75, 1):
        bch_construct(10, t)
    assert calls == []


_ADMISSIBLE_3_10 = [(m, t) for m in range(3, 11) for t in range(1, 1 << (m - 1))]


@pytest.fixture(scope="module")
def cold_builds():
    """(n, k, r, generator) of each code of _ADMISSIBLE_3_10, built alone
    on an empty memo."""
    builds = {}
    for m, t in _ADMISSIBLE_3_10:
        bch_module._PER_M.clear()
        code = bch_construct(m, t)
        builds[m, t] = code.n, code.k, code.r, code.generator
    bch_module._PER_M.clear()
    return builds


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_every_code_of_m_3_to_10_equals_its_cold_build(empty_memos, cold_builds, order):
    """All 1,012 admissible (m, t) with m = 3..10, built from an empty memo
    in ascending t, descending t or a shuffled order, each equal in n, k, r
    and generator to the code built alone on an empty memo.  Ascending and
    shuffled orders extend a record's non-empty products past their end
    (the warm record's extending branch); descending t walks each m once."""
    pairs = list(_ADMISSIBLE_3_10)
    if order == "descending":
        pairs.sort(key=lambda mt: (mt[0], -mt[1]))
    elif order == "shuffled":
        random.Random(35).shuffle(pairs)
    assert len(pairs) == 1012
    extended = 0
    for m, t in pairs:
        before = len(bch_module._PER_M[m][3]) if m in bch_module._PER_M else 0
        code = bch_construct(m, t)
        assert (code.n, code.k, code.r, code.generator) == cold_builds[m, t], (m, t)
        extended += 0 < before < len(bch_module._PER_M[m][3])
    assert (extended > 0) == (order != "descending")


def test_another_fields_minimal_polynomials_do_not_leak(empty_memos):
    """Minimal polynomials computed over x^4 + x^3 + 1 first leave
    bch_construct(4, t), over the default x^4 + x + 1, unchanged."""
    other = GF2m(4, 0b11001)
    for e in range(1, 15):
        minimal_polynomial(other, e)
    assert minimal_polynomial(other, 1).mask == 0b11001
    for t in range(1, 8):
        assert bch_construct(4, t).generator == _lcm_generator(4, t), t
    assert bch_construct(4, 1).generator.mask == 0b10011


def test_construct_rejects_infeasible_t():
    with pytest.raises(ValueError):
        bch_construct(2, 5)  # 2t >= n
    with pytest.raises(ValueError):
        bch_construct(4, 8)


def test_shortening_bookkeeping():
    code = bch_construct(5, 3)
    short = code.shortened(10)
    assert (short.length, short.dimension, short.distance) == (21, 6, 7)
    assert short.r == code.r
    assert short.length - short.dimension == code.n - code.k
    # shortening composes
    assert code.shortened(3).shortened(7).shorten_by == 10
    with pytest.raises(ValueError):
        code.shortened(16)  # would exceed the dimension
    with pytest.raises(ValueError):
        code.shortened(-1)


def test_generator_matrix_is_systematic_and_frozen():
    code = bch_construct(5, 3).shortened(10)
    g = code.generator_matrix()
    assert (g.rows, g.cols) == (6, 21)
    rows = ["".join(str(b) for b in g.row_bits(i)) for i in range(6)]
    assert rows == SHORTENED_21_6_ROWS


def test_generator_matrix_rows_are_codewords():
    """Every row, shifted back to the parent code, is a multiple of g."""
    for m, t, a in [(4, 1, 0), (5, 3, 10), (6, 3, 20)]:
        code = bch_construct(m, t).shortened(a)
        g = code.generator_matrix()
        for i in range(g.rows):
            lifted = BinaryPolynomial(g.row_mask(i) << a)
            assert (lifted % code.generator).is_zero


def test_encode_matches_generator_matrix():
    rng = random.Random(71)
    for m, t, a in [(5, 3, 0), (5, 3, 10), (6, 3, 12)]:
        code = bch_construct(m, t).shortened(a)
        g = code.generator_matrix()
        for _ in range(40):
            msg = [rng.randrange(2) for _ in range(code.dimension)]
            word = bch_encode(code, msg)
            want = [0] * code.length
            for i, bit in enumerate(msg):
                if bit:
                    want = [w ^ r for w, r in zip(want, g.row_bits(i))]
            assert list(word) == want
            assert list(word[: code.dimension]) == msg  # systematic prefix


def test_encode_validates_length():
    code = bch_construct(4, 1)
    with pytest.raises(ValueError):
        bch_encode(code, [0] * 10)


def _min_weight(code: BchCode) -> int:
    best = code.length
    for msg_mask in range(1, 1 << code.dimension):
        msg = [(msg_mask >> i) & 1 for i in range(code.dimension)]
        w = sum(bch_encode(code, msg))
        best = min(best, w)
    return best


def test_minimum_distance_exhaustive():
    """The designed distance is met by every code small enough to scan."""
    assert _min_weight(bch_construct(3, 1)) == 3
    assert _min_weight(bch_construct(4, 1)) == 3
    assert _min_weight(bch_construct(5, 3).shortened(10)) == 7


def test_minimum_distance_31_16():
    # 2^16 codewords; packed popcount keeps this quick
    code = bch_construct(5, 3)
    best = code.n
    for msg_mask in range(1, 1 << code.k):
        msg = [(msg_mask >> i) & 1 for i in range(code.k)]
        best = min(best, sum(bch_encode(code, msg)))
    assert best == 7


def test_decode_exhaustive_hamming():
    code = bch_construct(4, 1)
    for msg_mask in range(1 << code.k):
        msg = tuple((msg_mask >> i) & 1 for i in range(code.k))
        word = list(bch_encode(code, msg))
        assert bch_decode(code, word) == (msg, ())
        for pos in range(code.length):
            flipped = list(word)
            flipped[pos] ^= 1
            assert bch_decode(code, flipped) == (msg, (pos,))


@pytest.mark.parametrize("m,t,a", [(5, 3, 0), (5, 3, 10), (6, 3, 0), (6, 5, 25)])
def test_decode_random_errors_up_to_t(m, t, a):
    code = bch_construct(m, t).shortened(a)
    rng = random.Random(1000 * m + t)
    for _ in range(200):
        msg = tuple(rng.randrange(2) for _ in range(code.dimension))
        word = list(bch_encode(code, msg))
        w = rng.randrange(t + 1)
        flipped_at = sorted(rng.sample(range(code.length), w))
        for pos in flipped_at:
            word[pos] ^= 1
        assert bch_decode(code, word) == (msg, tuple(flipped_at))


def test_decode_flags_uncorrectable_prefix_error():
    """A word explained only by an error in the removed prefix must fail.

    Row 9 of the parent [31,16] generator matrix is a codeword whose only
    bit below position 10 is the message bit at position 9.  Truncating it
    to the last 21 coordinates gives a word at distance 1 from the parent
    code, with the error inside the shortened-away prefix.
    """
    parent = bch_construct(5, 3)
    code = parent.shortened(10)
    row9 = parent.generator_matrix().row_bits(9)
    assert row9[9] == 1 and sum(row9[:10]) == 1
    received = list(row9[10:])
    assert bch_decode(code, received) is None


def test_decode_validates_length():
    code = bch_construct(5, 3).shortened(10)
    with pytest.raises(ValueError):
        bch_decode(code, [0] * 31)


def test_decode_beyond_t_never_returns_quietly_wrong_parity():
    """Whatever decode returns for heavy noise re-encodes consistently."""
    code = bch_construct(5, 3).shortened(10)
    rng = random.Random(73)
    for _ in range(300):
        word = [rng.randrange(2) for _ in range(code.length)]
        out = bch_decode(code, word)
        if out is None:
            continue
        msg, positions = out
        again = bch_encode(code, list(msg))
        dist = sum(a ^ b for a, b in zip(word, again))
        assert dist <= code.t
        assert dist == len(positions)
        assert all(word[p] != again[p] for p in positions)


# sha256 of _decode_mask over _decode_pin_words, recorded with an independent
# root search (a Chien search over all n parent positions); it pins the
# beyond-t behaviour (which words give up, which land on a wrong codeword)
DECODE_PINS = {
    (5, 3, 10):
        "da8cbb82f48bab03978320d8757dc6f41cfb8d368b7f94b707417c06399aa7cd",
    (6, 5, 25):
        "e39596e2707a63be575f1b11cb9691258c0dc74b9c9dc167e80ba6050bb48592",
    (4, 2, 0):
        "75b7b2bc8d7dd0cfa28fd7701c0a8d122cf08d62fa53aa1359e15ee522680871",
    (7, 4, 60):
        "1924d8f28901b60d13bbf3cb68d991894731495e0b5ab3ac45ffd216aac7fb48",
}


def _decode_pin_words(code, seed, per_weight=150):
    """Seeded received words: codewords with 0..t+3 flips, then uniform words."""
    rng = random.Random(seed)
    for w in range(code.t + 4):
        for _ in range(per_weight):
            word = code._encode_mask(rng.getrandbits(code.dimension))
            for p in rng.sample(range(code.length), w):
                word ^= 1 << p
            yield word
    for _ in range(per_weight):
        yield rng.getrandbits(code.length)


@pytest.mark.parametrize("m,t,a", sorted(DECODE_PINS))
def test_decode_results_are_pinned(m, t, a):
    code = bch_construct(m, t).shortened(a)
    digest = hashlib.sha256()
    gave_up = 0
    for word in _decode_pin_words(code, 100 * m + 10 * t + a):
        out = code._decode_mask(word)
        gave_up += out is None
        digest.update(repr((word, out)).encode())
    assert gave_up > 0  # the pinned set reaches past the decoding radius
    assert digest.hexdigest() == DECODE_PINS[(m, t, a)]


@pytest.mark.parametrize("m,t,a", [(4, 2, 3), (4, 3, 1), (5, 2, 16)])
def test_decode_is_bounded_distance_by_brute_force(m, t, a):
    """Over every received word: a decode lands on the one codeword within
    distance t, and None comes only when there is no such codeword."""
    code = bch_construct(m, t).shortened(a)
    codewords = [code._encode_mask(msg) for msg in range(1 << code.dimension)]
    gave_up = 0
    for word in range(1 << code.length):
        near = [c for c in codewords if (word ^ c).bit_count() <= t]
        out = code._decode_mask(word)
        if out is None:
            assert near == []
            gave_up += 1
            continue
        msg, positions = out
        corrected = word ^ sum(1 << p for p in positions)
        assert near == [code._encode_mask(msg)] == [corrected]
    # the words outside every radius-t ball
    ball = sum(comb(code.length, w) for w in range(t + 1))
    assert gave_up == (1 << code.length) - len(codewords) * ball


# --- parameter selection -----------------------------------------------------


def test_select_parameters_known_points():
    assert bch_select_parameters(6, 3) == (5, 15)
    assert bch_select_parameters(10, 11) == (7, 70)
    assert bch_select_parameters(1, 1) == (2, 2)
    assert bch_select_parameters(10, 3) == (5, 15)
    # counting builds no field, so m runs past the primitive-polynomial table
    assert bch_select_parameters(10, 6000) == (17, 79815)


def test_select_parameters_monotone_in_ell():
    last = 2
    for ell in range(1, 200):
        m, _ = bch_select_parameters(ell, 3)
        assert m >= last
        assert ell <= (1 << m) - 3 * m - 1
        last = m


def _select_m_from_two(ell, t):
    """The smallest admissible m, searched upward from 2."""
    m = 2
    while 2 * t >= (1 << m) - 1 or ell > (1 << m) - m * t - 1:
        m += 1
    return m


def test_select_parameters_equals_the_search_from_two():
    """Starting the search at ell's bit length skips only m that cannot
    qualify: ell = 1..4096 and 2^k +- 1 up to k = 40, for t = 1..16."""
    ells = set(range(1, 4097)) | {(1 << k) + d for k in range(1, 41) for d in (-1, 1)}
    for ell in sorted(ells):
        for t in range(1, 17):
            m = _select_m_from_two(ell, t)
            assert bch_select_parameters(ell, t) == (m, parity_bit_count(m, t)), (ell, t)


_WALK_ORDERS = {
    "ascending": list(range(1, 17)),
    "descending": list(range(16, 0, -1)),
    "shuffled": random.Random(25).sample(range(1, 17), 16),
    "repeated": [1, 1, 5, 5, 5, 2, 16, 16, 3, 3, 16, 1, 1],
}


def test_select_walk_equals_the_search_from_two():
    """One walk of m across t, with t ascending, descending, shuffled and
    repeated, gives each t the search from m = 2 and its parity count:
    ell = 1..4096 and 2^k +- 1 up to k = 40, for t = 1..16.  A table's bch
    column is the same walk, checked on ell = 1..128 and the 2^k +- 1."""
    ells = set(range(1, 4097)) | {(1 << k) + d for k in range(1, 41) for d in (-1, 1)}
    table_ells = set(range(1, 129)) | {e for e in ells if e > 4096}
    for ell in sorted(ells):
        want = {}
        for t in range(1, 17):
            m = _select_m_from_two(ell, t)
            want[t] = (m, parity_bit_count(m, t))
        for order, ts in _WALK_ORDERS.items():
            assert list(_select_parameters(ell, ts)) == [want[t] for t in ts], (ell, order)
            if ell in table_ells:
                got = [r.bch for r in overhead_table([ell], ts)]
                assert got == [want[t][1] for t in ts], (ell, order)


@pytest.mark.parametrize(
    "ells, ts",
    [([5, 0], [1, 2]), ([-3, 5], [1]), ([5], [3, 1, 0, 2]), ([5, 6], [2, 4, -1]), ([0], [0])],
)
def test_table_refuses_what_selection_refuses(ells, ts):
    """An ell < 1 or a t < 1 anywhere in a table raises the ValueError
    that bch_select_parameters raises at the first such (ell, t) in row
    order."""
    for ell, t in itertools.product(ells, ts):
        try:
            bch_select_parameters(ell, t)
        except ValueError as exc:
            message = str(exc)
            break
    with pytest.raises(ValueError) as raised:
        overhead_table(ells, ts)
    assert str(raised.value) == message


def _rows_one_at_a_time(ells, ts):
    """The overhead rows built one (ell, t) at a time from
    bch_select_parameters and fujiwara_extra_measurements."""
    return [
        (ell, t, bch_select_parameters(ell, t)[1],
         fujiwara_extra_measurements(ell, t)[0] if 2 * t <= ell else None, 2 * t * ell)
        for ell in ells for t in ts
    ]


@pytest.mark.parametrize(
    "ells, ts", [(range(1, 257), range(1, 33)), (range(1, 65), [3, 1, 16, 2, 16])],
    ids=["256x32", "64x5-unordered"],
)
def test_table_equals_rows_built_one_at_a_time(empty_memos, ells, ts):
    """From empty memos, and again warm, a table equals its rows built one
    (ell, t) at a time."""
    cold = overhead_table(ells, ts)
    want = _rows_one_at_a_time(ells, ts)
    assert [tuple(r) for r in cold] == want
    assert [tuple(r) for r in overhead_table(ells, ts)] == want


def test_warm_table_makes_no_walk(empty_memos, monkeypatch):
    """The 64 x 16 table walks a record 17 times from empty memos, once
    each time a row's t passes the end of its m's lists, and not at all
    warm: a row reads R off the list of the m it selects."""
    calls = []
    walk = bch_module._walk

    def counting(m, t):
        calls.append((m, t))
        return walk(m, t)

    monkeypatch.setattr(bch_module, "_walk", counting)
    cold = overhead_table(range(1, 65), range(1, 17))
    assert len(calls) == 17
    calls.clear()
    assert overhead_table(range(1, 65), range(1, 17)) == cold
    assert calls == []


@pytest.mark.parametrize("warm", [False, True], ids=["empty", "warm"])
def test_counting_entry_points_read_integers_alone(empty_memos, warm):
    """A bool or float m, t or ell is a ValueError naming it, whatever the
    memo holds, and a t below 1 is refused as such; numpy integers count
    as the Python ones."""
    if warm:
        bch_construct(3, 1)
        bch_construct(4, 1)
        overhead_table(range(1, 17), range(1, 5))
    refused = [
        (parity_bit_count, (4.0, 1), 4.0), (parity_bit_count, (4, 1.0), 1.0),
        (parity_bit_count, (4, True), True), (bch_construct, (3, 1.0), 1.0),
        (bch_construct, (4, True), True), (bch_construct, (4.0, 1), 4.0),
        (bch_select_parameters, (10.0, 3), 10.0), (bch_select_parameters, (10, 3.0), 3.0),
        (bch_select_m, (10, True), True), (bch_select_m, (10.5, 3), 10.5),
        (fujiwara_extra_measurements, (10, True), True), (fujiwara_extra_measurements, (10.0, 3), 10.0),
        (overhead_table, ([10.0], [3]), 10.0), (overhead_table, ([10], [1, 3.0]), 3.0),
        (overhead_table, ([True], [1]), True), (overhead_table, ([10], [np.bool_(True)]), np.bool_(True)),
    ]
    for call, args, bad in refused:
        with pytest.raises(ValueError, match=f"must be an integer, got {bad!r}$"):
            call(*args)
    for m, t in [(4, 0), (4, -1), (3, -7)]:
        for call in (parity_bit_count, bch_construct):
            with pytest.raises(ValueError, match="^t must be at least 1$"):
                call(m, t)
    assert parity_bit_count(np.int64(4), np.int32(1)) == parity_bit_count(4, 1) == 4
    code = bch_construct(np.int64(3), np.int64(1))
    assert (type(code.t), code.distance) == (int, 3)
    assert bch_select_parameters(np.int64(10), np.int16(3)) == bch_select_parameters(10, 3)
    assert fujiwara_extra_measurements(np.int64(10), np.int64(3)) == (76, [6, 10, 10])
    (row,) = overhead_table([np.int64(10)], [np.int64(3)])
    assert row == (10, 3, 15, 76, 60) and all(type(v) is int for v in row)


def test_select_parameters_infeasible():
    with pytest.raises(ValueError):
        bch_select_parameters(0, 1)
    with pytest.raises(ValueError):
        bch_select_parameters(5, 0)


def test_select_m_builds_the_shortened_code():
    m, code = bch_select_m(10, 11)
    assert m == 7
    assert (code.length, code.dimension, code.distance) == (80, 10, 23)
    assert code.r == 70

    m, code = bch_select_m(6, 3)
    assert m == 5
    assert (code.length, code.dimension, code.distance) == (21, 6, 7)


def test_parity_bit_count_matches_cosets():
    for m in range(2, 11):
        n = (1 << m) - 1
        cosets = cyclotomic_cosets(m)
        for t in range(1, (n - 1) // 2 + 1):
            hit = [c for c in cosets if any(1 <= e <= 2 * t for e in c)]
            assert parity_bit_count(m, t) == sum(len(c) for c in hit)
            assert parity_bit_count(m, t) <= m * t


@pytest.mark.parametrize("m", range(2, 7))
def test_parity_bit_count_matches_generator_degree(m):
    n = (1 << m) - 1
    for t in range(1, (n - 1) // 2 + 1):
        assert parity_bit_count(m, t) == bch_construct(m, t).generator.degree


def test_parity_bit_count_matches_generator_degree_larger_fields():
    for m, ts in [(7, range(1, 16)), (8, range(1, 13))]:
        for t in ts:
            assert parity_bit_count(m, t) == bch_construct(m, t).generator.degree


_parent_code = lru_cache(maxsize=None)(bch_construct)


@st.composite
def _bch_codes(draw):
    """A (possibly shortened) code for random feasible (m, t, shorten)."""
    m = draw(st.integers(3, 6))
    t = draw(st.integers(1, ((1 << m) - 2) // 2))
    code = _parent_code(m, t)
    return code.shortened(draw(st.integers(0, code.k - 1)))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_bch_codes(), st.data())
def test_tuple_encode_decode_match_mask_twins(code, data):
    bits = st.integers(0, 1)
    msg = data.draw(st.lists(bits, min_size=code.dimension, max_size=code.dimension))
    word_mask = code._encode_mask(sum(b << i for i, b in enumerate(msg)))
    word = code.encode(msg)
    assert word == tuple((word_mask >> j) & 1 for j in range(code.length))
    assert code.decode(word) == (tuple(msg), ())
    # flips up to t + 2 reach both the corrected and the given-up outcomes
    flips = data.draw(st.sets(st.integers(0, code.length - 1), max_size=code.t + 2))
    received = [b ^ (j in flips) for j, b in enumerate(word)]
    want = code._decode_mask(word_mask ^ sum(1 << j for j in flips))
    if want is None:
        assert code.decode(received) is None
    else:
        msg_mask, positions = want
        assert code.decode(received) == (
            tuple((msg_mask >> i) & 1 for i in range(code.dimension)),
            positions,
        )
    for call, arg in ((code.encode, msg), (code.decode, received)):
        arg[data.draw(st.integers(0, len(arg) - 1))] = 2
        with pytest.raises(ValueError):
            call(arg)
