"""Pauli algebra and stabilizer codes, with a matrix-representation oracle."""

import random
from collections import Counter
from itertools import combinations, product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdsbch.linalg import BinaryMatrix, _mask_dtype
from qdsbch.stabilizer import (
    BudgetExceededError,
    LookupDecoder,
    PauliOperator,
    StabilizerCode,
    _min_logical_weight,
    _pauli_masks,
    css_from_parity,
    format_stabilizer_code,
    hamming_parity_check,
    iter_weight_paulis,
    lookup_decoder_build,
    parse_stabilizer_code,
    steane_code,
    symplectic_product,
)

STEANE_GENERATORS = ["XIXIXIX", "IXXIIXX", "IIIXXXX", "ZIZIZIZ", "IZZIIZZ", "IIIZZZZ"]
FIVE_QUBIT_GENERATORS = ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]  # the non-CSS [[5,1,3]] code
SHOR_GENERATORS = [
    "ZZIIIIIII", "IZZIIIIII", "IIIZZIIII", "IIIIZZIII", "IIIIIIZZI", "IIIIIIIZZ",
    "XXXXXXIII", "IIIXXXXXX",
]


# --- Pauli operators ---------------------------------------------------------


def test_pauli_string_roundtrip():
    for s in ("IIII", "XYZI", "Y", "ZZZZZZZ"):
        assert PauliOperator.from_string(s).to_string() == s


def test_pauli_parse_rejects_garbage():
    with pytest.raises(ValueError):
        PauliOperator.from_string("XA")
    with pytest.raises(ValueError):
        PauliOperator.from_string("")


def test_pauli_weight_and_bits():
    p = PauliOperator.from_string("IXZY")
    assert p.weight == 3
    assert p.x_bits == (0, 1, 0, 1)
    assert p.z_bits == (0, 0, 1, 1)


def test_pauli_product_is_phase_free_composition():
    x = PauliOperator.from_string("X")
    z = PauliOperator.from_string("Z")
    y = PauliOperator.from_string("Y")
    assert x * z == y
    assert x * x == PauliOperator.from_string("I")
    assert (x * y) == z
    a = PauliOperator.from_string("XYZI")
    assert a * a == PauliOperator.from_string("IIII")


def test_pauli_product_length_mismatch():
    with pytest.raises(ValueError):
        PauliOperator.from_string("XX") * PauliOperator.from_string("X")


_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _as_matrix(p: PauliOperator) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for c in p.to_string():
        out = np.kron(out, _MATS[c])
    return out


def test_commutation_matches_matrix_oracle():
    """commutes_with agrees with AB = BA on explicit tensor products."""
    paulis = ["".join(p) for p in product("IXYZ", repeat=3)]
    mats = {s: _as_matrix(PauliOperator.from_string(s)) for s in paulis}
    for a in paulis:
        pa = PauliOperator.from_string(a)
        for b in paulis:
            pb = PauliOperator.from_string(b)
            commutes = np.allclose(mats[a] @ mats[b], mats[b] @ mats[a])
            assert pa.commutes_with(pb) == commutes
            assert symplectic_product(pa, pb) == (0 if commutes else 1)


def test_symplectic_product_is_bilinear():
    rng = random.Random(61)
    letters = "IXYZ"
    for _ in range(200):
        a = PauliOperator.from_string("".join(rng.choice(letters) for _ in range(6)))
        b = PauliOperator.from_string("".join(rng.choice(letters) for _ in range(6)))
        c = PauliOperator.from_string("".join(rng.choice(letters) for _ in range(6)))
        lhs = symplectic_product(a * b, c)
        rhs = symplectic_product(a, c) ^ symplectic_product(b, c)
        assert lhs == rhs


# the (x, z) bits of the letter codes of _pauli_masks: X, Y, Z, I
_LETTER_CODE_BITS = [(1, 0), (1, 1), (0, 1), (0, 0)]


def _pauli_from_codes(n, qubits, letters):
    x = z = 0
    for q, letter in zip(qubits, letters):
        xb, zb = _LETTER_CODE_BITS[letter]
        x |= xb << q
        z |= zb << q
    return PauliOperator(n, x, z)


@pytest.mark.parametrize("n", [1, 7, 31, 32, 35])
def test_pauli_masks_match_symplectic_mask(n):
    """Rows of distinct qubits with all four letters, on both sides of the
    62-bit line of int64 masks; an empty last axis is the identity."""
    rng = random.Random(n)
    qubits = np.array([rng.sample(range(n), min(n, 4)) for _ in range(60)])
    letters = np.array([[rng.randrange(4) for _ in row] for row in qubits])
    got = _pauli_masks(qubits, letters, n)
    assert got.dtype == _mask_dtype(2 * n)
    rows = zip(qubits.tolist(), letters.tolist())
    want = [_pauli_from_codes(n, q, ltr).symplectic_mask() for q, ltr in rows]
    assert got.tolist() == want
    # the qubit axis broadcast over every row, as the direct sampler draws it
    full = np.array([[rng.randrange(4) for _ in range(n)] for _ in range(10)])
    want = [_pauli_from_codes(n, range(n), row).symplectic_mask() for row in full.tolist()]
    assert _pauli_masks(np.arange(n), full, n).tolist() == want
    empty = np.zeros((3, 0), dtype=np.intp)
    assert _pauli_masks(empty, empty, n).tolist() == [0, 0, 0]


def _reference_weight_paulis(n, w):
    """The documented order spelled out: supports lexicographic, then the
    letters per position in X, Y, Z order."""
    for support in combinations(range(n), w):
        for letters in product(range(3), repeat=w):
            yield _pauli_from_codes(n, support, letters)


@pytest.mark.parametrize(
    "n, w", [(1, 0), (1, 1), (7, 0), (7, 1), (7, 3), (5, 5), (31, 2), (32, 1), (35, 2)]
)
def test_iter_weight_paulis_order(n, w):
    assert list(iter_weight_paulis(n, w)) == list(_reference_weight_paulis(n, w))


def test_iter_weight_paulis_counts():
    for n, w in [(5, 0), (5, 1), (5, 2), (4, 4)]:
        ops = list(iter_weight_paulis(n, w))
        assert len(ops) == comb(n, w) * 3**w
        assert len(set(ops)) == len(ops)
        assert all(op.weight == w and op.n == n for op in ops)


# --- stabilizer codes --------------------------------------------------------


def test_steane_parameters():
    code = steane_code()
    assert (code.n, code.k, code.ell) == (7, 1, 6)
    assert [g.to_string() for g in code.generators] == STEANE_GENERATORS


def test_css_from_parity_reproduces_steane():
    code = css_from_parity(hamming_parity_check())
    assert [g.to_string() for g in code.generators] == STEANE_GENERATORS


def test_css_from_parity_rejects_bad_input():
    # rows not orthogonal under h h^T
    with pytest.raises(ValueError):
        css_from_parity(BinaryMatrix.from_strings(["110", "101"]))
    # rank-deficient
    with pytest.raises(ValueError):
        css_from_parity(BinaryMatrix.from_strings(["1100", "1100"]))


def test_noncommuting_generators_rejected():
    with pytest.raises(ValueError) as err:
        StabilizerCode([PauliOperator.from_string("XI"), PauliOperator.from_string("ZI")])
    assert "commute" in str(err.value)


def test_dependent_generators_rejected():
    g = [PauliOperator.from_string("XX"), PauliOperator.from_string("XX")]
    with pytest.raises(ValueError):
        StabilizerCode(g)


def test_steane_known_syndromes():
    code = steane_code()
    # X on the first qubit: only the Z-type checks containing qubit 0 fire
    assert code.syndrome(PauliOperator.from_string("XIIIIII")) == (0, 0, 0, 1, 0, 0)
    # X on the last qubit: it sits in all three Z-type checks
    assert code.syndrome(PauliOperator.from_string("IIIIIIX")) == (0, 0, 0, 1, 1, 1)
    # Z errors fire the X-type checks symmetrically
    assert code.syndrome(PauliOperator.from_string("ZIIIIII")) == (1, 0, 0, 0, 0, 0)
    assert code.syndrome(PauliOperator.from_string("IIIIIIZ")) == (1, 1, 1, 0, 0, 0)
    assert code.syndrome(PauliOperator.identity(7)) == (0,) * 6


def test_syndrome_is_multiplicative():
    code = steane_code()
    rng = random.Random(67)
    letters = "IXYZ"
    for _ in range(100):
        a = PauliOperator.from_string("".join(rng.choice(letters) for _ in range(7)))
        b = PauliOperator.from_string("".join(rng.choice(letters) for _ in range(7)))
        sa = code.syndrome(a)
        sb = code.syndrome(b)
        sab = code.syndrome(a * b)
        assert sab == tuple(x ^ y for x, y in zip(sa, sb))


def test_steane_weight_one_syndromes_distinct():
    code = steane_code()
    seen = {}
    for e in iter_weight_paulis(7, 1):
        s = code.syndrome(e)
        assert s != (0,) * 6
        assert s not in seen, f"{e} and {seen[s]} collide"
        seen[s] = e
    assert len(seen) == 21


def _stabilizer_group(code):
    """All 2^ell products of the generators."""
    group = set()
    for mask in range(1 << code.ell):
        op = PauliOperator.identity(code.n)
        for i in range(code.ell):
            if (mask >> i) & 1:
                op = op * code.generators[i]
        group.add(op)
    return group


def test_classify_generator_products_trivial():
    code = steane_code()
    for op in _stabilizer_group(code):
        assert code.classify(op) == "trivial"


def test_classify_logical_and_detectable():
    code = steane_code()
    logical_x = PauliOperator.from_string("XXXIIII")  # zero syndrome, outside the group
    assert code.classify(logical_x) == "logical"
    assert code.classify(PauliOperator.from_string("IXIIIII")) == "detectable"
    assert code.classify(PauliOperator.identity(7)) == "trivial"


@pytest.mark.parametrize(
    "generators, max_weight, counts",
    [
        (FIVE_QUBIT_GENERATORS, 5, {"trivial": 16, "logical": 48, "detectable": 960}),
        (SHOR_GENERATORS, 2, {"trivial": 10, "detectable": 342}),
    ],
    ids=["five-qubit-all", "shor-weight-2"],
)
def test_classify_matches_group_enumeration(generators, max_weight, counts):
    """Oracle: trivial means one of the 2^ell generator products, detectable
    a nonzero syndrome, and anything else logical."""
    code = StabilizerCode([PauliOperator.from_string(s) for s in generators])
    group = _stabilizer_group(code)
    assert len(group) == 1 << code.ell
    seen = Counter()
    for w in range(max_weight + 1):
        for p in iter_weight_paulis(code.n, w):
            if p in group:
                want = "trivial"
            elif any(symplectic_product(g, p) for g in code.generators):
                want = "detectable"
            else:
                want = "logical"
            assert code.classify(p) == want, p
            seen[want] += 1
    assert seen == counts


@pytest.mark.parametrize(
    "generators, max_weight",
    [(STEANE_GENERATORS, 7), (FIVE_QUBIT_GENERATORS, 5), (SHOR_GENERATORS, 3)],
    ids=["steane-all", "five-qubit-all", "shor-weight-3"],
)
def test_batched_membership_matches_the_mask_loop(generators, max_weight):
    """The syndrome-and-class product against the one-Pauli loops: its low
    ell bits are the syndrome, and the class above them is 0 exactly for
    the elements of the stabilizer group."""
    code = StabilizerCode([PauliOperator.from_string(s) for s in generators])
    paulis = [p for w in range(max_weight + 1) for p in iter_weight_paulis(code.n, w)]
    paulis += _stabilizer_group(code)
    masks = np.array([p.symplectic_mask() for p in paulis], dtype=np.int64)
    product = code._syndrome_and_class._mul_masks(masks)
    want = [code.check_matrix._contains_mask(m) for m in masks.tolist()]
    assert ((product >> code.ell) == 0).tolist() == want
    assert sum(want) >= 1 << code.ell
    syndromes = [code._syndrome_mask(p.x, p.z) for p in paulis]
    assert (product & ((1 << code.ell) - 1)).tolist() == syndromes


# --- lookup decoder ----------------------------------------------------------


def test_lookup_decoder_steane_total():
    code = steane_code()
    dec = lookup_decoder_build(code, max_weight=1)
    assert isinstance(dec, LookupDecoder)
    assert dec.covered
    assert len(dec) == 64
    assert dec.max_weight == 1
    # identity and all weight-1 errors decode to themselves exactly
    assert dec.decode((0,) * 6) == PauliOperator.identity(7)
    for e in iter_weight_paulis(7, 1):
        assert dec.decode(code.syndrome(e)) == e
    # the remaining syndromes got weight-2 representatives
    weights = sorted(op.weight for op in dec._table.values())
    assert weights.count(0) == 1
    assert weights.count(1) == 21
    assert all(w == 2 for w in weights[22:])


def test_lookup_decoder_corrections_match_syndromes():
    code = steane_code()
    dec = lookup_decoder_build(code, max_weight=2)
    for mask in range(64):
        s = tuple((mask >> i) & 1 for i in range(6))
        op = dec.decode(s)
        assert op is not None
        assert code.syndrome(op) == s


def test_lookup_decoder_deterministic():
    code = steane_code()
    a = lookup_decoder_build(code, max_weight=1)
    b = lookup_decoder_build(code, max_weight=1)
    for mask in range(64):
        s = tuple((mask >> i) & 1 for i in range(6))
        assert a.decode(s) == b.decode(s)


def test_lookup_decoder_budget():
    code = steane_code()
    with pytest.raises(BudgetExceededError) as err:
        lookup_decoder_build(code, max_weight=3, budget=10)
    assert err.value.required > 10
    assert err.value.budget == 10


def test_lookup_decoder_rejects_bad_weight():
    code = steane_code()
    with pytest.raises(ValueError):
        lookup_decoder_build(code, max_weight=-1)
    with pytest.raises(ValueError):
        lookup_decoder_build(code, max_weight=8)


def test_decode_then_classify_is_trivial_up_to_t():
    """Correcting any weight <= 1 error leaves a stabilizer element."""
    code = steane_code()
    dec = lookup_decoder_build(code, max_weight=1)
    for w in (0, 1):
        for e in iter_weight_paulis(7, w):
            c = dec.decode(code.syndrome(e))
            assert code.classify(c * e) == "trivial"


# --- serialization -----------------------------------------------------------


def test_code_text_roundtrip():
    code = steane_code()
    text = format_stabilizer_code(code)
    lines = text.strip().split("\n")
    assert lines[0] == "7 1"
    assert lines[1:] == STEANE_GENERATORS
    again = parse_stabilizer_code(text)
    assert [g.to_string() for g in again.generators] == STEANE_GENERATORS


def test_parse_rejects_invalid_codes():
    with pytest.raises(ValueError):
        parse_stabilizer_code("2 1\nXI\nZI\n")  # anticommuting pair
    with pytest.raises(ValueError):
        parse_stabilizer_code("2 0\nXX\nXX\n")  # dependent rows
    with pytest.raises(ValueError):
        parse_stabilizer_code("2 1\nXXX\n")  # wrong length
    with pytest.raises(ValueError):
        parse_stabilizer_code("3 1\nXIX\n")  # line count inconsistent with k


_TWIN_CODES = [
    steane_code(),
    StabilizerCode([PauliOperator.from_string(s) for s in FIVE_QUBIT_GENERATORS]),
]
_TWIN_CASES = [(code, lookup_decoder_build(code, 1)) for code in _TWIN_CODES]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(_TWIN_CASES), st.data())
def test_syndrome_and_lookup_match_mask_twins(case, data):
    code, decoder = case
    x = data.draw(st.integers(0, (1 << code.n) - 1))
    z = data.draw(st.integers(0, (1 << code.n) - 1))
    syndrome = code.syndrome(PauliOperator(code.n, x, z))
    mask = code._syndrome_mask(x, z)
    assert syndrome == tuple((mask >> i) & 1 for i in range(code.ell))
    assert decoder.decode(syndrome) is decoder._decode_mask(mask)
    bad = list(syndrome)
    bad[data.draw(st.integers(0, code.ell - 1))] = 2
    with pytest.raises(ValueError):
        decoder.decode(bad)


# Hamming checks repeated over five blocks: 35 qubits (2n = 70 bits), and
# X or Z on qubits j and j + 7 is a weight-2 logical
WIDE = css_from_parity(
    BinaryMatrix.from_strings([row * 5 for row in ["1010101", "0110011", "0001111"]])
)


@pytest.mark.parametrize(
    "code, distance",
    [
        (steane_code(), 3),
        (StabilizerCode([PauliOperator.from_string(s) for s in FIVE_QUBIT_GENERATORS]), 3),
        (StabilizerCode([PauliOperator.from_string(s) for s in SHOR_GENERATORS]), 3),
        (WIDE, 2),
    ],
    ids=["steane", "five-qubit", "shor", "wide-70bit"],
)
def test_min_logical_weight_matches_the_classify_oracle(code, distance):
    oracle = next(
        w
        for w in range(1, code.n + 1)
        if any(code._classify_mask(p.x, p.z) == "logical" for p in iter_weight_paulis(code.n, w))
    )
    assert oracle == distance
    assert _min_logical_weight(code) == distance
    # the budget counts every Pauli of weight 1..d
    cost = sum(comb(code.n, w) * 3**w for w in range(1, distance + 1))
    assert _min_logical_weight(code, budget=cost) == distance
    assert _min_logical_weight(code, budget=cost - 1) is None
