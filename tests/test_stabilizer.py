"""Pauli algebra and stabilizer codes, with a matrix-representation oracle."""

import random
import re
import tracemalloc
from collections import Counter
from itertools import combinations, product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdsbch import stabilizer as stabilizer_module
from qdsbch.linalg import BinaryMatrix, _mask_dtype
from qdsbch.stabilizer import (
    BudgetExceededError,
    LookupDecoder,
    PauliOperator,
    StabilizerCode,
    _anticommuting,
    _min_logical_weight,
    _pauli_masks,
    _weight_pauli_blocks,
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


def _hamming_check(r):
    """The [2^r - 1, 2^r - 1 - r] Hamming parity check, columns 1.. in binary."""
    return BinaryMatrix.from_strings(
        ["".join(str((j >> i) & 1) for j in range(1, 1 << r)) for i in range(r)]
    )


def _quantum_hamming(r):
    """The [[2^r - 1, 2^r - 1 - 2r, 3]] CSS code of the Hamming check."""
    return css_from_parity(_hamming_check(r))


# --- Pauli operators ---------------------------------------------------------


def test_pauli_string_roundtrip():
    for s in ("IIII", "XYZI", "Y", "ZZZZZZZ"):
        assert PauliOperator.from_string(s).to_string() == s


def test_pauli_parse_rejects_garbage():
    with pytest.raises(ValueError):
        PauliOperator.from_string("XA")
    with pytest.raises(ValueError):
        PauliOperator.from_string("")


def test_from_string_reads_back_every_three_qubit_pauli():
    """from_string parses the letters to_string writes, for all 64 Paulis
    on 3 qubits."""
    for x, z in product(range(8), repeat=2):
        p = PauliOperator(3, x, z)
        assert PauliOperator.from_string(p.to_string()) == p


def test_from_string_refusals_are_pinned():
    with pytest.raises(ValueError) as empty:
        PauliOperator.from_string("")
    assert str(empty.value) == "empty Pauli string"
    with pytest.raises(ValueError) as bad:
        PauliOperator.from_string("XQ")
    assert str(bad.value) == "invalid Pauli letter 'Q' at position 1"


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


@pytest.mark.parametrize("n", [1, 7, 31, 32, 35, 40])
def test_anticommuting_matches_the_split_formula(n):
    """Bit i of `_anticommuting` is x_i.z + z_i.x (mod 2), with the halves
    split here, past 64-bit masks too."""
    rng = random.Random(n)
    paulis = [PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n)) for _ in range(40)]
    rows = [p.symplectic_mask() for p in paulis]
    for e in paulis:
        got = _anticommuting(rows, n, e.symplectic_mask())
        want = sum(
            (((r.x & e.z).bit_count() + (r.z & e.x).bit_count()) & 1) << i
            for i, r in enumerate(paulis)
        )
        assert got == want


@pytest.mark.parametrize("n", [1, 7, 32, 33, 35, 64])
def test_from_mask_inverts_symplectic_mask(n):
    rng = random.Random(n)
    full = (1 << n) - 1
    paulis = [PauliOperator(n, full, full), PauliOperator(n, full, 0), PauliOperator(n, 0, full)]
    paulis += [PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n)) for _ in range(50)]
    for p in paulis:
        back = PauliOperator._from_mask(n, p.symplectic_mask())
        assert (back.n, back.x, back.z) == (p.n, p.x, p.z)
    with pytest.raises(ValueError):
        PauliOperator._from_mask(n, 1 << (2 * n))


@pytest.mark.parametrize(
    "generators, pair",
    [
        (["XXII", "ZZII", "IIXX", "IIZX"], (2, 3)),
        (["ZIII", "IIZI", "XIII", "YIII"], (0, 2)),
        (["IIIX", "ZIII", "IZII", "XIII", "IXII"], (1, 3)),
    ],
)
def test_anticommuting_generators_are_named(generators, pair):
    """The error names the first anticommuting pair, i then j ascending."""
    i, j = pair
    with pytest.raises(ValueError) as info:
        StabilizerCode([PauliOperator.from_string(s) for s in generators])
    assert str(info.value) == (
        f"generators {i} and {j} anticommute: {generators[i]} vs {generators[j]}"
    )


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


def _reference_weight_masks(n, w):
    return [p.symplectic_mask() for p in _reference_weight_paulis(n, w)]


def _block_masks(n, w):
    """The masks of each block of `_weight_pauli_blocks`, one array a block."""
    return [_pauli_masks(q, ltr, n).reshape(-1) for q, ltr in _weight_pauli_blocks(n, w)]


def test_weight_pauli_blocks_keep_the_order_across_blocks():
    """(23, 4) spans eleven blocks of whole supports; each block is within
    the bound and their concatenation is the nested reference."""
    blocks = _block_masks(23, 4)
    assert len(blocks) == 11
    assert max(len(b) for b in blocks) <= stabilizer_module._PAULI_BLOCK
    assert np.concatenate(blocks).tolist() == _reference_weight_masks(23, 4)


@pytest.mark.parametrize("n, w", [(7, 3), (6, 5), (5, 5), (8, 7), (4, 0)])
def test_weight_pauli_blocks_split_letters_past_the_bound(monkeypatch, n, w):
    """With a 100-mask bound, 3^5 letters no longer fit one block, so each
    support's letters come a block at a time; 3^3 fit three supports a
    block.  The masks are those of the unpatched bound, in order."""
    monkeypatch.setattr(stabilizer_module, "_PAULI_BLOCK", 100)
    blocks = _block_masks(n, w)
    assert max(len(b) for b in blocks) <= 100
    if 3**w > 100:
        assert len(blocks) == comb(n, w) * -(-(3**w) // 100)
    assert np.concatenate(blocks).tolist() == _reference_weight_masks(n, w)


def test_iter_weight_paulis_streams_its_supports():
    """The first Pauli of weight 5 on 40 qubits once listed all 658,008
    supports first, a 100 MB peak; now only its block of them is made."""
    tracemalloc.start()
    try:
        first = next(iter_weight_paulis(40, 5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first == PauliOperator.from_string("XXXXX" + "I" * 35)
    assert peak < 32 << 20


def _first_pauli_peak(n, w):
    tracemalloc.start()
    try:
        first = next(iter_weight_paulis(n, w))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first == PauliOperator.from_string("X" * w + "I" * (n - w))
    return peak


def test_iter_weight_paulis_streams_its_letters():
    """The first Pauli of weight 12 on 12 qubits once listed all 531,441
    letter words first, a 138 MB peak, tripling with each further weight;
    now only its block of them is made, so weight 13 peaks near weight 12."""
    peak_12 = _first_pauli_peak(12, 12)
    peak_13 = _first_pauli_peak(13, 13)
    assert max(peak_12, peak_13) < 1.5 * min(peak_12, peak_13)
    assert max(peak_12, peak_13) < 40 << 20


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
    assert _hamming_check(3) == hamming_parity_check()


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
    syndromes = [code._syndrome_mask(p.symplectic_mask()) for p in paulis]
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
    weights = sorted(op.weight for op in _rows_table(dec).values())
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


@pytest.mark.parametrize(
    "bad", [True, np.bool_(True), 1.0, "1"], ids=["bool", "numpy-bool", "float", "str"]
)
def test_lookup_decoder_refuses_a_weight_that_is_not_an_integer(bad):
    """A bool weight was recorded as a grid's t_data, which the grid's file
    then refused, and a float raised a bare TypeError from range."""
    message = f"^max_weight must be an integer, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=message):
        lookup_decoder_build(steane_code(), max_weight=bad)


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
    mask = code._syndrome_mask(x | z << code.n)
    assert syndrome == tuple((mask >> i) & 1 for i in range(code.ell))
    assert decoder.decode(syndrome) == decoder._decode_mask(mask)
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
        (_quantum_hamming(4), 3),
    ],
    ids=["steane", "five-qubit", "shor", "wide-70bit", "hamming-15-7"],
)
def test_min_logical_weight_matches_the_classify_oracle(code, distance):
    oracle = next(
        w
        for w in range(1, code.n + 1)
        if any(
            code._classify_mask(p.symplectic_mask()) == "logical"
            for p in iter_weight_paulis(code.n, w)
        )
    )
    assert oracle == distance
    assert _min_logical_weight(code) == distance
    # the budget counts every Pauli of weight 1..d
    cost = sum(comb(code.n, w) * 3**w for w in range(1, distance + 1))
    assert _min_logical_weight(code, budget=cost) == distance
    assert _min_logical_weight(code, budget=cost - 1) is None


def _rows_table(decoder):
    """The decoder's rows as a syndrome -> PauliOperator dict."""
    n = decoder.code.n
    rows = zip(decoder._rows[:, 0].tolist(), decoder._rows[:, 2].tolist())
    return {s: PauliOperator(n, m & ((1 << n) - 1), m >> n) for s, m in rows}


def _per_pauli_lookup_table(code, max_weight, budget=10**7):
    """The lookup table one Pauli at a time, the oracle of the per-weight
    build: ascending weight, one syndrome per Pauli, and at equal weight
    the smaller (x_bits, z_bits) wins; enumeration goes on past
    max_weight, within budget, until every syndrome is reached."""
    table = {}
    spent = 0
    for w in range(code.n + 1):
        cost = comb(code.n, w) * 3**w
        if w > max_weight and spent + cost > budget:
            break
        spent += cost
        for p in iter_weight_paulis(code.n, w):
            s = code._syndrome_mask(p.symplectic_mask())
            held = table.get(s)
            if held is None or (
                held.weight == w and (p.x_bits, p.z_bits) < (held.x_bits, held.z_bits)
            ):
                table[s] = p
        if len(table) == 1 << code.ell:
            break
    return table


_ORACLE_CODES = {
    "steane": steane_code(),
    "five-qubit": StabilizerCode([PauliOperator.from_string(s) for s in FIVE_QUBIT_GENERATORS]),
    "shor": StabilizerCode([PauliOperator.from_string(s) for s in SHOR_GENERATORS]),
    "hamming-15-7": _quantum_hamming(4),
    "wide-70bit": WIDE,
}


@pytest.mark.parametrize("max_weight", [0, 1, 2])
@pytest.mark.parametrize("name", list(_ORACLE_CODES))
def test_lookup_table_matches_the_per_pauli_oracle(name, max_weight):
    """Every syndrome maps to the same Pauli as the one-Pauli-at-a-time
    build."""
    code = _ORACLE_CODES[name]
    decoder = lookup_decoder_build(code, max_weight)
    table = _rows_table(decoder)
    assert table == _per_pauli_lookup_table(code, max_weight)
    assert decoder.covered
    assert all(code._syndrome_mask(p.symplectic_mask()) == s for s, p in table.items())


@pytest.mark.parametrize(
    "name, syndromes, first_differs, largest_differs",
    [("steane", 63, 63, 63), ("five-qubit", 15, 13, 15)],
)
def test_the_tie_rule_decides_weight_two(name, syndromes, first_differs, largest_differs):
    """The oracle comparison sees the tie rule: among the weight-2 Paulis
    of each syndrome, the smallest (x_bits, z_bits) is mostly neither the
    first enumerated nor the largest, so a table keeping either differs."""
    code = _ORACLE_CODES[name]
    groups = {}
    for p in iter_weight_paulis(code.n, 2):
        groups.setdefault(code._syndrome_mask(p.symplectic_mask()), []).append(p)
    keyed = [sorted(ps, key=lambda p: (p.x_bits, p.z_bits)) for ps in groups.values()]
    first = [ps[0] for ps in groups.values()]
    assert len(groups) == syndromes
    assert sum(f != k[0] for f, k in zip(first, keyed)) == first_differs
    assert sum(k[-1] != k[0] for k in keyed) == largest_differs


def test_lookup_table_stops_between_weights_as_the_oracle_does():
    """A budget of 22 covers weights 0 and 1 of Steane and not weight 2."""
    code = steane_code()
    decoder = lookup_decoder_build(code, max_weight=1, budget=22)
    assert len(decoder) == 22
    assert _rows_table(decoder) == _per_pauli_lookup_table(code, 1, budget=22)


def _product_correction_classes(decoder):
    """The correction classes by product, the oracle of the class column:
    each correction's mask times `_syndrome_and_class`, shifted past the
    syndrome, at its syndrome, and -1 where the table has no entry."""
    code = decoder.code
    table = _rows_table(decoder)
    dtype = _mask_dtype(2 * code.n)
    corrections = np.array([p.symplectic_mask() for p in table.values()], dtype=dtype)
    classes = np.full(1 << code.ell, -1, dtype=dtype)
    classes[list(table)] = code._syndrome_and_class._mul_masks(corrections) >> code.ell
    return classes


@pytest.mark.parametrize(
    "name, max_weight, budget, misses",
    [(name, w, 10**7, 0) for name in _ORACLE_CODES for w in (0, 1, 2)]
    + [("steane", 1, 22, 42)],
)
def test_correction_classes_match_the_product(name, max_weight, budget, misses):
    """The class column the build keeps, scattered over all syndromes,
    equals the product over the table's corrections."""
    code = _ORACLE_CODES[name]
    decoder = lookup_decoder_build(code, max_weight, budget=budget)
    got = decoder._correction_classes
    want = _product_correction_classes(decoder)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()
    assert int(np.count_nonzero(got == -1)) == misses


def test_the_build_makes_no_pauli_operator(monkeypatch):
    """The table is held as rows: the build makes no PauliOperator, and a
    one-syndrome lookup makes only the one it returns."""
    code = _ORACLE_CODES["hamming-15-7"]
    made = []
    init = PauliOperator.__init__

    def counting(self, n, x, z):
        made.append((x, z))
        init(self, n, x, z)

    monkeypatch.setattr(PauliOperator, "__init__", counting)
    decoder = lookup_decoder_build(code, 1)
    assert decoder.covered
    assert decoder._correction_classes is not None
    assert made == []
    assert decoder.decode((0,) * code.ell) == PauliOperator.identity(code.n)
    assert len(made) == 2  # the correction, and the identity built to compare
    assert decoder._decode_mask(1) == decoder.decode((1,) + (0,) * (code.ell - 1))
    assert len(made) == 4


@pytest.mark.parametrize("max_weight, exact", [(0, True), (1, True), (0, False), (1, False), (2, False)])
@pytest.mark.parametrize("name", ["steane", "five-qubit", "shor", "wide-70bit"])
def test_lookup_equals_the_rows_dict_on_every_syndrome(name, max_weight, exact):
    """The binary search of the rows answers every syndrome, reached or
    missed, as the dict of the rows does.  An exact budget stops the build
    at max_weight, which leaves syndromes unreached; the 35-qubit code's
    rows are Python ints."""
    code = _ORACLE_CODES[name]
    budget = sum(comb(code.n, w) * 3**w for w in range(max_weight + 1)) if exact else 10**7
    decoder = lookup_decoder_build(code, max_weight, budget=budget)
    table = _rows_table(decoder)
    misses = 0
    for s in range(1 << code.ell):
        want = table.get(s)
        misses += want is None
        assert decoder._decode_mask(s) == want
        assert decoder.decode(tuple((s >> i) & 1 for i in range(code.ell))) == want
    assert misses == (1 << code.ell) - len(decoder)
    if not exact:
        assert misses == 0
    elif max_weight == 0:
        assert misses == (1 << code.ell) - 1  # the identity's syndrome alone


@pytest.mark.parametrize("name", ["steane", "shor", "hamming-15-7"])
def test_lookup_table_keeps_the_smallest_key_across_blocks(monkeypatch, name):
    """With a 4-Pauli bound, every weight spans many blocks (a support's 9
    or 27 letters are sliced), so a syndrome's winner may come from any of
    them; no product is taken over more than the bound."""
    monkeypatch.setattr(stabilizer_module, "_PAULI_BLOCK", 4)
    sizes = []
    products = StabilizerCode._pauli_products

    def spy(self, qubits, letters):
        out = products(self, qubits, letters)
        sizes.append(out[..., 0].size)
        return out

    monkeypatch.setattr(StabilizerCode, "_pauli_products", spy)
    code = _ORACLE_CODES[name]
    for max_weight in (1, 3):
        assert _rows_table(lookup_decoder_build(code, max_weight)) == _per_pauli_lookup_table(
            code, max_weight
        )
    assert max(sizes) == 4
    assert len(sizes) > 100


@pytest.mark.parametrize("name", list(_ORACLE_CODES))
def test_pauli_products_match_the_mask_product(name):
    """The sparse values against the batched product of the Paulis' masks:
    the syndrome and class (the low ell bits of the `_syndrome_and_class`
    product and the rest), the key (the mask's 2n bits reversed) and the
    mask itself."""
    code = _ORACLE_CODES[name]
    n, ell = code.n, code.ell
    for w in (0, 1, 2):
        for qubits, letters in _weight_pauli_blocks(n, w):
            got = code._pauli_products(qubits, letters).reshape(-1, 4).tolist()
            masks = _pauli_masks(qubits, letters, n).reshape(-1).tolist()
            product = code._syndrome_and_class._mul_masks(np.array(masks, dtype=_mask_dtype(2 * n)))
            want = [
                (p & ((1 << ell) - 1), p >> ell, int(f"{m:0{2 * n}b}"[::-1], 2), m)
                for p, m in zip(product.tolist(), masks)
            ]
            assert [tuple(row) for row in got] == want
