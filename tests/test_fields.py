"""Polynomial and field arithmetic checked against brute-force oracles."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdsbch.fields import (
    PRIMITIVE_POLYNOMIALS,
    BinaryPolynomial,
    GF2m,
    cyclotomic_cosets,
    minimal_polynomial,
    poly_lcm,
)


# --- BinaryPolynomial --------------------------------------------------------


def test_polynomial_basics():
    p = BinaryPolynomial.from_coefficients([1, 1, 0, 1])  # 1 + x + x^3
    assert p.degree == 3
    assert p.coefficients() == (1, 1, 0, 1)
    assert not p.is_zero
    assert BinaryPolynomial.zero().is_zero
    assert BinaryPolynomial.one().degree == 0
    assert BinaryPolynomial.x_power(5).coefficients() == (0, 0, 0, 0, 0, 1)


def test_polynomial_hex_roundtrip():
    rng = random.Random(11)
    for _ in range(50):
        p = BinaryPolynomial(rng.getrandbits(40))
        assert BinaryPolynomial.from_hex(p.to_hex()) == p
    assert BinaryPolynomial.from_hex("0x13").coefficients() == (1, 1, 0, 0, 1)


def test_polynomial_mul_matches_convolution():
    """Product coefficients are the mod-2 convolution of the factors'."""
    rng = random.Random(7)
    for _ in range(200):
        a = BinaryPolynomial(rng.getrandbits(24))
        b = BinaryPolynomial(rng.getrandbits(24))
        if a.is_zero or b.is_zero:
            assert (a * b).is_zero
            continue
        ca = np.array(a.coefficients(), dtype=np.int64)
        cb = np.array(b.coefficients(), dtype=np.int64)
        want = tuple(int(v) for v in np.convolve(ca, cb) % 2)
        assert (a * b).coefficients() == want


def test_polynomial_divmod_identity():
    rng = random.Random(13)
    for _ in range(300):
        a = BinaryPolynomial(rng.getrandbits(30))
        b = BinaryPolynomial(rng.getrandbits(12) | 1)
        if b.is_zero:
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree
        assert a % b == r
        assert a // b == q


def test_polynomial_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(BinaryPolynomial.one(), BinaryPolynomial.zero())


def test_polynomial_gcd_divides_both():
    rng = random.Random(17)
    for _ in range(100):
        g = BinaryPolynomial(rng.getrandbits(8) | 1)
        a = g * BinaryPolynomial(rng.getrandbits(10) | 1)
        b = g * BinaryPolynomial(rng.getrandbits(10) | 1)
        d = a.gcd(b)
        assert (a % d).is_zero
        assert (b % d).is_zero
        # gcd of multiples of g is itself a multiple of g
        assert (d % g).is_zero


def test_poly_lcm_properties():
    rng = random.Random(19)
    for _ in range(100):
        a = BinaryPolynomial(rng.getrandbits(10) | 1)
        b = BinaryPolynomial(rng.getrandbits(10) | 1)
        m = poly_lcm([a, b])
        assert (m % a).is_zero
        assert (m % b).is_zero
        assert m.degree == a.degree + b.degree - a.gcd(b).degree


def test_poly_lcm_of_one():
    p = BinaryPolynomial(0b1011)
    assert poly_lcm([p]) == p


# --- GF(2^m) -----------------------------------------------------------------


@pytest.mark.parametrize("m", range(2, 11))
def test_field_tables_exhaustive(m):
    """alpha generates the full multiplicative group; inv and log agree."""
    field = GF2m(m)
    n = field.group_order
    seen = set()
    for i in range(n):
        e = field.pow_alpha(i)
        assert 0 < e < (1 << m)
        seen.add(e)
        assert field.log_of(e) == i
    assert len(seen) == n
    for a in range(1, 1 << m):
        assert field.mul(a, field.inv(a)) == 1


def test_field_mul_is_log_addition():
    field = GF2m(8)
    n = field.group_order
    rng = random.Random(23)
    for _ in range(500):
        a = rng.randrange(1, 256)
        b = rng.randrange(1, 256)
        want = field.pow_alpha((field.log_of(a) + field.log_of(b)) % n)
        assert field.mul(a, b) == want
    assert field.mul(0, 37) == 0
    assert field.mul(37, 0) == 0


def test_field_mul_matches_polynomial_reduction():
    """Table lookups agree with direct polynomial multiplication mod p(x).
    Each non-default polynomial is built after the default field of its m,
    so tables shared by m alone would fail here."""
    for m, mask in ((3, None), (5, None), (8, None), (4, 0b11001), (5, 0b111101)):
        GF2m(m)
        field = GF2m(m, mask)
        p = BinaryPolynomial(PRIMITIVE_POLYNOMIALS[m] if mask is None else mask)
        rng = random.Random(m)
        for _ in range(200):
            a = rng.randrange(0, 1 << m)
            b = rng.randrange(0, 1 << m)
            want = (BinaryPolynomial(a) * BinaryPolynomial(b)) % p
            assert field.mul(a, b) == want.mask


def test_non_primitive_polynomial_rejected():
    # a rejected polynomial leaves nothing cached, so it raises every time
    for _ in range(2):
        # x^4 + x^3 + x^2 + x + 1 is irreducible but its root has order 5, not 15
        with pytest.raises(ValueError):
            GF2m(4, 0b11111)
        # x^4 + 1 = (x + 1)^4 is reducible
        with pytest.raises(ValueError):
            GF2m(4, 0b10001)
        with pytest.raises(ValueError):
            GF2m(4, 0b1011)  # wrong degree


def test_fields_of_one_polynomial_share_immutable_tables():
    for m in range(2, 11):
        a, b = GF2m(m), GF2m(m)
        assert a._log is b._log and a._antilog is b._antilog
        assert type(a._log) is tuple and type(a._antilog) is tuple
    other, default = GF2m(4, 0b11001), GF2m(4)
    assert other._log is not default._log
    assert other._antilog is not default._antilog


def test_all_default_polynomials_are_primitive():
    for m in PRIMITIVE_POLYNOMIALS:
        GF2m(m)  # table construction asserts primitivity


def test_unsupported_degree():
    with pytest.raises(ValueError):
        GF2m(1)
    with pytest.raises(ValueError):
        GF2m(17)


# --- cyclotomic cosets and minimal polynomials -------------------------------


@pytest.mark.parametrize("m", range(2, 11))
def test_cyclotomic_cosets_partition(m):
    n = (1 << m) - 1
    cosets = cyclotomic_cosets(m)
    all_elems = sorted(e for c in cosets for e in c)
    assert all_elems == list(range(n))
    for c in cosets:
        assert m % len(c) == 0
        for e in c:
            assert (2 * e) % n in c


def test_minimal_polynomial_known_values():
    # standard minimal polynomials over GF(16) built on x^4 + x + 1
    field = GF2m(4)
    assert minimal_polynomial(field, 0).mask == 0b11  # x + 1
    assert minimal_polynomial(field, 1).mask == 0b10011
    assert minimal_polynomial(field, 3).mask == 0b11111
    assert minimal_polynomial(field, 5).mask == 0b111
    assert minimal_polynomial(field, 7).mask == 0b11001


def _trial_divide_irreducible(p: BinaryPolynomial) -> bool:
    for mask in range(2, 1 << (p.degree // 2 + 1)):
        d = BinaryPolynomial(mask)
        if d.degree >= 1 and (p % d).is_zero:
            return False
    return True


@pytest.mark.parametrize("m", [4, 6])
def test_minimal_polynomial_properties(m):
    """Roots are exactly the coset conjugates; the polynomial is irreducible."""
    field = GF2m(m)
    n = field.group_order
    cosets = {c[0]: c for c in cyclotomic_cosets(m)}
    for lead, coset in cosets.items():
        mp = minimal_polynomial(field, lead)
        assert mp.degree == len(coset)
        roots = {e for e in range(n) if mp.eval_in(field, field.pow_alpha(e)) == 0}
        assert roots == set(coset)
        assert _trial_divide_irreducible(mp)


def _coset_product(field: GF2m, exponent: int) -> BinaryPolynomial:
    """Reference minimal polynomial: prod (x + alpha^c) over the coset of
    exponent, multiplied out in GF(2^m), whose coefficients must all lie in
    GF(2)."""
    n = field.group_order
    coset = [exponent % n]
    while (2 * coset[-1]) % n != coset[0]:
        coset.append((2 * coset[-1]) % n)
    coeffs = [1]  # lowest degree first, entries in GF(2^m)
    for c in coset:
        root = field.pow_alpha(c)
        nxt = [0] * (len(coeffs) + 1)
        for i, ci in enumerate(coeffs):
            nxt[i + 1] ^= ci
            nxt[i] ^= field.mul(ci, root)
        coeffs = nxt
    assert set(coeffs) <= {0, 1}
    return BinaryPolynomial.from_coefficients(coeffs)


@pytest.mark.parametrize("m", [*range(2, 13), 16])
def test_minimal_polynomial_matches_the_coset_product(m):
    """The first GF(2) dependency among the powers of beta equals the product
    over beta's conjugates: for every coset leader and, below m = 16, for
    non-leaders, negative exponents and exponents past 2^m - 2."""
    field = GF2m(m)
    n = field.group_order
    exponents = [c[0] for c in cyclotomic_cosets(m)]
    if m < 16:
        rng = random.Random(m)
        exponents += [rng.randrange(n) for _ in range(20)]
        exponents += [n, n + 1, 2 * n + 3, 5 * n - 1, -1, -3]
    for e in exponents:
        assert minimal_polynomial(field, e) == _coset_product(field, e), e


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 1), max_size=40), st.data())
def test_polynomial_coefficients_roundtrip(coeffs, data):
    p = BinaryPolynomial.from_coefficients(coeffs)
    assert p.mask == sum(c << i for i, c in enumerate(coeffs))
    trimmed = list(coeffs)
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
    assert p.coefficients() == tuple(trimmed)
    assert BinaryPolynomial.from_coefficients(p.coefficients()) == p
    if coeffs:
        coeffs[data.draw(st.integers(0, len(coeffs) - 1))] = 2
        with pytest.raises(ValueError):
            BinaryPolynomial.from_coefficients(coeffs)
