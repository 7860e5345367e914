"""Packed GF(2) matrices checked against numpy mod-2 arithmetic."""

import functools
import operator
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdsbch.linalg import BinaryMatrix, _bits_to_mask, _mask_dtype


def _random_matrix(rng, rows, cols):
    return BinaryMatrix.from_rows(
        [[rng.randrange(2) for _ in range(cols)] for _ in range(rows)]
    )


def test_construction_and_access():
    m = BinaryMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
    assert (m.rows, m.cols) == (2, 3)
    assert m.get(0, 0) == 1
    assert m.get(0, 1) == 0
    assert m.row_bits(1) == (0, 1, 1)
    assert m.row_mask(0) == 0b101
    assert m.to_lists() == [[1, 0, 1], [0, 1, 1]]
    assert BinaryMatrix.from_strings(["101", "011"]) == m


def test_identity_and_zeros():
    i3 = BinaryMatrix.identity(3)
    assert i3.to_lists() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert i3.rank == 3
    z = BinaryMatrix.zeros(2, 4)
    assert z.to_lists() == [[0] * 4, [0] * 4]
    assert z.rank == 0


def test_ragged_and_bad_input_rejected():
    with pytest.raises(ValueError):
        BinaryMatrix.from_rows([[1, 0], [1]])
    with pytest.raises(ValueError):
        BinaryMatrix.from_rows([[1, 2]])
    with pytest.raises(ValueError):
        BinaryMatrix.from_strings(["10", "1x"])
    with pytest.raises(ValueError):
        BinaryMatrix(1, 2, [0b100])  # set bit beyond the column count


def test_matmul_matches_numpy():
    rng = random.Random(31)
    for _ in range(100):
        r, inner, c = rng.randrange(1, 8), rng.randrange(1, 8), rng.randrange(1, 8)
        a = _random_matrix(rng, r, inner)
        b = _random_matrix(rng, inner, c)
        want = (a.to_numpy() @ b.to_numpy()) % 2
        assert np.array_equal((a @ b).to_numpy(), want)
        assert a.mat_mul(b) == a @ b


def test_matmul_dimension_mismatch():
    a = BinaryMatrix.identity(3)
    b = BinaryMatrix.zeros(2, 2)
    with pytest.raises(ValueError):
        a @ b


def test_xor_and_transpose():
    rng = random.Random(37)
    for _ in range(50):
        r, c = rng.randrange(1, 9), rng.randrange(1, 9)
        a = _random_matrix(rng, r, c)
        b = _random_matrix(rng, r, c)
        assert np.array_equal((a ^ b).to_numpy(), a.to_numpy() ^ b.to_numpy())
        assert np.array_equal(a.transpose().to_numpy(), a.to_numpy().T)
        assert a.transpose().transpose() == a


def _span(matrix):
    """All XOR combinations of the rows, as masks."""
    masks = {0}
    for i in range(matrix.rows):
        r = matrix.row_mask(i)
        masks |= {m ^ r for m in masks}
    return masks


def test_row_reduce_preserves_row_space():
    rng = random.Random(41)
    for _ in range(60):
        a = _random_matrix(rng, rng.randrange(1, 6), rng.randrange(1, 9))
        rref, rank, pivots = a.row_reduce()
        assert _span(rref) == _span(a)
        assert len(_span(a)) == 1 << rank
        assert len(pivots) == rank
        assert list(pivots) == sorted(pivots)
        # pivot columns contain exactly one 1, in the pivot row
        for row, col in enumerate(pivots):
            for i in range(rref.rows):
                assert rref.get(i, col) == (1 if i == row else 0)
        # nonzero rows come first
        for i in range(rref.rows):
            assert (rref.row_mask(i) != 0) == (i < rank)


def test_row_reduce_is_idempotent_and_cached():
    rng = random.Random(43)
    a = _random_matrix(rng, 5, 7)
    rref, rank, _ = a.row_reduce()
    assert rref.row_reduce()[0] == rref
    assert a.rank == rank


def test_in_row_space_exhaustive():
    rng = random.Random(47)
    for _ in range(20):
        a = _random_matrix(rng, 4, 7)
        span = _span(a)
        for mask in range(1 << 7):
            vec = [(mask >> j) & 1 for j in range(7)]
            assert a.in_row_space(vec) == (mask in span)


def test_batched_membership_past_62_columns():
    """Rows too wide for int64 are object arrays of Python ints, and the
    annihilator product tests their membership unchanged."""
    rng = np.random.default_rng(53)
    a = BinaryMatrix.from_rows(rng.integers(0, 2, size=(5, 70)).tolist())
    members = rng.integers(0, 2, size=(40, 5)) @ a.to_numpy() % 2
    others = rng.integers(0, 2, size=(40, 70))
    rows = np.concatenate((members, others))
    masks = np.array([_bits_to_mask(row, "row") for row in rows.tolist()], dtype=_mask_dtype(70))
    assert masks.dtype == object
    want = [a._contains_mask(m) for m in masks.tolist()]
    assert (a._annihilator._mul_masks(masks) == 0).tolist() == want
    assert want[:40] == [True] * 40 and not all(want[40:])


def _full_rank_square(rng, n):
    # unit upper triangular, so invertible
    rows = [(1 << i) | (rng.getrandbits(n) >> (i + 1) << (i + 1)) for i in range(n)]
    return BinaryMatrix(n, n, rows)


_WIDE_ROWS = [random.Random(61).getrandbits(70) for _ in range(10)]


@pytest.mark.parametrize(
    "a, contained",
    [
        (BinaryMatrix(0, 9, []), "zero only"),
        (BinaryMatrix(0, 70, []), "zero only"),
        (_full_rank_square(random.Random(67), 13), "all"),
        (BinaryMatrix(10, 70, _WIDE_ROWS), "some"),
        (BinaryMatrix(2, 70, _WIDE_ROWS[:2]), "some"),
    ],
    ids=[
        "no-rows",
        "no-rows-object-annihilator",
        "full-rank-square",
        "rows-past-62-bits",
        "annihilator-past-62-columns",
    ],
)
def test_batched_membership_edge_cases(a, contained):
    """The annihilator product against the pivot walk: a 0-row matrix holds
    only 0, a full-rank square one every vector (its annihilator has no
    columns), and rows or annihilator columns past 62 bits take object
    masks."""
    ann = a._annihilator
    assert (ann.rows, ann.cols) == (a.cols, a.cols - a.rank)
    assert not any(a.mat_mul(ann).data)  # its columns are orthogonal to every row
    rng = random.Random(71)
    members = [0]
    for _ in range(20):
        picked = [row for row in a.data if rng.getrandbits(1)]
        members.append(functools.reduce(operator.xor, picked, 0))
    others = [rng.getrandbits(a.cols) for _ in range(20)]
    masks = np.array(members + others, dtype=_mask_dtype(a.cols))
    assert ann._mul_masks(masks).dtype == _mask_dtype(ann.cols)
    got = ann._mul_masks(masks) == 0
    assert got.dtype == bool
    want = [a._contains_mask(m) for m in masks.tolist()]
    assert got.tolist() == want
    expected = {
        "zero only": [m == 0 for m in masks.tolist()],
        "all": [True] * len(masks),
        "some": [True] * len(members) + [False] * len(others),
    }[contained]
    assert want == expected


@pytest.mark.parametrize(
    "rows, cols",
    [(0, 5), (0, 70), (5, 3), (13, 21), (16, 21), (21, 15), (66, 6), (70, 21), (21, 70), (8, 0)],
)
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_mul_masks_is_the_row_vector_product(rows, cols, data):
    """Each mask times the matrix, against a one-row mat_mul: row counts off
    a multiple of 8, no rows, and rows or columns past 62 (object masks)."""
    data_rows = st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows)
    a = BinaryMatrix(rows, cols, data.draw(data_rows))
    masks = data.draw(st.lists(st.integers(0, (1 << rows) - 1), max_size=20))
    got = a._mul_masks(np.array(masks, dtype=_mask_dtype(rows)))
    assert got.dtype == _mask_dtype(cols)
    assert got.tolist() == [BinaryMatrix(1, rows, [m]).mat_mul(a).data[0] for m in masks]


def test_in_row_space_length_check():
    a = BinaryMatrix.identity(3)
    with pytest.raises(ValueError):
        a.in_row_space([1, 0])


def test_text_roundtrip():
    rng = random.Random(53)
    for _ in range(30):
        a = _random_matrix(rng, rng.randrange(1, 6), rng.randrange(1, 10))
        text = a.to_text()
        lines = text.strip().split("\n")
        assert lines[0] == f"{a.rows} {a.cols}"
        assert len(lines) == a.rows + 1
        assert BinaryMatrix.from_text(text) == a


def test_from_text_rejects_garbage():
    with pytest.raises(ValueError):
        BinaryMatrix.from_text("2 3\n101\n")  # row count mismatch
    with pytest.raises(ValueError):
        BinaryMatrix.from_text("1 3\n10\n")  # width mismatch
    with pytest.raises(ValueError):
        BinaryMatrix.from_text("")


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 70).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(0, 1), min_size=cols, max_size=cols), min_size=1, max_size=6
        )
    ),
    st.data(),
)
def test_from_rows_row_bits_roundtrip(rows, data):
    m = BinaryMatrix.from_rows(rows)
    assert m.data == tuple(sum(b << j for j, b in enumerate(r)) for r in rows)
    assert [m.row_bits(i) for i in range(m.rows)] == [tuple(r) for r in rows]
    assert BinaryMatrix.from_rows(m.to_lists()) == m
    i = data.draw(st.integers(0, len(rows) - 1))
    assert m.in_row_space(rows[i])
    rows[i][data.draw(st.integers(0, len(rows[i]) - 1))] = 2
    with pytest.raises(ValueError):
        BinaryMatrix.from_rows(rows)
    with pytest.raises(ValueError):
        m.in_row_space(rows[i])
