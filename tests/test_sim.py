"""Weight-stratified Monte Carlo: determinism, recombination, cross-checks."""

import functools
import hashlib
import math
import operator
import random
import re
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from qdsbch.bch import BchCode
from qdsbch.linalg import BinaryMatrix, _bits_to_mask, _mask_dtype
from qdsbch.qds import (
    _support_masks,
    bch_sm,
    identity_sm,
    qds_assemble,
    repetition_sm,
    verify_correction_guarantee,
)
from qdsbch import sim
from qdsbch.sim import (
    CellStats,
    ErrorModel,
    SimGrid,
    _DRAW,
    _FAIL,
    _PASS,
    _cell_generator,
    _grid_plan,
    _run_cell,
    binomial_weight_probability,
    build_grid,
    combine_grid,
    combine_grid_bounds,
    default_code_meta,
    direct_monte_carlo,
    required_cells,
    stabilizer_meas_error_prob,
    sweep,
    wilson_interval,
)
from qdsbch.stabilizer import (
    LookupDecoder,
    PauliOperator,
    StabilizerCode,
    _weight_pauli_masks,
    css_from_parity,
    lookup_decoder_build,
    steane_code,
)


def _steane_qds(sm=None):
    base = steane_code()
    q = qds_assemble(base, sm if sm is not None else identity_sm(6))
    dec = lookup_decoder_build(base, max_weight=1)
    return q, dec


# --- elementary probabilities --------------------------------------------------


def test_meas_error_prob_worked_value():
    assert stabilizer_meas_error_prob(3, 0.1) == pytest.approx(0.244, rel=1e-12)
    assert stabilizer_meas_error_prob(1, 0.3) == pytest.approx(0.3, rel=1e-12)
    with pytest.raises(ValueError):
        stabilizer_meas_error_prob(0, 0.3)


def test_meas_error_prob_matches_odd_binomial_sum():
    """(1 - (1-2p)^w)/2 is exactly the odd-flip-count probability."""
    rng = random.Random(101)
    for _ in range(60):
        w = rng.randrange(1, 65)
        p = Fraction(rng.randrange(1, 1000), 2000)
        exact = sum(
            comb(w, j) * p**j * (1 - p) ** (w - j) for j in range(1, w + 1, 2)
        )
        got = stabilizer_meas_error_prob(w, float(p))
        assert got == pytest.approx(float(exact), rel=1e-12)


def test_binomial_weight_probability():
    for n, p in [(7, 0.1), (21, 0.03)]:
        total = sum(binomial_weight_probability(w, p, n) for w in range(n + 1))
        assert total == pytest.approx(1.0, rel=1e-12)
        assert binomial_weight_probability(2, p, n) == pytest.approx(
            comb(n, 2) * p**2 * (1 - p) ** (n - 2), rel=1e-12
        )
    assert binomial_weight_probability(0, 0.0, 5) == 1.0
    assert binomial_weight_probability(1, 0.0, 5) == 0.0


@pytest.mark.parametrize(
    "w, p, n", [(2, 1.5, 7), (2, math.nan, 7), (550, 1.5, 1100), (2, -0.1, 7)],
    ids=["above-1", "nan", "past-the-float-range", "negative"],
)
def test_binomial_weight_probability_refuses_a_p_outside_0_1(w, p, n):
    """A p outside [0, 1] used to give -1.4765625 at (2, 1.5, 7), NaN for
    NaN, and "math domain error" past the float range of C(n, w)."""
    with pytest.raises(ValueError, match=f"p must be a probability, got {p}"):
        binomial_weight_probability(w, p, n)


_POINTS = [(1e-3, 1e-3)]


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: binomial_weight_probability(True, 0.1, 3), "w must be an integer, got True",
            id="binomial-w-bool",
        ),
        pytest.param(
            lambda: binomial_weight_probability(1, 0.1, 3.0), "n must be an integer, got 3.0",
            id="binomial-n-float",
        ),
        pytest.param(
            lambda: binomial_weight_probability(4, 0.1, 3), "w must be at most 3, got 4",
            id="binomial-w-above-n",
        ),
        pytest.param(
            lambda: stabilizer_meas_error_prob(2.5, 0.1), "w must be an integer, got 2.5",
            id="meas-w-float",
        ),
        pytest.param(
            lambda: wilson_interval(0.5, 2), "failures must be an integer, got 0.5",
            id="wilson-failures-float",
        ),
        pytest.param(
            lambda: wilson_interval(0, True), "trials must be an integer, got True",
            id="wilson-trials-bool",
        ),
        pytest.param(
            lambda: required_cells(-1, 6, _POINTS, 1e-12), "n must be nonnegative, got -1",
            id="required-n-negative",
        ),
        pytest.param(
            lambda: required_cells(2.0, 6, _POINTS, 1e-12), "n must be an integer, got 2.0",
            id="required-n-float",
        ),
        pytest.param(
            lambda: required_cells(True, 6, _POINTS, 1e-12), "n must be an integer, got True",
            id="required-n-bool",
        ),
    ],
)
def test_elementary_functions_refuse_a_count_that_is_not_one(call, message):
    """Each of these once gave a value (0.243, 0.214, an interval, a cell
    set), numpy's IndexError or a bare TypeError."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("p", [0.0, 1e-4, 0.5, 1.0])
def test_binomial_weights_past_the_float_range_of_the_binomial(p):
    """From n = 1030 the middle C(n, w) pass the float range: those terms
    are summed in logs, and every other term keeps its bits."""
    float(comb(1029, 514))
    with pytest.raises(OverflowError):
        float(comb(1030, 515))
    weights = sim._binomial_weights(1100, [p])
    assert abs(weights.sum() - 1.0) <= 1e-9
    for w in (0, 1, 7, 300, 550, 1099, 1100):
        assert binomial_weight_probability(w, p, 1100) == weights[0, w]
    for w in (0, 1, 7, 300, 1099, 1100):  # C(1100, w) is a float here
        assert weights[0, w] == comb(1100, w) * p**w * (1.0 - p) ** (1100 - w)
    small = sim._binomial_weights(1029, [p])
    assert small[0].tolist() == [
        comb(1029, w) * p**w * (1.0 - p) ** (1029 - w) for w in range(1030)
    ]


def test_wilson_interval():
    lo, hi = wilson_interval(10, 100)
    assert 0.0 < lo < 0.1 < hi < 0.2
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 == 0.0
    assert 0.0 < hi0 < 0.05
    loN, hiN = wilson_interval(100, 100)
    assert 0.95 < loN < 1.0
    assert hiN == pytest.approx(1.0)
    with pytest.raises(ValueError):
        wilson_interval(5, 0)
    with pytest.raises(ValueError):
        wilson_interval(7, 5)


def test_wilson_interval_reaches_its_endpoints_exactly():
    """At 0 failures the lower bound is 0 and at all failures the upper
    bound 1, for every trial count: rounding used to miss them by an ulp
    (the upper bound at 6,291 of these counts at z = 1.96)."""
    for z in (1.96, 3.29):
        for trials in range(1, 20_001):
            assert wilson_interval(0, trials, z)[0] == 0.0
            assert wilson_interval(trials, trials, z)[1] == 1.0


@pytest.mark.parametrize("z", [math.nan, -1.0, math.inf], ids=["nan", "negative", "inf"])
def test_wilson_interval_rejects_a_bad_z(z):
    """NaN used to give (0, 1) and a negative z an interval with lo > hi."""
    with pytest.raises(ValueError, match="z must be"):
        wilson_interval(1, 10, z)


def test_error_model_validation():
    ErrorModel(0.01, 0.02)
    with pytest.raises(ValueError):
        ErrorModel(-0.1, 0.0)
    with pytest.raises(ValueError):
        ErrorModel(0.0, 1.5)


# --- cell estimation ------------------------------------------------------------


def _one_cell(q, dec, w_q, w_s, trials, seed):
    """Failure fraction of the (w_q, w_s) cell of a one-cell grid."""
    grid = build_grid(
        q, dec, seed=seed, boundary_trials=trials, bulk_trials=trials, cells=[(w_q, w_s)]
    )
    st = grid.cells[(w_q, w_s)]
    return st.failures / st.trials


def test_one_cell_grid_is_deterministic():
    q, dec = _steane_qds(bch_sm(6, 3))
    a = _one_cell(q, dec, 2, 1, trials=500, seed=42)
    b = _one_cell(q, dec, 2, 1, trials=500, seed=42)
    assert a == b
    c = _one_cell(q, dec, 2, 1, trials=500, seed=43)
    # different seed gives an independent stream (values may coincide but
    # the draw sequence must not be forced to)
    assert 0.0 <= c <= 1.0


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 3])
def test_cell_generator_is_the_spawn_key_stream(seed):
    """A cell's stream is seeded from its entropy words, and must be the
    one SeedSequence(seed, spawn_key=(w_q, w_s)) gives, whatever the
    seed's word count."""
    for w_q, w_s in [(0, 0), (1, 0), (7, 21), (3, 18)]:
        want = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(w_q, w_s)))
        got = _cell_generator(seed, w_q, w_s)
        assert got.bit_generator.state == want.bit_generator.state
        assert got.random(8).tolist() == want.random(8).tolist()
        assert got.integers(3, size=8).tolist() == want.integers(3, size=8).tolist()


@pytest.mark.parametrize("sm", [repetition_sm(6, 3), bch_sm(6, 3)], ids=["rep3", "bch3"])
def test_a_grid_built_one_cell_per_call_is_the_one_shot_grid(sm):
    """Each cell has its own stream, so a grid built one `build_grid` call
    per cell, in reverse order, has the bytes of one built in one call."""
    q, dec = _steane_qds(sm)
    whole = build_grid(q, dec, seed=20260819, boundary_trials=40, bulk_trials=8)
    pieces = SimGrid(default_code_meta(q, dec), 20260819)
    for cell in sorted(whole.cells, reverse=True):
        one = build_grid(q, dec, seed=20260819, boundary_trials=40, bulk_trials=8, cells=[cell])
        assert list(one.cells) == [cell]
        pieces.add(*cell, one.cells[cell].trials, one.cells[cell].failures)
    assert pieces.to_json_text() == whole.to_json_text()


def test_one_cell_grid_certified_region_is_zero():
    q, dec = _steane_qds(bch_sm(6, 3))
    for w_q in (0, 1):
        for w_s in (0, 1, 2, 3):
            assert _one_cell(q, dec, w_q, w_s, trials=300, seed=7) == 0.0


def test_estimate_cell_all_flips_is_deterministic_failure_fraction():
    q, dec = _steane_qds()
    frac = _one_cell(q, dec, 0, q.sm.n_s, trials=100, seed=3)
    assert frac in (0.0, 1.0)


@pytest.mark.parametrize("sm, want", [(bch_sm(6, 3), 0.75), (repetition_sm(6, 3), 0.78)])
def test_pinned_estimate_cell(sm, want):
    """Values taken when a cell was estimated on its own, before that became
    a one-cell build_grid."""
    q, dec = _steane_qds(sm)
    assert _one_cell(q, dec, 2, 2, 200, 3) == want


def test_estimate_cell_validates_inputs():
    q, dec = _steane_qds()
    with pytest.raises(ValueError):
        _one_cell(q, dec, 8, 0, trials=10, seed=1)
    with pytest.raises(ValueError):
        _one_cell(q, dec, 0, 7, trials=10, seed=1)
    with pytest.raises(ValueError):
        _one_cell(q, dec, 0, 0, trials=0, seed=1)


# --- grids ----------------------------------------------------------------------


def test_grid_json_roundtrip_is_byte_identical():
    q, dec = _steane_qds()
    grid = build_grid(q, dec, seed=5, boundary_trials=50, bulk_trials=20,
                      cells=[(0, 0), (1, 1), (2, 3)])
    text = grid.to_json_text()
    again = SimGrid.from_json_text(text)
    assert again == grid
    assert again.to_json_text() == text


def test_grid_add_refuses_a_repeated_cell():
    grid = SimGrid({"n": 7, "n_s": 6}, seed=1)
    grid.add(0, 0, 100, 3)
    with pytest.raises(ValueError, match=r"repeats cell \(0, 0\)"):
        grid.add(0, 0, 50, 2)
    assert grid.cells == {(0, 0): CellStats(100, 3)}


def _cell(wq=0, ws=0, trials=10, failures=1):
    return {"wq": wq, "ws": ws, "trials": trials, "failures": failures}


@pytest.mark.parametrize(
    "meta, cells",
    [
        ({"n": 7, "n_s": 6}, [_cell(1, 2), _cell(1, 2)]),  # duplicate cell
        ({"n": 7, "n_s": 6}, [_cell(trials=0, failures=0)]),
        ({"n": 7, "n_s": 6}, [_cell(failures=-1)]),
        ({"n": 7, "n_s": 6}, [_cell(failures=11)]),
        ({"n": 7, "n_s": 6}, [_cell(wq=8)]),
        ({"n": 7, "n_s": 6}, [_cell(ws=7)]),
        ({"n": 7, "n_s": 6}, [_cell(wq=-1)]),
        ({"n_s": 6}, [_cell()]),
        ({"n": 7}, [_cell()]),
    ],
)
def test_grid_from_json_rejects_malformed_files(meta, cells):
    good = SimGrid.from_json_dict({"code_meta": {"n": 7, "n_s": 6}, "seed": 1, "cells": [_cell()]})
    assert good.cells[(0, 0)] == CellStats(10, 1)
    with pytest.raises(ValueError):
        SimGrid.from_json_dict({"code_meta": meta, "seed": 1, "cells": cells})


_DROP = object()


def _edited(obj, edits):
    """obj with each edited key set to its new value, or removed for _DROP."""
    return {k: v for k, v in {**obj, **edits}.items() if v is not _DROP}


@pytest.mark.parametrize(
    "top, cell, match",
    [
        pytest.param({}, {"wq": "1"}, "grid cell 'wq' must be an integer", id="wq-string"),
        pytest.param({}, {"wq": 1.0}, "grid cell 'wq' must be an integer", id="wq-float"),
        pytest.param({}, {"wq": True}, "grid cell 'wq' must be an integer", id="wq-bool"),
        pytest.param({}, {"ws": None}, "grid cell 'ws' must be an integer", id="ws-null"),
        pytest.param({}, {"trials": 2.5}, "'trials' must be an integer", id="trials-float"),
        pytest.param({}, {"failures": 0.5}, "'failures' must be an integer", id="failures-float"),
        pytest.param({}, {"failures": False}, "'failures' must be an integer", id="failures-bool"),
        pytest.param({}, {"wq": _DROP}, "grid cell is missing 'wq'", id="no-wq"),
        pytest.param({}, {"ws": _DROP}, "grid cell is missing 'ws'", id="no-ws"),
        pytest.param({}, {"trials": _DROP}, "grid cell is missing 'trials'", id="no-trials"),
        pytest.param({}, {"failures": _DROP}, "grid cell is missing 'failures'", id="no-failures"),
        pytest.param({"seed": _DROP}, {}, "grid file is missing 'seed'", id="no-seed"),
        pytest.param({"code_meta": _DROP}, {}, "grid file is missing 'code_meta'", id="no-meta"),
        pytest.param({"cells": _DROP}, {}, "grid file is missing 'cells'", id="no-cells"),
        pytest.param({"seed": "1"}, {}, "grid file 'seed' must be an integer", id="seed-string"),
        pytest.param({"seed": 1.0}, {}, "grid file 'seed' must be an integer", id="seed-float"),
        pytest.param({"seed": -5}, {}, "grid file 'seed' must be nonnegative", id="seed-negative"),
        pytest.param(
            {"code_meta": {"n": "7", "n_s": 6}}, {}, "'n' must be an integer", id="n-string"
        ),
        pytest.param(
            {"code_meta": {"n": 7.5, "n_s": 6}}, {}, "'n' must be an integer", id="n-float"
        ),
        pytest.param(
            {"code_meta": {"n": 7, "n_s": True}}, {}, "'n_s' must be an integer", id="n_s-bool"
        ),
        pytest.param({"code_meta": {"n": -1, "n_s": 6}}, {}, "nonnegative", id="n-negative"),
        pytest.param({"code_meta": {"n": 7, "n_s": -1}}, {}, "nonnegative", id="n_s-negative"),
        pytest.param(
            {"code_meta": [["n", 7], ["n_s", 6]]}, {}, "'code_meta' must be a JSON object",
            id="meta-not-object",
        ),
        pytest.param({"cells": {"wq": 0}}, {}, "'cells' must be a JSON array", id="no-array"),
        pytest.param(
            {"cells": [[0, 0, 10, 1]]}, {}, "grid cell must be a JSON object", id="cell-not-object"
        ),
    ],
)
def test_grid_from_json_names_what_is_wrong(top, cell, match):
    """Every value a grid file gives must be a JSON integer (not a float,
    string or bool), and a missing key is named, never a KeyError."""
    good = {"code_meta": {"n": 7, "n_s": 6}, "seed": 1, "cells": [_edited(_cell(), cell)]}
    with pytest.raises(ValueError, match=match):
        SimGrid.from_json_dict(_edited(good, top))


def test_build_grid_repeats_byte_identical():
    q, dec = _steane_qds(repetition_sm(6, 3))
    cells = [(wq, ws) for wq in range(3) for ws in range(3)]
    g1 = build_grid(q, dec, seed=11, boundary_trials=60, bulk_trials=25, cells=cells)
    g2 = build_grid(q, dec, seed=11, boundary_trials=60, bulk_trials=25, cells=cells)
    assert g1.to_json_text() == g2.to_json_text()


def test_build_grid_boundary_gets_more_trials():
    q, dec = _steane_qds()
    grid = build_grid(q, dec, seed=1, boundary_trials=40, bulk_trials=10,
                      cells=[(0, 0), (5, 5)])
    # identity SM: t_s = 0, t_data = 1, so (0,0) is boundary and (5,5) bulk
    assert grid.cells[(0, 0)].trials == 40
    assert grid.cells[(5, 5)].trials == 10


def test_default_code_meta_contents():
    q, dec = _steane_qds(bch_sm(6, 3))
    meta = default_code_meta(q, dec)
    assert meta["n"] == 7
    assert meta["n_s"] == 21
    assert meta["ell"] == 6
    assert meta["t_s"] == 3
    assert meta["t_data"] == 1
    assert meta["sm"] == "bch"


@pytest.mark.parametrize(
    "seed, cells, bad",
    [
        pytest.param(-1, [(0, 0)], -1, id="seed-negative-certified-only"),
        pytest.param(True, [(0, 0)], True, id="seed-bool"),
        pytest.param(2.0, None, 2.0, id="seed-float"),
        pytest.param(7, [(True, 0)], True, id="weight-bool"),
        pytest.param(7, [(0, np.bool_(False))], np.bool_(False), id="weight-numpy-bool"),
        pytest.param(7, [(1.0, 0)], 1.0, id="weight-float"),
    ],
)
def test_build_grid_refuses_what_a_grid_file_cannot_hold(seed, cells, bad):
    """Each of these once built a grid that `to_json_text` could not write
    or `from_json_text` refused to read back."""
    q, dec = _steane_qds()
    with pytest.raises(ValueError, match=f"(integer|nonnegative), got {re.escape(repr(bad))}$"):
        build_grid(q, dec, seed=seed, boundary_trials=4, bulk_trials=2, cells=cells)


def test_a_grid_of_numpy_integers_round_trips():
    q, dec = _steane_qds(repetition_sm(6, 3))
    cells = [(np.int64(wq), np.int64(ws)) for wq in range(3) for ws in (0, 2, 5)]
    grid = build_grid(
        q, dec, seed=np.int64(7), boundary_trials=np.int64(20), bulk_trials=np.int64(4), cells=cells
    )
    assert type(grid.seed) is int
    assert all(type(w) is int for cell in grid.cells for w in cell)
    assert all(type(st.trials) is type(st.failures) is int for st in grid.cells.values())
    assert SimGrid.from_json_text(grid.to_json_text()) == grid
    assert grid == build_grid(q, dec, seed=7, boundary_trials=20, bulk_trials=4, cells=cells)


def test_numpy_radius_and_reps_make_the_grid_of_python_ints():
    """The decoder's radius and the readout's reps reach the grid meta as
    t_data, n_s and t_s; numpy integers there once made a grid that
    `to_json_text` could not write."""
    base = steane_code()
    q = qds_assemble(base, repetition_sm(base.ell, np.int64(3)))
    dec = lookup_decoder_build(base, max_weight=np.int64(1))
    grid = build_grid(q, dec, seed=7, boundary_trials=20, bulk_trials=4)
    assert all(type(grid.code_meta[key]) is int for key in ("n_s", "t_s", "t_data"))
    back = SimGrid.from_json_text(grid.to_json_text())
    assert combine_grid_bounds(back, 1e-2, 1e-2) == combine_grid_bounds(grid, 1e-2, 1e-2)
    q, dec = _steane_qds(repetition_sm(6, 3))
    assert grid == build_grid(q, dec, seed=7, boundary_trials=20, bulk_trials=4)


@pytest.mark.parametrize("bad", [20.0, True, np.bool_(True)], ids=["float", "bool", "numpy-bool"])
@pytest.mark.parametrize("which", ["boundary_trials", "bulk_trials"])
def test_build_grid_and_sweep_refuse_a_trial_count_that_is_not_an_integer(which, bad):
    """A float or bool trial count once built a grid that `from_json_text`
    refused to read back."""
    q, dec = _steane_qds()
    counts = {"boundary_trials": 4, "bulk_trials": 2, which: bad}
    message = f"^{which} must be an integer, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=message):
        build_grid(q, dec, seed=1, cells=[(0, 0), (5, 5)], **counts)
    with pytest.raises(ValueError, match=message):
        sweep(q, dec, [1e-2], ratio=1.0, seed=1, **counts)


def test_alternating_decoders_on_one_code_give_the_fresh_grids():
    """The code keeps one plan, for the last decoder; switching decoders
    replaces it, and no grid may see the other decoder's."""
    shared = qds_assemble(steane_code(), repetition_sm(6, 3))
    decoders = [lookup_decoder_build(shared.base, max_weight=r) for r in (0, 1)]
    for dec in decoders + decoders:
        got = build_grid(shared, dec, seed=5, boundary_trials=30, bulk_trials=6)
        base = steane_code()
        fresh_q = qds_assemble(base, repetition_sm(6, 3))
        fresh_dec = lookup_decoder_build(base, max_weight=dec.max_weight)
        want = build_grid(fresh_q, fresh_dec, seed=5, boundary_trials=30, bulk_trials=6)
        assert got.to_json_text() == want.to_json_text()
        assert shared._grid_plan[0] is dec


def test_updating_a_grids_meta_leaves_the_next_grids_alone():
    q, dec = _steane_qds(bch_sm(6, 3))
    first = build_grid(q, dec, seed=1, boundary_trials=4, bulk_trials=2, cells=[(0, 0)])
    first.code_meta.update(command="sim grid", n=99)
    second = build_grid(q, dec, seed=1, boundary_trials=4, bulk_trials=2, cells=[(0, 0)])
    assert second.code_meta == default_code_meta(q, dec)


# --- recombination ---------------------------------------------------------------


def test_combine_with_zero_truncation_is_the_full_sum():
    q, dec = _steane_qds()
    grid = build_grid(q, dec, seed=9, boundary_trials=200, bulk_trials=50)
    p_q, p_s = 0.03, 0.02
    want = 0.0
    for (wq, ws), st in grid.cells.items():
        pref = binomial_weight_probability(wq, p_q, 7) * binomial_weight_probability(
            ws, p_s, 6
        )
        want += pref * st.failures / st.trials
    res = combine_grid(grid, p_q, p_s, truncation=0.0)
    assert res.p_err == pytest.approx(want, rel=1e-12)
    assert res.truncation_mass == 0.0
    assert res.dropped_cells == 0


def test_combine_truncation_accounting():
    q, dec = _steane_qds()
    grid = build_grid(q, dec, seed=9, boundary_trials=200, bulk_trials=50)
    p_q, p_s = 0.03, 0.02
    full = combine_grid(grid, p_q, p_s, truncation=0.0)
    cut = combine_grid(grid, p_q, p_s, truncation=1e-6)
    # brute force: every cell's prefactor, the dropped ones summed
    prefs = [
        binomial_weight_probability(wq, p_q, 7) * binomial_weight_probability(ws, p_s, 6)
        for wq in range(8)
        for ws in range(7)
    ]
    dropped = [pref for pref in prefs if pref < 1e-6]
    # a whole row is dropped when A(w_q) alone is below the truncation
    assert binomial_weight_probability(7, p_q, 7) < 1e-6
    assert cut.dropped_cells == len(dropped) > 0
    assert cut.truncation_mass == pytest.approx(sum(dropped), rel=1e-12)
    assert cut.truncation_mass <= 1e-6 * cut.dropped_cells
    assert cut.p_err <= full.p_err
    assert full.p_err - cut.p_err <= cut.truncation_mass + 1e-15
    # the upper bound adds the dropped mass where the full sum adds each
    # dropped cell's Wilson upper end, at most 1
    hi_cut = combine_grid_bounds(grid, p_q, p_s, truncation=1e-6)[1]
    hi_full = combine_grid_bounds(grid, p_q, p_s, truncation=0.0)[1]
    assert 0.0 <= hi_cut - hi_full <= cut.truncation_mass


@pytest.mark.parametrize(
    "p_q, p_s, truncation, mass",
    [(0.002, 0.002, 1e-6, "5.815891743084214e-07"), (0.0003, 0.03, 1e-9, "1.9184166503243522e-09")],
)
def test_truncation_mass_does_not_depend_on_the_python_version(p_q, p_s, truncation, mass):
    """A dropped row adds its prefactors in order.  At these points Python
    3.12's compensated sum() of the row would move the mass's last digit,
    and the upper bound's with it; the pins are the in-order values.  Every
    cell is certified and failure-free, so the bounds are (0, mass)."""
    grid = SimGrid({"n": 7, "n_s": 21, "t_data": 7, "t_s": 21}, seed=0)
    for wq in range(8):
        for ws in range(22):
            grid.add(wq, ws, 1, 0)
    assert repr(combine_grid(grid, p_q, p_s, truncation).truncation_mass) == mass
    assert combine_grid_bounds(grid, p_q, p_s, truncation) == (0.0, float(mass))


def test_combine_missing_cell_raises():
    q, dec = _steane_qds()
    grid = build_grid(q, dec, seed=2, boundary_trials=50, bulk_trials=20,
                      cells=[(wq, ws) for wq in range(3) for ws in range(7)])
    # covered at a coarse truncation
    combine_grid(grid, 0.01, 0.01, truncation=1e-4)
    with pytest.raises(ValueError):
        combine_grid(grid, 0.01, 0.01, truncation=0.0)


def test_a_grid_with_a_wide_readout_recombines():
    """n_s = 1100 passes the float range of C(n_s, n_s // 2); a grid on it
    recombines, and its bounds hold the point estimate."""
    grid = SimGrid({"n": 3, "n_s": 1100}, 1)
    for wq in range(4):
        for ws in range(31):
            grid.add(wq, ws, 10, min(10, ws))
    points = [(p, p) for p in (1e-4, 10**-3.5, 1e-3)]
    p_errs = [pt.p_err for pt in sim._recombine(grid, points, 1e-12)]
    assert all(0.0 < p_err < 1.0 for p_err in p_errs)
    for (p_q, p_s), p_err in zip(points, p_errs):
        assert combine_grid(grid, p_q, p_s).p_err == p_err
        lo, hi = combine_grid_bounds(grid, p_q, p_s)
        assert lo <= p_err <= hi
    assert required_cells(3, 1100, points, 1e-12) <= set(grid.cells)


def test_combine_validates_probabilities():
    q, dec = _steane_qds()
    grid = build_grid(q, dec, seed=2, boundary_trials=20, bulk_trials=10,
                      cells=[(0, 0)])
    with pytest.raises(ValueError):
        combine_grid(grid, -0.1, 0.1, truncation=1e-2)
    with pytest.raises(ValueError):
        combine_grid(grid, 0.1, 1.1, truncation=1e-2)
    # the bounds and the cell planner share the same prefactor loop and checks
    with pytest.raises(ValueError):
        combine_grid_bounds(grid, 0.1, 1.1, truncation=1e-2)
    with pytest.raises(ValueError):
        required_cells(7, 6, [(1e-3, 1e-3), (-0.1, 0.1)], truncation=1e-2)


def _all_pass_grid(**radii):
    """A 2 x 2 grid whose every cell passes 100 of 100 trials."""
    grid = SimGrid({"n": 1, "n_s": 1, **radii}, seed=0)
    for wq in range(2):
        for ws in range(2):
            grid.add(wq, ws, 100, 0)
    return grid


def test_combine_bounds_read_the_certified_radii_as_json_integers():
    """t_data and t_s certify their cells only as nonnegative JSON
    integers: a missing key certifies nothing, and a string, bool, float
    or negative value is refused (a string was a TypeError, and true or
    1.0 read as 1)."""
    uncertified = combine_grid_bounds(_all_pass_grid(), 0.1, 0.1)
    assert combine_grid_bounds(_all_pass_grid(t_data=0), 0.1, 0.1) == uncertified
    assert combine_grid_bounds(_all_pass_grid(t_data=0, t_s=0), 0.1, 0.1)[1] < uncertified[1]
    assert combine_grid_bounds(_all_pass_grid(t_data=1, t_s=1), 0.1, 0.1) == (0.0, 0.0)
    for key in ("t_data", "t_s"):
        for bad in ("0", True, 1.0, -1, None):
            grid = _all_pass_grid(t_data=0, t_s=0)
            grid.code_meta[key] = bad
            with pytest.raises(ValueError, match=f"grid code_meta '{key}' must be"):
                combine_grid_bounds(grid, 0.1, 0.1)


@pytest.mark.parametrize("truncation", [math.nan, math.inf], ids=["nan", "inf"])
def test_combine_rejects_a_non_finite_truncation(truncation):
    """A NaN truncation compares false with every prefactor, so it used to
    keep every cell and report a truncation mass of 0."""
    q, dec = _steane_qds()
    grid = build_grid(q, dec, seed=2, boundary_trials=20, bulk_trials=10)
    for call in (combine_grid, combine_grid_bounds):
        with pytest.raises(ValueError, match="truncation must be finite and nonnegative"):
            call(grid, 0.01, 0.01, truncation=truncation)
    with pytest.raises(ValueError, match="truncation must be finite and nonnegative"):
        required_cells(7, 6, [(1e-3, 1e-3)], truncation=truncation)
    with pytest.raises(ValueError):
        required_cells(7, 6, [(1e-3, 1e-3)], truncation=-1.0)


@pytest.mark.parametrize("z", [math.nan, -1.0, math.inf], ids=["nan", "negative", "inf"])
def test_combine_bounds_refuse_a_bad_z_where_every_kept_cell_is_certified(z):
    """A grid whose every cell is certified needs no interval, so a bad z
    was once accepted there and refused at a point that needed one."""
    grid = _all_pass_grid(t_data=1, t_s=1)
    for p in (0.0, 0.1):
        with pytest.raises(ValueError, match="z must be finite and nonnegative"):
            combine_grid_bounds(grid, p, p, z=z)


def test_combine_requires_domain_metadata():
    grid = SimGrid({"note": "missing n"}, seed=1)
    with pytest.raises(ValueError):
        combine_grid(grid, 0.1, 0.1)


def test_combine_bounds_bracket_the_estimate():
    q, dec = _steane_qds(bch_sm(6, 3))
    cells = [(wq, ws) for wq in range(4) for ws in range(6)]
    grid = build_grid(q, dec, seed=21, boundary_trials=400, bulk_trials=100, cells=cells)
    p_q, p_s = 0.01, 0.01
    res = combine_grid(grid, p_q, p_s, truncation=1e-6)
    lo, hi = combine_grid_bounds(grid, p_q, p_s, truncation=1e-6)
    assert lo <= res.p_err <= hi
    # certified cells contribute no width: with p small the interval is tight
    assert hi - lo < 0.05


def test_required_cells_small_case():
    cells = required_cells(2, 1, [(0.1, 0.1)], truncation=0.05)
    # A_wq(0.1, 2) = (0.81, 0.18, 0.01); A_ws(0.1, 1) = (0.9, 0.1)
    want = {
        (wq, ws)
        for wq in range(3)
        for ws in range(2)
        if binomial_weight_probability(wq, 0.1, 2)
        * binomial_weight_probability(ws, 0.1, 1)
        >= 0.05
    }
    assert cells == want
    assert (0, 0) in cells
    assert (2, 0) not in cells  # 0.01 * 0.9 < 0.05


def test_required_cells_union_over_points():
    one = required_cells(7, 6, [(0.0, 1e-3)], truncation=1e-9)
    two = required_cells(7, 6, [(0.0, 1e-3), (0.05, 0.05)], truncation=1e-9)
    assert one <= two


# The per-point loop over the cells that `_prefactors` replaced, kept as
# the oracle of its bits: Python floats, added one term at a time.


def _loop_kept_cells(n, n_s, p_q, p_s, truncation):
    col = [binomial_weight_probability(ws, p_s, n_s) for ws in range(n_s + 1)]
    col_total = functools.reduce(operator.add, col)
    kept, dropped, mass = [], 0, 0.0
    for wq in range(n + 1):
        aq = binomial_weight_probability(wq, p_q, n)
        if aq < truncation:
            dropped += n_s + 1
            mass += aq * col_total
            continue
        for ws in range(n_s + 1):
            pref = aq * col[ws]
            if pref < truncation:
                dropped += 1
                mass += pref
            else:
                kept.append((wq, ws, pref))
    return kept, dropped, mass


def _loop_combine(grid, p_q, p_s, truncation):
    n, n_s = grid.code_meta["n"], grid.code_meta["n_s"]
    kept, dropped, mass = _loop_kept_cells(n, n_s, p_q, p_s, truncation)
    p_err = 0.0
    for wq, ws, pref in kept:
        st = grid.cells.get((wq, ws))
        if st is None:
            raise ValueError(
                f"grid is missing cell ({wq}, {ws}) with prefactor {pref:.3g} "
                f">= truncation {truncation:.3g}"
            )
        p_err += pref * (st.failures / st.trials)
    return p_err, mass, dropped


def _loop_bounds(grid, p_q, p_s, truncation, z=1.96):
    t_data, t_s = grid.code_meta["t_data"], grid.code_meta["t_s"]
    n, n_s = grid.code_meta["n"], grid.code_meta["n_s"]
    kept, _, mass = _loop_kept_cells(n, n_s, p_q, p_s, truncation)
    lo = hi = 0.0
    for wq, ws, pref in kept:
        st = grid.cells[(wq, ws)]
        if wq <= t_data and ws <= t_s and st.failures == 0:
            continue
        cell_lo, cell_hi = wilson_interval(st.failures, st.trials, z)
        lo += pref * cell_lo
        hi += pref * cell_hi
    return lo, hi + mass


def _bits(*values):
    return [float(v).hex() for v in values]


def _random_grid(seed, cells=None):
    """Steane + BCH(t=3)'s domain with random counts: 0 failures inside the
    certified region, and 0, all or some failures elsewhere."""
    rng = random.Random(seed)
    grid = SimGrid({"n": 7, "n_s": 21, "t_data": 1, "t_s": 3}, seed=seed)
    for wq, ws in cells if cells is not None else [(a, b) for a in range(8) for b in range(22)]:
        trials = rng.choice([1, 7, 40, 1_000, 10_000])
        failures = 0 if wq <= 1 and ws <= 3 else rng.choice([0, trials, rng.randint(0, trials)])
        grid.add(wq, ws, trials, failures)
    return grid


_SWEEP = [(0.01 * ps, ps) for ps in np.logspace(-4, -2, 25).tolist()]
_AXIS = [0.0, 1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1, 0.3, 0.5, 0.9, 1.0]
_LATTICE = [(p_q, p_s) for p_q in _AXIS for p_s in _AXIS]


@pytest.mark.parametrize("truncation", [0.0, 1e-12, 1e-6, 1e-3])
@pytest.mark.parametrize("points", [_SWEEP, _LATTICE], ids=["sweep25", "lattice13x13"])
def test_one_prefactor_pass_has_the_bits_of_the_per_point_loop(points, truncation):
    grid = _random_grid(5)
    swept = sim._recombine(grid, points, truncation)
    assert [(pt.p_q, pt.p_s) for pt in swept] == points
    needed = set()
    for (p_q, p_s), pt in zip(points, swept):
        p_err, mass, dropped = _loop_combine(grid, p_q, p_s, truncation)
        res = combine_grid(grid, p_q, p_s, truncation)
        assert _bits(pt.p_err, pt.truncation_mass) == _bits(p_err, mass)
        assert _bits(res.p_err, res.truncation_mass) == _bits(p_err, mass)
        assert res.dropped_cells == dropped
        assert _bits(*combine_grid_bounds(grid, p_q, p_s, truncation)) == _bits(
            *_loop_bounds(grid, p_q, p_s, truncation)
        )
        kept, _, _ = _loop_kept_cells(7, 21, p_q, p_s, truncation)
        needed.update((wq, ws) for wq, ws, _ in kept)
    assert required_cells(7, 21, points, truncation) == needed


def test_one_prefactor_pass_over_no_points():
    grid = _random_grid(6)
    assert sim._recombine(grid, [], 1e-12) == []
    assert required_cells(7, 21, [], 1e-12) == set()


@pytest.mark.parametrize(
    "points",
    [_SWEEP, _LATTICE, [(1e-5, 1e-5), (0.1, 0.1)]],
    ids=["sweep25", "lattice13x13", "two-points"],
)
def test_one_prefactor_pass_names_the_loops_missing_cell(points):
    """The first point that needs a missing cell, and its first such cell in
    row-major order, with its prefactor: the loop's message, which
    combine_grid_bounds now gives too.  At (0.1, 0.1) every missing cell
    is needed, so row-major (0, 4) is told from column-major (1, 2)."""
    missing = {(0, 4), (0, 5), (1, 2), (2, 9), (3, 3)}
    grid = _random_grid(7, [(a, b) for a in range(8) for b in range(22) if (a, b) not in missing])
    for first, (p_q, p_s) in enumerate(points):
        try:
            _loop_combine(grid, p_q, p_s, 1e-6)
        except ValueError as exc:
            message = str(exc)
            break
    assert first > 0 and message.startswith("grid is missing cell (")
    with pytest.raises(ValueError) as raised:
        sim._recombine(grid, points, 1e-6)
    assert str(raised.value) == message
    for combine in (combine_grid, combine_grid_bounds):
        with pytest.raises(ValueError) as raised:
            combine(grid, p_q, p_s, 1e-6)
        assert str(raised.value) == message


# --- end-to-end consistency ------------------------------------------------------


def test_direct_monte_carlo_agrees_with_recombination():
    q, dec = _steane_qds()
    model = ErrorModel(p_q=0.02, p_s=0.01)
    direct = direct_monte_carlo(q, dec, model, trials=20_000, seed=77)
    grid = build_grid(q, dec, seed=78, boundary_trials=2_000, bulk_trials=500)
    combined = combine_grid(grid, model.p_q, model.p_s, truncation=0.0).p_err
    lo, hi = wilson_interval(round(direct * 20_000), 20_000, z=3.5)
    assert lo - 0.01 <= combined <= hi + 0.01


def test_direct_monte_carlo_deterministic():
    q, dec = _steane_qds()
    model = ErrorModel(p_q=0.05, p_s=0.02)
    a = direct_monte_carlo(q, dec, model, trials=2_000, seed=5)
    b = direct_monte_carlo(q, dec, model, trials=2_000, seed=5)
    assert a == b


@pytest.mark.parametrize(
    "trials, seed, message",
    [
        pytest.param(True, 5, "trials must be an integer, got True", id="trials-bool"),
        pytest.param(50.0, 5, "trials must be an integer, got 50.0", id="trials-float"),
        pytest.param(50, 1.5, "seed must be an integer, got 1.5", id="seed-float"),
        pytest.param(50, True, "seed must be an integer, got True", id="seed-bool"),
        pytest.param(50, -1, "seed must be nonnegative, got -1", id="seed-negative"),
    ],
)
def test_direct_monte_carlo_refuses_what_is_not_a_count_or_a_seed(trials, seed, message):
    """A bool or float trial count and a float seed once raised numpy's
    TypeErrors, and seed=True ran as seed 1."""
    q, dec = _steane_qds()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        direct_monte_carlo(q, dec, ErrorModel(p_q=0.05, p_s=0.02), trials=trials, seed=seed)


def test_weight_aware_model_runs():
    q, dec = _steane_qds(bch_sm(6, 3))
    model = ErrorModel(p_q=0.02, p_s=0.01, weight_aware=True)
    plain = ErrorModel(p_q=0.02, p_s=0.01)
    a = direct_monte_carlo(q, dec, model, trials=3_000, seed=9)
    b = direct_monte_carlo(q, dec, plain, trials=3_000, seed=9)
    assert 0.0 <= a <= 1.0
    assert 0.0 <= b <= 1.0


def test_sweep_builds_once_and_recombines():
    q, dec = _steane_qds()
    ps = [1e-3, 3e-3, 1e-2]
    grid, points = sweep(q, dec, ps, ratio=0.1, seed=31,
                         boundary_trials=300, bulk_trials=100, truncation=1e-9)
    assert [pt.p_s for pt in points] == ps
    assert all(pt.p_q == pytest.approx(0.1 * pt.p_s) for pt in points)
    assert all(0.0 <= pt.p_err <= 1.0 for pt in points)
    # error rate grows with the error rates
    assert points[0].p_err < points[-1].p_err
    # a prebuilt grid is reused as-is
    grid2, points2 = sweep(q, dec, ps, ratio=0.1, seed=31, grid=grid,
                           truncation=1e-9)
    assert grid2 is grid
    assert points2 == points


def test_sweep_trial_count_consistency():
    """Doubling the sampling effort moves estimates within noise."""
    q, dec = _steane_qds()
    ps = [3e-3, 1e-2]
    _, small = sweep(q, dec, ps, ratio=0.1, seed=41,
                     boundary_trials=500, bulk_trials=200, truncation=1e-9)
    _, big = sweep(q, dec, ps, ratio=0.1, seed=42,
                   boundary_trials=1_000, bulk_trials=400, truncation=1e-9)
    for a, b in zip(small, big):
        assert b.p_err == pytest.approx(a.p_err, rel=0.5, abs=1e-4)


def test_slope_is_two_for_bare_syndrome_readout_in_data_noise():
    """With p_s = 0 and a distance-3 base code, weight-2 data errors set
    the failure scaling: p_err ~ p_q^2."""
    q, dec = _steane_qds()
    cells = [(wq, 0) for wq in range(6)]
    grid = build_grid(q, dec, seed=51, boundary_trials=4_000, bulk_trials=2_000,
                      cells=cells)
    lo_p, hi_p = 1e-3, 1e-2
    r_lo = combine_grid(grid, lo_p, 0.0, truncation=1e-9).p_err
    r_hi = combine_grid(grid, hi_p, 0.0, truncation=1e-9).p_err
    slope = math.log(r_hi / r_lo) / math.log(hi_p / lo_p)
    assert slope == pytest.approx(2.0, abs=0.3)


# --- pinned outputs ----------------------------------------------------------------
# Values recorded from the per-trial loops that preceded the batched trial
# kernel: the kernel must consume the same draws and reach the same verdicts.


@pytest.mark.parametrize(
    "sm, digest, p_err, bounds",
    [
        (
            bch_sm(6, 3),
            "ee01376d11bd2a18359f6c789eff287fbea8f4466bb76995fe3ce897fdeb3266",
            0.006187133239758391,
            (0.004965297418482696, 0.006985302236367717),
        ),
        (
            repetition_sm(6, 3),
            "8b9a6254c16abc68a7392f8478bfef74deeb5542aaba8077e89943871143a9c2",
            0.007187743800787022,
            (0.005293648013964337, 0.009674867770993854),
        ),
        # n_s = 26: the readout's zero test is the coset-leader table's
        (
            bch_sm(6, 4),
            "2aad98b81168357f1f4f4b58623408cd790cfd2da507acc954baf13e5fec380f",
            0.006147640610973655,
            (0.004930871941981551, 0.006943637324359895),
        ),
        # n_s = 30: past the word table's cap, the bit-sliced majority's
        (
            repetition_sm(6, 5),
            "e1c7e1da100612ea2be1aaac001ac94c411def2a1eb9c6d0602997e888d8ffa5",
            0.006176292530120003,
            (0.004937019910245669, 0.007312093260946737),
        ),
    ],
)
def test_pinned_grid_and_recombination(sm, digest, p_err, bounds):
    q, dec = _steane_qds(sm)
    grid = build_grid(q, dec, seed=424242, boundary_trials=40, bulk_trials=10)
    assert hashlib.sha256(grid.to_json_text().encode()).hexdigest() == digest
    assert combine_grid(grid, 0.02, 0.01, truncation=1e-9).p_err == p_err
    assert combine_grid_bounds(grid, 0.02, 0.01, truncation=1e-9) == bounds


def test_bch_grid_runs_on_the_tables(monkeypatch):
    """A Steane + BCH(t=3) grid decodes, looks up and tests membership by
    table, so none of the per-trial oracles may run: a call would mean the
    kernel fell back to its loop."""

    def refuse(*args):
        raise AssertionError("per-trial call in the batched trial kernel")

    q, dec = _steane_qds(bch_sm(6, 3))
    for owner in (BchCode, LookupDecoder):
        monkeypatch.setattr(owner, "_decode_mask", refuse)
    monkeypatch.setattr(BinaryMatrix, "_contains_mask", refuse)
    grid = build_grid(q, dec, seed=7, boundary_trials=20, bulk_trials=5)
    assert sum(cell.failures for cell in grid.cells.values()) > 0


class _ProxyDecoder:
    """A lookup decoder behind another type, so no cell is certified."""

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _counting_generators(monkeypatch):
    """Patch `_cell_generator` to record the cells it builds a stream for."""
    built = []

    def counted(seed, w_q, w_s):
        built.append((w_q, w_s))
        return _cell_generator(seed, w_q, w_s)

    monkeypatch.setattr(sim, "_cell_generator", counted)
    return built


def test_certified_cells_build_no_generator(monkeypatch):
    """Steane + BCH(t=3): 8 cells always pass and 144 always fail, so only
    the other 24 of the 176 are sampled."""
    q, dec = _steane_qds(bch_sm(6, 3))
    built = _counting_generators(monkeypatch)
    grid = build_grid(q, dec, seed=7, boundary_trials=40, bulk_trials=10)
    verdicts = _grid_plan(q, dec)[1]
    rates = {(wq, ws): verdicts[wq][ws] for wq, ws in grid.cells}
    assert sorted(built) == sorted(cell for cell, rate in rates.items() if rate == _DRAW)
    assert len(built) == 24
    assert list(rates.values()).count(_PASS) == 8
    for cell, rate in rates.items():
        if rate <= _FAIL:
            assert grid.cells[cell].failures == rate * grid.cells[cell].trials


@pytest.mark.parametrize(
    "sm", [bch_sm(6, 3), bch_sm(6, 4), repetition_sm(6, 3), identity_sm(6)],
    ids=["bch3", "bch4", "rep3", "identity"],
)
def test_certified_grid_is_byte_identical_to_the_sampled_one(monkeypatch, sm):
    """A proxy decoder samples every cell; the lookup decoder itself
    certifies most of them, and the two grids must not differ by a byte."""
    q, dec = _steane_qds(sm)
    built = _counting_generators(monkeypatch)
    sampled = build_grid(q, _ProxyDecoder(dec), seed=11, boundary_trials=30, bulk_trials=6)
    assert len(built) == len(sampled.cells)
    certified = build_grid(q, dec, seed=11, boundary_trials=30, bulk_trials=6)
    assert len(built) < 2 * len(sampled.cells)
    assert certified.to_json_text() == sampled.to_json_text()


def test_a_decoder_of_an_equal_code_object_certifies_and_a_reordered_one_is_refused():
    """A decoder acts on its code's check matrix alone, so one built for an
    equal code object certifies the same cells and gives the grid of the
    base code's own decoder.  One built for Steane with its generators
    reversed reads other syndromes: it once passed verify and certified
    cells it fails, and is refused before any cell is built."""
    q, own = _steane_qds(bch_sm(6, 3))
    equal = lookup_decoder_build(steane_code(), max_weight=1)
    assert equal.code is not q.base
    own_grid = build_grid(q, own, seed=7, boundary_trials=4, bulk_trials=2)
    assert build_grid(q, equal, seed=7, boundary_trials=4, bulk_trials=2) == own_grid
    assert _grid_plan(q, equal)[1] == _grid_plan(q, own)[1]
    reordered = lookup_decoder_build(StabilizerCode(q.base.generators[::-1]), max_weight=1)
    with pytest.raises(ValueError, match="check matrix"):
        build_grid(q, reordered, seed=7, boundary_trials=4, bulk_trials=2)


def _mismatched_decoders():
    """Decoders of Steane with its generators reversed and of [[5,1,3]]."""
    reordered = StabilizerCode(steane_code().generators[::-1])
    five = StabilizerCode(map(PauliOperator.from_string, ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]))
    return [lookup_decoder_build(code, max_weight=1) for code in (reordered, five)]


@pytest.mark.parametrize("which", [0, 1], ids=["reordered-steane", "five-qubit"])
def test_every_entry_point_refuses_a_decoder_of_another_check_matrix(which):
    """The reordered Steane decoder once passed verify's 34,364 cases and
    certified cells (1, 0) and (1, 1) that the one-trial chain fails, and
    the [[5,1,3]] one raised numpy's IndexError from each of these."""
    q, _ = _steane_qds(bch_sm(6, 3))
    dec = _mismatched_decoders()[which]
    masks = np.zeros(3, dtype=np.int64)
    calls = [
        lambda: verify_correction_guarantee(q, dec),
        lambda: build_grid(q, dec, seed=1, boundary_trials=4, bulk_trials=2),
        lambda: direct_monte_carlo(q, dec, ErrorModel(p_q=0.1, p_s=0.1), trials=10, seed=1),
        lambda: q._count_failures(dec, masks, masks),
    ]
    message = "^the decoder's code has a check matrix other than the base code's$"
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


_EXACT_SMS = [bch_sm(6, 3), bch_sm(6, 4), repetition_sm(6, 3), identity_sm(6)]
_EXACT_IDS = ["bch3", "bch4", "rep3", "identity"]


@pytest.mark.parametrize(
    "sm", [bch_sm(6, 3), repetition_sm(6, 3), identity_sm(6)], ids=["bch3", "rep3", "identity"]
)
def test_verdicts_match_the_exhaustive_kernel_count(sm):
    """Every cell small enough to enumerate (at most 2 * 10^5 cases)
    through the kernel: its failures are |E| C - K Z, and its verdict is a
    certain rate exactly where they are none or all of its cases."""
    q, dec = _steane_qds(sm)
    kept, zero = q._corrected_counts(dec, q.base.n), q.sm._zero_counts
    verdicts = _grid_plan(q, dec)[1]
    checked = 0
    for w_q in range(q.base.n + 1):
        errors = _weight_pauli_masks(q.base.n, w_q)
        for w_s in range(q.sm.n_s + 1):
            cases = len(errors) * comb(q.sm.n_s, w_s)
            if cases > 2 * 10**5:
                continue
            flips = _support_masks(q.sm.n_s, w_s)
            failures = q._count_failures(
                dec, np.repeat(errors, len(flips)), np.tile(flips, len(errors))
            )
            assert failures == cases - kept[w_q] * zero[w_s]
            assert verdicts[w_q][w_s] == {0: _PASS, cases: _FAIL}.get(failures, _DRAW)
            checked += 1
    assert checked > 2 * (q.base.n + 1)


@pytest.mark.parametrize("sm", _EXACT_SMS, ids=_EXACT_IDS)
def test_a_readout_certain_cell_counts_the_same_without_its_flips(sm):
    """Every pattern of weight w_s <= t_s, and of no other weight, decodes
    alone to offset 0, so there the flips cannot change a verdict, and
    they are drawn after the errors: a cell that draws none counts what
    the full draw counts through the kernel."""
    q, dec = _steane_qds(sm)
    n, n_s = q.base.n, q.sm.n_s
    certain = [ws for ws, z in enumerate(q.sm._zero_counts) if z == comb(n_s, ws)]
    assert certain == list(range(q.sm.t_s + 1))
    for w_q in range(n + 1):
        for w_s in certain:
            rng = _cell_generator(4, w_q, w_s)
            errors = sim._draw_errors(n, w_q, 200, rng)
            full = q._count_failures(dec, errors, sim._draw_flips(n_s, w_s, 200, rng))
            assert _run_cell(q, dec, w_q, w_s, 200, _cell_generator(4, w_q, w_s)) == full


@pytest.mark.parametrize(
    "sm, skipped",
    [(bch_sm(6, 3), 24), (repetition_sm(6, 3), 12), (repetition_sm(6, 5), 18)],
)
def test_readout_certain_cells_draw_no_flips(monkeypatch, sm, skipped):
    """The three-verdict plan draws the cells it cannot certify, and of
    those every sampled cell of BCH(t=3), 12 of repetition(3)'s 52 and 18
    of repetition(5)'s draw no flips: exactly those at w_s <= t_s.  The
    others gather their flips' verdicts from `_zero_words` and test no
    word, except past its cap (repetition(5): n_s = 30), where exactly
    they test theirs with `_decode_is_zero`."""
    q, dec = _steane_qds(sm)
    # the tables decode flips while they are built
    _grid_plan(q, dec)
    q.sm._zero_words
    built = _counting_generators(monkeypatch)
    flipped, decoded = set(), set()

    def draw_flips(*args):
        flipped.add(built[-1])
        return draw_flips.inner(*args)

    def decode_is_zero(self, words):
        decoded.add(built[-1])
        return decode_is_zero.inner(self, words)

    draw_flips.inner, decode_is_zero.inner = sim._draw_flips, type(q.sm)._decode_is_zero
    monkeypatch.setattr(sim, "_draw_flips", draw_flips)
    monkeypatch.setattr(type(q.sm), "_decode_is_zero", decode_is_zero)
    build_grid(q, dec, seed=7, boundary_trials=40, bulk_trials=10)
    verdicts = _grid_plan(q, dec)[1]
    assert {v for row in verdicts for v in row} == {_PASS, _FAIL, _DRAW}
    drawn = [(wq, ws) for wq, row in enumerate(verdicts) for ws, v in enumerate(row) if v == _DRAW]
    assert built == drawn
    undrawn = [cell for cell in built if cell not in flipped]
    assert len(undrawn) == skipped
    assert [cell in undrawn for cell in built] == [ws <= q.sm.t_s for _, ws in built]
    if q.sm._zero_words is None:
        assert decoded == flipped
    else:
        assert decoded == set() and len(flipped) == len(built) - skipped > 0


@pytest.mark.parametrize("seed", [7, 12])
@pytest.mark.parametrize("sm", _EXACT_SMS + [repetition_sm(6, 5)], ids=_EXACT_IDS + ["rep5"])
def test_every_gated_grid_cell_equals_the_ungated_kernel(sm, seed):
    """Cell by cell, the gated grid (certified cells, the gathers and the
    undrawn flips) equals one whose every cell draws its errors and flips
    in full and counts them through `_count_failures` with a proxy
    decoder, called once per error."""
    q, dec = _steane_qds(sm)
    gated = build_grid(q, dec, seed=seed, boundary_trials=60, bulk_trials=12)
    proxy, n, n_s = _ProxyDecoder(dec), q.base.n, q.sm.n_s
    for (wq, ws), st in gated.cells.items():
        trials = 60 if wq <= dec.max_weight + 1 and ws <= q.sm.t_s + 1 else 12
        rng = _cell_generator(seed, wq, ws)
        errors = sim._draw_errors(n, wq, trials, rng)
        flips = sim._draw_flips(n_s, ws, trials, rng)
        assert (st.trials, st.failures) == (trials, q._count_failures(proxy, errors, flips))


# Hamming checks repeated over five blocks: 35 qubits, so 2n = 70 bits and
# the error masks are object arrays
_WIDE = css_from_parity(
    BinaryMatrix.from_strings([row * 5 for row in ["1010101", "0110011", "0001111"]])
)


def test_grid_past_the_table_cap_samples_every_cell(monkeypatch):
    """4^35 Paulis pass the data side's cap, so every cell is sampled; the
    digest was taken when no cell could be certified."""
    q = qds_assemble(_WIDE, bch_sm(6, 3))
    dec = lookup_decoder_build(_WIDE, max_weight=1)
    cells = [(wq, ws) for wq in (0, 1, 2, 3, 35) for ws in (0, 3, 4, 21)]
    built = _counting_generators(monkeypatch)
    grid = build_grid(q, dec, seed=5, boundary_trials=40, bulk_trials=10, cells=cells)
    assert sorted(built) == sorted(cells)
    assert hashlib.sha256(grid.to_json_text().encode()).hexdigest() == (
        "8d74c2249db34a88c45c811e3798c85857f7e2cb480a72837cbe27cd21b05623"
    )


def test_a_lookup_past_the_class_array_keeps_the_wide_grid(monkeypatch):
    """Without its class array the decoder is searched once per batch; the
    wide grid's digest, pinned above, must not move, and every cell must
    equal the per-trial path's."""
    q = qds_assemble(_WIDE, bch_sm(6, 3))
    dec = lookup_decoder_build(_WIDE, max_weight=1)
    monkeypatch.setitem(vars(dec), "_correction_classes", None)
    cells = [(wq, ws) for wq in (0, 1, 2, 3, 35) for ws in (0, 3, 4, 21)]
    grid = build_grid(q, dec, seed=5, boundary_trials=40, bulk_trials=10, cells=cells)
    assert hashlib.sha256(grid.to_json_text().encode()).hexdigest() == (
        "8d74c2249db34a88c45c811e3798c85857f7e2cb480a72837cbe27cd21b05623"
    )
    proxy = build_grid(
        q, _ProxyDecoder(dec), seed=5, boundary_trials=40, bulk_trials=10, cells=cells
    )
    assert grid.cells == proxy.cells


def test_a_base_code_past_the_table_cap_is_looked_up_per_batch(monkeypatch):
    """Five Hamming blocks: ell = 30, so the decoder has no class array,
    and 2n = 70, so its rows are an object array.  A table stopped at
    weight 2 misses most syndromes; the batched search must find the same
    hits and misses as one `_decode_mask` per trial."""
    rows = ["1010101", "0110011", "0001111"]
    blocks = css_from_parity(
        BinaryMatrix.from_strings(
            ["0" * 7 * b + r + "0" * 7 * (4 - b) for b in range(5) for r in rows]
        )
    )
    q = qds_assemble(blocks, repetition_sm(30, 3))
    dec = lookup_decoder_build(blocks, max_weight=1, budget=6_000)
    assert dec._correction_classes is None and dec._rows.dtype == object
    by_syndrome = {s: c for s, c, _ in dec._rows.tolist()}
    probes = [0, (1 << 30) - 1, *by_syndrome, *random.Random(8).sample(range(1 << 30), 500)]
    classes = dec._classes_of(np.array(probes, dtype=np.int64))
    assert classes.tolist() == [by_syndrome.get(s, -1) for s in probes]
    calls = []
    monkeypatch.setattr(LookupDecoder, "_decode_mask", lambda self, m: calls.append(m))
    cells = [(wq, ws) for wq in (0, 1, 2, 3) for ws in (0, 1, 2, 5)]
    grid = build_grid(q, dec, seed=3, boundary_trials=60, bulk_trials=20, cells=cells)
    assert calls == []
    monkeypatch.undo()
    proxy = build_grid(
        q, _ProxyDecoder(dec), seed=3, boundary_trials=60, bulk_trials=20, cells=cells
    )
    assert grid.cells == proxy.cells
    failures = [st.failures for st in grid.cells.values()]
    assert 0 in failures and max(failures) > 0 and min(f for f in failures if f) < 60


def _bit_array_masks(n, n_s, w_q, w_s, trials, rng):
    """The sampler as it was before it built masks directly: the same draws
    written into 0/1 arrays by fancy indexing, then packed."""
    rows = np.arange(trials)[:, None]
    errors = np.zeros((trials, 2 * n), dtype=np.uint8)
    flips = np.zeros((trials, n_s), dtype=np.uint8)
    if w_q:
        supports = np.argsort(rng.random((trials, n)), axis=1)[:, :w_q]
        letters = rng.integers(0, 3, size=(trials, w_q))  # 0 = X, 1 = Y, 2 = Z
        errors[rows, supports] = letters <= 1
        errors[rows, supports + n] = letters >= 1
    if w_s:
        flips[rows, np.argsort(rng.random((trials, n_s)), axis=1)[:, :w_s]] = 1
    return tuple(
        np.array([_bits_to_mask(row, "row") for row in bits.tolist()], dtype=_mask_dtype(width))
        for bits, width in ((errors, 2 * n), (flips, n_s))
    )


@pytest.mark.parametrize(
    "base, sm",
    [(steane_code(), bch_sm(6, 3)), (_WIDE, bch_sm(6, 3)), (steane_code(), repetition_sm(6, 11))],
    ids=["steane", "wide-70bit-errors", "rep11-66bit-flips"],
)
def test_cell_sampler_matches_the_bit_array_reference(base, sm):
    n, n_s, trials = base.n, sm.n_s, 300
    low = (1 << n) - 1
    for w_q in (0, 1, n):
        for w_s in sorted({0, 1, 2, sm.t_s, n_s - 1, n_s}):
            rng = _cell_generator(3, w_q, w_s)
            errors = sim._draw_errors(n, w_q, trials, rng)
            flips = sim._draw_flips(n_s, w_s, trials, rng)
            want_errors, want_flips = _bit_array_masks(
                n, n_s, w_q, w_s, trials, _cell_generator(3, w_q, w_s)
            )
            assert (errors.dtype, flips.dtype) == (want_errors.dtype, want_flips.dtype)
            assert errors.tolist() == want_errors.tolist()
            assert flips.tolist() == want_flips.tolist()
            assert [((e | e >> n) & low).bit_count() for e in errors.tolist()] == [w_q] * trials
            assert [f.bit_count() for f in flips.tolist()] == [w_s] * trials


class _TiedKeys:
    """A generator whose keys take one of four values, so a row's w-th
    smallest key ties with others; integers come from a seeded stream."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def random(self, size):
        return np.floor(self._rng.random(size) * 4) / 4

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)


@pytest.mark.parametrize("w_s", [1, 3, 10, 20])
def test_cell_sampler_breaks_key_ties_by_the_argsort_order(w_s):
    """Keys tied at the w_s-th smallest would put more than w_s keys at or
    below it; the flips must still weigh exactly w_s and be the argsort's."""
    trials, n_s = 300, bch_sm(6, 3).n_s
    keys = _TiedKeys(5).random((trials, n_s))
    assert np.count_nonzero(keys <= np.sort(keys, axis=1)[:, w_s - 1 : w_s]) > trials * w_s
    rng = _TiedKeys(5)
    assert sim._draw_errors(7, 0, trials, rng).tolist() == [0] * trials
    flips = sim._draw_flips(n_s, w_s, trials, rng)
    _, want_flips = _bit_array_masks(7, n_s, 0, w_s, trials, _TiedKeys(5))
    assert [f.bit_count() for f in flips.tolist()] == [w_s] * trials
    assert flips.tolist() == want_flips.tolist()


@pytest.mark.parametrize(
    "base, sm",
    [(steane_code(), bch_sm(6, 3)), (_WIDE, bch_sm(6, 3)), (steane_code(), bch_sm(6, 10))],
    ids=["steane", "wide-70bit-errors", "bch10-69bit-flips"],
)
def test_direct_sampler_matches_the_bit_array_reference(base, sm):
    """direct_monte_carlo's masks against its draws written into 0/1 rows
    and packed bit by bit; weight-aware rates, so a flip on the wrong row
    would also come from the wrong rate."""
    q = qds_assemble(base, sm)
    batches = []
    q._count_failures = lambda decoder, errors, flips: batches.append((errors, flips)) or 0
    model = ErrorModel(p_q=0.3, p_s=0.1, weight_aware=True)
    n, n_s, trials = base.n, sm.n_s, 50
    direct_monte_carlo(q, None, model, trials=trials, seed=17)
    errors, flips = batches.pop()
    rng = np.random.default_rng(np.random.SeedSequence(17))
    hits = rng.random((trials, n)) < model.p_q
    letters = rng.integers(0, 3, size=(trials, n))  # 0 = X, 1 = Y, 2 = Z
    row_p = [stabilizer_meas_error_prob(w, model.p_s) if w else 0.0 for w in q.row_weights]
    flipped = rng.random((trials, n_s)) < np.array(row_p)
    bits = np.concatenate((hits & (letters <= 1), hits & (letters >= 1)), axis=1)
    assert errors.tolist() == [_bits_to_mask(row, "error") for row in bits.astype(int).tolist()]
    assert flips.tolist() == [_bits_to_mask(row, "flips") for row in flipped.astype(int).tolist()]
    assert (errors.dtype, flips.dtype) == (_mask_dtype(2 * n), _mask_dtype(n_s))


@pytest.mark.parametrize("weight_aware, want", [(False, 0.0415), (True, 0.343)])
def test_pinned_direct_monte_carlo(weight_aware, want):
    q, dec = _steane_qds(bch_sm(6, 3))
    model = ErrorModel(p_q=0.05, p_s=0.03, weight_aware=weight_aware)
    assert direct_monte_carlo(q, dec, model, trials=2_000, seed=5) == want


@pytest.mark.parametrize(
    "base, sm, model, want",
    [
        (steane_code(), bch_sm(6, 10), ErrorModel(0.05, 0.1), 0.112),
        (steane_code(), bch_sm(6, 10), ErrorModel(0.05, 0.02, weight_aware=True), 0.077),
        (_WIDE, bch_sm(6, 3), ErrorModel(0.02, 0.03), 0.467),
        (_WIDE, bch_sm(6, 3), ErrorModel(0.01, 0.002, weight_aware=True), 0.271),
    ],
    ids=["69bit-flips", "69bit-flips-weight-aware", "70bit-paulis", "70bit-paulis-weight-aware"],
)
def test_pinned_direct_monte_carlo_past_62_bits(base, sm, model, want):
    """Flip or error masks too wide for int64 are object arrays; the pins
    were taken when the draws were packed from 0/1 arrays."""
    q = qds_assemble(base, sm)
    dec = lookup_decoder_build(base, max_weight=1)
    assert direct_monte_carlo(q, dec, model, trials=1_000, seed=5) == want
