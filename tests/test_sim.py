"""Weight-stratified Monte Carlo: determinism, recombination, cross-checks."""

import hashlib
import math
import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from qdsbch.bch import BchCode
from qdsbch.linalg import BinaryMatrix, _bits_to_mask, _mask_dtype
from qdsbch.qds import bch_sm, identity_sm, qds_assemble, repetition_sm
from qdsbch.sim import (
    CellStats,
    ErrorModel,
    SimGrid,
    _cell_generator,
    _run_cell,
    binomial_weight_probability,
    build_grid,
    combine_grid,
    combine_grid_bounds,
    default_code_meta,
    direct_monte_carlo,
    estimate_cell,
    required_cells,
    stabilizer_meas_error_prob,
    sweep,
    wilson_interval,
)
from qdsbch.stabilizer import LookupDecoder, css_from_parity, lookup_decoder_build, steane_code


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


def test_error_model_validation():
    ErrorModel(0.01, 0.02)
    with pytest.raises(ValueError):
        ErrorModel(-0.1, 0.0)
    with pytest.raises(ValueError):
        ErrorModel(0.0, 1.5)


# --- cell estimation ------------------------------------------------------------


def test_estimate_cell_is_deterministic():
    q, dec = _steane_qds(bch_sm(6, 3))
    a = estimate_cell(q, dec, 2, 1, trials=500, seed=42)
    b = estimate_cell(q, dec, 2, 1, trials=500, seed=42)
    assert a == b
    c = estimate_cell(q, dec, 2, 1, trials=500, seed=43)
    # different seed gives an independent stream (values may coincide but
    # the draw sequence must not be forced to)
    assert 0.0 <= c <= 1.0


def test_estimate_cell_certified_region_is_zero():
    q, dec = _steane_qds(bch_sm(6, 3))
    for w_q in (0, 1):
        for w_s in (0, 1, 2, 3):
            assert estimate_cell(q, dec, w_q, w_s, trials=300, seed=7) == 0.0


def test_estimate_cell_all_flips_is_deterministic_failure_fraction():
    q, dec = _steane_qds()
    frac = estimate_cell(q, dec, 0, q.sm.n_s, trials=100, seed=3)
    assert frac in (0.0, 1.0)


@pytest.mark.parametrize("sm, want", [(bch_sm(6, 3), 0.75), (repetition_sm(6, 3), 0.78)])
def test_pinned_estimate_cell(sm, want):
    """Values taken before estimate_cell became a one-cell build_grid."""
    q, dec = _steane_qds(sm)
    assert estimate_cell(q, dec, 2, 2, 200, 3) == want


def test_estimate_cell_validates_inputs():
    q, dec = _steane_qds()
    with pytest.raises(ValueError):
        estimate_cell(q, dec, 8, 0, trials=10, seed=1)
    with pytest.raises(ValueError):
        estimate_cell(q, dec, 0, 7, trials=10, seed=1)
    with pytest.raises(ValueError):
        estimate_cell(q, dec, 0, 0, trials=0, seed=1)


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


def test_combine_missing_cell_raises():
    q, dec = _steane_qds()
    grid = build_grid(q, dec, seed=2, boundary_trials=50, bulk_trials=20,
                      cells=[(wq, ws) for wq in range(3) for ws in range(7)])
    # covered at a coarse truncation
    combine_grid(grid, 0.01, 0.01, truncation=1e-4)
    with pytest.raises(ValueError):
        combine_grid(grid, 0.01, 0.01, truncation=0.0)


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
    with pytest.raises(ValueError):
        required_cells(7, 6, [(1e-3, 1e-3)], truncation=-1.0)


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


# Hamming checks repeated over five blocks: 35 qubits, so 2n = 70 bits and
# the error masks are object arrays
_WIDE = css_from_parity(
    BinaryMatrix.from_strings([row * 5 for row in ["1010101", "0110011", "0001111"]])
)


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
    q = qds_assemble(base, sm)
    batches = []
    q._count_failures = lambda decoder, errors, flips: batches.append((errors, flips)) or 0
    n, n_s, trials = base.n, sm.n_s, 40
    low = (1 << n) - 1
    for w_q in (0, 1, n):
        for w_s in (0, 2, n_s):
            _run_cell(q, None, w_q, w_s, trials, _cell_generator(3, w_q, w_s))
            errors, flips = batches.pop()
            want_errors, want_flips = _bit_array_masks(
                n, n_s, w_q, w_s, trials, _cell_generator(3, w_q, w_s)
            )
            assert (errors.dtype, flips.dtype) == (want_errors.dtype, want_flips.dtype)
            assert errors.tolist() == want_errors.tolist()
            assert flips.tolist() == want_flips.tolist()
            assert [((e | e >> n) & low).bit_count() for e in errors.tolist()] == [w_q] * trials
            assert [f.bit_count() for f in flips.tolist()] == [w_s] * trials


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
