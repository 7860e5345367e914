"""Phenomenological-noise Monte Carlo for QDS codes, weight-stratified.

The error model draws a data Pauli error (each qubit hit independently
with probability p_q, uniform X/Y/Z letter) and independent readout bit
flips (probability p_s per measurement, or the weight-dependent
stabilizer_meas_error_prob when the model is weight-aware).  A trial
fails when the two-step decode gives up or the residual error is not an
element of the stabilizer group.

Instead of sampling that model directly at each (p_q, p_s), cells are
sampled at fixed error weights: estimate the failure fraction p_L(w_q,
w_s) with errors of exactly w_q hit qubits and exactly w_s flipped
readouts, then recombine

    p_err(p_q, p_s) = sum_cells A(w_q; p_q, n) A(w_s; p_s, n_s) p_L

with binomial weight probabilities A.  One grid of cells serves every
probability point, cells with negligible prefactor are dropped (the sum
of their prefactors bounds what they would add), and each cell draws from
its own seeded stream so grids are reproducible cell by cell.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb, sqrt
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from . import __version__
from .linalg import _mask_dtype
from .qds import QdsCode
from .stabilizer import _pauli_masks

Cell = Tuple[int, int]


def stabilizer_meas_error_prob(w: int, p_m: float) -> float:
    """Probability that a weight-w stabilizer measurement reads out wrong
    when each of the w physical factors fails independently with
    probability p_m: the chance of an odd number of failures,
    (1 - (1 - 2 p_m)^w) / 2."""
    if w < 1:
        raise ValueError("measurement weight must be at least 1")
    if not 0.0 <= p_m <= 1.0:
        raise ValueError("p_m must be a probability")
    return 0.5 * (1.0 - (1.0 - 2.0 * p_m) ** w)


def binomial_weight_probability(w: int, p: float, n: int) -> float:
    """A(w; p, n) = C(n, w) p^w (1-p)^(n-w)."""
    if not 0 <= w <= n:
        raise ValueError("need 0 <= w <= n")
    return comb(n, w) * p**w * (1.0 - p) ** (n - w)


def wilson_interval(failures: int, trials: int, z: float = 1.96) -> Tuple[float, float]:
    """Wilson score interval for a binomial fraction."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if not 0 <= failures <= trials:
        raise ValueError("failures must be in [0, trials]")
    phat = failures / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = (z / denom) * sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class ErrorModel:
    """Phenomenological model: qubit error rate p_q, readout flip rate p_s.

    When weight_aware is set, each readout bit flips with
    stabilizer_meas_error_prob(row weight, p_s) instead of plain p_s.
    """

    p_q: float
    p_s: float
    weight_aware: bool = False

    def __post_init__(self):
        for name in ("p_q", "p_s"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be a probability, got {v}")


@dataclass
class CellStats:
    trials: int
    failures: int


class SimGrid:
    """Failure statistics per (w_q, w_s) cell, with provenance.

    code_meta must at least carry n and n_s so the grid can be recombined
    without the code objects in hand.
    """

    def __init__(self, code_meta: dict, seed: int, cells: Optional[Dict[Cell, CellStats]] = None):
        self.code_meta = dict(code_meta)
        self.seed = seed
        self.cells: Dict[Cell, CellStats] = dict(cells) if cells else {}

    def add(self, w_q: int, w_s: int, trials: int, failures: int) -> None:
        """Record one cell; a cell is sampled once, so a repeat is an error."""
        key = (w_q, w_s)
        if key in self.cells:
            raise ValueError(f"grid repeats cell {key}")
        self.cells[key] = CellStats(trials, failures)

    def to_json_dict(self) -> dict:
        return {
            "code_meta": self.code_meta,
            "seed": self.seed,
            "cells": [
                {
                    "wq": wq,
                    "ws": ws,
                    "trials": st.trials,
                    "failures": st.failures,
                }
                for (wq, ws), st in sorted(self.cells.items())
            ],
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SimGrid":
        """Parse a grid file, rejecting what no sampler could have written:
        a missing key, a seed, weight or count that is not a JSON integer, a
        negative seed, duplicates, cells outside the weight domain of n and
        n_s in code_meta, and counts that are not 0 <= failures <= trials,
        trials >= 1.  Every rejection is a ValueError."""
        seed = _json_int(obj, "seed", "grid file")
        if seed < 0:
            raise ValueError(f"grid file 'seed' must be nonnegative, got {seed}")
        for key, kind, name in (("code_meta", dict, "object"), ("cells", list, "array")):
            if key not in obj:
                raise ValueError(f"grid file is missing {key!r}")
            if not isinstance(obj[key], kind):
                raise ValueError(f"grid file {key!r} must be a JSON {name}")
        grid = cls(obj["code_meta"], seed)
        n, n_s = _domain_from_meta(grid)
        for cell in obj["cells"]:
            key = (_json_int(cell, "wq", "grid cell"), _json_int(cell, "ws", "grid cell"))
            trials = _json_int(cell, "trials", "grid cell")
            failures = _json_int(cell, "failures", "grid cell")
            if not (0 <= key[0] <= n and 0 <= key[1] <= n_s):
                raise ValueError(f"grid cell {key} is outside [0, {n}] x [0, {n_s}]")
            if trials < 1 or not 0 <= failures <= trials:
                raise ValueError(f"grid cell {key} has {failures} failures in {trials} trials")
            grid.add(*key, trials, failures)
        return grid

    @classmethod
    def from_json_text(cls, text: str) -> "SimGrid":
        return cls.from_json_dict(json.loads(text))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimGrid)
            and self.code_meta == other.code_meta
            and self.seed == other.seed
            and self.cells == other.cells
        )

    def __repr__(self) -> str:
        return f"SimGrid(cells={len(self.cells)}, seed={self.seed})"


def _cell_generator(seed: int, w_q: int, w_s: int) -> np.random.Generator:
    # one independent, reproducible stream per cell; grid build order and
    # cell subsetting cannot change any cell's samples
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(w_q, w_s)))


def _run_cell(qds: QdsCode, decoder, w_q: int, w_s: int, trials: int, rng) -> int:
    """Failure count over `trials` samples at exact weights (w_q, w_s)."""
    n = qds.base.n
    n_s = qds.sm.n_s
    errors = np.zeros(trials, dtype=_mask_dtype(2 * n))
    flips = np.zeros(trials, dtype=_mask_dtype(n_s))
    if w_q:
        supports = np.argsort(rng.random((trials, n)), axis=1)[:, :w_q]
        letters = rng.integers(0, 3, size=(trials, w_q))  # 0 = X, 1 = Y, 2 = Z
        errors = _pauli_masks(supports, letters, n)
    if w_s:
        sites = np.argsort(rng.random((trials, n_s)), axis=1)[:, :w_s]
        flips = np.bitwise_or.reduce(np.array(1, dtype=flips.dtype) << sites, axis=1)
    return qds._count_failures(decoder, errors, flips)


def estimate_cell(
    qds: QdsCode, decoder, w_q: int, w_s: int, trials: int, seed: int
) -> float:
    """Failure fraction at exact weights (w_q, w_s), reproducible by seed:
    the (w_q, w_s) cell of a grid with that seed and trial count."""
    grid = build_grid(
        qds, decoder, seed=seed, boundary_trials=trials, bulk_trials=trials, cells=[(w_q, w_s)]
    )
    st = grid.cells[(w_q, w_s)]
    return st.failures / st.trials


def default_code_meta(qds: QdsCode, decoder) -> dict:
    meta = {
        "version": __version__,
        "n": qds.base.n,
        "k": qds.base.k,
        "ell": qds.base.ell,
        "n_s": qds.sm.n_s,
        "t_s": qds.sm.t_s,
        "t_data": decoder.max_weight,
        "sm": qds.sm.name,
        "extra_measurements": qds.extra_measurements,
    }
    return meta


def build_grid(
    qds: QdsCode,
    decoder,
    *,
    seed: int,
    boundary_trials: int = 10_000,
    bulk_trials: int = 1_000,
    cells: Optional[Iterable[Cell]] = None,
    code_meta: Optional[dict] = None,
) -> SimGrid:
    """Sample a grid of (w_q, w_s) cells.

    Cells at the failure boundary (w_q <= t_data + 1 and w_s <= t_s + 1)
    get boundary_trials samples, the rest bulk_trials.  cells defaults to
    the full (n+1) x (n_s+1) domain.
    """
    if boundary_trials < 1 or bulk_trials < 1:
        raise ValueError("trial counts must be positive")
    n = qds.base.n
    n_s = qds.sm.n_s
    if cells is None:
        cells = [(wq, ws) for wq in range(n + 1) for ws in range(n_s + 1)]
    else:
        cells = sorted(set(cells))
        for wq, ws in cells:
            if not (0 <= wq <= n and 0 <= ws <= n_s):
                raise ValueError(f"cell ({wq}, {ws}) outside the weight domain")
    t_data = decoder.max_weight
    t_s = qds.sm.t_s
    meta = default_code_meta(qds, decoder) if code_meta is None else dict(code_meta)
    grid = SimGrid(meta, seed)
    for wq, ws in cells:
        trials = boundary_trials if (wq <= t_data + 1 and ws <= t_s + 1) else bulk_trials
        rng = _cell_generator(seed, wq, ws)
        failures = _run_cell(qds, decoder, wq, ws, trials, rng)
        grid.add(wq, ws, trials, failures)
    return grid


def _kept_cells(
    n: int, n_s: int, p_q: float, p_s: float, truncation: float
) -> Tuple[List[Tuple[int, int, float]], int, float]:
    """The (w_q, w_s, prefactor) cells whose binomial prefactor reaches
    truncation, in row-major order, the count of cells dropped and the sum
    of their prefactors."""
    for name, v in (("p_q", p_q), ("p_s", p_s)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must be a probability, got {v}")
    if truncation < 0.0:
        raise ValueError("truncation must be nonnegative")
    col = [binomial_weight_probability(ws, p_s, n_s) for ws in range(n_s + 1)]
    kept = []
    dropped = 0
    mass = 0.0
    for wq in range(n + 1):
        aq = binomial_weight_probability(wq, p_q, n)
        if aq < truncation:  # every cell in this row is below threshold
            dropped += n_s + 1
            mass += aq * sum(col)
            continue
        for ws in range(n_s + 1):
            pref = aq * col[ws]
            if pref < truncation:
                dropped += 1
                mass += pref
            else:
                kept.append((wq, ws, pref))
    return kept, dropped, mass


@dataclass(frozen=True)
class CombineResult:
    p_err: float
    truncation_mass: float
    dropped_cells: int


def combine_grid(
    grid: SimGrid, p_q: float, p_s: float, truncation: float = 1e-12
) -> CombineResult:
    """Recombine a grid into p_err(p_q, p_s).

    Cells with binomial prefactor below truncation contribute zero, and
    the sum of their prefactors is truncation_mass.  A needed cell
    (prefactor >= truncation) absent from the grid is an error.
    """
    kept, dropped, mass = _kept_cells(*_domain_from_meta(grid), p_q, p_s, truncation)
    p_err = 0.0
    for wq, ws, pref in kept:
        st = grid.cells.get((wq, ws))
        if st is None:
            raise ValueError(
                f"grid is missing cell ({wq}, {ws}) with prefactor {pref:.3g} "
                f">= truncation {truncation:.3g}"
            )
        p_err += pref * (st.failures / st.trials)
    return CombineResult(p_err=p_err, truncation_mass=mass, dropped_cells=dropped)


def combine_grid_bounds(
    grid: SimGrid, p_q: float, p_s: float, truncation: float = 1e-12, z: float = 1.96
) -> Tuple[float, float]:
    """Wilson-interval bounds on p_err(p_q, p_s) from a grid.

    Cells inside the certified-correctable region (w_q <= t_data and
    w_s <= t_s from code_meta) are exactly zero and contribute no
    uncertainty.  The upper bound includes the truncation mass.
    """
    t_data = grid.code_meta.get("t_data")
    t_s = grid.code_meta.get("t_s")
    kept, _, mass = _kept_cells(*_domain_from_meta(grid), p_q, p_s, truncation)
    lo = hi = 0.0
    for wq, ws, pref in kept:
        st = grid.cells.get((wq, ws))
        if st is None:
            raise ValueError(f"grid is missing cell ({wq}, {ws})")
        certified = t_data is not None and t_s is not None and wq <= t_data and ws <= t_s
        if certified and st.failures == 0:
            continue
        cell_lo, cell_hi = wilson_interval(st.failures, st.trials, z)
        lo += pref * cell_lo
        hi += pref * cell_hi
    return lo, hi + mass


def _json_int(obj, key: str, where: str) -> int:
    """obj[key] where it is a JSON integer.  A missing key, or a value of
    any other type (a bool too, though Python counts it an int), is a
    ValueError naming the key."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object")
    if key not in obj:
        raise ValueError(f"{where} is missing {key!r}")
    value = obj[key]
    if type(value) is not int:
        raise ValueError(f"{where} {key!r} must be an integer, got {value!r}")
    return value


def _domain_from_meta(grid: SimGrid) -> Tuple[int, int]:
    """code_meta's n and n_s, which must be nonnegative integers."""
    n, n_s = (_json_int(grid.code_meta, key, "grid code_meta") for key in ("n", "n_s"))
    if n < 0 or n_s < 0:
        raise ValueError(f"grid code_meta n and n_s must be nonnegative, got {n} and {n_s}")
    return n, n_s


def required_cells(
    n: int, n_s: int, points: Sequence[Tuple[float, float]], truncation: float
) -> Set[Cell]:
    """Cells whose prefactor reaches truncation at any (p_q, p_s) point."""
    needed: Set[Cell] = set()
    for p_q, p_s in points:
        kept, _, _ = _kept_cells(n, n_s, p_q, p_s, truncation)
        needed.update((wq, ws) for wq, ws, _ in kept)
    return needed


@dataclass(frozen=True)
class SweepPoint:
    p_s: float
    p_q: float
    p_err: float
    truncation_mass: float


def sweep(
    qds: QdsCode,
    decoder,
    p_s_values: Sequence[float],
    ratio: float,
    *,
    seed: int,
    boundary_trials: int = 10_000,
    bulk_trials: int = 1_000,
    truncation: float = 1e-12,
    grid: Optional[SimGrid] = None,
) -> Tuple[SimGrid, List[SweepPoint]]:
    """Error-rate curve over p_s values with p_q = ratio * p_s.

    Builds one grid covering every cell any point needs (unless an
    existing grid is passed in) and recombines it per point.
    """
    points = [(ratio * ps, ps) for ps in p_s_values]
    if grid is None:
        cells = required_cells(qds.base.n, qds.sm.n_s, points, truncation)
        grid = build_grid(
            qds,
            decoder,
            seed=seed,
            boundary_trials=boundary_trials,
            bulk_trials=bulk_trials,
            cells=cells,
        )
    return grid, _recombine(grid, points, truncation)


def _recombine(
    grid: SimGrid, points: Sequence[Tuple[float, float]], truncation: float
) -> List[SweepPoint]:
    """combine_grid at each (p_q, p_s) point, as sweep points."""
    out = []
    for p_q, p_s in points:
        res = combine_grid(grid, p_q, p_s, truncation)
        out.append(
            SweepPoint(p_s=p_s, p_q=p_q, p_err=res.p_err, truncation_mass=res.truncation_mass)
        )
    return out


def direct_monte_carlo(
    qds: QdsCode, decoder, model: ErrorModel, trials: int, seed: int
) -> float:
    """Plain Monte Carlo under the full error model (no stratification).

    Useful as a cross-check of grid recombination and as the only way to
    sample the weight-aware readout model.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    n = qds.base.n
    n_s = qds.sm.n_s
    if model.weight_aware:
        row_p = np.array(
            [stabilizer_meas_error_prob(w, model.p_s) if w else 0.0 for w in qds.row_weights]
        )
    else:
        row_p = np.full(n_s, model.p_s)

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    hits = rng.random((trials, n)) < model.p_q
    letters = rng.integers(0, 3, size=(trials, n))  # 0 = X, 1 = Y, 2 = Z
    flipped = rng.random((trials, n_s)) < row_p
    errors = _pauli_masks(np.arange(n), np.where(hits, letters, 3), n)
    bits = np.array(1, dtype=_mask_dtype(n_s)) << np.arange(n_s)
    flips = np.bitwise_or.reduce(np.where(flipped, bits, 0), axis=1)
    return qds._count_failures(decoder, errors, flips) / trials
