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
its own seeded stream so grids are reproducible cell by cell.  That stream
is SeedSequence(seed, spawn_key=(w_q, w_s))'s, seeded straight from the
entropy words numpy assembles for it: the seed's 32-bit words, padded
with zeros to the pool size 4, then w_q and w_s.
combine_grid, combine_grid_bounds, required_cells and a sweep's
recombination share one pass, _prefactors, over all of their points at
once: a (points, n + 1, n_s + 1) array of prefactors, its kept mask and
each point's dropped mass.  Its weights are Python's `**` and its sums
sequential (np.add.accumulate), so every value has the bits of a loop
over one point's cells in row-major order; a weight whose C(n, w) passes
the float range (n >= 1030) is summed in logs.  The grid itself is read
once per recombination, by _read_cells, into flat indices and rates.

Every trial has one verdict, QdsCode._count_failures: it passes exactly
when its flips decode alone to 0 with no give-up and the decoder corrects
its error.  The readout code is linear and its decoder commutes with
adding a codeword, so a readout of syndrome s with flips f decodes to
s ^ D(f), D(f) what f decodes to alone; the lookup correction for that
syndrome has it, so the residual's syndrome is D(f), and a residual with
a nonzero syndrome is never in the stabilizer group.  Errors and flips
are drawn independently, so a cell passes on K(w_q) Z(w_s) of its |E_wq|
C(n_s, w_s) cases (qds._exact_cells, the formula `verify` reads too): K
is `QdsCode._corrected_counts`, the weight-w_q Paulis the decoder
corrects, and Z the SM code's `_zero_counts`, the weight-w_s patterns
that decode alone to 0 (C(n_s, w) up to t_s and 0 above for BCH, a
power of a polynomial for repetition).  From those cells, `_grid_plan`
gives each cell one verdict, once per code and decoder: pass where none
of its cases fail, fail where all do, else draw.
build_grid records a certain cell as 0 or `trials` failures without
building its generator: 152 of the 176 cells of Steane + BCH(t=3), 100
of the 152 of Steane + repetition(3).  A drawn cell takes its errors'
half of the verdict (a gather on the decoder's `_corrected` table) and,
only where w_s > t_s, draws its flips and ANDs in their half (a gather on
the SM code's `_zero_words`), since every pattern of weight <= t_s
decodes alone to 0.  So no sampled cell of BCH draws flips, and 12 of the
52 of repetition(3) draw none.  The bytes cannot change.  The sampler
gives every case of a cell positive probability, so a certain cell's
count is 0 or `trials` whatever the seed.  Each cell has its own stream,
so skipping one cell's draws moves no other cell's, and the flips are
the last draws of a cell's stream, so a cell that skips them draws the
same errors.  Cells are certified only where the decoder is a
LookupDecoder with 4^n <= 2^20 (n <= 10: Steane, [[5,1,3]] and Shor, not
[[15,7,3]]), and the SM code has Z in closed form or n_s <= 20.  Its code
must have the base code's check matrix (an equal code object will do);
QdsCode._corrects refuses any other, so every entry point here does.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from math import comb, exp, inf, log, prod, sqrt
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from . import __version__
from .linalg import _as_int, _as_probability, _mask_dtype
from .qds import QdsCode, _exact_cells
from .stabilizer import LookupDecoder, _pauli_masks

Cell = Tuple[int, int]


def stabilizer_meas_error_prob(w: int, p_m: float) -> float:
    """Probability that a weight-w stabilizer measurement reads out wrong
    when each of the w physical factors fails independently with
    probability p_m: the chance of an odd number of failures,
    (1 - (1 - 2 p_m)^w) / 2."""
    w, p_m = _as_int(w, "w", 1), _as_probability(p_m, "p_m")
    return 0.5 * (1.0 - (1.0 - 2.0 * p_m) ** w)


def binomial_weight_probability(w: int, p: float, n: int) -> float:
    """A(w; p, n) = C(n, w) p^w (1-p)^(n-w), for p in [0, 1]."""
    n = _as_int(n, "n", 0)
    w, p = _as_int(w, "w", 0, n), _as_probability(p, "p")
    c = _comb_factor(n, w)
    if type(c) is int:
        return _log_weight(c, p, 1.0 - p, w, n - w)
    return c * p**w * (1.0 - p) ** (n - w)


def _comb_factor(n: int, w: int):
    """C(n, w) as the float that `int * float` converts it to, or as the
    int where it passes the float range (from n = 1030)."""
    c = comb(n, w)
    try:
        return float(c)
    except OverflowError:
        return c


def _log_weight(c: int, p: float, q: float, w: float, v: float) -> float:
    """c p^w q^v, q = 1 - p, for a c = C(w + v, w) past the float range,
    summed in logs.  Such a c has 0 < w < w + v, so the term is 0 where p
    or q is."""
    if not p or not q:
        return 0.0
    return exp(log(c) + w * log(p) + v * log(q))


def wilson_interval(failures: int, trials: int, z: float = 1.96) -> Tuple[float, float]:
    """Wilson score interval for a binomial fraction."""
    trials = _as_int(trials, "trials", 1)
    failures = _as_int(failures, "failures", 0, trials)
    if not 0.0 <= z < inf:  # also false for NaN
        raise ValueError(f"z must be finite and nonnegative, got {z}")
    phat = failures / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = (z / denom) * sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials))
    # at 0 and at all failures the bounds are exactly 0 and 1, which the
    # rounded center -/+ half can miss by an ulp
    lo = 0.0 if failures == 0 else max(0.0, center - half)
    hi = 1.0 if failures == trials else min(1.0, center + half)
    return lo, hi


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
            _as_probability(getattr(self, name), name)


@dataclass
class CellStats:
    trials: int
    failures: int


class SimGrid:
    """Failure statistics per (w_q, w_s) cell, with provenance.

    code_meta must at least carry n and n_s so the grid can be recombined
    without the code objects in hand.
    """

    def __init__(self, code_meta: dict, seed: int):
        self.code_meta = dict(code_meta)
        self.seed = seed
        self.cells: Dict[Cell, CellStats] = {}

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
        a missing key, a seed, weight, count, n or n_s that is not a
        nonnegative integer (`_json_int`), duplicates, cells outside the
        weight domain of n and n_s in code_meta, and counts that are not
        0 <= failures <= trials, trials >= 1.  Every rejection is a
        ValueError."""
        seed = _json_int(obj, "seed", "grid file")
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
    """The cell's own stream, that of SeedSequence(seed, spawn_key=(w_q,
    w_s)): grid build order and cell subsetting cannot change any cell's
    samples.  numpy assembles that sequence's entropy as the seed's words
    padded to its pool size, then one word per weight (a weight is at most
    n_s, below 2^32); passing those words as the entropy, with no spawn
    key, gives the same pool and skips the coercion of both inputs."""
    entropy = np.array([*_seed_words(seed), w_q, w_s], dtype=np.uint32)
    return np.random.Generator(np.random.PCG64(entropy))


@lru_cache(maxsize=None)
def _seed_words(seed: int) -> Tuple[int, ...]:
    """A nonnegative seed's little-endian 32-bit words ([0] for 0), padded
    with zeros to SeedSequence's pool size of 4."""
    words = [seed & 0xFFFFFFFF]
    while seed >> 32:
        seed >>= 32
        words.append(seed & 0xFFFFFFFF)
    return tuple(words) + (0,) * (4 - len(words))


def _draw_errors(n: int, w_q: int, trials: int, rng) -> np.ndarray:
    """`trials` data errors of weight w_q as symplectic masks: the first
    draws of a cell's stream."""
    if not w_q:
        return np.zeros(trials, dtype=_mask_dtype(2 * n))
    # the w_q smallest keys in order: letter i goes on the qubit of rank i
    supports = rng.random((trials, n)).argsort(axis=1)[:, :w_q]
    letters = rng.integers(3, size=(trials, w_q))  # 0 = X, 1 = Y, 2 = Z
    return _pauli_masks(supports, letters, n)


def _draw_flips(n_s: int, w_s: int, trials: int, rng) -> np.ndarray:
    """`trials` readout flip masks of weight w_s, drawn after the errors."""
    if not w_s:
        return np.zeros(trials, dtype=_mask_dtype(n_s))
    # a flip mask is an OR, so only the set of the w_s smallest keys
    # counts, not their order: the keys at or below the w_s-th smallest
    # (sorting the values beats np.partition on short rows).  A key tied
    # with that one would join the set, so then the set is the first w_s
    # of the argsort order and every mask still weighs w_s
    keys = rng.random((trials, n_s))
    hit = keys <= np.sort(keys, axis=1)[:, w_s - 1 : w_s]
    if np.count_nonzero(hit) != trials * w_s:
        hit = np.zeros_like(hit)
        np.put_along_axis(hit, keys.argsort(axis=1)[:, :w_s], True, axis=1)
    return hit @ _bit_weights(n_s)


@lru_cache(maxsize=None)
def _bit_weights(width: int) -> np.ndarray:
    """1 << i for i < width, of the `_mask_dtype` of width: a bool matrix
    times it packs each row into a mask.  Made once per width, read-only as
    every call shares it."""
    weights = np.array(1, dtype=_mask_dtype(width)) << np.arange(width)
    weights.flags.writeable = False
    return weights


# a cell's verdict in a grid plan: its failure rate where that is certain
# (_PASS and _FAIL, so failures = verdict * trials), else _DRAW
_PASS, _FAIL, _DRAW = range(3)


def _run_cell(qds: QdsCode, decoder, w_q: int, w_s: int, trials: int, rng) -> int:
    """Failure count over `trials` samples at exact weights (w_q, w_s).

    A trial passes exactly when the decoder corrects its error and its
    flips decode alone to 0 (`QdsCode._count_failures`).  Every pattern
    of weight <= t_s decodes alone to 0, so only past t_s are the flips
    drawn and tested; they are the last draws of the stream, so the
    errors are those of the full draw."""
    passed = qds._corrects(decoder, _draw_errors(qds.base.n, w_q, trials, rng))
    if w_s > qds.sm.t_s:
        passed &= qds.sm._decodes_to_zero(_draw_flips(qds.sm.n_s, w_s, trials, rng))
    return trials - int(np.count_nonzero(passed))


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
) -> SimGrid:
    """Sample a grid of (w_q, w_s) cells.

    Cells at the failure boundary (w_q <= t_data + 1 and w_s <= t_s + 1)
    get boundary_trials samples, the rest bulk_trials.  cells defaults to
    the full (n+1) x (n_s+1) domain.  The grid's code_meta is
    default_code_meta(qds, decoder); a caller that records more (the CLI
    adds its provenance) updates grid.code_meta.  A seed, trial count or
    weight that is not an integer (a bool or a float), a negative seed, a
    trial count below 1 or a cell outside the weight domain is a
    ValueError, and so is a `LookupDecoder` whose code has a check matrix
    other than qds.base's; numpy integers are stored as Python ones, so
    the grid's file can be read back.
    """
    if type(boundary_trials) is not int or boundary_trials < 1:
        boundary_trials = _as_int(boundary_trials, "boundary_trials", 1)
    if type(bulk_trials) is not int or bulk_trials < 1:
        bulk_trials = _as_int(bulk_trials, "bulk_trials", 1)
    if type(seed) is not int or seed < 0:
        seed = _as_int(seed, "seed", 0)
    sm = qds.sm
    n, n_s = qds.base.n, sm.n_s
    if cells is None:
        cells = [(wq, ws) for wq in range(n + 1) for ws in range(n_s + 1)]
    else:
        cells = [
            (
                wq if type(wq) is int else _as_int(wq, "weight"),
                ws if type(ws) is int else _as_int(ws, "weight"),
            )
            for wq, ws in cells
        ]
        if len(cells) > 1:
            cells = sorted(set(cells))
        for wq, ws in cells:
            if not (0 <= wq <= n and 0 <= ws <= n_s):
                raise ValueError(f"cell ({wq}, {ws}) outside the weight domain")
    meta, verdicts = _grid_plan(qds, decoder)
    wq_edge, ws_edge = decoder.max_weight + 1, sm.t_s + 1
    grid = SimGrid(meta, seed)
    stats = grid.cells
    for wq, ws in cells:
        trials = boundary_trials if (wq <= wq_edge and ws <= ws_edge) else bulk_trials
        verdict = verdicts[wq][ws]
        if verdict <= _FAIL:
            failures = verdict * trials
        else:
            rng = _cell_generator(seed, wq, ws)
            failures = _run_cell(qds, decoder, wq, ws, trials, rng)
        # the cells are distinct, so none needs `add`'s repeat check
        stats[wq, ws] = CellStats(trials, failures)
    return grid


def _grid_plan(qds: QdsCode, decoder) -> tuple:
    """(meta, verdicts) of build_grid for this code and decoder:
    `default_code_meta`, which SimGrid copies, and verdicts[w_q][w_s],
    each cell's _PASS, _FAIL or _DRAW.  Made on the first call and kept in
    the code's one-entry `_grid_plan` slot, which a call with another
    decoder replaces.

    A cell's failures are `qds._exact_cells` of K, from
    `QdsCode._corrected_counts`, and Z, the SM code's `_zero_counts` (see
    the module docstring): its rate is certainly 0 where none of its cases
    fail and certainly 1 where all do.  Every verdict is _DRAW unless the
    decoder is a `LookupDecoder` whose `_corrected` table exists, so K is
    read off it, and the SM code has Z (see those properties for when).
    `QdsCode._corrects`, which K reads, refuses a decoder whose code has a
    check matrix other than qds.base's."""
    slot = qds._grid_plan
    if slot is not None and slot[0] is decoder:
        return slot[1]
    n, n_s = qds.base.n, qds.sm.n_s
    verdicts = [[_DRAW] * (n_s + 1) for _ in range(n + 1)]
    exact = type(decoder) is LookupDecoder and decoder._corrected is not None
    zero = qds.sm._zero_counts if exact else None
    if zero is not None:
        kept = qds._corrected_counts(decoder, n)
        for (w_q, w_s), (cases, failures) in _exact_cells(n, n_s, kept, zero):
            verdicts[w_q][w_s] = _PASS if not failures else _FAIL if failures == cases else _DRAW
    plan = (default_code_meta(qds, decoder), verdicts)
    qds._grid_plan = (decoder, plan)
    return plan


def _prefactors(
    n: int, n_s: int, points: Sequence[Tuple[float, float]], truncation: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One pass over every (p_q, p_s) point: the cells' binomial
    prefactors A(w_q; p_q, n) A(w_s; p_s, n_s) as a (points, n + 1,
    n_s + 1) array, the mask of the cells kept (prefactor and the row's
    A(w_q) both reach truncation) and each point's truncation mass, the sum
    of the prefactors dropped.  A row whose A(w_q) alone is below
    truncation adds one term to the mass, A(w_q) times its column's total.

    Every weight is Python's `**` (np.power can differ from it in the last
    bit, by the host's SIMD) and every sum is `_row_major_sum`, so each
    value has the bits of a loop over the cells of one point at a time."""
    for p_q, p_s in points:
        _as_probability(p_q, "p_q")
        _as_probability(p_s, "p_s")
    if not 0.0 <= truncation < inf:  # also true for NaN
        raise ValueError(f"truncation must be finite and nonnegative, got {truncation}")
    rows = _binomial_weights(n, [p_q for p_q, _ in points])
    cols = _binomial_weights(n_s, [p_s for _, p_s in points])
    prefs = rows[:, :, None] * cols[:, None, :]
    dropped_rows = (rows < truncation)[:, :, None]
    kept = ~dropped_rows & (prefs >= truncation)
    # each row's terms in order: its own, nonzero where it is dropped
    # whole, then its cells', nonzero where one is dropped alone
    row_terms = np.where(dropped_rows, rows[:, :, None] * _row_major_sum(cols)[:, None, None], 0.0)
    cell_terms = np.where(kept | dropped_rows, 0.0, prefs)
    return prefs, kept, _row_major_sum(np.concatenate((row_terms, cell_terms), axis=2))


def _binomial_weights(n: int, probabilities: Sequence[float]) -> np.ndarray:
    """A(w; p, n) for w = 0..n at each p, as a (len(probabilities), n + 1)
    array: binomial_weight_probability's values, with each C(n, w)
    computed once."""
    # float exponents: `**` converts an int one to the same float per call
    terms = [(_comb_factor(n, w), float(w), float(n - w)) for w in range(n + 1)]
    pairs = [(p, 1.0 - p) for p in probabilities]
    if type(terms[n // 2][0]) is int:  # the middle C(n, w) pass the float range
        weights = [
            _log_weight(c, p, q, w, v) if type(c) is int else c * p**w * q**v
            for p, q in pairs
            for c, w, v in terms
        ]
    else:
        weights = [c * p**w * q**v for p, q in pairs for c, w, v in terms]
    return np.array(weights, dtype=float).reshape(len(probabilities), n + 1)


def _row_major_sum(terms: np.ndarray) -> np.ndarray:
    """The sum of each entry of the first axis, its terms added one at a
    time in row-major order: np.add.accumulate is sequential, where np.sum
    adds pairwise, and Python 3.12's sum() compensates its rounding."""
    flat = terms.reshape(len(terms), prod(terms.shape[1:]))
    return np.add.accumulate(flat, axis=1)[:, -1]


def _read_cells(
    grid: SimGrid, n: int, n_s: int, prefs: np.ndarray, kept: np.ndarray, truncation: float
) -> Tuple[List[int], List[float], List[CellStats]]:
    """The grid's cells inside the domain, read in one pass: their flat
    indices w_q (n_s + 1) + w_s, failure rates and stats.  A kept cell the
    grid lacks is an error naming the first, the points in order and each
    point's cells in row-major order."""
    width = n_s + 1
    flat: List[int] = []
    rates: List[float] = []
    stats: List[CellStats] = []
    for (wq, ws), st in grid.cells.items():
        if 0 <= wq <= n and 0 <= ws <= n_s:
            flat.append(wq * width + ws)
            rates.append(st.failures / st.trials)
            stats.append(st)
    missing = kept.reshape(len(kept), (n + 1) * width).copy()
    missing[:, flat] = False
    if missing.any():
        point, index = np.argwhere(missing)[0].tolist()
        wq, ws = divmod(index, width)
        raise ValueError(
            f"grid is missing cell ({wq}, {ws}) with prefactor {prefs[point, wq, ws]:.3g} "
            f">= truncation {truncation:.3g}"
        )
    return flat, rates, stats


def _combine(
    grid: SimGrid, points: Sequence[Tuple[float, float]], truncation: float
) -> Tuple[List[float], List[float], List[int]]:
    """p_err, truncation mass and dropped-cell count at each point."""
    n, n_s = _domain_from_meta(grid)
    prefs, kept, mass = _prefactors(n, n_s, points, truncation)
    flat, rates, _ = _read_cells(grid, n, n_s, prefs, kept, truncation)
    table = np.zeros((n + 1) * (n_s + 1))
    table[flat] = rates
    p_errs = _kept_sum(prefs, kept, table.reshape(n + 1, n_s + 1))
    dropped = len(table) - np.count_nonzero(kept, axis=(1, 2))
    return p_errs.tolist(), mass.tolist(), dropped.tolist()


def _kept_sum(prefs: np.ndarray, kept: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Each point's sum of prefactor times value over its kept cells, in
    row-major order."""
    return _row_major_sum(np.where(kept, prefs * values, 0.0))


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
    (p_err,), (mass,), (dropped,) = _combine(grid, [(p_q, p_s)], truncation)
    return CombineResult(p_err=p_err, truncation_mass=mass, dropped_cells=dropped)


def combine_grid_bounds(
    grid: SimGrid, p_q: float, p_s: float, truncation: float = 1e-12, z: float = 1.96
) -> Tuple[float, float]:
    """Wilson-interval bounds on p_err(p_q, p_s) from a grid.

    Cells inside the certified-correctable region (w_q <= t_data and
    w_s <= t_s from code_meta) are exactly zero and contribute no
    uncertainty.  The upper bound includes the truncation mass.  A grid
    without either key certifies no cell; one that is not a nonnegative
    JSON integer is a ValueError, and so is a z that is not finite and
    nonnegative, whether or not any cell needs an interval.
    """
    if not 0.0 <= z < inf:  # also false for NaN
        raise ValueError(f"z must be finite and nonnegative, got {z}")
    meta = grid.code_meta
    t_data, t_s = (
        _json_int(meta, key, "grid code_meta") if key in meta else None for key in ("t_data", "t_s")
    )
    n, n_s = _domain_from_meta(grid)
    prefs, kept, (mass,) = _prefactors(n, n_s, [(p_q, p_s)], truncation)
    flat, _, stats = _read_cells(grid, n, n_s, prefs, kept, truncation)
    ends = np.zeros((2, n + 1, n_s + 1))
    for index, st in zip(flat, stats):
        wq, ws = divmod(index, n_s + 1)
        certified = t_data is not None and t_s is not None and wq <= t_data and ws <= t_s
        if kept[0, wq, ws] and not (certified and st.failures == 0):
            ends[:, wq, ws] = wilson_interval(st.failures, st.trials, z)
    lo, hi = (float(_kept_sum(prefs, kept, end)[0]) for end in ends)
    return lo, hi + float(mass)


def _json_int(obj, key: str, where: str) -> int:
    """obj[key] where it is a nonnegative integer, as every integer of a
    grid file is.  A missing key, a value of another type (a bool too,
    though Python counts it an int) or a negative one is a ValueError
    naming the key."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object")
    if key not in obj:
        raise ValueError(f"{where} is missing {key!r}")
    return _as_int(obj[key], f"{where} {key!r}", 0)


def _domain_from_meta(grid: SimGrid) -> Tuple[int, int]:
    """code_meta's n and n_s."""
    n, n_s = (_json_int(grid.code_meta, key, "grid code_meta") for key in ("n", "n_s"))
    return n, n_s


def required_cells(
    n: int, n_s: int, points: Sequence[Tuple[float, float]], truncation: float
) -> Set[Cell]:
    """Cells whose prefactor reaches truncation at any (p_q, p_s) point."""
    n, n_s = _as_int(n, "n", 0), _as_int(n_s, "n_s", 0)
    _, kept, _ = _prefactors(n, n_s, points, truncation)
    return set(map(tuple, np.argwhere(kept.any(axis=0)).tolist()))


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
    """combine_grid at each (p_q, p_s) point, as sweep points, from one
    `_prefactors` pass over them all."""
    p_errs, masses, _ = _combine(grid, points, truncation)
    return [
        SweepPoint(p_s=p_s, p_q=p_q, p_err=p_err, truncation_mass=mass)
        for (p_q, p_s), p_err, mass in zip(points, p_errs, masses)
    ]


def direct_monte_carlo(
    qds: QdsCode, decoder, model: ErrorModel, trials: int, seed: int
) -> float:
    """Plain Monte Carlo under the full error model (no stratification).

    Useful as a cross-check of grid recombination and as the only way to
    sample the weight-aware readout model.  A trial count or seed that is
    not an integer (a bool or a float), a trial count below 1 and a
    negative seed are each a ValueError.
    """
    trials, seed = _as_int(trials, "trials", 1), _as_int(seed, "seed", 0)
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
    flips = flipped @ _bit_weights(n_s)
    return qds._count_failures(decoder, errors, flips) / trials
