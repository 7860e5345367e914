"""One benchmark workload in this process: set up, time, check, or trace.

benchmarks/run.py starts this file in a fresh process for each workload,
with src/ on the path and numpy/BLAS pinned to one thread.  Standard output
carries nothing but the last line, a JSON report that run.py turns into the
result; progress and tracebacks go to standard error.

    python3 benchmarks/workloads.py --workload grid-bch3 --seed 1 --seconds 30 --trace 0

Untraced (--trace 0): set up, then repeat the workload's unit of work until
--seconds have passed (at least min_units times), timing each unit's parts
one by one; SETUP_REPEATS fresh-process set-ups are spread over the same
span.  Every unit's output is checked; see README.md for the metrics, the
checks and what counts as a failed operation.

Traced (--trace 1): a fixed amount of work, so that counts repeat exactly:
the set-up and the unit again through finer-grained public calls, each in a
span; a replay of sampled trials (or verify cases) through the public chain
QdsCode.measure -> SyndromeMeasurementCode.decode -> LookupDecoder.decode ->
StabilizerCode.classify, run once untraced and once traced so the difference
is the tracing overhead; the workload's CLI command through qdsbch.cli.main;
and a small probe for the layers the workload never reaches.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from itertools import combinations
from math import comb

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import qdsbch  # noqa: E402
from qdsbch import (  # noqa: E402
    BchSyndromeMeasurement,
    BinaryPolynomial,
    GF2m,
    PauliOperator,
    SimGrid,
    bch_construct,
    bch_select_m,
    bch_select_parameters,
    bch_sm,
    build_grid,
    combine_grid,
    cyclotomic_cosets,
    fujiwara_extra_measurements,
    iter_weight_paulis,
    lookup_decoder_build,
    minimal_polynomial,
    overhead_table,
    parity_bit_count,
    poly_lcm,
    qds_assemble,
    repetition_sm,
    required_cells,
    steane_code,
    sweep,
    verify_correction_guarantee,
    wilson_interval,
)
from qdsbch.cli import main as cli_main  # noqa: E402
from qdsbch.sim import default_code_meta  # noqa: E402

from tracer import MAIN, PROBE, NullTracer, Tracer, layer_metrics  # noqa: E402

WORKLOADS = ("grid-bch3", "grid-rep3", "verify-bch4", "construct-count")

DEFAULT_SEED = 20260819
SETUP_REPEATS = 7
TRACED_SETUP_REPEATS = 5
TRUNCATION = 1e-12
RATIO = 0.01
SWEEP_PS = "1e-4:1e-2:log25"  # the CLI spelling of the 25-point sweep
SWEEP_POINTS = [float(v) for v in np.logspace(-4, -2, 25)]
SLOPE_POINTS = [float(v) for v in np.logspace(-3, -2, 5)]
SLOPE_TOLERANCE = 0.3
WILSON_Z = 4.0  # replay vs. grid: intervals this wide overlap unless the two disagree
GF_MUL_REPEATS = 200

# Sizes: "full" is the benchmark; "tiny" is for selftest.py and the probe.
SIZES = {
    "full": {
        "grid-bch3": {"trials": 300, "replay": 500},
        "grid-rep3": {"trials": 1_000, "replay": 500},
        "verify-bch4": {"t": 4, "cases": 393_844, "replay": 400},
        "construct-count": {"m": range(3, 11), "ells": range(1, 65), "ts": range(1, 17), "rows": 1_024},
    },
    "tiny": {
        "grid-bch3": {"trials": 20, "replay": 10},
        "grid-rep3": {"trials": 200, "replay": 10},
        "verify-bch4": {"t": 2, "cases": 2_332, "replay": 40},
        "construct-count": {"m": range(3, 7), "ells": range(1, 9), "ts": range(1, 5), "rows": 32},
    },
}

with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as _fh:
    REFERENCE = json.load(_fh)

_clock = time.perf_counter


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class Ledger:
    """Operations attempted and failed, and the output checks run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks_run = 0
        self.checks_failed = []

    def check(self, ok, what):
        self.checks_run += 1
        if not ok:
            self.checks_failed.append(what)
            log(f"CHECK FAILED: {what}")
        return bool(ok)

    def ops(self, attempted, failed=0):
        self.attempted += attempted
        self.failed += failed

    @property
    def correct(self):
        return self.failed == 0 and not self.checks_failed


@dataclass
class QdsSetup:
    base: object
    q: object
    dec: object

    @property
    def bch_code(self):
        return getattr(self.q.sm, "code", None)


# --- shared pieces -----------------------------------------------------------


def _root_exponents(m, t):
    """One exponent from each cyclotomic coset meeting 1..2t: the minimal
    polynomials whose lcm is the BCH(m, t) generator."""
    return [min(c) for c in cyclotomic_cosets(m) if any(1 <= e <= 2 * t for e in c)]


def traced_qds_setup(tr, ledger, sm_kind, t):
    """The set-up of a grid or verify workload, one public call per span."""
    base = steane_code()
    if sm_kind == "bch":
        m, _ = bch_select_parameters(base.ell, t)
        parent = tr.call("bch.construct", bch_construct, m, t)
        polys = [tr.call("fields.minimal_polynomial", minimal_polynomial, parent.field, e)
                 for e in _root_exponents(m, t)]
        g = tr.call("fields.poly_lcm", poly_lcm, polys)
        ledger.check(g == parent.generator, f"lcm of minimal polynomials != generator of BCH({m},{t})")
        sm = BchSyndromeMeasurement(parent.shortened(parent.k - base.ell))
    else:
        sm = repetition_sm(base.ell, 3)
    h_q = tr.call("linalg.mat_mul", sm.encode_matrix.transpose().mat_mul, base.check_matrix)
    q = tr.call("qds.assemble", qds_assemble, base, sm)
    ledger.check(q.h_q == h_q, "qds_assemble H_Q != G^T H_S")
    in_space = [tr.call("linalg.in_row_space", base.check_matrix.in_row_space, h_q.row_bits(i))
                for i in range(h_q.rows)]
    ledger.check(all(in_space), "a row of H_Q is not a product of stabilizer generators")
    dec = tr.call("stabilizer.decoder_build", lookup_decoder_build, base, 1)
    q.sm.decode((0,) * q.sm.n_s)
    return QdsSetup(base, q, dec)


def replay_case(ctx, err, flips, tr):
    """One trial through the public two-step chain.

    Returns None when the residual is trivial, else the cause of failure:
    sm_gave_up, lookup_miss, detectable, logical, or disagree when the BCH
    code's own decoder and the SM wrapper return different syndromes.
    """
    q = ctx.q
    measured = tr.call("qds.measure", q.measure, err, flips)
    msg = tr.call("qds.sm_decode", q.sm.decode, measured)
    code = ctx.bch_code
    if code is not None:
        direct = tr.call("bch.decode", code.decode, measured)
        if direct is None:
            tr.count("bch.decode_gave_up")
        if (direct is None) != (msg is None) or (direct is not None and direct[0] != msg):
            return "disagree"
    if msg is None:
        return "sm_gave_up"
    correction = tr.call("stabilizer.lookup", ctx.dec.decode, msg)
    if correction is None:
        tr.count("stabilizer.lookup_miss")
        return "lookup_miss"
    verdict = tr.call("stabilizer.classify", ctx.base.classify, err * correction)
    return None if verdict == "trivial" else verdict


def replay_twice(ctx, cases, tr, traced_first):
    """Run cases untraced and traced, in the order given so that callers can
    alternate it; return (outcomes, extra ns of tracing)."""
    null = NullTracer()

    def untraced_pass():
        t0 = time.perf_counter_ns()
        out = [replay_case(ctx, err, flips, null) for err, flips in cases]
        return out, time.perf_counter_ns() - t0

    def traced_pass():
        t0 = time.perf_counter_ns()
        out = []
        with tr.span("bench.replay_cell", count=len(cases)):
            for err, flips in cases:
                tr.trace += 1
                out.append(replay_case(ctx, err, flips, tr))
        return out, time.perf_counter_ns() - t0

    if traced_first:
        traced, on_ns = traced_pass()
        untraced, off_ns = untraced_pass()
    else:
        untraced, off_ns = untraced_pass()
        traced, on_ns = traced_pass()
    if traced != untraced:
        traced = ["disagree"] * len(cases)
    tr.count("bench.replay_failures", sum(o is not None for o in traced))
    for outcome in traced:
        if outcome in ("sm_gave_up", "lookup_miss", "detectable", "logical"):
            tr.count("sim.fail." + outcome)
    return traced, on_ns - off_ns


def run_cli(tr, ledger, argv):
    """qdsbch.cli.main in-process, stdout captured; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = tr.call("cli.main", cli_main, argv)
    ledger.check(rc == 0, f"qdsbch {' '.join(argv[:2])} exited {rc}")
    return rc, out.getvalue()


def gf_mul_probe(tr, ledger):
    """GF(2^5) multiplication rate, checked against polynomial products."""
    field = GF2m(5)
    pairs = [(a, b) for a in range(32) for b in range(32)]
    mul = field.mul
    slow = [(BinaryPolynomial(a) * BinaryPolynomial(b) % field.primitive_polynomial).mask for a, b in pairs]
    ledger.check([mul(a, b) for a, b in pairs] == slow, "GF(2^5) mul != product mod the primitive polynomial")
    with tr.span("fields.gf_mul", count=GF_MUL_REPEATS * len(pairs)):
        for _ in range(GF_MUL_REPEATS):
            for a, b in pairs:
                mul(a, b)


# --- grid workloads ------------------------------------------------------------


class GridWorkload:
    """Steane [[7,1,3]] with a BCH(t=3) or repetition(3) readout: a full
    weight grid at a 10:1 boundary/bulk trial shape, then a 25-point sweep."""

    min_units = 1

    def __init__(self, name, size):
        self.name = name
        self.size = size
        cfg = SIZES[size][name]
        self.sm_kind = "bch" if name == "grid-bch3" else "repetition"
        self.boundary = cfg["trials"]
        self.bulk = max(1, cfg["trials"] // 10)
        self.replay = cfg["replay"]
        self.slope = 4.0 if self.sm_kind == "bch" else 2.0
        self.reference = REFERENCE["grid"][name][size]
        self.digests = {}  # seed -> sha256 of the grid JSON built for it

    def setup(self):
        base = steane_code()
        sm = bch_sm(base.ell, 3) if self.sm_kind == "bch" else repetition_sm(base.ell, 3)
        q = qds_assemble(base, sm)
        dec = lookup_decoder_build(base, max_weight=1)
        q.sm.decode((0,) * q.sm.n_s)  # the first decode builds lazy tables
        return QdsSetup(base, q, dec)

    def seeds(self, seed):
        # the reference seed, whose grid has a recorded digest, and two from --seed
        return [DEFAULT_SEED] + [(seed * 2_654_435_761 + i) % 2**32 for i in (1, 2)]

    def unit(self, ctx, index, seed, tr=NullTracer):
        """The whole grid, one build_grid call per cell (each cell has its own
        seeded stream, so the grid is byte-identical to a one-shot build),
        then the sweep; parts are the cells and the sweep."""
        grid = SimGrid(default_code_meta(ctx.q, ctx.dec), seed)
        parts = {}
        for cell in self._cells(ctx):
            boundary = self._is_boundary(ctx, *cell)
            t0 = _clock()
            with tr.span("sim.cell.boundary" if boundary else "sim.cell.bulk",
                         count=self.boundary if boundary else self.bulk):
                one = build_grid(ctx.q, ctx.dec, seed=seed, boundary_trials=self.boundary,
                                 bulk_trials=self.bulk, cells=[cell])
            st = one.cells[cell]
            parts[("work", cell)] = (_clock() - t0, st.trials)
            grid.add(*cell, st.trials, st.failures)
        t0 = _clock()
        _, points = sweep(ctx.q, ctx.dec, SWEEP_POINTS, RATIO, seed=seed, truncation=TRUNCATION, grid=grid)
        parts[("other", "sweep")] = (_clock() - t0, len(points))
        return parts, (grid, [p.p_err for p in points])

    @staticmethod
    def _cells(ctx):
        return [(wq, ws) for wq in range(ctx.base.n + 1) for ws in range(ctx.q.sm.n_s + 1)]

    def ops_per_unit(self, ctx):
        return len(self._cells(ctx)) + len(SWEEP_POINTS)

    def _is_boundary(self, ctx, wq, ws):
        return wq <= ctx.dec.max_weight + 1 and ws <= ctx.q.sm.t_s + 1

    def check(self, ctx, seed, out, ledger):
        grid, p_errs = out
        domain = set(self._cells(ctx))
        grid_ok = ledger.check(set(grid.cells) == domain, f"{self.name}: grid cells != full domain")
        bad_cells = 0
        for (wq, ws), st in grid.cells.items():
            want = self.boundary if self._is_boundary(ctx, wq, ws) else self.bulk
            ok = st.trials == want and 0 <= st.failures <= st.trials
            if wq <= ctx.dec.max_weight and ws <= ctx.q.sm.t_s:
                ok = ok and st.failures == 0  # inside the correction guarantee
            bad_cells += not ok
        ledger.check(bad_cells == 0, f"{self.name}: {bad_cells} cells with wrong trials or failures")
        digest = sha256(grid.to_json_text())
        held = self.digests.setdefault(seed, digest)
        grid_ok &= ledger.check(digest == held, f"{self.name}: seed {seed} grid not byte-identical on rebuild")
        if seed == DEFAULT_SEED:
            grid_ok &= ledger.check(digest == self.reference,
                                    f"{self.name}: seed {seed} grid sha256 {digest} != reference")
        slope = pure_syndrome_slope(grid)
        grid_ok &= ledger.check(abs(slope - self.slope) <= SLOPE_TOLERANCE,
                                f"{self.name}: pure-syndrome slope {slope:.3f}, want {self.slope}+/-{SLOPE_TOLERANCE}")
        ledger.ops(len(domain), len(domain) if not grid_ok else bad_cells)
        bad_points = sweep_problems(p_errs, len(domain))
        ledger.check(bad_points == 0, f"{self.name}: {bad_points} bad sweep points")
        ledger.ops(len(p_errs), bad_points)

    def trace(self, tr, ledger, seed, with_cli=True):
        """Traced set-up, a grid built one cell per span, the recombination,
        the replay and (for the workload itself) the CLI; returns overhead ns."""
        for _ in range(TRACED_SETUP_REPEATS):
            ctx = traced_qds_setup(tr, ledger, self.sm_kind, 3)
        _, (grid, p_errs) = self.unit(ctx, 0, DEFAULT_SEED, tr)
        self.check(ctx, DEFAULT_SEED, (grid, p_errs), ledger)
        points = [(RATIO * ps, ps) for ps in SWEEP_POINTS]
        for _ in range(TRACED_SETUP_REPEATS):
            needed = tr.call("sim.required_cells", required_cells, ctx.base.n, ctx.q.sm.n_s, points, TRUNCATION)
        ledger.check(needed <= set(grid.cells), f"{self.name}: sweep needs cells the grid lacks")
        combined = [tr.call("sim.combine_point", combine_grid, grid, pq, ps, TRUNCATION).p_err for pq, ps in points]
        ledger.check(combined == p_errs, f"{self.name}: combine_grid per point != sweep")
        overhead = self._replay(tr, ledger, ctx, seed, grid)
        if with_cli:
            self._cli(tr, ledger, grid, p_errs)
        return overhead

    def _replay(self, tr, ledger, ctx, seed, grid):
        n, n_s = ctx.base.n, ctx.q.sm.n_s
        overhead = 0
        bad = 0
        for i, ((wq, ws), st) in enumerate(sorted(grid.cells.items())):
            trials = self.replay if self._is_boundary(ctx, wq, ws) else max(1, self.replay // 10)
            rng = np.random.default_rng([seed, wq, ws])
            cases = draw_cases(rng, n, n_s, wq, ws, trials)
            outcomes, extra = replay_twice(ctx, cases, tr, traced_first=i % 2 == 1)
            overhead += extra
            fails = sum(o is not None for o in outcomes)
            lo, hi = wilson_interval(fails, trials, WILSON_Z)
            g_lo, g_hi = wilson_interval(st.failures, st.trials, WILSON_Z)
            bad += "disagree" in outcomes or hi < g_lo or lo > g_hi
        ledger.check(bad == 0, f"{self.name}: {bad} replayed cells disagree with the grid")
        ledger.ops(len(grid.cells), bad)
        return overhead

    def _cli(self, tr, ledger, grid, p_errs):
        sm_flags = ["--sm", "bch", "--t", "3"] if self.sm_kind == "bch" else ["--sm", "repetition", "--reps", "3"]
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-tmp-") as tmp:
            grid_path = os.path.join(tmp, "grid.json")
            curve_path = os.path.join(tmp, "curve.csv")
            run_cli(tr, ledger, ["sim", "grid", "--code", "steane", *sm_flags, "--seed", str(DEFAULT_SEED),
                                 "--trials", str(self.boundary), "--bulk-trials", str(self.bulk),
                                 "--out", grid_path])
            run_cli(tr, ledger, ["sim", "sweep", "--grid", grid_path, "--ps", SWEEP_PS,
                                 "--ratio", str(RATIO), "--out", curve_path])
            with open(grid_path, encoding="utf-8") as fh:
                cli_grid = SimGrid.from_json_text(fh.read())
            with open(curve_path, encoding="utf-8") as fh:
                rows = [ln.split(",") for ln in fh.read().splitlines()[2:]]
        ledger.check(cli_grid.cells == grid.cells, f"{self.name}: sim grid cells != library grid")
        got = [float(r[2]) for r in rows]
        ledger.check(len(got) == len(p_errs) and all(math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-300)
                                                     for a, b in zip(got, p_errs)),
                     f"{self.name}: sim sweep curve != library recombination")


def draw_cases(rng, n, n_s, wq, ws, trials):
    """trials (data error, flip bits) pairs at exact weights (wq, ws)."""
    letter_bits = ((1, 0), (1, 1), (0, 1))  # X, Y, Z
    supports = np.argsort(rng.random((trials, n)), axis=1)[:, :wq].tolist()
    letters = rng.integers(0, 3, size=(trials, wq)).tolist()
    flip_sites = np.argsort(rng.random((trials, n_s)), axis=1)[:, :ws].tolist()
    cases = []
    for sup, lets, sites in zip(supports, letters, flip_sites):
        x = z = 0
        for p, c in zip(sup, lets):
            xb, zb = letter_bits[c]
            x |= xb << p
            z |= zb << p
        bits = [0] * n_s
        for p in sites:
            bits[p] = 1
        cases.append((PauliOperator(n, x, z), tuple(bits)))
    return cases


def pure_syndrome_slope(grid):
    rates = [combine_grid(grid, 0.0, ps, TRUNCATION).p_err for ps in SLOPE_POINTS]
    if min(rates) <= 0.0:
        return float("nan")
    return float(np.polyfit(np.log10(SLOPE_POINTS), np.log10(rates), 1)[0])


def sweep_problems(p_errs, cells):
    """Points that are not probabilities or fall as p_s rises."""
    bad = 0
    prev = 0.0
    for p in p_errs:
        bad += not (math.isfinite(p) and prev <= p <= 1.0 + TRUNCATION * cells)
        prev = max(prev, p) if math.isfinite(p) else prev
    return bad


# --- exhaustive verification ---------------------------------------------------


class VerifyWorkload:
    """verify_correction_guarantee on Steane with the BCH t=4 readout.

    The whole guarantee region (393,844 cases) takes about 25 s, too long to
    repeat in a run, so the timed unit is its w_q = 0 slice: the same call
    with a lookup decoder built for data weight 0 (17,902 cases, the same
    BM, lookup and classify path and the same flip-weight mix).  The traced
    run verifies the whole region through the CLI and checks it cell by cell.
    """

    name = "verify-bch4"
    min_units = 1
    CHUNK = 1024

    def __init__(self, size):
        self.size = size
        cfg = SIZES[size][self.name]
        self.t = cfg["t"]
        self.cases = cfg["cases"]
        self.replay = cfg["replay"]

    def setup(self):
        base = steane_code()
        q = qds_assemble(base, bch_sm(base.ell, self.t))
        dec = lookup_decoder_build(base, max_weight=0)
        q.sm.decode((0,) * q.sm.n_s)
        return QdsSetup(base, q, dec)

    def seeds(self, seed):
        return [seed]  # exhaustive: the seed changes nothing

    def unit(self, ctx, index, seed):
        """The slice; parts are its runs of CHUNK cases, timed by ChunkClock."""
        clock = ChunkClock(ctx.dec, self.CHUNK)
        t0 = _clock()
        cells = verify_correction_guarantee(ctx.q, clock, budget=10**6)
        ticks = [t0, *clock.ticks, _clock()]
        cases = [self.CHUNK] * len(clock.ticks) + [clock.calls % self.CHUNK]
        parts = {("work", k): (ticks[k + 1] - ticks[k], n) for k, n in enumerate(cases)}
        return parts, cells

    def ops_per_unit(self, ctx):
        return ctx.q.sm.t_s + 1

    def expected_cells(self, ctx, t_data):
        n, n_s = ctx.base.n, ctx.q.sm.n_s
        return {(wq, ws): comb(n, wq) * 3**wq * comb(n_s, ws)
                for wq in range(t_data + 1) for ws in range(ctx.q.sm.t_s + 1)}

    def check_cells(self, ctx, t_data, got, ledger):
        """got: (w_q, w_s) -> (cases, failures); every case must be corrected."""
        want = self.expected_cells(ctx, t_data)
        ok_shape = ledger.check(set(got) == set(want), f"{self.name}: verified cells != guarantee region")
        bad = sum(got.get(k, (None, None)) != (v, 0) for k, v in want.items())
        total = sum(c for c, _ in got.values())
        ok_total = t_data == 0 or ledger.check(total == self.cases, f"{self.name}: {total} cases, want {self.cases}")
        ledger.check(bad == 0, f"{self.name}: {bad} cells with wrong case counts or failures")
        ledger.ops(len(want), len(want) if not (ok_shape and ok_total) else bad)

    def check(self, ctx, seed, cells, ledger):
        self.check_cells(ctx, 0, {(c.w_q, c.w_s): (c.cases, c.failures) for c in cells}, ledger)

    def trace(self, tr, ledger, seed, with_cli=True):
        for _ in range(TRACED_SETUP_REPEATS):
            ctx = traced_qds_setup(tr, ledger, "bch", self.t)
        n, n_s = ctx.base.n, ctx.q.sm.n_s
        region = self.expected_cells(ctx, ctx.dec.max_weight)
        overhead = 0
        bad = 0
        for i, ((wq, ws), total) in enumerate(sorted(region.items())):
            errors = list(iter_weight_paulis(n, wq))
            flip_sets = list(combinations(range(n_s), ws))
            cases = []
            for k in range(0, total, max(1, total // self.replay)):
                bits = [0] * n_s
                for p in flip_sets[k % len(flip_sets)]:
                    bits[p] = 1
                cases.append((errors[k // len(flip_sets)], tuple(bits)))
            outcomes, extra = replay_twice(ctx, cases, tr, traced_first=i % 2 == 1)
            overhead += extra
            bad += any(o is not None for o in outcomes)
        ledger.check(bad == 0, f"{self.name}: replayed cases inside the guarantee failed in {bad} cells")
        ledger.ops(len(region), bad)
        if with_cli:
            _, text = run_cli(tr, ledger, ["verify", "--code", "steane", "--sm", "bch", "--t", str(self.t)])
            got = {}
            for line in text.splitlines():
                if line.startswith("w_q="):
                    f = dict(part.split("=") for part in line.split()[:4])
                    got[(int(f["w_q"]), int(f["w_s"]))] = (int(f["cases"]), int(f["failures"]))
            self.check_cells(ctx, ctx.dec.max_weight, got, ledger)
        return overhead


class ChunkClock:
    """The lookup decoder handed to verify_correction_guarantee: it forwards
    everything to the real decoder and reads the clock every `chunk`
    decodes, so one verify call splits into parts of equal case counts.  It
    costs one extra method call per case."""

    def __init__(self, decoder, chunk):
        self._decoder = decoder
        self._chunk = chunk
        self.calls = 0
        self.ticks = []

    def __getattr__(self, name):
        return getattr(self._decoder, name)

    def _decode_mask(self, mask):
        self.calls += 1
        if self.calls % self._chunk == 0:
            self.ticks.append(_clock())
        return self._decoder._decode_mask(mask)


# --- construction and counting -------------------------------------------------


class ConstructWorkload:
    """bch_construct over admissible (m, t), then overhead_table.

    All 1,012 codes take 11 to 15 s, too long to repeat in a run, so the
    timed unit builds a stratified sample of them: every m, and for each m
    at most SAMPLE_PER_M values of t spread evenly over its whole range
    (184 codes).  Each unit also builds one of TABLE_SLICES interleaved
    slices of the overhead table; a cycle of slices is the whole table.
    The traced run builds all 1,012 codes and checks their digest.
    """

    name = "construct-count"
    SAMPLE_PER_M = 32
    TABLE_SLICES = 4
    min_units = TABLE_SLICES

    def __init__(self, size):
        self.size = size
        cfg = SIZES[size][self.name]
        self.pairs = [(m, t) for m in cfg["m"] for t in range(1, 1 << (m - 1))]
        self.sample = [(m, t) for m in cfg["m"]
                       for t in range(1, 1 << (m - 1), -(-((1 << (m - 1)) - 1) // self.SAMPLE_PER_M))]
        self.ells = list(cfg["ells"])
        self.ts = list(cfg["ts"])
        self.rows = cfg["rows"]
        self.reference = REFERENCE["construct"][size]
        self.cycle = {}  # table slice -> its rows, for the cycle being built
        self.cycle_bad = 0

    def setup(self):
        # what the timed pass needs warm: field tables and first calls
        fields = [GF2m(m) for m in sorted({m for m, _ in self.pairs})]
        bch_construct(3, 1)
        overhead_table([1], [1])
        return fields

    def seeds(self, seed):
        return [seed]  # deterministic: the seed changes nothing

    def unit(self, ctx, index, seed):
        """The code sample and table slice j; parts are single codes (one
        bch_construct call each) and the rows of one ell (one overhead_table
        call each)."""
        j = index % self.TABLE_SLICES
        parts = {}
        codes = []
        for m, t in self.sample:
            t0 = _clock()
            codes.append(bch_construct(m, t))
            parts[("work", (m, t))] = (_clock() - t0, 1)
        rows = []
        for ell in self.ells[j::self.TABLE_SLICES]:
            t0 = _clock()
            rows += overhead_table([ell], self.ts)
            parts[("rows", ell)] = (_clock() - t0, len(self.ts))
        return parts, (j, codes, rows)

    def ops_per_unit(self, ctx):
        return len(self.sample) + len(self.ells[::self.TABLE_SLICES]) * len(self.ts)

    def check(self, ctx, seed, out, ledger):
        j, codes, rows = out
        self.check_codes(self.sample, codes, self.reference["sample"], ledger)
        bad = sum(not _row_ok(r) for r in rows)
        ledger.check(bad == 0, f"{self.name}: {bad} overhead rows fail their checks")
        ledger.ops(len(rows), bad)
        if j == 0:
            self.cycle, self.cycle_bad = {}, 0
        self.cycle[j] = rows
        self.cycle_bad += bad
        if len(self.cycle) == self.TABLE_SLICES:
            table = sorted((r for part in self.cycle.values() for r in part), key=lambda r: (r.ell, r.t))
            if not self.check_table(table, ledger):
                ledger.ops(0, len(table) - self.cycle_bad)
            self.cycle = {}

    def check_codes(self, pairs, codes, reference, ledger):
        """Every code, the worked examples among them, and the list's digest."""
        bad = {i for i, ((m, t), c) in enumerate(zip(pairs, codes)) if not _code_ok(m, t, c)}
        ledger.check(not bad, f"{self.name}: {len(bad)} codes fail their parameter checks")
        where = {p: i for i, p in enumerate(pairs)}
        if (5, 3) in where:
            c = codes[where[(5, 3)]]
            s = c.shortened(10)
            if not ledger.check((c.length, c.dimension, c.distance, c.r, s.length, s.dimension, s.distance)
                                == (31, 16, 7, 15, 21, 6, 7), "BCH(5,3) is not [31,16,7] R=15 -> [21,6,7]"):
                bad.add(where[(5, 3)])
        if (7, 11) in where:
            m, sel = bch_select_m(10, 11)
            if not ledger.check((m, sel.length, sel.dimension, sel.distance, sel.r) == (7, 80, 10, 23, 70),
                                "bch_select_m(10, 11) is not m=7 [80,10,23] R=70"):
                bad.add(where[(7, 11)])
        lines = [f"{m},{t},{c.n},{c.k},{c.r},{c.generator.to_hex()}" for (m, t), c in zip(pairs, codes)]
        digest = sha256("\n".join(lines))
        ok = ledger.check(digest == reference, f"{self.name}: code list sha256 {digest} != reference")
        ledger.ops(len(codes), len(bad) if ok else len(codes))

    def check_table(self, rows, ledger):
        """The whole table's digest and the distinct-pair worked example."""
        lines = [f"{r.ell},{r.t},{r.bch},{r.fujiwara},{r.repetition}" for r in rows]
        digest = sha256("\n".join(lines))
        ok = ledger.check(len(rows) == self.rows and digest == self.reference["rows"],
                          f"{self.name}: {len(rows)} rows, sha256 {digest} != reference")
        fuji = fujiwara_extra_measurements(10, 3)
        return ok & ledger.check(fuji == (76, [6, 10, 10]), f"fujiwara_extra_measurements(10, 3) = {fuji}")

    def trace(self, tr, ledger, seed, with_cli=True):
        """Each code in a span, twice (untraced and traced, alternating which
        goes first, for the overhead); every other code again as field ->
        minimal polynomials -> lcm; then the overhead table one row per span
        and the distinct-pair count per (ell, t)."""
        null = NullTracer()
        codes = []
        overhead = 0
        for i, (m, t) in enumerate(self.pairs):
            took = {}
            for who in ((tr, null) if i % 2 else (null, tr)):
                t0 = time.perf_counter_ns()
                code = who.call("bch.construct", bch_construct, m, t)
                took[who] = time.perf_counter_ns() - t0
            codes.append(code)
            overhead += took[tr] - took[null]
        bad = 0
        for (m, t), code in list(zip(self.pairs, codes))[::2]:
            field = GF2m(m)
            polys = [tr.call("fields.minimal_polynomial", minimal_polynomial, field, e)
                     for e in _root_exponents(m, t)]
            bad += tr.call("fields.poly_lcm", poly_lcm, polys) != code.generator
        ledger.check(bad == 0, f"{self.name}: {bad} generators != lcm of their minimal polynomials")
        self.check_codes(self.pairs, codes, self.reference["codes"], ledger)
        rows = [tr.call("qds.overhead_row", overhead_table, [ell], [t])[0] for ell in self.ells for t in self.ts]
        bad_rows = sum(not _row_ok(r) for r in rows)
        ledger.check(bad_rows == 0, f"{self.name}: {bad_rows} overhead rows fail their checks")
        ledger.ops(len(rows), bad_rows if self.check_table(rows, ledger) else len(rows))
        fuji_bad = 0
        for row in rows:
            if row.fujiwara is not None:
                total, _ = tr.call("qds.fujiwara", fujiwara_extra_measurements, row.ell, row.t)
                fuji_bad += total != row.fujiwara
        ledger.check(fuji_bad == 0, f"{self.name}: {fuji_bad} distinct-pair counts differ from the table")
        if with_cli:
            with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-tmp-") as tmp:
                path = os.path.join(tmp, "table.csv")
                run_cli(tr, ledger, ["qds", "count", "--ell-range", f"{self.ells[0]}:{self.ells[-1]}",
                                     "--t-range", f"{self.ts[0]}:{self.ts[-1]}", "--out", path])
                with open(path, encoding="utf-8") as fh:
                    got = fh.read().splitlines()[2:]
            want = [f"{r.ell},{r.t},{r.bch},{'' if r.fujiwara is None else r.fujiwara},{r.repetition}"
                    for r in rows]
            ledger.check(got == want, f"{self.name}: qds count CSV != overhead_table")
        return overhead


def _code_ok(m, t, code):
    """n, k and R agree with the cyclotomic-coset count and g(x) divides x^n + 1."""
    n = (1 << m) - 1
    r = parity_bit_count(m, t)
    return ((code.m, code.t, code.n, code.r, code.k) == (m, t, n, r, n - r) and r <= m * t
            and (BinaryPolynomial((1 << n) | 1) % code.generator).is_zero)


def _row_ok(row):
    return (row.repetition == 2 * row.t * row.ell and row.bch > 0
            and (row.fujiwara is None) == (2 * row.t > row.ell))


def make_workload(name, size):
    if name.startswith("grid-"):
        return GridWorkload(name, size)
    if name == "verify-bch4":
        return VerifyWorkload(size)
    return ConstructWorkload(size)


# --- the two kinds of run --------------------------------------------------------


def fresh_setup_seconds(workload):
    """Set-up time measured in a new process, so that nothing cached by an
    earlier set-up in this process (a module-level table, say) hides it."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", workload.name,
                           "--size", workload.size, "--setup-only"],
                          stdout=subprocess.PIPE, text=True, timeout=60, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def timed_run(workload, seed, seconds, ledger):
    """Set up, then repeat units for `seconds` (at least min_units); the
    SETUP_REPEATS fresh-process set-ups are spread over the same span so
    they meet the same machine as the units."""
    ctx = workload.setup()  # lazy tables fill here, before anything is timed
    setup_times = [fresh_setup_seconds(workload)]
    seeds = workload.seeds(seed)
    timings = Timings()
    start = _clock()
    i = 0
    while i < workload.min_units or _clock() - start < seconds:
        unit_seed = seeds[i % len(seeds)]
        try:
            sample, out = workload.unit(ctx, i, unit_seed)
        except Exception:  # a raising unit is a failed operation; keep measuring
            traceback.print_exc()
            ledger.ops(workload.ops_per_unit(ctx), workload.ops_per_unit(ctx))
        else:
            timings.add(sample)
            workload.check(ctx, unit_seed, out, ledger)
        i += 1
        if len(setup_times) < SETUP_REPEATS and _clock() - start >= len(setup_times) * seconds / SETUP_REPEATS:
            setup_times.append(fresh_setup_seconds(workload))
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(fresh_setup_seconds(workload))
    return setup_times, timings


class Timings:
    """Each part's fastest time so far, and each unit's totals for the medians.

    A unit's parts are disjoint pieces of the workload's answer (grid cells
    and the sweep, runs of verify cases, single codes and table rows),
    labelled (kind, key) with kind "work", "rows" or "other".
    """

    def __init__(self):
        self.best, self.count = {}, {}
        self.unit_walls = []
        self.unit_rates = {"work": [], "rows": []}

    def add(self, parts):
        for label, (sec, n) in parts.items():
            self.best[label] = min(self.best.get(label, math.inf), sec)
            self.count[label] = n
        self.unit_walls.append(sum(sec for sec, _ in parts.values()))
        for kind, rates in self.unit_rates.items():
            picked = [v for label, v in parts.items() if label[0] == kind]
            if picked:
                rates.append(sum(n for _, n in picked) / sum(sec for sec, _ in picked))

    def rate(self, kind):
        labels = [label for label in self.best if label[0] == kind]
        return sum(self.count[label] for label in labels) / sum(self.best[label] for label in labels)


def summarize_timed(workload, setup_times, timings):
    """Metrics from the run's timings.

    Each part keeps its fastest time in the run, and the metrics add those
    up over one whole answer: on a shared machine other tenants only ever
    slow work down, and the best of many short parts moves far less from
    run to run than a median of whole units does (see README.md).  setup_s
    is the fastest of the fresh-process set-ups.  Medians are printed
    beside them.
    """
    n = len(timings.unit_walls)
    if not n:
        raise RuntimeError(f"{workload.name}: no unit of work completed")

    def how(values):
        return f"best parts of {n} units; median unit {statistics.median(values):.6g}"

    metrics = {
        "wall_s": {"value": sum(timings.best.values()), "unit": "s", "how": how(timings.unit_walls)},
        "setup_s": {"value": min(setup_times), "unit": "s",
                    "how": f"fastest of {len(setup_times)} fresh processes; "
                           f"median {statistics.median(setup_times):.6g}"},
        "work_per_s": {"value": timings.rate("work"), "unit": "1/s", "how": how(timings.unit_rates["work"])},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB", "how": "this process"},
    }
    # the same throughput under the workload's own name, and rows/s for the table
    own = {"grid-bch3": "trials_per_s", "grid-rep3": "trials_per_s",
           "verify-bch4": "cases_per_s", "construct-count": "codes_per_s"}[workload.name]
    details = {own: dict(metrics["work_per_s"])}
    if timings.unit_rates["rows"]:
        details["rows_per_s"] = {"value": timings.rate("rows"), "unit": "1/s",
                                 "how": how(timings.unit_rates["rows"])}
    counts = {"units": n, "parts": len(timings.best),
              "work_per_answer": sum(c for label, c in timings.count.items() if label[0] == "work")}
    return metrics, details, counts


def traced_run(workload, seed, ledger):
    tr = Tracer()
    t0 = _clock()
    overhead_ns = workload.trace(tr, ledger, seed)
    gf_mul_probe(tr, ledger)
    main_s = _clock() - t0
    # the probe: layers this workload never reaches, at the tiny size
    tr.source = PROBE
    for probe in (GridWorkload("grid-bch3", "tiny"), ConstructWorkload("tiny")):
        if probe.name != workload.name:
            probe.trace(tr, ledger, DEFAULT_SEED, with_cli=False)
    tr.source = MAIN
    metrics = layer_metrics(tr)
    metrics["trace.overhead_s"] = {"value": overhead_ns / 1e9, "unit": "s", "source": MAIN,
                                   "how": "traced minus untraced replay"}
    causes = {k: metrics[f"sim.fail.{k}"]["value"] for k in ("sm_gave_up", "lookup_miss", "detectable", "logical")}
    source = metrics["sim.fail.logical"]["source"]
    replay_failures = tr.counters[(source, "bench.replay_failures")]
    ledger.check(sum(causes.values()) == replay_failures, "failure causes do not sum to the replay's failures")
    out_dir = os.path.join(ROOT, ".bench-out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{workload.name}-seed{seed}.jsonl.gz")
    tr.dump(path, {"workload": workload.name, "seed": seed, "size": workload.size})
    details = {"layer_self_s": tr.layer_self_seconds(MAIN), "traced_work_s": main_s,
               "spans": len(tr.spans), "trace_file": os.path.relpath(path, ROOT)}
    return metrics, details, {"spans": len(tr.spans)}


def provenance(seed, size):
    commit = None
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "seed": seed, "size": size}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--setup-only", action="store_true", help="print one set-up time and exit")
    args = parser.parse_args(argv)
    if os.path.dirname(os.path.abspath(qdsbch.__file__)) != os.path.join(SRC, "qdsbch"):
        log(f"error: imported qdsbch from {qdsbch.__file__}, not from {SRC}")
        return 2

    workload = make_workload(args.workload, args.size)
    if args.setup_only:
        t0 = _clock()
        workload.setup()
        print(json.dumps({"setup_s": _clock() - t0}))
        return 0
    ledger = Ledger()
    log(f"{args.workload}: seed {args.seed}, trace {args.trace}, size {args.size}")
    if args.trace:
        metrics, details, counts = traced_run(workload, args.seed, ledger)
    else:
        setup_times, timings = timed_run(workload, args.seed, args.seconds, ledger)
        metrics, details, counts = summarize_timed(workload, setup_times, timings)
    details["ops_failed_ratio"] = {"value": ledger.failed / max(1, ledger.attempted), "unit": "ratio",
                                   "how": f"{ledger.failed} of {ledger.attempted} operations"}
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "checks_run": ledger.checks_run,
        "checks_failed": ledger.checks_failed[:20],
        "metrics": metrics,
        "details": details,
        "provenance": {**provenance(args.seed, args.size), "counts": counts},
    }
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
