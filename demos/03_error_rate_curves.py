"""Logical error rate of BCH-protected vs repeated syndrome readout.

Phenomenological model: each qubit is depolarized with probability p_q
and each of the n_s measurement outcomes flips with probability p_s.
Rather than brute-force sampling (hopeless below p ~ 1e-4), failures
are estimated once per (data weight, readout weight) cell and then
recombined analytically against the binomial weight distribution at
every requested noise point.  One grid, any number of curves.

Trial counts here are cut down so the script runs in seconds; bump
BOUNDARY_TRIALS for publication-quality error bars.
"""

import math

from qdsbch import (
    bch_sm,
    lookup_decoder_build,
    qds_assemble,
    repetition_sm,
    steane_code,
    sweep,
)

BOUNDARY_TRIALS = 2_000
BULK_TRIALS = 400
SEED = 11
RATIO = 0.01  # p_q = RATIO * p_s

steane = steane_code()
decoder = lookup_decoder_build(steane, max_weight=1)

qds_bch = qds_assemble(steane, bch_sm(steane.ell, t=3))
qds_rep = qds_assemble(steane, repetition_sm(steane.ell, reps=3))
print(f"bch readout: {qds_bch.sm.n_s} measurements, corrects {qds_bch.sm.t_s} flips")
print(f"rep readout: {qds_rep.sm.n_s} measurements, corrects {qds_rep.sm.t_s} flip")

p_s_values = [10 ** (-3 + 0.25 * i) for i in range(5)]  # 1e-3 .. 1e-2

grid_bch, pts_bch = sweep(
    qds_bch, decoder, p_s_values, RATIO,
    seed=SEED, boundary_trials=BOUNDARY_TRIALS, bulk_trials=BULK_TRIALS,
)
grid_rep, pts_rep = sweep(
    qds_rep, decoder, p_s_values, RATIO,
    seed=SEED, boundary_trials=BOUNDARY_TRIALS, bulk_trials=BULK_TRIALS,
)

print(f"\n{'p_s':>10} {'p_q':>10} {'bch':>12} {'repetition':>12} {'ratio':>8}")
for b, r in zip(pts_bch, pts_rep):
    ratio = r.p_err / b.p_err if b.p_err > 0 else math.inf
    print(
        f"{b.p_s:>10.3e} {b.p_q:>10.3e} {b.p_err:>12.3e} {r.p_err:>12.3e} "
        f"{ratio:>8.1f}"
    )

# Slopes on the log-log plot: a readout correcting t_s flips fails at
# order p_s^(t_s+1), so 3-fold repetition (t_s=1) falls off with slope
# ~2 and bch (t_s=3) with slope ~4, but only above a crossover.  Steane's
# radius-1 lookup fails on 147 of the 189 weight-2 errors (7/9) even with
# a clean readout, so at p_q = 0.01 p_s the data term 21 * (7/9) * p_q^2
# passes bch's readout term C(21,4) * p_s^4 near p_s ~ 5e-4; below that
# the bch slope falls toward 2.  The fit here (1e-3 .. 1e-2) lies above it.
lo, hi = pts_bch[0], pts_bch[-1]
slope_bch = math.log10(hi.p_err / lo.p_err) / math.log10(hi.p_s / lo.p_s)
lo, hi = pts_rep[0], pts_rep[-1]
slope_rep = math.log10(hi.p_err / lo.p_err) / math.log10(hi.p_s / lo.p_s)
print(f"\nfitted slopes: bch ~ {slope_bch:.2f}, repetition ~ {slope_rep:.2f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not installed; skipping the plot")
else:
    fig, ax = plt.subplots(figsize=(5, 4))
    ax.loglog([p.p_s for p in pts_bch], [p.p_err for p in pts_bch],
              "o-", label=f"bch [{qds_bch.sm.n_s},{qds_bch.sm.ell},7]")
    ax.loglog([p.p_s for p in pts_rep], [p.p_err for p in pts_rep],
              "s--", label="3x repetition")
    ax.set_xlabel("measurement flip probability $p_s$")
    ax.set_ylabel("logical error rate")
    ax.set_title(f"Steane code, $p_q = {RATIO} \\, p_s$")
    ax.legend()
    fig.tight_layout()
    fig.savefig("qds_curves.png", dpi=150)
    print("wrote qds_curves.png")
