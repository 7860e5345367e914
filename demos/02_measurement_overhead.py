"""Compare the measurement cost of three syndrome-protection schemes.

For a code with ell stabilizer generators, protecting the readout against
t wrong outcomes costs extra measurements.  Three ways to pay:

  repetition    measure every generator 2t+1 times        ->  2*t*ell extra
  distinct-pair combinatorial scheme built from pairwise    (only defined
                sums of generators                          for 2t <= ell)
  bch           measure generator products chosen by a
                shortened BCH generator matrix             ->  R(m,t) extra

The BCH column wins everywhere it is defined, and keeps winning as the
guarantee is strengthened.  The last table is the paper's scaling claim
as numbers: BCH costs about t*log2(ell) extra measurements, distinct-pair
about t^3*log2(ell), and neither count builds a field, so ell can run far
past the GF(2^m) tables.
"""

from qdsbch import bch_select_m, fujiwara_extra_measurements, overhead_table

ells = [5, 6, 8, 10, 16, 24, 32]
ts = [1, 2, 3, 4, 5]

entries = overhead_table(ells, ts)

print(f"{'ell':>4} {'t':>3} {'bch':>5} {'dpm':>5} {'repetition':>11}")
for e in entries:
    dpm = "-" if e.fujiwara is None else str(e.fujiwara)
    print(f"{e.ell:>4} {e.t:>3} {e.bch:>5} {dpm:>5} {e.repetition:>11}")

# --- matched-strength comparison at ell = 10 --------------------------------
#
# The distinct-pair scheme at t_c = 3 guarantees correction of up to 3
# faulty readout bits.  How strong can a BCH readout get for the same
# or lower cost?  Selecting the field degree for ell = 10 message bits
# and t = 11:

dpm_total, stages = fujiwara_extra_measurements(10, 3)
m, code = bch_select_m(10, 11)
print("\nell=10 head-to-head:")
print(f"  distinct-pair, t_c=3:  {dpm_total} extra  (stage widths {stages})")
print(
    f"  bch, t=11:             {code.length - code.dimension} extra  "
    f"([{code.length},{code.dimension},{code.distance}] over GF(2^{m}))"
)
print("  -> eleven correctable readout faults for fewer measurements than")
print("     the pair construction spends to guarantee three.")

# --- scaling: O(t log ell) against O(t^3 log ell) ---------------------------
#
# At fixed t, bch / (t*log2 ell) = m/log2(ell) tends to 1, and
# dpm / (t^3*log2 ell) tends to (2t^2+1)/(3t^2): the i-th stage width is
# about (2i-1)*log2(ell) bits.

print(f"\n{'ell':>6} {'t':>3} {'bch':>5} {'dpm':>7} {'bch/(t lg ell)':>15} "
      f"{'dpm/(t^3 lg ell)':>17} {'limit':>6}")
for k in (8, 16, 30):
    for e in overhead_table([2**k], [1, 4, 16]):
        t = e.t
        print(f"{'2^' + str(k):>6} {t:>3} {e.bch:>5} {e.fujiwara:>7} {e.bch / (t * k):>15.3f} "
              f"{e.fujiwara / (t**3 * k):>17.3f} {(2 * t * t + 1) / (3 * t * t):>6.3f}")
