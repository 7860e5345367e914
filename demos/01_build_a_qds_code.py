"""Walk through building a data-syndrome code from scratch.

Starts with a classical [31,16,7] BCH code, shortens it to [21,6,7],
then uses it to protect the six syndrome bits of the Steane code.  The
result is a 21-measurement readout whose outcomes form a distance-7
codeword, so up to three wrong measurement results can be identified
and undone before the quantum correction is even looked up.
"""

from qdsbch import (
    PauliOperator,
    bch_construct,
    bch_sm,
    lookup_decoder_build,
    qds_assemble,
    steane_code,
)

# --- the classical ingredient -----------------------------------------------
#
# A primitive narrow-sense BCH code over GF(2^5): length 31, designed to
# correct t = 3 bit flips.  Its generator polynomial is the lcm of the
# minimal polynomials of alpha, alpha^2, ..., alpha^6.

parent = bch_construct(m=5, t=3)
print(f"parent code: [{parent.n},{parent.k},{parent.distance}]")
print(f"generator:   {parent.generator.to_hex()} (degree {parent.r})")

# Shortening drops leading message coordinates: fixing the first 10
# message bits to zero leaves a [21,6,7] code.  Distance never drops
# under shortening, and the parity bit count R = 15 is untouched.

code = parent.shortened(10)
print(f"shortened:   [{code.length},{code.dimension},{code.distance}]")

G = code.generator_matrix()
print(f"\nsystematic generator matrix ({G.rows}x{G.cols}):")
for i in range(G.rows):
    print("  " + "".join(str(b) for b in G.row_bits(i)))

# --- the quantum ingredient ---------------------------------------------------

steane = steane_code()
print(f"\nSteane code: n={steane.n}, k={steane.k}, {steane.ell} generators")
for g in steane.generators:
    print("  " + g.to_string())

# --- put them together --------------------------------------------------------
#
# Each row of G^T tells us which stabilizer generators to multiply into
# one measured operator.  21 measurements replace the bare 6; the 15
# extra buy the distance-7 protection on the readout.

sm = bch_sm(steane.ell, t=3)
qds = qds_assemble(steane, sm)
print(f"\nassembled: {qds.h_q.rows} measurements of {qds.h_q.cols // 2}-qubit paulis")
print(f"extra measurements over bare readout: {qds.extra_measurements}")
print("measurement weights:", list(qds.row_weights))

# --- a round trip through the decoder -----------------------------------------
#
# Hit qubit 2 with an X error AND flip three of the 21 measurement
# outcomes.  Three readout flips would defeat any majority vote over
# repeated generators; here the BCH decoder pins them down exactly.

error = PauliOperator.from_string("IIXIIII")
readout_flips = [0] * sm.n_s
for pos in (4, 11, 17):
    readout_flips[pos] = 1

measured = qds.measure(error, readout_flips)
print("\ninjected: X on qubit 2, readout flips at 4, 11, 17")
print("measured word:", "".join(str(b) for b in measured))

decoder = lookup_decoder_build(steane, max_weight=1)
correction, syndrome = qds.decode_two_step(measured, decoder)
print("recovered syndrome:", syndrome)
print("correction:        ", correction.to_string())

residual = steane.classify(error * correction)
print(f"residual after correction: {residual}")
assert residual == "trivial"
