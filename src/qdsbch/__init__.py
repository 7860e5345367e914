"""Quantum data-syndrome codes with BCH-protected syndrome measurement.

The package builds stabilizer codes whose syndrome readout is itself a
codeword of a classical shortened BCH code, counts the measurement
overhead of that construction against repetition and the distinct-pair
alternative, and estimates logical error rates under phenomenological
noise with weight-stratified Monte Carlo.
"""

__version__ = "0.1.0"

from .fields import (
    BinaryPolynomial,
    GF2m,
    PRIMITIVE_POLYNOMIALS,
    cyclotomic_cosets,
    minimal_polynomial,
    poly_lcm,
)
from .linalg import BinaryMatrix
from .stabilizer import (
    BudgetExceededError,
    LookupDecoder,
    PauliOperator,
    StabilizerCode,
    css_from_parity,
    format_stabilizer_code,
    hamming_parity_check,
    iter_weight_paulis,
    lookup_decoder_build,
    parse_stabilizer_code,
    steane_code,
    symplectic_product,
)
from .bch import (
    BchCode,
    bch_construct,
    bch_decode,
    bch_encode,
    bch_select_m,
    bch_select_parameters,
    parity_bit_count,
)
from .qds import (
    BchSyndromeMeasurement,
    OverheadEntry,
    QdsCode,
    RepetitionSyndromeMeasurement,
    SyndromeMeasurementCode,
    VerifyCell,
    bch_sm,
    fujiwara_extra_measurements,
    identity_sm,
    overhead_table,
    qds_assemble,
    repetition_sm,
    verify_correction_guarantee,
)
from .sim import (
    CellStats,
    CombineResult,
    ErrorModel,
    SimGrid,
    SweepPoint,
    binomial_weight_probability,
    build_grid,
    combine_grid,
    combine_grid_bounds,
    direct_monte_carlo,
    required_cells,
    stabilizer_meas_error_prob,
    sweep,
    wilson_interval,
)

__all__ = [
    "__version__",
    # fields
    "BinaryPolynomial",
    "GF2m",
    "PRIMITIVE_POLYNOMIALS",
    "cyclotomic_cosets",
    "minimal_polynomial",
    "poly_lcm",
    # linalg
    "BinaryMatrix",
    # stabilizer
    "BudgetExceededError",
    "LookupDecoder",
    "PauliOperator",
    "StabilizerCode",
    "css_from_parity",
    "format_stabilizer_code",
    "hamming_parity_check",
    "iter_weight_paulis",
    "lookup_decoder_build",
    "parse_stabilizer_code",
    "steane_code",
    "symplectic_product",
    # bch
    "BchCode",
    "bch_construct",
    "bch_decode",
    "bch_encode",
    "bch_select_m",
    "bch_select_parameters",
    "parity_bit_count",
    # qds
    "BchSyndromeMeasurement",
    "OverheadEntry",
    "QdsCode",
    "RepetitionSyndromeMeasurement",
    "SyndromeMeasurementCode",
    "VerifyCell",
    "bch_sm",
    "fujiwara_extra_measurements",
    "identity_sm",
    "overhead_table",
    "qds_assemble",
    "repetition_sm",
    "verify_correction_guarantee",
    # sim
    "CellStats",
    "CombineResult",
    "ErrorModel",
    "SimGrid",
    "SweepPoint",
    "binomial_weight_probability",
    "build_grid",
    "combine_grid",
    "combine_grid_bounds",
    "direct_monte_carlo",
    "required_cells",
    "stabilizer_meas_error_prob",
    "sweep",
    "wilson_interval",
]
