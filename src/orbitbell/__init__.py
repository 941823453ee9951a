"""Bell inequalities, bounds, and nonlocal games from cyclic orbits of
two-party product states.

A single unitary step operator B = (U (x) 1) S, built from an M-th
root U of the cyclic shift on C^d and the party swap S, generates a
closed orbit of 2*M*d labeled product states. Summing the orbit
projectors yields a Bell expression whose quantum bound follows in
closed form from B's eigenstructure and whose classical bound is an
exact maximum over deterministic strategies; the same orbit induces a
nonlocal game and the correlation statistics of the optimal state.
"""

from .bounds import (
    BellInequality,
    DeterministicStrategy,
    EigenPair,
    InstanceTooLarge,
    STRATEGY_GUARD,
    accumulate_A,
    b_eigensystem,
    build_inequality,
    classical_bound,
    quantum_bound_analytic,
    quantum_bound_numeric,
    root_of_unity_index,
)
from .certificate import (
    SCHEMA_VERSION,
    build_certificate,
    certificate_json,
    parse_certificate,
)
from .games import (
    AnalysisReport,
    GameSpec,
    analyze,
    classical_win_direct,
    game_spec,
    joint_distribution,
    mutual_information,
    prediction_probability,
    quantum_win_direct,
    winning_probabilities,
)
from .linalg import (
    hermiticity_defect,
    kron,
    mat_power,
    unitarity_defect,
)
from .orbit import (
    MeasLabel,
    OrbitEntry,
    ProblemSpec,
    condition_label_pairs,
    fourier_eigenbasis,
    label_step,
    measurement_bases,
    orbit,
    root_unitary,
    step_operator,
    swap_matrix,
    translation_matrix,
)
from .verify import CheckResult, VerificationReport, run_verification

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "BellInequality",
    "CheckResult",
    "DeterministicStrategy",
    "EigenPair",
    "GameSpec",
    "InstanceTooLarge",
    "MeasLabel",
    "OrbitEntry",
    "ProblemSpec",
    "SCHEMA_VERSION",
    "STRATEGY_GUARD",
    "VerificationReport",
    "accumulate_A",
    "analyze",
    "b_eigensystem",
    "build_certificate",
    "build_inequality",
    "certificate_json",
    "classical_bound",
    "classical_win_direct",
    "condition_label_pairs",
    "fourier_eigenbasis",
    "game_spec",
    "hermiticity_defect",
    "joint_distribution",
    "kron",
    "label_step",
    "mat_power",
    "measurement_bases",
    "mutual_information",
    "orbit",
    "parse_certificate",
    "prediction_probability",
    "quantum_bound_analytic",
    "quantum_bound_numeric",
    "quantum_win_direct",
    "root_of_unity_index",
    "root_unitary",
    "run_verification",
    "step_operator",
    "swap_matrix",
    "translation_matrix",
    "unitarity_defect",
    "winning_probabilities",
]
