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
    InstanceTooLarge,
    build_inequality,
    classical_bound,
)
from .certificate import (
    SCHEMA_VERSION,
    certificate_json,
    parse_certificate,
)
from .games import (
    AnalysisReport,
    GameSpec,
    analyze,
    game_spec,
)
from .orbit import (
    MeasLabel,
    OrbitEntry,
    ProblemSpec,
    orbit,
    root_unitary,
)
from .verify import CheckResult, VerificationReport, run_verification

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "BellInequality",
    "CheckResult",
    "DeterministicStrategy",
    "GameSpec",
    "InstanceTooLarge",
    "MeasLabel",
    "OrbitEntry",
    "ProblemSpec",
    "SCHEMA_VERSION",
    "VerificationReport",
    "analyze",
    "build_inequality",
    "certificate_json",
    "classical_bound",
    "game_spec",
    "orbit",
    "parse_certificate",
    "root_unitary",
    "run_verification",
]
