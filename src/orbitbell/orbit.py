"""Cyclic step operator and its labeled orbit of product states.

The two-party space is C^d (x) C^d with flat index j * d + k for
|j>|k>. One unitary generator drives everything: B = (U (x) 1) S,
where S swaps the parties and U is an M-th root of the cyclic shift
T. Repeated application of B to |0>|0> walks a closed orbit of
2 * M * d product states, and each orbit state factorizes into one
measurement-basis vector per party, so it carries a
(setting, outcome) label pair.

B hands the parties' vectors across, B (a (x) b) = (U b) (x) a, and
U^M = T, so with c_k = U^k|0>, column k div M of U^(k mod M) and
labelled (k mod M, k div M), orbit state j is
c_ceil(j/2) (x) c_floor(j/2), indices taken mod M*d. U commutes with
T, so every power U^s is circulant, fixed by its first column
u_s = U^s|0>, and c_k = roll(u_(k mod M), k div M). The orbit's labels
(:func:`_terms`) and any entries of its factors (:func:`_gather`) are
read by this one index rule from the root table's first columns.
``analyze`` reads entry 0 alone, for the Gram row; the whole (n, d)
factors and the d^2-long states (:func:`_states`) are formed only for
the public :func:`orbit` and ``verify``. This module forms no
d^2 x d^2 matrix: B, the shift T and the swap S as matrices are the
``linalg`` module's, for the verification sweep and the tests.

Everything rests on one object per instance, its root table
(:func:`_root_table`): U's eigenvalues lambda_j with their exact
integer root indices, and the first columns u_0..u_M of the powers of
U, from exact index powers and checked through U as they are built;
U itself is the circulant gather of u_1. It is built once and passed
down explicitly to the orbit, the quantum-bound routes, the
two-setting statistics and the verification sweep. The shift's
Fourier rows w_j are not part of it: only the dense eigensystem of
``linalg`` reads them, and ``linalg`` holds them. :func:`root_unitary`
is a public view of the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "ProblemSpec",
    "MeasLabel",
    "OrbitEntry",
    "root_unitary",
    "orbit",
]

# Tolerances of the root table's snap and of its column check, also
# read by verify. Checks are written ``not err <= tol``: NaN fails.
_SNAP_TOL = 1e-9
_STEP_TOL = 1e-10


@dataclass(frozen=True)
class ProblemSpec:
    """Instance size: measurement outcomes per setting, settings per party."""

    outcomes: int
    settings: int

    def __post_init__(self) -> None:
        outcomes, settings = _sizes(self.outcomes, self.settings)
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "settings", settings)

    @property
    def orbit_length(self) -> int:
        return 2 * self.settings * self.outcomes

    @property
    def hilbert_dim(self) -> int:
        return self.outcomes**2


def _sizes(
    outcomes: object, settings: object, names: tuple[str, str] = ("outcomes", "settings")
) -> tuple[int, int]:
    """(outcomes, settings) as plain ints, so that sizes such as d^(2M)
    cannot wrap around. TypeError for a non-integer or a ``bool``
    (numpy's too), then ValueError below 2 outcomes or 1 setting."""
    for name, value in zip(names, (outcomes, settings)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise TypeError(f"{name} must be an integer, got {value!r}")
    outcomes, settings = int(outcomes), int(settings)
    if outcomes < 2:
        raise ValueError(f"{names[0]} must be at least 2")
    if settings < 1:
        raise ValueError(f"{names[1]} must be at least 1")
    return outcomes, settings


class MeasLabel(NamedTuple):
    """One party's measurement choice and result."""

    setting: int
    outcome: int


class OrbitEntry(NamedTuple):
    """Orbit state number ``step``, with its per-party labels and vector."""

    step: int
    alice: MeasLabel
    bob: MeasLabel
    vector: np.ndarray


class _RootTable(NamedTuple):
    """One instance's root eigenvalues and the first columns of the
    powers of U, built once by :func:`_root_table` and handed down."""

    lambdas: np.ndarray  # (d,); U w_j = lambda_j w_j
    indices: list[int]  # lambda_j = exp(2*pi*i*indices[j] / (2*M*d))
    firsts: np.ndarray  # (M+1, d); row s is u_s = U^s|0>

    @property
    def u(self) -> np.ndarray:
        """The root unitary U, circulant: U[x, y] = u_1[(x - y) mod d]."""
        ramp = np.arange(self.firsts.shape[1])
        return self.firsts[1][(ramp[:, None] - ramp) % len(ramp)]


def _eigenphases(d: int) -> np.ndarray:
    """The shift's eigenphases theta_j = -2*pi*j/d reduced to (-pi, pi],
    T w_j = exp(i theta_j) w_j, the branch decided in exact integer
    arithmetic so the boundary phase is +pi, never -pi, which pins down
    the root taken in :func:`root_unitary`."""
    js = np.arange(d)
    thetas = -2.0 * np.pi * js / d
    above = 2 * js > d
    thetas[above] = 2.0 * np.pi * (d - js[above]) / d
    thetas[2 * js == d] = np.pi
    return thetas


def _root_indices(d: int, order: int) -> list[int]:
    """Exact root index of each lambda_j = exp(i theta_j / M), order =
    2*M*d: theta_j / M is 2*pi*(-2j)/order below the boundary, pi/M =
    2*pi*d/order on it and 2*pi*2(d - j)/order above it."""
    return [
        (-2 * j) % order if 2 * j < d else d if 2 * j == d else 2 * (d - j)
        for j in range(d)
    ]


def _root_table(spec: ProblemSpec) -> _RootTable:
    """The instance's root table: U's eigenvalues with their exact root
    indices, and the first columns u_0..u_M of the powers of U.

    The indices come from integer arithmetic, and lambda_j is
    exp(2*pi*i*r_j / n), n = 2*M*d. They are checked against the phase
    rule's eigenvalue exp(i * (theta_j / M)) in one snap, within 1e-9,
    which raises RuntimeError on a mismatch (a branch-convention bug)
    or a NaN. U = sum_j lambda_j w_j w_j^H is circulant, and so is U^s,
    whose first column is u_s = ifft(lambda^s): row s of ``firsts``,
    with lambda_j^s the exact index power exp(2*pi*i*((s r_j) mod n)/n),
    so no power of U accumulates rounding. Row M, u_M = T|0>, makes
    row 1 exist at M = 1, where U = T. The columns are then checked
    through U (:func:`_check_columns`).
    """
    d, order = spec.outcomes, spec.orbit_length
    indices = _root_indices(d, order)
    powers = np.arange(spec.settings + 1)[:, None] * indices % order
    phases = np.exp(1j * (2 * np.pi * powers / order))  # row s is lambda^s
    rooted = np.exp(1j * (_eigenphases(d) / spec.settings))
    snap = np.abs(rooted - phases[1])
    worst = int(snap.argmax())  # the first NaN, if any
    if not snap[worst] <= _SNAP_TOL:
        raise RuntimeError(
            f"root table: lambda_{worst} = {complex(rooted[worst])!r} is not "
            f"the order-{order} root of unity with index {indices[worst]} "
            f"(snap error {float(snap[worst]):.3e} exceeds {_SNAP_TOL:.0e})"
        )
    table = _RootTable(phases[1], indices, np.fft.ifft(phases, axis=1))
    _check_columns(table)
    return table


def _check_columns(table: _RootTable) -> None:
    """Check the first columns through U: u_0 = |0>, U u_s = u_(s+1)
    for s < M, and u_M = T|0> = |1>, within 1e-10, in one (M, d) x
    (d, d) product. With the index rule this is the whole orbit
    relation: B v_j = v_(j+1) comes down to U c_k = c_(k+1), and, as U
    commutes with the rolls, to U u_s = u_(s+1) and
    U u_(M-1) = u_M = roll(u_0, 1), which also closes the orbit after
    n = 2*M*d steps. Raises RuntimeError naming the first bad column,
    also for a NaN.
    """
    firsts = table.firsts
    m, d = firsts.shape[0] - 1, firsts.shape[1]
    # row 0 is u_0 - |0>, row s + 1 is U u_s - u_(s+1) for s < M, and
    # row M + 1 is u_M - T|0>
    residual = np.empty((m + 2, d), dtype=complex)
    np.matmul(firsts[:m], table.u.T, out=residual[1 : m + 1])
    residual[1 : m + 1] -= firsts[1:]
    residual[0], residual[m + 1] = firsts[0], firsts[m]
    residual[0, 0] -= 1.0
    residual[m + 1, 1] -= 1.0
    errs = np.abs(residual).max(axis=1)
    passed = errs <= _STEP_TOL
    if not passed.all():
        row = int(passed.argmin())  # the first failure, a NaN included
        claim = (
            "u_0 = |0>" if row == 0
            else f"u_{m} = T|0>" if row == m + 1
            else f"U u_{row - 1} = u_{row}"
        )
        raise RuntimeError(
            f"root table: {claim} fails (max deviation {float(errs[row]):.3e} "
            f"exceeds {_STEP_TOL:.0e}): index-convention bug"
        )


def root_unitary(spec: ProblemSpec) -> np.ndarray:
    """M-th root U of the cyclic shift, U = sum_j e^{i theta_j / M} |w_j><w_j|,
    as held by the instance's root table."""
    return _root_table(spec).u


def orbit(spec: ProblemSpec) -> list[OrbitEntry]:
    """The full closed orbit of B on |0>|0>, one entry per step.

    Entry j is state c_ceil(j/2) (x) c_floor(j/2), with c_k = U^k|0>
    (indices mod M*d) labelled (k mod M, k div M): column k div M of
    U^(k mod M). So entry j carries the label pair that j steps of B
    reach from ((0,0), (0,0)), and as its vector v_j = a_j (x) b_j the
    product of the two labels' basis columns. The orbit relation
    B v_j = v_(j+1), closing after n = 2*M*d steps, is checked on the
    root table's first columns as the table is built (see
    :func:`_check_columns`), which raises RuntimeError on a mismatch
    beyond 1e-10 rather than returning silently wrong terms; ``verify``
    checks it again on every state with the dense B.
    """
    table = _root_table(spec)
    entries = _gather(spec, table, np.arange(spec.outcomes))
    states = _states(entries[1:], entries[:-1])
    return [
        OrbitEntry(step, a, b, vector)
        for step, ((a, b), vector) in enumerate(zip(_terms(spec), states))
    ]


def _states(alice: np.ndarray, bob: np.ndarray) -> np.ndarray:
    """The orbit states a_j (x) b_j as the rows of one (n, d^2) array,
    from the (n, d) factor arrays alice[j] = a_j and bob[j] = b_j."""
    n, d = alice.shape
    return (alice[:, :, None] * bob[:, None, :]).reshape(n, d * d)


def _factor_indices(spec: ProblemSpec) -> np.ndarray:
    """The index rule as one sequence, k_i = floor(i/2) mod M*d for
    i = 0..n: orbit state j is c_(k_(j+1)) (x) c_(k_j), Alice's factor
    c_ceil(j/2) and Bob's c_floor(j/2), and b_(j+1) = a_j is B handing
    Alice's vector to Bob."""
    return np.arange(spec.orbit_length + 1) // 2 % (spec.settings * spec.outcomes)


def _gather(spec: ProblemSpec, table: _RootTable, entries: np.ndarray) -> np.ndarray:
    """Entries ``entries`` of c_(k_i) for i = 0..n, as the rows of one
    (n + 1, len(entries)) array, so that rows 1..n are Alice's factors
    and rows 0..n-1 Bob's. Entry x of c_k = roll(u_(k mod M), k div M)
    is u_(k mod M)[(x - k div M) mod d], read from the table's first
    columns in one fancy index at the indices of
    :func:`_factor_indices`."""
    index = _factor_indices(spec)
    m = spec.settings
    return table.firsts[
        (index % m)[:, None], (entries - (index // m)[:, None]) % spec.outcomes
    ]


def _terms(spec: ProblemSpec) -> tuple[tuple[MeasLabel, MeasLabel], ...]:
    """The orbit's label pairs, term j labelled (Alice's, Bob's) =
    (k_(j+1), k_j) by the index rule of :func:`_factor_indices`, label
    (k mod M, k div M) for column index k."""
    m = spec.settings
    labels = [MeasLabel(k % m, k // m) for k in range(m * spec.outcomes)]
    walk = [labels[k] for k in _factor_indices(spec).tolist()]
    return tuple(zip(walk[1:], walk[:-1]))
