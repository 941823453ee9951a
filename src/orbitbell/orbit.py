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
u_s = U^s|0>, and c_k = roll(u_(k mod M), k div M). The orbit is held
as its label pairs and two (n, d) factor arrays, gathered by this one
index rule from the root table's first columns and checked one step
at a time through U on the factors; :func:`label_step`, the same walk
one step at a time, is the rule the tests check it against. The
d^2-long states are formed only where a product needs them
(:func:`_states`). This module forms no d^2 x d^2 matrix: B, the
shift T and the swap S as matrices are the ``linalg`` module's, for
the verification sweep and the tests.

Everything rests on one object per instance, its root table
(:func:`_root_table`): the shift's Fourier eigenbasis w_j, U's
eigenvalues lambda_j with their exact integer root indices, and the
first columns u_0..u_M of the powers of U, from exact index powers;
U itself is the circulant gather of u_1. It is built once and passed
down explicitly to the orbit, the quantum-bound routes, the
two-setting statistics and the verification sweep;
:func:`fourier_eigenbasis` and :func:`root_unitary` are public views
of it, and :func:`measurement_bases`, the powers of U by running
products, is the tests' reference for its first columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "ProblemSpec",
    "MeasLabel",
    "OrbitEntry",
    "fourier_eigenbasis",
    "root_unitary",
    "measurement_bases",
    "label_step",
    "orbit",
    "condition_label_pairs",
]

# Tolerances of the root table's snap and of an orbit step, also read
# by verify. Checks are written ``not err <= tol``: NaN fails.
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
    """One instance's shift eigenbasis, root eigenvalues and the first
    columns of the powers of U, built once by :func:`_root_table` and
    handed down."""

    rows: np.ndarray  # (d, d); row j is the Fourier vector w_j
    lambdas: np.ndarray  # (d,); U w_j = lambda_j w_j
    indices: list[int]  # lambda_j = exp(2*pi*i*indices[j] / (2*M*d))
    firsts: np.ndarray  # (M+1, d); row s is u_s = U^s|0>

    @property
    def u(self) -> np.ndarray:
        """The root unitary U, circulant: U[x, y] = u_1[(x - y) mod d]."""
        ramp = np.arange(self.firsts.shape[1])
        return self.firsts[1][(ramp[:, None] - ramp) % len(ramp)]


def _fourier(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Fourier rows w_j and eigenphases theta_j of the shift, as arrays
    (see :func:`fourier_eigenbasis`)."""
    js = np.arange(d)
    rows = np.exp(2j * np.pi * js[:, None] * js / d) / np.sqrt(d)
    # theta_j = -2*pi*j/d reduced to (-pi, pi], the branch decided in
    # exact integer arithmetic so the boundary never flips sign
    thetas = -2.0 * np.pi * js / d
    above = 2 * js > d
    thetas[above] = 2.0 * np.pi * (d - js[above]) / d
    thetas[2 * js == d] = np.pi
    return rows, thetas


def _root_indices(d: int, order: int) -> list[int]:
    """Exact root index of each lambda_j = exp(i theta_j / M), order =
    2*M*d: theta_j / M is 2*pi*(-2j)/order below the boundary, pi/M =
    2*pi*d/order on it and 2*pi*2(d - j)/order above it."""
    return [
        (-2 * j) % order if 2 * j < d else d if 2 * j == d else 2 * (d - j)
        for j in range(d)
    ]


def _root_table(spec: ProblemSpec) -> _RootTable:
    """The instance's root table: Fourier rows, U's eigenvalues with
    their exact root indices, and the first columns u_0..u_M of the
    powers of U.

    The indices come from integer arithmetic, and lambda_j is
    exp(2*pi*i*r_j / n), n = 2*M*d. They are checked against the phase
    rule's eigenvalue exp(i * (theta_j / M)) in one snap, within 1e-9,
    which raises RuntimeError on a mismatch (a branch-convention bug)
    or a NaN. U = sum_j lambda_j w_j w_j^H is circulant, and so is U^s,
    whose first column is u_s = ifft(lambda^s): row s of ``firsts``,
    with lambda_j^s the exact index power exp(2*pi*i*((s r_j) mod n)/n),
    so no power of U accumulates rounding. Row M, u_M = T|0>, makes
    row 1 exist at M = 1, where U = T.
    """
    d, order = spec.outcomes, spec.orbit_length
    rows, thetas = _fourier(d)
    indices = _root_indices(d, order)
    powers = np.arange(spec.settings + 1)[:, None] * indices % order
    phases = np.exp(1j * (2 * np.pi * powers / order))  # row s is lambda^s
    rooted = np.exp(1j * (thetas / spec.settings))
    snap = np.abs(rooted - phases[1])
    worst = int(snap.argmax())  # the first NaN, if any
    if not snap[worst] <= _SNAP_TOL:
        raise RuntimeError(
            f"root table: lambda_{worst} = {complex(rooted[worst])!r} is not "
            f"the order-{order} root of unity with index {indices[worst]} "
            f"(snap error {float(snap[worst]):.3e} exceeds {_SNAP_TOL:.0e})"
        )
    return _RootTable(rows, phases[1], indices, np.fft.ifft(phases, axis=1))


def fourier_eigenbasis(d: int) -> list[tuple[np.ndarray, float]]:
    """Eigenvectors of the cyclic shift with their eigenphases.

    Vector j has components exp(2*pi*i*j*k/d) / sqrt(d) and satisfies
    T w_j = exp(i * theta_j) w_j with theta_j in (-pi, pi]. The branch
    cut matters: the boundary phase is represented as +pi, never -pi,
    which pins down the root taken in :func:`root_unitary`. The vectors
    are the rows of the root table's Fourier array.
    """
    rows, thetas = _fourier(d)
    return [(rows[j], float(thetas[j])) for j in range(d)]


def root_unitary(spec: ProblemSpec) -> np.ndarray:
    """M-th root U of the cyclic shift, U = sum_j e^{i theta_j / M} |w_j><w_j|,
    as held by the instance's root table."""
    return _root_table(spec).u


def measurement_bases(u: np.ndarray, settings: int) -> list[np.ndarray]:
    """Orthonormal basis per setting s < settings: the columns of U^s.

    ``u`` is the instance's root unitary. The powers are running
    products U^s = U^(s-1) U, settings - 1 matrix products in all; U^0
    is the identity and U^1 is ``u`` itself. The package does not call
    it: the root table holds each U^s as its first column u_s, from
    exact index powers, and U^s[:, k] = roll(u_s, k). It is the tests'
    reference for those columns.
    """
    bases = [np.eye(u.shape[0], dtype=complex), u]
    for _ in range(2, settings):
        bases.append(bases[-1] @ u)
    return bases[:settings]


def label_step(
    alice: MeasLabel, bob: MeasLabel, spec: ProblemSpec
) -> tuple[MeasLabel, MeasLabel]:
    """Advance a label pair the way B advances the underlying state.

    B hands Alice's vector to Bob unchanged and gives Alice one more
    application of U on Bob's old vector: the setting increments until
    it tops out at settings-1, after which U^M = T bumps the outcome
    by one (mod d) and resets the setting to 0. :func:`orbit` names
    every state by one index rule instead; the tests check its labels
    against this walk.
    """
    if bob.setting < spec.settings - 1:
        stepped = MeasLabel(bob.setting + 1, bob.outcome)
    else:
        stepped = MeasLabel(0, (bob.outcome + 1) % spec.outcomes)
    return stepped, alice


def orbit(spec: ProblemSpec) -> list[OrbitEntry]:
    """The full closed orbit of B on |0>|0>, one entry per step.

    Entry j is state c_ceil(j/2) (x) c_floor(j/2), with c_k = U^k|0>
    (indices mod M*d) labelled (k mod M, k div M): column k div M of
    U^(k mod M). So entry j carries the label pair that iterating
    :func:`label_step` j times from ((0,0), (0,0)) reaches, the rule
    the tests check it against, and as its vector v_j = a_j (x) b_j the
    product of the two labels' basis columns. The orbit relation is
    checked one step at a time without forming B, on the factors:
    B (a (x) b) = (U b) (x) a, so step j compares a_j with U b_(j-1)
    and b_j with a_(j-1), O(d^2) per step. Step 0 must be |0>|0>, and
    for 1 <= j <= n = 2*M*d, B v_(j-1) must be v_j, with v_n, the
    closing state the index rule names, equal to |0>|0>. As U commutes
    with the rolls, this checks U u_s = u_(s+1) for s < M - 1 and
    U u_(M-1) = roll(u_0, 1) = u_M on the root table's first columns.
    Any mismatch beyond 1e-10 means an index-convention bug and raises
    RuntimeError, naming the first bad step, rather than returning
    silently wrong terms.
    """
    terms, alice, bob = _orbit(spec, _root_table(spec))
    return [
        OrbitEntry(step, a, b, vector)
        for step, ((a, b), vector) in enumerate(zip(terms, _states(alice, bob)))
    ]


def _states(alice: np.ndarray, bob: np.ndarray) -> np.ndarray:
    """The orbit states a_j (x) b_j as the rows of one (n, d^2) array,
    from the (n, d) factor arrays of :func:`_orbit`."""
    n, d = alice.shape
    return (alice[:, :, None] * bob[:, None, :]).reshape(n, d * d)


def _factor_indices(spec: ProblemSpec) -> np.ndarray:
    """The index rule as one sequence, k_i = floor(i/2) mod M*d for
    i = 0..n+1: orbit row j = 0..n is c_(k_(j+1)) (x) c_(k_j), Alice's
    factor c_ceil(j/2) and Bob's c_floor(j/2), and b_(j+1) = a_j is B
    handing Alice's vector to Bob. The closing row n is named |0>|0>
    again."""
    period = spec.settings * spec.outcomes
    return (np.arange(period + 1) % period).repeat(2)


def _orbit(
    spec: ProblemSpec, table: _RootTable
) -> tuple[tuple[tuple[MeasLabel, MeasLabel], ...], np.ndarray, np.ndarray]:
    """:func:`orbit` from the instance's root table, as its label pairs
    and the two (n, d) factor arrays, alice[j] = a_j and bob[j] = b_j
    (see :func:`_states` for the states themselves).

    State j is c_ceil(j/2) (x) c_floor(j/2), labelled (k mod M, k div M),
    with c_k = U^k|0> = roll(u_(k mod M), k div M) gathered from the
    table's first columns: entry x of c_k is u_(k mod M)[(x - k div M)
    mod d]. The labels and both factor arrays are read at the indices
    of :func:`_factor_indices`, over rows 0..n, in one fancy index, and
    the gathered factors are checked one step at a time through U.
    :func:`label_step` is the one-step rule the tests check these
    labels against.
    """
    d, m, n = spec.outcomes, spec.settings, spec.orbit_length
    labels = [MeasLabel(k % m, k // m) for k in range(m * d)]
    index = _factor_indices(spec)
    factors = table.firsts[(index % m)[:, None], (np.arange(d) - (index // m)[:, None]) % d]
    alice, bob = factors[1:], factors[:-1]

    # row j of (found, expected): (a_j, b_j) against what B makes of
    # row j - 1, (U b_(j-1), a_(j-1)), and against |0>|0> at row 0;
    # the closing row n must be |0>|0> as well
    found = np.concatenate([alice, bob], axis=1)
    expected = np.empty_like(found)
    expected[0] = 0.0
    expected[0, [0, d]] = 1.0
    np.matmul(bob[:n], table.u.T, out=expected[1:, :d])
    expected[1:, d:] = alice[:n]
    errs = np.abs(found - expected).max(axis=1)
    errs[n] = np.maximum(errs[n], np.abs(found[n] - expected[0]).max())
    bad = np.flatnonzero(~(errs <= _STEP_TOL))
    if bad.size:
        step = int(bad[0])
        raise RuntimeError(
            f"orbit vector and label disagree at step {step} "
            f"(max deviation {float(errs[step]):.3e}): index-convention bug"
        )
    walk = [labels[i] for i in index.tolist()]
    return tuple(zip(walk[1 : n + 1], walk[:n])), alice[:n], bob[:n]


def condition_label_pairs(spec: ProblemSpec) -> set[tuple[MeasLabel, MeasLabel]]:
    """Label pairs the orbit must consist of, listed directly.

    Three families: equal settings with equal outcomes; Alice one
    setting ahead with equal outcomes; and the wrap-around where Alice
    is back at setting 0 with the outcome advanced by one (mod d)
    while Bob sits at the last setting. Each of the d*M labels is built
    once and shared by the pairs that name it.
    """
    d, m = spec.outcomes, spec.settings
    label = [[MeasLabel(s, k) for k in range(d)] for s in range(m)]
    pairs = {(label[s][k], label[s][k]) for s in range(m) for k in range(d)}
    pairs.update((label[s + 1][k], label[s][k]) for s in range(m - 1) for k in range(d))
    pairs.update((label[0][(k + 1) % d], label[m - 1][k]) for k in range(d))
    return pairs
