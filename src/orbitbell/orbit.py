"""Cyclic step operator and its labeled orbit of product states.

The two-party space is C^d (x) C^d with flat index j * d + k for
|j>|k>. One unitary generator drives everything: B = (U (x) 1) S,
where S swaps the parties and U is an M-th root of the cyclic shift
T. Repeated application of B to |0>|0> walks a closed orbit of
2 * M * d product states, and each orbit state factorizes into one
measurement-basis vector per party, so it carries a
(setting, outcome) label pair.

B hands the parties' vectors across, B (a (x) b) = (U b) (x) a, so
state j is named by its two factors, a_j and b_j, and the orbit is
held as its label pairs and two (n, d) factor arrays, built from the
labels and checked one step at a time through U on the factors. The
d^2-long states are formed only where a product needs them
(:func:`_states`). This module forms no d^2 x d^2 matrix: B, the
shift T and the swap S as matrices are the ``linalg`` module's, for
the verification sweep and the tests.

Everything rests on one object per instance, its root table
(:func:`_root_table`): the shift's Fourier eigenbasis w_j, U's
eigenvalues lambda_j with their exact integer root indices, U itself
and the M measurement bases U^s. It is built once and passed down
explicitly to the orbit, the quantum-bound routes, the two-setting
statistics and the verification sweep; :func:`fourier_eigenbasis` and
:func:`root_unitary` are public views of it.
"""

from __future__ import annotations

import itertools
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
# by linalg and verify. Checks are written ``not err <= tol``: NaN fails.
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
    """One instance's shift eigenbasis, root unitary and measurement
    bases, built once by :func:`_root_table` and handed down."""

    rows: np.ndarray  # (d, d); row j is the Fourier vector w_j
    lambdas: np.ndarray  # (d,); U w_j = lambda_j w_j
    indices: list[int]  # lambda_j = exp(2*pi*i*indices[j] / (2*M*d))
    u: np.ndarray  # the root unitary U
    bases: np.ndarray  # (M, d, d); bases[s] = U^s, from measurement_bases


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
    their exact root indices, U itself and its M measurement bases.

    lambda_j is exp(i * (theta_j / M)); the indices come from integer
    arithmetic and are checked against lambda_j in one snap, within
    1e-9, which raises RuntimeError on a mismatch (a branch-convention
    bug) or a NaN. U is the ordered sum of lambda_j w_j w_j^H over j,
    the same additions in the same order as summing the terms one at a
    time.
    """
    d, order = spec.outcomes, spec.orbit_length
    rows, thetas = _fourier(d)
    lambdas = np.exp(1j * (thetas / spec.settings))
    indices = _root_indices(d, order)
    snap = np.abs(lambdas - np.exp(2j * np.pi * np.array(indices) / order))
    worst = int(snap.argmax())  # the first NaN, if any
    if not snap[worst] <= _SNAP_TOL:
        raise RuntimeError(
            f"root table: lambda_{worst} = {complex(lambdas[worst])!r} is not "
            f"the order-{order} root of unity with index {indices[worst]} "
            f"(snap error {float(snap[worst]):.3e} exceeds {_SNAP_TOL:.0e})"
        )
    # lambda_j w_j w_j^H stacked, then summed in order, all in one buffer
    terms = rows[:, :, None] * rows.conj()[:, None, :]
    np.multiply(lambdas[:, None, None], terms, out=terms)
    np.cumsum(terms, axis=0, out=terms)
    u = terms[-1].copy()
    bases = np.array(measurement_bases(u, spec.settings))
    return _RootTable(rows, lambdas, indices, u, bases)


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

    ``u`` is the instance's root unitary; the root table holds its
    bases. The powers are running products U^s = U^(s-1) U, settings - 1
    matrix products in all; U^0 is the identity and U^1 is ``u``
    itself.
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
    by one (mod d) and resets the setting to 0.
    """
    if bob.setting < spec.settings - 1:
        stepped = MeasLabel(bob.setting + 1, bob.outcome)
    else:
        stepped = MeasLabel(0, (bob.outcome + 1) % spec.outcomes)
    return stepped, alice


def orbit(spec: ProblemSpec) -> list[OrbitEntry]:
    """The full closed orbit of B on |0>|0>, one entry per step.

    Entry j carries the label pair obtained by iterating
    :func:`label_step` j times from ((0,0), (0,0)), and as its vector
    v_j = a_j (x) b_j the product of the two labels' basis columns
    (Alice's column a_j of U^s, Bob's column b_j of U^t). The orbit
    relation is checked one step at a time without forming B, on the
    factors: B (a (x) b) = (U b) (x) a, so step j compares a_j with
    U b_(j-1) and b_j with a_(j-1), O(d^2) per step. Step 0 must be
    |0>|0>, and for 1 <= j <= n = 2*M*d, B v_(j-1) must be v_j, with
    v_n = |0>|0> at the closing step, where the label walk must also
    be back at ((0,0), (0,0)). Any mismatch beyond 1e-10 means an
    index-convention bug and raises RuntimeError, naming the first bad
    step, rather than returning silently wrong terms.
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


def _orbit(
    spec: ProblemSpec, table: _RootTable
) -> tuple[tuple[tuple[MeasLabel, MeasLabel], ...], np.ndarray, np.ndarray]:
    """:func:`orbit` from the instance's root table, as the walk's label
    pairs and the two (n, d) factor arrays, alice[j] = a_j and
    bob[j] = b_j (see :func:`_states` for the states themselves)."""
    d, n = spec.outcomes, spec.orbit_length
    u, bases = table.u, table.bases

    walk = [(MeasLabel(0, 0), MeasLabel(0, 0))]
    for _ in range(n - 1):
        walk.append(label_step(*walk[-1], spec))
    closing = label_step(*walk[-1], spec)
    flat = itertools.chain.from_iterable(itertools.chain.from_iterable(walk))
    # (step, party, setting/outcome)
    sides = np.fromiter(flat, dtype=np.intp, count=4 * n).reshape(n, 2, 2)
    alice = bases[sides[:, 0, 0], :, sides[:, 0, 1]]
    bob = bases[sides[:, 1, 0], :, sides[:, 1, 1]]

    # row j of (found, expected): (a_j, b_j) against what B makes of
    # step j - 1, (U b_(j-1), a_(j-1)); |0>|0> before step 0 and at n
    seed = np.zeros((1, 2, d), dtype=complex)
    seed[0, :, 0] = 1.0
    found = np.concatenate([np.stack([alice, bob], axis=1), seed])
    expected = np.concatenate([seed, np.stack([bob @ u.T, alice], axis=1)])
    errs = np.abs(found - expected).max(axis=(1, 2))
    bad = np.flatnonzero(~(errs <= _STEP_TOL)).tolist()
    if closing != walk[0]:
        bad.append(n)
    if bad:
        step = bad[0]
        raise RuntimeError(
            f"orbit vector and label disagree at step {step} "
            f"(max deviation {float(errs[step]):.3e}): index-convention bug"
        )
    return tuple(walk), alice, bob


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
