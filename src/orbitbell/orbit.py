"""Cyclic step operator and its labeled orbit of product states.

The two-party space is C^d (x) C^d with flat index j * d + k for
|j>|k>. One unitary generator drives everything: B = (U (x) 1) S,
where S swaps the parties and U is an M-th root of the cyclic shift
T. Repeated application of B to |0>|0> walks a closed orbit of
2 * M * d product states, and each orbit state factorizes into one
measurement-basis vector per party, so it carries a
(setting, outcome) label pair.

B hands the parties' vectors across, B (a (x) b) = (U b) (x) a, so
the orbit is built from its labels and checked one step at a time
through U on the d x d form of each state; the d^2 x d^2 matrix B is
formed only for the verification sweep and the tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import kron

__all__ = [
    "ProblemSpec",
    "MeasLabel",
    "OrbitEntry",
    "translation_matrix",
    "fourier_eigenbasis",
    "root_unitary",
    "measurement_bases",
    "swap_matrix",
    "step_operator",
    "label_step",
    "orbit",
    "condition_label_pairs",
]


@dataclass(frozen=True)
class ProblemSpec:
    """Instance size: measurement outcomes per setting, settings per party."""

    outcomes: int
    settings: int

    def __post_init__(self) -> None:
        for name in ("outcomes", "settings"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            # plain int, so that sizes such as d^(2M) cannot wrap around
            object.__setattr__(self, name, int(value))
        if self.outcomes < 2:
            raise ValueError("outcomes must be at least 2")
        if self.settings < 1:
            raise ValueError("settings must be at least 1")

    @property
    def orbit_length(self) -> int:
        return 2 * self.settings * self.outcomes

    @property
    def hilbert_dim(self) -> int:
        return self.outcomes**2


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


def translation_matrix(d: int) -> np.ndarray:
    """Cyclic shift T with T|j> = |j+1 mod d>."""
    t = np.zeros((d, d), dtype=complex)
    for j in range(d):
        t[(j + 1) % d, j] = 1.0
    return t


def fourier_eigenbasis(d: int) -> list[tuple[np.ndarray, float]]:
    """Eigenvectors of the cyclic shift with their eigenphases.

    Vector j has components exp(2*pi*i*j*k/d) / sqrt(d) and satisfies
    T w_j = exp(i * theta_j) w_j with theta_j in (-pi, pi]. The branch
    cut matters: the boundary phase is represented as +pi, never -pi,
    which pins down the root taken in :func:`root_unitary`.
    """
    out: list[tuple[np.ndarray, float]] = []
    ks = np.arange(d)
    for j in range(d):
        w = np.exp(2j * np.pi * j * ks / d) / np.sqrt(d)
        # theta_j = -2*pi*j/d reduced to (-pi, pi], decided in exact
        # integer arithmetic so the boundary never flips sign.
        if 2 * j < d:
            theta = -2.0 * np.pi * j / d
        elif 2 * j == d:
            theta = np.pi
        else:
            theta = 2.0 * np.pi * (d - j) / d
        out.append((w, float(theta)))
    return out


def root_unitary(spec: ProblemSpec) -> np.ndarray:
    """M-th root U of the cyclic shift, U = sum_j e^{i theta_j / M} |w_j><w_j|."""
    d = spec.outcomes
    u = np.zeros((d, d), dtype=complex)
    for w, theta in fourier_eigenbasis(d):
        u += np.exp(1j * theta / spec.settings) * np.outer(w, w.conj())
    return u


def measurement_bases(u: np.ndarray, settings: int) -> list[np.ndarray]:
    """Orthonormal basis per setting s < settings: the columns of U^s.

    ``u`` is the instance's root unitary (see :func:`root_unitary`);
    build it once and pass it to every caller that needs the bases.
    The powers are running products U^s = U^(s-1) U, settings - 1
    matrix products in all; U^0 is the identity and U^1 is ``u``
    itself.
    """
    bases = [np.eye(u.shape[0], dtype=complex), u]
    for _ in range(2, settings):
        bases.append(bases[-1] @ u)
    return bases[:settings]


def swap_matrix(d: int) -> np.ndarray:
    """Party exchange S with S|j>|k> = |k>|j>."""
    s = np.zeros((d * d, d * d), dtype=complex)
    for j in range(d):
        for k in range(d):
            s[k * d + j, j * d + k] = 1.0
    return s


def step_operator(spec: ProblemSpec) -> np.ndarray:
    """Orbit generator B = (U (x) 1) S. Satisfies B^2 = U (x) U."""
    return _step_from_root(root_unitary(spec))


def _step_from_root(u: np.ndarray) -> np.ndarray:
    """B = (U (x) 1) S from an already built root unitary U.

    B|j>|k> = (U|k>)|j>, so entry ((a, c), (j, k)) is U[a, k] when
    c = j and 0 otherwise: placed by index in O(d^4), without forming
    the dense product of :func:`_step_product`.
    """
    d = u.shape[0]
    b = np.zeros((d, d, d, d), dtype=complex)
    diag = np.arange(d)
    b[:, diag, diag, :] = u[:, None, :]
    return b.reshape(d * d, d * d)


def _step_product(u: np.ndarray) -> np.ndarray:
    """B as the dense product (U (x) 1) S, its definition; the
    verification sweep checks :func:`_step_from_root` against it."""
    d = u.shape[0]
    return kron(u, np.eye(d, dtype=complex)) @ swap_matrix(d)


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
    v_j the product of the two labels' basis columns (Alice's column of
    U^s (x) Bob's column of U^t). The orbit relation is checked one
    step at a time without forming B: a state X in d x d form steps to
    B X = U X^T. Step 0 must be |00>, and for 1 <= j <= n = 2*M*d,
    B v_(j-1) must be v_j, with v_n = |00> at the closing step, where
    the label walk must also be back at ((0,0), (0,0)). Any mismatch
    beyond 1e-10 means an index-convention bug and raises RuntimeError,
    naming the first bad step, rather than returning silently wrong
    terms.
    """
    d, n = spec.outcomes, spec.orbit_length
    u = root_unitary(spec)
    bases = np.array(measurement_bases(u, spec.settings))

    walk = [(MeasLabel(0, 0), MeasLabel(0, 0))]
    for _ in range(n - 1):
        walk.append(label_step(*walk[-1], spec))
    closing = label_step(*walk[-1], spec)
    flat = itertools.chain.from_iterable(itertools.chain.from_iterable(walk))
    # (step, party, setting/outcome)
    sides = np.fromiter(flat, dtype=np.intp, count=4 * n).reshape(n, 2, 2)

    # v_j = np.outer(alice_column, bob_column), one d x d slice per step
    alice_cols = bases[sides[:, 0, 0], :, sides[:, 0, 1]]
    bob_cols = bases[sides[:, 1, 0], :, sides[:, 1, 1]]
    states = alice_cols[:, :, None] * bob_cols[:, None, :]

    # row 0: v_0 - |00>; row j >= 1: B v_(j-1) - v_j, with v_n = |00>
    seed = np.zeros((d, d), dtype=complex)
    seed[0, 0] = 1.0
    diffs = np.empty((n + 1, d, d), dtype=complex)
    diffs[0] = states[0] - seed
    np.matmul(u, states.transpose(0, 2, 1), out=diffs[1:])
    diffs[1:n] -= states[1:]
    diffs[n] -= seed
    errs = np.abs(diffs).max(axis=(1, 2))
    bad = np.flatnonzero(errs > 1e-10).tolist()
    if closing != walk[0]:
        bad.append(n)
    if bad:
        step = bad[0]
        raise RuntimeError(
            f"orbit vector and label disagree at step {step} "
            f"(max deviation {float(errs[step]):.3e}): index-convention bug"
        )
    vectors = states.reshape(n, d * d)
    return [
        OrbitEntry(step, alice, bob, vector)
        for step, ((alice, bob), vector) in enumerate(zip(walk, vectors))
    ]


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
