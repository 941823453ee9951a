"""Cyclic step operator and its labeled orbit of product states.

The two-party space is C^d (x) C^d with flat index j * d + k for
|j>|k>. One unitary generator drives everything: B = (U (x) 1) S,
where S swaps the parties and U is an M-th root of the cyclic shift
T. Repeated application of B to |0>|0> walks a closed orbit of
2 * M * d product states, and each orbit state factorizes into one
measurement-basis vector per party, so it carries a
(setting, outcome) label pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import kron, mat_power

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


@dataclass(frozen=True)
class OrbitEntry:
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
    """
    return [mat_power(u, s) for s in range(settings)]


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

    Entry j holds B^j |00> together with the label pair obtained by
    iterating :func:`label_step` j times from ((0,0), (0,0)). The two
    descriptions are checked against each other at every step,
    including the closing step n = 2*M*d, where B^n |00> must be |00>
    again and the label walk must be back at ((0,0), (0,0)); any
    mismatch beyond 1e-10 means an index-convention bug and raises
    RuntimeError rather than returning silently wrong terms.
    """
    d, n = spec.outcomes, spec.orbit_length
    u = root_unitary(spec)
    bases = np.array(measurement_bases(u, spec.settings))
    b = _step_from_root(u)

    labels = [(MeasLabel(0, 0), MeasLabel(0, 0))]
    for _ in range(n - 1):
        labels.append(label_step(*labels[-1], spec))
    closing = label_step(*labels[-1], spec)
    # row n is the closing step, checked against the seed's label
    vecs = np.zeros((n + 1, d * d), dtype=complex)
    vecs[0, 0] = 1.0
    for step in range(1, n + 1):
        vecs[step] = b @ vecs[step - 1]

    # Product vector of each step's basis columns, the same elementwise
    # products as np.outer(alice_column, bob_column).ravel().
    sides = np.array(labels + [labels[0]])  # (step, party, setting/outcome)
    alice_cols = bases[sides[:, 0, 0], :, sides[:, 0, 1]]
    bob_cols = bases[sides[:, 1, 0], :, sides[:, 1, 1]]
    expected = (alice_cols[:, :, None] * bob_cols[:, None, :]).reshape(n + 1, d * d)
    errs = np.abs(vecs - expected).max(axis=1)
    bad = np.flatnonzero(errs > 1e-10).tolist()
    if closing != labels[0]:
        bad.append(n)
    if bad:
        step = bad[0]
        raise RuntimeError(
            f"orbit vector and label disagree at step {step} "
            f"(max deviation {float(errs[step]):.3e}): index-convention bug"
        )
    return [
        OrbitEntry(step, alice, bob, vecs[step])
        for step, (alice, bob) in enumerate(labels)
    ]


def condition_label_pairs(spec: ProblemSpec) -> set[tuple[MeasLabel, MeasLabel]]:
    """Label pairs the orbit must consist of, listed directly.

    Three families: equal settings with equal outcomes; Alice one
    setting ahead with equal outcomes; and the wrap-around where Alice
    is back at setting 0 with the outcome advanced by one (mod d)
    while Bob sits at the last setting.
    """
    d, m = spec.outcomes, spec.settings
    pairs: set[tuple[MeasLabel, MeasLabel]] = set()
    for k in range(d):
        for s in range(m):
            pairs.add((MeasLabel(s, k), MeasLabel(s, k)))
        for s in range(m - 1):
            pairs.add((MeasLabel(s + 1, k), MeasLabel(s, k)))
        pairs.add((MeasLabel(0, (k + 1) % d), MeasLabel(m - 1, k)))
    return pairs
