"""Quantum and classical bounds of the orbit-generated Bell expression.

The Bell expression is the sum, over the 2*M*d orbit terms, of the
probabilities of seeing that term's outcome pair at that term's
setting pair. Its quantum value on a shared state psi is <psi|A|psi>
with A the sum of orbit projectors, so the quantum bound is the top
eigenvalue of A. Two independent routes compute it:

* numeric: LAPACK ``eigvalsh`` on the dense A. It is independent of
  the analytic route, which uses no eigensolver at all;
* analytic: the eigenbasis of the step operator B is known in closed
  form, and A's eigenvalues are 2*M*d times the seed weight each
  degenerate eigenvalue group of B captures.

The classical bound is the exact maximum of the same expression over
deterministic local strategies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import hermiticity_defect
from .orbit import MeasLabel, OrbitEntry, ProblemSpec, fourier_eigenbasis, orbit

__all__ = [
    "EigenPair",
    "DeterministicStrategy",
    "BellInequality",
    "InstanceTooLarge",
    "STRATEGY_GUARD",
    "MEMORY_CEILING",
    "root_of_unity_index",
    "accumulate_A",
    "quantum_bound_numeric",
    "b_eigensystem",
    "quantum_bound_analytic",
    "classical_bound",
    "build_inequality",
]

# Deterministic strategy pairs are capped at this count; larger
# instances are rejected instead of silently running for hours.
STRATEGY_GUARD = 10**8

# Bytes the dense d^2 x d^2 complex projector sum may take (16 d^4);
# 256 MiB admits d <= 64.
MEMORY_CEILING = 256 * 2**20


class InstanceTooLarge(Exception):
    """Instance beyond the enumeration guard or the memory ceiling."""


def _check_memory_ceiling(outcomes: int) -> None:
    """Raise InstanceTooLarge when the dense projector sum at this
    outcome count would exceed MEMORY_CEILING."""
    needed = 16 * outcomes**4
    if needed > MEMORY_CEILING:
        raise InstanceTooLarge(
            f"instance too large: the dense projector sum at {outcomes} "
            f"outcomes needs {needed / 2**20:.0f} MiB, over the memory "
            f"ceiling of {MEMORY_CEILING // 2**20} MiB"
        )


def _check_guards(spec: ProblemSpec) -> None:
    """Raise InstanceTooLarge when the instance exceeds the memory
    ceiling or d^(2M) exceeds STRATEGY_GUARD."""
    _check_memory_ceiling(spec.outcomes)
    d, m = spec.outcomes, spec.settings
    if d ** (2 * m) > STRATEGY_GUARD:
        raise InstanceTooLarge(
            f"instance too large: {d}^{2 * m} deterministic strategies "
            f"exceed the enumeration guard of {STRATEGY_GUARD:.0e}"
        )


@dataclass(frozen=True)
class EigenPair:
    """Eigenvector of the step operator; eigenvalue is the root of unity
    exp(2*pi*i*root_index / (2*M*d))."""

    root_index: int
    vector: np.ndarray


@dataclass(frozen=True)
class DeterministicStrategy:
    """Fixed outcome per setting for each party."""

    alice_map: tuple[int, ...]
    bob_map: tuple[int, ...]


@dataclass(frozen=True)
class BellInequality:
    """Everything derived for one instance: terms, bounds, maximizer."""

    spec: ProblemSpec
    terms: tuple[tuple[MeasLabel, MeasLabel], ...]
    classical_bound: int
    quantum_bound: float
    optimal_state: np.ndarray
    per_term_probs: np.ndarray
    witness: DeterministicStrategy


def root_of_unity_index(value: complex, order: int, tol: float = 1e-9) -> int:
    """Snap a unit-modulus value to its nearest order-th root of unity.

    Raises RuntimeError when the snap error exceeds ``tol``; that only
    happens on a branch-convention bug, never from roundoff.
    """
    idx = int(round(float(np.angle(value)) * order / (2.0 * np.pi))) % order
    err = abs(value - np.exp(2j * np.pi * idx / order))
    if err > tol:
        raise RuntimeError(
            f"{value!r} is not an order-{order} root of unity "
            f"(snap error {err:.3e} exceeds {tol:.1e})"
        )
    return idx


def accumulate_A(orbit_entries: list[OrbitEntry]) -> np.ndarray:
    """Sum of projectors onto the orbit states, as one product V^T conj(V)
    over the matrix V whose rows are the orbit vectors."""
    v = np.array([entry.vector for entry in orbit_entries])
    return v.T @ v.conj()


def quantum_bound_numeric(a: np.ndarray) -> float:
    """Top eigenvalue of the projector sum, by LAPACK ``eigvalsh``.

    Raises ValueError if ``a`` is not square or not Hermitian within
    1e-12.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    defect = hermiticity_defect(a)
    if defect > 1e-12:
        raise ValueError(
            f"matrix is not Hermitian: max asymmetry {defect:.3e} "
            "exceeds tolerance 1e-12"
        )
    return float(np.linalg.eigvalsh(a)[-1])


def b_eigensystem(spec: ProblemSpec) -> list[EigenPair]:
    """Closed-form eigensystem of the step operator B.

    B permutes the products of shift eigenvectors: w_j w_j is an
    eigenvector with U's eigenvalue lambda_j, and each unordered pair
    j < k spans a 2-dimensional block whose eigenvalues are the two
    square roots +/- sqrt(lambda_j lambda_k). All eigenvalues are
    2*M*d-th roots of unity; they are kept as exact integer indices so
    that degeneracy detection never depends on floating-point
    clustering. The principal branch (half the phase of the product
    taken in (-pi, pi], boundary at +pi) fixes the signs reproducibly.
    """
    d = spec.outcomes
    order = spec.orbit_length
    half = order // 2  # = M * d
    basis = fourier_eigenbasis(d)
    lambdas = [np.exp(1j * theta / spec.settings) for _, theta in basis]
    indices = [root_of_unity_index(lam, order) for lam in lambdas]

    pairs: list[EigenPair] = []
    for j in range(d):
        w = basis[j][0]
        pairs.append(EigenPair(indices[j], np.outer(w, w).ravel()))
    for j in range(d):
        for k in range(j + 1, d):
            total = (indices[j] + indices[k]) % order
            if total % 2:
                raise RuntimeError(
                    "odd root-index sum in a two-dimensional block: "
                    "branch arithmetic bug"
                )
            principal = total if total <= half else total - order
            plus = (principal // 2) % order
            minus = (plus + half) % order
            mu = np.exp(2j * np.pi * plus / order)
            ratio = mu / lambdas[j]
            wj, wk = basis[j][0], basis[k][0]
            direct = np.outer(wj, wk).ravel()
            swapped = np.outer(wk, wj).ravel()
            pairs.append(EigenPair(plus, (direct + ratio * swapped) / np.sqrt(2)))
            pairs.append(EigenPair(minus, (direct - ratio * swapped) / np.sqrt(2)))
    return pairs


def quantum_bound_analytic(
    spec: ProblemSpec, orbit_entries: list[OrbitEntry]
) -> tuple[float, np.ndarray]:
    """Quantum bound from the closed-form eigenstructure of B.

    A commutes with nothing as useful as B itself: grouping B's
    eigenvectors by (exact) eigenvalue index, the seed state's weight
    in each group gives one eigenvalue of A, namely 2*M*d times that
    weight, with eigenvector the (normalized) projection of the seed
    onto the group. Returns the largest such value with its state;
    ties go to the smallest root index. Groups the seed misses
    entirely contribute the value 0 and no state.
    """
    return _bound_from_eigensystem(spec, orbit_entries, b_eigensystem(spec))


def _bound_from_eigensystem(
    spec: ProblemSpec, orbit_entries: list[OrbitEntry], eigenpairs: list[EigenPair]
) -> tuple[float, np.ndarray]:
    """:func:`quantum_bound_analytic` from an already built
    ``b_eigensystem(spec)``, for callers that check the eigenpairs too."""
    seed = orbit_entries[0].vector
    length = spec.orbit_length

    groups: dict[int, list[EigenPair]] = {}
    for pair in eigenpairs:
        groups.setdefault(pair.root_index, []).append(pair)

    best_value = -1.0
    best_state: np.ndarray | None = None
    for idx in sorted(groups):
        members = groups[idx]
        coeffs = [np.vdot(p.vector, seed) for p in members]
        weight = float(sum(abs(c) ** 2 for c in coeffs))
        value = 0.0 if weight < 1e-15 else length * weight
        if value > best_value + 1e-12:
            best_value = value
            if weight < 1e-15:
                best_state = None
            else:
                x = sum(c * p.vector for c, p in zip(coeffs, members))
                best_state = x / np.linalg.norm(x)
    assert best_state is not None  # seed has unit total weight
    return best_value, best_state


def _best_reply(
    alice_map: tuple[int, ...], terms: list[tuple[MeasLabel, MeasLabel]], d: int, m: int
) -> tuple[int, tuple[int, ...]]:
    """Bob's best reply to a fixed Alice map and the terms it satisfies.

    Per Bob setting, the outcome that hits the most terms; ties go to
    the smallest outcome.
    """
    hits = [[0] * d for _ in range(m)]
    for a, b in terms:
        if alice_map[a.setting] == a.outcome:
            hits[b.setting][b.outcome] += 1
    total = 0
    bob_map = []
    for s in range(m):
        row = hits[s]
        pick = max(range(d), key=row.__getitem__)  # first max: smallest outcome
        bob_map.append(pick)
        total += row[pick]
    return total, tuple(bob_map)


def classical_bound(
    orbit_entries: list[OrbitEntry], spec: ProblemSpec
) -> tuple[int, DeterministicStrategy]:
    """Exact maximum of the Bell expression over deterministic strategies.

    Equivalent to scanning all d^(2M) strategy pairs: for a fixed
    Alice assignment the terms split by Bob's setting, so Bob's best
    reply is a per-setting argmax and needs no enumeration. The scan
    over Alice's d^M maps factorises too: Bob's best score at setting
    t depends only on Alice's outcomes at the settings S_t that share
    a term with t (on the orbit, t and t+1 mod M). So each Bob setting
    gets a small hit table indexed by Bob's outcome and Alice's
    outcomes on S_t, its maximum over Bob's outcome is broadcast onto
    the (d,)*M table of map totals, and C-order index i of that table
    is the map with outcome i // d^(M-1-s) % d at setting s, so index
    order is lexicographic order. Ties are broken toward the
    lexicographically smallest (alice_map, bob_map) table, identical
    to what the naive double scan would return.

    Memory: the d^M totals plus one table of d^(1+|S_t|) entries at a
    time, d^3 on the orbit and at most d^(M+1) for any term list.

    Raises InstanceTooLarge when d^(2M) exceeds STRATEGY_GUARD or the
    instance exceeds MEMORY_CEILING.
    """
    _check_guards(spec)
    d, m = spec.outcomes, spec.settings
    terms = [(e.alice, e.bob) for e in orbit_entries]

    by_bob: dict[int, list[tuple[MeasLabel, MeasLabel]]] = {}
    for a, b in terms:
        by_bob.setdefault(b.setting, []).append((a, b))
    totals = np.zeros((d,) * m, dtype=np.int64)
    for group in by_bob.values():
        linked = sorted({a.setting for a, _ in group})
        hits = np.zeros((d,) * (1 + len(linked)), dtype=np.int64)
        for a, b in group:
            # indicator of Alice's outcome, broadcast along the other axes
            index = [b.outcome] + [slice(None)] * len(linked)
            index[1 + linked.index(a.setting)] = a.outcome
            hits[tuple(index)] += 1
        shape = [1] * m
        for s in linked:
            shape[s] = d
        totals += hits.max(axis=0).reshape(shape)

    best = int(totals.argmax())  # first max in C order: lexicographically smallest map
    alice_map = tuple(best // d ** (m - 1 - s) % d for s in range(m))
    value, bob_map = _best_reply(alice_map, terms, d, m)
    return value, DeterministicStrategy(alice_map, bob_map)


def build_inequality(spec: ProblemSpec) -> BellInequality:
    """Assemble the Bell inequality for one instance.

    Computes the quantum bound along both routes and insists they
    agree to 1e-9; the analytic value and state are the ones reported.

    Raises InstanceTooLarge when d^(2M) exceeds STRATEGY_GUARD or the
    dense projector sum exceeds MEMORY_CEILING, before any orbit or
    matrix is built.
    """
    _check_guards(spec)
    entries = orbit(spec)
    a = accumulate_A(entries)
    numeric = quantum_bound_numeric(a)
    analytic, state = quantum_bound_analytic(spec, entries)
    if abs(numeric - analytic) > 1e-9:
        raise RuntimeError(
            f"quantum bound routes disagree: numeric {numeric!r} vs "
            f"analytic {analytic!r}"
        )
    c_value, witness = classical_bound(entries, spec)
    probs = np.array(
        [abs(np.vdot(state, e.vector)) ** 2 for e in entries], dtype=float
    )
    return BellInequality(
        spec=spec,
        terms=tuple((e.alice, e.bob) for e in entries),
        classical_bound=c_value,
        quantum_bound=analytic,
        optimal_state=state,
        per_term_probs=probs,
        witness=witness,
    )
