"""Quantum and classical bounds of the orbit-generated Bell expression.

The Bell expression is the sum, over the n = 2*M*d orbit terms, of the
probabilities of seeing that term's outcome pair at that term's
setting pair. Its quantum value on a shared state psi is <psi|A|psi>
with A the sum of orbit projectors, so the quantum bound is the top
eigenvalue of A. Three routes compute it, and each runs in one place:

* root index (:func:`quantum_bound_analytic`), the reported value, on
  the hot path. B's eigenbasis is known in closed form and A commutes
  with B, so A's eigenvalues are n times the seed weight that each
  degenerate eigenvalue group of B captures. The weights follow from
  integer root indices alone, so only the top group's O(d) vectors
  are ever built and no eigensolver runs. The Fourier rows, U's
  eigenvalues and their exact root indices come from the instance's
  root table (``orbit._root_table``), the one the orbit was built
  from: :func:`_inequality` builds it once and passes it down;
* Gram spectrum (:func:`quantum_bound_gram`), ``analyze``'s
  cross-check, to 1e-9. A = V^T conj(V) for the matrix V whose rows
  are the orbit vectors v_j = B^j v_0, and the n x n Gram matrix
  G = conj(V) V^T has the same nonzero spectrum. Because B is unitary
  with period n, G_jk = <v_0|B^(k-j)|v_0> depends only on k - j mod n:
  G is circulant, and its eigenvalues are the discrete Fourier
  transform of its first row, with no eigensolver either. Each v_j is
  the product a_j (x) b_j of the orbit's two factor arrays, so that
  row is read from the factors, without forming V;
* dense (``linalg.quantum_bound_numeric``): LAPACK ``eigvalsh`` on A
  itself, built by ``linalg.accumulate_A``. It is independent of both
  routes above and runs only in ``verify`` and the tests; this module
  imports nothing from ``linalg``.

The classical bound is the exact maximum of the same expression over
deterministic local strategies. Two routes compute it:

* chained Bell (:func:`_chained_bell_bound`), the reported value, on
  the hot path. The orbit's terms form a chained-Bell cycle of 2M
  setting pairs (Braunstein-Caves 1990; Barrett-Kent-Pironio 2006), so
  C_s = 2M - 1 with the all-zero strategy as witness. It checks the
  term set and counts the witness's hits, O(2*M*d) work;
* enumeration (:func:`classical_bound`): the maximum over all d^M
  Alice maps, each with Bob's best reply. It makes no assumption on
  the terms and runs only in ``verify`` and the tests, which compare
  its value and witness with the chained-Bell route's.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .orbit import (
    MeasLabel,
    ProblemSpec,
    _orbit,
    _root_table,
    _RootTable,
    _states,
    condition_label_pairs,
    # bound here as orbitbell.bounds.orbit, which the benchmark's tracer
    # tests read; the hot path builds the orbit through _orbit
    orbit,  # noqa: F401
)

__all__ = [
    "DeterministicStrategy",
    "BellInequality",
    "InstanceTooLarge",
    "STRATEGY_GUARD",
    "MEMORY_CEILING",
    "quantum_bound_analytic",
    "quantum_bound_gram",
    "classical_bound",
    "build_inequality",
]

# Deterministic strategy pairs are capped at this count; larger
# instances are rejected instead of silently running for hours. The
# enumeration runs only in verify and the tests; analyze keeps the
# guard so that every analyzed instance can be cross-checked.
STRATEGY_GUARD = 10**8

# Bytes one dense d^2 x d^2 complex matrix may take (16 d^4); 256 MiB
# admits d <= 64. Such matrices are verify's cross-checks, several per
# cell: the step operator B, the dense product (U x 1) S with its two
# factors, the projector sum A with eigvalsh's workspace, and the d^2
# closed-form eigenvectors. analyze builds none of them; it keeps the
# same limit so that every analyzed instance can be cross-checked. It
# holds the orbit as two (2*M*d, d) factor arrays, and its largest
# array is the 2*M*d orbit states of 16 d^2 bytes each, formed once
# for the per-term probabilities: ru_maxrss of a whole analyze
# --format json is 33 MiB at (d, M) = (32, 2), 35 MiB at (48, 1),
# 41 MiB at (64, 1) and 50 MiB at (64, 2) (Python 3.11, numpy 2.4,
# Linux). verify's grid is unbounded in M, so it also holds its
# largest cell's orbit arrays to this ceiling (see
# _check_orbit_ceiling).
MEMORY_CEILING = 256 * 2**20

# How far two routes to the same quantum bound may disagree: the
# root-index value against the Gram spectrum here, and against LAPACK
# eigvalsh in verify, which imports it.
_ROUTE_TOL = 1e-9


class InstanceTooLarge(Exception):
    """Instance beyond the enumeration guard or the memory ceiling."""


def _check_memory_ceiling(outcomes: int) -> None:
    """Raise InstanceTooLarge when one dense d^2 x d^2 cross-check
    matrix at this outcome count would exceed MEMORY_CEILING."""
    needed = 16 * outcomes**4
    if needed > MEMORY_CEILING:
        dim = outcomes**2
        raise InstanceTooLarge(
            f"instance too large: verify's dense {dim} x {dim} cross-check "
            f"matrices at {outcomes} outcomes need {needed / 2**20:.0f} MiB "
            f"each, over the memory ceiling of {MEMORY_CEILING // 2**20} MiB "
            "(analyze keeps the same limit, so that every analyzed instance "
            "can be cross-checked)"
        )


def _check_orbit_ceiling(outcomes: int, settings: int) -> None:
    """Raise InstanceTooLarge when the orbit arrays of instance
    (d, M) = (outcomes, settings) would exceed MEMORY_CEILING.

    Over its n = 2*M*d steps, verify's dense stepping check holds the
    orbit states, their product with the dense step operator and that
    product's magnitudes (40 d^2 bytes per step), and the Gram spectrum
    an n x n integer index table with the phases it looks up
    (24 n^2 bytes). Plain int arithmetic, so an absurd M is rejected
    without allocating.
    """
    steps = 2 * settings * outcomes
    needed = 40 * outcomes**2 * steps + 24 * steps**2
    if needed > MEMORY_CEILING:
        raise InstanceTooLarge(
            f"instance too large: the orbit at {outcomes} outcomes and "
            f"{settings} settings has {steps} steps, whose states, step "
            f"residuals and Gram phase table need {needed / 2**20:.0f} MiB, "
            f"over the memory ceiling of {MEMORY_CEILING // 2**20} MiB"
        )


def _over_strategy_guard(outcomes: int, settings: int) -> bool:
    """Whether d^(2M) strategy pairs exceed STRATEGY_GUARD.

    Since d >= 2, d^(2M) >= 2^(2M), which exceeds the guard once 2M
    reaches the guard's bit length (M >= 14), so an absurd M is decided
    without forming the power.
    """
    if 2 * settings >= STRATEGY_GUARD.bit_length():
        return True
    return outcomes ** (2 * settings) > STRATEGY_GUARD


def _check_guards(spec: ProblemSpec) -> None:
    """Raise InstanceTooLarge when the instance exceeds the memory
    ceiling or d^(2M) exceeds STRATEGY_GUARD."""
    _check_memory_ceiling(spec.outcomes)
    d, m = spec.outcomes, spec.settings
    if _over_strategy_guard(d, m):
        raise InstanceTooLarge(
            f"instance too large: {d}^{2 * m} deterministic strategies "
            f"exceed the enumeration guard of {STRATEGY_GUARD:.0e}"
        )


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


def _block_roots(idx_j: int, idx_k: int, order: int) -> tuple[int, int]:
    """Root indices (plus, minus) of the 2-dimensional block j < k:
    the two square roots of lambda_j lambda_k, plus on the principal
    branch (half the phase of the product taken in (-pi, pi], boundary
    at +pi)."""
    half = order // 2  # = M * d
    total = (idx_j + idx_k) % order
    if total % 2:
        raise RuntimeError(
            "odd root-index sum in a two-dimensional block: "
            "branch arithmetic bug"
        )
    principal = total if total <= half else total - order
    plus = (principal // 2) % order
    return plus, (plus + half) % order


def _block_vectors(
    wj: np.ndarray, wk: np.ndarray, lam_j: complex, plus: int, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors (plus, minus) of the block j < k:
    (w_j w_k +/- (mu / lambda_j) w_k w_j) / sqrt(2) with mu the plus root."""
    mu = np.exp(2j * np.pi * plus / order)
    ratio = mu / lam_j
    direct = np.outer(wj, wk).ravel()
    swapped = np.outer(wk, wj).ravel()
    plus_vector = (direct + ratio * swapped) / np.sqrt(2)
    minus_vector = (direct - ratio * swapped) / np.sqrt(2)
    return plus_vector, minus_vector


def quantum_bound_analytic(spec: ProblemSpec) -> tuple[float, np.ndarray]:
    """Quantum bound from the closed-form eigenstructure of B.

    A commutes with B, so grouping B's eigenvectors by (exact)
    eigenvalue index, the seed state's weight in each group gives one
    eigenvalue of A, namely 2*M*d times that weight, with eigenvector
    the (normalized) projection of the seed onto the group. Returns the
    largest such value with its state; ties go to the smallest root
    index (groups in ascending index, a later group wins only above
    the running best + 1e-12).

    The group is picked from root indices alone: the seed |00> has
    weight 1/d^2 on each diagonal vector w_j w_j and (1 +/- cos phi)/d^2
    on the plus/minus vectors of block j < k, phi = 2*pi*(plus - idx_j)
    / (2*M*d). Only the winning group's O(d) vectors are built, in
    ``linalg.b_eigensystem``'s order and arithmetic, so value and state
    are those of grouping the whole eigensystem. The weights only pick
    the group; value and state come from the members' coefficients.
    """
    return _analytic_bound(spec, _root_table(spec))


def _analytic_bound(spec: ProblemSpec, table: _RootTable) -> tuple[float, np.ndarray]:
    """:func:`quantum_bound_analytic` from the instance's root table."""
    d, order = spec.outcomes, spec.orbit_length
    ws, lambdas, indices = table.rows, table.lambdas, table.indices

    weights: dict[int, float] = {}
    for idx in indices:
        weights[idx] = weights.get(idx, 0.0) + 1.0 / d**2
    blocks = []
    for j in range(d):
        for k in range(j + 1, d):
            plus, minus = _block_roots(indices[j], indices[k], order)
            cos_phi = math.cos(2.0 * math.pi * (plus - indices[j]) / order)
            weights[plus] = weights.get(plus, 0.0) + (1.0 + cos_phi) / d**2
            weights[minus] = weights.get(minus, 0.0) + (1.0 - cos_phi) / d**2
            blocks.append((j, k, plus, minus))

    best_value, top = -1.0, -1
    for idx in sorted(weights):
        value = 0.0 if weights[idx] < 1e-15 else order * weights[idx]
        if value > best_value + 1e-12:
            best_value, top = value, idx

    members = [np.outer(ws[j], ws[j]).ravel() for j in range(d) if indices[j] == top]
    for j, k, plus, minus in blocks:
        if top in (plus, minus):
            vp, vm = _block_vectors(ws[j], ws[k], lambdas[j], plus, order)
            members.append(vp if top == plus else vm)

    coeffs = [v[0].conjugate() for v in members]  # <v|00>
    weight = float(sum(abs(c) ** 2 for c in coeffs))
    x = sum(c * v for c, v in zip(coeffs, members))
    return order * weight, x / np.linalg.norm(x)


def quantum_bound_gram(alice: np.ndarray, bob: np.ndarray) -> float:
    """Quantum bound from the spectrum of the orbit's Gram matrix.

    With v_j = B^j v_0 and B unitary of period n = 2*M*d, the Gram
    matrix G_jk = <v_j|v_k> = <v_0|B^(k-j)|v_0> is circulant with first
    row g_r = <v_0|v_r>, so its eigenvalues are sum_r g_r w^(q r),
    w = exp(2*pi*i/n). G = conj(V) V^T and A = V^T conj(V) share their
    nonzero spectrum, so the largest of these is A's top eigenvalue.
    The states are products, v_r = a_r (x) b_r, so the first row is
    g_r = <a_0|a_r> <b_0|b_r>, two products of the (n, d) factor arrays
    ``alice`` and ``bob``, and the DFT one n x n product with phases
    looked up by the integer index (q r) mod n.

    Raises RuntimeError if an eigenvalue has an imaginary part above
    1e-9, or a NaN one: the first row describes a Hermitian circulant,
    g_(n-r) = conj(g_r), only if the orbit closes after n steps.
    """
    n = len(alice)
    g = (alice @ alice[0].conj()) * (bob @ bob[0].conj())
    ramp = np.arange(n)
    roots = np.exp(2j * np.pi * ramp / n)
    spectrum = roots[np.outer(ramp, ramp) % n] @ g
    drift = float(np.abs(spectrum.imag).max())
    if not drift <= 1e-9:
        raise RuntimeError(
            f"orbit Gram spectrum is not real: imaginary part {drift:.3e} "
            "exceeds 1e-9"
        )
    return float(spectrum.real.max())


def _best_reply(
    alice_map: tuple[int, ...], terms: Sequence[tuple[MeasLabel, MeasLabel]], d: int, m: int
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
    spec: ProblemSpec, terms: Sequence[tuple[MeasLabel, MeasLabel]]
) -> tuple[int, DeterministicStrategy]:
    """Exact maximum over deterministic strategies of the Bell expression
    whose terms are the label pairs ``terms`` (such as
    ``BellInequality.terms``).

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


def _chained_bell_bound(
    spec: ProblemSpec, terms: Sequence[tuple[MeasLabel, MeasLabel]]
) -> tuple[int, DeterministicStrategy]:
    """Classical bound of the orbit's terms: 2M - 1, with the all-zero
    strategy as witness, in O(2*M*d) work.

    The terms must be the label pairs of :func:`condition_label_pairs`,
    each once. Then, with a_s and b_s the outcomes a deterministic
    strategy gives at setting s:

    1. For M >= 2 the terms sit on 2M setting pairs, and each pair's
       terms are the graph of a bijection (b = a at (s, s) and (s+1, s),
       a = b + 1 mod d at the wrap (0, M-1)): a strategy meets at most
       one term per pair.
    2. Meeting all 2M pairs would chain a_0 = b_0 = a_1 = ... = b_(M-1)
       and close with a_0 = b_(M-1) + 1, forcing a_0 = a_0 + 1 mod d.
    3. For M = 1 there is only one pair, (0, 0), and no strategy meets
       both a = b and a = b + 1 there, since d >= 2.
    4. The all-zero strategy meets every pair but the wrap, 2M - 1
       terms, and it is the lexicographically smallest table, to which
       :func:`classical_bound`'s enumeration breaks ties: both routes
       return the same value and witness.

    The term set and the witness's hit count are checked, not assumed;
    either failing raises RuntimeError.
    """
    m = spec.settings
    families = condition_label_pairs(spec)
    if len(terms) != len(families) or set(terms) != families:
        raise RuntimeError(
            f"chained-Bell route: the {len(terms)} orbit terms are not the "
            f"{len(families)} label pairs of the three chained-Bell families"
        )
    witness = DeterministicStrategy((0,) * m, (0,) * m)
    hits = sum(
        1
        for a, b in terms
        if witness.alice_map[a.setting] == a.outcome
        and witness.bob_map[b.setting] == b.outcome
    )
    if hits != 2 * m - 1:
        raise RuntimeError(
            f"chained-Bell route: the all-zero strategy meets {hits} terms, "
            f"not 2M - 1 = {2 * m - 1}"
        )
    return 2 * m - 1, witness


def build_inequality(spec: ProblemSpec) -> BellInequality:
    """Assemble the Bell inequality for one instance: check the guards,
    then run :func:`_inequality`.

    Raises InstanceTooLarge when d^(2M) exceeds STRATEGY_GUARD or a
    dense d^2 x d^2 cross-check matrix would exceed MEMORY_CEILING,
    before any orbit or matrix is built, so that verify's cross-checks
    reach every analyzed instance.
    """
    _check_guards(spec)
    return _inequality(spec).inequality


class _Instance(NamedTuple):
    """One assembled instance, the objects it was built from and the
    value of its Gram cross-check."""

    inequality: BellInequality
    table: _RootTable
    alice: np.ndarray  # (n, d); orbit state j is alice[j] (x) bob[j]
    bob: np.ndarray
    gram: float  # quantum_bound_gram(alice, bob)


def _inequality(spec: ProblemSpec) -> _Instance:
    """The one assembly of an instance, for :func:`build_inequality`,
    ``analyze`` and each ``verify`` cell.

    Builds the instance's root table once and reads everything from it:
    the orbit, and the quantum bound by the root-index route and by the
    orbit's Gram spectrum, which must agree to 1e-9 (a NaN on either
    route is a disagreement); the root-index
    value and state are the ones reported. The classical bound and
    witness come from the chained-Bell route; the d^M enumeration is
    verify's. No d^2 x d^2 matrix is built: the orbit comes from its
    labels and is checked through U on its two (n, d) factor arrays
    (see :func:`orbit`), which the Gram route reads; the per-term
    probabilities are one product of the (n, d^2) states with the
    conjugate state.

    Checks no guard: :func:`build_inequality` and ``analyze`` check
    them first, and ``verify`` bounds its whole grid before its first
    cell, then assembles cells beyond the enumeration guard too.
    """
    table = _root_table(spec)
    terms, alice, bob = _orbit(spec, table)
    gram = quantum_bound_gram(alice, bob)
    analytic, state = _analytic_bound(spec, table)
    if not abs(gram - analytic) <= _ROUTE_TOL:
        raise RuntimeError(
            f"quantum bound routes disagree: Gram spectrum {gram!r} vs "
            f"analytic {analytic!r}"
        )
    c_value, witness = _chained_bell_bound(spec, terms)
    probs = np.abs(_states(alice, bob) @ state.conj()) ** 2
    inequality = BellInequality(
        spec=spec,
        terms=terms,
        classical_bound=c_value,
        quantum_bound=analytic,
        optimal_state=state,
        per_term_probs=probs,
        witness=witness,
    )
    return _Instance(inequality, table, alice, bob, gram)
