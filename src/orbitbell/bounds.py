"""Quantum and classical bounds of the orbit-generated Bell expression.

The Bell expression is the sum, over the n = 2*M*d orbit terms, of the
probabilities of seeing that term's outcome pair at that term's
setting pair. Its quantum value on a shared state psi is <psi|A|psi>
with A the sum of orbit projectors, so the quantum bound is the top
eigenvalue of A. Three routes compute it, and each runs in one place:

* root index (:func:`quantum_bound_analytic`), the reported value, on
  the hot path. A commutes with B, so the seed's projection P_mu|00>
  onto each eigenspace of B is an eigenvector of A, with eigenvalue
  n ||P_mu|00>||^2. Write w_a for the shift's Fourier rows, U w_a =
  lambda_a w_a, and take exact integer root indices, lambda_a =
  exp(2*pi*i*r_a/n) and mu = exp(2*pi*i*rho/n). Since
  B (w_a (x) w_b) = lambda_b w_b (x) w_a, B^2 is lambda_a lambda_b on
  w_a (x) w_b, so on the pairs with lambda_a lambda_b = mu^2 the
  projector onto eigenvalue mu is P_mu = (1 + B/mu)/2. With
  |00> = (1/d) sum_ab w_a (x) w_b this gives

      P_mu|00> = (1/2d) sum over lambda_a lambda_b = mu^2
                 of (1 + lambda_a/mu) w_a (x) w_b,

  and ||P_mu|00>||^2 sums (1 + cos(2*pi*(r_a - rho)/n)) / (2 d^2) over
  those ordered pairs, the group of rho: r_a + r_b = 2 rho mod n.
  Which group wins is proved, so none is scanned:

  - The root indices, read as signed integers s_a = -2a for 2a < d,
    d for 2a = d and 2(d - a) for 2a > d, are the even integers of
    (-d, d]: a step-2 progression of length d, symmetric about
    sigma_0 = 0 at odd d and 1 at even d. As s_a = -2a mod 2d, the
    group of rho pairs each a with exactly one b = -a - rho mod d.
  - At M >= 2, n = 2Md >= 4d, so s_a + s_b never wraps mod n: pair
    (a, b) lies in the groups sigma = (s_a + s_b)/2 and sigma + n/2,
    with weights (1 +/- cos(pi delta/(Md))) / (2 d^2),
    delta = (s_a - s_b)/2. As |delta| <= d - 1, the angle is below
    pi/M <= pi/2 and the cosine positive: each + group beats its -
    twin, and the - groups, near n/2, meet no + group.
  - Group sigma holds L = d - |sigma - sigma_0| pairs, whose delta
    form a step-2 progression of length L symmetric about 0. By the
    Dirichlet sum sum_k cos((2k - L + 1) c) = sin(Lc)/sin(c), with
    c = pi/(Md), its weight is W(L) = L + sin(Lc)/sin(c) in units of
    1/(2 d^2), and W(L+1) - W(L) = 1 + cos((L + 1/2) c)/cos(c/2) > 0
    for L < d, where the angle stays below pi/2. So W increases
    strictly, and sigma_0, the one group with L = d, wins strictly:
    rho = sigma_0 = 1 - d mod 2, and
    Q_s = n W(d) / (2 d^2) = M (1 + sin(pi/M) / (d sin(pi/(dM)))),
    Wehner's M (1 + cos(pi/2M)) at d = 2.
  - At M = 1, U = T and the 2d orbit states are distinct
    computational basis states, so A is a projector: every non-empty
    group has value 1. Group rho = 0, the smallest root index, is
    taken.

  So Q_s is n (d + sum_a cos(2*pi*(r_a - rho)/n)) / (2 d^2), and the
  state is d Fourier coefficients on the pairing: amplitude (X, Y) of
  P_mu|00> is f[(X - Y) mod d] exp(-2*pi*i*rho*Y/d) / (2d), with
  f = ifft(1 + lambda_a/mu) over a. No eigensolver runs and no group is
  scanned; a wrong rho fails the Gram cross-check below, and
  ``verify``'s ``eigvalsh``. The root indices come from the instance's
  root table (``orbit._root_table``), the one the orbit was built
  from: :func:`_inequality` builds it once and passes it down;
* Gram spectrum (:func:`quantum_bound_gram`), ``analyze``'s
  cross-check, to 1e-9. A = V^T conj(V) for the matrix V whose rows
  are the orbit vectors v_j = B^j v_0, and the n x n Gram matrix
  G = conj(V) V^T has the same nonzero spectrum. Because B is unitary
  with period n, G_jk = <v_0|B^(k-j)|v_0> depends only on k - j mod n:
  G is circulant, and its eigenvalues are the discrete Fourier
  transform of its first row (``np.fft``), with no eigensolver either,
  in O(n) memory. Each v_j is the product a_j (x) b_j, and
  a_0 = b_0 = |0>, so that row is g_r = <a_0|a_r> <b_0|b_r> =
  a_r[0] b_r[0]: entry 0 of two factors, an O(n) gather from the root
  table's first columns, with no (n, d) factor array and no V;
* dense (``linalg.quantum_bound_numeric``): LAPACK ``eigvalsh`` on A
  itself, built by ``linalg.accumulate_A``. It is independent of both
  routes above and runs only in ``verify`` and the tests; this module
  imports nothing from ``linalg``.

Every term has the same probability at the reported state, with no
product formed: psi is an eigenvector of B, B psi = mu psi with
|mu| = 1, and B is unitary, so term j's probability is
|<v_j|psi>|^2 = |<v_0|B^(-j) psi>|^2 = |mu^(-j) <00|psi>|^2 = |psi_00|^2,
psi's entry at flat index 0. They sum to <psi|A|psi> = Q_s, so each is
Q_s/n; ``verify`` checks both against the dense orbit states.

The classical bound is the exact maximum of the same expression over
deterministic local strategies. Two routes compute it:

* chained Bell (:func:`_chained_bell_bound`), the reported value, on
  the hot path. The orbit's terms form a chained-Bell cycle of 2M
  setting pairs (Braunstein-Caves 1990; Barrett-Kent-Pironio 2006), so
  C_s = 2M - 1 with the all-zero strategy as witness. It checks the
  term set and counts the witness's hits, O(2*M*d) work;
* max-plus elimination (:func:`classical_bound`): the maximum over
  Alice's maps, with Bob's best reply, by eliminating Alice's settings
  one at a time, exact at every cell in O(M d^3) on the orbit. It
  makes no assumption on the terms and runs only in ``verify`` and the
  tests, which compare its value and witness with the chained-Bell
  route's.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

from .orbit import (
    MeasLabel,
    ProblemSpec,
    _gather,
    _root_table,
    _RootTable,
    _terms,
    # bound here as orbitbell.bounds.orbit, which the benchmark's tracer
    # tests read; the hot path reads the orbit through _terms and _gather
    orbit,  # noqa: F401
)

__all__ = [
    "DeterministicStrategy",
    "BellInequality",
    "InstanceTooLarge",
    "MEMORY_CEILING",
    "quantum_bound_analytic",
    "quantum_bound_gram",
    "classical_bound",
    "build_inequality",
]

# The ceiling of the one size rule (see _check_size), in bytes. The
# rule counts one dense d^2 x d^2 complex matrix of verify's
# cross-checks (16 d^4, so d <= 64) and, on their own, the orbit arrays
# of its dense stepping check and Gram spectrum; analyze,
# build_inequality, game and table refuse exactly the instances beyond
# it. It does not bound verify's peak: verify holds several dense
# matrices per cell (the step operator B, the dense product (U x 1) S
# with its two factors, the projector sum A with eigvalsh's workspace,
# and the d^2 closed-form eigenvectors), so the peak passes the ceiling
# below d = 64. An in-process verify --outcomes-max D --settings-max 1
# peaks at 65 MiB ru_maxrss at D = 24 (1.2-2.3 s), 143 MiB at D = 32
# (8.7-10.8 s), 210 MiB at D = 36 (15-22 s), 252 MiB at D = 38 (25 s)
# and 304 MiB at D = 40 (35 s) (Python 3.11, numpy 2.4, 2-vCPU Xeon,
# Linux). The rule's 24 n^2 term counts no array: the Gram route takes
# its DFT with np.fft in O(n) memory, and the term is only a limit on
# n. analyze builds none of the counted arrays, no (n, d^2) one and no
# (n, d) one: an in-process analyze --format json peaks at 37.6 MiB
# ru_maxrss at (d, M) = (2, 835), 36.0 MiB at (16, 98) and 35.6 MiB at
# (64, 10), mostly the interpreter and numpy (median of nine fresh
# processes; Python 3.11, numpy 2.4, 2-vCPU Xeon, Linux).
# classical_bound keeps what its elimination holds under it too, for
# any caller.
MEMORY_CEILING = 256 * 2**20

# How far two routes to the same quantum bound may disagree: the
# root-index value against the Gram spectrum here, and against LAPACK
# eigvalsh in verify, which imports it.
_ROUTE_TOL = 1e-9


class InstanceTooLarge(Exception):
    """Instance beyond the memory ceiling of verify's cross-checks, or,
    for :func:`classical_bound` alone, one whose elimination tables
    would pass the memory ceiling."""


def _check_size(outcomes: int, settings: int) -> None:
    """Raise InstanceTooLarge when one of two counts of verify's
    cross-check arrays for instance (d, M) = (outcomes, settings)
    exceeds MEMORY_CEILING; the one size rule of analyze,
    build_inequality, game, table and verify.

    First, one dense d^2 x d^2 cross-check matrix must fit. Then the
    orbit arrays: over its n = 2*M*d steps, verify's dense stepping
    check holds the orbit states, their product with the dense step
    operator and that product's magnitudes (40 d^2 bytes per step).
    The second count adds 24 n^2 bytes, 24 per pair of steps, which
    count no array (the Gram spectrum is one ``np.fft`` in O(n)
    memory): that term is only a limit on the orbit length n, kept so
    that the admitted cells stay what they were. Neither count is
    verify's whole peak, which holds several dense matrices per cell
    and is past the ceiling by d = 40 (see MEMORY_CEILING). Plain int
    arithmetic, so an absurd d or M is rejected without allocating.
    """
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
    steps = 2 * settings * outcomes
    needed = 40 * outcomes**2 * steps + 24 * steps**2
    if needed > MEMORY_CEILING:
        raise InstanceTooLarge(
            f"instance too large: the orbit at {outcomes} outcomes and "
            f"{settings} settings has {steps} steps, whose states and step "
            "residuals, with 24 bytes per pair of steps, need "
            f"{needed / 2**20:.0f} MiB, over the memory ceiling of "
            f"{MEMORY_CEILING // 2**20} MiB"
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


def quantum_bound_analytic(spec: ProblemSpec) -> tuple[float, np.ndarray]:
    """Quantum bound from the proved winning eigenspace of B.

    A commutes with B, so the seed's projection onto each eigenspace of
    B is an eigenvector of A, with eigenvalue n = 2*M*d times the seed's
    weight there. The eigenspace of mu = exp(2*pi*i*rho/n) holds the
    Fourier products w_a (x) w_b with b = -a - rho mod d, its projector
    there is (1 + B/mu)/2, and the winning one is rho = 1 - d mod 2 at
    M >= 2, strictly, by the Dirichlet sum W(L) = L + sin(Lc)/sin(c),
    c = pi/(Md), which increases with the group's pair count L (proved
    in the module docstring). At M = 1 the orbit states are distinct
    basis states and every group has value 1; rho = 0 is taken.
    Returns n (d + sum_a cos(2*pi*(r_a - rho)/n)) / (2 d^2), which is
    M (1 + sin(pi/M) / (d sin(pi/(dM)))) at M >= 2 and 1 at M = 1, and
    the normalized state x[X, Y] = f[(X - Y) mod d] exp(-2*pi*i*rho*Y/d),
    f = ifft(1 + exp(2*pi*i*(r_a - rho)/n)): d Fourier coefficients,
    with no group scan and no eigensolver.
    """
    return _analytic_bound(spec, _root_table(spec))


def _analytic_bound(spec: ProblemSpec, table: _RootTable) -> tuple[float, np.ndarray]:
    """:func:`quantum_bound_analytic` from the instance's root table."""
    d, order = spec.outcomes, spec.orbit_length
    rho = 0 if spec.settings == 1 or d % 2 else 1
    angles = 2 * np.pi * (np.array(table.indices) - rho) / order
    # one running sum in index order, so Q_s keeps the bits of summing
    # the group's pairs one at a time
    value = (d + sum(np.cos(angles).tolist())) * (order / (2 * d**2))
    f = np.fft.ifft(1 + np.exp(1j * angles))
    ramp = np.arange(d)
    x = (f[(ramp[:, None] - ramp) % d] * np.exp(-2j * np.pi * rho * ramp / d)).ravel()
    return value, x / np.linalg.norm(x)


def quantum_bound_gram(g: np.ndarray) -> float:
    """Quantum bound from the spectrum of the orbit's Gram matrix.

    With v_j = B^j v_0 and B unitary of period n = 2*M*d, the Gram
    matrix G_jk = <v_j|v_k> = <v_0|B^(k-j)|v_0> is circulant with first
    row g_r = <v_0|v_r>, so its eigenvalues are sum_r g_r w^(q r),
    w = exp(2*pi*i/n), that is n ``np.fft.ifft(g)``. G = conj(V) V^T
    and A = V^T conj(V) share their nonzero spectrum, so the largest of
    these is A's top eigenvalue. ``g`` is that first row, (n,) complex:
    the states are products v_r = a_r (x) b_r with a_0 = b_0 = |0>, so
    g_r = a_r[0] b_r[0] (see :func:`_inequality`). No array beyond O(n)
    is formed.

    Raises RuntimeError if an eigenvalue has an imaginary part above
    1e-9, or a NaN one: the first row describes a Hermitian circulant,
    g_(n-r) = conj(g_r), only if the orbit closes after n steps.
    """
    spectrum = len(g) * np.fft.ifft(g)
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
    bob_map = tuple(max(range(d), key=row.__getitem__) for row in hits)  # first max
    return sum(row[pick] for row, pick in zip(hits, bob_map)), bob_map


def classical_bound(
    spec: ProblemSpec, terms: Iterable[tuple[MeasLabel, MeasLabel]]
) -> tuple[int, DeterministicStrategy]:
    """Exact maximum over deterministic strategies of the Bell expression
    whose terms are the label pairs ``terms`` (such as
    ``BellInequality.terms``), any iterable of them, read once.

    Max-plus elimination over Alice's settings. For a fixed Alice map
    the terms split by Bob's setting, so Bob's best reply is a
    per-setting argmax, and Bob's best score at setting t depends only
    on Alice's outcomes at the settings S_t that share a term with t
    (on the orbit, t and t+1 mod M). Each Bob setting's hit table,
    indexed by Bob's outcome and Alice's outcomes on S_t, is one
    ``np.bincount`` of the flat codes b * d + a of the terms at (s, t)
    per s in S_t, broadcast along the other settings of S_t; its max
    over Bob's outcome is a factor over S_t, filed in the bucket of the
    highest setting of S_t. Settings a_(M-1) down to a_0 are then
    eliminated: a bucket's factors are summed into one table over the
    union of their scopes, whose argmax over a_k is kept and whose max
    over a_k is filed in the bucket of the next-highest setting of that
    union. Decoding from a_0 up, each a_k is the kept argmax at the
    settings already chosen, the smallest a_k that attains the max, so
    the Alice map is the lexicographically smallest optimal one; a
    setting in no term is 0. Bob's reply is :func:`_best_reply`'s.
    Ties are broken toward the lexicographically smallest
    (alice_map, bob_map) table, identical to what the naive double scan
    over all d^(2M) strategy pairs would return.

    Exact int64 work. On the orbit's cycle each hit table and each
    bucket's table has d^3 entries (d^2 and d at M = 1), so O(M d^3)
    time and O(M d^2 + d^3) memory. For any term list a hit table has
    at most d^(M+1) entries and a bucket's table at most d^M, the sizes
    of a scan over all d^M Alice maps.

    Raises InstanceTooLarge before allocating when what the route holds
    would exceed MEMORY_CEILING, counted in plain int arithmetic at 8
    bytes a slot and never decreased: Bob's hit rows, the two maps and
    1 KiB of Python and numpy objects per setting, 32 bytes per term,
    numpy's ufunc buffers, every factor, message and kept argmax, and
    the table being summed, twice, for the partial sum or bincount
    beside it (at M = 1 on the orbit, two d x d tables: every
    d >= 4093 is refused; at ``ProblemSpec(2, 10**9)`` the per-setting
    count alone is). Raises
    ValueError for a term with a setting outside 0..M-1 or an outcome
    outside 0..d-1, which would be filed under another label.
    """
    d, m = spec.outcomes, spec.settings
    held = 0  # bytes held so far, never decreased

    def hold(kept: int, filling: int = 0) -> None:
        nonlocal held
        held += 8 * kept
        if held + 8 * filling > MEMORY_CEILING:
            raise InstanceTooLarge(
                f"instance too large: the classical bound's tables at {d} "
                f"outcomes and {m} settings need {(held + 8 * filling) / 2**20:.1f} "
                f"MiB, over the memory ceiling of {MEMORY_CEILING // 2**20} MiB"
            )

    terms = tuple(terms)  # read twice: the hit tables, then Bob's best reply
    # Bob's hit rows and the two maps, each setting's Python and numpy
    # objects, each term's slot and flat code, and 128 KiB for numpy's
    # ufunc buffers
    hold(m * (d + 128) + 4 * len(terms) + 2**14)
    # each term's flat code b.outcome * d + a.outcome, grouped by Bob's
    # setting, then by Alice's
    codes: dict[int, dict[int, list[int]]] = {}
    for a, b in terms:
        if not (
            0 <= a.setting < m and 0 <= b.setting < m and 0 <= a.outcome < d and 0 <= b.outcome < d
        ):
            raise ValueError(
                f"term {(a, b)} has a setting outside 0..{m - 1} or an outcome "
                f"outside 0..{d - 1}"
            )
        by_alice = codes.setdefault(b.setting, {})
        by_alice.setdefault(a.setting, []).append(b.outcome * d + a.outcome)

    # the (scope, table) pairs to sum at each setting, scopes ascending
    buckets: dict[int, list[tuple[list[int], np.ndarray]]] = {}
    for by_alice in codes.values():
        linked = sorted(by_alice)
        # the (Bob outcome, Alice outcome) counts of each linked setting,
        # broadcast along the other linked settings' axes and summed
        hold(d ** len(linked), 2 * d ** (1 + len(linked)))
        hits = reduce(
            np.add,
            (
                np.bincount(by_alice[s], minlength=d * d).reshape(
                    [d] + [d if x == s else 1 for x in linked]
                )
                for s in linked
            ),
        )
        buckets.setdefault(linked[-1], []).append((linked, hits.max(axis=0)))
        del hits  # before the next table is made

    # every linked setting gets a bucket by its turn: a message carries
    # the union's other settings to the highest of them
    kept = []
    for k in sorted({s for by_alice in codes.values() for s in by_alice}, reverse=True):
        bucket = buckets.pop(k)
        scope = sorted(set().union(*(s for s, _ in bucket)))
        hold(2 * d ** (len(scope) - 1), 2 * d ** len(scope))
        table = reduce(np.add, (f.reshape([d if x in s else 1 for x in scope]) for s, f in bucket))
        kept.append((scope, table.argmax(axis=-1)))  # first max: smallest a_k
        if len(scope) > 1:
            buckets.setdefault(scope[-2], []).append((scope[:-1], table.max(axis=-1)))
        del table

    alice_map = [0] * m
    for scope, choice in reversed(kept):  # a_0 up
        alice_map[scope[-1]] = int(choice[tuple(alice_map[s] for s in scope[:-1])])
    value, bob_map = _best_reply(tuple(alice_map), terms, d, m)
    return value, DeterministicStrategy(tuple(alice_map), bob_map)


def _chained_bell_terms(
    terms: Sequence[tuple[MeasLabel, MeasLabel]], d: int, m: int
) -> bool:
    """Whether every term is in one of the three chained-Bell families:
    Bob's label in range, and either equal outcomes with Alice at Bob's
    setting or one ahead of it, short of M, or the wrap-around
    (0, (k+1) mod d | M-1, k). One pass, one predicate per term."""
    return all(
        0 <= bs < m
        and 0 <= bo < d
        and (
            (ao == bo and (a_s == bs or a_s == bs + 1 < m))
            or (a_s == 0 and bs == m - 1 and ao == (bo + 1) % d)
        )
        for (a_s, ao), (bs, bo) in terms
    )


def _chained_bell_bound(
    spec: ProblemSpec, terms: Sequence[tuple[MeasLabel, MeasLabel]]
) -> tuple[int, DeterministicStrategy]:
    """Classical bound of the orbit's terms: 2M - 1, with the all-zero
    strategy as witness, in O(2*M*d) work.

    The terms must be 2Md distinct label pairs of the three chained-Bell
    families (:func:`_chained_bell_terms`), which hold 2Md pairs in
    all, so they are each family pair once. Then, with a_s and b_s the
    outcomes a deterministic strategy gives at setting s:

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
       :func:`classical_bound`'s elimination breaks ties: both routes
       return the same value and witness.

    The term set and the witness's hit count, the terms with both
    outcomes 0, are checked, not assumed; either failing raises
    RuntimeError.
    """
    d, m = spec.outcomes, spec.settings
    n = spec.orbit_length
    if not (_chained_bell_terms(terms, d, m) and len(terms) == len(set(terms)) == n):
        raise RuntimeError(
            f"chained-Bell route: the {len(terms)} orbit terms are not the "
            f"{n} label pairs of the three chained-Bell families"
        )
    hits = sum(1 for (_, ao), (_, bo) in terms if ao == bo == 0)
    if hits != 2 * m - 1:
        raise RuntimeError(
            f"chained-Bell route: the all-zero strategy meets {hits} terms, "
            f"not 2M - 1 = {2 * m - 1}"
        )
    return 2 * m - 1, DeterministicStrategy((0,) * m, (0,) * m)


def build_inequality(spec: ProblemSpec) -> BellInequality:
    """Assemble the Bell inequality for one instance: check its size,
    then run :func:`_inequality`.

    Raises InstanceTooLarge, before any orbit or matrix is built, for
    exactly the instances beyond verify's size rule, whose counts of
    verify's cross-check arrays exceed MEMORY_CEILING (see
    :func:`_check_size`), so that verify accepts every instance this
    accepts. The classical bound comes from the chained-Bell route.
    """
    _check_size(spec.outcomes, spec.settings)
    return _inequality(spec).inequality


class _Instance(NamedTuple):
    """One assembled instance, the root table it was built from and the
    value of its Gram cross-check."""

    inequality: BellInequality
    table: _RootTable
    gram: float  # quantum_bound_gram of the orbit's first Gram row


def _inequality(spec: ProblemSpec) -> _Instance:
    """The one assembly of an instance, for :func:`build_inequality`,
    ``analyze`` and each ``verify`` cell.

    Builds the instance's root table once, its first columns checked
    through U as it is built, and reads everything from it: the orbit's
    terms, and the quantum bound by the root-index route and by the
    orbit's Gram spectrum, which must agree to 1e-9 (a NaN on either
    route is a disagreement); the root-index value and state are the
    ones reported. The classical bound and witness come from the
    chained-Bell route; the max-plus elimination is verify's. Only the
    integer root indices and the (M + 1, d) first columns are read: the
    Gram row g_j = a_j[0] b_j[0] is entry 0 of the factors, gathered by
    the index rule, and every per-term probability is |psi_00|^2 (see
    the module docstring). No (n, d) factor array, no Fourier row and
    no d^2 x d^2 matrix is built.

    Checks no size: :func:`build_inequality` and ``analyze`` run
    :func:`_check_size` on the instance first, and ``verify`` on its
    largest cell before its first.
    """
    table = _root_table(spec)
    terms = _terms(spec)
    c0 = _gather(spec, table, np.zeros(1, dtype=int))[:, 0]  # c_(k_i)[0], i = 0..n
    gram = quantum_bound_gram(c0[1:] * c0[:-1])  # g_j = a_j[0] b_j[0]
    analytic, state = _analytic_bound(spec, table)
    if not abs(gram - analytic) <= _ROUTE_TOL:
        raise RuntimeError(
            f"quantum bound routes disagree: Gram spectrum {gram!r} vs "
            f"analytic {analytic!r}"
        )
    c_value, witness = _chained_bell_bound(spec, terms)
    probs = np.full(spec.orbit_length, abs(state[0]) ** 2)  # |<v_j|psi>|^2 = |psi_00|^2
    inequality = BellInequality(
        spec=spec,
        terms=terms,
        classical_bound=c_value,
        quantum_bound=analytic,
        optimal_state=state,
        per_term_probs=probs,
        witness=witness,
    )
    return _Instance(inequality, table, gram)
