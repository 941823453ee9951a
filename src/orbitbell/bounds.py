"""Quantum and classical bounds of the orbit-generated Bell expression.

The Bell expression is the sum, over the n = 2*M*d orbit terms, of the
probabilities of seeing that term's outcome pair at that term's
setting pair. Its quantum value on a shared state psi is <psi|A|psi>
with A the sum of orbit projectors, so the quantum bound is the top
eigenvalue of A. Three routes compute it, and each runs in one place:

* root index (:func:`_analytic_bound`), the reported value, on the
  hot path, read through :func:`build_inequality` and ``analyze``. A
  commutes with B, so the seed's projection P_mu|00> onto each
  eigenspace of B is an eigenvector of A, with eigenvalue
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
  f = ifft(1 + lambda_a/mu) over a. Each f entry appears d times, with
  unit-modulus phases, so the normalized state is held as d
  coefficients c = f / (sqrt(d) ||f||) and rho alone,
  psi[X, Y] = c[(X - Y) mod d] exp(-2*pi*i*rho*Y/d); the d^2 amplitudes
  are formed only on request (:func:`_expand_state`, behind
  ``BellInequality.optimal_state``), never on ``analyze``'s path. No
  eigensolver runs and no group is scanned; a wrong rho fails the Gram cross-check below, and
  ``verify``'s ``eigvalsh``. The root indices come from the instance's
  root table (``orbit._root_table``), the one the orbit was built
  from: :func:`_inequality` builds it once, for the group rho this
  module decides (:func:`_rho`), and passes it down. f comes from the
  table too: its row 1 + lambda_a/mu shares the table's one ``np.exp``
  with the index powers and the snap's row, and its one
  ``np.fft.ifft`` with u_0..u_M, with the bits of separate calls; Q_s
  is summed over the table's root indices;
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
psi's entry at flat index 0, which is c_0. They sum to <psi|A|psi> = Q_s, so each is
Q_s/n; ``verify`` checks both against the dense orbit states.

The classical bound is the exact maximum of the same expression over
deterministic local strategies. Two routes compute it:

* chained Bell (:func:`_chained_bell_bound`), the reported value, on
  the hot path. The orbit's terms form a chained-Bell cycle of 2M
  setting pairs (Braunstein-Caves 1990; Barrett-Kent-Pironio 2006), so
  C_s = 2M - 1 with the all-zero strategy as witness. It checks the
  term set and counts the witness's hits on the rows of the orbit's
  (n, 4) label array, O(2*M*d) work;
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
    MEMORY_CEILING,
    InstanceTooLarge,
    MeasLabel,
    ProblemSpec,
    _as_labels,
    _check_size,
    _factor_indices,
    _gather,
    _labels,
    _root_table,
    _RootTable,
    # bound here as orbitbell.bounds.orbit, which the benchmark's tracer
    # tests read; the hot path reads the orbit through _labels and _gather
    orbit,  # noqa: F401
)

__all__ = [
    "DeterministicStrategy",
    "BellInequality",
    "InstanceTooLarge",
    "MEMORY_CEILING",
    "quantum_bound_gram",
    "classical_bound",
    "build_inequality",
]

# How far two routes to the same quantum bound may disagree: the
# root-index value against the Gram spectrum here, and against LAPACK
# eigvalsh in verify, which imports it.
_ROUTE_TOL = 1e-9


@dataclass(frozen=True)
class DeterministicStrategy:
    """Fixed outcome per setting for each party."""

    alice_map: tuple[int, ...]
    bob_map: tuple[int, ...]


@dataclass(frozen=True)
class BellInequality:
    """Everything derived for one instance: terms, bounds, maximizer.

    The terms are held as one (n, 4) int64 array, :attr:`labels`, term
    j's row (Alice's setting, Alice's outcome, Bob's setting, Bob's
    outcome) in orbit order, read-only; :attr:`terms` forms them as
    ``MeasLabel`` pairs on each access. The maximizer is held as its d coefficients
    and the index rho of its eigenvalue group (see
    :func:`_expand_state`); :attr:`optimal_state` forms its d^2
    amplitudes on each access."""

    spec: ProblemSpec
    labels: np.ndarray  # (n, 4) int64, see orbit._labels
    classical_bound: int
    quantum_bound: float
    coefficients: np.ndarray  # (d,) complex, c_k = psi[k, 0]
    rho: int
    per_term_probs: np.ndarray
    witness: DeterministicStrategy

    @property
    def terms(self) -> tuple[tuple[MeasLabel, MeasLabel], ...]:
        """The orbit's (alice, bob) label pairs in orbit order, formed
        from :attr:`labels` on each access."""
        return tuple(
            (MeasLabel(a_s, a_o), MeasLabel(b_s, b_o))
            for a_s, a_o, b_s, b_o in self.labels.tolist()
        )

    @property
    def optimal_state(self) -> np.ndarray:
        """The maximizer's d^2 amplitudes in flat-index order, formed
        from :attr:`coefficients` and :attr:`rho` on each access."""
        return _expand_state(self.coefficients, self.rho)


def _rho(spec: ProblemSpec) -> int:
    """The proved winning group's index: 1 - d mod 2 at M >= 2, and 0,
    the smallest root index, at M = 1 (see the module docstring)."""
    return 0 if spec.settings == 1 or spec.outcomes % 2 else 1


def _analytic_bound(spec: ProblemSpec, table: _RootTable) -> tuple[float, np.ndarray, int]:
    """Quantum bound from the proved winning eigenspace of B, read off
    the instance's root table, built for the group index :func:`_rho`.

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
    M (1 + sin(pi/M) / (d sin(pi/(dM)))) at M >= 2 and 1 at M = 1,
    summed over the table's root indices, the state as its d normalized
    coefficients c = f / (sqrt(d) ||f||), with f = ifft(1 + lambda/mu)
    the table's, from its one ``np.exp`` and one ``np.fft.ifft``, and
    its group's rho, with no group scan and no eigensolver."""
    d, order = spec.outcomes, spec.orbit_length
    rho = _rho(spec)
    angles = 2 * np.pi * (np.array(table.indices) - rho) / order
    # one running sum in index order, so Q_s keeps the bits of summing
    # the group's pairs one at a time
    value = (d + sum(np.cos(angles).tolist())) * (order / (2 * d**2))
    f = table.f
    # each f entry fills d of the d^2 amplitudes, with unit-modulus phases
    return value, f / (np.sqrt(d) * np.linalg.norm(f)), rho


def _expand_state(coefficients: np.ndarray, rho: int) -> np.ndarray:
    """The d^2 amplitudes psi[X, Y] = c[(X - Y) mod d] exp(-2*pi*i*rho*Y/d)
    of the state held as d coefficients c and its group's rho, in
    flat-index order X * d + Y: the one place the d^2 vector is formed,
    for :attr:`BellInequality.optimal_state`."""
    d = len(coefficients)
    ramp = np.arange(d)
    phases = np.exp(-2j * np.pi * rho * ramp / d)
    return (coefficients[(ramp[:, None] - ramp) % d] * phases).ravel()


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


def classical_bound(
    spec: ProblemSpec, terms: Iterable[tuple[MeasLabel, MeasLabel]] | np.ndarray
) -> tuple[int, DeterministicStrategy]:
    """Exact maximum over deterministic strategies of the Bell expression
    whose terms are the label pairs ``terms``: an (n, 4) int64 label
    array such as ``BellInequality.labels``, read as it is, or any
    iterable of (alice, bob) label pairs, such as
    ``BellInequality.terms``, read once and converted to that array
    (``orbit._as_labels``).

    Max-plus elimination over Alice's settings. For a fixed Alice map
    the terms split by Bob's setting, so Bob's best reply is a
    per-setting argmax, and Bob's best score at setting t depends only
    on Alice's outcomes at the settings S_t that share a term with t
    (on the orbit, t and t+1 mod M). One sort of an integer code per
    term groups the terms by setting pair (t, s), and one
    ``np.bincount`` of each term's group number and flat code
    b * d + a counts every group's (Bob outcome, Alice outcome) hits.
    Each Bob setting's hit table, indexed by Bob's outcome and Alice's
    outcomes on S_t, is the sum of the hits of the groups at (t, s) for
    s in S_t, each broadcast along the other settings of S_t; its max
    over Bob's outcome is a factor over S_t, filed in the bucket of the
    highest setting of S_t. Settings a_(M-1) down to a_0
    are then eliminated: a bucket's factors are summed into one table
    over the union of their scopes, whose argmax over a_k is kept and
    whose max over a_k is filed in the bucket of the next-highest
    setting of that union. Decoding from a_0 up, each a_k is the kept
    argmax at the settings already chosen, the smallest a_k that
    attains the max, so the Alice map is the lexicographically smallest
    optimal one; a setting in no term is 0. Bob's reply is one
    ``np.bincount`` of the terms Alice's map meets: per setting, the
    outcome that hits the most of them, the smallest on a tie. Ties are
    broken toward the lexicographically smallest (alice_map, bob_map)
    table, identical to what the naive double scan over all d^(2M)
    strategy pairs would return.

    Exact int64 work. On the orbit's cycle each hit table and each
    bucket's table has d^3 entries (d^2 and d at M = 1), so O(M d^3)
    time and O(M d^2 + d^3) memory. For any term list a hit table has
    at most d^(M+1) entries and a bucket's table at most d^M, the sizes
    of a scan over all d^M Alice maps.

    Raises InstanceTooLarge before allocating when what the route holds
    would exceed MEMORY_CEILING, counted in plain int arithmetic at 8
    bytes a slot and never decreased: Bob's hit rows, the two maps and
    1 KiB of Python and numpy objects per setting, 32 bytes per term
    for the route's per-term arrays (a list of pairs adds its label
    array, converted before the count, beside the caller's pairs),
    numpy's ufunc buffers, every group's d x d hits, every factor,
    message and kept argmax, each Bob setting's hit table (the partial
    sum before it is no larger than the factor counted beside it), and
    each bucket's table twice, for the partial sum beside it (at M = 1
    on the orbit, the hits and the hit table, two d x d tables: every
    d >= 4093 is refused; at ``ProblemSpec(2, 10**9)`` the per-setting
    count alone is). Raises
    ValueError, before any table is built, for an array that is not an
    (n, 4) int64 one and a term with a label that is not a 64-bit
    integer (a ``bool`` or a float, say; see ``orbit._as_labels``), and
    for a term with a setting outside
    0..M-1 or an outcome outside 0..d-1, which would be filed under
    another label.
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

    labels = _as_labels(terms)
    # Bob's hit rows and the two maps, each setting's Python and numpy
    # objects, 32 bytes a term, and 128 KiB for numpy's ufunc buffers.
    # The per-term arrays peak at 25 bytes a term: 24 while the code is
    # split (the sorted code, the setting pair and the flat code), 25
    # while the groups are cut (the pair, the flat code, the change mask
    # and the groups' first pairs, then the flat code, the mask and two
    # group-number arrays), all released before the tables are built,
    # then 25 in Bob's reply (the mask, the met terms' Bob labels
    # and their codes)
    hold(m * (d + 128) + 4 * len(labels) + 2**14)
    # one sort groups the terms by Bob's setting, then by Alice's: code
    # (b_setting * M + a_setting) * d^2 + b * d + a, cut where the
    # setting pair changes into each pair's flat codes b * d + a; the
    # code refuses a label out of its range, a negative one too
    try:
        pairs, flat = np.divmod(
            np.sort(
                np.ravel_multi_index(
                    (labels[:, 2], labels[:, 0], labels[:, 3], labels[:, 1]), (m, m, d, d)
                )
            ),
            d * d,
        )
    except ValueError:
        first = labels[(labels.view(np.uint64) >= (m, d, m, d)).any(axis=1).argmax()]
        raise ValueError(
            f"term {tuple(map(MeasLabel._make, first.reshape(2, 2).tolist()))} has a setting "
            f"outside 0..{m - 1} or an outcome outside 0..{d - 1}"
        ) from None
    # a group starts at 0 and wherever the pair changes; with no terms
    # there are none. The groups run Bob setting first, then Alice's
    change = pairs[1:] != pairs[:-1]
    keys = pairs[:1].tolist() + pairs[1:][change].tolist()
    del pairs
    linked: dict[int, list[int]] = {}  # Alice's settings sharing terms with Bob's, ascending
    for key in keys:
        linked.setdefault(key // m, []).append(key % m)
    # every group's (Bob outcome, Alice outcome) hits, kept until the
    # tables are built, and each Bob setting's table, the sum of its
    # groups' hits broadcast along the other linked settings' axes, with
    # the factor it leaves; the partial sum before the last is no larger
    # than that factor. All counted before the hits are made
    hold(len(keys) * d * d)
    for scope in linked.values():
        hold(d ** len(scope), d ** (1 + len(scope)))
    # each term's group number, the count of changes up to it, times d^2
    # added to its flat code: one bincount
    flat[1:] += np.cumsum(change) * (d * d)
    counts = np.bincount(flat, minlength=len(keys) * d * d).reshape(-1, d, d)
    del change, flat

    # the (scope, table) pairs to sum at each setting, scopes ascending
    buckets: dict[int, list[tuple[list[int], np.ndarray]]] = {}
    hits_by_group = iter(counts)  # in the groups' order, as each scope reads them
    for scope in linked.values():
        hits = reduce(
            np.add,
            (
                next(hits_by_group).reshape([d] + [d if x == s else 1 for x in scope])
                for s in scope
            ),
        )
        buckets.setdefault(scope[-1], []).append((scope, hits.max(axis=0)))
        del hits  # before the next table is made
    del counts, hits_by_group  # no hit count outlives the tables

    # every linked setting gets a bucket by its turn: a message carries
    # the union's other settings to the highest of them
    kept = []
    for k in sorted({s for scope in linked.values() for s in scope}, reverse=True):
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
    # Bob's reply: per setting, the outcome that hits the most of the
    # terms Alice's map meets, the smallest on a tie, counted by each
    # met term's code b_setting * d + b
    hits = np.bincount(
        labels[np.array(alice_map)[labels[:, 0]] == labels[:, 1], 2:] @ (d, 1), minlength=m * d
    ).reshape(m, d)
    return int(hits.max(axis=1).sum()), DeterministicStrategy(
        tuple(alice_map), tuple(hits.argmax(axis=1).tolist())
    )


def _chained_bell_terms(rows: Iterable[Sequence[int]], d: int, m: int) -> list[bool]:
    """Which label rows ``rows`` (the rows of an (n, 4) label array as
    Python ints) are in one of the three chained-Bell families, a bool
    per term: Bob's label in range, and either equal outcomes with Alice
    at Bob's setting or one ahead of it, short of M, or the wrap-around
    (0, (k+1) mod d | M-1, k), which puts Alice's label in range too.
    One pass, one predicate per term."""
    return [
        0 <= bs < m
        and 0 <= bo < d
        and (
            (ao == bo and (a_s == bs or a_s == bs + 1 < m))
            or (a_s == 0 and bs == m - 1 and ao == (bo + 1) % d)
        )
        for a_s, ao, bs, bo in rows
    ]


def _chained_bell_bound(
    spec: ProblemSpec, labels: np.ndarray
) -> tuple[int, DeterministicStrategy]:
    """Classical bound of the orbit's terms: 2M - 1, with the all-zero
    strategy as witness, in O(2*M*d) work.

    The terms, the rows of the (n, 4) label array ``labels``, must be
    2Md distinct label pairs of the three chained-Bell families
    (:func:`_chained_bell_terms`), which hold 2Md pairs in
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
    RuntimeError. Each check is one pass over the rows as Python ints:
    at the tens of terms of most cells that costs less than the fixed
    numpy calls of a vectorized test.
    """
    d, m, n = spec.outcomes, spec.settings, spec.orbit_length
    rows = list(zip(*labels.T.tolist()))  # one tuple per term
    if not (len(rows) == n and all(_chained_bell_terms(rows, d, m)) and len(set(rows)) == n):
        raise RuntimeError(
            f"chained-Bell route: the {len(labels)} orbit terms are not the "
            f"{n} label pairs of the three chained-Bell families"
        )
    hits = sum(1 for _, ao, _, bo in rows if ao == bo == 0)
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

    Builds the instance's root table once, for the proved group
    :func:`_rho`, its first columns checked through U as it is built,
    and reads everything from it: the orbit's
    terms, and the quantum bound by the root-index route and by the
    orbit's Gram spectrum, which must agree to 1e-9 (a NaN on either
    route is a disagreement); the root-index value and state, the
    latter as its d coefficients and rho, are the ones reported. The
    classical bound and witness come from the chained-Bell route; the
    max-plus elimination is verify's. Only the
    integer root indices, the (M + 1, d) first columns and the state's
    f are read: the Gram row g_j = a_j[0] b_j[0] is entry 0 of the
    factors, gathered by the index rule, whose sequence is split by one
    ``np.divmod`` for both the gather and the labels, and every
    per-term probability is |psi_00|^2 = |c_0|^2
    (see the module docstring). No (n, d) factor array, no Fourier row,
    no d^2-long state and no d^2 x d^2 matrix is built.

    Checks no size: :func:`build_inequality` and ``analyze`` run
    :func:`_check_size` on the instance first, and ``verify`` on its
    largest cell before its first.
    """
    table = _root_table(spec, _rho(spec))
    split = np.divmod(_factor_indices(spec), spec.settings)  # each k_i's (k div M, k mod M)
    labels = _labels(spec, split)
    c0 = _gather(spec, table, np.zeros(1, dtype=int), split)[:, 0]  # c_(k_i)[0], i = 0..n
    gram = quantum_bound_gram(c0[1:] * c0[:-1])  # g_j = a_j[0] b_j[0]
    analytic, coefficients, rho = _analytic_bound(spec, table)
    if not abs(gram - analytic) <= _ROUTE_TOL:
        raise RuntimeError(
            f"quantum bound routes disagree: Gram spectrum {gram!r} vs "
            f"analytic {analytic!r}"
        )
    c_value, witness = _chained_bell_bound(spec, labels)
    # |<v_j|psi>|^2 = |psi_00|^2 = |c_0|^2
    probs = np.full(spec.orbit_length, abs(coefficients[0]) ** 2)
    inequality = BellInequality(
        spec=spec,
        labels=labels,
        classical_bound=c_value,
        quantum_bound=analytic,
        coefficients=coefficients,
        rho=rho,
        per_term_probs=probs,
        witness=witness,
    )
    return _Instance(inequality, table, gram)
