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
u_s = U^s|0>, and c_k = roll(u_(k mod M), k div M). The index rule is
one integer sequence per instance (:func:`_factor_indices`), split
once by ``np.divmod`` into each k's (k div M, k mod M), and both the
orbit's labels and any entries of its factors are read off that split:
the labels as one (n, 4) int64 array (:func:`_labels`), which every
per-term consumer reads, and the factors' entries from the root
table's first columns (:func:`_gather`). ``analyze`` reads entry 0
alone, for the Gram row; the whole (n, d) factors and the d^2-long
states (:func:`_states`) are formed only for the public :func:`orbit`
and ``verify``, and ``MeasLabel`` pairs only for :func:`orbit` and
``BellInequality.terms``. Label pairs from outside, given to
``bounds.classical_bound`` or ``games.game_spec``, are converted to the
same array in one place (:func:`_as_labels`). This module forms no
d^2 x d^2 matrix, and neither does the package for B: the ``linalg``
module applies it by its definition, an axis swap and then U, for the
verification sweep, and its dense matrix is the tests' reference.

Everything rests on one object per instance, its root table
(:func:`_root_table`): the exact integer root indices of U's
eigenvalues lambda_j, and the first columns u_0..u_M of the powers of
U, from exact index powers and checked through U as they are built;
U itself is the circulant gather of u_1. Its transforms are batched:
the index powers, the analytic state's row 1 + lambda/mu for the
group ``bounds`` decides and the snap's phase-rule row are one angle
table under one ``np.exp``, and u_0..u_M and that state's f one
``np.fft.ifft``, each row with the bits of its own call. It is built
once and passed down explicitly to the orbit, the quantum-bound
routes, the two-setting statistics and the verification sweep. No
route reads the shift's Fourier rows w_j or the d^2 x d^2
eigensystem of B: the quantum bound needs only the root indices.
:func:`root_unitary` and :func:`orbit` are public views of the table,
and like ``analyze`` they refuse an instance beyond the size rule
(:func:`_check_size`) before building it.
"""

from __future__ import annotations

from collections.abc import Iterable
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


# The ceiling of the one size rule (see _check_size), in bytes. The
# rule counts one dense d^2 x d^2 complex matrix of verify's
# cross-checks, the projector sum A (16 d^4, so d <= 64), and, on
# their own, the orbit arrays of its stepping check and Gram spectrum;
# analyze, build_inequality, game and table refuse exactly the
# instances beyond it, and so do the public views root_unitary and
# orbit. verify applies the step B by its
# definition, with no d^2 x d^2 matrix, and hands LAPACK the smaller of
# A and the orbit's n x n Gram matrix G, formed from the (n, d)
# factors, so it forms A only where n >= d^2, which the rule admits up
# to (d, M) = (44, 22), and the Hermitian test of
# linalg.quantum_bound_numeric holds one copy beside the matrix it is
# handed. The stable measure of verify's peak is tracemalloc's, the
# numpy arrays alive at once: an in-process verify --outcomes-max D
# --settings-max 1 peaks there at 3.0, 5.5 and 21.2 MiB at D = 32, 40
# and 64, mostly the (n, d^2) orbit states and their step by B (41.6
# MiB at D = 64 with --settings-max 2). Its ru_maxrss (35, 38 and 55
# MiB there) adds the interpreter, LAPACK's workspace and whatever
# freed memory the allocator keeps resident, and moves by tens of MiB
# with changes that alter no array alive at the peak (Python 3.11,
# numpy 2.4, 2-vCPU Xeon, Linux). A cell's peak is its stepping line,
# the states, their step and that step's magnitudes: the step is
# released after it, and the uniform line reads |V conj(psi)|^2, with
# no conjugate copy of the states. verify's one cell (64, 10) peaks at
# 201.9 MiB tracemalloc (232 MiB ru_maxrss), under the ceiling, and
# (44, 22), the largest cell where A is formed, at 173.7 MiB (210 MiB).
# The rule's 24 n^2 term counts no array: the Gram route takes its DFT
# with np.fft in O(n) memory, and the term is only a limit on n.
# analyze builds none of the counted arrays, no (n, d^2) one, no (n, d)
# one and no d^2-long state: an in-process analyze --format json peaks
# at 35.0 MiB ru_maxrss at (d, M) = (2, 835), 34.0 MiB at (16, 98) and
# 32.0 MiB at (64, 10), mostly the interpreter and numpy (median of
# five fresh processes; Python 3.11, numpy 2.4, 2-vCPU Xeon, Linux).
# bounds.classical_bound keeps what its elimination holds under it
# too, for any caller.
MEMORY_CEILING = 256 * 2**20


class InstanceTooLarge(Exception):
    """Instance beyond the memory ceiling of verify's cross-checks, or,
    for ``bounds.classical_bound`` alone, one whose elimination tables
    would pass the memory ceiling."""


def _check_size(outcomes: int, settings: int) -> None:
    """Raise InstanceTooLarge when one of two counts of verify's
    cross-check arrays for instance (d, M) = (outcomes, settings)
    exceeds MEMORY_CEILING; the one size rule of analyze,
    build_inequality, game, table and verify, and of the public views
    :func:`root_unitary` and :func:`orbit`.

    First, one dense d^2 x d^2 cross-check matrix, the projector sum,
    must fit. Then the orbit arrays: over its n = 2*M*d steps, verify's
    stepping check holds the orbit states, their step by B and that
    step's residual magnitudes (40 d^2 bytes per step). The second
    count adds 24 n^2 bytes, 24 per pair of steps, which count no array
    (the Gram spectrum is one ``np.fft`` in O(n) memory): that term is
    only a limit on the orbit length n, kept so that the admitted cells
    stay what they were. Neither count is verify's whole peak: verify
    forms A only where n >= d^2, and otherwise eigen-solves the n x n
    Gram matrix of the orbit states, and the Hermitian test of the
    LAPACK route holds one copy beside the matrix it is handed (see
    MEMORY_CEILING). Plain int arithmetic, so an absurd d or M is
    rejected without allocating.
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
    """One instance's root indices and the first columns of the powers
    of U, built once by :func:`_root_table` and handed down."""

    # U w_j = lambda_j w_j with lambda_j = exp(2*pi*i*indices[j] / (2*M*d))
    indices: list[int]
    firsts: np.ndarray  # (M+1, d); row s is u_s = U^s|0>
    # (d,), f = ifft(1 + lambda/mu), mu = exp(2*pi*i*rho/(2*M*d)), for
    # the group index rho the table is built for
    f: np.ndarray

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
    above = d // 2 + 1  # the first j with 2j > d
    thetas[above:] = 2.0 * np.pi * (d - js[above:]) / d
    if d % 2 == 0:
        thetas[d // 2] = np.pi
    return thetas


def _root_indices(d: int, order: int) -> list[int]:
    """Exact root index of each lambda_j = exp(i theta_j / M), order =
    2*M*d: theta_j / M is 2*pi*(-2j)/order below the boundary, pi/M =
    2*pi*d/order on it and 2*pi*2(d - j)/order above it."""
    return [
        (-2 * j) % order if 2 * j < d else d if 2 * j == d else 2 * (d - j)
        for j in range(d)
    ]


def _root_table(spec: ProblemSpec, rho: int = 0) -> _RootTable:
    """The instance's root table: the exact root indices of U's
    eigenvalues, and the first columns u_0..u_M of the powers of U.

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

    For the group index ``rho``, which ``bounds`` decides, the table
    also holds f = ifft(1 + lambda/mu), mu = exp(2*pi*i*rho/n), the
    first column of the circulant 1 + U/mu, with lambda_j/mu the exact
    index difference exp(2*pi*i*(r_j - rho)/n). The index powers, that
    row and the phase rule's row are one (M + 3, d) angle table under
    one ``np.exp``, and u_0..u_M and f come from one ``np.fft.ifft``:
    each row has the bits of its own call.
    """
    d, m, order = spec.outcomes, spec.settings, spec.orbit_length
    indices = _root_indices(d, order)
    ramp = np.array(indices)
    # rows 0..M: s r_j mod n, row M + 1: r_j - rho, both times 2*pi/n;
    # row M + 2: the phase rule's theta_j / M
    angles = np.empty((m + 3, d))
    angles[: m + 1] = np.arange(m + 1)[:, None] * ramp % order
    angles[m + 1] = ramp - rho
    angles[:-1] *= 2 * np.pi
    angles[:-1] /= order
    angles[-1] = _eigenphases(d) / m
    phases = np.exp(1j * angles)  # row s <= M is lambda^s
    rooted = phases[-1]
    snap = np.abs(rooted - phases[1])
    worst = int(snap.argmax())  # the first NaN, if any
    if not snap[worst] <= _SNAP_TOL:
        raise RuntimeError(
            f"root table: lambda_{worst} = {complex(rooted[worst])!r} is not "
            f"the order-{order} root of unity with index {indices[worst]} "
            f"(snap error {float(snap[worst]):.3e} exceeds {_SNAP_TOL:.0e})"
        )
    phases[m + 1] += 1  # 1 + lambda/mu
    columns = np.fft.ifft(phases[:-1], axis=1)
    table = _RootTable(indices, columns[: m + 1], columns[m + 1])
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
    as held by the instance's root table.

    Raises InstanceTooLarge first for the instances beyond the size
    rule (:func:`_check_size`), which ``analyze`` refuses too.
    """
    _check_size(spec.outcomes, spec.settings)
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
    checks it again on every state, with B applied by its definition. Raises
    InstanceTooLarge first for the instances beyond the size rule
    (:func:`_check_size`), which ``analyze`` refuses too.
    """
    _check_size(spec.outcomes, spec.settings)
    split = np.divmod(_factor_indices(spec), spec.settings)
    entries = _gather(spec, _root_table(spec), np.arange(spec.outcomes), split)
    return [
        OrbitEntry(step, MeasLabel(a_s, a_o), MeasLabel(b_s, b_o), vector)
        for step, ((a_s, a_o, b_s, b_o), vector) in enumerate(
            zip(_labels(spec, split).tolist(), _states(entries[1:], entries[:-1]))
        )
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
    Alice's vector to Bob. Computed once per instance, and split once,
    by ``np.divmod(index, M)``, into each k's (k div M, k mod M), which
    both :func:`_labels` and :func:`_gather` read."""
    return np.arange(spec.orbit_length + 1) // 2 % (spec.settings * spec.outcomes)


def _gather(
    spec: ProblemSpec,
    table: _RootTable,
    entries: np.ndarray,
    split: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Entries ``entries`` of c_(k_i) for i = 0..n, as the rows of one
    (n + 1, len(entries)) array, so that rows 1..n are Alice's factors
    and rows 0..n-1 Bob's. Entry x of c_k = roll(u_(k mod M), k div M)
    is u_(k mod M)[(x - k div M) mod d], read from the table's first
    columns in one fancy index at ``split``, the (k div M, k mod M)
    arrays of the sequence of :func:`_factor_indices`."""
    outcome, setting = split
    return table.firsts[setting[:, None], (entries - outcome[:, None]) % spec.outcomes]


def _labels(spec: ProblemSpec, split: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The orbit's labels as one (n, 4) int64 array, term j's row
    (Alice's setting, Alice's outcome, Bob's setting, Bob's outcome):
    Alice's label is that of k_(j+1) and Bob's that of k_j, label
    (k mod M, k div M) of column index k, read off ``split``, the
    (k div M, k mod M) arrays of the sequence of
    :func:`_factor_indices`; the array is built column by column, in
    column-major order, and is read-only, since ``BellInequality``
    hands it on uncopied. ``BellInequality.terms`` forms the same
    labels as ``MeasLabel`` pairs on request."""
    outcome, setting = split
    labels = np.array((setting[1:], outcome[1:], setting[:-1], outcome[:-1])).T
    labels.flags.writeable = False
    return labels


def _as_labels(terms: Iterable[tuple[MeasLabel, MeasLabel]] | np.ndarray) -> np.ndarray:
    """Label pairs as an (n, 4) int64 array of :func:`_labels`' columns:
    an (n, 4) int64 array, such as ``BellInequality.labels``, as it is;
    anything but an array as an iterable of (alice, bob) pairs of
    (setting, outcome) labels, a one-shot iterator included, read once
    into a new array. The one place that knows the label format, for
    ``bounds.classical_bound`` and ``games.game_spec``. Raises
    ValueError naming the shape and dtype of any other array (an int32
    or a 1-D one, say), and naming the first term with a label that is
    not a 64-bit integer: a ``bool`` (numpy's too), a float, a numpy
    float, any other type but ``int`` and numpy's integers, or an
    integer beyond int64. Whether a label is in range is the caller's
    to check."""
    if isinstance(terms, np.ndarray):
        if terms.dtype == np.int64 and terms.ndim == 2 and terms.shape[1] == 4:
            return terms
        raise ValueError(
            f"expected an (n, 4) int64 label array, got shape {terms.shape} "
            f"and dtype {terms.dtype}"
        )
    rows = [(*alice, *bob) for alice, bob in terms]
    bad = [
        j for j, row in enumerate(rows)
        if not all(
            isinstance(x, (int, np.integer)) and not isinstance(x, bool) and -(2**63) <= x < 2**63
            for x in row
        )
    ]
    if bad:
        raise ValueError(
            f"term {bad[0]} has a label that is not a 64-bit integer: "
            f"alice {rows[bad[0]][:2]}, bob {rows[bad[0]][2:]}"
        )
    return np.array(rows, dtype=np.int64).reshape(len(rows), 4)
