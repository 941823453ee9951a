"""Reference routes that only the tests use, shared by several test
modules: the snap of one unit-modulus value to its root of unity, by
its phase, which checks the root table's integer root indices and the
eigenvalue of a reported state without the package's index arithmetic;
the one-step label rule, the reference for the orbit's index rule;
the measurement bases U^s as running products of U, the reference for
the root table's first columns; the swap S and the step operator
B = (U (x) 1) S as d^2 x d^2 matrices, the reference for
``linalg.apply_step``, which applies B by its definition with no
matrix; the shift's Fourier rows; B's
closed-form eigensystem one block at a time, from the root table's
integer root indices, the reference for the paper's 2-D block
structure of B, which the tests check against the dense step
operator; the optimal state's d^2 amplitudes as the root-index route
built them before the state was held as d coefficients, the reference
for ``bounds._expand_state``; the loop forms of two whole-array
routes: the classical bound as a scan of every Alice map with its hit
tables filled one term at a time, and the M = 2 statistics one dense
grid at a time; the unbatched forms of an instance's transforms, each
row under its own ``np.exp`` or FFT and the index sequence split in
each consumer, which the batched ones must equal bit for bit; the factor
forms of the orbit's first Gram row and per-term probabilities, from
the whole (n, d) factor arrays; the three chained-Bell families listed
as a set of label pairs; and the certificate as a dict of JSON values,
for ``json.dumps``.
"""

import numpy as np

from orbitbell.orbit import _SNAP_TOL, MeasLabel, ProblemSpec, _root_indices


def root_of_unity_index(value: complex, order: int) -> int:
    """Snap a unit-modulus value to its nearest order-th root of unity.

    Raises RuntimeError when the snap error exceeds the root table's
    snap tolerance, 1e-9; that only happens on a branch-convention bug
    or a NaN (which snaps to index 0 and fails), never from roundoff.
    """
    turns = float(np.nan_to_num(np.angle(value))) * order / (2.0 * np.pi)
    idx = int(round(turns)) % order
    err = abs(value - np.exp(2j * np.pi * idx / order))
    if not err <= _SNAP_TOL:
        raise RuntimeError(
            f"{value!r} is not an order-{order} root of unity "
            f"(snap error {err:.3e} exceeds {_SNAP_TOL:.0e})"
        )
    return idx


def label_step(
    alice: MeasLabel, bob: MeasLabel, spec: ProblemSpec
) -> tuple[MeasLabel, MeasLabel]:
    """Advance a label pair the way B advances the underlying state.

    B hands Alice's vector to Bob unchanged and gives Alice one more
    application of U on Bob's old vector: the setting increments until
    it tops out at settings-1, after which U^M = T bumps the outcome
    by one (mod d) and resets the setting to 0. The orbit names every
    state by one index rule instead; the tests check its labels against
    this walk.
    """
    if bob.setting < spec.settings - 1:
        stepped = MeasLabel(bob.setting + 1, bob.outcome)
    else:
        stepped = MeasLabel(0, (bob.outcome + 1) % spec.outcomes)
    return stepped, alice


def measurement_bases(u: np.ndarray, settings: int) -> list[np.ndarray]:
    """Orthonormal basis per setting s < settings: the columns of U^s.

    ``u`` is the instance's root unitary. The powers are running
    products U^s = U^(s-1) U, settings - 1 matrix products in all; U^0
    is the identity and U^1 is ``u`` itself. The root table holds each
    U^s as its first column u_s, from exact index powers, and
    U^s[:, k] = roll(u_s, k); these are the reference for those columns.
    """
    bases = [np.eye(u.shape[0], dtype=complex), u]
    for _ in range(2, settings):
        bases.append(bases[-1] @ u)
    return bases[:settings]


def swap_matrix(d: int) -> np.ndarray:
    """Party exchange S with S|j>|k> = |k>|j>, as a d^2 x d^2 matrix."""
    s = np.zeros((d * d, d * d), dtype=complex)
    for j in range(d):
        for k in range(d):
            s[k * d + j, j * d + k] = 1.0
    return s


def step_operator(u: np.ndarray) -> np.ndarray:
    """B = (U (x) 1) S as a d^2 x d^2 matrix, placed by index: B|j>|k>
    = (U|k>)|j>, so entry ((a, c), (j, k)) is U[a, k] when c = j and 0
    otherwise. The tests check it against the product
    ``np.kron(u, np.eye(d)) @ swap_matrix(d)``, B's definition."""
    d = u.shape[0]
    b = np.zeros((d, d, d, d), dtype=complex)
    diag = np.arange(d)
    b[:, diag, diag, :] = u[:, None, :]
    return b.reshape(d * d, d * d)


def fourier_rows(d):
    """The shift's Fourier rows w_j, as one (d, d) array: row j has
    components exp(2*pi*i*j*k/d) / sqrt(d), and T w_j = exp(i theta_j) w_j
    with theta_j the principal phase of ``orbit._eigenphases``."""
    js = np.arange(d)
    return np.exp(2j * np.pi * js[:, None] * js / d) / np.sqrt(d)


def eigensystem_by_pair(spec, table):
    """Closed-form eigensystem of the step operator B, as two arrays:
    the root indices, (d^2,) integers, and the eigenvectors, the rows
    of one (d^2, d^2) array. Row r has eigenvalue the root of unity
    exp(2*pi*i*root_indices[r] / (2*M*d)).

    B permutes the products of shift eigenvectors: w_j w_j is an
    eigenvector with U's eigenvalue lambda_j, and each unordered pair
    j < k spans a 2-dimensional block whose eigenvalues are the two
    square roots +/- sqrt(lambda_j lambda_k). All eigenvalues are
    2*M*d-th roots of unity, kept as exact integer indices; lambda_j is
    read off the root table's integer index r_j as exp(2*pi*i*r_j/n).
    The principal branch (half the phase of the product taken in
    (-pi, pi], boundary at +pi) fixes the signs reproducibly; an odd
    index sum in a block, which has no such root, raises RuntimeError.
    Order: the d diagonal vectors, then each pair j < k with its plus
    vector before its minus vector, each from two ``np.outer`` products.
    """
    d, order = spec.outcomes, spec.orbit_length
    half = order // 2
    indices = table.indices
    ws = fourier_rows(d)
    lambdas = np.exp(2j * np.pi * np.asarray(indices) / order)
    roots = np.empty(d * d, dtype=np.int64)
    vectors = np.empty((d * d, d * d), dtype=complex)
    roots[:d] = indices
    vectors[:d] = (ws[:, :, None] * ws[:, None, :]).reshape(d, d * d)
    row = d
    for j in range(d):
        for k in range(j + 1, d):
            total = (indices[j] + indices[k]) % order
            if total % 2:
                raise RuntimeError(
                    "odd root-index sum in a two-dimensional block: "
                    "branch arithmetic bug"
                )
            plus = ((total if total <= half else total - order) // 2) % order
            roots[row : row + 2] = plus, (plus + half) % order
            ratio = np.exp(2j * np.pi * plus / order) / lambdas[j]
            direct = np.outer(ws[j], ws[k]).ravel()
            swapped = np.outer(ws[k], ws[j]).ravel()
            vectors[row] = (direct + ratio * swapped) / np.sqrt(2)
            vectors[row + 1] = (direct - ratio * swapped) / np.sqrt(2)
            row += 2
    return roots, vectors


def analytic_state_by_amplitude(spec, table):
    """The optimal state's d^2 amplitudes x[X, Y] = f[(X - Y) mod d]
    exp(-2*pi*i*rho*Y/d), f = ifft(1 + exp(2*pi*i*(r_a - rho)/n)),
    gathered into a d x d array and then normalized as a d^2 vector:
    the reference for the expansion of the d normalized coefficients
    c = f / (sqrt(d) ||f||) in ``bounds._expand_state``."""
    d, order = spec.outcomes, spec.orbit_length
    rho = 0 if spec.settings == 1 or d % 2 else 1
    angles = 2 * np.pi * (np.array(table.indices) - rho) / order
    f = np.fft.ifft(1 + np.exp(1j * angles))
    ramp = np.arange(d)
    x = (f[(ramp[:, None] - ramp) % d] * np.exp(-2j * np.pi * rho * ramp / d)).ravel()
    return x / np.linalg.norm(x)


def classical_bound_by_term(spec, terms):
    """The classical bound as a scan of the d^M totals of every Alice
    map, each Bob setting's hit table filled one term at a time, by one
    broadcast ``+=`` per term: the reference for ``bounds.classical_bound``'s
    ``np.bincount`` tables and its elimination. Returns the value and the
    (alice_map, bob_map) witness, ties broken toward the
    lexicographically smallest table. No size check."""
    d, m = spec.outcomes, spec.settings
    by_bob = {}
    for a, b in terms:
        by_bob.setdefault(b.setting, []).append((a, b))
    totals = np.zeros((d,) * m, dtype=np.int64)
    for group in by_bob.values():
        linked = sorted({a.setting for a, _ in group})
        hits = np.zeros((d,) * (1 + len(linked)), dtype=np.int64)
        for a, b in group:
            index = [b.outcome] + [slice(None)] * len(linked)
            index[1 + linked.index(a.setting)] = a.outcome
            hits[tuple(index)] += 1
        shape = [1] * m
        for s in linked:
            shape[s] = d
        totals += hits.max(axis=0).reshape(shape)
    best = int(totals.argmax())
    alice_map = tuple(best // d ** (m - 1 - s) % d for s in range(m))
    hits = [[0] * d for _ in range(m)]
    for a, b in terms:
        if alice_map[a.setting] == a.outcome:
            hits[b.setting][b.outcome] += 1
    bob_map = tuple(max(range(d), key=row.__getitem__) for row in hits)
    value = sum(row[pick] for row, pick in zip(hits, bob_map))
    return value, (alice_map, bob_map)


def joint_grid(state, alice_basis, bob_basis):
    """One d x d outcome grid from 2-D bases, by the transpose form."""
    d = alice_basis.shape[0]
    amplitudes = alice_basis.conj().T @ state.reshape(d, d) @ bob_basis.conj()
    return np.abs(amplitudes) ** 2


def grid_mutual_information(joint):
    """Mutual information, in bits, of one grid: the sum over its
    nonzero entries only, against the ``np.outer`` of its marginals."""
    p = np.asarray(joint, dtype=float)
    low = float(p.min())
    if not low >= -1e-12:
        raise ValueError(f"negative probability entry {low:.3e} in joint grid")
    p = np.clip(p, 0.0, None)
    pa = p.sum(axis=1)
    pb = p.sum(axis=0)
    denom = np.outer(pa, pb)
    mask = p > 0.0
    return float(np.sum(p[mask] * np.log2(p[mask] / denom[mask])))


def two_setting_stats_by_grid(ineq, bases):
    """The M = 2 statistics from the dense d x d grids, one grid at a
    time: four grid products of the d^2 amplitudes, four mutual
    informations from each grid's own marginals, and p summed one entry
    at a time in (s, t) order, then a order: the reference for the
    circulant columns of ``games._two_setting_stats``. Returns (p, I_ab,
    spread, grids), grids a dict by setting pair (s, t)."""
    grids = {
        (s, t): joint_grid(ineq.optimal_state, bases[s], bases[t])
        for s in range(2)
        for t in range(2)
    }
    infos = {q: grid_mutual_information(g) for q, g in grids.items()}

    # the four slots' first terms in the grids' (s, t) order, the order the sum adds in
    firsts = sorted(ineq.terms[:4], key=lambda pair: (pair[0].setting, pair[1].setting))
    d, total = ineq.spec.outcomes, 0.0
    for alice, bob in firsts:
        grid, delta = grids[alice.setting, bob.setting], alice.outcome - bob.outcome
        for a in range(d):
            total += float(grid[a, (a - delta) % d])
    spread = max(infos.values()) - min(infos.values())
    return total / 4.0, infos[(0, 0)], spread, grids


def gram_row_from_factors(alice, bob):
    """The orbit's first Gram row g_r = <v_0|v_r> = <a_0|a_r> <b_0|b_r>,
    two products of the whole (n, d) factor arrays: the reference for
    the entry-0 gather a_r[0] b_r[0] of ``bounds._inequality``."""
    return (alice @ alice[0].conj()) * (bob @ bob[0].conj())


def term_probabilities_from_factors(alice, bob, state):
    """Per-term probabilities |<a_j (x) b_j|psi>|^2 =
    |sum_xy a_jx conj(psi_xy) b_jy|^2, one (n, d) x (d, d) product and
    one row sum: the reference for the reported |psi_00|^2."""
    d = alice.shape[1]
    return np.abs(((alice @ state.reshape(d, d).conj()) * bob).sum(1)) ** 2


def unbatched_first_columns(spec):
    """The root table's first columns u_0..u_M as the table built them
    before an instance's transforms were batched: the exact index powers
    under an ``np.exp`` of their own and one ``np.fft.ifft`` of their
    own, with the phase rule's row and the analytic state's row apart.
    The reference for the rows of ``orbit._root_table``'s one ``np.exp``
    and one ``np.fft.ifft``."""
    d, order = spec.outcomes, spec.orbit_length
    indices = _root_indices(d, order)
    powers = np.arange(spec.settings + 1)[:, None] * indices % order
    return np.fft.ifft(np.exp(1j * (2 * np.pi * powers / order)), axis=1)


def unbatched_analytic_bound(spec, indices):
    """Q_s, the d normalized coefficients and rho of the root-index
    route from the root indices ``indices``, with f = ifft(1 + lambda/mu)
    under an ``np.exp`` and an ``np.fft.ifft`` of its own: the
    reference for ``bounds._analytic_bound``, whose f comes from the
    root table's batched transforms."""
    d, order = spec.outcomes, spec.orbit_length
    rho = 0 if spec.settings == 1 or d % 2 else 1
    angles = 2 * np.pi * (np.array(indices) - rho) / order
    value = (d + sum(np.cos(angles).tolist())) * (order / (2 * d**2))
    f = np.fft.ifft(1 + np.exp(1j * angles))
    return value, f / (np.sqrt(d) * np.linalg.norm(f)), rho


def unbatched_gram_and_labels(spec, firsts):
    """The Gram-spectrum value and the (n, 4) int64 label array with the
    index sequence split apart in each consumer: ``%`` and ``//`` for
    the gather of entry 0 of the factors from ``firsts``, the first
    columns, and a ``np.divmod`` of its own for the labels. The
    reference for the one ``np.divmod`` that ``bounds._inequality``
    hands to both."""
    m, d = spec.settings, spec.outcomes
    index = np.arange(spec.orbit_length + 1) // 2 % (m * d)
    c0 = firsts[(index % m)[:, None], (np.zeros(1, dtype=int) - (index // m)[:, None]) % d][:, 0]
    g = c0[1:] * c0[:-1]
    gram = float((len(g) * np.fft.ifft(g)).real.max())
    outcome, setting = np.divmod(index, m)
    labels = np.array((setting[1:], outcome[1:], setting[:-1], outcome[:-1])).T
    return gram, labels


def unbatched_grid_columns(coefficients, rho, firsts):
    """The (2, 2, d) M = 2 grid columns from the state's coefficients
    and rho and the first columns u_0, u_1, with three forward FFTs: the
    reference for the one ``np.fft.fft`` of ``games._grid_columns``."""
    d = len(coefficients)
    ramp = np.arange(d)
    alice = np.fft.fft(firsts[:2]).conj()
    bob = np.fft.fft(firsts[:2].conj() * np.exp(-2j * np.pi * rho * ramp / d))
    amplitudes = np.fft.ifft(np.fft.fft(coefficients) * alice[:, None] * bob[None, :])
    return np.abs(amplitudes) ** 2


def condition_label_pairs(spec):
    """Label pairs the orbit must consist of, listed directly: the
    reference for ``bounds._chained_bell_terms``, one predicate per row
    of a label array.

    Three families: equal settings with equal outcomes; Alice one
    setting ahead with equal outcomes; and the wrap-around where Alice
    is back at setting 0 with the outcome advanced by one (mod d)
    while Bob sits at the last setting.
    """
    d, m = spec.outcomes, spec.settings
    label = [[MeasLabel(s, k) for k in range(d)] for s in range(m)]
    pairs = {(label[s][k], label[s][k]) for s in range(m) for k in range(d)}
    pairs.update((label[s + 1][k], label[s][k]) for s in range(m - 1) for k in range(d))
    pairs.update((label[0][(k + 1) % d], label[m - 1][k]) for k in range(d))
    return pairs


def certificate_dict(report):
    """The schema-"2" certificate of ``report`` as a dict of JSON
    values, one dict per term, coefficient and winning pair: the
    document whose ``json.dumps(..., indent=2, sort_keys=True)`` the
    package's ``certificate_json`` must equal byte for byte."""
    ineq = report.inequality
    coefficients = ineq.coefficients
    return {
        "schema_version": "2",
        "spec": {
            "outcomes": report.spec.outcomes,
            "settings": report.spec.settings,
        },
        "terms": [
            {
                "alice_setting": a.setting,
                "alice_outcome": a.outcome,
                "bob_setting": b.setting,
                "bob_outcome": b.outcome,
            }
            for a, b in ineq.terms
        ],
        "classical_bound": int(ineq.classical_bound),
        "quantum_bound": float(ineq.quantum_bound),
        "optimal_state": {
            "coefficients": [
                {"re": re, "im": im}
                for re, im in zip(coefficients.real.tolist(), coefficients.imag.tolist())
            ],
            "rho": ineq.rho,
        },
        "per_term_probs": ineq.per_term_probs.tolist(),
        "game": {
            "questions": [
                {
                    "alice_setting": s,
                    "bob_setting": t,
                    "winning": [
                        {"alice_outcome": a, "bob_outcome": b}
                        for a, b in sorted(win)
                    ],
                }
                for (s, t), win in zip(report.game.questions, report.game.winning)
            ]
        },
        "stats": {
            "quantum_win": float(report.quantum_win),
            "classical_win": float(report.classical_win),
            "p": None
            if report.prediction_prob is None
            else float(report.prediction_prob),
            "I_ab": None
            if report.mutual_info_bits is None
            else float(report.mutual_info_bits),
        },
    }
