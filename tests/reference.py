"""Reference routes that only the tests use, shared by several test
modules: the snap of one unit-modulus value to its root of unity, by
its phase, which checks the root table's integer root indices and the
eigenvalue of a reported state without the package's index arithmetic;
the loop forms of three whole-array routes: B's closed-form
eigensystem one block at a time, the classical enumeration's hit
tables one term at a time, and the M = 2 statistics one grid at a
time; and the factor forms of the orbit's first Gram row and per-term
probabilities, from the whole (n, d) factor arrays.
"""

import numpy as np

from orbitbell.orbit import _SNAP_TOL, _fourier


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


def eigensystem_by_pair(spec, table):
    """B's closed-form eigensystem one block at a time: the d diagonal
    products, then each pair j < k with its plus vector before its
    minus vector, each from two ``np.outer`` products; the reference
    that ``linalg._eigensystem``'s whole-array form is checked against.
    """
    d, order = spec.outcomes, spec.orbit_length
    half = order // 2
    ws, lambdas, indices = _fourier(d), table.lambdas, table.indices
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


def classical_bound_by_term(spec, terms):
    """``bounds.classical_bound``'s enumeration with each Bob setting's
    hit table filled one term at a time, by one broadcast ``+=`` per
    term: the reference for the ``np.bincount`` tables. Returns the
    value and the (alice_map, bob_map) witness, ties broken toward the
    lexicographically smallest table. No size guard."""
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
    """``games._two_setting_stats`` one grid at a time: four grid
    products, four mutual informations, and p summed one entry at a
    time in (s, t) order, then a order. Returns (p, I_ab, spread,
    grids) in the order of ``_TwoSettingStats``."""
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
