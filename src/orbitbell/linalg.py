"""Dense cross-check routes on the d^2 x d^2 two-party space.

``analyze`` runs none of these: ``verify`` and the tests compare each
with the matrix-free route of ``orbit`` or ``bounds``. This module
imports from those two, never the reverse. It holds the shift T, the
swap S, the step operator B = (U (x) 1) S placed by index and as the
dense product of its definition, the projector sum A with its LAPACK
top eigenvalue, B's whole closed-form eigensystem, and the snap of one
eigenvalue to its root of unity. Flat index j * d + k for |j>|k>.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import _block_roots, _block_vectors
from .orbit import _SNAP_TOL, ProblemSpec, _root_table, _RootTable

__all__ = [
    "EigenPair",
    "translation_matrix",
    "swap_matrix",
    "step_operator",
    "root_of_unity_index",
    "accumulate_A",
    "quantum_bound_numeric",
    "b_eigensystem",
]


@dataclass(frozen=True)
class EigenPair:
    """Eigenvector of the step operator; eigenvalue is the root of unity
    exp(2*pi*i*root_index / (2*M*d))."""

    root_index: int
    vector: np.ndarray


def translation_matrix(d: int) -> np.ndarray:
    """Cyclic shift T with T|j> = |j+1 mod d>."""
    t = np.zeros((d, d), dtype=complex)
    for j in range(d):
        t[(j + 1) % d, j] = 1.0
    return t


def swap_matrix(d: int) -> np.ndarray:
    """Party exchange S with S|j>|k> = |k>|j>."""
    s = np.zeros((d * d, d * d), dtype=complex)
    for j in range(d):
        for k in range(d):
            s[k * d + j, j * d + k] = 1.0
    return s


def step_operator(u: np.ndarray) -> np.ndarray:
    """Orbit generator B = (U (x) 1) S from the root unitary U.
    Satisfies B^2 = U (x) U.

    B|j>|k> = (U|k>)|j>, so entry ((a, c), (j, k)) is U[a, k] when
    c = j and 0 otherwise: placed by index in O(d^4), without forming
    the dense product of :func:`_step_product`.
    """
    d = u.shape[0]
    b = np.zeros((d, d, d, d), dtype=complex)
    diag = np.arange(d)
    b[:, diag, diag, :] = u[:, None, :]
    return b.reshape(d * d, d * d)


def _step_product(u: np.ndarray, s: np.ndarray) -> np.ndarray:
    """B as the dense product (U (x) 1) S, its definition, with ``s``
    the swap of :func:`swap_matrix`; the verification sweep checks
    :func:`step_operator` against it."""
    return np.kron(u, np.eye(u.shape[0], dtype=complex)) @ s


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


def accumulate_A(vectors: np.ndarray) -> np.ndarray:
    """Sum of projectors onto the orbit states, as one product V^T conj(V)
    over the (n, d^2) array V whose rows are the orbit vectors."""
    return vectors.T @ vectors.conj()


def quantum_bound_numeric(a: np.ndarray) -> float:
    """Top eigenvalue of the projector sum, by LAPACK ``eigvalsh``.

    Raises ValueError if ``a`` is not square or not Hermitian within
    1e-12 (a NaN entry counts as not Hermitian).
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    defect = float(np.max(np.abs(a - a.conj().T)))
    if not defect <= 1e-12:
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
    Order: the d diagonal vectors, then each pair j < k with its plus
    vector before its minus vector.
    """
    return _eigensystem(spec, _root_table(spec))


def _eigensystem(spec: ProblemSpec, table: _RootTable) -> list[EigenPair]:
    """:func:`b_eigensystem` from the instance's root table."""
    d, order = spec.outcomes, spec.orbit_length
    ws, lambdas, indices = table.rows, table.lambdas, table.indices

    pairs: list[EigenPair] = []
    for j in range(d):
        pairs.append(EigenPair(indices[j], np.outer(ws[j], ws[j]).ravel()))
    for j in range(d):
        for k in range(j + 1, d):
            plus, minus = _block_roots(indices[j], indices[k], order)
            vp, vm = _block_vectors(ws[j], ws[k], lambdas[j], plus, order)
            pairs.append(EigenPair(plus, vp))
            pairs.append(EigenPair(minus, vm))
    return pairs
