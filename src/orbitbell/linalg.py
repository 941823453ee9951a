"""Dense cross-check routes on the d^2 x d^2 two-party space.

``analyze`` runs none of these: ``verify`` and the tests compare each
with the matrix-free route of ``orbit`` or ``bounds``. This module
imports only ``orbit``, and only ``verify`` and the package namespace
import it, so the dense routes share no code with the ``bounds``
routes they check. It holds the shift T, the swap S, the step operator
B = (U (x) 1) S placed by index and as the dense product of its
definition, the projector sum A with its LAPACK top eigenvalue, the
shift's Fourier rows, and B's whole closed-form eigensystem, every
two-dimensional block built at once over index arrays, with its own
branch arithmetic. Flat index j * d + k for |j>|k>.
"""

from __future__ import annotations

import numpy as np

from .orbit import ProblemSpec, _root_table, _RootTable

__all__ = [
    "translation_matrix",
    "swap_matrix",
    "step_operator",
    "accumulate_A",
    "quantum_bound_numeric",
    "b_eigensystem",
]


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
    d = u.shape[0]
    # (U (x) 1)[(a, c), (j, k)] = U[a, j] 1[c, k], broadcast as np.kron forms it
    u_x_1 = u[:, None, :, None] * np.eye(d, dtype=complex)[None, :, None, :]
    return u_x_1.reshape(d * d, d * d) @ s


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


def _fourier(d: int) -> np.ndarray:
    """The shift's Fourier rows w_j, as one (d, d) array: row j has
    components exp(2*pi*i*j*k/d) / sqrt(d), and T w_j = exp(i theta_j) w_j
    with theta_j the principal phase of ``orbit._eigenphases``."""
    js = np.arange(d)
    return np.exp(2j * np.pi * js[:, None] * js / d) / np.sqrt(d)


def b_eigensystem(spec: ProblemSpec) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigensystem of the step operator B, as two arrays:
    the root indices, (d^2,) integers, and the eigenvectors, the rows
    of one (d^2, d^2) array. Row r has eigenvalue the root of unity
    exp(2*pi*i*root_indices[r] / (2*M*d)).

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


def _eigensystem(spec: ProblemSpec, table: _RootTable) -> tuple[np.ndarray, np.ndarray]:
    """:func:`b_eigensystem` from the instance's root table and the
    shift's Fourier rows (:func:`_fourier`), every block at once: the
    pairs j < k and their root indices as index arrays, and the vectors
    written straight into the (d^2, d^2) output."""
    d, order = spec.outcomes, spec.orbit_length
    half = order // 2  # = M * d
    ws, lambdas, indices = _fourier(d), table.lambdas, np.asarray(table.indices)

    roots = np.empty(d * d, dtype=np.int64)
    vectors = np.empty((d * d, d * d), dtype=complex)
    roots[:d] = indices
    np.multiply(ws[:, :, None], ws[:, None, :], out=vectors[:d].reshape(d, d, d))

    ramp = np.arange(d)
    j, k = np.nonzero(ramp[:, None] < ramp)  # the pairs j < k, in lexicographic order
    total = (indices[j] + indices[k]) % order
    if (total % 2).any():
        raise RuntimeError(
            "odd root-index sum in a two-dimensional block: branch arithmetic bug"
        )
    plus = (np.where(total <= half, total, total - order) // 2) % order
    roots[d::2] = plus
    roots[d + 1 :: 2] = (plus + half) % order
    # (w_j w_k +/- (mu / lambda_j) w_k w_j) / sqrt(2), mu the plus root;
    # pair p fills rows d + 2p (plus) and d + 2p + 1 (minus)
    blocks = vectors[d:].reshape(len(j), 2, d, d)
    plus_rows, minus_rows = blocks[:, 0], blocks[:, 1]
    np.multiply(ws[j][:, :, None], ws[k][:, None, :], out=plus_rows)  # w_j w_k
    swapped = ws[k][:, :, None] * ws[j][:, None, :]
    swapped *= (np.exp(2j * np.pi * plus / order) / lambdas[j])[:, None, None]
    np.subtract(plus_rows, swapped, out=minus_rows)
    plus_rows += swapped
    vectors[d:] /= np.sqrt(2)
    return roots, vectors
