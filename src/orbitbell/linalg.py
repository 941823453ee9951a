"""Dense cross-check routes on the d^2 x d^2 two-party space.

``analyze`` runs none of these: ``verify`` and the tests compare each
with the matrix-free route of ``orbit`` or ``bounds``. This module
imports no ``orbitbell`` module, and only ``verify`` and the package
namespace import it, so the dense routes share no code with the
routes they check. It holds the shift T, the swap S, the step
operator B = (U (x) 1) S placed by index and as the dense product of
its definition, and the projector sum A with its LAPACK top
eigenvalue. Flat index j * d + k for |j>|k>.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "translation_matrix",
    "swap_matrix",
    "step_operator",
    "accumulate_A",
    "quantum_bound_numeric",
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
