"""Cross-check routes on the d^2-dimensional two-party space.

``analyze`` runs none of these: ``verify`` and the tests compare each
with the matrix-free route of ``orbit`` or ``bounds``. This module
imports no ``orbitbell`` module, and only ``verify`` and the package
namespace import it, so these routes share no code with the routes
they check. It holds the shift T, the step B = (U (x) 1) S applied by
its definition, an axis swap and then U, with no d^2 x d^2 matrix, the
dense projector sum A, and the LAPACK top eigenvalue of a Hermitian
matrix, A or the orbit's n x n Gram matrix, which has A's nonzero
spectrum. Flat index j * d + k for |j>|k>.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "translation_matrix",
    "apply_step",
    "accumulate_A",
    "quantum_bound_numeric",
]


def translation_matrix(d: int) -> np.ndarray:
    """Cyclic shift T with T|j> = |j+1 mod d>."""
    t = np.zeros((d, d), dtype=complex)
    for j in range(d):
        t[(j + 1) % d, j] = 1.0
    return t


def apply_step(u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """B = (U (x) 1) S applied to one d^2 vector ``x``, or to each row of
    an (n, d^2) array, by its definition: S swaps the two parties' axes
    of x in d x d form, and U acts on the first, so B X = U X^T, with
    no d^2 x d^2 matrix. B is unitary when U is, and B B = U (x) U."""
    d = u.shape[0]
    return (u @ x.reshape(-1, d, d).swapaxes(-1, -2)).reshape(x.shape)


def accumulate_A(vectors: np.ndarray) -> np.ndarray:
    """Sum of projectors onto the orbit states, as one product V^T conj(V)
    over the (n, d^2) array V whose rows are the orbit vectors."""
    return vectors.T @ vectors.conj()


def quantum_bound_numeric(a: np.ndarray) -> float:
    """Top eigenvalue of the projector sum, or of any Hermitian matrix
    such as the orbit's Gram matrix, by LAPACK ``eigvalsh``.

    Raises ValueError if ``a`` is not square or not Hermitian within
    1e-12 (a NaN entry counts as not Hermitian). The Hermitian test
    holds one complex array of ``a``'s size beside it: the conjugate
    transpose, from which ``a`` is subtracted and whose magnitudes are
    taken in place, freed before ``eigvalsh`` copies ``a``.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    asymmetry = a.conj().T
    asymmetry -= a
    defect = float(np.abs(asymmetry, out=asymmetry).real.max())
    del asymmetry
    if not defect <= 1e-12:
        raise ValueError(
            f"matrix is not Hermitian: max asymmetry {defect:.3e} "
            "exceeds tolerance 1e-12"
        )
    return float(np.linalg.eigvalsh(a)[-1])
