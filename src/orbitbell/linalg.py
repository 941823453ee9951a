"""Dense complex linear algebra on small state spaces.

Everything operates on plain numpy arrays of complex128: vectors are
1-d, matrices 2-d. Composite indices follow the row-major convention
|j>|k> -> j * dim_b + k throughout the package.

There is no eigensolver here. The quantum bound's hot path needs none
(see the ``bounds`` module); its dense cross-check, run only by
``verify`` and the tests, calls LAPACK ``eigvalsh`` directly in
``bounds.quantum_bound_numeric``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "kron",
    "mat_power",
    "hermiticity_defect",
    "unitarity_defect",
]


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; |j>|k> lands at flat index j * dim_b + k."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def mat_power(m: np.ndarray, k: int) -> np.ndarray:
    """k-th matrix power, k >= 0; k = 0 gives the identity."""
    if k < 0:
        raise ValueError("negative matrix powers are not supported")
    return np.linalg.matrix_power(np.asarray(m, dtype=complex), k)


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation of m from its conjugate transpose."""
    m = np.asarray(m, dtype=complex)
    return float(np.max(np.abs(m - m.conj().T)))


def unitarity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation of m† m from the identity."""
    m = np.asarray(m, dtype=complex)
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[1]))))

