"""Cross-check routes on the d^2-dimensional two-party space.

``analyze`` runs none of these: ``verify`` and the tests compare each
with the matrix-free route of ``orbit``, ``bounds`` or ``games``. This
module imports no ``orbitbell`` module, and of the package's modules
only ``verify`` imports it, so these routes share no code with the
routes they check. It holds the shift T, the step B = (U (x) 1) S
applied by its definition, an axis swap and then U, with no
d^2 x d^2 matrix, the dense projector sum A, the orbit's n x n Gram
matrix G, which has A's nonzero spectrum, the LAPACK top eigenvalue
of a Hermitian matrix, A or G, and the dense M = 2 forms: the d x d
outcome grid of a state's d^2 amplitudes in one basis per party, and
the mutual information of such grids, which ``verify`` checks the
circulant statistics of ``games`` against. Flat index j * d + k for
|j>|k>.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "translation_matrix",
    "apply_step",
    "accumulate_A",
    "quantum_bound_numeric",
    "joint_distribution",
    "mutual_information",
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


def _gram(alice: np.ndarray, bob: np.ndarray) -> np.ndarray:
    """The orbit's n x n Gram matrix G = conj(V) V^T, entry (j, k)
    <v_j|v_k> = <a_j|a_k> <b_j|b_k>, from the (n, d) factor arrays
    alice[j] = a_j and bob[j] = b_j, with no state formed. It has the
    nonzero spectrum and the trace of the d^2 x d^2 projector sum
    A = V^T conj(V)."""
    return (alice.conj() @ alice.T) * (bob.conj() @ bob.T)


def quantum_bound_numeric(a: np.ndarray) -> float:
    """Top eigenvalue of the projector sum, or of any Hermitian matrix
    such as the orbit's Gram matrix, by LAPACK ``eigvalsh``.

    Raises ValueError if ``a`` is not square or not Hermitian within
    1e-12 (a NaN entry counts as not Hermitian). The Hermitian test
    holds one complex array of ``a``'s size beside it: the conjugate
    transpose, from which ``a`` is subtracted, whose real and imaginary
    halves are squared in place as one float view and summed into the
    real halves, freed before ``eigvalsh`` copies ``a``.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    asymmetry = np.conjugate(a.T, order="C")  # C-ordered whatever a's layout
    asymmetry -= a
    parts = asymmetry.view(float)  # each row's real and imaginary halves, interleaved
    parts *= parts
    squares = parts[:, ::2]
    squares += parts[:, 1::2]
    defect = float(np.sqrt(squares.max()))
    del asymmetry, parts, squares
    if not defect <= 1e-12:
        raise ValueError(
            f"matrix is not Hermitian: max asymmetry {defect:.3e} "
            "exceeds tolerance 1e-12"
        )
    return float(np.linalg.eigvalsh(a)[-1])


def joint_distribution(
    state: np.ndarray, alice_basis: np.ndarray, bob_basis: np.ndarray
) -> np.ndarray:
    """d x d outcome distribution of ``state``, d^2 amplitudes in
    flat-index order, measured in one basis per party (columns are the
    outcomes; setting s measures in the columns of U^s, with U the
    instance's root unitary).

    The bases broadcast over their leading axes, so stacks of bases
    give the stack of grids in one product: with ``bases`` the stack
    (I, U), ``bases[:, None]`` against ``bases[None, :]`` gives the
    four grids, indexed [s, t]."""
    d = alice_basis.shape[-1]
    alice = alice_basis.conj().swapaxes(-1, -2)
    amplitudes = alice @ state.reshape(d, d) @ bob_basis.conj()
    return np.abs(amplitudes) ** 2


def mutual_information(joint: np.ndarray) -> float | np.ndarray:
    """Mutual information, in bits, of a joint outcome distribution.

    Reduces over the last two axes: a float for one d x d grid, an
    array of values for a stack of grids. Zero probabilities contribute
    zero. Entries below -1e-12, and NaN entries, in any grid are
    rejected; tiny negative roundoff is clipped.
    """
    p = np.asarray(joint, dtype=float)
    low = float(p.min())
    if not low >= -1e-12:
        raise ValueError(f"negative probability entry {low:.3e} in joint grid")
    p = np.clip(p, 0.0, None)
    denom = p.sum(axis=-1)[..., :, None] * p.sum(axis=-2)[..., None, :]
    mask = p > 0.0
    # a zero entry's ratio is 1/1, so its term is 0 * log2(1) = 0
    ratio = np.where(mask, p, 1.0) / np.where(mask, denom, 1.0)
    info = np.sum(p * np.log2(ratio), axis=(-2, -1))
    return float(info) if info.ndim == 0 else info
