"""Complex linear algebra primitives, checked against closed forms."""

import numpy as np
import pytest

from orbitbell import hermiticity_defect, kron, mat_power, unitarity_defect

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def test_kron_flat_index_convention():
    # |1>(x)|1> of two qubits sits at flat index 1*2 + 1 = 3
    e1 = np.array([0.0, 1.0], dtype=complex)
    v = kron(e1, e1)
    assert v.shape == (4,)
    assert v[3] == 1.0 and np.count_nonzero(v) == 1


def test_kron_matrix_example():
    big = kron(SX, SX)
    e0 = np.zeros(4, dtype=complex)
    e0[0] = 1.0
    out = big @ e0
    assert out[3] == 1.0 and np.count_nonzero(out) == 1


def test_kron_identities():
    assert np.allclose(kron(np.eye(2), np.eye(3)), np.eye(6))


def test_kron_associativity():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    left = kron(kron(a, b), c)
    right = kron(a, kron(b, c))
    assert np.max(np.abs(left - right)) <= 1e-13


def test_mat_power_zero_is_identity():
    assert np.allclose(mat_power(SX, 0), np.eye(2))


def test_mat_power_negative_rejected():
    with pytest.raises(ValueError):
        mat_power(SX, -1)


def test_mat_power_unitary_period():
    # the two-element cyclic shift squares to the identity
    assert np.max(np.abs(mat_power(SX, 2) - np.eye(2))) <= 1e-14


def test_defect_helpers():
    assert hermiticity_defect(SX) == 0.0
    assert hermiticity_defect(np.array([[0.0, 1.0], [0.0, 0.0]])) == 1.0
    assert unitarity_defect(SX) <= 1e-15
    assert unitarity_defect(2 * SX) == pytest.approx(3.0)
