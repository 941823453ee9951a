"""Step operator, labels, and orbit structure.

Closed-form anchors: the qubit two-setting walk through all eight
labeled states, the qubit three-setting twelve-state walk, and the
explicit rotated bases for two and three outcomes.
"""

import importlib

import numpy as np
import pytest

from numpy import kron
from numpy.linalg import matrix_power as mat_power

from orbitbell import (
    MeasLabel,
    ProblemSpec,
    measurement_bases,
    orbit,
    root_unitary,
)
from orbitbell.cli import main as cli_main
from orbitbell.linalg import step_operator, swap_matrix, translation_matrix
from orbitbell.orbit import condition_label_pairs, fourier_eigenbasis, label_step

GRID = [(d, m) for d in range(2, 7) for m in range(1, 7)]

PLUS_X = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
MINUS_X = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2)


def unitarity_defect(m):
    """Largest entrywise deviation of m^H m from the identity."""
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[1]))))


def test_problem_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec(1, 2)
    with pytest.raises(ValueError):
        ProblemSpec(2, 0)
    spec = ProblemSpec(3, 2)
    assert spec.orbit_length == 12
    assert spec.hilbert_dim == 9
    # numpy integers are accepted and stored as plain ints
    spec = ProblemSpec(np.int64(3), np.int32(2))
    assert spec == ProblemSpec(3, 2)
    assert type(spec.outcomes) is int and type(spec.settings) is int


@pytest.mark.parametrize(
    "outcomes,settings", [(2.5, 2), (3, 1.5), (3.0, 2), (True, 2), (2, False), ("3", 2)]
)
def test_problem_spec_rejects_non_integers(outcomes, settings):
    with pytest.raises(TypeError, match="must be an integer"):
        ProblemSpec(outcomes, settings)


def test_translation_matrix_qutrit():
    t = translation_matrix(3)
    e0 = np.array([1, 0, 0], dtype=complex)
    assert np.allclose(t @ e0, [0, 1, 0])
    assert np.allclose(mat_power(t, 3), np.eye(3))


@pytest.mark.parametrize("d", range(2, 9))
def test_fourier_eigenbasis_diagonalizes_shift(d):
    t = translation_matrix(d)
    for j, (w, theta) in enumerate(fourier_eigenbasis(d)):
        assert np.max(np.abs(t @ w - np.exp(1j * theta) * w)) <= 1e-12
        assert np.linalg.norm(w) == pytest.approx(1.0)
        # phase lives in (-pi, pi], boundary pinned at +pi
        assert -np.pi < theta <= np.pi


def test_fourier_phases_examples():
    # two outcomes: the nontrivial eigenvalue -1 must be phase +pi
    phases2 = [theta for _, theta in fourier_eigenbasis(2)]
    assert phases2 == [0.0, np.pi]
    phases3 = [theta for _, theta in fourier_eigenbasis(3)]
    assert phases3[0] == 0.0
    assert phases3[1] == pytest.approx(-2 * np.pi / 3)
    assert phases3[2] == pytest.approx(2 * np.pi / 3)


def test_root_unitary_qubit_two_settings():
    u = root_unitary(ProblemSpec(2, 2))
    # U = |+x><+x| + i |-x><-x|
    expected = np.outer(PLUS_X, PLUS_X) + 1j * np.outer(MINUS_X, MINUS_X)
    assert np.max(np.abs(u - expected)) <= 1e-12
    # U|0> = (e^{i pi/4}|0> + e^{-i pi/4}|1>)/sqrt(2)
    v0 = np.array([np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)]) / np.sqrt(2)
    assert np.max(np.abs(u[:, 0] - v0)) <= 1e-12


@pytest.mark.parametrize("m", range(1, 9))
def test_root_unitary_qubit_general(m):
    u = root_unitary(ProblemSpec(2, m))
    expected = np.outer(PLUS_X, PLUS_X) + np.exp(1j * np.pi / m) * np.outer(
        MINUS_X, MINUS_X
    )
    assert np.max(np.abs(u - expected)) <= 1e-12


def test_root_unitary_qutrit_two_settings():
    spec = ProblemSpec(3, 2)
    u = root_unitary(spec)
    # eigenvalues 1, e^{-i pi/3}, e^{i pi/3} on the shift eigenbasis
    for j, (w, _) in enumerate(fourier_eigenbasis(3)):
        lam = [1.0, np.exp(-1j * np.pi / 3), np.exp(1j * np.pi / 3)][j]
        assert np.max(np.abs(u @ w - lam * w)) <= 1e-12
    # rotated basis vectors: columns of U
    assert np.allclose(u[:, 0], np.array([2, 2, -1]) / 3, atol=1e-12)
    assert np.allclose(u[:, 1], np.array([-1, 2, 2]) / 3, atol=1e-12)
    # U|2> = (2|0> - |1> + 2|2>)/3; the 1/3 prefactor is forced by
    # normalization (a 1/2 prefactor would give norm 3/2, not 1)
    assert np.allclose(u[:, 2], np.array([2, -1, 2]) / 3, atol=1e-12)


@pytest.mark.parametrize("d,m", [(d, m) for d in range(2, 9) for m in range(1, 9)])
def test_root_unitary_power_is_shift(d, m):
    spec = ProblemSpec(d, m)
    u = root_unitary(spec)
    t = translation_matrix(d)
    assert np.max(np.abs(mat_power(u, m) - t)) <= 1e-11
    assert unitarity_defect(u) <= 1e-12


def test_measurement_basis():
    spec = ProblemSpec(2, 2)
    bases = measurement_bases(root_unitary(spec), spec.settings)
    assert len(bases) == 2
    assert np.allclose(bases[0], np.eye(2))
    b1 = bases[1]
    v0 = np.array([np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)]) / np.sqrt(2)
    v1 = np.array([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)]) / np.sqrt(2)
    assert np.max(np.abs(b1[:, 0] - v0)) <= 1e-12
    assert np.max(np.abs(b1[:, 1] - v1)) <= 1e-12


def test_swap_matrix():
    s = swap_matrix(2)
    e01 = np.zeros(4, dtype=complex)
    e01[0 * 2 + 1] = 1.0
    out = s @ e01
    assert out[1 * 2 + 0] == 1.0 and np.count_nonzero(out) == 1
    # swapping twice is the identity, and products swap coordinates
    assert np.allclose(s @ s, np.eye(4))
    rng = np.random.default_rng(3)
    a = rng.normal(size=3) + 1j * rng.normal(size=3)
    b = rng.normal(size=3) + 1j * rng.normal(size=3)
    s3 = swap_matrix(3)
    assert np.max(np.abs(s3 @ kron(a, b) - kron(b, a))) <= 1e-13


@pytest.mark.parametrize("d,m", GRID)
def test_step_operator_structure(d, m):
    spec = ProblemSpec(d, m)
    u = root_unitary(spec)
    b = step_operator(u)
    assert unitarity_defect(b) <= 1e-12
    # B placed entry by entry equals (U (x) 1) S formed as a matrix product
    assert np.array_equal(b, kron(u, np.eye(d)) @ swap_matrix(d))
    # B^2 = U (x) U
    assert np.max(np.abs(b @ b - kron(u, u))) <= 1e-12
    # period 2*M*d
    assert np.max(np.abs(mat_power(b, spec.orbit_length) - np.eye(d * d))) <= 1e-10


def test_label_step_increments_setting():
    spec = ProblemSpec(2, 2)
    alice, bob = label_step(MeasLabel(0, 0), MeasLabel(0, 0), spec)
    assert alice == MeasLabel(1, 0) and bob == MeasLabel(0, 0)


def test_label_step_wraps_outcome():
    spec = ProblemSpec(2, 2)
    # bob at the last setting: one more step bumps the outcome mod d
    alice, bob = label_step(MeasLabel(0, 1), MeasLabel(1, 1), spec)
    assert alice == MeasLabel(0, 0) and bob == MeasLabel(0, 1)


def test_orbit_qubit_two_settings_walk():
    # all eight labeled states in order
    entries = orbit(ProblemSpec(2, 2))
    labels = [(e.alice, e.bob) for e in entries]
    assert labels == [
        (MeasLabel(0, 0), MeasLabel(0, 0)),
        (MeasLabel(1, 0), MeasLabel(0, 0)),
        (MeasLabel(1, 0), MeasLabel(1, 0)),
        (MeasLabel(0, 1), MeasLabel(1, 0)),
        (MeasLabel(0, 1), MeasLabel(0, 1)),
        (MeasLabel(1, 1), MeasLabel(0, 1)),
        (MeasLabel(1, 1), MeasLabel(1, 1)),
        (MeasLabel(0, 0), MeasLabel(1, 1)),
    ]


def test_orbit_qubit_three_settings_walk():
    entries = orbit(ProblemSpec(2, 3))
    labels = [(e.alice, e.bob) for e in entries]
    assert labels == [
        (MeasLabel(0, 0), MeasLabel(0, 0)),
        (MeasLabel(1, 0), MeasLabel(0, 0)),
        (MeasLabel(1, 0), MeasLabel(1, 0)),
        (MeasLabel(2, 0), MeasLabel(1, 0)),
        (MeasLabel(2, 0), MeasLabel(2, 0)),
        (MeasLabel(0, 1), MeasLabel(2, 0)),
        (MeasLabel(0, 1), MeasLabel(0, 1)),
        (MeasLabel(1, 1), MeasLabel(0, 1)),
        (MeasLabel(1, 1), MeasLabel(1, 1)),
        (MeasLabel(2, 1), MeasLabel(1, 1)),
        (MeasLabel(2, 1), MeasLabel(2, 1)),
        (MeasLabel(0, 0), MeasLabel(2, 1)),
    ]


def test_orbit_single_setting_walk():
    # hand iteration of label_step from ((0,0),(0,0)) for d=2, M=1
    entries = orbit(ProblemSpec(2, 1))
    labels = [(e.alice, e.bob) for e in entries]
    assert labels == [
        (MeasLabel(0, 0), MeasLabel(0, 0)),
        (MeasLabel(0, 1), MeasLabel(0, 0)),
        (MeasLabel(0, 1), MeasLabel(0, 1)),
        (MeasLabel(0, 0), MeasLabel(0, 1)),
    ]
    # with one setting U = T, so the orbit is the computational basis
    expected = np.eye(4)
    for e, col in zip(entries, [0, 2, 3, 1]):
        assert np.max(np.abs(e.vector - expected[:, col])) <= 1e-12


@pytest.mark.parametrize("d,m", GRID)
def test_orbit_invariants(d, m):
    spec = ProblemSpec(d, m)
    entries = orbit(spec)
    assert len(entries) == spec.orbit_length
    labels = [(e.alice, e.bob) for e in entries]
    assert len(set(labels)) == len(labels)
    # closes back onto the start
    assert label_step(entries[-1].alice, entries[-1].bob, spec) == labels[0]
    # unit vectors, steps numbered consecutively
    for j, e in enumerate(entries):
        assert e.step == j
        assert np.linalg.norm(e.vector) == pytest.approx(1.0, abs=1e-12)
    # exactly the three membership families
    assert set(labels) == condition_label_pairs(spec)


@pytest.mark.parametrize("d", range(2, 7))
def test_orbit_two_settings_setting_pair_counts(d):
    # with M = 2 every one of the four setting pairs carries d terms
    entries = orbit(ProblemSpec(d, 2))
    counts = {}
    for e in entries:
        counts[(e.alice.setting, e.bob.setting)] = (
            counts.get((e.alice.setting, e.bob.setting), 0) + 1
        )
    assert counts == {(0, 0): d, (1, 0): d, (1, 1): d, (0, 1): d}


def test_condition_label_pairs_single_setting():
    pairs = condition_label_pairs(ProblemSpec(2, 1))
    assert pairs == {
        (MeasLabel(0, 0), MeasLabel(0, 0)),
        (MeasLabel(0, 1), MeasLabel(0, 1)),
        (MeasLabel(0, 1), MeasLabel(0, 0)),
        (MeasLabel(0, 0), MeasLabel(0, 1)),
    }


def test_orbit_check_names_the_first_wrong_step(monkeypatch, capsys):
    # a label walk that goes wrong mid-orbit trips the label/vector
    # check at exactly that step, in the library and through the CLI
    spec = ProblemSpec(3, 2)
    good = [(e.alice, e.bob) for e in orbit(spec)]
    orbit_module = importlib.import_module("orbitbell.orbit")
    real_step = orbit_module.label_step

    def faulty_step(alice, bob, spec):
        stepped = real_step(alice, bob, spec)
        if stepped == good[5]:
            a, b = stepped
            return a, MeasLabel(b.setting, (b.outcome + 1) % spec.outcomes)
        return stepped

    monkeypatch.setattr(orbit_module, "label_step", faulty_step)
    with pytest.raises(RuntimeError, match="disagree at step 5 "):
        orbit(spec)
    rc = cli_main(["analyze", "--outcomes", "3", "--settings", "2"])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == ""
    assert captured.err.startswith("error: internal consistency check failed:")
    assert "disagree at step 5 " in captured.err


def test_orbit_check_covers_the_closing_step(monkeypatch, capsys):
    # a label walk that fails only to return to the seed trips the
    # check at step n = 2*M*d, in the library and through the CLI
    spec = ProblemSpec(3, 2)
    n = spec.orbit_length
    good = [(e.alice, e.bob) for e in orbit(spec)]
    orbit_module = importlib.import_module("orbitbell.orbit")
    real_step = orbit_module.label_step

    def faulty_step(alice, bob, spec):
        stepped = real_step(alice, bob, spec)
        if (alice, bob) == good[-1]:
            a, b = stepped
            return a, MeasLabel(b.setting, (b.outcome + 1) % spec.outcomes)
        return stepped

    monkeypatch.setattr(orbit_module, "label_step", faulty_step)
    with pytest.raises(RuntimeError, match=f"disagree at step {n} "):
        orbit(spec)
    rc = cli_main(["analyze", "--outcomes", "3", "--settings", "2"])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == ""
    assert captured.err.startswith("error: internal consistency check failed:")
    assert f"disagree at step {n} " in captured.err


def test_orbit_check_catches_a_wrong_basis_column(monkeypatch, capsys):
    # step 1 is Alice at (1, 0), Bob at (0, 0): a perturbed column 0 of
    # setting 1 makes v_1 differ from B v_0 = U|0> (x) |0>, which the
    # step check forms from U itself
    spec = ProblemSpec(3, 2)
    orbit_module = importlib.import_module("orbitbell.orbit")
    real_bases = orbit_module.measurement_bases

    def perturbed_bases(u, settings):
        bases = [b.copy() for b in real_bases(u, settings)]
        bases[1][:, 0] += 1e-6
        return bases

    monkeypatch.setattr(orbit_module, "measurement_bases", perturbed_bases)
    with pytest.raises(RuntimeError, match="disagree at step 1 "):
        orbit(spec)
    rc = cli_main(["analyze", "--outcomes", "3", "--settings", "2"])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == ""
    assert "disagree at step 1 " in captured.err


def per_row_reference(d, m):
    """Reference: the Fourier rows, their phases, U's eigenvalues and U,
    built one row at a time, each phase and eigenvalue a Python scalar
    and U summed term by term."""
    ks = np.arange(d)
    rows, thetas, lambdas = [], [], []
    u = np.zeros((d, d), dtype=complex)
    for j in range(d):
        w = np.exp(2j * np.pi * j * ks / d) / np.sqrt(d)
        if 2 * j < d:
            theta = -2.0 * np.pi * j / d
        elif 2 * j == d:
            theta = np.pi
        else:
            theta = 2.0 * np.pi * (d - j) / d
        lam = np.exp(1j * float(theta) / m)
        u += lam * np.outer(w, w.conj())
        rows.append(w)
        thetas.append(float(theta))
        lambdas.append(lam)
    return np.array(rows), thetas, np.array(lambdas), u


@pytest.mark.parametrize("d", range(2, 65))
def test_root_table_is_bit_identical_to_the_per_row_loop(d):
    orbit_module = importlib.import_module("orbitbell.orbit")
    for m in range(1, 17):
        rows, thetas, lambdas, u = per_row_reference(d, m)
        table = orbit_module._root_table(ProblemSpec(d, m))
        assert table.rows.tobytes() == rows.tobytes()
        assert table.lambdas.tobytes() == lambdas.tobytes()
        assert table.u.tobytes() == u.tobytes()
        assert root_unitary(ProblemSpec(d, m)).tobytes() == u.tobytes()
    basis = fourier_eigenbasis(d)
    assert [theta for _, theta in basis] == thetas
    assert all(type(theta) is float for _, theta in basis)
    assert np.array([w for w, _ in basis]).tobytes() == rows.tobytes()


def test_wrong_root_index_is_caught_by_the_snap(monkeypatch, capsys):
    # an index arithmetic that is one off at a single row no longer
    # names lambda_j, and the table refuses to be built
    orbit_module = importlib.import_module("orbitbell.orbit")
    real_indices = orbit_module._root_indices

    def one_off(d, order):
        indices = real_indices(d, order)
        indices[1] = (indices[1] + 1) % order
        return indices

    monkeypatch.setattr(orbit_module, "_root_indices", one_off)
    with pytest.raises(RuntimeError, match="root table: lambda_1 "):
        root_unitary(ProblemSpec(3, 2))
    rc = cli_main(["analyze", "--outcomes", "3", "--settings", "2"])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == ""
    assert captured.err.startswith("error: internal consistency check failed:")
    assert "root table: lambda_1 " in captured.err
