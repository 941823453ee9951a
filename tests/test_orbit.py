"""Step operator, labels, and orbit structure.

Closed-form anchors: the qubit two-setting walk through all eight
labeled states, the qubit three-setting twelve-state walk, and the
explicit rotated bases for two and three outcomes.
"""

import importlib
import tracemalloc

import numpy as np
import pytest

from numpy import kron
from numpy.linalg import matrix_power as mat_power

from orbitbell import MeasLabel, ProblemSpec, orbit, root_unitary
from orbitbell.bounds import build_inequality
from orbitbell.cli import main as cli_main
from orbitbell.linalg import apply_step, translation_matrix
from orbitbell.orbit import (
    InstanceTooLarge,
    _check_size,
    _eigenphases,
    _factor_indices,
    _gather,
    _labels,
    _root_table,
    _states,
)
from reference import (
    condition_label_pairs,
    fourier_rows,
    label_step,
    measurement_bases,
    step_operator,
    swap_matrix,
)

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
    # the Fourier rows with the phases of the root table's snap
    t = translation_matrix(d)
    for w, theta in zip(fourier_rows(d), _eigenphases(d)):
        assert np.max(np.abs(t @ w - np.exp(1j * theta) * w)) <= 1e-12
        assert np.linalg.norm(w) == pytest.approx(1.0)
        # phase lives in (-pi, pi], boundary pinned at +pi
        assert -np.pi < theta <= np.pi


def test_fourier_phases_examples():
    # two outcomes: the nontrivial eigenvalue -1 must be phase +pi
    phases2 = _eigenphases(2).tolist()
    assert phases2 == [0.0, np.pi]
    phases3 = _eigenphases(3).tolist()
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
    for j, w in enumerate(fourier_rows(3)):
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


@pytest.mark.parametrize("d,m", [(d, m) for d in range(2, 17) for m in (1, 2, 3)])
def test_apply_step_equals_the_dense_step_operator(d, m):
    # B applied by its definition, an axis swap and then U, against the
    # dense B placed by index and the product (U (x) 1) S
    u = root_unitary(ProblemSpec(d, m))
    dense = step_operator(u)
    assert np.array_equal(dense, kron(u, np.eye(d)) @ swap_matrix(d))
    # row i of the stepped identity is B e_i, column i of B
    assert np.array_equal(apply_step(u, np.eye(d * d, dtype=complex)).T, dense)
    rng = np.random.default_rng(100 * d + m)
    rows = rng.normal(size=(3, d * d)) + 1j * rng.normal(size=(3, d * d))
    stepped = apply_step(u, rows)
    assert stepped.shape == rows.shape
    assert np.max(np.abs(stepped - rows @ dense.T)) <= 1e-13
    # one d^2 vector keeps its shape
    single = apply_step(u, rows[0])
    assert single.shape == (d * d,)
    assert np.max(np.abs(single - dense @ rows[0])) <= 1e-13


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


@pytest.mark.parametrize("d", range(2, 13))
def test_index_rule_matches_the_label_walk_and_the_powers_of_u(d):
    # the orbit names state j by one index rule; label_step, iterated
    # 2*M*d times from ((0,0),(0,0)), is the one-step reference, and
    # c_k = roll(u_(k mod M), k div M) is U^k|0> with U^k formed by
    # repeated products
    for m in range(1, 9):
        spec = ProblemSpec(d, m)
        table = _root_table(spec)
        split = np.divmod(_factor_indices(spec), m)
        labels = _labels(spec, split)
        terms = build_inequality(spec).terms
        factors = _gather(spec, table, np.arange(d), split)
        alice, bob = factors[1:], factors[:-1]
        pair, walk = (MeasLabel(0, 0), MeasLabel(0, 0)), []
        for _ in range(spec.orbit_length):
            walk.append(pair)
            pair = label_step(*pair, spec)
        assert terms == tuple(walk)
        assert labels.tolist() == [[*a, *b] for a, b in walk]
        assert pair == walk[0]
        # each factor is its setting's first column rolled by its
        # outcome, gathered unchanged
        for (a, b), a_j, b_j in zip(terms, alice, bob):
            assert np.array_equal(a_j, np.roll(table.firsts[a.setting], a.outcome))
            assert np.array_equal(b_j, np.roll(table.firsts[b.setting], b.outcome))
        assert table.firsts.shape == (m + 1, d)
        power = np.eye(d, dtype=complex)
        for k in range(m * d):
            column = np.roll(table.firsts[k % m], k // m)
            assert np.max(np.abs(column - power[:, 0])) <= 1e-10
            power = power @ table.u


def test_orbit_is_held_as_labels_and_two_factor_arrays():
    # the whole factors take O(n d) memory, not the n states of d^2
    # entries: the gather's peak stays below the 16 n d^2 bytes of the
    # states alone; entry 0 alone, analyze's Gram row, takes O(n), below
    # the 16 n d bytes of one (n, d) factor array
    spec = ProblemSpec(32, 2)
    n, d = spec.orbit_length, spec.outcomes
    table = _root_table(spec)
    split = np.divmod(_factor_indices(spec), spec.settings)
    gathered, peaks = [], []
    for entries in (np.arange(d), np.zeros(1, dtype=int)):
        tracemalloc.start()
        try:
            gathered.append(_gather(spec, table, entries, split))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 16 * n * d**2
    assert peaks[1] < 16 * n * d
    factors, heads = gathered
    assert heads.shape == (n + 1, 1) and np.array_equal(heads[:, 0], factors[:, 0])
    labels, alice, bob = _labels(spec, split), factors[1:], factors[:-1]
    # one int64 label row per term, and the report's tuple view of them:
    # plain pairs of labels, not OrbitEntry (a tuple subclass)
    assert type(labels) is np.ndarray and labels.dtype == np.int64 and labels.shape == (n, 4)
    terms = build_inequality(spec).terms
    assert type(terms) is tuple and len(terms) == n
    assert all(
        type(pair) is tuple and [type(label) for label in pair] == [MeasLabel] * 2
        for pair in terms
    )
    for array in (alice, bob):
        assert type(array) is np.ndarray
        assert array.shape == (n, d) and array.dtype == complex
    # the public orbit is the same labels and their products
    entries = orbit(spec)
    assert terms == tuple((e.alice, e.bob) for e in entries)
    assert labels.tolist() == [[*e.alice, *e.bob] for e in entries]
    assert _states(alice, bob).tobytes() == np.array([e.vector for e in entries]).tobytes()


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


def perturb_alice_index(monkeypatch, row):
    """Make the orbit's index rule name Alice's factor at ``row`` one
    outcome on, column index + M (mod M*d). Alice's index at row j is
    entry j + 1 of the rule, which is also Bob's at row j + 1. Patched
    in the orbit module and in ``bounds``, whose assembly computes the
    sequence once for the labels and the Gram row."""
    orbit_module = importlib.import_module("orbitbell.orbit")
    real_indices = orbit_module._factor_indices

    def faulty_indices(spec):
        index = real_indices(spec).copy()
        period = spec.settings * spec.outcomes
        index[row + 1] = (index[row + 1] + spec.settings) % period
        return index

    for module in (orbit_module, importlib.import_module("orbitbell.bounds")):
        monkeypatch.setattr(module, "_factor_indices", faulty_indices)


def perturb_columns(monkeypatch, perturb):
    """Apply ``perturb`` to the root table's first columns in place as
    the table is built, before its column check reads them."""
    orbit_module = importlib.import_module("orbitbell.orbit")
    real_check = orbit_module._check_columns

    def perturbed(table):
        perturb(table.firsts)
        real_check(table)

    monkeypatch.setattr(orbit_module, "_check_columns", perturbed)


def assert_analyze_exits_4(capsys, d, m, message):
    rc = cli_main(["analyze", "--outcomes", str(d), "--settings", str(m)])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == ""
    assert captured.err.startswith("error: internal consistency check failed:")
    assert message in captured.err


def test_orbit_check_names_the_first_wrong_step(monkeypatch, capsys):
    # an index rule that goes wrong mid-orbit leaves the root table, and
    # so its column check, alone; the Gram row, gathered by the same
    # rule, then no longer describes the orbit of B, and the route
    # agreement refuses it, in the library and through the CLI
    spec = ProblemSpec(3, 2)
    perturb_alice_index(monkeypatch, 5)
    with pytest.raises(RuntimeError, match=r"routes disagree: Gram spectrum 3\.0 vs"):
        build_inequality(spec)
    assert_analyze_exits_4(capsys, 3, 2, "routes disagree")


@pytest.mark.parametrize("column, claim", [(2, "U u_1 = u_2"), (0, "u_0 = |0>")])
def test_column_check_names_the_first_wrong_column(monkeypatch, capsys, column, claim):
    # u_2 off at (3, 4): U u_1 = u_2 fails first, and U u_2 = u_3 after
    # it; u_0 off fails its own row, before U u_0 = u_1
    def off(firsts):
        firsts[column, 1] += 1e-6

    perturb_columns(monkeypatch, off)
    with pytest.raises(RuntimeError) as raised:
        orbit(ProblemSpec(3, 4))
    assert str(raised.value) == (
        f"root table: {claim} fails (max deviation 1.000e-06 exceeds 1e-10): "
        "index-convention bug"
    )
    assert_analyze_exits_4(capsys, 3, 4, f"{claim} fails")


def test_orbit_check_covers_the_closing_step(monkeypatch, capsys):
    # the orbit closes after n = 2*M*d steps because u_M = T|0>: powers
    # of e^(i/10) U, each column u_s turned by e^(i s/10), pass every
    # U u_s = u_(s+1) row, and only the closing row refuses them, in
    # the library and through the CLI
    def turned(firsts):
        firsts *= np.exp(0.1j * np.arange(len(firsts)))[:, None]

    perturb_columns(monkeypatch, turned)
    with pytest.raises(RuntimeError, match=r"root table: u_2 = T\|0> fails"):
        orbit(ProblemSpec(3, 2))
    assert_analyze_exits_4(capsys, 3, 2, "u_2 = T|0> fails")


def test_orbit_check_catches_a_wrong_basis_column(monkeypatch, capsys):
    # u_1 = U|0> 1e-6 off at entry 0 moves U by 1e-6 times the identity,
    # since U is the circulant of u_1: U u_0 = u_1 holds, both perturbed
    # alike, and U u_1 = u_2, the first row that compares with an
    # unperturbed column, u_2 = T|0>, finds it about 2e-6 u_1 off
    def off(firsts):
        firsts[1, 0] += 1e-6

    perturb_columns(monkeypatch, off)
    with pytest.raises(RuntimeError, match="U u_1 = u_2 fails"):
        orbit(ProblemSpec(3, 2))
    assert_analyze_exits_4(capsys, 3, 2, "U u_1 = u_2 fails")


def per_row_reference(d, m):
    """Reference: the Fourier rows, their phases and U, built one row at
    a time. Each phase is a Python scalar, each eigenvalue of U the
    exact index power exp(2*pi*i*r_j/n) of its integer root index r_j,
    n = 2*M*d, and U the circulant of u_1 = ifft(lambda), filled one
    entry at a time; also U as the sum of lambda_j w_j w_j^H, term by
    term."""
    ks = np.arange(d)
    n = 2 * m * d
    rows, thetas, lambdas = [], [], []
    summed = np.zeros((d, d), dtype=complex)
    for j in range(d):
        w = np.exp(2j * np.pi * j * ks / d) / np.sqrt(d)
        if 2 * j < d:
            theta, r = -2.0 * np.pi * j / d, (-2 * j) % n
        elif 2 * j == d:
            theta, r = np.pi, d
        else:
            theta, r = 2.0 * np.pi * (d - j) / d, 2 * (d - j)
        lam = np.exp(1j * (2 * np.pi * r / n))
        summed += lam * np.outer(w, w.conj())
        rows.append(w)
        thetas.append(float(theta))
        lambdas.append(lam)
    first = np.fft.ifft(np.array(lambdas))
    u = np.empty((d, d), dtype=complex)
    for x in range(d):
        for y in range(d):
            u[x, y] = first[(x - y) % d]
    return np.array(rows), thetas, u, summed


@pytest.mark.parametrize("d", range(2, 65))
def test_root_table_is_bit_identical_to_the_per_row_loop(d):
    orbit_module = importlib.import_module("orbitbell.orbit")
    for m in range(1, 17):
        rows, thetas, u, summed = per_row_reference(d, m)
        table = orbit_module._root_table(ProblemSpec(d, m))
        assert fourier_rows(d).tobytes() == rows.tobytes()
        assert table.u.tobytes() == u.tobytes()
        # the public view refuses the cells beyond the size rule, (54, 16) on
        try:
            _check_size(d, m)
        except InstanceTooLarge:
            with pytest.raises(InstanceTooLarge):
                root_unitary(ProblemSpec(d, m))
        else:
            assert root_unitary(ProblemSpec(d, m)).tobytes() == u.tobytes()
        # the circulant is U = sum_j lambda_j w_j w_j^H, its definition
        assert np.max(np.abs(u - summed)) <= 1e-12
    assert _eigenphases(d).tobytes() == np.array(thetas).tobytes()


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
