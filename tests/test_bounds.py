"""Quantum and classical bounds.

Anchors: the qubit two-setting value 2 + sqrt(2) against classical 3,
the qutrit value 10/3 with its explicit maximizing state, the qubit
M-setting family M*(1 + cos(pi/2M)) against 2M - 1, and an exhaustive
naive strategy scan as the oracle for the factored classical search.
"""

import itertools

import numpy as np
import pytest

from numpy import kron

from orbitbell import (
    DeterministicStrategy,
    InstanceTooLarge,
    MeasLabel,
    ProblemSpec,
    build_inequality,
    classical_bound,
    orbit,
    quantum_bound_analytic,
    quantum_bound_numeric,
    root_unitary,
    run_verification,
)
from orbitbell.bounds import (
    MEMORY_CEILING,
    STRATEGY_GUARD,
    _chained_bell_bound,
    _check_memory_ceiling,
    _check_orbit_ceiling,
    _over_strategy_guard,
)
from orbitbell.linalg import (
    accumulate_A,
    b_eigensystem,
    root_of_unity_index,
    step_operator,
)
from orbitbell.orbit import fourier_eigenbasis

GRID = [(d, m) for d in range(2, 7) for m in range(1, 7)]

PLUS_X = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
MINUS_X = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2)


def naive_classical_scan(entries, spec):
    """Oracle: literally try every deterministic strategy pair."""
    d, m = spec.outcomes, spec.settings
    best, best_strategy = -1, None
    for alice in itertools.product(range(d), repeat=m):
        for bob in itertools.product(range(d), repeat=m):
            count = sum(
                1
                for e in entries
                if alice[e.alice.setting] == e.alice.outcome
                and bob[e.bob.setting] == e.bob.outcome
            )
            if count > best:
                best = count
                best_strategy = DeterministicStrategy(alice, bob)
    return best, best_strategy


def test_root_of_unity_index_snaps():
    assert root_of_unity_index(1j, 8) == 2
    assert root_of_unity_index(np.exp(1j * np.pi / 4), 8) == 1
    assert root_of_unity_index(-1 + 0j, 8) == 4
    with pytest.raises(RuntimeError, match="snap error"):
        root_of_unity_index(np.exp(1j * 0.3), 8)


def test_accumulate_A_single_setting_is_identity():
    # d=2, M=1: the four orbit states are the computational basis
    entries = orbit(ProblemSpec(2, 1))
    a = accumulate_A(entries)
    assert np.max(np.abs(a - np.eye(4))) <= 1e-12


@pytest.mark.parametrize("d,m", GRID)
def test_accumulate_A_structure(d, m):
    spec = ProblemSpec(d, m)
    a = accumulate_A(orbit(spec))
    # hermitian to roundoff (numpy's complex multiply is not exactly
    # symmetric under conjugate swap), well inside the 1e-12 gate
    assert np.max(np.abs(a - a.conj().T)) <= 1e-12
    assert np.trace(a).real == pytest.approx(spec.orbit_length, abs=1e-10)
    # positive semidefinite
    evals = np.linalg.eigvalsh(a)
    assert evals.min() >= -1e-12


def test_quantum_bound_numeric_qubit():
    a = accumulate_A(orbit(ProblemSpec(2, 2)))
    value = quantum_bound_numeric(a)
    assert isinstance(value, float)
    assert value == pytest.approx(2 + np.sqrt(2), abs=1e-9)


def test_quantum_bound_numeric_qutrit():
    a = accumulate_A(orbit(ProblemSpec(3, 2)))
    value = quantum_bound_numeric(a)
    assert value == pytest.approx(10 / 3, abs=1e-9)


def test_quantum_bound_numeric_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        quantum_bound_numeric(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_quantum_bound_numeric_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        quantum_bound_numeric(np.zeros((2, 3), dtype=complex))


def test_b_eigensystem_qubit_two_settings():
    spec = ProblemSpec(2, 2)
    pairs = b_eigensystem(spec)
    assert len(pairs) == 4
    # eighth-root indices: 1 and i from the diagonal products, and the
    # two square roots of i, e^{i pi/4} and -e^{i pi/4} = e^{5 i pi/4}
    # (the second root is NOT e^{-i pi/4}: its square must equal i)
    assert sorted(p.root_index for p in pairs) == [0, 1, 2, 5]
    by_index = {p.root_index: p.vector for p in pairs}
    u2 = (kron(PLUS_X, MINUS_X) + np.exp(1j * np.pi / 4) * kron(MINUS_X, PLUS_X)) / np.sqrt(2)
    assert np.max(np.abs(by_index[1] - u2)) <= 1e-12
    # overlap magnitude with the seed: (1/2) sqrt(1 + 1/sqrt(2))
    seed = np.zeros(4, dtype=complex)
    seed[0] = 1.0
    assert abs(np.vdot(u2, seed)) == pytest.approx(
        0.5 * np.sqrt(1 + 1 / np.sqrt(2)), abs=1e-12
    )


def test_b_eigensystem_qubit_three_settings():
    # twelfth-root indices {0, 2, 1, 7}: 1, e^{i pi/3}, +/- e^{i pi/6}
    pairs = b_eigensystem(ProblemSpec(2, 3))
    assert sorted(p.root_index for p in pairs) == [0, 1, 2, 7]


def test_b_eigensystem_qutrit_degeneracy():
    spec = ProblemSpec(3, 2)
    pairs = b_eigensystem(spec)
    assert len(pairs) == 9
    counts = {}
    for p in pairs:
        counts[p.root_index] = counts.get(p.root_index, 0) + 1
    # only the eigenvalue 1 (index 0) is degenerate, with two members
    assert counts[0] == 2
    assert all(c == 1 for idx, c in counts.items() if idx != 0)
    # the paired member at eigenvalue 1 is (w1 w2 + e^{i pi/3} w2 w1)/sqrt(2)
    basis = fourier_eigenbasis(3)
    w1, w2 = basis[1][0], basis[2][0]
    w12 = (kron(w1, w2) + np.exp(1j * np.pi / 3) * kron(w2, w1)) / np.sqrt(2)
    members = [p.vector for p in pairs if p.root_index == 0]
    overlaps = sorted(abs(np.vdot(m, w12)) for m in members)
    assert overlaps[-1] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("d,m", GRID)
def test_b_eigensystem_residuals(d, m):
    spec = ProblemSpec(d, m)
    b = step_operator(root_unitary(spec))
    pairs = b_eigensystem(spec)
    assert len(pairs) == d * d
    vectors = np.column_stack([p.vector for p in pairs])
    # orthonormal eigenbasis
    gram = vectors.conj().T @ vectors
    assert np.max(np.abs(gram - np.eye(d * d))) <= 1e-12
    for p in pairs:
        lam = np.exp(2j * np.pi * p.root_index / spec.orbit_length)
        assert np.max(np.abs(b @ p.vector - lam * p.vector)) <= 1e-9


def test_quantum_bound_analytic_qubit():
    spec = ProblemSpec(2, 2)
    value, state = quantum_bound_analytic(spec, orbit(spec))
    assert value == pytest.approx(2 + np.sqrt(2), abs=1e-12)
    u2 = (kron(PLUS_X, MINUS_X) + np.exp(1j * np.pi / 4) * kron(MINUS_X, PLUS_X)) / np.sqrt(2)
    assert abs(np.vdot(u2, state)) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_quantum_bound_analytic_qutrit_state():
    spec = ProblemSpec(3, 2)
    value, state = quantum_bound_analytic(spec, orbit(spec))
    assert value == pytest.approx(10 / 3, abs=1e-12)
    # closed-form maximizer, flat index = 3*alice_level + bob_level
    ref = np.zeros(9)
    ref[[0, 4, 8]] = np.sqrt(2 / 5) * 5 / 6
    ref[[3, 2, 7]] = np.sqrt(2 / 5) / 3
    ref[[1, 6, 5]] = -np.sqrt(2 / 5) / 6
    assert np.linalg.norm(ref) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(ref, state)) ** 2 == pytest.approx(1.0, abs=1e-9)
    # here the analytic route even fixes the global phase
    assert np.max(np.abs(state - ref)) <= 1e-9


@pytest.mark.parametrize("m", range(1, 9))
def test_quantum_bound_qubit_family(m):
    spec = ProblemSpec(2, m)
    value, state = quantum_bound_analytic(spec, orbit(spec))
    assert value == pytest.approx(m * (1 + np.cos(np.pi / (2 * m))), abs=1e-12)
    if m >= 2:
        expected = (
            kron(PLUS_X, MINUS_X)
            + np.exp(1j * np.pi / (2 * m)) * kron(MINUS_X, PLUS_X)
        ) / np.sqrt(2)
        assert abs(np.vdot(expected, state)) ** 2 == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("d,m", GRID)
def test_quantum_bound_routes_agree(d, m):
    spec = ProblemSpec(d, m)
    entries = orbit(spec)
    numeric = quantum_bound_numeric(accumulate_A(entries))
    analytic, state = quantum_bound_analytic(spec, entries)
    assert abs(numeric - analytic) <= 1e-9
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("d,m", GRID)
def test_analytic_group_values_sum_to_orbit_length(d, m):
    # seed weights over eigenvalue groups add to 1, so the candidate
    # eigenvalues of A add to 2*M*d
    spec = ProblemSpec(d, m)
    entries = orbit(spec)
    seed = entries[0].vector
    total = sum(abs(np.vdot(p.vector, seed)) ** 2 for p in b_eigensystem(spec))
    assert spec.orbit_length * total == pytest.approx(spec.orbit_length, abs=1e-9)


def test_classical_bound_examples():
    for d, m, expected in [(2, 2, 3), (3, 2, 3), (2, 3, 5), (2, 1, 1)]:
        spec = ProblemSpec(d, m)
        value, witness = classical_bound(orbit(spec), spec)
        assert value == expected
        # the all-zeros table achieves the optimum and is lex-smallest
        assert witness == DeterministicStrategy((0,) * m, (0,) * m)


@pytest.mark.parametrize("m", range(1, 9))
def test_classical_bound_qubit_family(m):
    spec = ProblemSpec(2, m)
    value, _ = classical_bound(orbit(spec), spec)
    assert value == 2 * m - 1


@pytest.mark.parametrize("d,m", [(2, 1), (2, 2), (2, 3), (3, 2), (4, 2), (3, 3), (2, 4)])
def test_classical_bound_matches_naive_scan(d, m):
    spec = ProblemSpec(d, m)
    entries = orbit(spec)
    value, witness = classical_bound(entries, spec)
    ref_value, ref_witness = naive_classical_scan(entries, spec)
    assert value == ref_value
    assert witness == ref_witness


def test_classical_bound_counts_are_honest():
    # recount the witness's satisfied terms directly
    spec = ProblemSpec(3, 3)
    entries = orbit(spec)
    value, witness = classical_bound(entries, spec)
    recount = sum(
        1
        for e in entries
        if witness.alice_map[e.alice.setting] == e.alice.outcome
        and witness.bob_map[e.bob.setting] == e.bob.outcome
    )
    assert recount == value


def test_classical_bound_guard():
    spec = ProblemSpec(10, 5)
    with pytest.raises(InstanceTooLarge, match="too large"):
        classical_bound(orbit(spec), spec)


@pytest.mark.parametrize("d", [2, 3, 10, 64, 10**6])
def test_strategy_guard_matches_the_power(d):
    for m in range(1, 40):
        assert _over_strategy_guard(d, m) == (d ** (2 * m) > STRATEGY_GUARD)


@pytest.mark.parametrize("d,m", [(2, 1), (3, 2), (5, 4), (2, 13)])
def test_chained_bell_route_value_and_witness(d, m):
    spec = ProblemSpec(d, m)
    terms = [(e.alice, e.bob) for e in orbit(spec)]
    value, witness = _chained_bell_bound(spec, terms)
    assert value == 2 * m - 1
    assert witness.alice_map == witness.bob_map == (0,) * m


def test_chained_bell_route_rejects_other_term_lists():
    spec = ProblemSpec(3, 2)
    terms = [(e.alice, e.bob) for e in orbit(spec)]
    # one missing, one repeated, and one repeated in place of a missing one
    for wrong in (terms[1:], terms + terms[:1], terms[1:] + terms[1:2]):
        with pytest.raises(RuntimeError, match="chained-Bell route: the .* orbit terms"):
            _chained_bell_bound(spec, wrong)


def test_chained_bell_route_counts_the_witness_hits(monkeypatch):
    # Alice's outcomes shifted by one: a family list that matches these
    # terms still leaves the all-zero strategy no term to meet at d = 3
    spec = ProblemSpec(3, 2)
    shifted = [
        (MeasLabel(e.alice.setting, (e.alice.outcome + 1) % 3), e.bob)
        for e in orbit(spec)
    ]
    monkeypatch.setattr("orbitbell.bounds.condition_label_pairs", lambda spec: set(shifted))
    with pytest.raises(RuntimeError, match="all-zero strategy meets 0 terms, not 2M - 1 = 3"):
        _chained_bell_bound(spec, shifted)


def test_build_inequality_checks_guard_before_any_work(monkeypatch):
    def no_orbit(*args):
        raise AssertionError("orbit built for an instance beyond the guard")

    # the root table is the first thing built, then the orbit from it
    monkeypatch.setattr("orbitbell.bounds._root_table", no_orbit)
    monkeypatch.setattr("orbitbell.bounds._orbit", no_orbit)
    with pytest.raises(InstanceTooLarge, match="too large"):
        build_inequality(ProblemSpec(10, 5))


@pytest.mark.parametrize("d,m", [(5000, 1), (65, 2)])
def test_build_inequality_checks_memory_ceiling_before_any_work(monkeypatch, d, m):
    def no_orbit(*args):
        raise AssertionError("orbit built for an instance beyond the ceiling")

    monkeypatch.setattr("orbitbell.bounds._root_table", no_orbit)
    monkeypatch.setattr("orbitbell.bounds._orbit", no_orbit)
    with pytest.raises(InstanceTooLarge, match="memory ceiling"):
        build_inequality(ProblemSpec(d, m))


def test_memory_ceiling_admits_64_outcomes():
    assert 16 * 64**4 <= MEMORY_CEILING < 16 * 65**4
    _check_memory_ceiling(64)
    with pytest.raises(InstanceTooLarge, match="memory ceiling"):
        _check_memory_ceiling(65)


def test_verify_checks_memory_ceiling_before_the_first_cell(monkeypatch):
    def no_cell(outcomes, settings):
        raise AssertionError("cell started for a sweep beyond the ceiling")

    monkeypatch.setattr("orbitbell.verify.ProblemSpec", no_cell)
    with pytest.raises(InstanceTooLarge, match="memory ceiling"):
        run_verification(65, 1)


@pytest.mark.parametrize(
    "outcomes_max,settings_max,error",
    [
        (1, 1, ValueError),
        (3, 0, ValueError),
        (-5, 2, ValueError),
        (True, 1, TypeError),
        (np.bool_(True), 2, TypeError),
        (3, np.bool_(True), TypeError),
        (2.5, 2, TypeError),
        (3, "2", TypeError),
    ],
)
def test_verify_rejects_a_grid_bound_before_any_work(
    monkeypatch, outcomes_max, settings_max, error
):
    # an empty or mistyped grid must not pass a sweep that checked nothing
    def no_cell(outcomes, settings):
        raise AssertionError("cell started for an invalid grid")

    monkeypatch.setattr("orbitbell.verify.ProblemSpec", no_cell)
    with pytest.raises(error, match="_max must be"):
        run_verification(outcomes_max, settings_max)


def test_verify_checks_orbit_ceiling_before_the_first_cell(monkeypatch):
    def no_cell(outcomes, settings):
        raise AssertionError("cell started for a sweep beyond the ceiling")

    monkeypatch.setattr("orbitbell.verify.ProblemSpec", no_cell)
    with pytest.raises(InstanceTooLarge, match="has 4000000000 steps"):
        run_verification(2, 10**9)


@pytest.mark.parametrize(
    "d,m,admitted",
    [(6, 6, True), (10, 4, True), (16, 2, True), (64, 10, True), (64, 11, False),
     (2, 835, True), (2, 836, False)],
)
def test_orbit_ceiling_counts_states_residuals_and_gram_table(d, m, admitted):
    n = 2 * m * d
    assert (40 * d**2 * n + 24 * n**2 <= MEMORY_CEILING) == admitted
    if admitted:
        _check_orbit_ceiling(d, m)
    else:
        with pytest.raises(InstanceTooLarge, match="memory ceiling"):
            _check_orbit_ceiling(d, m)


def test_build_inequality_qubit():
    ineq = build_inequality(ProblemSpec(2, 2))
    assert ineq.quantum_bound == pytest.approx(2 + np.sqrt(2), abs=1e-9)
    assert ineq.classical_bound == 3
    assert len(ineq.terms) == 8
    assert ineq.terms[0] == (MeasLabel(0, 0), MeasLabel(0, 0))
    # every term contributes (2 + sqrt(2))/8 on the optimal state
    assert np.max(np.abs(ineq.per_term_probs - (2 + np.sqrt(2)) / 8)) <= 1e-9
    assert ineq.per_term_probs.sum() == pytest.approx(ineq.quantum_bound, abs=1e-9)


def test_build_inequality_survey_values():
    # two-setting quantum bounds for d = 4, 5
    assert build_inequality(ProblemSpec(4, 2)).quantum_bound == pytest.approx(
        2 + np.cos(np.pi / 8) + np.cos(3 * np.pi / 8), abs=1e-12
    )
    assert build_inequality(ProblemSpec(5, 2)).quantum_bound == pytest.approx(
        (4 / 5) * (3 + np.cos(np.pi / 5) + np.cos(2 * np.pi / 5)), abs=1e-12
    )


@pytest.mark.parametrize("d,m", GRID)
def test_quantum_dominates_classical(d, m):
    if ProblemSpec(d, m).outcomes ** (2 * m) > 10**8:
        pytest.skip("beyond the enumeration guard")
    ineq = build_inequality(ProblemSpec(d, m))
    assert ineq.quantum_bound >= ineq.classical_bound - 1e-9


@pytest.mark.parametrize("d", range(2, 7))
def test_two_setting_quantum_bound_decreases_with_outcomes(d):
    if d == 2:
        return
    q_small = build_inequality(ProblemSpec(d - 1, 2)).quantum_bound
    q_large = build_inequality(ProblemSpec(d, 2)).quantum_bound
    assert q_large < q_small
