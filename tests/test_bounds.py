"""Quantum and classical bounds.

Anchors: the qubit two-setting value 2 + sqrt(2) against classical 3,
the qutrit value 10/3 with its explicit maximizing state, the qubit
M-setting family M*(1 + cos(pi/2M)) against 2M - 1, an exhaustive
naive strategy scan as the oracle for the max-plus classical search,
and the chained-Bell route as its check on orbits far past any scan.
"""

import itertools
import re
import tracemalloc

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
    _chained_bell_bound,
    _chained_bell_terms,
    _check_size,
    _expand_state,
    _inequality,
    quantum_bound_gram,
)
from orbitbell.linalg import accumulate_A, apply_step
from orbitbell.orbit import _as_labels, _factor_indices, _gather, _root_table
from reference import (
    analytic_state_by_amplitude,
    condition_label_pairs,
    eigensystem_by_pair,
    fourier_rows,
    gram_row_from_factors,
    root_of_unity_index,
    term_probabilities_from_factors,
)

GRID = [(d, m) for d in range(2, 7) for m in range(1, 7)]

PLUS_X = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
MINUS_X = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2)


def stacked(entries):
    """The orbit vectors as the rows of one (n, d^2) array."""
    return np.array([e.vector for e in entries])


def labels(spec):
    """The orbit's label pairs, in orbit order."""
    return [(e.alice, e.bob) for e in orbit(spec)]


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
    a = accumulate_A(stacked(entries))
    assert np.max(np.abs(a - np.eye(4))) <= 1e-12


@pytest.mark.parametrize("d,m", GRID)
def test_accumulate_A_structure(d, m):
    spec = ProblemSpec(d, m)
    a = accumulate_A(stacked(orbit(spec)))
    # hermitian to roundoff (numpy's complex multiply is not exactly
    # symmetric under conjugate swap), well inside the 1e-12 gate
    assert np.max(np.abs(a - a.conj().T)) <= 1e-12
    assert np.trace(a).real == pytest.approx(spec.orbit_length, abs=1e-10)
    # positive semidefinite
    evals = np.linalg.eigvalsh(a)
    assert evals.min() >= -1e-12


def test_quantum_bound_numeric_qubit():
    a = accumulate_A(stacked(orbit(ProblemSpec(2, 2))))
    value = quantum_bound_numeric(a)
    assert isinstance(value, float)
    assert value == pytest.approx(2 + np.sqrt(2), abs=1e-9)


def test_quantum_bound_numeric_qutrit():
    a = accumulate_A(stacked(orbit(ProblemSpec(3, 2))))
    value = quantum_bound_numeric(a)
    assert value == pytest.approx(10 / 3, abs=1e-9)


def test_quantum_bound_numeric_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        quantum_bound_numeric(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_quantum_bound_numeric_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        quantum_bound_numeric(np.zeros((2, 3), dtype=complex))


def test_quantum_bound_numeric_holds_one_copy_beside_its_input():
    # the Hermitian test subtracts the input in place from one conjugate
    # transpose copy, takes its magnitudes in place and frees it before
    # eigvalsh: with the 16 MiB input counted, the call peaks under 2.2
    # such arrays (three with a separate difference), and leaves the
    # input as it was
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1024, 1024)) + 1j * rng.standard_normal((1024, 1024))
    a = x + x.conj().T
    before = a.copy()
    del x
    tracemalloc.start()
    try:
        value = quantum_bound_numeric(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert a.nbytes + peak < 2.2 * a.nbytes
    assert np.array_equal(a, before)
    assert value == float(np.linalg.eigvalsh(a)[-1])


def test_b_eigensystem_qubit_two_settings():
    spec = ProblemSpec(2, 2)
    roots, vectors = eigensystem_by_pair(spec, _root_table(spec))
    assert roots.shape == (4,) and vectors.shape == (4, 4)
    # eighth-root indices: 1 and i from the diagonal products, and the
    # two square roots of i, e^{i pi/4} and -e^{i pi/4} = e^{5 i pi/4}
    # (the second root is NOT e^{-i pi/4}: its square must equal i)
    assert sorted(roots.tolist()) == [0, 1, 2, 5]
    by_index = dict(zip(roots.tolist(), vectors))
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
    spec = ProblemSpec(2, 3)
    roots, _ = eigensystem_by_pair(spec, _root_table(spec))
    assert sorted(roots.tolist()) == [0, 1, 2, 7]


def test_b_eigensystem_qutrit_degeneracy():
    spec = ProblemSpec(3, 2)
    roots, vectors = eigensystem_by_pair(spec, _root_table(spec))
    assert roots.shape == (9,) and vectors.shape == (9, 9)
    counts = {}
    for idx in roots.tolist():
        counts[idx] = counts.get(idx, 0) + 1
    # only the eigenvalue 1 (index 0) is degenerate, with two members
    assert counts[0] == 2
    assert all(c == 1 for idx, c in counts.items() if idx != 0)
    # the paired member at eigenvalue 1 is (w1 w2 + e^{i pi/3} w2 w1)/sqrt(2)
    _, w1, w2 = fourier_rows(3)
    w12 = (kron(w1, w2) + np.exp(1j * np.pi / 3) * kron(w2, w1)) / np.sqrt(2)
    members = vectors[roots == 0]
    overlaps = sorted(abs(np.vdot(m, w12)) for m in members)
    assert overlaps[-1] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("d,m", GRID)
def test_b_eigensystem_residuals(d, m):
    spec = ProblemSpec(d, m)
    roots, vectors = eigensystem_by_pair(spec, _root_table(spec))
    assert roots.shape == (d * d,) and vectors.shape == (d * d, d * d)
    # orthonormal eigenbasis, one vector per row
    gram = vectors.conj() @ vectors.T
    assert np.max(np.abs(gram - np.eye(d * d))) <= 1e-12
    stepped = apply_step(root_unitary(spec), vectors)  # row r is B v_r
    for idx, vector, b_vector in zip(roots.tolist(), vectors, stepped):
        lam = np.exp(2j * np.pi * idx / spec.orbit_length)
        assert np.max(np.abs(b_vector - lam * vector)) <= 1e-9


def test_quantum_bound_analytic_qubit():
    spec = ProblemSpec(2, 2)
    value, state = quantum_bound_analytic(spec)
    assert value == pytest.approx(2 + np.sqrt(2), abs=1e-12)
    u2 = (kron(PLUS_X, MINUS_X) + np.exp(1j * np.pi / 4) * kron(MINUS_X, PLUS_X)) / np.sqrt(2)
    assert abs(np.vdot(u2, state)) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_quantum_bound_analytic_qutrit_state():
    spec = ProblemSpec(3, 2)
    value, state = quantum_bound_analytic(spec)
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
    value, state = quantum_bound_analytic(spec)
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
    numeric = quantum_bound_numeric(accumulate_A(stacked(orbit(spec))))
    analytic, state = quantum_bound_analytic(spec)
    assert abs(numeric - analytic) <= 1e-9
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("d,m", GRID)
def test_analytic_group_values_sum_to_orbit_length(d, m):
    # seed weights over eigenvalue groups add to 1, so the candidate
    # eigenvalues of A add to 2*M*d
    spec = ProblemSpec(d, m)
    entries = orbit(spec)
    seed = entries[0].vector
    _, vectors = eigensystem_by_pair(spec, _root_table(spec))
    total = sum(abs(np.vdot(vector, seed)) ** 2 for vector in vectors)
    assert spec.orbit_length * total == pytest.approx(spec.orbit_length, abs=1e-9)


def test_classical_bound_examples():
    for d, m, expected in [(2, 2, 3), (3, 2, 3), (2, 3, 5), (2, 1, 1)]:
        spec = ProblemSpec(d, m)
        value, witness = classical_bound(spec, labels(spec))
        assert value == expected
        # the all-zeros table achieves the optimum and is lex-smallest
        assert witness == DeterministicStrategy((0,) * m, (0,) * m)


@pytest.mark.parametrize("m", range(1, 9))
def test_classical_bound_qubit_family(m):
    spec = ProblemSpec(2, m)
    value, _ = classical_bound(spec, labels(spec))
    assert value == 2 * m - 1


@pytest.mark.parametrize("d,m", [(2, 1), (2, 2), (2, 3), (3, 2), (4, 2), (3, 3), (2, 4)])
def test_classical_bound_matches_naive_scan(d, m):
    spec = ProblemSpec(d, m)
    entries = orbit(spec)
    value, witness = classical_bound(spec, labels(spec))
    ref_value, ref_witness = naive_classical_scan(entries, spec)
    assert value == ref_value
    assert witness == ref_witness


def test_classical_bound_reads_a_one_shot_iterator_like_a_list():
    # the terms are read for the hit tables and again for Bob's reply
    spec = ProblemSpec(3, 2)
    assert classical_bound(spec, iter(labels(spec))) == classical_bound(spec, labels(spec))


def test_classical_bound_counts_are_honest():
    # recount the witness's satisfied terms directly
    spec = ProblemSpec(3, 3)
    entries = orbit(spec)
    value, witness = classical_bound(spec, labels(spec))
    recount = sum(
        1
        for e in entries
        if witness.alice_map[e.alice.setting] == e.alice.outcome
        and witness.bob_map[e.bob.setting] == e.bob.outcome
    )
    assert recount == value


@pytest.mark.parametrize("d,m", [(10, 5), (64, 2), (64, 10), (16, 98), (2, 835)])
def test_classical_bound_equals_the_chained_bell_route_past_any_scan(d, m):
    # 10^10 to 2^1670 strategy pairs, up to analyze's edge cells: the
    # elimination assumes nothing of the terms, and meets the chained-Bell
    # argument in value and witness
    spec = ProblemSpec(d, m)
    terms = labels(spec)
    assert classical_bound(spec, terms) == _chained_bell_bound(spec, _as_labels(terms))


@pytest.mark.parametrize("d", [4093, 5793, 10**4])
def test_classical_bound_tables_over_memory_ceiling_raise_before_allocating(d):
    # at M = 1 the (d, d) hits of the one setting pair and the hit
    # table are counted, 16 d^2 bytes: with the rest of the count,
    # 256 MiB is first passed at d = 4093, and about 1.5 GiB is asked at
    # d = 10^4
    spec = ProblemSpec(d, 1)
    terms = condition_label_pairs(spec)
    tracemalloc.start()
    try:
        with pytest.raises(InstanceTooLarge, match="classical bound's tables .* memory ceiling"):
            classical_bound(spec, terms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_classical_bound_counts_what_a_long_label_array_holds(monkeypatch):
    # 2^18 terms at (2, 1), where the per-term arrays outweigh every
    # table, all with Alice's outcome 0, so that her map meets every one
    # and Bob's reply reads them all: the route's peak beside the
    # caller's array is within its count, so a ceiling one byte under
    # that peak refuses the call
    spec = ProblemSpec(2, 1)
    labels = np.zeros((2**18, 4), dtype=np.int64)
    labels[:, 3] = np.random.default_rng(7).integers(0, 2, size=2**18)
    tracemalloc.start()
    try:
        found = classical_bound(spec, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found[0] == np.bincount(labels[:, 3]).max()
    monkeypatch.setattr("orbitbell.bounds.MEMORY_CEILING", peak - 1)
    with pytest.raises(InstanceTooLarge, match="classical bound's tables .* memory ceiling"):
        classical_bound(spec, labels)


@pytest.mark.parametrize(
    "terms",
    [[], [(MeasLabel(0, 0), MeasLabel(0, 0)), (MeasLabel(7, 1), MeasLabel(10**9 - 1, 0))]],
)
def test_classical_bound_refuses_absurd_settings_at_once(terms):
    # 10^9 settings: Bob's hit rows and the two maps alone pass the
    # ceiling, and nothing per setting is made before the refusal
    spec = ProblemSpec(2, 10**9)
    tracemalloc.start()
    try:
        with pytest.raises(InstanceTooLarge, match="classical bound's tables .* memory ceiling"):
            classical_bound(spec, terms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize(
    "pair",
    [
        (MeasLabel(0, 2), MeasLabel(0, 0)),  # flat code 2 is (b, a) = (1, 0)
        (MeasLabel(0, 0), MeasLabel(0, 2)),
        (MeasLabel(0, -1), MeasLabel(0, 1)),
    ],
)
def test_classical_bound_rejects_an_outcome_outside_the_instance(pair):
    # a flat code b * d + a would file such a term under another pair
    spec = ProblemSpec(2, 2)
    with pytest.raises(ValueError, match=r"outcome outside 0\.\.1"):
        classical_bound(spec, labels(spec) + [pair])


@pytest.mark.parametrize(
    "pair",
    [
        (MeasLabel(-1, 1), MeasLabel(0, 0)),  # would be filed under setting M - 1
        (MeasLabel(2, 0), MeasLabel(0, 0)),
        (MeasLabel(0, 0), MeasLabel(-1, 1)),
        (MeasLabel(0, 0), MeasLabel(2, 0)),
    ],
)
def test_classical_bound_rejects_a_setting_outside_the_instance(pair):
    # a negative index would wrap to the last setting, and M would index
    # past the maps; the term is named either way
    spec = ProblemSpec(2, 2)
    message = rf"term {re.escape(str(pair))} has a setting outside 0\.\.1"
    for terms in ([pair], labels(spec) + [pair]):
        with pytest.raises(ValueError, match=message):
            classical_bound(spec, terms)


@pytest.mark.parametrize(
    "pair",
    [
        # the hit table truncated 1.5 to 1 while Bob's reply compared it
        # as a float: C_s 3 with Alice (1, 0)
        (MeasLabel(0, 1.5), MeasLabel(0, 0)),
        # counted as outcome 1: C_s 4
        (MeasLabel(0, True), MeasLabel(0, 0)),
        (MeasLabel(0, 0), MeasLabel(np.bool_(False), 0)),
        # a bare TypeError from tuple indexing
        (MeasLabel(0.0, 0), MeasLabel(0, 0)),
        (MeasLabel(0, 0), MeasLabel(0, np.float64(1.0))),
        (MeasLabel(0, "1"), MeasLabel(0, 0)),
        (MeasLabel(0, 0), MeasLabel(None, 0)),
        # an integer beyond int64, refused before numpy would overflow
        (MeasLabel(0, 2**64), MeasLabel(0, 0)),
    ],
)
def test_classical_bound_refuses_a_label_that_is_not_an_integer(pair):
    # the orbit at (2, 2) with one term appended: named as term 8, before
    # any table is built, as pairs and as a one-shot iterator
    spec = ProblemSpec(2, 2)
    terms = labels(spec) + [pair]
    message = r"^term 8 has a label that is not a 64-bit integer: alice \("
    for given in (terms, iter(terms)):
        with pytest.raises(ValueError, match=message):
            classical_bound(spec, given)


@pytest.mark.parametrize(
    "bad", ["int32", "three columns", "one dimension"], ids=lambda bad: bad.replace(" ", "-")
)
def test_classical_bound_refuses_an_array_that_is_not_an_int64_label_array(bad):
    # such an array once fell through to pair unpacking and raised "too
    # many values to unpack" or a TypeError
    spec = ProblemSpec(3, 2)
    labels = build_inequality(spec).labels
    array = {
        "int32": labels.astype(np.int32),
        "three columns": labels[:, :3],
        "one dimension": labels[:, 0],
    }[bad]
    message = (
        rf"^expected an \(n, 4\) int64 label array, got shape "
        rf"{re.escape(str(array.shape))} and dtype {array.dtype}$"
    )
    with pytest.raises(ValueError, match=message):
        classical_bound(spec, array)


def test_classical_bound_reads_numpy_integer_labels_and_arrays_alike():
    # numpy integers are integers: one value and witness from pairs of
    # np.int32 labels, an iterator, and the (n, 4) int64 array
    spec = ProblemSpec(4, 3)
    terms = labels(spec)[::2]  # a subset, whose witness is not all-zero
    found = classical_bound(spec, terms)
    array = np.array([[*a, *b] for a, b in terms], dtype=np.int64)
    pairs = [(MeasLabel(*row[:2]), MeasLabel(*row[2:])) for row in array.astype(np.int32)]
    for given in (pairs, iter(terms), array):
        assert classical_bound(spec, given) == found


@pytest.mark.parametrize("d,m", [(2, 1), (3, 2), (5, 4), (2, 13)])
def test_chained_bell_route_value_and_witness(d, m):
    spec = ProblemSpec(d, m)
    value, witness = _chained_bell_bound(spec, _as_labels(labels(spec)))
    assert value == 2 * m - 1
    assert witness.alice_map == witness.bob_map == (0,) * m


def test_chained_bell_route_rejects_other_term_lists():
    spec = ProblemSpec(3, 2)
    terms = labels(spec)
    # one missing, one repeated, and one repeated in place of a missing one
    for wrong in (terms[1:], terms + terms[:1], terms[1:] + terms[1:2]):
        with pytest.raises(RuntimeError, match="chained-Bell route: the .* orbit terms"):
            _chained_bell_bound(spec, _as_labels(wrong))


def test_chained_bell_route_refuses_alice_past_her_last_setting():
    # (M, k | M-1, k) has equal outcomes and Alice one setting ahead of
    # Bob, but past her last one: in place of the wrap term with the
    # same Bob label, it keeps 2Md distinct terms and must still fail
    for d, m in [(3, 2), (2, 1), (4, 3)]:
        spec = ProblemSpec(d, m)
        terms = labels(spec)
        wrap = terms.index((MeasLabel(0, 1), MeasLabel(m - 1, 0)))
        terms[wrap] = (MeasLabel(m, 0), MeasLabel(m - 1, 0))
        assert len(set(terms)) == len(terms) == spec.orbit_length
        with pytest.raises(RuntimeError, match="chained-Bell route: the .* orbit terms"):
            _chained_bell_bound(spec, _as_labels(terms))


@pytest.mark.parametrize("d,m", [(2, 1), (3, 1), (2, 2), (3, 2), (4, 3), (5, 4)])
def test_chained_bell_term_predicate_is_membership_in_the_families(d, m):
    # every label pair with settings and outcomes one past either end of
    # their ranges: the per-term predicate accepts exactly the three
    # families' pairs, listed directly by the reference, row by row of
    # one label array
    families = condition_label_pairs(ProblemSpec(d, m))
    span = [MeasLabel(s, k) for s in range(-1, m + 1) for k in range(-1, d + 1)]
    pairs = list(itertools.product(span, span))
    accepted = _chained_bell_terms(_as_labels(pairs).tolist(), d, m)
    assert accepted == [pair in families for pair in pairs]


def test_chained_bell_route_counts_the_witness_hits(monkeypatch):
    # Alice's outcomes shifted by one: a term check that accepts these
    # terms still leaves the all-zero strategy no term to meet at d = 3
    spec = ProblemSpec(3, 2)
    shifted = [
        (MeasLabel(e.alice.setting, (e.alice.outcome + 1) % 3), e.bob)
        for e in orbit(spec)
    ]
    monkeypatch.setattr(
        "orbitbell.bounds._chained_bell_terms", lambda rows, *args: [True] * len(rows)
    )
    with pytest.raises(RuntimeError, match="all-zero strategy meets 0 terms, not 2M - 1 = 3"):
        _chained_bell_bound(spec, _as_labels(shifted))


def test_build_inequality_checks_guard_before_any_work(monkeypatch):
    def no_orbit(*args):
        raise AssertionError("orbit built for an instance beyond the guard")

    # the root table is the first thing built, then the index rule, the
    # orbit's label array and Gram row from it;
    # (2, 836) is the first d = 2 cell whose orbit arrays exceed the ceiling
    monkeypatch.setattr("orbitbell.bounds._root_table", no_orbit)
    monkeypatch.setattr("orbitbell.bounds._factor_indices", no_orbit)
    monkeypatch.setattr("orbitbell.bounds._labels", no_orbit)
    monkeypatch.setattr("orbitbell.bounds._gather", no_orbit)
    with pytest.raises(InstanceTooLarge, match="memory ceiling"):
        build_inequality(ProblemSpec(2, 836))


@pytest.mark.parametrize("d,m", [(5000, 1), (65, 2)])
def test_build_inequality_checks_memory_ceiling_before_any_work(monkeypatch, d, m):
    def no_orbit(*args):
        raise AssertionError("orbit built for an instance beyond the ceiling")

    monkeypatch.setattr("orbitbell.bounds._root_table", no_orbit)
    monkeypatch.setattr("orbitbell.bounds._factor_indices", no_orbit)
    monkeypatch.setattr("orbitbell.bounds._labels", no_orbit)
    monkeypatch.setattr("orbitbell.bounds._gather", no_orbit)
    with pytest.raises(InstanceTooLarge, match="memory ceiling"):
        build_inequality(ProblemSpec(d, m))


@pytest.mark.parametrize("d", [65, 10**5])
@pytest.mark.parametrize(
    "view", [root_unitary, orbit, quantum_bound_analytic], ids=lambda view: view.__name__
)
def test_public_views_check_the_size_rule_first(view, d):
    # the views refuse what build_inequality refuses, before the root
    # table is built: at d = 10^5 one (d, d) complex U alone is 160 GB
    spec = ProblemSpec(d, 1)
    tracemalloc.start()
    try:
        with pytest.raises(InstanceTooLarge, match="memory ceiling"):
            view(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    with pytest.raises(InstanceTooLarge, match="memory ceiling"):
        build_inequality(spec)


def test_memory_ceiling_admits_64_outcomes():
    assert 16 * 64**4 <= MEMORY_CEILING < 16 * 65**4
    _check_size(64, 1)
    # the dense check comes first, also where the orbit check trips too
    for m in (1, 10**9):
        with pytest.raises(InstanceTooLarge, match="dense 4225 x 4225"):
            _check_size(65, m)


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
     (2, 835, True), (2, 836, False), (16, 98, True), (16, 99, False)],
)
def test_orbit_ceiling_counts_states_residuals_and_gram_table(monkeypatch, d, m, admitted):
    # one rule: build_inequality (and so analyze) admits exactly the
    # cells whose verify cross-checks fit, however many strategies they have
    n = 2 * m * d
    assert (40 * d**2 * n + 24 * n**2 <= MEMORY_CEILING) == admitted
    spec = ProblemSpec(d, m)
    if admitted:
        ineq = build_inequality(spec)
        assert ineq.classical_bound == 2 * m - 1
        assert len(ineq.terms) == n
    else:
        def no_table(*args):
            raise AssertionError("root table built for an instance beyond the ceiling")

        monkeypatch.setattr("orbitbell.bounds._root_table", no_table)
        with pytest.raises(InstanceTooLarge, match=f"has {n} steps"):
            build_inequality(spec)


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
    ineq = build_inequality(ProblemSpec(d, m))
    assert ineq.quantum_bound >= ineq.classical_bound - 1e-9


@pytest.mark.parametrize("d", range(2, 7))
def test_two_setting_quantum_bound_decreases_with_outcomes(d):
    if d == 2:
        return
    q_small = build_inequality(ProblemSpec(d - 1, 2)).quantum_bound
    q_large = build_inequality(ProblemSpec(d, 2)).quantum_bound
    assert q_large < q_small


@pytest.mark.parametrize("d", range(2, 33))
def test_first_columns_give_the_factor_forms_of_gram_row_and_probabilities(d):
    # every cell with d <= 32, M <= 12: analyze reads entry 0 of the
    # factors, a_r[0] b_r[0], for the Gram row, and |psi_00|^2 for every
    # term; both against their forms from the whole (n, d) factors
    for m in range(1, 13):
        spec = ProblemSpec(d, m)
        instance = _inequality(spec)
        ineq = instance.inequality
        index = _factor_indices(spec)
        factors = _gather(spec, instance.table, np.arange(d), index)
        alice, bob = factors[1:], factors[:-1]
        c0 = _gather(spec, instance.table, np.zeros(1, dtype=int), index)[:, 0]
        gram_row = c0[1:] * c0[:-1]
        reference = gram_row_from_factors(alice, bob)
        assert np.max(np.abs(gram_row - reference)) <= 1e-14
        assert instance.gram == quantum_bound_gram(gram_row)
        assert abs(instance.gram - quantum_bound_gram(reference)) <= 1e-13
        probs = term_probabilities_from_factors(alice, bob, ineq.optimal_state)
        assert np.max(np.abs(ineq.per_term_probs - probs)) <= 1e-14
        assert ineq.per_term_probs.shape == (spec.orbit_length,)
        assert (ineq.per_term_probs == abs(ineq.optimal_state[0]) ** 2).all()


@pytest.mark.parametrize("d", range(2, 65))
def test_state_expanded_from_its_coefficients_equals_the_amplitude_build(d):
    # every d <= 64 with M in {1, 2, 3, 4, 6, 10}: the d^2 amplitudes
    # c[(X - Y) mod d] exp(-2 pi i rho Y / d) of the reported coefficients,
    # against gathering f into the d x d array and normalizing that, the
    # route the coefficients replaced; and |psi_00|^2 = |c_0|^2, every
    # per-term probability, against its entry 0
    for m in (1, 2, 3, 4, 6, 10):
        spec = ProblemSpec(d, m)
        instance = _inequality(spec)
        ineq = instance.inequality
        reference = analytic_state_by_amplitude(spec, instance.table)
        assert ineq.coefficients.shape == (d,)
        assert ineq.rho == (0 if m == 1 or d % 2 else 1)
        state = _expand_state(ineq.coefficients, ineq.rho)
        assert (ineq.optimal_state == state).all()
        assert np.max(np.abs(state - reference)) <= 1e-15
        assert np.max(np.abs(ineq.per_term_probs - abs(reference[0]) ** 2)) <= 1e-15
        assert (ineq.per_term_probs == abs(ineq.coefficients[0]) ** 2).all()
