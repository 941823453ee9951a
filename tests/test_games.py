"""Nonlocal games, joint distributions, information measures.

The dense grid and information routes are ``orbitbell.linalg``'s;
the winning and prediction probabilities are read off ``analyze``.

Anchors: the qubit two-setting game at (2 + sqrt(2))/4 vs 3/4, the
qutrit game at 5/6 classical, the qubit M-setting family, and the
two-setting survey statistics.
"""

import re

import numpy as np
import pytest

from orbitbell import (
    GameSpec,
    MeasLabel,
    ProblemSpec,
    analyze,
    build_inequality,
    game_spec,
    orbit,
    root_unitary,
)
from orbitbell.linalg import joint_distribution, mutual_information
from reference import measurement_bases

GRID = [(d, m) for d in range(2, 7) for m in range(1, 7)]


def quantum_win_direct(ineq, game):
    """Reference: winning probability of the optimal state, summed
    question by question from its joint grids, independent of the
    eigenvalue route."""
    bases = measurement_bases(root_unitary(ineq.spec), ineq.spec.settings)
    total = 0.0
    for (s, t), win in zip(game.questions, game.winning):
        grid = joint_distribution(ineq.optimal_state, bases[s], bases[t])
        total += float(sum(grid[a, b] for a, b in win))
    return total / len(game.questions)


def classical_win_direct(ineq, game):
    """Reference: winning probability of the witness strategy, question
    by question."""
    wins = 0
    for (s, t), win in zip(game.questions, game.winning):
        answers = (ineq.witness.alice_map[s], ineq.witness.bob_map[t])
        if answers in win:
            wins += 1
    return wins / len(game.questions)


def make_game(d, m):
    spec = ProblemSpec(d, m)
    ineq = build_inequality(spec)
    return spec, ineq, game_spec(ineq.terms)


def win_probabilities(d, m):
    """(quantum, classical) winning probability, as analyze reports them."""
    report = analyze(ProblemSpec(d, m))
    return report.quantum_win, report.classical_win


def test_game_spec_qubit_two_settings():
    _, _, game = make_game(2, 2)
    assert len(game.questions) == 4
    table = dict(zip(game.questions, game.winning))
    assert table[(0, 0)] == {(0, 0), (1, 1)}
    assert table[(1, 0)] == {(0, 0), (1, 1)}
    assert table[(1, 1)] == {(0, 0), (1, 1)}
    # the wrap-around question wants different bits
    assert table[(0, 1)] == {(1, 0), (0, 1)}


def test_game_spec_qutrit():
    _, _, game = make_game(3, 2)
    table = dict(zip(game.questions, game.winning))
    assert table[(0, 1)] == {(0, 2), (1, 0), (2, 1)}
    assert table[(0, 0)] == {(0, 0), (1, 1), (2, 2)}


def test_game_spec_qubit_five_settings():
    _, _, game = make_game(2, 5)
    table = dict(zip(game.questions, game.winning))
    assert table[(2, 2)] == {(0, 0), (1, 1)}
    assert table[(0, 4)] == {(1, 0), (0, 1)}


def test_game_spec_single_setting_has_two_slots():
    # both slots carry the label (0,0) but split the outcome pairs
    _, _, game = make_game(2, 1)
    assert game.questions == ((0, 0), (0, 0))
    assert game.winning[0] == {(0, 0), (1, 1)}
    assert game.winning[1] == {(1, 0), (0, 1)}


def test_game_spec_of_no_terms_has_no_slots():
    # no slots, no game: refused, rather than an empty game whose
    # winning probabilities would divide by zero
    for terms in ([], ()):
        with pytest.raises(ValueError, match="positive multiple of 2M terms, got 0$"):
            game_spec(terms)


def test_game_spec_refuses_a_partial_period():
    # at (2, 2), 2M = 4: the first three terms would give 3 questions
    # and 4 winning sets
    terms = build_inequality(ProblemSpec(2, 2)).terms
    with pytest.raises(ValueError, match="got 3, with 2M = 4 read off the last term"):
        game_spec(terms[:3])


@pytest.mark.parametrize("setting", [-1, -2, -3, -10**9])
def test_game_spec_refuses_a_period_that_is_not_positive(setting):
    # at (2, 2), a last Bob setting of -3 reads 2M = -4 off the last term,
    # and 8 % -4 == 0: refused, not a game of 4 questions and no winning
    # sets; -1 reads 2M = 0
    terms = list(build_inequality(ProblemSpec(2, 2)).terms)
    alice, bob = terms[-1]
    terms[-1] = (alice, MeasLabel(setting, bob.outcome))
    period = 2 * (setting + 1)
    with pytest.raises(ValueError, match=f"got 8, with 2M = {period} read off the last term"):
        game_spec(terms)


@pytest.mark.parametrize(
    "value", [1.0, 1.5, True, False, np.float64(1.0), np.bool_(True), "1", None, 2**63]
)
@pytest.mark.parametrize("slot", ["alice setting", "alice outcome", "bob setting", "bob outcome"])
def test_game_spec_refuses_a_label_that_is_not_an_integer(slot, value):
    # the last term's label at (2, 2), whose Bob setting gives 2M: a float
    # there once raised "slice indices must be integers", a bool counted as
    # an int; each is named as the term it sits in, before any slot is read
    terms = list(build_inequality(ProblemSpec(2, 2)).terms)
    row = [*terms[-1][0], *terms[-1][1]]
    row[["alice setting", "alice outcome", "bob setting", "bob outcome"].index(slot)] = value
    terms[-1] = (MeasLabel(*row[:2]), MeasLabel(*row[2:]))
    with pytest.raises(ValueError, match="^term 7 has a label that is not a 64-bit integer: "):
        game_spec(terms)


def test_game_spec_reads_numpy_integer_labels_and_arrays_alike():
    # numpy integers are integers: the same game from MeasLabel pairs of
    # np.int32, a one-shot iterator and the (n, 4) int64 array
    ineq = build_inequality(ProblemSpec(3, 2))
    game = game_spec(ineq.terms)
    pairs = [(MeasLabel(*row[:2]), MeasLabel(*row[2:])) for row in ineq.labels.astype(np.int32)]
    for terms in (pairs, iter(ineq.terms), ineq.labels):
        assert game_spec(terms) == game


@pytest.mark.parametrize(
    "bad", ["int32", "three columns", "one dimension"], ids=lambda bad: bad.replace(" ", "-")
)
def test_game_spec_refuses_an_array_that_is_not_an_int64_label_array(bad):
    # such an array once fell through to pair unpacking and raised "too
    # many values to unpack" or a TypeError
    labels = build_inequality(ProblemSpec(3, 2)).labels
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
        game_spec(array)


@pytest.mark.parametrize("d,m", [(2, 2), (3, 2), (5, 4), (2, 835)])
def test_game_spec_builds_each_distinct_winning_set_once(d, m):
    # the 2M slots share two distinct winning sets, one frozenset each
    game = analyze(ProblemSpec(d, m)).game
    assert len(game.winning) == 2 * m
    assert len(set(game.winning)) == 2
    assert len({id(win) for win in game.winning}) == 2
    assert all(type(win) is frozenset for win in game.winning)


@pytest.mark.parametrize("d,m", GRID)
def test_game_spec_is_aligned_or_refused(d, m):
    # on the orbit's terms, the 2M slots of terms q, q + 2M, ...; on any
    # shorter prefix, a game whose questions and winning sets align, or
    # a ValueError
    terms = build_inequality(ProblemSpec(d, m)).terms
    assert game_spec(terms) == GameSpec(
        tuple((a.setting, b.setting) for a, b in terms[: 2 * m]),
        tuple(
            frozenset((a.outcome, b.outcome) for a, b in terms[q :: 2 * m])
            for q in range(2 * m)
        ),
    )
    for k in range(1, len(terms)):
        try:
            game = game_spec(terms[:k])
        except ValueError:
            continue
        assert len(game.questions) == len(game.winning) > 0
        assert k % len(game.questions) == 0


@pytest.mark.parametrize("d,m", GRID)
def test_game_spec_structure(d, m):
    spec = ProblemSpec(d, m)
    game = game_spec([(e.alice, e.bob) for e in orbit(spec)])
    assert len(game.questions) == 2 * m
    for win in game.winning:
        assert len(win) == d
        # one winning pair per alice outcome
        assert sorted(a for a, _ in win) == list(range(d))
    # winning sets partition the orbit terms
    assert sum(len(w) for w in game.winning) == spec.orbit_length


def test_winning_probabilities_qubit():
    quantum, classical = win_probabilities(2, 2)
    assert quantum == pytest.approx((2 + np.sqrt(2)) / 4, abs=1e-12)
    assert classical == pytest.approx(3 / 4, abs=1e-12)


def test_winning_probabilities_qutrit():
    quantum, classical = win_probabilities(3, 2)
    assert quantum == pytest.approx(5 / 6, abs=1e-12)
    assert classical == pytest.approx(3 / 4, abs=1e-12)


@pytest.mark.parametrize("m", range(1, 9))
def test_winning_probabilities_qubit_family(m):
    quantum, classical = win_probabilities(2, m)
    assert quantum == pytest.approx((1 + np.cos(np.pi / (2 * m))) / 2, abs=1e-12)
    assert classical == pytest.approx(1 - 1 / (2 * m), abs=1e-12)
    if m >= 2:
        assert quantum > classical


@pytest.mark.parametrize("d,m", [(2, 1), (2, 2), (3, 2), (2, 3), (4, 2), (3, 3), (2, 5)])
def test_win_probabilities_match_direct_summation(d, m):
    _, ineq, game = make_game(d, m)
    quantum, classical = win_probabilities(d, m)
    assert quantum == pytest.approx(quantum_win_direct(ineq, game), abs=1e-12)
    assert classical == pytest.approx(classical_win_direct(ineq, game), abs=1e-12)


def test_joint_distribution_qubit_two_settings():
    spec = ProblemSpec(2, 2)
    ineq = build_inequality(spec)
    bases = measurement_bases(root_unitary(spec), 2)
    grid = joint_distribution(ineq.optimal_state, bases[0], bases[0])
    # diagonal (2 + sqrt(2))/8, off-diagonal (2 - sqrt(2))/8
    hi, lo = (2 + np.sqrt(2)) / 8, (2 - np.sqrt(2)) / 8
    assert np.allclose(grid, [[hi, lo], [lo, hi]], atol=1e-12)


def test_joint_distribution_qutrit_matching_terms():
    spec = ProblemSpec(3, 2)
    ineq = build_inequality(spec)
    entries = orbit(spec)
    bases = measurement_bases(root_unitary(spec), 2)
    # every orbit term carries probability 5/18 on the optimal state
    for e in entries:
        grid = joint_distribution(
            ineq.optimal_state, bases[e.alice.setting], bases[e.bob.setting]
        )
        assert grid[e.alice.outcome, e.bob.outcome] == pytest.approx(5 / 18, abs=1e-12)


@pytest.mark.parametrize("d,m", GRID)
def test_joint_distribution_normalization(d, m):
    spec = ProblemSpec(d, m)
    entries = orbit(spec)
    state = entries[3 % len(entries)].vector
    bases = measurement_bases(root_unitary(spec), m)
    for s in range(m):
        for t in range(m):
            grid = joint_distribution(state, bases[s], bases[t])
            assert grid.sum() == pytest.approx(1.0, abs=1e-9)
            assert grid.min() >= 0.0


def test_mutual_information_product_state_is_zero():
    uniform = np.full((3, 3), 1 / 9)
    assert mutual_information(uniform) == pytest.approx(0.0, abs=1e-15)


def test_mutual_information_perfect_correlation():
    assert mutual_information(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)


def test_mutual_information_qubit_closed_form():
    hi, lo = (2 + np.sqrt(2)) / 8, (2 - np.sqrt(2)) / 8
    grid = np.array([[hi, lo], [lo, hi]])
    # uniform marginals, so I = sum p log2(4p)
    expected = 2 * hi * np.log2(4 * hi) + 2 * lo * np.log2(4 * lo)
    assert mutual_information(grid) == pytest.approx(expected, abs=1e-12)


def test_mutual_information_rejects_negative():
    with pytest.raises(ValueError, match="negative"):
        mutual_information(np.array([[0.6, -0.1], [0.3, 0.2]]))


def test_mutual_information_of_a_stack_is_its_per_grid_values():
    rng = np.random.default_rng(7)
    stack = rng.random((2, 3, 4, 4))
    stack[0, 1, 2] = 0.0  # a zero row: its entries contribute 0
    stack /= stack.sum(axis=(-2, -1), keepdims=True)
    infos = mutual_information(stack)
    assert infos.shape == (2, 3)
    for index in np.ndindex(2, 3):
        single = mutual_information(stack[index])
        assert type(single) is float
        assert infos[index] == single


@pytest.mark.parametrize("index", list(np.ndindex(2, 2)))
def test_mutual_information_rejects_a_nan_in_any_grid(index):
    stack = np.full((2, 2, 3, 3), 1 / 9)
    stack[index + (1, 2)] = np.nan
    with pytest.raises(ValueError, match="negative probability entry nan"):
        mutual_information(stack)


def test_mutual_information_clips_roundoff():
    grid = np.array([[0.5, -1e-15], [0.0, 0.5]])
    assert mutual_information(grid) == pytest.approx(1.0, abs=1e-9)


def test_prediction_probability_survey_values():
    for d, expected in [(2, 0.8536), (3, 0.8333), (4, 0.8266), (5, 0.8236)]:
        report = analyze(ProblemSpec(d, 2))
        p = report.prediction_prob
        assert round(p, 4) == pytest.approx(expected, abs=5e-4)
        # the rule recovers exactly a quarter of the quantum bound
        assert p == pytest.approx(report.quantum_bound / 4, abs=1e-12)


def test_prediction_probability_needs_two_settings():
    # the two-setting rule has no value at any other M
    for d, m in [(2, 1), (2, 3)]:
        assert analyze(ProblemSpec(d, m)).prediction_prob is None


def test_analyze_qubit_two_settings():
    report = analyze(ProblemSpec(2, 2))
    assert report.quantum_bound == pytest.approx(2 + np.sqrt(2), abs=1e-9)
    assert report.classical_bound == 3
    assert report.quantum_win == pytest.approx((2 + np.sqrt(2)) / 4, abs=1e-12)
    assert report.classical_win == pytest.approx(0.75, abs=1e-12)
    assert report.prediction_prob == pytest.approx(0.8536, abs=5e-4)
    assert report.mutual_info_bits == pytest.approx(0.3991, abs=5e-4)
    assert report.mutual_info_spread <= 1e-9
    assert set(report.joint_grids) == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_analyze_qutrit():
    report = analyze(ProblemSpec(3, 2))
    assert report.quantum_bound == pytest.approx(10 / 3, abs=1e-9)
    assert report.classical_bound == 3
    assert report.mutual_info_bits == pytest.approx(0.8146, abs=5e-4)
    assert report.prediction_prob == pytest.approx(5 / 6, abs=1e-9)


def test_analyze_single_setting_degenerates():
    report = analyze(ProblemSpec(2, 1))
    assert report.quantum_win == pytest.approx(0.5, abs=1e-12)
    assert report.classical_win == pytest.approx(0.5, abs=1e-12)
    assert report.prediction_prob is None
    assert report.mutual_info_bits is None
    assert report.mutual_info_spread is None


def test_analyze_three_settings_has_no_two_setting_stats():
    report = analyze(ProblemSpec(2, 3))
    assert report.prediction_prob is None
    assert report.mutual_info_bits is None
    assert report.joint_grids is None


@pytest.mark.parametrize("d,m", GRID)
def test_analyze_win_identities(d, m):
    report = analyze(ProblemSpec(d, m))
    assert report.quantum_win == pytest.approx(
        report.quantum_bound / (2 * m), abs=1e-12
    )
    assert report.classical_win == pytest.approx(
        report.classical_bound / (2 * m), abs=1e-12
    )
    bases = measurement_bases(root_unitary(report.spec), m)
    for s in range(m):
        for t in range(m):
            grid = joint_distribution(report.inequality.optimal_state, bases[s], bases[t])
            assert grid.sum() == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("d", range(2, 6))
def test_two_setting_information_independent_of_question(d):
    report = analyze(ProblemSpec(d, 2))
    infos = [mutual_information(g) for g in report.joint_grids.values()]
    assert max(infos) - min(infos) <= 1e-9
    assert report.mutual_info_spread <= 1e-9


def test_two_setting_information_grows_with_outcomes():
    values = [analyze(ProblemSpec(d, 2)).mutual_info_bits for d in range(2, 6)]
    assert values == sorted(values)
    assert values[0] == pytest.approx(0.3991, abs=5e-4)
    assert values[3] == pytest.approx(1.4223, abs=5e-4)
