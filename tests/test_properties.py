"""Property tests over random instances and random sets of orbit terms.

The factorised classical search is checked against the plain
per-Alice-map loop it replaced, on random non-empty subsets of orbit
terms: a subset breaks the symmetry of the full orbit, so it reaches
ties and tie-breaks that full orbits never produce. Arbitrary
label-pair lists (repeats allowed, one Bob setting sharing terms with
up to M Alice settings) reach the hit tables wider than the orbit's
two Alice settings per Bob setting. On every full orbit within the
guard, the chained-Bell route equals the enumeration in value and
witness. The root table's integer root indices are checked against
snapping each eigenvalue, over d <= 64 and M <= 16. The root-index
quantum route is checked bit for bit against grouping the whole
closed-form eigensystem, the Gram-spectrum and
LAPACK routes against it to 1e-9, the one-product projector sum
against the per-entry outer-product sum, and the orbit against its
defining identities: its product-form vectors against the dense
recurrence v_j = B v_(j-1) from |00> that they replaced. The game's
question-slot rule gives 2M slots in order of first appearance on every
orbit with d <= 12 and M <= 8.
"""

import itertools

import numpy as np
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from numpy.linalg import matrix_power as mat_power

from orbitbell import (
    DeterministicStrategy,
    MeasLabel,
    ProblemSpec,
    build_inequality,
    classical_bound,
    game_spec,
    orbit,
    quantum_bound_analytic,
    quantum_bound_numeric,
    root_unitary,
)
from orbitbell.bounds import _chained_bell_bound, quantum_bound_gram
from orbitbell.linalg import (
    accumulate_A,
    b_eigensystem,
    root_of_unity_index,
    step_operator,
    translation_matrix,
)
from orbitbell.orbit import _orbit, _root_table, label_step

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=200)
# only the @example cells, each once
EVERY_CELL_SETTINGS = settings(deadline=None, phases=[Phase.explicit])

# every (d, M) with at most 1e6 deterministic strategy pairs, d <= 8
ENUMERABLE = [
    (d, m) for d in range(2, 9) for m in range(1, 10) if d ** (2 * m) <= 10**6
]

# every (d, M) with d <= 12 within the enumeration guard d^(2M) <= 1e8
CHAINED = [
    (d, m) for d in range(2, 13) for m in range(1, 14) if d ** (2 * m) <= 10**8
]


# every (d, M) with d <= 16, M <= 8, guard or not
SMALL = [(d, m) for d in range(2, 17) for m in range(1, 9)]

GRAM_CELLS = [(d, m) for d in range(2, 13) for m in range(1, 7)]

# every (d, M) with d <= 12, M <= 8, guard or not
SLOT_CELLS = [(d, m) for d in range(2, 13) for m in range(1, 9)]

# every (d, M) with d <= 16, M <= 8 within the enumeration guard
ANALYZABLE = [(d, m) for d, m in SMALL if d ** (2 * m) <= 10**8]


def every_cell(cells):
    """Run a one-argument property on each of ``cells`` explicitly."""

    def decorate(test):
        for cell in reversed(cells):
            test = example(cell)(test)
        return test

    return decorate


def grouped_eigensystem_bound(spec, entries):
    """Reference: group every closed-form eigenpair of B by root index,
    ascending; a group wins only above the running best + 1e-12."""
    seed = entries[0].vector
    groups = {}
    for pair in b_eigensystem(spec):
        groups.setdefault(pair.root_index, []).append(pair)
    best_value, best_state = -1.0, None
    for idx in sorted(groups):
        members = groups[idx]
        coeffs = [np.vdot(p.vector, seed) for p in members]
        weight = float(sum(abs(c) ** 2 for c in coeffs))
        value = 0.0 if weight < 1e-15 else spec.orbit_length * weight
        if value > best_value + 1e-12:
            best_value = value
            if weight < 1e-15:
                best_state = None
            else:
                x = sum(c * p.vector for c, p in zip(coeffs, members))
                best_state = x / np.linalg.norm(x)
    return best_value, best_state


def stacked(entries):
    """The orbit vectors as the rows of one (n, d^2) array."""
    return np.array([e.vector for e in entries])


def per_map_loop(spec, terms):
    """Reference: best reply to every Alice map in turn, first strict max wins."""
    d, m = spec.outcomes, spec.settings
    best, best_strategy = -1, None
    for alice_map in itertools.product(range(d), repeat=m):
        hits = [[0] * d for _ in range(m)]
        for a, b in terms:
            if alice_map[a.setting] == a.outcome:
                hits[b.setting][b.outcome] += 1
        total = 0
        bob_map = []
        for s in range(m):
            row = hits[s]
            pick = max(range(d), key=row.__getitem__)
            bob_map.append(pick)
            total += row[pick]
        if total > best:
            best = total
            best_strategy = DeterministicStrategy(alice_map, tuple(bob_map))
    return best, best_strategy


def dense_recurrence(spec):
    """Reference: the orbit vectors as B^j |00>, one dense B @ v per step."""
    b = step_operator(root_unitary(spec))
    vecs = np.zeros((spec.orbit_length, spec.hilbert_dim), dtype=complex)
    vecs[0, 0] = 1.0
    for step in range(1, spec.orbit_length):
        vecs[step] = b @ vecs[step - 1]
    return vecs


@PROPERTY_SETTINGS
@given(st.data())
def test_classical_bound_matches_per_map_loop_on_term_subsets(data):
    d, m = data.draw(st.sampled_from(ENUMERABLE), label="(d, M)")
    spec = ProblemSpec(d, m)
    terms = [(e.alice, e.bob) for e in orbit(spec)]
    picked = data.draw(
        st.sets(st.integers(0, len(terms) - 1), min_size=1), label="terms"
    )
    subset = [terms[i] for i in sorted(picked)]
    assert classical_bound(spec, subset) == per_map_loop(spec, subset)


@PROPERTY_SETTINGS
@given(st.data())
def test_classical_bound_matches_per_map_loop_on_label_pair_lists(data):
    d, m = data.draw(st.sampled_from(ENUMERABLE), label="(d, M)")
    spec = ProblemSpec(d, m)
    label = st.builds(MeasLabel, st.integers(0, m - 1), st.integers(0, d - 1))
    pairs = data.draw(st.lists(st.tuples(label, label), max_size=4 * m * d), label="pairs")
    # one Bob label linked to up to M Alice settings
    hub = data.draw(label, label="hub")
    pairs += [(a, hub) for a in data.draw(st.lists(label, max_size=m), label="linked")]
    assert classical_bound(spec, pairs) == per_map_loop(spec, pairs)


@PROPERTY_SETTINGS
@given(st.integers(2, 8), st.integers(1, 6))
def test_quantum_bound_routes_agree_on_random_instances(d, m):
    spec = ProblemSpec(d, m)
    numeric = quantum_bound_numeric(accumulate_A(stacked(orbit(spec))))
    analytic, _ = quantum_bound_analytic(spec)
    assert abs(numeric - analytic) <= 1e-9


@EVERY_CELL_SETTINGS
@given(st.sampled_from(SMALL))
@every_cell(SMALL)
def test_root_index_route_is_bit_identical_to_grouping_the_eigensystem(cell):
    spec = ProblemSpec(*cell)
    value, state = quantum_bound_analytic(spec)
    ref_value, ref_state = grouped_eigensystem_bound(spec, orbit(spec))
    assert value == ref_value
    assert state.tobytes() == ref_state.tobytes()


@EVERY_CELL_SETTINGS
@given(st.sampled_from(GRAM_CELLS))
@every_cell(GRAM_CELLS)
def test_gram_route_agrees_with_dense_eigvalsh(cell):
    spec = ProblemSpec(*cell)
    dense = float(np.linalg.eigvalsh(accumulate_A(stacked(orbit(spec))))[-1])
    _, alice, bob = _orbit(spec, _root_table(spec))
    assert abs(quantum_bound_gram(alice, bob) - dense) <= 1e-9


@PROPERTY_SETTINGS
@given(st.sampled_from(CHAINED))
@every_cell(CHAINED)
def test_full_orbit_bounds_are_chained_bell_values(cell):
    # C_s = 2M - 1 with the all-zero table as witness, and C_s <= Q_s <= 2M
    d, m = cell
    spec = ProblemSpec(d, m)
    value, witness = classical_bound(spec, [(e.alice, e.bob) for e in orbit(spec)])
    assert value == 2 * m - 1
    assert witness == DeterministicStrategy((0,) * m, (0,) * m)
    analytic, _ = quantum_bound_analytic(spec)
    assert value - 1e-9 <= analytic <= 2 * m + 1e-9


@EVERY_CELL_SETTINGS
@given(st.sampled_from(CHAINED))
@every_cell(CHAINED)
def test_chained_bell_route_equals_the_enumeration(cell):
    # the hot path's C_s and witness are the d^M enumeration's, exactly
    spec = ProblemSpec(*cell)
    terms = [(e.alice, e.bob) for e in orbit(spec)]
    assert _chained_bell_bound(spec, terms) == classical_bound(spec, terms)


@EVERY_CELL_SETTINGS
@given(st.sampled_from(SLOT_CELLS))
@every_cell(SLOT_CELLS)
def test_slot_rule_gives_2m_slots_in_first_appearance_order(cell):
    # a term's slot is (alice setting, bob setting, outcomes equal): 2M
    # slots, numbered as they first appear along the orbit, each winning
    # set the outcome pairs of its terms
    spec = ProblemSpec(*cell)
    terms, _, _ = _orbit(spec, _root_table(spec))
    game = game_spec(spec, terms)
    keys = [(a.setting, b.setting, a.outcome == b.outcome) for a, b in terms]
    slots = list(dict.fromkeys(keys))
    assert len(slots) == 2 * spec.settings
    assert game.questions == tuple((s, t) for s, t, _ in slots)
    assert game.winning == tuple(
        frozenset((a.outcome, b.outcome) for (a, b), key in zip(terms, keys) if key == slot)
        for slot in slots
    )
    if spec.settings > 1:
        # the setting pair alone tells the slots apart
        assert len(set(game.questions)) == 2 * spec.settings
    else:
        # one setting: the matching and the wrap-around outcome pairs
        d = spec.outcomes
        assert game.questions == ((0, 0), (0, 0))
        assert game.winning == (
            frozenset((k, k) for k in range(d)),
            frozenset(((k + 1) % d, k) for k in range(d)),
        )


@EVERY_CELL_SETTINGS
@given(st.sampled_from(GRAM_CELLS))
@every_cell(GRAM_CELLS)
def test_product_form_orbit_matches_the_dense_recurrence(cell):
    spec = ProblemSpec(*cell)
    vectors = np.array([e.vector for e in orbit(spec)])
    assert np.max(np.abs(vectors - dense_recurrence(spec))) <= 1e-10


@EVERY_CELL_SETTINGS
@given(st.sampled_from(ANALYZABLE))
@every_cell(ANALYZABLE)
def test_per_term_probabilities_are_uniform_to_rounding(cell):
    ineq = build_inequality(ProblemSpec(*cell))
    uniform = ineq.quantum_bound / len(ineq.terms)
    assert np.max(np.abs(ineq.per_term_probs - uniform)) <= 1e-13


@PROPERTY_SETTINGS
@given(st.integers(2, 64), st.integers(1, 16))
def test_root_table_indices_are_the_snapped_eigenvalues(d, m):
    # the integer index arithmetic names the root that snapping each
    # eigenvalue lambda_j finds
    table = _root_table(ProblemSpec(d, m))
    order = 2 * m * d
    assert table.indices == [root_of_unity_index(lam, order) for lam in table.lambdas]
    assert all(type(idx) is int for idx in table.indices)


@PROPERTY_SETTINGS
@given(st.integers(2, 8), st.integers(1, 6))
def test_root_unitary_to_the_settings_is_the_shift(d, m):
    u = root_unitary(ProblemSpec(d, m))
    assert np.max(np.abs(mat_power(u, m) - translation_matrix(d))) <= 1e-11


@PROPERTY_SETTINGS
@given(st.integers(2, 8), st.integers(1, 6))
def test_orbit_closes_over_distinct_labels(d, m):
    spec = ProblemSpec(d, m)
    entries = orbit(spec)
    labels = [(e.alice, e.bob) for e in entries]
    assert len(labels) == len(set(labels)) == 2 * m * d
    assert label_step(entries[-1].alice, entries[-1].bob, spec) == labels[0]


@PROPERTY_SETTINGS
@given(st.integers(2, 8), st.integers(1, 6))
def test_per_term_probabilities_are_uniform(d, m):
    spec = ProblemSpec(d, m)
    entries = orbit(spec)
    analytic, state = quantum_bound_analytic(spec)
    probs = np.array([abs(np.vdot(state, e.vector)) ** 2 for e in entries])
    assert np.max(np.abs(probs - analytic / spec.orbit_length)) <= 1e-9


@PROPERTY_SETTINGS
@given(st.integers(2, 8), st.integers(1, 6))
def test_accumulate_A_matches_per_entry_outer_sum(d, m):
    entries = orbit(ProblemSpec(d, m))
    reference = np.zeros((d * d, d * d), dtype=complex)
    for e in entries:
        reference += np.outer(e.vector, e.vector.conj())
    assert np.max(np.abs(accumulate_A(stacked(entries)) - reference)) <= 1e-12
