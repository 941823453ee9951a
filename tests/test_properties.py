"""Property tests over random instances and random sets of orbit terms.

The factorised classical search is checked against the plain
per-Alice-map loop it replaced, on random non-empty subsets of orbit
terms: a subset breaks the symmetry of the full orbit, so it reaches
ties and tie-breaks that full orbits never produce. Its hit tables,
summed from one ``np.bincount`` of every pair of settings' hits, are
checked against filling
them one term at a time, in value and witness, at every cell with
d, M <= 6, on the orbit's terms and on shuffled,
halved, duplicated and random term lists. Arbitrary
label-pair lists (repeats allowed, one Bob setting sharing terms with
up to M Alice settings) reach the hit tables wider than the orbit's
two Alice settings per Bob setting. On every full orbit with d <= 12,
M <= 13, the chained-Bell route equals the max-plus elimination in
value and witness, and the orbit's (n, 4) int64 label array equals the
one-step label walk of ``reference.label_step``. On every term list
drawn here (the orbit, its random subsets, shuffles, halves and
duplicates, random label lists and hubs), the label pairs, a one-shot
iterator over them and their label array give ``classical_bound`` the
same value and witness and ``game_spec`` the same game or refusal. The
vector chained-Bell predicate, one bool per row, is membership in the
three families listed by ``reference.condition_label_pairs``, on
random labels up to one past either end of their ranges. The root
table's integer root indices are checked against snapping each
eigenvalue exp(i theta_j / M) of the phase rule, over
d <= 64 and M <= 16, and its first columns u_s = U^s|0>, exact index
powers through one inverse FFT, against column 0 of the running
products U^s of ``reference.measurement_bases``, and u_M against T|0>,
to 1e-12 over d <= 32 and M <= 12. The root-index quantum route,
which builds the state from P_mu = (1 + B/mu)/2, is checked against
grouping the whole closed-form eigensystem of
``reference.eigensystem_by_pair`` (the same root index, the
state to 1e-14 and Q_s to 1e-13 relative), and against the closed
form Q_s = M (1 + sin(pi/M) / (d sin(pi/(dM)))) and the Fourier
pairing rule (at most one Fourier pair per row and column of
the state's amplitudes) on d <= 32, M <= 12 and analyze's edge cells.
There, too, its proved group rho = 1 - d mod 2 (0 at M = 1) is checked
against scanning every eigenvalue group's weight from the integer root
indices: at M >= 2 it is the unique maximum, by a positive margin, at
M = 1 the first of the non-empty groups, which all have value 1, and
its state is the scan's winning-group state to 1e-14. The
Gram-spectrum and LAPACK routes are checked against the root-index
route to 1e-9, the
one-product projector sum
against the per-entry outer-product sum, the orbit's Gram matrix,
which ``verify`` forms from the (n, d) factors when it is the
smaller, against that sum, in their shared spectrum and trace n at
every d <= 8, M <= 4, and the orbit against its
defining identities: its product-form vectors against the dense
recurrence v_j = B v_(j-1) from |00> that they replaced. B^(2M) = T x T
shifts both outcomes by one, so the game's question slots are the
cosets of terms q, q + 2M, ...: terms j and j + 2M share their settings
with both outcomes one up on every orbit with d <= 12 and M <= 8, and
the coset slots equal the grouping by (alice setting, bob setting,
outcomes equal) in order of first appearance that they replaced, there
and at analyze's edge cells. The M = 2 prediction read off each slot's
first term reads, in every circulant grid, the entry the per-term
lookup it replaced hits for each Alice outcome, and p is d/4 times
their sum, bit for bit, at every d <= 64. The circulant M = 2
statistics, each grid one d-long column from one ``np.fft`` product,
equal the dense per-grid loop to 1e-12 (the grids, I_ab, its spread
and p) at every d <= 40; the dense routes ``verify`` checks them with,
four grids from one broadcast ``joint_distribution`` and their mutual
information from one stacked reduction, equal that loop, the grids to
1e-15 and I_ab and its spread to 1e-14, at d <= 32 and at (64, 2).
``verify``'s period
line, read off U^(Md) = 1 and T^d = 1, since B B = U x U, gives the
verdict of the 2Md-th power of the dense B of ``reference`` on every
cell with d <= 8, M <= 6, for U and for U with its phase moved.
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
    joint_distribution,
    mutual_information,
    orbit,
    quantum_bound_analytic,
    quantum_bound_numeric,
    root_unitary,
)
from orbitbell.bounds import (
    _chained_bell_bound,
    _chained_bell_terms,
    _inequality,
    quantum_bound_gram,
)
from orbitbell.games import _circulant_grids, _two_setting_stats
from orbitbell.linalg import accumulate_A, apply_step, translation_matrix
from orbitbell.orbit import (
    _eigenphases,
    _factor_indices,
    _gather,
    _labels,
    _root_table,
)
from orbitbell.verify import _gram, _largest
from reference import (
    classical_bound_by_term,
    condition_label_pairs,
    eigensystem_by_pair,
    fourier_rows,
    label_step,
    measurement_bases,
    root_of_unity_index,
    step_operator,
    two_setting_stats_by_grid,
)

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=200)
# only the @example cells, each once
EVERY_CELL_SETTINGS = settings(deadline=None, phases=[Phase.explicit])

# every (d, M) with at most 1e6 deterministic strategy pairs, d <= 8
ENUMERABLE = [
    (d, m) for d in range(2, 9) for m in range(1, 10) if d ** (2 * m) <= 10**6
]

# every (d, M) with d <= 12, M <= 13
CHAINED = [(d, m) for d in range(2, 13) for m in range(1, 14)]


# every (d, M) with d <= 16, M <= 8, guard or not
SMALL = [(d, m) for d in range(2, 17) for m in range(1, 9)]

GRAM_CELLS = [(d, m) for d in range(2, 13) for m in range(1, 7)]

# every (d, M) with d <= 12, M <= 8, guard or not
SLOT_CELLS = [(d, m) for d in range(2, 13) for m in range(1, 9)]

# the largest cells analyze admits at d = 64, 16 and 2
EDGE_CELLS = [(64, 2), (64, 10), (16, 98), (2, 835)]

# every (d, M) with d <= 32, M <= 12
POWER_CELLS = [(d, m) for d in range(2, 33) for m in range(1, 13)]

# those and analyze's edge cells
CLOSED_FORM_CELLS = POWER_CELLS + EDGE_CELLS

# every two-setting (d, M) with d <= 64
TWO_SETTING_CELLS = [(d, 2) for d in range(2, 65)]

# every two-setting (d, M) with d <= 32, and analyze's largest at d = 64
STATS_CELLS = [(d, 2) for d in range(2, 33)] + [(64, 2)]

# every two-setting (d, M) with d <= 40
CIRCULANT_CELLS = [(d, 2) for d in range(2, 41)]

# every (d, M) with d <= 8, M <= 4
GRAM_MATRIX_CELLS = [(d, m) for d in range(2, 9) for m in range(1, 5)]

# every (d, M) with d <= 8, M <= 6
PERIOD_CELLS = [(d, m) for d in range(2, 9) for m in range(1, 7)]

# every (d, M) with d, M <= 6
ENUMERATION_CELLS = [(d, m) for d in range(2, 7) for m in range(1, 7)]


def every_cell(cells):
    """Run a one-argument property on each of ``cells`` explicitly."""

    def decorate(test):
        for cell in reversed(cells):
            test = example(cell)(test)
        return test

    return decorate


def grouped_eigensystem_bound(spec, entries):
    """Reference: group every closed-form eigenpair of B by root index,
    ascending; a group wins only above the running best + 1e-12.
    Returns the winning root index, value and state."""
    seed = entries[0].vector
    groups = {}
    for idx, vector in zip(*eigensystem_by_pair(spec, _root_table(spec))):
        groups.setdefault(int(idx), []).append(vector)
    best_idx, best_value, best_state = -1, -1.0, None
    for idx in sorted(groups):
        members = groups[idx]
        coeffs = [np.vdot(v, seed) for v in members]
        weight = float(sum(abs(c) ** 2 for c in coeffs))
        value = 0.0 if weight < 1e-15 else spec.orbit_length * weight
        if value > best_value + 1e-12:
            best_idx, best_value = idx, value
            if weight < 1e-15:
                best_state = None
            else:
                x = sum(c * v for c, v in zip(coeffs, members))
                best_state = x / np.linalg.norm(x)
    return best_idx, best_value, best_state


def scanned_group_values(spec, table):
    """Reference: the value of every eigenvalue group of B, indexed by
    root index, and the number of Fourier pairs in each. Pair (a, b)
    lies in the groups h and h + n/2, h = ((r_a + r_b) mod n) / 2, with
    weights (1 +/- cos(2 pi (r_a - h)/n)) / (2 d^2): two bincount sums
    over the d^2 pairs of integer root indices. Also returns h."""
    d, order = spec.outcomes, spec.orbit_length
    half = order // 2
    r = np.array(table.indices)
    h = (r[:, None] + r) % order // 2
    cos = np.cos(2 * np.pi * (r[:, None] - h) / order)
    count = np.bincount(h.ravel(), minlength=half)
    cosines = np.bincount(h.ravel(), cos.ravel(), minlength=half)
    values = np.concatenate([count + cosines, count - cosines]) * (order / (2 * d**2))
    return values, np.concatenate([count, count]), h


def scanned_group_state(spec, table, h, group):
    """Reference: the normalized projection of |00> onto the eigenvalue
    group ``group``, W^T C W with W the Fourier rows and C[a, b] =
    1 + lambda_a/mu on the group's pairs and 0 elsewhere."""
    order = spec.orbit_length
    r = np.array(table.indices)
    members = h == group % (order // 2)
    coeffs = np.where(members, 1 + np.exp(2j * np.pi * (r[:, None] - group) / order), 0)
    rows = fourier_rows(spec.outcomes)
    x = (rows.T @ coeffs @ rows).ravel()
    return x / np.linalg.norm(x)


def closed_form_bound(d, m):
    """Q_s = M (1 + sin(pi/M) / (d sin(pi/(dM)))), and 1 at M = 1."""
    if m == 1:
        return 1.0
    return m * (1 + np.sin(np.pi / m) / (d * np.sin(np.pi / (d * m))))


def stacked(entries):
    """The orbit vectors as the rows of one (n, d^2) array."""
    return np.array([e.vector for e in entries])


def array_form(pairs):
    """Reference: the (n, 4) int64 label array of (alice, bob) label
    pairs, one row (alice setting, outcome, bob setting, outcome) per
    pair, built without the package's conversion."""
    rows = [[a.setting, a.outcome, b.setting, b.outcome] for a, b in pairs]
    return np.array(rows, dtype=np.int64).reshape(len(rows), 4)


def outcome_of(fn, *args):
    """``fn(*args)``, or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def assert_forms_agree(spec, pairs):
    """The label pairs, a one-shot iterator over them and their label
    array give ``classical_bound`` the same value and witness, and
    ``game_spec`` the same game or the same refusal."""
    labels = array_form(pairs)
    bound = classical_bound(spec, pairs)
    assert classical_bound(spec, labels) == classical_bound(spec, iter(pairs)) == bound
    game = outcome_of(game_spec, pairs)
    assert outcome_of(game_spec, labels) == outcome_of(game_spec, iter(pairs)) == game


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


def per_term_predicted_entries(ineq, grids):
    """Reference: Bob's outcome looked up per term by (alice setting,
    alice outcome, bob setting), and the grid entry it hits for each
    Alice outcome, per setting pair in the (2, 2, d, d) stack's order."""
    predicted = {}
    for alice, bob in ineq.terms:
        key = (alice.setting, alice.outcome, bob.setting)
        assert key not in predicted, f"ambiguous prediction for {key}"
        predicted[key] = bob.outcome
    return {
        (s, t): [float(grids[s, t, a, predicted[(s, a, t)]]) for a in range(ineq.spec.outcomes)]
        for s in range(2)
        for t in range(2)
    }


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
    assert_forms_agree(spec, subset)


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
    assert_forms_agree(spec, pairs)


@EVERY_CELL_SETTINGS
@given(st.sampled_from(ENUMERATION_CELLS))
@every_cell(ENUMERATION_CELLS)
def test_classical_bound_matches_the_per_term_hit_tables(cell):
    # the bincount tables against one += per term, on the orbit's terms
    # and on lists that break its symmetry: halving and random labels
    # reach ties, and so the lexicographic witness
    d, m = cell
    spec = ProblemSpec(d, m)
    rng = np.random.default_rng(100 * d + m)
    terms = list(_inequality(spec).inequality.terms)
    shuffled = [terms[i] for i in rng.permutation(len(terms))]
    labels = rng.integers(0, [m, d, m, d], size=(len(terms), 4)).tolist()
    lists = {
        "orbit": terms,
        "shuffled": shuffled,
        "halved": shuffled[: len(terms) // 2],
        "duplicated": terms + shuffled[: len(terms) // 2],
        "random": [(MeasLabel(s, a), MeasLabel(t, b)) for s, a, t, b in labels],
    }
    for name, pairs in lists.items():
        value, witness = classical_bound(spec, pairs)
        found = value, (witness.alice_map, witness.bob_map)
        assert found == classical_bound_by_term(spec, pairs), name
        assert_forms_agree(spec, pairs)


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
def test_root_index_route_matches_grouping_the_eigensystem(cell):
    # the same group, read off the state as its eigenvalue under the
    # dense B, and the same state and value to rounding
    spec = ProblemSpec(*cell)
    value, state = quantum_bound_analytic(spec)
    ref_idx, ref_value, ref_state = grouped_eigensystem_bound(spec, orbit(spec))
    b_state = apply_step(root_unitary(spec), state)
    assert root_of_unity_index(np.vdot(state, b_state), spec.orbit_length) == ref_idx
    assert np.max(np.abs(state - ref_state)) <= 1e-14
    assert abs(value - ref_value) <= 1e-13 * ref_value


@EVERY_CELL_SETTINGS
@given(st.sampled_from(CLOSED_FORM_CELLS))
@every_cell(CLOSED_FORM_CELLS)
def test_quantum_bound_is_the_closed_form(cell):
    value, _ = quantum_bound_analytic(ProblemSpec(*cell))
    assert abs(value - closed_form_bound(*cell)) <= 1e-12


@EVERY_CELL_SETTINGS
@given(st.sampled_from(CLOSED_FORM_CELLS))
@every_cell(CLOSED_FORM_CELLS)
def test_proved_group_is_the_scan_winner(cell):
    d, m = cell
    spec = ProblemSpec(d, m)
    table = _root_table(spec)
    values, counts, h = scanned_group_values(spec, table)
    rho = 0 if m == 1 or d % 2 else 1
    if m == 1:
        # every non-empty group ties at 1; rho = 0 is the first of them
        filled = np.flatnonzero(counts)
        assert filled[0] == rho
        assert np.max(np.abs(values[filled] - 1)) <= 1e-12
    else:
        runner_up = np.max(np.delete(values, rho))
        assert values[rho] - runner_up > 1e-9
    _, state = quantum_bound_analytic(spec)
    assert np.max(np.abs(state - scanned_group_state(spec, table, h, rho))) <= 1e-14


@EVERY_CELL_SETTINGS
@given(st.sampled_from(CLOSED_FORM_CELLS))
@every_cell(CLOSED_FORM_CELLS)
def test_optimal_state_pairs_each_fourier_vector_with_at_most_one(cell):
    # amplitudes F[a, b] = <w_a (x) w_b|psi>: at most one entry above
    # 1e-12 in each row and each column
    d = cell[0]
    _, state = quantum_bound_analytic(ProblemSpec(*cell))
    w = fourier_rows(d)
    amplitudes = w.conj() @ state.reshape(d, d) @ w.conj().T
    large = np.abs(amplitudes) > 1e-12
    assert large.sum(axis=0).max() <= 1 and large.sum(axis=1).max() <= 1


@EVERY_CELL_SETTINGS
@given(st.sampled_from(GRAM_CELLS))
@every_cell(GRAM_CELLS)
def test_gram_route_agrees_with_dense_eigvalsh(cell):
    spec = ProblemSpec(*cell)
    dense = float(np.linalg.eigvalsh(accumulate_A(stacked(orbit(spec))))[-1])
    c0 = _gather(spec, _root_table(spec), np.zeros(1, dtype=int), _factor_indices(spec))[:, 0]
    assert abs(quantum_bound_gram(c0[1:] * c0[:-1]) - dense) <= 1e-9


@EVERY_CELL_SETTINGS
@given(st.sampled_from(GRAM_MATRIX_CELLS))
@every_cell(GRAM_MATRIX_CELLS)
def test_orbit_gram_matrix_has_the_projector_sums_spectrum_and_trace(cell):
    # verify eigen-solves the smaller of the two: G from the factors it
    # gathers, A from the public orbit's states; the larger has only
    # zeros beyond the smaller's spectrum, and both traces are n
    d, m = cell
    spec = ProblemSpec(d, m)
    n = spec.orbit_length
    factors = _gather(spec, _root_table(spec), np.arange(d), _factor_indices(spec))
    gram = _gram(factors[1:], factors[:-1])
    projector_sum = accumulate_A(stacked(orbit(spec)))
    assert gram.shape == (n, n)
    spectra = [np.linalg.eigvalsh(x) for x in (gram, projector_sum)]
    shared = min(n, d * d)
    assert abs(spectra[0][-1] - spectra[1][-1]) <= 1e-12
    assert np.max(np.abs(spectra[0][-shared:] - spectra[1][-shared:])) <= 1e-12
    assert all(np.max(np.abs(x[:-shared]), initial=0.0) <= 1e-12 for x in spectra)
    assert all(abs(np.trace(x) - n) <= 1e-12 for x in (gram, projector_sum))


@PROPERTY_SETTINGS
@given(st.sampled_from(CHAINED))
@every_cell(CHAINED)
def test_full_orbit_bounds_are_chained_bell_values(cell):
    # C_s = 2M - 1 with the all-zero table as witness, and C_s <= Q_s <= 2M
    d, m = cell
    spec = ProblemSpec(d, m)
    terms = [(e.alice, e.bob) for e in orbit(spec)]
    value, witness = classical_bound(spec, terms)
    assert_forms_agree(spec, terms)
    assert value == 2 * m - 1
    assert witness == DeterministicStrategy((0,) * m, (0,) * m)
    analytic, _ = quantum_bound_analytic(spec)
    assert value - 1e-9 <= analytic <= 2 * m + 1e-9


@EVERY_CELL_SETTINGS
@given(st.sampled_from(CHAINED))
@every_cell(CHAINED)
def test_chained_bell_route_equals_the_enumeration(cell):
    # the hot path's C_s and witness are the max-plus elimination's, exactly
    spec = ProblemSpec(*cell)
    labels = _inequality(spec).inequality.labels
    assert _chained_bell_bound(spec, labels) == classical_bound(spec, labels)


@EVERY_CELL_SETTINGS
@given(st.sampled_from(CHAINED))
@every_cell(CHAINED)
def test_label_array_is_the_label_walk(cell):
    # the (n, 4) label array read off the index rule, and the report's
    # array and tuple view of it, against label_step iterated 2Md times
    # from ((0,0), (0,0))
    spec = ProblemSpec(*cell)
    pair, walk = (MeasLabel(0, 0), MeasLabel(0, 0)), []
    for _ in range(spec.orbit_length):
        walk.append(pair)
        pair = label_step(*pair, spec)
    labels = _labels(spec, _factor_indices(spec))
    assert labels.dtype == np.int64 and labels.shape == (spec.orbit_length, 4)
    assert (labels == array_form(walk)).all()
    ineq = _inequality(spec).inequality
    assert (ineq.labels == labels).all()
    assert ineq.terms == tuple(walk)


@PROPERTY_SETTINGS
@given(st.data())
def test_chained_bell_predicate_is_membership_in_the_families(data):
    # random label pairs with settings and outcomes up to one past either
    # end of their ranges, mixed with the families' own pairs: the
    # predicate, one bool per row, accepts exactly the families' pairs
    d, m = data.draw(st.sampled_from(CHAINED), label="(d, M)")
    families = condition_label_pairs(ProblemSpec(d, m))
    label = st.builds(MeasLabel, st.integers(-1, m), st.integers(-1, d))
    pair = st.one_of(st.tuples(label, label), st.sampled_from(sorted(families)))
    pairs = data.draw(st.lists(pair, min_size=1, max_size=64), label="pairs")
    accepted = _chained_bell_terms(array_form(pairs).tolist(), d, m)
    assert accepted == [p in families for p in pairs]


@EVERY_CELL_SETTINGS
@given(st.sampled_from(SLOT_CELLS))
@every_cell(SLOT_CELLS)
def test_terms_2m_apart_differ_by_one_outcome_shift(cell):
    # B^(2M) = T x T: the coset fact the game's slot slicing rests on
    d, m = cell
    spec = ProblemSpec(d, m)
    terms = build_inequality(spec).terms
    for (a, b), (a2, b2) in zip(terms, terms[2 * m :] + terms[: 2 * m]):
        assert (a2.setting, b2.setting) == (a.setting, b.setting)
        assert (a2.outcome, b2.outcome) == ((a.outcome + 1) % d, (b.outcome + 1) % d)


@EVERY_CELL_SETTINGS
@given(st.sampled_from(SLOT_CELLS + EDGE_CELLS))
@every_cell(SLOT_CELLS + EDGE_CELLS)
def test_slot_rule_gives_2m_slots_in_first_appearance_order(cell):
    # reference: a term's slot is (alice setting, bob setting, outcomes
    # equal), 2M slots numbered as they first appear along the orbit,
    # each winning set the outcome pairs of its terms
    spec = ProblemSpec(*cell)
    ineq = build_inequality(spec)
    terms = ineq.terms
    game = game_spec(terms)
    assert game_spec(ineq.labels) == game
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
@given(st.sampled_from(TWO_SETTING_CELLS))
@every_cell(TWO_SETTING_CELLS)
def test_slot_prediction_is_the_per_term_lookup_bit_for_bit(cell):
    # in each circulant grid every Alice outcome's looked-up entry is the
    # one the slot's offset reads, and p is d/4 times their sum in
    # (s, t) order
    d = cell[0]
    instance = _inequality(ProblemSpec(*cell))
    stats = _two_setting_stats(instance.inequality, instance.table.firsts)
    picked = per_term_predicted_entries(instance.inequality, _circulant_grids(stats.columns))
    assert all(len(set(entries)) == 1 for entries in picked.values())
    assert stats.prediction == d * sum(entries[0] for entries in picked.values()) / 4.0


@EVERY_CELL_SETTINGS
@given(st.sampled_from(STATS_CELLS))
@every_cell(STATS_CELLS)
def test_broadcast_statistics_match_the_per_grid_loop(cell):
    # the dense routes verify checks the circulant statistics with: the
    # four grids from one broadcast joint_distribution and their mutual
    # information from one stacked reduction
    instance = _inequality(ProblemSpec(*cell))
    u = instance.table.u
    bases = np.stack([np.eye(len(u), dtype=complex), u])
    stack = joint_distribution(instance.inequality.optimal_state, bases[:, None], bases[None, :])
    infos = mutual_information(stack)
    _, info, spread, grids = two_setting_stats_by_grid(
        instance.inequality, measurement_bases(u, 2)
    )
    for (s, t), grid in grids.items():
        assert np.max(np.abs(stack[s, t] - grid)) <= 1e-15
    assert abs(infos[0, 0] - info) <= 1e-14
    assert abs(infos.max() - infos.min() - spread) <= 1e-14


@EVERY_CELL_SETTINGS
@given(st.sampled_from(CIRCULANT_CELLS))
@every_cell(CIRCULANT_CELLS)
def test_circulant_statistics_match_the_dense_grids(cell):
    # each M = 2 grid is one d-long column of a circulant grid: the
    # columns against the dense d x d grids of the d^2 amplitudes, and
    # the statistics read off them against those of the dense grids
    instance = _inequality(ProblemSpec(*cell))
    stats = _two_setting_stats(instance.inequality, instance.table.firsts)
    p, info, spread, grids = two_setting_stats_by_grid(
        instance.inequality, measurement_bases(instance.table.u, 2)
    )
    circulant = _circulant_grids(stats.columns)
    for (s, t), grid in grids.items():
        assert np.max(np.abs(circulant[s, t] - grid)) <= 1e-12
    assert abs(stats.info_bits - info) <= 1e-12
    assert abs(stats.spread - spread) <= 1e-12
    assert abs(stats.prediction - p) <= 1e-12


@EVERY_CELL_SETTINGS
@given(st.sampled_from(PERIOD_CELLS))
@every_cell(PERIOD_CELLS)
def test_period_line_agrees_with_the_matrix_power(cell):
    # B B = U x U, so the period line reads B^(2Md) = U^(Md) x U^(Md) off
    # U^(Md) and T^d; a phase e^(i phi) on U moves U^(Md) off 1 by
    # |e^(Md i phi) - 1| and the dense B^(2Md) off 1 by
    # |e^(2Md i phi) - 1|: both fail at phi = 1e-6
    spec = ProblemSpec(*cell)
    d, m, length = spec.outcomes, spec.settings, spec.orbit_length
    t = translation_matrix(d)
    for phase, passes in ((0.0, True), (1e-6, False)):
        u = _root_table(spec).u * np.exp(1j * phase)
        power = _largest(mat_power(step_operator(u), length) - np.eye(d * d))
        line = _largest([
            _largest(mat_power(u, m * d) - np.eye(d)),
            _largest(mat_power(t, d) - np.eye(d)),
        ])
        assert (power <= 1e-10, line <= 1e-10) == (passes, passes)


@EVERY_CELL_SETTINGS
@given(st.sampled_from(GRAM_CELLS))
@every_cell(GRAM_CELLS)
def test_product_form_orbit_matches_the_dense_recurrence(cell):
    spec = ProblemSpec(*cell)
    vectors = np.array([e.vector for e in orbit(spec)])
    assert np.max(np.abs(vectors - dense_recurrence(spec))) <= 1e-10


@EVERY_CELL_SETTINGS
@given(st.sampled_from(SMALL))
@every_cell(SMALL)
def test_per_term_probabilities_are_uniform_to_rounding(cell):
    ineq = build_inequality(ProblemSpec(*cell))
    uniform = ineq.quantum_bound / len(ineq.terms)
    assert np.max(np.abs(ineq.per_term_probs - uniform)) <= 1e-13


@PROPERTY_SETTINGS
@given(st.integers(2, 64), st.integers(1, 16))
def test_root_table_indices_are_the_snapped_eigenvalues(d, m):
    # the integer index arithmetic names the root that snapping each
    # eigenvalue exp(i theta_j / M) of the phase rule finds
    table = _root_table(ProblemSpec(d, m))
    order = 2 * m * d
    rooted = [np.exp(1j * theta / m) for theta in _eigenphases(d).tolist()]
    assert table.indices == [root_of_unity_index(lam, order) for lam in rooted]
    assert all(type(idx) is int for idx in table.indices)


@EVERY_CELL_SETTINGS
@given(st.sampled_from(POWER_CELLS))
@every_cell(POWER_CELLS)
def test_first_columns_are_the_running_products_first_columns(cell):
    # u_s from exact index powers against column 0 of U^s = U^(s-1) U,
    # and the extra row u_M against T|0> = |1>
    d, m = cell
    table = _root_table(ProblemSpec(d, m))
    assert table.firsts.shape == (m + 1, d)
    bases = measurement_bases(table.u, m)
    for s in range(m):
        assert np.max(np.abs(table.firsts[s] - bases[s][:, 0])) <= 1e-12
    assert np.max(np.abs(table.firsts[m] - translation_matrix(d)[:, 0])) <= 1e-12


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
