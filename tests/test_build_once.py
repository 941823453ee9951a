"""Each analyzed instance is built once.

Everything rests on one root table per instance (the exact root
indices of U's eigenvalues, and the first columns u_0..u_M of the powers
of U, from exact index powers and checked through U, whose u_1 gives
U): ``analyze`` builds it once at every M and hands it to the orbit's
Gram row, to both quantum routes and, at M = 2, its first columns to
the one statistics function, which reads each of the four joint grids
as one d-long column of a circulant grid, and the mutual information
and the prediction probability from those, and which runs at no other
M. ``analyze`` holds the optimal state as its d coefficients and never
forms its d^2 amplitudes, the four d x d grids or the dense grid and
information routes, also when it writes the certificate. No
public view of the table (``root_unitary``, ``orbit``) runs on that
path. ``analyze`` computes the index rule's sequence once, reads the
orbit's labels off it once, as one (n, 4) int64 array that the
chained-Bell check, the game, the M = 2 slot lookup and the
certificate's term rows all read, with no MeasLabel pair formed, and
gathers entry 0 of its factors once, with no (n, d) factor array and
no orbit state; it
runs the root-index and Gram routes of the quantum bound, and calls
none of the ``linalg`` module's dense routes. Its classical bound is
the chained-Bell value, with no max-plus elimination. The modules on
that path import neither ``linalg`` nor ``verify``, and ``linalg``
imports no ``orbitbell`` module, so the dense routes share no code
with the routes they check.
The verification sweep runs the same assembly once per cell, so it
checks the instance ``analyze`` reports, with one root table, one label
array, one Gram spectrum and one gather of the whole factors; it runs
the statistics function once per M = 2 cell, and the max-plus
elimination of the classical bound once per cell, on that label array.
It builds the shift T once per outcome count and no d^2 x d^2 step
operator or swap: it applies B by its definition.
"""

import ast
import functools
import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import orbitbell.linalg
from orbitbell import (
    BellInequality,
    MeasLabel,
    ProblemSpec,
    analyze,
    certificate_json,
    run_verification,
)

# every cross-check route: the linalg module's public functions
DENSE_ROUTES = [
    name for name in orbitbell.linalg.__all__
    if inspect.isfunction(getattr(orbitbell.linalg, name))
]


def count_calls(monkeypatch, module_name, attr):
    """Wrap a function in every orbitbell namespace that binds it."""
    fn = getattr(importlib.import_module(module_name), attr)
    calls = [0]

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "orbitbell" or name.startswith("orbitbell."):
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, counted)
    return calls


def record_shapes(monkeypatch, module_name, attr):
    """Wrap a function in every orbitbell namespace that binds it, and
    list the shapes of the arrays it returns."""
    fn = getattr(importlib.import_module(module_name), attr)
    shapes = []

    @functools.wraps(fn)
    def recorded(*args, **kwargs):
        result = fn(*args, **kwargs)
        shapes.append(result.shape)
        return result

    for name, module in list(sys.modules.items()):
        if name == "orbitbell" or name.startswith("orbitbell."):
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, recorded)
    return shapes


@pytest.mark.parametrize("d,m", [(5, 4), (2, 12), (10, 2)])
def test_analyze_builds_each_instance_once(monkeypatch, d, m):
    tables = count_calls(monkeypatch, "orbitbell.orbit", "_root_table")
    checks = count_calls(monkeypatch, "orbitbell.orbit", "_check_columns")
    indices = count_calls(monkeypatch, "orbitbell.orbit", "_factor_indices")
    labels = count_calls(monkeypatch, "orbitbell.orbit", "_labels")
    gathers = record_shapes(monkeypatch, "orbitbell.orbit", "_gather")
    states = count_calls(monkeypatch, "orbitbell.orbit", "_states")
    # the public views of the table rebuild it, so they stay off the path
    roots = count_calls(monkeypatch, "orbitbell.orbit", "root_unitary")
    public_orbits = count_calls(monkeypatch, "orbitbell.orbit", "orbit")
    stats = count_calls(monkeypatch, "orbitbell.games", "_two_setting_stats")
    grids = count_calls(monkeypatch, "orbitbell.games", "joint_distribution")
    gram = count_calls(monkeypatch, "orbitbell.bounds", "quantum_bound_gram")
    analytic = count_calls(monkeypatch, "orbitbell.bounds", "_analytic_bound")
    # the dense routes belong to verify and the tests only
    dense = {
        name: count_calls(monkeypatch, "orbitbell.linalg", name) for name in DENSE_ROUTES
    }
    eliminations = count_calls(monkeypatch, "orbitbell.bounds", "classical_bound")
    report = analyze(ProblemSpec(d, m))
    assert report.classical_bound == 2 * m - 1
    assert tables[0] == checks[0] == indices[0] == labels[0] == 1
    # entry 0 of the factors alone: no (n, d) array and no state
    assert gathers == [(2 * m * d + 1, 1)]
    assert states[0] == 0
    assert roots[0] == public_orbits[0] == 0
    assert stats[0] == (1 if m == 2 else 0)
    assert grids[0] == 0
    assert gram[0] == analytic[0] == 1
    assert {name: calls[0] for name, calls in dense.items()} == dict.fromkeys(DENSE_ROUTES, 0)
    assert eliminations[0] == 0


@pytest.mark.parametrize("d,m", [(5, 4), (2, 12)])
def test_analyze_skips_joint_grids_beyond_two_settings(monkeypatch, d, m):
    stats = count_calls(monkeypatch, "orbitbell.games", "_two_setting_stats")
    grids = count_calls(monkeypatch, "orbitbell.games", "joint_distribution")
    tables = count_calls(monkeypatch, "orbitbell.orbit", "_root_table")
    report = analyze(ProblemSpec(d, m))
    assert report.joint_grids is None
    assert stats[0] == grids[0] == 0
    assert tables[0] == 1


@pytest.mark.parametrize("d,m", [(2, 2), (10, 2), (64, 2), (5, 4), (64, 10), (2, 835)])
def test_analyze_forms_no_d2_state_and_no_grid_stack(monkeypatch, d, m):
    # the state stays d coefficients and each M = 2 grid one d-long
    # column, through the report and its certificate
    expansions = count_calls(monkeypatch, "orbitbell.bounds", "_expand_state")
    stacks = count_calls(monkeypatch, "orbitbell.games", "_circulant_grids")
    grids = count_calls(monkeypatch, "orbitbell.games", "joint_distribution")
    infos = count_calls(monkeypatch, "orbitbell.games", "mutual_information")
    report = analyze(ProblemSpec(d, m))
    certificate_json(report)
    assert expansions[0] == stacks[0] == grids[0] == infos[0] == 0
    ineq = report.inequality
    assert ineq.coefficients.shape == (d,)
    assert ineq.per_term_probs.shape == (2 * m * d,)
    if m == 2:
        assert report.grid_columns.shape == (2, 2, d)
    else:
        assert report.grid_columns is None
    # forming them on request is the only way to them
    assert report.inequality.optimal_state.shape == (d * d,)
    assert expansions[0] == 1


def record_args(monkeypatch, module_name, attr):
    """Wrap a function in every orbitbell namespace that binds it, and
    list the positional arguments of each call."""
    fn = getattr(importlib.import_module(module_name), attr)
    calls = []

    @functools.wraps(fn)
    def recorded(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "orbitbell" or name.startswith("orbitbell."):
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, recorded)
    return calls


def count_label_pairs(monkeypatch):
    """Count every ``MeasLabel`` made, by its constructor or ``_make``,
    and every read of ``BellInequality.terms``, the tuple view."""
    made = [0]
    real_new, real_make, real_terms = MeasLabel.__new__, MeasLabel._make, BellInequality.terms

    def counted_new(cls, *args, **kwargs):
        made[0] += 1
        return real_new(cls, *args, **kwargs)

    def counted_make(iterable):
        made[0] += 1
        return real_make(iterable)

    def counted_terms(ineq):
        made[0] += 1
        return real_terms.fget(ineq)

    monkeypatch.setattr(MeasLabel, "__new__", staticmethod(counted_new))
    monkeypatch.setattr(MeasLabel, "_make", staticmethod(counted_make))
    monkeypatch.setattr(BellInequality, "terms", property(counted_terms))
    return made


@pytest.mark.parametrize("d,m", [(2, 2), (10, 2), (64, 2), (5, 4), (64, 10), (2, 835)])
def test_analyze_and_certificate_read_one_label_array(monkeypatch, d, m):
    # analyze builds the index rule's sequence once, and from it the one
    # (n, 4) label array that the chained-Bell check, the game, the
    # M = 2 slot lookup and the certificate's term rows read: no
    # MeasLabel pair is formed on the way to the certificate, and the
    # game is handed the array itself
    indices = count_calls(monkeypatch, "orbitbell.orbit", "_factor_indices")
    games = record_args(monkeypatch, "orbitbell.games", "game_spec")
    made = count_label_pairs(monkeypatch)
    report = analyze(ProblemSpec(d, m))
    certificate_json(report)
    assert indices[0] == 1
    assert made[0] == 0
    labels = report.inequality.labels
    assert labels.dtype == np.int64 and labels.shape == (2 * m * d, 4)
    assert [args[0] is labels for args in games] == [True]
    # the tuple view is formed on request, from the array
    pairs = report.inequality.terms
    assert made[0] == 1 + 2 * len(pairs)
    assert [(*a, *b) for a, b in pairs] == [tuple(row) for row in labels.tolist()]


def test_verify_hands_classical_bound_the_label_array(monkeypatch):
    # at each of the 30 default cells, the max-plus elimination reads the
    # assembly's (n, 4) integer label array, not MeasLabel pairs
    eliminations = record_args(monkeypatch, "orbitbell.verify", "classical_bound")
    made = count_label_pairs(monkeypatch)
    report = run_verification()
    assert report.passed
    cells = [(d, m) for d in range(2, 7) for m in range(1, 7)]
    assert [(spec.outcomes, spec.settings) for spec, _ in eliminations] == cells
    for spec, terms in eliminations:
        assert type(terms) is np.ndarray and terms.dtype == np.int64
        assert terms.shape == (spec.orbit_length, 4)
    assert made[0] == 0


def test_verify_builds_each_cell_once(monkeypatch):
    assemblies = count_calls(monkeypatch, "orbitbell.bounds", "_inequality")
    tables = count_calls(monkeypatch, "orbitbell.orbit", "_root_table")
    labels = count_calls(monkeypatch, "orbitbell.orbit", "_labels")
    gathers = record_shapes(monkeypatch, "orbitbell.orbit", "_gather")
    roots = count_calls(monkeypatch, "orbitbell.orbit", "root_unitary")
    gram = count_calls(monkeypatch, "orbitbell.bounds", "quantum_bound_gram")
    stats = count_calls(monkeypatch, "orbitbell.games", "_two_setting_stats")
    shifts = count_calls(monkeypatch, "orbitbell.linalg", "translation_matrix")
    steps = record_shapes(monkeypatch, "orbitbell.linalg", "apply_step")
    report = run_verification(3, 3)  # 6 cells
    assert report.passed
    assert assemblies[0] == tables[0] == labels[0] == 6
    # per cell, the assembly's entry 0 and verify's whole factors
    cells = [(d, m) for d in (2, 3) for m in (1, 2, 3)]
    assert gathers == [
        shape for d, m in cells for shape in ((2 * m * d + 1, 1), (2 * m * d + 1, d))
    ]
    # one T per outcome count, d = 2 and 3, and B applied twice per
    # cell, to the (n, d^2) orbit states and to the d^2-long optimal
    # state, with no d^2 x d^2 matrix
    assert shifts[0] == 2
    assert steps == [
        shape for d, m in cells for shape in ((2 * m * d, d * d), (d * d,))
    ]
    # the information and prediction lines read one statistics run per
    # M = 2 cell, (2, 2) and (3, 2)
    assert stats[0] == 2
    # the Gram line reads the assembly's value instead of a second route run
    assert gram[0] == 6
    assert roots[0] == 0


def test_verify_eliminates_once_per_cell(monkeypatch):
    # one max-plus elimination and one assembly at each of the 28 cells,
    # the largest, (5, 7), with 5^14 strategy pairs, included, and every
    # summary row reads C_s = 2M - 1
    eliminations = count_calls(monkeypatch, "orbitbell.bounds", "classical_bound")
    assemblies = count_calls(monkeypatch, "orbitbell.bounds", "_inequality")
    report = run_verification(5, 7)
    assert report.passed
    assert eliminations[0] == assemblies[0] == 28
    assert [row.split(" C_s=")[1] for row in report.summary] == [
        str(2 * m - 1) for d in range(2, 6) for m in range(1, 8)
    ]


def imported_modules(module):
    """Every module and module member that ``orbitbell.<module>``
    imports, as written: relative (".orbit", ".orbit._orbit") or
    absolute."""
    source = Path(importlib.import_module(f"orbitbell.{module}").__file__).read_text()
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            joint = base if base.endswith(".") else base + "."
            imported.add(base)
            imported.update(joint + alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    return imported


@pytest.mark.parametrize("module", ["orbit", "bounds", "games", "certificate"])
def test_hot_path_modules_import_neither_linalg_nor_verify(module):
    # the dependency runs one way: linalg and verify import the hot path,
    # never the reverse
    banned = {".linalg", ".verify", "orbitbell.linalg", "orbitbell.verify"}
    assert not imported_modules(module) & banned


def test_linalg_imports_no_orbitbell_module():
    # the dense routes share no code with the routes they cross-check:
    # linalg builds its matrices from numpy alone
    imported = imported_modules("linalg")
    assert "numpy" in imported
    assert not {
        name for name in imported if name.startswith(".") or name.startswith("orbitbell")
    }
