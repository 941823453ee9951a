"""Each analyzed instance is built once.

Everything rests on one root table per instance (the exact root
indices of U's eigenvalues, and the first columns u_0..u_M of the powers
of U, from exact index powers and checked through U, whose u_1 gives
U): ``analyze`` builds it once at every M and hands it to the orbit's
Gram row, to both quantum routes and, at M = 2, U to the one statistics
function, which forms the four joint grids in one broadcast
``joint_distribution`` call and reads the mutual information and the
prediction probability from them, and which runs at no other M. No
public view of the table (``root_unitary``, ``orbit``) runs on that
path. ``analyze`` reads the orbit's terms once and gathers entry 0 of
its factors once, with no (n, d) factor array and no orbit state; it
runs the root-index and Gram routes of the quantum bound, and calls
none of the ``linalg`` module's dense routes. Its classical bound is
the chained-Bell value, with no max-plus elimination. The modules on
that path import neither ``linalg`` nor ``verify``, and ``linalg``
imports no ``orbitbell`` module, so the dense routes share no code
with the routes they check.
The verification sweep runs the same assembly once per cell, so it
checks the instance ``analyze`` reports, with one root table, one term
list, one Gram spectrum and one gather of the whole factors; it runs
the statistics function once per M = 2 cell, and the max-plus
elimination of the classical bound once per cell. The shift T and the
swap S depend on d alone, so the sweep builds them once per outcome
count.
"""

import ast
import functools
import importlib
import inspect
import sys
from pathlib import Path

import pytest

import orbitbell.linalg
from orbitbell import ProblemSpec, analyze, run_verification

# every dense d^2 x d^2 route: the linalg module's public functions and
# the dense product B is checked against
DENSE_ROUTES = [
    name for name in orbitbell.linalg.__all__
    if inspect.isfunction(getattr(orbitbell.linalg, name))
] + ["_step_product"]


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
    terms = count_calls(monkeypatch, "orbitbell.orbit", "_terms")
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
    assert tables[0] == checks[0] == terms[0] == 1
    # entry 0 of the factors alone: no (n, d) array and no state
    assert gathers == [(2 * m * d + 1, 1)]
    assert states[0] == 0
    assert roots[0] == public_orbits[0] == 0
    assert stats[0] == (1 if m == 2 else 0)
    assert grids[0] == (1 if m == 2 else 0)
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


def test_verify_builds_each_cell_once(monkeypatch):
    assemblies = count_calls(monkeypatch, "orbitbell.bounds", "_inequality")
    tables = count_calls(monkeypatch, "orbitbell.orbit", "_root_table")
    terms = count_calls(monkeypatch, "orbitbell.orbit", "_terms")
    gathers = record_shapes(monkeypatch, "orbitbell.orbit", "_gather")
    roots = count_calls(monkeypatch, "orbitbell.orbit", "root_unitary")
    gram = count_calls(monkeypatch, "orbitbell.bounds", "quantum_bound_gram")
    stats = count_calls(monkeypatch, "orbitbell.games", "_two_setting_stats")
    swaps = count_calls(monkeypatch, "orbitbell.linalg", "swap_matrix")
    shifts = count_calls(monkeypatch, "orbitbell.linalg", "translation_matrix")
    report = run_verification(3, 3)  # 6 cells
    assert report.passed
    assert assemblies[0] == tables[0] == terms[0] == 6
    # per cell, the assembly's entry 0 and verify's whole factors
    cells = [(d, m) for d in (2, 3) for m in (1, 2, 3)]
    assert gathers == [
        shape for d, m in cells for shape in ((2 * m * d + 1, 1), (2 * m * d + 1, d))
    ]
    # T and S depend on d alone: one each per outcome count, d = 2 and 3,
    # shared by the row's cells and the dense product
    assert swaps[0] == shifts[0] == 2
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
