"""Each analyzed instance is built once.

``analyze`` builds the orbit once and the root unitary at most twice,
independent of the number of settings M: the orbit forms its M
measurement bases from one root unitary, and at M = 2 the four joint
grids, which the prediction rule reads too, from one more. At any other
M the orbit's root unitary is the only one. ``analyze`` runs the
root-index and Gram routes of the quantum bound, never the dense ones,
and never places the d^2 x d^2 step operator: the orbit is checked
through U. Its classical bound is the chained-Bell value, with no
d^M enumeration.
The verification sweep builds one root unitary for its own checks and
one closed-form eigensystem per cell, and runs the enumeration once per
cell inside the enumeration guard.
"""

import functools
import importlib
import sys

import pytest

from orbitbell import ProblemSpec, analyze, run_verification
from orbitbell.bounds import _over_strategy_guard


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


@pytest.mark.parametrize("d,m", [(5, 4), (2, 12), (10, 2)])
def test_analyze_builds_each_instance_once(monkeypatch, d, m):
    orbits = count_calls(monkeypatch, "orbitbell.orbit", "orbit")
    roots = count_calls(monkeypatch, "orbitbell.orbit", "root_unitary")
    grids = count_calls(monkeypatch, "orbitbell.games", "joint_distribution")
    gram = count_calls(monkeypatch, "orbitbell.bounds", "quantum_bound_gram")
    analytic = count_calls(monkeypatch, "orbitbell.bounds", "quantum_bound_analytic")
    # the dense routes belong to verify and the tests only
    numeric = count_calls(monkeypatch, "orbitbell.bounds", "quantum_bound_numeric")
    projector_sums = count_calls(monkeypatch, "orbitbell.bounds", "accumulate_A")
    eigensystems = count_calls(monkeypatch, "orbitbell.bounds", "b_eigensystem")
    step_operators = count_calls(monkeypatch, "orbitbell.orbit", "_step_from_root")
    enumerations = count_calls(monkeypatch, "orbitbell.bounds", "classical_bound")
    report = analyze(ProblemSpec(d, m))
    assert report.classical_bound == 2 * m - 1
    assert orbits[0] == 1
    # the orbit's, plus one for the four M = 2 grids
    assert roots[0] == (2 if m == 2 else 1)
    assert grids[0] == (4 if m == 2 else 0)
    assert gram[0] == analytic[0] == 1
    assert numeric[0] == projector_sums[0] == eigensystems[0] == 0
    assert step_operators[0] == 0
    assert enumerations[0] == 0


@pytest.mark.parametrize("d,m", [(5, 4), (2, 12)])
def test_analyze_skips_joint_grids_beyond_two_settings(monkeypatch, d, m):
    grids = count_calls(monkeypatch, "orbitbell.games", "joint_distribution")
    roots = count_calls(monkeypatch, "orbitbell.orbit", "root_unitary")
    report = analyze(ProblemSpec(d, m))
    assert report.joint_grids is None
    assert grids[0] == 0
    assert roots[0] == 1


def test_verify_builds_each_cell_once(monkeypatch):
    roots = count_calls(monkeypatch, "orbitbell.orbit", "root_unitary")
    eigensystems = count_calls(monkeypatch, "orbitbell.bounds", "b_eigensystem")
    report = run_verification(3, 3)  # 6 cells
    assert report.passed
    assert eigensystems[0] == 6
    assert roots[0] == 2 * 6  # the sweep's own checks, then the orbit


def test_verify_enumerates_each_cell_inside_the_guard_once(monkeypatch):
    enumerations = count_calls(monkeypatch, "orbitbell.bounds", "classical_bound")
    report = run_verification(5, 7)  # 28 cells, 3 of them beyond the guard
    inside = [
        (d, m) for d in range(2, 6) for m in range(1, 8) if not _over_strategy_guard(d, m)
    ]
    assert report.passed
    assert len(inside) == 25 and len(report.skipped) == 3
    assert enumerations[0] == len(inside)
