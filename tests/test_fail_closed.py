"""Every tolerance check fails closed on NaN.

A check written ``x > tol`` lets a NaN through, since every comparison
with NaN is false; each check is written ``not x <= tol`` instead. A
NaN injected at each checked quantity must fail its check: the root
table's snap and its column check through U, the Gram route's
imaginary drift and its agreement with the root-index route, the
root-of-unity snap, the Hermitian test of the dense route, the joint
grid of the mutual information, the circulant M = 2 statistics, and
each ``verify`` line, which prints
it as ``nan``, also when it is one of several residuals the line takes
the largest of, or one it floors at zero. The command line turns the
result into exit 4, with one ``error:`` line, also for a ValueError
that escapes a subcommand. A root index bumped by 2, which names
another eigenvalue of U, moves the root-index value off the Gram
spectrum, which reads the orbit's first columns, so the route
agreement fails and ``analyze`` exits 4; bumped by 1, it makes a
block's root-index sum odd, which the closed-form eigensystem of
``reference.eigensystem_by_pair`` refuses. A NaN in the root unitary
fails ``verify``'s unitarity line, and at M = 2 its mutual-information
line, whose circulant statistics read the same first column; a shift
matrix that cannot be built fails the construction line of every cell
of its outcome count.
"""

import dataclasses
import importlib

import numpy as np
import pytest

from orbitbell import (
    CheckResult,
    ProblemSpec,
    mutual_information,
    orbit,
    quantum_bound_numeric,
    root_unitary,
    run_verification,
)
from orbitbell.bounds import _inequality, quantum_bound_gram
from orbitbell.cli import main as cli_main
from orbitbell.orbit import _factor_indices, _gather, _root_table
from reference import eigensystem_by_pair, root_of_unity_index

NAN = float("nan")


def assert_exit_4(capsys, argv, message):
    rc = cli_main(argv)
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == ""
    assert captured.err.startswith("error: internal consistency check failed:")
    assert captured.err.count("\n") == 1
    assert message in captured.err


def test_nan_residual_fails_its_line_and_prints_as_nan():
    check = CheckResult("some check", 1e-9)
    check.record(1e-12, "d=2 M=1")
    check.record(NAN, "d=2 M=2")
    check.record(1e-10, "d=3 M=1")  # a later finite residual keeps the NaN
    assert not check.passed
    assert check.line() == "FAIL  some check (worst residual nan, tolerance 1e-09)"
    assert check.notes == ["d=2 M=2: residual nan"]


def test_nan_from_a_dense_route_fails_verify(monkeypatch, capsys):
    verify_module = importlib.import_module("orbitbell.verify")
    monkeypatch.setattr(verify_module, "quantum_bound_numeric", lambda a: NAN)
    name = "analytic and numeric quantum bounds agree"
    report = run_verification(2, 2)
    (check,) = [c for c in report.checks if c.name == name]
    assert not check.passed
    assert [note.split(":")[0] for note in check.notes] == ["d=2 M=1", "d=2 M=2"]
    rc = cli_main(["verify", "--outcomes-max", "2", "--settings-max", "2"])
    assert rc == 1
    assert f"FAIL  {name} (worst residual nan, tolerance 1e-09)" in capsys.readouterr().out


def record_eigensolved_shapes(monkeypatch, verify_module):
    """Wrap verify's LAPACK route and list the shape of each matrix it
    is handed."""
    real_numeric = verify_module.quantum_bound_numeric
    shapes = []

    def recorded(matrix):
        shapes.append(matrix.shape)
        return real_numeric(matrix)

    monkeypatch.setattr(verify_module, "quantum_bound_numeric", recorded)
    return shapes


# A NaN, or 1 + 1e-6, which moves the norm of the vector it is in. A
# phase would not do: on a whole factor or state it moves no projector
# and G only by a unitary similarity, and on one entry it moves the top
# eigenvalue by 2e-13 at most at (2, 2), (3, 1) and (5, 2), at second
# order
CORRUPTIONS = pytest.mark.parametrize("factor", [NAN, 1 + 1e-6], ids=["nan", "scale"])


@CORRUPTIONS
def test_corrupted_factor_row_fails_the_agreement_line_at_a_gram_cell(monkeypatch, factor):
    # at (3, 1) the orbit has n = 6 < d^2 = 9 states, so the LAPACK line
    # reads the 6 x 6 Gram matrix formed from the factors: entry 1 of
    # row 2 of the gather, Alice's a_1 and Bob's b_2, times the factor
    # must fail the agreement line there
    verify_module = importlib.import_module("orbitbell.verify")
    real_gather = verify_module._gather

    def corrupted(spec, table, entries, index):
        factors = real_gather(spec, table, entries, index)
        if spec.outcomes == 3:
            factors[2, 1] *= factor
        return factors

    monkeypatch.setattr(verify_module, "_gather", corrupted)
    shapes = record_eigensolved_shapes(monkeypatch, verify_module)
    name = "analytic and numeric quantum bounds agree"
    (check,) = [c for c in run_verification(3, 1).checks if c.name == name]
    assert shapes == [(4, 4), (6, 6)]
    assert not check.passed
    assert [note.split(":")[0] for note in check.notes] == ["d=3 M=1"]


@CORRUPTIONS
def test_corrupted_state_fails_the_agreement_line_at_a_projector_sum_cell(monkeypatch, factor):
    # at (2, 2) the orbit has n = 8 >= d^2 = 4 states, so the LAPACK
    # line reads the 4 x 4 projector sum of the states: entry 2 of
    # state 3, (1 + i)/2, times the factor must fail the agreement line
    # there
    verify_module = importlib.import_module("orbitbell.verify")
    real_states = verify_module._states

    def corrupted(alice, bob):
        states = real_states(alice, bob)
        if len(states) == 8:
            states[3, 2] *= factor
        return states

    monkeypatch.setattr(verify_module, "_states", corrupted)
    shapes = record_eigensolved_shapes(monkeypatch, verify_module)
    name = "analytic and numeric quantum bounds agree"
    (check,) = [c for c in run_verification(2, 2).checks if c.name == name]
    assert shapes == [(4, 4), (4, 4)]
    assert not check.passed
    assert [note.split(":")[0] for note in check.notes] == ["d=2 M=2"]


def test_nan_classical_value_fails_the_dominance_line(monkeypatch):
    # max(0.0, nan) is 0.0: the line must take the NaN, not the floor
    verify_module = importlib.import_module("orbitbell.verify")
    real_bound = verify_module.classical_bound
    monkeypatch.setattr(
        verify_module, "classical_bound", lambda spec, terms: (NAN, real_bound(spec, terms)[1])
    )
    name = "quantum bound is at least the classical bound"
    report = run_verification(2, 2)
    (check,) = [c for c in report.checks if c.name == name]
    assert not check.passed
    assert check.line() == f"FAIL  {name} (worst residual nan, tolerance 1e-09)"
    assert check.notes == ["d=2 M=1: residual nan", "d=2 M=2: residual nan"]


def test_nan_in_one_generator_fails_the_unitarity_line(monkeypatch):
    # T is the first of the two generators the line takes the largest
    # residual over; its NaN must not be dropped by that maximum
    verify_module = importlib.import_module("orbitbell.verify")
    real_shift = verify_module.translation_matrix

    def nan_shift(d):
        t = real_shift(d)
        t[0, 0] = NAN
        return t

    monkeypatch.setattr(verify_module, "translation_matrix", nan_shift)
    name = "generator matrices are unitary"
    (check,) = [c for c in run_verification(2, 1).checks if c.name == name]
    assert check.line() == f"FAIL  {name} (worst residual nan, tolerance 1e-12)"
    assert check.notes == ["d=2 M=1: residual nan"]


def test_nan_in_the_root_unitary_fails_the_unitarity_line(monkeypatch):
    # U reaches the line as the circulant of the assembly's table's u_1,
    # so a NaN in u_1 after the assembly's own checks is a NaN in U; at
    # M = 2 it reaches the circulant statistics too, which read u_1 and
    # refuse the NaN, and that fails the information line
    verify_module = importlib.import_module("orbitbell.verify")
    real_inequality = verify_module._inequality

    def nan_unitary(spec):
        instance = real_inequality(spec)
        firsts = instance.table.firsts.copy()
        firsts[1, 1] = NAN
        return instance._replace(table=instance.table._replace(firsts=firsts))

    monkeypatch.setattr(verify_module, "_inequality", nan_unitary)
    checks = {c.name: c for c in run_verification(2, 2).checks}
    name = "generator matrices are unitary"
    assert checks[name].line() == f"FAIL  {name} (worst residual nan, tolerance 1e-12)"
    assert checks[name].notes == ["d=2 M=1: residual nan", "d=2 M=2: residual nan"]
    information = checks["mutual information independent of the setting pair (M=2)"]
    assert not information.passed
    assert information.notes == ["d=2 M=2: NaN outcome probability in an M = 2 joint grid"]


def test_unbuilt_shift_fails_the_construction_line_of_its_row(monkeypatch):
    # T depends on d alone: its failure is that of each cell of its row
    verify_module = importlib.import_module("orbitbell.verify")
    real_shift = verify_module.translation_matrix

    def no_shift_at_three(d):
        if d == 3:
            raise RuntimeError("no shift at d=3")
        return real_shift(d)

    monkeypatch.setattr(verify_module, "translation_matrix", no_shift_at_three)
    report = run_verification(3, 2)
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == ["instance builds and passes analyze's own checks"]
    assert failed[0].notes == ["d=3 M=1: no shift at d=3", "d=3 M=2: no shift at d=3"]
    assert report.summary[2:] == [
        "d=3 M=1: construction failed (no shift at d=3)",
        "d=3 M=2: construction failed (no shift at d=3)",
    ]


def test_odd_root_index_sum_fails_the_dense_eigensystem():
    # lambda_1's index 1 up at (3, 2): its block with lambda_0 has an odd
    # index sum, so no 2Md-th root squares to lambda_0 lambda_1
    spec = ProblemSpec(3, 2)
    table = _root_table(spec)
    indices = list(table.indices)
    indices[1] += 1
    with pytest.raises(
        RuntimeError,
        match="^odd root-index sum in a two-dimensional block: branch arithmetic bug$",
    ):
        eigensystem_by_pair(spec, table._replace(indices=indices))


def test_nan_eigenphase_fails_the_root_table_snap(monkeypatch, capsys):
    orbit_module = importlib.import_module("orbitbell.orbit")
    real_phases = orbit_module._eigenphases

    def nan_phase(d):
        thetas = real_phases(d)
        thetas[1] = NAN
        return thetas

    monkeypatch.setattr(orbit_module, "_eigenphases", nan_phase)
    with pytest.raises(RuntimeError, match="root table: lambda_1 .*snap error nan"):
        root_unitary(ProblemSpec(3, 2))
    assert_exit_4(capsys, ["analyze", "--outcomes", "3", "--settings", "2"], "lambda_1")


def test_nan_basis_column_fails_the_step_check(monkeypatch, capsys):
    # orbit step 1 is Alice at (1, 0), u_1 = U u_0: a NaN in entry 0 of
    # u_1, the first column of setting 1, as the table is built puts NaN
    # in both u_1 and U u_0, the circulant of u_1 applied to |0>
    orbit_module = importlib.import_module("orbitbell.orbit")
    real_check = orbit_module._check_columns

    def nan_column(table):
        table.firsts[1, 0] = NAN
        real_check(table)

    monkeypatch.setattr(orbit_module, "_check_columns", nan_column)
    with pytest.raises(RuntimeError, match=r"U u_0 = u_1 fails \(max deviation nan "):
        orbit(ProblemSpec(3, 2))
    assert_exit_4(
        capsys, ["analyze", "--outcomes", "3", "--settings", "2"], "U u_0 = u_1 fails"
    )


def test_nan_gram_value_fails_the_route_agreement(monkeypatch, capsys):
    bounds_module = importlib.import_module("orbitbell.bounds")
    monkeypatch.setattr(bounds_module, "quantum_bound_gram", lambda g: NAN)
    with pytest.raises(RuntimeError, match="routes disagree: Gram spectrum nan"):
        _inequality(ProblemSpec(2, 2))
    assert_exit_4(
        capsys, ["analyze", "--outcomes", "2", "--settings", "2"], "routes disagree"
    )


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_nan_analytic_value_exits_4(monkeypatch, capsys, fmt):
    bounds_module = importlib.import_module("orbitbell.bounds")
    real_bound = bounds_module._analytic_bound
    monkeypatch.setattr(
        bounds_module, "_analytic_bound", lambda spec, table: (NAN, *real_bound(spec, table)[1:])
    )
    argv = ["analyze", "--outcomes", "3", "--settings", "2", "--format", fmt]
    assert_exit_4(capsys, argv, "analytic nan")


def test_bumped_root_index_fails_the_route_agreement(monkeypatch, capsys):
    # lambda_1's index 2 up: the root-index route reports 11/3 at (3, 2),
    # while the Gram spectrum of the orbit, built from U, stays at 10/3
    bounds_module = importlib.import_module("orbitbell.bounds")
    real_table = bounds_module._root_table

    def bumped(spec, rho):
        table = real_table(spec, rho)
        indices = list(table.indices)
        indices[1] += 2
        return table._replace(indices=indices)

    monkeypatch.setattr(bounds_module, "_root_table", bumped)
    with pytest.raises(
        RuntimeError,
        match=r"routes disagree: Gram spectrum 3\.3333\d* vs analytic 3\.6666",
    ):
        _inequality(ProblemSpec(3, 2))
    assert_exit_4(
        capsys, ["analyze", "--outcomes", "3", "--settings", "2"], "routes disagree"
    )


def test_nan_factor_fails_the_gram_drift_check():
    # entry 0 of Alice's factor a_2, which the Gram row g_2 = a_2[0] b_2[0]
    # reads; it is row 3 of the gather
    spec = ProblemSpec(3, 2)
    split = np.divmod(_factor_indices(spec), spec.settings)
    c0 = _gather(spec, _root_table(spec), np.zeros(1, dtype=int), split)[:, 0]
    c0[3] = NAN
    with pytest.raises(RuntimeError, match="imaginary part nan"):
        quantum_bound_gram(c0[1:] * c0[:-1])


def test_nan_fails_the_root_of_unity_snap():
    with pytest.raises(RuntimeError, match="snap error nan"):
        root_of_unity_index(complex(NAN, 0.0), 8)


def test_nan_matrix_is_not_hermitian():
    a = np.eye(4, dtype=complex)
    a[1, 2] = NAN
    with pytest.raises(ValueError, match="max asymmetry nan"):
        quantum_bound_numeric(a)


def test_nan_joint_grid_is_rejected():
    with pytest.raises(ValueError, match="entry nan"):
        mutual_information(np.array([[0.5, NAN], [0.0, 0.5]]))


def test_value_error_in_a_subcommand_exits_4(monkeypatch, capsys):
    # a report whose Q_s is NaN, past the assembly's checks, is refused
    # by the certificate writer; the command line reports it like any
    # other failed internal check
    cli_module = importlib.import_module("orbitbell.cli")
    real_analyze = cli_module.analyze

    def nan_bound(spec):
        report = real_analyze(spec)
        inequality = dataclasses.replace(report.inequality, quantum_bound=NAN)
        return dataclasses.replace(report, inequality=inequality)

    monkeypatch.setattr(cli_module, "analyze", nan_bound)
    argv = ["analyze", "--outcomes", "2", "--settings", "2", "--format", "json"]
    assert_exit_4(capsys, argv, "is not a finite float")
