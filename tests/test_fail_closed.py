"""Every tolerance check fails closed on NaN.

A check written ``x > tol`` lets a NaN through, since every comparison
with NaN is false; each check is written ``not x <= tol`` instead. A
NaN injected at each checked quantity must fail its check: the root
table's snap, the orbit's step check, the Gram route's imaginary drift
and its agreement with the root-index route, the root-of-unity snap,
the Hermitian test of the dense route, the joint grid of the mutual
information, and each ``verify`` line, which prints it as ``nan``, also
when it is one of several residuals the line takes the largest of. The
command line turns the result into exit 4, with one ``error:`` line,
also for a ValueError that escapes a subcommand.
"""

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
from orbitbell.linalg import root_of_unity_index
from orbitbell.orbit import _orbit, _root_table

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


def test_nan_in_one_generator_fails_the_unitarity_line(monkeypatch):
    # S is the third of the four generators the line takes the largest
    # residual over; its NaN must not be dropped by that maximum
    verify_module = importlib.import_module("orbitbell.verify")
    real_swap = verify_module.swap_matrix

    def nan_swap(d):
        s = real_swap(d)
        s[0, 0] = NAN
        return s

    monkeypatch.setattr(verify_module, "swap_matrix", nan_swap)
    name = "generator matrices are unitary"
    (check,) = [c for c in run_verification(2, 1).checks if c.name == name]
    assert check.line() == f"FAIL  {name} (worst residual nan, tolerance 1e-12)"


def test_nan_eigenphase_fails_the_root_table_snap(monkeypatch, capsys):
    orbit_module = importlib.import_module("orbitbell.orbit")
    real_fourier = orbit_module._fourier

    def nan_phase(d):
        rows, thetas = real_fourier(d)
        thetas[1] = NAN
        return rows, thetas

    monkeypatch.setattr(orbit_module, "_fourier", nan_phase)
    with pytest.raises(RuntimeError, match="root table: lambda_1 .*snap error nan"):
        root_unitary(ProblemSpec(3, 2))
    assert_exit_4(capsys, ["analyze", "--outcomes", "3", "--settings", "2"], "lambda_1")


def test_nan_basis_column_fails_the_step_check(monkeypatch, capsys):
    # step 1 is Alice at (1, 0): a NaN in column 0 of setting 1
    orbit_module = importlib.import_module("orbitbell.orbit")
    real_bases = orbit_module.measurement_bases

    def nan_column(u, settings):
        bases = [b.copy() for b in real_bases(u, settings)]
        bases[1][:, 0] = NAN
        return bases

    monkeypatch.setattr(orbit_module, "measurement_bases", nan_column)
    with pytest.raises(RuntimeError, match=r"disagree at step 1 \(max deviation nan\)"):
        orbit(ProblemSpec(3, 2))
    assert_exit_4(capsys, ["analyze", "--outcomes", "3", "--settings", "2"], "step 1 ")


def test_nan_gram_value_fails_the_route_agreement(monkeypatch, capsys):
    bounds_module = importlib.import_module("orbitbell.bounds")
    monkeypatch.setattr(bounds_module, "quantum_bound_gram", lambda alice, bob: NAN)
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
        bounds_module, "_analytic_bound", lambda spec, table: (NAN, real_bound(spec, table)[1])
    )
    argv = ["analyze", "--outcomes", "3", "--settings", "2", "--format", fmt]
    assert_exit_4(capsys, argv, "analytic nan")


def test_nan_factor_fails_the_gram_drift_check():
    spec = ProblemSpec(3, 2)
    _, alice, bob = _orbit(spec, _root_table(spec))
    alice = alice.copy()
    alice[2, 0] = NAN
    with pytest.raises(RuntimeError, match="imaginary part nan"):
        quantum_bound_gram(alice, bob)


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
    # a non-finite certificate value is refused by the writer; the
    # command line reports it like any other failed internal check
    cli_module = importlib.import_module("orbitbell.cli")
    real_build = cli_module.build_certificate

    def nan_bound(report):
        return {**real_build(report), "quantum_bound": NAN}

    monkeypatch.setattr(cli_module, "build_certificate", nan_bound)
    argv = ["analyze", "--outcomes", "2", "--settings", "2", "--format", "json"]
    assert_exit_4(capsys, argv, "is not a finite float")
