"""CLI contract: exit codes, report content, JSON certificate shape,
byte-level determinism, and the verify subcommand."""

import dataclasses
import importlib
import json
import subprocess
import sys

import numpy as np
import pytest

from orbitbell import (
    DeterministicStrategy,
    ProblemSpec,
    analyze,
    certificate_json,
    orbit,
    parse_certificate,
    run_verification,
)
from orbitbell.cli import build_parser, main as cli_main
from reference import certificate_dict


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "orbitbell", *args],
        capture_output=True,
        text=True,
    )


def test_analyze_json_qubit():
    proc = run_cli("analyze", "--outcomes", "2", "--settings", "2", "--format", "json")
    assert proc.returncode == 0
    cert = json.loads(proc.stdout)
    assert cert["schema_version"] == "2"
    assert cert["spec"] == {"outcomes": 2, "settings": 2}
    assert cert["classical_bound"] == 3
    assert cert["quantum_bound"] == pytest.approx(2 + np.sqrt(2), abs=1e-9)
    assert len(cert["terms"]) == 8
    assert len(cert["game"]["questions"]) == 4
    assert all(
        p == pytest.approx((2 + np.sqrt(2)) / 8, abs=1e-9)
        for p in cert["per_term_probs"]
    )
    # each of the d = 2 coefficients fills d of the d^2 amplitudes
    state = cert["optimal_state"]
    assert state["rho"] == 1
    norm = 2 * sum(z["re"] ** 2 + z["im"] ** 2 for z in state["coefficients"])
    assert norm == pytest.approx(1.0, abs=1e-9)
    stats = cert["stats"]
    assert stats["quantum_win"] == pytest.approx((2 + np.sqrt(2)) / 4, abs=1e-9)
    assert stats["classical_win"] == pytest.approx(0.75, abs=1e-12)
    assert stats["p"] == pytest.approx(0.8536, abs=5e-4)
    assert stats["I_ab"] == pytest.approx(0.3991, abs=5e-4)


def test_analyze_json_single_setting():
    proc = run_cli("analyze", "--outcomes", "2", "--settings", "1", "--format", "json")
    assert proc.returncode == 0
    cert = json.loads(proc.stdout)
    assert cert["quantum_bound"] == pytest.approx(1.0, abs=1e-9)
    assert cert["classical_bound"] == 1
    assert cert["stats"]["quantum_win"] == pytest.approx(0.5, abs=1e-12)
    assert cert["stats"]["p"] is None
    assert cert["stats"]["I_ab"] is None


def test_analyze_text_report():
    proc = run_cli("analyze", "--outcomes", "2", "--settings", "2")
    assert proc.returncode == 0
    assert "Q_s = 3.4142" in proc.stdout
    assert "C_s = 3" in proc.stdout
    assert "prediction probability p = 0.8536" in proc.stdout
    assert "mutual information = 0.3991 bits" in proc.stdout
    assert proc.stdout.count("|") >= 8


def test_analyze_text_report_no_two_setting_block():
    proc = run_cli("analyze", "--outcomes", "2", "--settings", "3")
    assert proc.returncode == 0
    assert "two-setting statistics" not in proc.stdout


def test_analyze_out_file(tmp_path):
    target = tmp_path / "cert.json"
    proc = run_cli(
        "analyze", "--outcomes", "3", "--settings", "2",
        "--format", "json", "--out", str(target),
    )
    assert proc.returncode == 0
    assert proc.stdout == ""
    cert = json.loads(target.read_text())
    assert cert["quantum_bound"] == pytest.approx(10 / 3, abs=1e-9)


@pytest.mark.parametrize("cell", [(5, 4), (2, 13)])
def test_analyze_json_stdout_is_json_dumps_of_itself(cell):
    # pins the printed bytes, trailing newline included, with json's own
    # encoder rather than the package's writer
    d, m = cell
    proc = run_cli("analyze", "--outcomes", str(d), "--settings", str(m), "--format", "json")
    assert proc.returncode == 0
    reference = json.dumps(json.loads(proc.stdout), indent=2, sort_keys=True) + "\n"
    assert proc.stdout == reference


def test_analyze_json_runs_are_byte_identical():
    first = run_cli("analyze", "--outcomes", "3", "--settings", "2", "--format", "json")
    second = run_cli("analyze", "--outcomes", "3", "--settings", "2", "--format", "json")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("analyze", "--outcomes", "0", "--settings", "2"),
        ("analyze", "--outcomes", "2", "--settings", "0"),
        ("table", "--outcomes-from", "1", "--outcomes-to", "4"),
        ("table", "--outcomes-from", "5", "--outcomes-to", "3"),
        ("verify", "--outcomes-max", "1"),
    ],
)
def test_usage_errors_exit_2(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert proc.stderr != ""


def test_oversized_instance_exits_3():
    # (16, 99) is the first M at d = 16 whose orbit verify cannot cross-check
    proc = run_cli("analyze", "--outcomes", "16", "--settings", "99")
    assert proc.returncode == 3
    assert "instance too large" in proc.stderr


def test_instances_beyond_the_enumeration_guard_exit_0():
    # 10^10 and 2^80 strategy pairs: analyze takes C_s = 2M - 1 from the
    # chained-Bell route and runs no classical search
    analyzed = run_cli("analyze", "--outcomes", "10", "--settings", "5")
    game = run_cli("game", "--outcomes", "2", "--settings", "40")
    assert analyzed.returncode == game.returncode == 0
    assert analyzed.stderr == game.stderr == ""
    assert "  classical bound C_s = 9\n" in analyzed.stdout
    assert "classical_win = 0.9875\n" in game.stdout  # C_s / 2M = 79 / 80


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--outcomes", "5000", "--settings", "1"),
        ("analyze", "--outcomes", "65", "--settings", "2"),
        ("verify", "--outcomes-max", "65", "--settings-max", "1"),
        ("table", "--outcomes-from", "2", "--outcomes-to", "65"),
    ],
)
def test_instance_over_memory_ceiling_exits_3_at_once(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "orbitbell", *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 3
    assert "memory ceiling" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("lo,hi,first_bad", [(2, 65, 65), (70, 75, 70)])
def test_table_checks_the_guards_before_the_first_row(monkeypatch, capsys, lo, hi, first_bad):
    # same exit code and text as the first row that would fail, no row run
    cli_module = importlib.import_module("orbitbell.cli")

    def no_row(spec):
        raise AssertionError("table row computed before the guards were checked")

    expected = cli_main(["analyze", "--outcomes", str(first_bad), "--settings", "2"])
    expected_err = capsys.readouterr().err
    monkeypatch.setattr(cli_module, "analyze", no_row)
    rc = cli_main(["table", "--outcomes-from", str(lo), "--outcomes-to", str(hi)])
    captured = capsys.readouterr()
    assert rc == expected == 3
    assert captured.out == ""
    assert captured.err == expected_err


def test_absurd_settings_count_exits_3_at_once():
    # the orbit's size is decided in int arithmetic, without allocating
    proc = subprocess.run(
        [sys.executable, "-m", "orbitbell", "analyze", "--outcomes", "2", "--settings", "1000000000"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 3
    assert proc.stderr == (
        "error: instance too large: the orbit at 2 outcomes and 1000000000 "
        "settings has 4000000000 steps, whose states and step residuals, with "
        "24 bytes per pair of steps, need 366210938110352 MiB, over the memory "
        "ceiling of 256 MiB\n"
    )
    assert proc.stdout == ""


def test_absurd_verify_settings_max_exits_3_at_once():
    # the largest cell's orbit arrays are sized before the first cell
    proc = subprocess.run(
        [
            sys.executable, "-m", "orbitbell", "verify",
            "--outcomes-max", "2", "--settings-max", "1000000000",
        ],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith(
        "error: instance too large: the orbit at 2 outcomes and 1000000000 "
        "settings has 4000000000 steps"
    )
    assert "memory ceiling of 256 MiB" in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert proc.stdout == ""


def test_unwritable_out_exits_2(tmp_path):
    # a directory cannot be written as a file
    proc = run_cli(
        "analyze", "--outcomes", "2", "--settings", "2", "--out", str(tmp_path)
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: cannot write ")
    assert proc.stderr.count("\n") == 1


def test_internal_consistency_failure_exits_4(monkeypatch, capsys):
    # a Gram route that disagrees with the closed form trips the
    # 1e-9 agreement check inside build_inequality
    bounds_module = importlib.import_module("orbitbell.bounds")
    monkeypatch.setattr(bounds_module, "quantum_bound_gram", lambda g: 0.0)
    rc = cli_main(["analyze", "--outcomes", "2", "--settings", "2"])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == ""
    assert captured.err.startswith("error: internal consistency check failed:")
    assert "routes disagree" in captured.err


def test_broken_chained_bell_families_exit_4(monkeypatch, capsys):
    # a term list missing one label pair no longer covers the three
    # chained-Bell families, and the chained-Bell route refuses to
    # report C_s
    bounds_module = importlib.import_module("orbitbell.bounds")
    real_labels = bounds_module._labels
    monkeypatch.setattr(bounds_module, "_labels", lambda *args: real_labels(*args)[1:])
    rc = cli_main(["analyze", "--outcomes", "3", "--settings", "2"])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == ""
    assert captured.err == (
        "error: internal consistency check failed: chained-Bell route: the 11 "
        "orbit terms are not the 12 label pairs of the three chained-Bell families\n"
    )


def test_bumped_orbit_label_exits_4_before_the_statistics(monkeypatch, capsys):
    # one Bob outcome label off by one, the vectors untouched: the
    # chained-Bell term-set check refuses the terms before the M = 2
    # statistics read any slot's first term
    bounds_module = importlib.import_module("orbitbell.bounds")
    games_module = importlib.import_module("orbitbell.games")
    real_labels = bounds_module._labels

    def bumped_bob(spec, index):
        labels = real_labels(spec, index).copy()  # the assembly's is read-only
        labels[0, 3] = (labels[0, 3] + 1) % spec.outcomes
        return labels

    stats_calls = []
    monkeypatch.setattr(bounds_module, "_labels", bumped_bob)
    monkeypatch.setattr(
        games_module, "_two_setting_stats", lambda *args: stats_calls.append(args)
    )
    rc = cli_main(["analyze", "--outcomes", "3", "--settings", "2"])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == ""
    assert captured.err == (
        "error: internal consistency check failed: chained-Bell route: the 12 "
        "orbit terms are not the 12 label pairs of the three chained-Bell families\n"
    )
    assert stats_calls == []


def test_table_survey():
    proc = run_cli("table", "--outcomes-from", "2", "--outcomes-to", "5")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 6
    rows = [line.split() for line in lines[1:-1]]
    expected = [
        ("2", "3.4142", "3", "0.8536", "0.3991"),
        ("3", "3.3333", "3", "0.8333", "0.8146"),
        ("4", "3.3066", "3", "0.8266", "1.1483"),
        ("5", "3.2944", "3", "0.8236", "1.4223"),
    ]
    assert [tuple(r) for r in rows] == expected
    # 2 + 4/pi, below every row: Q_s falls with d toward it
    assert lines[-1] == "d -> inf: Q_s -> M (1 + (M/pi) sin(pi/M)) = 3.2732 at M = 2"


def test_game_output():
    proc = run_cli("game", "--outcomes", "2", "--settings", "5")
    assert proc.returncode == 0
    assert "classical_win = 0.9000" in proc.stdout
    assert "quantum_win = 0.9755" in proc.stdout
    assert "(0, 4): (0,1) (1,0)" in proc.stdout


def test_verify_cli_small_grid():
    proc = run_cli("verify", "--outcomes-max", "3", "--settings-max", "2")
    assert proc.returncode == 0
    assert "FAIL" not in proc.stdout
    assert "d=2 M=2: Q_s=3.4142 C_s=3" in proc.stdout
    assert "d=3 M=2: Q_s=3.3333 C_s=3" in proc.stdout


def test_verify_check_lines_are_pinned():
    # the names and order of verify's check lines, so that a line added,
    # removed or renamed shows up here
    report = run_verification(2, 2)
    assert report.passed
    assert [c.name for c in report.checks] == [
        "generator matrices are unitary",
        "settings-th power of the root unitary is the shift",
        "step operator equals the dense product (U x 1) S",
        "step operator has period 2*M*d",
        "instance builds and passes analyze's own checks",
        "dense step operator maps each orbit vector to the next",
        "projector sum has trace 2*M*d",
        "analytic and numeric quantum bounds agree",
        "orbit Gram spectrum and analytic quantum bound agree",
        "quantum bound equals the closed form",
        "optimal state is a step-operator eigenvector",
        "optimal state equals the projection of |00> onto B's mu-eigenspace",
        "per-term probabilities equal Q_s/(2*M*d)",
        "quantum bound is at least the classical bound",
        "classical bound equals the chained-Bell value 2M-1",
        "mutual information independent of the setting pair (M=2)",
        "prediction probability equals the quantum win probability (M=2)",
        "circulant M = 2 statistics equal the dense grids'",
    ]


def test_help_exits_zero():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert "analyze" in proc.stdout


def test_certificate_round_trip():
    report = analyze(ProblemSpec(3, 2))
    assert parse_certificate(certificate_json(report)) == certificate_dict(report)


def test_certificate_top_level_keys():
    cert = parse_certificate(certificate_json(analyze(ProblemSpec(2, 1))))
    assert set(cert) == {
        "schema_version",
        "spec",
        "terms",
        "classical_bound",
        "quantum_bound",
        "optimal_state",
        "per_term_probs",
        "game",
        "stats",
    }
    assert set(cert["stats"]) == {"quantum_win", "classical_win", "p", "I_ab"}
    assert set(cert["optimal_state"]) == {"coefficients", "rho"}


def test_corrupted_swap_fails_verification(monkeypatch):
    # break the two-party exchange operator in the dense product (U x 1) S;
    # the product check, and only it, must fail at every cell
    def not_a_swap(d: int):
        return np.eye(d * d, dtype=complex)

    # every namespace that binds swap_matrix, so that the sweep's one S
    # per outcome count is the corrupted one wherever it is built
    real_swap = importlib.import_module("orbitbell.linalg").swap_matrix
    for name, module in list(sys.modules.items()):
        if name == "orbitbell" or name.startswith("orbitbell."):
            for key, value in list(vars(module).items()):
                if value is real_swap:
                    monkeypatch.setattr(module, key, not_a_swap)
    report = run_verification(2, 2)
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == ["step operator equals the dense product (U x 1) S"]
    assert [note.split(":")[0] for note in failed[0].notes] == ["d=2 M=1", "d=2 M=2"]


def test_transposed_step_operator_fails_the_stepping_check(monkeypatch, capsys):
    # B^T in place of B: the dense step through the orbit must notice
    # and name the cell, and the sweep must exit 1
    verify_module = importlib.import_module("orbitbell.verify")
    real_step = verify_module.step_operator
    monkeypatch.setattr(verify_module, "step_operator", lambda u: real_step(u).T)
    name = "dense step operator maps each orbit vector to the next"
    report = run_verification(3, 2)
    (check,) = [c for c in report.checks if c.name == name]
    assert not check.passed
    assert check.notes and check.notes[0].startswith("d=2 M=")
    assert ": residual " in check.notes[0]
    rc = cli_main(["verify", "--outcomes-max", "3", "--settings-max", "2"])
    captured = capsys.readouterr()
    assert rc == 1
    assert f"FAIL  {name} (" in captured.out


def test_phase_perturbed_step_operator_fails_the_period_check(monkeypatch, capsys):
    # e^(i 1e-6) B is unitary, but B B is off U x U by up to 2e-6 times
    # U x U's largest entry: the period line must fail and name every cell
    verify_module = importlib.import_module("orbitbell.verify")
    real_step = verify_module.step_operator
    monkeypatch.setattr(
        verify_module, "step_operator", lambda u: real_step(u) * np.exp(1e-6j)
    )
    name = "step operator has period 2*M*d"
    report = run_verification(3, 2)
    (check,) = [c for c in report.checks if c.name == name]
    assert not check.passed
    cells = ["d=2 M=1", "d=2 M=2", "d=3 M=1", "d=3 M=2"]
    assert [note.split(":")[0] for note in check.notes] == cells
    assert all(1e-7 < float(note.split("residual ")[1]) <= 2e-6 for note in check.notes)
    rc = cli_main(["verify", "--outcomes-max", "3", "--settings-max", "2"])
    assert rc == 1
    assert f"FAIL  {name} (" in capsys.readouterr().out


def test_transposed_joint_grids_fail_the_prediction_check(monkeypatch, capsys):
    # circulant grids with the parties' roles exchanged within each grid,
    # column x read at -x mod d, keep its mutual information but move p
    # off the quantum win probability at every M = 2 cell with d >= 3,
    # and there the grids off the dense ones: only those two lines may fail
    games_module = importlib.import_module("orbitbell.games")
    real_columns = games_module._grid_columns
    monkeypatch.setattr(
        games_module,
        "_grid_columns",
        lambda *args: np.roll(real_columns(*args)[..., ::-1], 1, axis=-1),
    )
    names = [
        "prediction probability equals the quantum win probability (M=2)",
        "circulant M = 2 statistics equal the dense grids'",
    ]
    report = run_verification(4, 2)
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == names
    for check in failed:
        assert [note.split(":")[0] for note in check.notes] == ["d=3 M=2", "d=4 M=2"]
    rc = cli_main(["verify", "--outcomes-max", "4", "--settings-max", "2"])
    assert rc == 1
    out = capsys.readouterr().out
    assert all(f"FAIL  {name} (" in out for name in names)


def test_transposed_dense_grids_fail_only_the_circulant_line(monkeypatch, capsys):
    # the dense grids transposed, the circulant statistics untouched: the
    # reported p and I_ab stay right, and only the line that compares
    # the two routes' grids may fail, at every M = 2 cell with d >= 3
    verify_module = importlib.import_module("orbitbell.verify")
    real_joint = verify_module.joint_distribution
    monkeypatch.setattr(
        verify_module, "joint_distribution", lambda *args: real_joint(*args).swapaxes(-1, -2)
    )
    name = "circulant M = 2 statistics equal the dense grids'"
    report = run_verification(4, 2)
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == [name]
    assert [note.split(":")[0] for note in failed[0].notes] == ["d=3 M=2", "d=4 M=2"]
    rc = cli_main(["verify", "--outcomes-max", "4", "--settings-max", "2"])
    assert rc == 1
    assert f"FAIL  {name} (" in capsys.readouterr().out


def test_wrong_enumerated_witness_fails_the_chained_bell_check(monkeypatch, capsys):
    # a classical search that disagrees with the chained-Bell route in
    # its witness alone must fail the sweep and name the cell
    verify_module = importlib.import_module("orbitbell.verify")
    real_bound = verify_module.classical_bound

    def shifted_witness(spec, terms):
        value, witness = real_bound(spec, terms)
        return value, DeterministicStrategy(witness.alice_map, (1,) * spec.settings)

    monkeypatch.setattr(verify_module, "classical_bound", shifted_witness)
    name = "classical bound equals the chained-Bell value 2M-1"
    report = run_verification(2, 2)
    (check,) = [c for c in report.checks if c.name == name]
    assert not check.passed
    assert [note.split(":")[0] for note in check.notes] == ["d=2 M=1", "d=2 M=2"]
    rc = cli_main(["verify", "--outcomes-max", "2", "--settings-max", "2"])
    assert rc == 1
    assert f"FAIL  {name} (exact)" in capsys.readouterr().out


def test_wrong_reported_state_fails_verification(monkeypatch):
    # verify checks the state the assembly reports, not a copy of its own:
    # rolled coefficients give (T x 1) psi, no B eigenvector, and skew
    # the term weights
    bounds_module = importlib.import_module("orbitbell.bounds")
    real_bound = bounds_module._analytic_bound

    def rolled_state(spec, table):
        value, coefficients, rho = real_bound(spec, table)
        return value, np.roll(coefficients, 1), rho

    monkeypatch.setattr(bounds_module, "_analytic_bound", rolled_state)
    report = run_verification(3, 2)
    failed = {c.name for c in report.checks if not c.passed}
    assert "optimal state is a step-operator eigenvector" in failed
    assert "per-term probabilities equal Q_s/(2*M*d)" in failed


def test_state_off_the_orbit_fails_the_uniform_line_with_uniform_reports(monkeypatch):
    # the reported per-term probabilities are |psi_00|^2 = |c_0|^2 by
    # construction, so the line reads |<v_j|psi>|^2 from verify's dense
    # states too: a state whose other coefficients are rolled and negated
    # keeps psi_00, its norm and the reported values, and still fails it
    # (rolling moves the moduli at M = 1, negating the phases at d = 2)
    verify_module = importlib.import_module("orbitbell.verify")
    real_inequality = verify_module._inequality

    def moved_tail(spec):
        instance = real_inequality(spec)
        coefficients = instance.inequality.coefficients.copy()
        coefficients[1:] = -np.roll(coefficients[1:], 1)
        ineq = dataclasses.replace(instance.inequality, coefficients=coefficients)
        return instance._replace(inequality=ineq)

    monkeypatch.setattr(verify_module, "_inequality", moved_tail)
    checks = {c.name: c for c in run_verification(3, 2).checks}
    name = "per-term probabilities equal Q_s/(2*M*d)"
    # at (2, 1) the state is (1, 1, 1, 1)/2 up to rounding, and every
    # term's probability is one |psi_XY|^2, which a sign leaves in place
    assert not checks[name].passed
    assert [note.split(":")[0] for note in checks[name].notes] == [
        "d=2 M=2", "d=3 M=1", "d=3 M=2"
    ]


def test_state_of_the_flipped_group_fails_the_projection_line(monkeypatch):
    # the state of group 1 - rho, the normalized projection of |00> onto
    # B's eigenvalue exp(2 pi i (1 - rho) / n), is still a B eigenvector,
    # so only the projection onto the proved group tells it apart
    verify_module = importlib.import_module("orbitbell.verify")
    real_inequality = verify_module._inequality

    def flipped(spec):
        instance = real_inequality(spec)
        n, d = spec.orbit_length, spec.outcomes
        rho = 1 - (0 if spec.settings == 1 or d % 2 else 1)
        vectors = np.array([e.vector for e in orbit(spec)])
        state = np.exp(-2j * np.pi * rho * np.arange(n) / n) @ vectors
        # its coefficients are its column Y = 0, where the phase is 1
        coefficients = (state / np.linalg.norm(state)).reshape(d, d)[:, 0]
        ineq = dataclasses.replace(instance.inequality, coefficients=coefficients, rho=rho)
        return instance._replace(inequality=ineq)

    monkeypatch.setattr(verify_module, "_inequality", flipped)
    checks = {c.name: c for c in run_verification(3, 2).checks}
    name = "optimal state equals the projection of |00> onto B's mu-eigenspace"
    assert checks[name].line().startswith(f"FAIL  {name} (worst residual ")
    assert [note.split(":")[0] for note in checks[name].notes] == [
        "d=2 M=1", "d=2 M=2", "d=3 M=1", "d=3 M=2"
    ]
    assert checks["optimal state is a step-operator eigenvector"].passed
    assert checks["instance builds and passes analyze's own checks"].passed


def test_bound_off_its_closed_form_fails_only_the_closed_form_line(monkeypatch, capsys):
    # Q_s 1e-10 high passes every 1e-9 route agreement, but not the
    # closed form's relative 1e-12
    bounds_module = importlib.import_module("orbitbell.bounds")
    real_bound = bounds_module._analytic_bound

    def raised(spec, table):
        value, *state = real_bound(spec, table)
        return value + 1e-10, *state

    monkeypatch.setattr(bounds_module, "_analytic_bound", raised)
    name = "quantum bound equals the closed form"
    report = run_verification(3, 2)
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == [name]
    assert [note.split(":")[0] for note in failed[0].notes] == [
        "d=2 M=1", "d=2 M=2", "d=3 M=1", "d=3 M=2"
    ]
    rc = cli_main(["verify", "--outcomes-max", "3", "--settings-max", "2"])
    assert rc == 1
    assert f"FAIL  {name} (" in capsys.readouterr().out


def test_broken_chained_bell_families_fail_verification(monkeypatch, capsys):
    # a term list one pair short fails the assembly's chained-Bell route,
    # and the sweep files it under its construction line
    bounds_module = importlib.import_module("orbitbell.bounds")
    real_labels = bounds_module._labels
    monkeypatch.setattr(bounds_module, "_labels", lambda *args: real_labels(*args)[1:])
    name = "instance builds and passes analyze's own checks"
    report = run_verification(3, 2)
    (check,) = [c for c in report.checks if c.name == name]
    assert not check.passed
    assert check.notes and all("chained-Bell route" in note for note in check.notes)
    rc = cli_main(["verify", "--outcomes-max", "3", "--settings-max", "2"])
    assert rc == 1
    assert f"FAIL  {name} (exact)" in capsys.readouterr().out


def test_repeated_main_calls_give_fresh_process_results(capsys):
    # main shares one parser across calls, which is safe because
    # parse_args returns a new Namespace and leaves the parser as it was:
    # each run, through every handler and exit code, must match the same
    # run in a fresh interpreter
    runs = [
        ("analyze", "--outcomes", "3", "--settings", "2", "--format", "json"),
        ("analyze", "--outcomes", "3"),
        ("verify", "--outcomes-max", "3", "--settings-max", "2"),
        ("game", "--outcomes", "3", "--settings", "2"),
        ("table", "--outcomes-from", "2", "--outcomes-to", "3"),
        ("table", "--outcomes-from", "5", "--outcomes-to", "3"),
        ("analyze", "--outcomes", "16", "--settings", "99"),
        ("analyze", "--outcomes", "3", "--settings", "2", "--format", "json"),
    ]
    codes = []
    for argv in runs:
        fresh = run_cli(*argv)
        try:
            rc = cli_main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        captured = capsys.readouterr()
        assert (rc, captured.out, captured.err) == (
            fresh.returncode,
            fresh.stdout,
            fresh.stderr,
        ), argv
        codes.append(rc)
    assert codes == [0, 2, 0, 0, 0, 2, 3, 0]


def test_import_builds_no_parser():
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import orbitbell.cli as cli; print(cli._parser.cache_info().currsize)",
        ],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


def test_main_builds_one_parser_per_process(monkeypatch, capsys):
    cli_module = importlib.import_module("orbitbell.cli")
    real_build = cli_module.build_parser
    built = []

    def counting_build():
        built.append(1)
        return real_build()

    cli_module._parser.cache_clear()
    monkeypatch.setattr(cli_module, "build_parser", counting_build)
    codes = [
        cli_main(["analyze", "--outcomes", "2", "--settings", "2"]),
        cli_main(["game", "--outcomes", "2", "--settings", "2"]),
        cli_main(["table", "--outcomes-from", "2", "--outcomes-to", "3"]),
        cli_main(["verify", "--outcomes-max", "2", "--settings-max", "2"]),
    ]
    capsys.readouterr()
    assert codes == [0, 0, 0, 0]
    assert len(built) == 1


def test_build_parser_returns_a_fresh_parser():
    assert build_parser() is not build_parser()
