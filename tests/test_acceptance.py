"""Acceptance gate: the headline numbers, closed-form families, survey
table, game values, verification sweep, and byte-determinism.

Each test prints one pass/fail line (visible with ``pytest -s``) and
asserts the same condition, so the suite doubles as a checklist.
"""

import json
import subprocess
import sys

import numpy as np

from orbitbell import (
    ProblemSpec,
    analyze,
    build_inequality,
    run_verification,
)


def criterion(number, description, failures):
    ok = not failures
    status = "PASS" if ok else "FAIL"
    print(f"acceptance criterion {number}: {status} - {description}")
    assert ok, f"criterion {number} ({description}): " + "; ".join(failures)


def test_criterion_1_two_outcome_two_setting_instance():
    failures = []
    ineq = build_inequality(ProblemSpec(2, 2))
    target = 2 + np.sqrt(2)
    if abs(ineq.quantum_bound - target) > 1e-9:
        failures.append(f"quantum bound {ineq.quantum_bound!r} != 2+sqrt(2)")
    if ineq.classical_bound != 3:
        failures.append(f"classical bound {ineq.classical_bound} != 3")
    if len(ineq.per_term_probs) != 8 or any(
        abs(p - target / 8) > 1e-9 for p in ineq.per_term_probs
    ):
        failures.append("per-term probabilities not uniformly (2+sqrt(2))/8")
    criterion(1, "d=2 M=2 bounds and uniform per-term probabilities", failures)


def test_criterion_2_three_outcome_instance_and_state():
    failures = []
    ineq = build_inequality(ProblemSpec(3, 2))
    if abs(ineq.quantum_bound - 10 / 3) > 1e-9:
        failures.append(f"quantum bound {ineq.quantum_bound!r} != 10/3")
    if ineq.classical_bound != 3:
        failures.append(f"classical bound {ineq.classical_bound} != 3")
    if any(abs(p - 5 / 18) > 1e-9 for p in ineq.per_term_probs):
        failures.append("per-term probabilities not uniformly 5/18")
    # closed-form maximizer, flat index = 3 * alice_level + bob_level
    ref = np.zeros(9)
    scale = np.sqrt(2 / 5)
    ref[[0, 4, 8]] = scale * 5 / 6
    ref[[3, 2, 7]] = scale / 3
    ref[[1, 6, 5]] = -scale / 6
    fidelity = abs(np.vdot(ref, ineq.optimal_state)) ** 2
    if fidelity < 1 - 1e-9:
        failures.append(f"optimal-state fidelity {fidelity!r} < 1 - 1e-9")
    criterion(2, "d=3 M=2 bounds, per-term probabilities, optimal state", failures)


def test_criterion_3_three_setting_qubit_instance():
    failures = []
    ineq = build_inequality(ProblemSpec(2, 3))
    target = 1.5 * (2 + np.sqrt(3))
    if abs(ineq.quantum_bound - target) > 1e-9:
        failures.append(f"quantum bound {ineq.quantum_bound!r} != (3/2)(2+sqrt(3))")
    if ineq.classical_bound != 5:
        failures.append(f"classical bound {ineq.classical_bound} != 5")
    criterion(3, "d=2 M=3 bounds", failures)


def test_criterion_4_qubit_setting_family():
    failures = []
    for m in range(2, 9):
        spec = ProblemSpec(2, m)
        ineq = build_inequality(spec)
        target = m * (1 + np.cos(np.pi / (2 * m)))
        if abs(ineq.quantum_bound - target) > 1e-9:
            failures.append(f"M={m}: quantum bound off closed form")
        if ineq.classical_bound != 2 * m - 1:
            failures.append(f"M={m}: classical bound != 2M-1")
        report = analyze(spec)
        if not report.quantum_win > report.classical_win:
            failures.append(f"M={m}: game value not strictly above classical")
    criterion(4, "d=2, M=2..8 closed-form family and strict game advantage", failures)


def test_criterion_5_two_setting_survey_table():
    expected = {
        2: (3.4142, 3, 0.8536, 0.3991),
        3: (3.3333, 3, 0.8333, 0.8146),
        4: (3.3066, 3, 0.8266, 1.1482),
        5: (3.2944, 3, 0.8236, 1.4223),
    }
    failures = []
    for d, (q, c, p, info) in expected.items():
        report = analyze(ProblemSpec(d, 2))
        got = (
            round(report.quantum_bound, 4),
            report.classical_bound,
            round(report.prediction_prob, 4),
            round(report.mutual_info_bits, 4),
        )
        if report.classical_bound != c:
            failures.append(f"d={d}: classical bound {report.classical_bound} != {c}")
        for name, value, target in (
            ("Q_s", got[0], q),
            ("p", got[2], p),
            ("I_ab", got[3], info),
        ):
            if abs(value - target) > 5e-4:
                failures.append(f"d={d}: {name} {value} vs {target}")
    criterion(5, "survey table (Q_s, C_s, p, I_ab) for d=2..5 at M=2", failures)


def test_criterion_6_game_values():
    expected = [
        (2, 2, 0.8536, 0.75),
        (3, 2, 5 / 6, 0.75),
        (2, 3, 0.933, 5 / 6),
    ]
    failures = []
    for d, m, q, c in expected:
        report = analyze(ProblemSpec(d, m))
        if abs(report.quantum_win - q) > 5e-4:
            failures.append(f"d={d} M={m}: quantum win {report.quantum_win!r} vs {q}")
        if abs(report.classical_win - c) > 5e-4:
            failures.append(
                f"d={d} M={m}: classical win {report.classical_win!r} vs {c}"
            )
    criterion(6, "quantum/classical game values at three anchor instances", failures)


def test_criterion_7_verification_sweep():
    report = run_verification(6, 6)
    failures = [check.line() for check in report.checks if not check.passed]
    if not report.passed:
        failures.append("sweep reports failure")
    criterion(7, "structural cross-check sweep over d<=6, M<=6", failures)


def test_criterion_8_json_determinism():
    argv = [
        sys.executable, "-m", "orbitbell",
        "analyze", "--outcomes", "3", "--settings", "2", "--format", "json",
    ]
    first = subprocess.run(argv, capture_output=True, text=True)
    second = subprocess.run(argv, capture_output=True, text=True)
    failures = []
    if first.returncode != 0 or second.returncode != 0:
        failures.append("analyze run failed")
    if first.stdout != second.stdout:
        failures.append("repeated runs differ byte for byte")
    if not failures and json.loads(first.stdout)["schema_version"] != "2":
        failures.append("unexpected schema version")
    criterion(8, "repeated JSON analyze runs are byte-identical", failures)
