"""Tests of the benchmark itself: its oracle, its reference values and
the repeatability of its traced call counts.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gauge  # noqa: E402
import oracle  # noqa: E402
import tracer as tracing  # noqa: E402
from orbitbell import cli  # noqa: E402


def run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, buf.getvalue()


def certificate(d, m):
    rc, text = run_cli("analyze", "--outcomes", str(d), "--settings", str(m), "--format", "json")
    assert rc == 0
    return text


def orbit_projector_sum(d, m):
    """Sum of projectors onto the 2Md states B^j |00>, built from the
    definitions with numpy alone: T|j> = |j+1 mod d>, U the principal
    M-th root of T (eigenphases in (-pi, pi], boundary at +pi),
    B = (U x 1) Swap."""
    ks = np.arange(d)
    u = np.zeros((d, d), dtype=complex)
    for j in range(d):
        w = np.exp(2j * np.pi * j * ks / d) / np.sqrt(d)
        theta = -2 * np.pi * j / d
        if 2 * j >= d:
            theta += 2 * np.pi
        u += np.exp(1j * theta / m) * np.outer(w, w.conj())
    shift = np.roll(np.eye(d), 1, axis=0)
    assert np.allclose(np.linalg.matrix_power(u, m), shift, atol=1e-12)
    swap = np.zeros((d * d, d * d))
    for j in range(d):
        for k in range(d):
            swap[k * d + j, j * d + k] = 1.0
    step = np.kron(u, np.eye(d)) @ swap
    vec = np.zeros(d * d, dtype=complex)
    vec[0] = 1.0
    total = np.zeros((d * d, d * d), dtype=complex)
    for _ in range(2 * m * d):
        total += np.outer(vec, vec.conj())
        vec = step @ vec
    assert np.allclose(vec[0], 1.0, atol=1e-9)  # the orbit closes
    return total


ANALYZE_CELLS = [(2, 2), (3, 2), (5, 4), (6, 4), (8, 2), (10, 2), (2, 12), (2, 13), (3, 8), (4, 6)]


@pytest.mark.parametrize("d,m", [(2, 2), (2, 3), (2, 12)] + sorted(oracle.REFERENCE_QUANTUM_BOUND))
def test_reference_quantum_bounds_match_the_definition(d, m):
    if d == 2:
        assert oracle.expected_quantum_bound(2, 2) == pytest.approx(2 + np.sqrt(2), abs=1e-12)
    top = np.linalg.eigvalsh(orbit_projector_sum(d, m))[-1]
    assert top == pytest.approx(oracle.expected_quantum_bound(d, m), abs=1e-9)


@pytest.mark.parametrize("d,m", sorted(oracle.REFERENCE_MUTUAL_INFO))
def test_reference_mutual_information_matches_the_definition(d, m):
    values, vectors = np.linalg.eigh(orbit_projector_sum(d, m))
    assert values[-1] - values[-2] > 1e-6  # the optimal state is unique
    joint = np.abs(vectors[:, -1].reshape(d, d)) ** 2  # setting pair (0, 0)
    outer = np.outer(joint.sum(axis=1), joint.sum(axis=0))
    mask = joint > 0
    info = float(np.sum(joint[mask] * np.log2(joint[mask] / outer[mask])))
    assert info == pytest.approx(oracle.REFERENCE_MUTUAL_INFO[(d, m)], abs=1e-9)


@pytest.mark.parametrize("d,m", ANALYZE_CELLS)
def test_oracle_accepts_every_benchmark_cell(d, m):
    assert oracle.check_certificate(d, m, 0, certificate(d, m)) == []


def perturbed(d, m, edit):
    cert = json.loads(certificate(d, m))
    edit(cert)
    return oracle.check_certificate(d, m, 0, json.dumps(cert))


def test_oracle_rejects_perturbed_quantum_bound():
    def edit(cert):
        cert["quantum_bound"] += 1e-6

    assert perturbed(3, 2, edit)


def test_oracle_rejects_classical_bound_plus_one():
    def edit(cert):
        cert["classical_bound"] += 1

    assert perturbed(2, 12, edit)


def test_oracle_rejects_non_uniform_per_term_probability():
    def edit(cert):
        cert["per_term_probs"][3] += 1e-6
        cert["per_term_probs"][4] -= 1e-6  # same total

    assert perturbed(5, 4, edit)


def test_oracle_rejects_wrong_statistics_and_exit_code():
    def edit(cert):
        cert["stats"]["I_ab"] += 1e-6

    assert perturbed(8, 2, edit)
    assert oracle.check_certificate(2, 2, 3, certificate(2, 2))


def test_oracle_checks_verify_output():
    rc, text = run_cli("verify", "--outcomes-max", "3", "--settings-max", "2")
    assert oracle.check_verify(3, 2, rc, text) == []
    assert oracle.check_verify(3, 3, rc, text)  # cells missing from the summary
    lines = text.splitlines()
    lines[1] = "FAIL" + lines[1][4:]
    assert oracle.check_verify(3, 2, rc, "\n".join(lines) + "\n")
    assert oracle.check_verify(3, 2, 1, text)


def traced_calls(*argv):
    tr = tracing.Tracer()
    tr.install()
    try:
        rc, _ = run_cli(*argv)
    finally:
        tr.uninstall()
    assert rc == 0
    return {k: c for k, (c, _) in tracing.summarize(tr.take()).items()}


@pytest.mark.parametrize("d,m,root_unitary", [(5, 4, 42), (2, 12, 314), (10, 2, 22)])
def test_traced_call_counts_per_cell(d, m, root_unitary):
    calls = traced_calls("analyze", "--outcomes", str(d), "--settings", str(m), "--format", "json")
    assert calls["orbit.orbit"] == 2
    assert calls["orbit.root_unitary"] == root_unitary
    assert calls["bounds.quantum_bound_numeric"] == 1
    assert calls["bounds.quantum_bound_analytic"] == 1
    assert calls["cli.main"] == 1


def test_tracer_restores_every_binding():
    import orbitbell
    import orbitbell.bounds

    before = (orbitbell.orbit, orbitbell.bounds.orbit, orbitbell.analyze)
    tr = tracing.Tracer()
    tr.install()
    assert orbitbell.bounds.orbit is not before[1]
    tr.uninstall()
    assert (orbitbell.orbit, orbitbell.bounds.orbit, orbitbell.analyze) == before


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    assert tracing.summarize(spans) == {"a": (1, 6.0), "b": (2, 3.0), "c": (1, 1.0)}


def bench(*args):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    return proc


def test_two_traced_runs_repeat_call_counts_exactly():
    runs = []
    for seed in (1, 2):
        proc = bench("--workload", "settings-heavy", "--seed", str(seed), "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        runs.append({k: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")})
    assert runs[0] == runs[1]
    assert runs[0]["orbit.orbit.calls"] == 2 * 4


def test_untraced_run_reports_every_end_to_end_metric():
    proc = bench("--workload", "settings-heavy", "--seed", "7", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    *_, diag, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {"setup_s", "pass_s.p50", "pass_s.tail", "peak_rss_mb"}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert json.loads(diag)["diagnostics"]["seed"] == 7


def test_gauge_scales_to_the_reference_speed():
    assert gauge.scale(2.0, [gauge.REF_KERNEL_S / 2, gauge.REF_KERNEL_S / 2]) == pytest.approx(4.0)


def test_gauge_samples_during_work_and_subtracts_it():
    def work():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
        return "done"

    handler = signal.getsignal(signal.SIGALRM)
    start = time.perf_counter()
    result, wall, scaled = gauge.timed(work)
    outer = time.perf_counter() - start
    assert result == "done"
    # The kernel runs every INTERVAL_S inside the 0.3 s; its time is not the work's.
    assert 0.25 < wall < 0.3 < outer
    assert scaled > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler


def test_refuses_a_checkout_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "oracle.py", "tracer.py", "gauge.py"):
        (tmp_path / "perfbench" / name).write_text((BENCH / name).read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
