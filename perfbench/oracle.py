"""Correctness oracle for the benchmark's CLI operations.

Checks each output against values the benchmark holds itself, never
against golden bytes, so a schema bump in the certificate does not
count as a failure:

- ``C_s = 2M - 1``: the chained-Bell value (Braunstein-Caves 1990;
  Barrett-Kent-Pironio, PRL 97, 170409, 2006).
- ``Q_s = M (1 + cos(pi / 2M))`` for two outcomes (Wehner, PRA 73,
  022110, 2006), ``10/3`` at (3,2), and reference values for the other
  cells; ``tests/test_oracle.py`` re-derives them from the definition.
- every per-term probability equals ``Q_s / 2Md`` and the quantum game
  value equals ``Q_s / 2M``; at ``M = 2`` the prediction probability
  equals ``Q_s / 4`` and ``I_ab`` matches a reference value.
"""

from __future__ import annotations

import json
import math
import re

TOL = 1e-9

# Largest eigenvalue of the orbit projector sum, for cells without a
# closed form the benchmark can state.
REFERENCE_QUANTUM_BOUND = {
    (3, 2): 10.0 / 3.0,
    (5, 4): 7.616117617072158,
    (6, 4): 7.611570312235112,
    (8, 2): 3.2814577238707505,
    (10, 2): 3.278490644299933,
    (3, 8): 15.818271073541705,
    (4, 6): 11.745973181655291,
}

# Mutual information in bits of the optimal state at setting pair (0, 0).
REFERENCE_MUTUAL_INFO = {
    (2, 2): 0.3991239633071443,
    (3, 2): 0.8146187299249084,
    (8, 2): 2.0300489431456765,
    (10, 2): 2.3289233543696013,
}

_SUMMARY_ROW = re.compile(r"^d=(\d+) M=(\d+): Q_s=(\S+) C_s=(\S+)$")


def expected_quantum_bound(d: int, m: int) -> float:
    if d == 2:
        return m * (1.0 + math.cos(math.pi / (2 * m)))
    return REFERENCE_QUANTUM_BOUND[(d, m)]


def _close(got, want: float) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= TOL


def check_certificate(d: int, m: int, rc: int | None, text: str) -> list[str]:
    """Problems found in one ``analyze --format json`` result; [] if none."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        cert = json.loads(text)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    q = expected_quantum_bound(d, m)
    length = 2 * m * d
    problems = []
    if cert.get("spec") != {"outcomes": d, "settings": m}:
        problems.append(f"spec {cert.get('spec')!r}")
    if not _close(cert.get("quantum_bound"), q):
        problems.append(f"quantum_bound {cert.get('quantum_bound')!r} != {q!r}")
    if cert.get("classical_bound") != 2 * m - 1:
        problems.append(f"classical_bound {cert.get('classical_bound')!r} != {2 * m - 1}")
    if len(cert.get("terms", ())) != length:
        problems.append(f"{len(cert.get('terms', ()))} terms != {length}")
    probs = cert.get("per_term_probs", ())
    if len(probs) != length or not all(_close(p, q / length) for p in probs):
        problems.append("per_term_probs not all equal to Q_s/(2Md)")
    stats = cert.get("stats", {})
    if not _close(stats.get("quantum_win"), q / (2 * m)):
        problems.append(f"quantum_win {stats.get('quantum_win')!r} != {q / (2 * m)!r}")
    if m == 2:
        if not _close(stats.get("p"), q / 4):
            problems.append(f"p {stats.get('p')!r} != {q / 4!r}")
        if not _close(stats.get("I_ab"), REFERENCE_MUTUAL_INFO[(d, m)]):
            problems.append(f"I_ab {stats.get('I_ab')!r} != {REFERENCE_MUTUAL_INFO[(d, m)]!r}")
    elif stats.get("p") is not None or stats.get("I_ab") is not None:
        problems.append("p and I_ab must be null unless M = 2")
    return problems


def check_verify(outcomes_max: int, settings_max: int, rc: int | None, text: str) -> list[str]:
    """Problems found in one ``verify`` result; [] if none.

    Every check line must say PASS, and the summary must list each cell
    of the grid once with ``C_s = 2M - 1`` (or skipped) and, for two
    outcomes, the closed-form ``Q_s`` to the four printed decimals.
    """
    if rc != 0:
        return [f"exit code {rc}"]
    head, _, tail = text.partition("\n\n")
    checks = [ln for ln in head.splitlines() if not ln.startswith(("note:", " "))]
    problems = [f"check line without PASS: {ln!r}" for ln in checks if not ln.startswith("PASS  ")]
    if not checks:
        problems.append("no check lines")
    if "FAIL" in text:
        problems.append("output contains FAIL")
    cells = set()
    for ln in tail.splitlines():
        match = _SUMMARY_ROW.match(ln)
        if not match:
            problems.append(f"unexpected summary line {ln!r}")
            continue
        d, m = int(match[1]), int(match[2])
        cells.add((d, m))
        if match[4] not in (str(2 * m - 1), "skipped"):
            problems.append(f"C_s {match[4]} != {2 * m - 1} at d={d} M={m}")
        if d == 2 and match[3] != f"{expected_quantum_bound(d, m):.4f}":
            problems.append(f"Q_s {match[3]} at d=2 M={m}")
    grid = {(d, m) for d in range(2, outcomes_max + 1) for m in range(1, settings_max + 1)}
    if cells != grid:
        problems.append(f"summary covers {len(cells)} cells, grid has {len(grid)}")
    return problems
