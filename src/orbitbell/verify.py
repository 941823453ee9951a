"""Self-verification sweep over a grid of instance sizes.

Runs every structural cross-check the construction promises, for all
outcomes 2..outcomes_max and settings 1..settings_max, and reports one
pass/fail line per check. Instances whose deterministic-strategy space
exceeds the enumeration guard keep their quantum-side checks and skip
only the classical comparison.

The dense routes that ``analyze`` no longer runs live here: the d^2 x
d^2 step operator B, placed by index and checked against the matrix
product (U x 1) S, then applied to every orbit vector at once; LAPACK
``eigvalsh`` on the projector sum; the residuals of the whole
closed-form eigensystem; and the d^M enumeration of the classical
bound. Each is compared with the hot path's route at every cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bounds import (
    STRATEGY_GUARD,
    _chained_bell_bound,
    _check_memory_ceiling,
    _over_strategy_guard,
    accumulate_A,
    b_eigensystem,
    classical_bound,
    quantum_bound_analytic,
    quantum_bound_gram,
    quantum_bound_numeric,
)
from .games import joint_distribution, mutual_information
from .orbit import (
    ProblemSpec,
    _step_from_root,
    _step_product,
    condition_label_pairs,
    label_step,
    measurement_bases,
    orbit as build_orbit,
    root_unitary,
    swap_matrix,
    translation_matrix,
)

__all__ = ["CheckResult", "VerificationReport", "run_verification"]


@dataclass
class CheckResult:
    name: str
    tolerance: float | None
    worst: float = 0.0
    passed: bool = True
    notes: list[str] = field(default_factory=list)

    def record(self, value: float, cell: str) -> None:
        if value > self.worst:
            self.worst = value
        if self.tolerance is not None and value > self.tolerance:
            self.passed = False
            self.notes.append(f"{cell}: residual {value:.3e}")

    def fail(self, cell: str, message: str) -> None:
        self.passed = False
        self.notes.append(f"{cell}: {message}")

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        if self.tolerance is not None:
            detail = f"worst residual {self.worst:.2e}, tolerance {self.tolerance:.0e}"
        else:
            detail = "exact"
        return f"{status}  {self.name} ({detail})"


@dataclass
class VerificationReport:
    checks: list[CheckResult]
    summary: list[str]
    skipped: list[str]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = [c.line() for c in self.checks]
        for c in self.checks:
            out.extend(f"      {note}" for note in c.notes)
        if self.skipped:
            out.append(
                "note: classical bound skipped (search space beyond "
                f"{STRATEGY_GUARD:.0e}) at " + ", ".join(self.skipped)
            )
        out.append("")
        out.extend(self.summary)
        return out


def run_verification(outcomes_max: int = 6, settings_max: int = 6) -> VerificationReport:
    """Run every check on every cell of the grid.

    Raises InstanceTooLarge before the first cell when ``outcomes_max``
    is beyond the memory ceiling; the enumeration guard only skips the
    classical comparison per cell.
    """
    _check_memory_ceiling(outcomes_max)
    checks = {
        "unitary": CheckResult("generator matrices are unitary", 1e-12),
        "root": CheckResult("settings-th power of the root unitary is the shift", 1e-11),
        "product": CheckResult("step operator equals the dense product (U x 1) S", 1e-12),
        "period": CheckResult("step operator has period 2*M*d", 1e-10),
        "labels": CheckResult("orbit: 2*M*d distinct labels, closed cycle", None),
        "families": CheckResult("orbit labels equal the three membership families", None),
        "consistency": CheckResult("orbit vectors match their labels", None),
        "stepping": CheckResult(
            "dense step operator maps each orbit vector to the next", 1e-10
        ),
        "eigen": CheckResult("closed-form eigenpairs satisfy B v = lambda v", 1e-9),
        "trace": CheckResult("projector sum has trace 2*M*d", 1e-10),
        "agree": CheckResult("analytic and numeric quantum bounds agree", 1e-9),
        "gram": CheckResult("orbit Gram spectrum and analytic quantum bound agree", 1e-9),
        "maximizer": CheckResult("optimal state is a step-operator eigenvector", 1e-9),
        "uniform": CheckResult("per-term probabilities equal Q_s/(2*M*d)", 1e-9),
        "dominance": CheckResult("quantum bound is at least the classical bound", 1e-9),
        "chained": CheckResult(
            "enumerated classical bound equals the chained-Bell value 2M-1", None
        ),
        "information": CheckResult(
            "mutual information independent of the setting pair (M=2)", 1e-9
        ),
        "degenerate": CheckResult("single-setting case gives Q_s = C_s = 1", 1e-9),
    }
    summary: list[str] = []
    skipped: list[str] = []

    for d in range(2, outcomes_max + 1):
        for m in range(1, settings_max + 1):
            cell = f"d={d} M={m}"
            spec = ProblemSpec(d, m)
            length = spec.orbit_length
            try:
                t = translation_matrix(d)
                u = root_unitary(spec)
                s = swap_matrix(d)
                b = _step_from_root(u)
                dense_b = _step_product(u)
                entries = build_orbit(spec)
            except Exception as exc:  # noqa: BLE001 - reported, not swallowed
                checks["consistency"].fail(cell, str(exc))
                summary.append(f"{cell}: construction failed ({exc})")
                continue

            checks["unitary"].record(
                max(
                    float(np.max(np.abs(g.conj().T @ g - np.eye(g.shape[0]))))
                    for g in (t, u, s, b)
                ),
                cell,
            )
            checks["root"].record(
                float(np.max(np.abs(np.linalg.matrix_power(u, m) - t))), cell
            )
            checks["product"].record(float(np.max(np.abs(b - dense_b))), cell)
            checks["period"].record(
                float(
                    np.max(
                        np.abs(np.linalg.matrix_power(b, length) - np.eye(b.shape[0]))
                    )
                ),
                cell,
            )

            labels = [(e.alice, e.bob) for e in entries]
            distinct = len(set(labels)) == length
            closes = label_step(entries[-1].alice, entries[-1].bob, spec) == labels[0]
            if not (len(entries) == length and distinct and closes):
                checks["labels"].fail(cell, "orbit does not close into distinct labels")
            if set(labels) != condition_label_pairs(spec):
                checks["families"].fail(cell, "label set mismatch")
            # column j of B V^T is B v_j, to be v_(j+1); v_0 closes the cycle
            orbit_vecs = np.array([e.vector for e in entries])
            successors = np.roll(orbit_vecs, -1, axis=0)
            checks["stepping"].record(
                float(np.max(np.abs(b @ orbit_vecs.T - successors.T))), cell
            )

            eigenpairs = b_eigensystem(spec)
            # all residuals B v - lambda v in one product, one column per pair
            vecs = np.array([pair.vector for pair in eigenpairs]).T
            roots = np.array([pair.root_index for pair in eigenpairs])
            lams = np.exp(2j * np.pi * roots / length)
            checks["eigen"].record(float(np.max(np.abs(b @ vecs - vecs * lams))), cell)

            a = accumulate_A(entries)
            checks["trace"].record(abs(float(np.trace(a).real) - length), cell)
            numeric = quantum_bound_numeric(a)
            analytic, state = quantum_bound_analytic(spec, entries)
            checks["agree"].record(abs(numeric - analytic), cell)
            checks["gram"].record(abs(quantum_bound_gram(entries) - analytic), cell)

            rayleigh = np.vdot(state, b @ state)
            checks["maximizer"].record(
                float(np.max(np.abs(b @ state - rayleigh * state))), cell
            )
            per_term = np.abs(orbit_vecs @ state.conj()) ** 2
            checks["uniform"].record(
                float(np.max(np.abs(per_term - analytic / length))), cell
            )

            if _over_strategy_guard(d, m):
                skipped.append(cell)
                summary.append(f"{cell}: Q_s={analytic:.4f} C_s=skipped")
            else:
                c_value, witness = classical_bound(entries, spec)
                checks["dominance"].record(max(0.0, c_value - analytic), cell)
                try:
                    chained = _chained_bell_bound(spec, labels)
                except RuntimeError as exc:
                    checks["chained"].fail(cell, str(exc))
                else:
                    if chained != (c_value, witness):
                        checks["chained"].fail(
                            cell, f"enumeration gives C_s={c_value}, {witness}"
                        )
                summary.append(f"{cell}: Q_s={analytic:.4f} C_s={c_value}")
                if d == 2 and m == 1:
                    checks["degenerate"].record(abs(analytic - 1.0), cell)
                    if c_value != 1:
                        checks["degenerate"].fail(cell, f"C_s={c_value}, expected 1")

            if m == 2:
                bases = measurement_bases(u, 2)
                infos = [
                    mutual_information(joint_distribution(state, bases[sa], bases[sb]))
                    for sa in range(2)
                    for sb in range(2)
                ]
                checks["information"].record(max(infos) - min(infos), cell)

    return VerificationReport(list(checks.values()), summary, skipped)
