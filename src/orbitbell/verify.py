"""Self-verification sweep over a grid of instance sizes.

Runs every structural cross-check the construction promises, for all
outcomes 2..outcomes_max and settings 1..settings_max, and reports one
pass/fail line per check. Instances whose deterministic-strategy space
exceeds the enumeration guard keep their quantum-side checks and skip
only the classical comparison.

Each cell runs the assembly ``analyze`` runs (``bounds._inequality``),
whose own checks raise into one construction line, and checks what it
reports with the routes that ``analyze`` does not run: from the
``linalg`` module, the d^2 x d^2 step operator B, placed by index and
checked against the matrix product (U x 1) S with the cell's one swap
S, then applied to every orbit vector at once, LAPACK ``eigvalsh`` on
the projector sum and the residuals of the whole closed-form
eigensystem; from ``bounds``, the d^M enumeration of the classical
bound. At M = 2 it checks ``analyze``'s statistics: the mutual
information does not depend on the setting pair, and p = Q_s / 4. A NaN
residual fails its line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import (
    _ROUTE_TOL,
    STRATEGY_GUARD,
    _check_memory_ceiling,
    _check_orbit_ceiling,
    _inequality,
    _over_strategy_guard,
    classical_bound,
)
from .games import _two_setting_stats
from .linalg import (
    _eigensystem,
    _step_product,
    accumulate_A,
    quantum_bound_numeric,
    step_operator,
    swap_matrix,
    translation_matrix,
)
from .orbit import _STEP_TOL, ProblemSpec, _sizes, _states

__all__ = ["CheckResult", "VerificationReport", "run_verification"]


@dataclass
class CheckResult:
    name: str
    tolerance: float | None
    worst: float = 0.0
    passed: bool = True
    notes: list[str] = field(default_factory=list)

    def record(self, value: float, cell: str) -> None:
        # a NaN residual is the worst there is, and fails
        if value > self.worst or math.isnan(value):
            self.worst = value
        if self.tolerance is not None and not value <= self.tolerance:
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


def _largest(residuals: np.ndarray | list[float]) -> float:
    """Largest magnitude among ``residuals``, NaN if any is NaN."""
    return float(np.max(np.abs(residuals)))


def run_verification(outcomes_max: int = 6, settings_max: int = 6) -> VerificationReport:
    """Run every check on every cell of the grid.

    Each cell assembles its instance once, as ``analyze`` does, and
    every check reads it: the inequality, the orbit and the root table,
    whose U also gives the closed-form eigensystem and whose bases give
    the M = 2 statistics.

    The two bounds are checked by :class:`ProblemSpec`'s rules before
    any work: a non-integer or ``bool`` bound raises TypeError, and
    ``outcomes_max < 2`` or ``settings_max < 1`` raises ValueError,
    rather than passing an empty sweep. Raises InstanceTooLarge before
    the first cell when ``outcomes_max`` is beyond the memory ceiling,
    or when the largest cell's orbit arrays would be; the enumeration
    guard only skips the classical comparison per cell.
    """
    outcomes_max, settings_max = _sizes(
        outcomes_max, settings_max, ("outcomes_max", "settings_max")
    )
    _check_memory_ceiling(outcomes_max)
    _check_orbit_ceiling(outcomes_max, settings_max)
    checks = {
        "unitary": CheckResult("generator matrices are unitary", 1e-12),
        "root": CheckResult("settings-th power of the root unitary is the shift", 1e-11),
        "product": CheckResult("step operator equals the dense product (U x 1) S", 1e-12),
        "period": CheckResult("step operator has period 2*M*d", 1e-10),
        "construction": CheckResult(
            "instance builds and passes analyze's own checks", None
        ),
        "stepping": CheckResult(
            "dense step operator maps each orbit vector to the next", _STEP_TOL
        ),
        "eigen": CheckResult("closed-form eigenpairs satisfy B v = lambda v", 1e-9),
        "trace": CheckResult("projector sum has trace 2*M*d", 1e-10),
        "agree": CheckResult("analytic and numeric quantum bounds agree", _ROUTE_TOL),
        "gram": CheckResult(
            "orbit Gram spectrum and analytic quantum bound agree", _ROUTE_TOL
        ),
        "maximizer": CheckResult("optimal state is a step-operator eigenvector", 1e-9),
        "uniform": CheckResult("per-term probabilities equal Q_s/(2*M*d)", 1e-9),
        "dominance": CheckResult("quantum bound is at least the classical bound", 1e-9),
        "chained": CheckResult(
            "enumerated classical bound equals the chained-Bell value 2M-1", None
        ),
        "information": CheckResult(
            "mutual information independent of the setting pair (M=2)", 1e-9
        ),
        "prediction": CheckResult(
            "prediction probability equals the quantum win probability (M=2)", 1e-9
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
                instance = _inequality(spec)
                u = instance.table.u
                s = swap_matrix(d)
                b = step_operator(u)
                dense_b = _step_product(u, s)
            except Exception as exc:  # noqa: BLE001 - reported, not swallowed
                checks["construction"].fail(cell, str(exc))
                summary.append(f"{cell}: construction failed ({exc})")
                continue
            ineq = instance.inequality
            orbit_vecs = _states(instance.alice, instance.bob)
            analytic, state = ineq.quantum_bound, ineq.optimal_state

            unitarity = [_largest(g.conj().T @ g - np.eye(len(g))) for g in (t, u, s, b)]
            checks["unitary"].record(_largest(unitarity), cell)
            checks["root"].record(_largest(np.linalg.matrix_power(u, m) - t), cell)
            checks["product"].record(_largest(b - dense_b), cell)
            period = np.linalg.matrix_power(b, length) - np.eye(len(b))
            checks["period"].record(_largest(period), cell)

            # column j of B V^T is B v_j, to be v_(j+1); v_0 closes the cycle
            stepped = b @ orbit_vecs.T
            stepped[:, :-1] -= orbit_vecs[1:].T
            stepped[:, -1] -= orbit_vecs[0]
            checks["stepping"].record(_largest(stepped), cell)

            eigenpairs = _eigensystem(spec, instance.table)
            # all residuals B v - lambda v in one product, one column per pair
            vecs = np.array([pair.vector for pair in eigenpairs]).T
            roots = np.array([pair.root_index for pair in eigenpairs])
            lams = np.exp(2j * np.pi * roots / length)
            checks["eigen"].record(_largest(b @ vecs - vecs * lams), cell)

            a = accumulate_A(orbit_vecs)
            checks["trace"].record(abs(float(np.trace(a).real) - length), cell)
            checks["agree"].record(abs(quantum_bound_numeric(a) - analytic), cell)
            checks["gram"].record(abs(instance.gram - analytic), cell)

            rayleigh = np.vdot(state, b @ state)
            checks["maximizer"].record(_largest(b @ state - rayleigh * state), cell)
            uniform = ineq.per_term_probs - analytic / length
            checks["uniform"].record(_largest(uniform), cell)

            if _over_strategy_guard(d, m):
                skipped.append(cell)
                summary.append(f"{cell}: Q_s={analytic:.4f} C_s=skipped")
            else:
                c_value, witness = classical_bound(spec, ineq.terms)
                checks["dominance"].record(max(0.0, c_value - analytic), cell)
                if (c_value, witness) != (ineq.classical_bound, ineq.witness):
                    checks["chained"].fail(
                        cell, f"enumeration gives C_s={c_value}, {witness}"
                    )
                summary.append(f"{cell}: Q_s={analytic:.4f} C_s={c_value}")
                if d == 2 and m == 1:
                    checks["degenerate"].record(abs(analytic - 1.0), cell)
                    if c_value != 1:
                        checks["degenerate"].fail(cell, f"C_s={c_value}, expected 1")

            if m == 2:  # the quantum win is Q_s over the 2M = 4 questions
                stats = _two_setting_stats(ineq, instance.table.bases)
                checks["information"].record(stats.spread, cell)
                checks["prediction"].record(abs(stats.prediction - analytic / 4), cell)

    return VerificationReport(list(checks.values()), summary, skipped)
