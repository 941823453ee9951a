"""Self-verification sweep over a grid of instance sizes.

Runs every structural cross-check the construction promises, for all
outcomes 2..outcomes_max and settings 1..settings_max, and reports one
pass/fail line per check, 17 in all. Every line runs at every cell.

Each cell runs the assembly ``analyze`` runs (``bounds._inequality``),
whose own checks raise into one construction line, and checks what it
reports with the routes that ``analyze`` does not run: from the
``linalg`` module, the shift T, with T and U unitary, and the step
B = (U x 1) S applied by its definition, an axis swap and then U, to
every orbit vector at once, with LAPACK ``eigvalsh`` on the smaller
of two matrices with the same nonzero spectrum and trace n: the
d^2 x d^2 projector sum A = V^T conj(V) over the orbit states V, and
the n x n Gram matrix G = conj(V) V^T, formed from the (n, d) factors
when n < d^2; from ``bounds``, the max-plus elimination of the
classical bound, handed the assembly's (n, 4) int64 label array as it
is. T depends on d alone, so T, the identity and T's unitarity and
period residuals are built once per outcome count and recorded at
each cell. B is unitary by construction once U is, and B B = U x U by
its definition, so B^(2Md) = U^(Md) x U^(Md): the period line reads
U^(Md) = (U^M)^d = 1, from the U^M of the root line, and T^d = 1,
with no d^2 x d^2 power. The orbit vectors
are verify's own: the (n, d) factors gathered by the index rule from
the root table's first columns, with no labels and no check of their
own, multiplied out into (n, d^2) states, which the stepping line
checks against B one step at a time. Q_s is checked against its
proved closed form M (1 + sin(pi/M) / (d sin(pi/(dM)))), 1 at M = 1,
to a relative 1e-12, and the reported state, expanded from its d
Fourier coefficients on the pairing, against the definition of the
projector onto B's eigenvalue mu = exp(2*pi*i*rho/n):
P_mu|00> = (1/n) sum_j mu^(-j) v_j over the orbit states
v_j = B^j|00>, normalized, with the proved rho = 1 - d mod 2 (0 at
M = 1), with no phase fitted. The per-term probabilities, which
``analyze`` reports as |psi_00|^2, and |conj(V) psi|^2 from the dense
states V must both equal Q_s/n. At M = 2 it checks ``analyze``'s
statistics: the mutual information does not depend on the setting
pair, p = Q_s / 4, and the circulant grids, each one d-long column,
and their I_ab against the dense grids of the d^2 amplitudes in the
bases (I, U) and their mutual information, to 1e-12. A NaN residual
fails its line, a NaN in a circulant column, which the statistics
refuse, fails the information line, a NaN in a dense grid, which the
mutual information refuses, the circulant line, and a NaN in A or
G, which the Hermitian test of ``quantum_bound_numeric`` refuses,
fails the agreement line. A cell forms a d^2 x d^2 matrix only where
A is the smaller, n >= d^2; its largest arrays are the (n, d^2)
orbit states and their step by B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import _ROUTE_TOL, _inequality, classical_bound
from .games import _circulant_grids, _two_setting_stats, joint_distribution, mutual_information
from .linalg import accumulate_A, apply_step, quantum_bound_numeric, translation_matrix
from .orbit import _STEP_TOL, ProblemSpec, _check_size, _factor_indices, _gather, _sizes, _states

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

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = [c.line() for c in self.checks]
        for c in self.checks:
            out.extend(f"      {note}" for note in c.notes)
        out.append("")
        out.extend(self.summary)
        return out


def _largest(residuals: np.ndarray | list[float]) -> float:
    """Largest magnitude among ``residuals``, NaN if any is NaN."""
    return float(np.abs(residuals).max())


def _gram(alice: np.ndarray, bob: np.ndarray) -> np.ndarray:
    """The orbit's n x n Gram matrix G = conj(V) V^T, entry (j, k)
    <v_j|v_k> = <a_j|a_k> <b_j|b_k>, from the (n, d) factor arrays
    alice[j] = a_j and bob[j] = b_j, with no state formed. It has the
    nonzero spectrum and the trace of the d^2 x d^2 projector sum
    A = V^T conj(V)."""
    return (alice.conj() @ alice.T) * (bob.conj() @ bob.T)


def _closed_form(d: int, m: int) -> float:
    """The proved quantum bound, M (1 + sin(pi/M) / (d sin(pi/(dM))))
    at M >= 2 and 1 at M = 1 (see the ``bounds`` module docstring)."""
    if m == 1:
        return 1.0
    return m * (1 + math.sin(math.pi / m) / (d * math.sin(math.pi / (d * m))))


def run_verification(outcomes_max: int = 6, settings_max: int = 6) -> VerificationReport:
    """Run every check on every cell of the grid.

    Each cell assembles its instance once, as ``analyze`` does, and
    every check reads it: the inequality, the orbit and the root table,
    whose U also gives the step B and the dense M = 2 grids, and whose
    first columns give the circulant statistics.

    The two bounds are checked by :class:`ProblemSpec`'s rules before
    any work: a non-integer or ``bool`` bound raises TypeError, and
    ``outcomes_max < 2`` or ``settings_max < 1`` raises ValueError,
    rather than passing an empty sweep. Raises InstanceTooLarge before
    the first cell when the largest cell is beyond the size rule that
    ``analyze`` applies to each instance (``orbit._check_size``), so
    the sweep reaches every instance ``analyze`` accepts.
    """
    outcomes_max, settings_max = _sizes(
        outcomes_max, settings_max, ("outcomes_max", "settings_max")
    )
    _check_size(outcomes_max, settings_max)
    checks = {
        "unitary": CheckResult("generator matrices are unitary", 1e-12),
        "root": CheckResult("settings-th power of the root unitary is the shift", 1e-11),
        "period": CheckResult("step operator has period 2*M*d", 1e-10),
        "construction": CheckResult(
            "instance builds and passes analyze's own checks", None
        ),
        "stepping": CheckResult(
            "step operator maps each orbit vector to the next", _STEP_TOL
        ),
        "trace": CheckResult("projector sum has trace 2*M*d", 1e-10),
        "agree": CheckResult("analytic and numeric quantum bounds agree", _ROUTE_TOL),
        "gram": CheckResult(
            "orbit Gram spectrum and analytic quantum bound agree", _ROUTE_TOL
        ),
        "closed": CheckResult("quantum bound equals the closed form", 1e-12),
        "maximizer": CheckResult("optimal state is a step-operator eigenvector", 1e-9),
        "projection": CheckResult(
            "optimal state equals the projection of |00> onto B's mu-eigenspace", 1e-9
        ),
        "uniform": CheckResult("per-term probabilities equal Q_s/(2*M*d)", 1e-9),
        "dominance": CheckResult("quantum bound is at least the classical bound", 1e-9),
        "chained": CheckResult("classical bound equals the chained-Bell value 2M-1", None),
        "information": CheckResult(
            "mutual information independent of the setting pair (M=2)", 1e-9
        ),
        "prediction": CheckResult(
            "prediction probability equals the quantum win probability (M=2)", 1e-9
        ),
        "circulant": CheckResult("circulant M = 2 statistics equal the dense grids'", 1e-12),
    }
    summary: list[str] = []

    for d in range(2, outcomes_max + 1):
        # T depends on d alone: it and its unitarity and T^d = 1 residuals
        # are built at the row's first cell and recorded at each; a T that
        # cannot be built fails the construction line of each cell of the
        # row
        eye, t = np.eye(d, dtype=complex), None
        for m in range(1, settings_max + 1):
            cell = f"d={d} M={m}"
            spec = ProblemSpec(d, m)
            length = spec.orbit_length
            try:
                if t is None:  # T is kept once its residuals are taken
                    shift = translation_matrix(d)
                    t_unitary, t_period = (
                        _largest(shift.conj().T @ shift - eye),
                        _largest(np.linalg.matrix_power(shift, d) - eye),
                    )
                    t = shift
                instance = _inequality(spec)
            except Exception as exc:  # noqa: BLE001 - reported, not swallowed
                checks["construction"].fail(cell, str(exc))
                summary.append(f"{cell}: construction failed ({exc})")
                continue
            ineq, u = instance.inequality, instance.table.u
            # the orbit states from the index rule's factors, a_j in
            # rows 1..n and b_j in rows 0..n-1
            factors = _gather(spec, instance.table, np.arange(d), _factor_indices(spec))
            alice, bob = factors[1:], factors[:-1]
            orbit_vecs = _states(alice, bob)
            analytic, state = ineq.quantum_bound, ineq.optimal_state

            unitarity = [t_unitary, _largest(u.conj().T @ u - eye)]
            checks["unitary"].record(_largest(unitarity), cell)
            root = np.linalg.matrix_power(u, m)
            checks["root"].record(_largest(root - t), cell)
            # B B = U x U by B's definition, so B^(2Md) = U^(Md) x U^(Md),
            # and U^(Md) = (U^M)^d
            period = [_largest(np.linalg.matrix_power(root, d) - eye), t_period]
            checks["period"].record(_largest(period), cell)

            # row j of the stepped states is B v_j, to be v_(j+1); v_0 closes the cycle
            stepped = apply_step(u, orbit_vecs)
            stepped[:-1] -= orbit_vecs[1:]
            stepped[-1] -= orbit_vecs[0]
            checks["stepping"].record(_largest(stepped), cell)
            b_state = apply_step(u, state)
            rayleigh = np.vdot(state, b_state)
            checks["maximizer"].record(_largest(b_state - rayleigh * state), cell)

            # the smaller of the projector sum A and the Gram matrix G
            matrix = _gram(alice, bob) if length < d * d else accumulate_A(orbit_vecs)
            checks["trace"].record(abs(float(np.trace(matrix).real) - length), cell)
            try:
                numeric = quantum_bound_numeric(matrix)
            except ValueError as exc:  # a NaN in the states makes A or G non-Hermitian
                checks["agree"].fail(cell, str(exc))
            else:
                checks["agree"].record(abs(numeric - analytic), cell)
            checks["gram"].record(abs(instance.gram - analytic), cell)
            closed = _closed_form(d, m)
            checks["closed"].record(abs(analytic - closed) / closed, cell)

            rho = 0 if m == 1 or d % 2 else 1
            projection = np.exp(-2j * np.pi * rho * np.arange(length) / length) @ orbit_vecs
            # no phase fitted; times the inverse norm, which a NaN state passes quietly
            residual = state - projection * (1 / np.linalg.norm(projection))
            checks["projection"].record(_largest(residual), cell)
            # the reported |psi_00|^2 and |<v_j|psi>|^2 from the dense states
            dense_probs = np.abs(orbit_vecs.conj() @ state) ** 2
            uniform = [
                _largest(probs - analytic / length)
                for probs in (dense_probs, ineq.per_term_probs)
            ]
            checks["uniform"].record(_largest(uniform), cell)

            c_value, witness = classical_bound(spec, ineq.labels)
            checks["dominance"].record(max(c_value - analytic, 0.0), cell)  # keeps a NaN
            if (c_value, witness) != (ineq.classical_bound, ineq.witness):
                checks["chained"].fail(cell, f"elimination gives C_s={c_value}, {witness}")
            summary.append(f"{cell}: Q_s={analytic:.4f} C_s={c_value}")

            if m == 2:  # the quantum win is Q_s over the 2M = 4 questions
                try:
                    stats = _two_setting_stats(ineq, instance.table.firsts)
                except ValueError as exc:  # a NaN in a grid
                    checks["information"].fail(cell, str(exc))
                    continue
                checks["information"].record(stats.spread, cell)
                checks["prediction"].record(abs(stats.prediction - analytic / 4), cell)
                # the four dense grids in the bases (I, U), and their
                # mutual information, against the circulant columns
                bases = np.stack([eye, u])
                grids = joint_distribution(state, bases[:, None], bases[None, :])
                try:
                    infos = mutual_information(grids)
                except ValueError as exc:  # a NaN or negative entry in a grid
                    checks["circulant"].fail(cell, str(exc))
                    continue
                circulant = [
                    _largest(grids - _circulant_grids(stats.columns)),
                    abs(float(infos[0, 0]) - stats.info_bits),
                ]
                checks["circulant"].record(_largest(circulant), cell)

    return VerificationReport(list(checks.values()), summary)
