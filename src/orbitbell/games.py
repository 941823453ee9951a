"""Nonlocal game and correlation statistics induced by the orbit.

B^(2M) = T x T shifts both outcomes by one, so the game's 2M question
slots are the cosets of <T x T> along the orbit: slot q holds terms
q, q + 2M, ... (M equal-settings questions, M-1 stepped ones, one
wrap-around). The referee draws a slot uniformly and the players win
when their outcome pair sits in that slot's winning set.
Winning probabilities, the full joint outcome distributions of the
optimal state, the mutual information they carry, and Alice's
prediction probability for Bob's outcome all follow from the
inequality data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .bounds import BellInequality, _check_size, _inequality
from .orbit import MeasLabel, ProblemSpec, _root_table

__all__ = [
    "GameSpec",
    "AnalysisReport",
    "game_spec",
    "winning_probabilities",
    "joint_distribution",
    "mutual_information",
    "prediction_probability",
    "analyze",
]


@dataclass(frozen=True)
class GameSpec:
    """Questions (setting pairs) and their winning outcome sets, aligned
    by position: slot q is the coset of orbit terms q, q + 2M, ... With
    a single setting per party the two question slots share the label
    (0, 0) but keep disjoint winning sets."""

    questions: tuple[tuple[int, int], ...]
    winning: tuple[frozenset[tuple[int, int]], ...]


@dataclass(frozen=True)
class AnalysisReport:
    """Bundled results for one instance.

    ``prediction_prob``, ``mutual_info_bits``, ``mutual_info_spread``
    and ``joint_grids`` (the optimal state's outcome distribution per
    setting pair (s, t)) are only defined for two settings per party
    and are None otherwise; :func:`joint_distribution` gives any grid
    directly.
    """

    spec: ProblemSpec
    inequality: BellInequality
    game: GameSpec
    quantum_win: float
    classical_win: float
    prediction_prob: float | None
    mutual_info_bits: float | None
    mutual_info_spread: float | None
    joint_grids: dict[tuple[int, int], np.ndarray] | None

    @property
    def quantum_bound(self) -> float:
        return self.inequality.quantum_bound

    @property
    def classical_bound(self) -> int:
        return self.inequality.classical_bound


def game_spec(terms: Sequence[tuple[MeasLabel, MeasLabel]]) -> GameSpec:
    """The 2M question slots of the orbit terms (alice, bob label pairs
    in orbit order, as in ``BellInequality.terms``).

    B^(2M) = T x T shifts both outcomes by one, so slot q is the coset
    of terms q, q + 2M, ...: its question is the setting pair of term q
    and its winning set the outcome pairs of the coset. 2M is read off
    the last term, a wrap-around one, with Bob at his last setting M-1.
    """
    period = 2 * (terms[-1][1].setting + 1) if terms else 0
    questions = tuple((alice.setting, bob.setting) for alice, bob in terms[:period])
    winning = tuple(
        frozenset((alice.outcome, bob.outcome) for alice, bob in terms[q::period])
        for q in range(period)
    )
    return GameSpec(questions, winning)


def winning_probabilities(ineq: BellInequality, game: GameSpec) -> tuple[float, float]:
    """(quantum, classical) winning probability under uniform questions."""
    n = len(game.questions)
    return ineq.quantum_bound / n, ineq.classical_bound / n


def joint_distribution(
    state: np.ndarray, alice_basis: np.ndarray, bob_basis: np.ndarray
) -> np.ndarray:
    """d x d outcome distribution of ``state`` measured in one basis per
    party (columns are the outcomes; see :func:`measurement_bases`)."""
    d = alice_basis.shape[0]
    amplitudes = alice_basis.conj().T @ state.reshape(d, d) @ bob_basis.conj()
    return np.abs(amplitudes) ** 2


def mutual_information(joint: np.ndarray) -> float:
    """Mutual information, in bits, of a joint outcome distribution.

    Zero probabilities contribute zero. Entries below -1e-12, and NaN
    entries, are rejected; tiny negative roundoff is clipped.
    """
    p = np.asarray(joint, dtype=float)
    low = float(p.min())
    if not low >= -1e-12:
        raise ValueError(f"negative probability entry {low:.3e} in joint grid")
    p = np.clip(p, 0.0, None)
    pa = p.sum(axis=1)
    pb = p.sum(axis=0)
    denom = np.outer(pa, pb)
    mask = p > 0.0
    return float(np.sum(p[mask] * np.log2(p[mask] / denom[mask])))


def prediction_probability(ineq: BellInequality) -> float:
    """How well Alice predicts Bob's outcome with the two-setting rule.

    The terms q, q + 4, ... of slot q differ by powers of T x T, which
    shift both outcomes alike, so at the slot's setting pair Alice
    predicts Bob's outcome as a - delta mod d, with delta her outcome
    minus Bob's on the slot's first term. The value is the probability
    that the prediction comes true, averaged uniformly over the four
    setting pairs, with outcomes drawn from the optimal state. Raises
    ValueError for any other number of settings.
    """
    spec = ineq.spec
    if spec.settings != 2:
        raise ValueError(
            "the prediction rule needs exactly 2 settings per party, "
            f"got {spec.settings}"
        )
    return _two_setting_stats(ineq, _root_table(spec).bases).prediction


class _TwoSettingStats(NamedTuple):
    """The last four fields of :class:`AnalysisReport`, in its order."""

    prediction: float  # p, see prediction_probability
    info_bits: float  # mutual information of grid (0, 0)
    spread: float  # max minus min mutual information over the grids
    grids: dict[tuple[int, int], np.ndarray]  # joint grid per setting pair (s, t)


def _two_setting_stats(ineq: BellInequality, bases: np.ndarray) -> _TwoSettingStats:
    """The M = 2 statistics of the optimal state, from the root table's
    bases; ``analyze`` reports them and ``verify`` checks them. The
    assembly has checked the terms against the chained-Bell families."""
    grids = {
        (s, t): joint_distribution(ineq.optimal_state, bases[s], bases[t])
        for s in range(2)
        for t in range(2)
    }
    infos = {q: mutual_information(g) for q, g in grids.items()}

    # the four slots' first terms in the grids' (s, t) order, the order the sum adds in
    firsts = sorted(ineq.terms[:4], key=lambda pair: (pair[0].setting, pair[1].setting))
    d, total = ineq.spec.outcomes, 0.0
    for alice, bob in firsts:
        grid, delta = grids[alice.setting, bob.setting], alice.outcome - bob.outcome
        for a in range(d):
            total += float(grid[a, (a - delta) % d])
    spread = max(infos.values()) - min(infos.values())
    return _TwoSettingStats(total / 4.0, infos[(0, 0)], spread, grids)


def analyze(spec: ProblemSpec) -> AnalysisReport:
    """Run the whole pipeline for one instance, from one root table: the
    inequality's, whose bases also give the M = 2 statistics.

    Raises InstanceTooLarge first for exactly the instances ``verify``'s
    size rule refuses (see :func:`~orbitbell.bounds.build_inequality`);
    no enumeration runs, so STRATEGY_GUARD does not apply."""
    _check_size(spec.outcomes, spec.settings)
    ineq, table, *_ = _inequality(spec)
    game = game_spec(ineq.terms)
    quantum_win, classical_win = winning_probabilities(ineq, game)
    stats = _two_setting_stats(ineq, table.bases) if spec.settings == 2 else (None,) * 4
    return AnalysisReport(spec, ineq, game, quantum_win, classical_win, *stats)
