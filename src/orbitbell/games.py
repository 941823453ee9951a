"""Nonlocal game and correlation statistics induced by the orbit.

The referee draws one of the 2M orbit question slots uniformly (M
equal-settings questions, M-1 stepped ones, one wrap-around) and the
players win when their outcome pair sits in that slot's winning set.
Winning probabilities, the full joint outcome distributions of the
optimal state, the mutual information they carry, and Alice's
prediction probability for Bob's outcome all follow from the
inequality data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .bounds import BellInequality, _check_guards, _inequality
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
    by position. With a single setting per party the two question slots
    share the label (0, 0) but keep disjoint winning sets."""

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


def game_spec(
    spec: ProblemSpec, terms: Sequence[tuple[MeasLabel, MeasLabel]]
) -> GameSpec:
    """Group the orbit terms (alice, bob label pairs in orbit order, as
    in ``BellInequality.terms``) into 2M question slots, in order of
    first appearance.

    A term's slot is its setting pair and whether its outcomes match,
    at every M: only the wrap-around family's never do, so at M = 1
    it keeps its own slot beside the equal-settings one at (0, 0).
    """
    questions: list[tuple[int, int]] = []
    winning: list[set[tuple[int, int]]] = []
    slot_of: dict[tuple[int, int, bool], int] = {}
    for alice, bob in terms:
        sa, sb = alice.setting, bob.setting
        key = (sa, sb, alice.outcome == bob.outcome)
        if key not in slot_of:
            slot_of[key] = len(questions)
            questions.append((sa, sb))
            winning.append(set())
        winning[slot_of[key]].add((alice.outcome, bob.outcome))
    return GameSpec(tuple(questions), tuple(frozenset(w) for w in winning))


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

    Each orbit term tells Alice which outcome of Bob goes with her own
    (setting, outcome) pair at each of Bob's settings; with two
    settings per party the lookup is unambiguous. The value is the
    probability that the prediction comes true, averaged uniformly
    over the four setting pairs, with outcomes drawn from the optimal
    state. Raises ValueError for any other number of settings.
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
    bases; ``analyze`` reports them and ``verify`` checks them."""
    grids = {
        (s, t): joint_distribution(ineq.optimal_state, bases[s], bases[t])
        for s in range(2)
        for t in range(2)
    }
    infos = {q: mutual_information(g) for q, g in grids.items()}

    predicted: dict[tuple[int, int, int], int] = {}
    for alice, bob in ineq.terms:
        key = (alice.setting, alice.outcome, bob.setting)
        if key in predicted:
            raise RuntimeError(f"ambiguous prediction for {key}: orbit bug")
        predicted[key] = bob.outcome
    total = 0.0
    for (s, t), grid in grids.items():
        for a in range(ineq.spec.outcomes):
            total += float(grid[a, predicted[(s, a, t)]])
    spread = max(infos.values()) - min(infos.values())
    return _TwoSettingStats(total / 4.0, infos[(0, 0)], spread, grids)


def analyze(spec: ProblemSpec) -> AnalysisReport:
    """Run the whole pipeline for one instance, from one root table: the
    inequality's, whose bases also give the M = 2 statistics. Checks the
    guards first (see :func:`~orbitbell.bounds.build_inequality`)."""
    _check_guards(spec)
    ineq, table, *_ = _inequality(spec)
    game = game_spec(spec, ineq.terms)
    quantum_win, classical_win = winning_probabilities(ineq, game)
    stats = _two_setting_stats(ineq, table.bases) if spec.settings == 2 else (None,) * 4
    return AnalysisReport(spec, ineq, game, quantum_win, classical_win, *stats)
