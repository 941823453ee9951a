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

from .bounds import BellInequality, _inequality
from .orbit import MeasLabel, ProblemSpec, _check_size, _root_table

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
    Raises ValueError unless there are a positive multiple of 2M terms,
    as on every orbit, so that each slot has a question and a winning
    set.
    """
    period = 2 * (terms[-1][1].setting + 1) if terms else 0
    if not period or len(terms) % period:
        raise ValueError(
            f"expected a positive multiple of 2M terms, got {len(terms)}"
            + (f", with 2M = {period} read off the last term" if terms else "")
        )
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
    party (columns are the outcomes; setting s measures in the columns
    of U^s, with U = :func:`~orbitbell.orbit.root_unitary`).

    The bases broadcast over their leading axes, so stacks of bases
    give the stack of grids in one product: with ``bases`` the stack
    (I, U), ``bases[:, None]`` against ``bases[None, :]`` gives the
    four grids, indexed [s, t]."""
    d = alice_basis.shape[-1]
    alice = alice_basis.conj().swapaxes(-1, -2)
    amplitudes = alice @ state.reshape(d, d) @ bob_basis.conj()
    return np.abs(amplitudes) ** 2


def mutual_information(joint: np.ndarray) -> float | np.ndarray:
    """Mutual information, in bits, of a joint outcome distribution.

    Reduces over the last two axes: a float for one d x d grid, an
    array of values for a stack of grids. Zero probabilities contribute
    zero. Entries below -1e-12, and NaN entries, in any grid are
    rejected; tiny negative roundoff is clipped.
    """
    p = np.asarray(joint, dtype=float)
    low = float(p.min())
    if not low >= -1e-12:
        raise ValueError(f"negative probability entry {low:.3e} in joint grid")
    p = np.clip(p, 0.0, None)
    denom = p.sum(axis=-1)[..., :, None] * p.sum(axis=-2)[..., None, :]
    mask = p > 0.0
    # a zero entry's ratio is 1/1, so its term is 0 * log2(1) = 0
    ratio = np.where(mask, p, 1.0) / np.where(mask, denom, 1.0)
    info = np.sum(p * np.log2(ratio), axis=(-2, -1))
    return float(info) if info.ndim == 0 else info


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
    return _two_setting_stats(ineq, _root_table(spec).u).prediction


class _TwoSettingStats(NamedTuple):
    """The last four fields of :class:`AnalysisReport`, in its order."""

    prediction: float  # p, see prediction_probability
    info_bits: float  # mutual information of grid (0, 0)
    spread: float  # max minus min mutual information over the grids
    grids: dict[tuple[int, int], np.ndarray]  # joint grid per setting pair (s, t)


def _two_setting_stats(ineq: BellInequality, u: np.ndarray) -> _TwoSettingStats:
    """The M = 2 statistics of the optimal state, from the root unitary
    U of the root table; ``analyze`` reports them and ``verify`` checks
    them. The assembly has checked the terms against the chained-Bell
    families.

    Setting s measures in the columns of U^s, so the bases are the
    stack (I, U). The four grids come from one broadcast product,
    stacked [s, t], and their mutual information from one stacked
    reduction. p gathers each grid's predicted entries,
    grid[a, (a - delta) mod d], in (s, t) order and then a order, and
    sums them left to right."""
    bases = np.stack([np.eye(len(u), dtype=complex), u])
    stack = joint_distribution(ineq.optimal_state, bases[:, None], bases[None, :])
    infos = mutual_information(stack)

    # the four slots' first terms in the grids' (s, t) order, the order the sum adds in
    firsts = sorted(ineq.terms[:4], key=lambda pair: (pair[0].setting, pair[1].setting))
    s, t, delta = np.array(
        [(a.setting, b.setting, a.outcome - b.outcome) for a, b in firsts]
    ).T[:, :, None]
    d = ineq.spec.outcomes
    rows = np.arange(d)
    total = sum(stack[s, t, rows, (rows - delta) % d].ravel().tolist())
    grids = {(i, j): stack[i, j] for i in range(2) for j in range(2)}
    spread = float(infos.max() - infos.min())
    return _TwoSettingStats(total / 4.0, float(infos[0, 0]), spread, grids)


def analyze(spec: ProblemSpec) -> AnalysisReport:
    """Run the whole pipeline for one instance, from one root table: the
    inequality's, whose U also gives the M = 2 statistics.

    Raises InstanceTooLarge first for exactly the instances ``verify``'s
    size rule refuses (see :func:`~orbitbell.bounds.build_inequality`)."""
    _check_size(spec.outcomes, spec.settings)
    ineq, table, *_ = _inequality(spec)
    game = game_spec(ineq.terms)
    quantum_win, classical_win = winning_probabilities(ineq, game)
    stats = _two_setting_stats(ineq, table.u) if spec.settings == 2 else (None,) * 4
    return AnalysisReport(spec, ineq, game, quantum_win, classical_win, *stats)
