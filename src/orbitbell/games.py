"""Nonlocal game and correlation statistics induced by the orbit.

B^(2M) = T x T shifts both outcomes by one, so the game's 2M question
slots are the cosets of <T x T> along the orbit: slot q holds terms
q, q + 2M, ... (M equal-settings questions, M-1 stepped ones, one
wrap-around), read off the orbit's (n, 4) label array by striding
its columns. The referee draws a slot uniformly and the players win
when their outcome pair sits in that slot's winning set.
Winning probabilities, the full joint outcome distributions of the
optimal state, the mutual information they carry, and Alice's
prediction probability for Bob's outcome all follow from the
inequality data.

At M = 2 the joint grids are circulant. Setting s measures in the
columns of U^s, and column x of the circulant U^s is u_s rolled by x,
with u_s = U^s|0> the root table's first column. The state
psi[X, Y] = c[(X - Y) mod d] exp(-2*pi*i*rho*Y/d) is an eigenvector of
B^(2M) = T x T, so shifting both outcomes by one only multiplies an
amplitude by exp(-2*pi*i*rho/d), and P(a_s = x, b_t = y) is
delta_st[(x - y) mod d], with delta_st[x] = P(a_s = x, b_t = 0) the
grid's column y = 0. Each grid is that one d-vector, and d delta_st is
the distribution of a_s - b_t mod d. The column's amplitudes
A(x, 0) = sum_XY conj(u_s[X - x]) conj(u_t[Y]) psi[X, Y] are a circular
convolution of c with conj(u_t) exp(-2*pi*i*rho*Y/d), then a circular
correlation with u_s: one ``np.fft`` product over the four setting
pairs, with no d x d array. The marginals are uniform, so the mutual
information is log2 d - H(d delta_st), and Alice's prediction, one
offset per slot, hits with probability d delta_st[offset].
:func:`joint_distribution` and :func:`mutual_information` are the
dense forms, over whole d x d grids; ``verify`` checks the circulant
statistics against them.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import BellInequality, _inequality
from .orbit import MeasLabel, ProblemSpec, _as_labels, _check_size, _root_table

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
    and ``grid_columns`` are only defined for two settings per party
    and are None otherwise. ``grid_columns[s, t]`` is column 0 of the
    optimal state's circulant outcome grid at setting pair (s, t),
    P(a_s = x, b_t = 0) for x = 0..d-1, which fixes the whole grid;
    :attr:`joint_grids` forms the four d x d grids from it on each
    access, and :func:`joint_distribution` gives any grid directly.
    """

    spec: ProblemSpec
    inequality: BellInequality
    game: GameSpec
    quantum_win: float
    classical_win: float
    prediction_prob: float | None
    mutual_info_bits: float | None
    mutual_info_spread: float | None
    grid_columns: np.ndarray | None  # (2, 2, d)

    @property
    def joint_grids(self) -> dict[tuple[int, int], np.ndarray] | None:
        """The optimal state's d x d outcome grid per setting pair (s, t),
        grid[x, y] = grid_columns[s, t, (x - y) mod d], or None unless
        M = 2."""
        if self.grid_columns is None:
            return None
        grids = _circulant_grids(self.grid_columns)
        return {(s, t): grids[s, t] for s in range(2) for t in range(2)}

    @property
    def quantum_bound(self) -> float:
        return self.inequality.quantum_bound

    @property
    def classical_bound(self) -> int:
        return self.inequality.classical_bound


def game_spec(terms: Iterable[tuple[MeasLabel, MeasLabel]] | np.ndarray) -> GameSpec:
    """The 2M question slots of the orbit terms (alice, bob label pairs
    in orbit order, as in ``BellInequality.terms``, or their (n, 4)
    label array, ``BellInequality.labels``; any iterable of pairs, read
    once).

    B^(2M) = T x T shifts both outcomes by one, so slot q is the coset
    of terms q, q + 2M, ...: its question is the setting pair of term q
    and its winning set the outcome pairs of the coset, every 2M-th of
    the pairs read off the labels' two outcome columns; slots with the
    same pairs in the same order share one ``frozenset``. 2M is read off
    the last term, a wrap-around one, with Bob at his last setting
    M-1. Raises ValueError for an array that is not an (n, 4) int64
    one and a label that is not an integer (see ``orbit._as_labels``),
    and unless 2M is positive and there are a positive multiple of 2M
    terms, as on every orbit, so that each slot has a question and a
    winning set.
    """
    labels = _as_labels(terms)
    period = 2 * (int(labels[-1, 2]) + 1) if len(labels) else 0
    if period <= 0 or len(labels) % period:
        raise ValueError(
            f"expected a positive multiple of 2M terms, got {len(labels)}"
            + (f", with 2M = {period} read off the last term" if len(labels) else "")
        )
    outcomes = list(zip(*labels[:, 1::2].T.tolist()))  # (alice, bob) per term
    slots = [tuple(outcomes[q::period]) for q in range(period)]
    # the slots share few winning sets (two on the orbit): each distinct one is built once
    sets = {slot: frozenset(slot) for slot in set(slots)}
    return GameSpec(
        tuple(zip(*labels[:period, ::2].T.tolist())), tuple(map(sets.__getitem__, slots))
    )


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
    return _two_setting_stats(ineq, _root_table(spec).firsts).prediction


class _TwoSettingStats(NamedTuple):
    """The last four fields of :class:`AnalysisReport`, in its order."""

    prediction: float  # p, see prediction_probability
    info_bits: float  # mutual information of grid (0, 0)
    spread: float  # max minus min mutual information over the grids
    columns: np.ndarray  # (2, 2, d): column 0 of the joint grid of (s, t)


def _two_setting_stats(ineq: BellInequality, firsts: np.ndarray) -> _TwoSettingStats:
    """The M = 2 statistics of the optimal state, from its coefficients
    and rho and the root table's first columns ``firsts`` (rows u_0 and
    u_1 are read); ``analyze`` reports them and ``verify`` checks them.
    The assembly has checked the terms against the chained-Bell
    families; the four slots' first terms are the first four rows of
    its label array.

    Each grid is its column delta_st (:func:`_grid_columns`), and
    I_ab = log2 d - H(d delta_00), the spread the same over the four.
    p is d/4 times the sum, in (s, t) order, of each grid's predicted
    entry delta_st[delta mod d], with delta Alice's minus Bob's outcome
    on the slot's first term. Raises ValueError for a NaN probability."""
    d = ineq.spec.outcomes
    columns = _grid_columns(ineq, firsts)
    if np.isnan(columns).any():
        raise ValueError("NaN outcome probability in an M = 2 joint grid")
    offsets = d * columns  # the distributions of a_s - b_t mod d
    # a zero probability's term is 0 * log2(1) = 0
    infos = np.log2(d) + np.sum(offsets * np.log2(np.where(offsets > 0, offsets, 1.0)), axis=-1)

    # the four slots' first terms in the grids' (s, t) order, the order the sum adds in
    s, a, t, b = ineq.labels[np.lexsort(ineq.labels[:4, 2::-2].T)].T  # by (s, t)
    return _TwoSettingStats(
        d * sum(columns[s, t, (a - b) % d].tolist()) / 4.0,
        float(infos[0, 0]),
        float(infos.max() - infos.min()),
        columns,
    )


def _grid_columns(ineq: BellInequality, firsts: np.ndarray) -> np.ndarray:
    """The (2, 2, d) columns delta_st[x] = P(a_s = x, b_t = 0) of the
    optimal state's four M = 2 grids, stacked [s, t], from its
    coefficients and rho and the first columns u_0, u_1 in rows 0 and
    1 of ``firsts``: the amplitudes of all four from one ``np.fft``
    product (see the module docstring), with no d x d array."""
    d = ineq.spec.outcomes
    ramp = np.arange(d)
    # fft(u_s) for the correlation with Alice's basis, and fft of
    # conj(u_t) exp(-2 pi i rho Y / d) for the convolution with Bob's
    alice = np.fft.fft(firsts[:2]).conj()
    bob = np.fft.fft(firsts[:2].conj() * np.exp(-2j * np.pi * ineq.rho * ramp / d))
    amplitudes = np.fft.ifft(np.fft.fft(ineq.coefficients) * alice[:, None] * bob[None, :])
    return np.abs(amplitudes) ** 2


def _circulant_grids(columns: np.ndarray) -> np.ndarray:
    """The (..., d, d) grids of the (..., d) columns of circulant grids,
    grid[x, y] = column[(x - y) mod d]."""
    ramp = np.arange(columns.shape[-1])
    return columns[..., (ramp[:, None] - ramp) % len(ramp)]


def analyze(spec: ProblemSpec) -> AnalysisReport:
    """Run the whole pipeline for one instance, from one root table: the
    inequality's, whose first columns also give the M = 2 statistics.

    Raises InstanceTooLarge first for exactly the instances ``verify``'s
    size rule refuses (see :func:`~orbitbell.bounds.build_inequality`)."""
    _check_size(spec.outcomes, spec.settings)
    ineq, table, *_ = _inequality(spec)
    game = game_spec(ineq.labels)
    quantum_win, classical_win = winning_probabilities(ineq, game)
    stats = _two_setting_stats(ineq, table.firsts) if spec.settings == 2 else (None,) * 4
    return AnalysisReport(spec, ineq, game, quantum_win, classical_win, *stats)
