"""JSON certificate for an analyzed instance.

The certificate is the report's inequality, bounds, state, game and
statistics as a JSON document, schema "2". The optimal state is
{"coefficients": [...], "rho": ...}: its d coefficients c_k as
{"re": ..., "im": ...} pairs, k = 0..d-1, and the integer rho of its
eigenvalue group, from which every amplitude follows,
psi[X, Y] = c[(X - Y) mod d] exp(-2*pi*i*rho*Y/d) at flat index
X * outcomes + Y (X Alice's level, Y Bob's); schema "1" listed all d^2
amplitudes instead. :func:`certificate_json` writes it
from the :class:`~orbitbell.games.AnalysisReport` directly, with sorted
keys and two-space indentation, byte for byte what
``json.dumps(certificate, indent=2, sort_keys=True)`` gives for the
certificate as a dict (:func:`parse_certificate` of the text), so
repeated runs emit byte-identical documents. No dict is built: one
fixed positional ``%``-template per row kind (term, coefficient,
probability, question, winning pair) and one for the outer document,
with keys in sorted order, are filled from the report's parts, each
array of rows by one ``%`` over its fields in one flat list, and
numbers are spelled by ``repr`` (the spelling ``json`` uses for ints
and finite floats). The terms' rows are the report's (n, 4) int64 label
array, its columns reordered to the keys' sorted order and read by one
``.tolist()``, and the coefficients and probabilities are read as one
float array. The rows' floats repeat (every per-term probability is
the same value), so each
distinct one is spelled once and the spelling reused, looked up by
its bit pattern, which keeps 0.0 and -0.0 apart although they compare
equal; likewise each distinct winning set of the game's questions is
rendered once, keyed by its frozenset. ``json.dumps`` with ``indent`` always runs the
pure-Python encoder, which cost more than the analysis it printed.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from typing import Any

import numpy as np

from .games import AnalysisReport

__all__ = ["SCHEMA_VERSION", "certificate_json", "parse_certificate"]

SCHEMA_VERSION = "2"

# Row and document templates, keys in sorted order, indented as
# json.dumps(indent=2) indents them at their depth.
_TERM = (
    "    {\n"
    '      "alice_outcome": %r,\n'
    '      "alice_setting": %r,\n'
    '      "bob_outcome": %r,\n'
    '      "bob_setting": %r\n'
    "    }"
)
_COEFFICIENT = '      {\n        "im": %s,\n        "re": %s\n      }'
_PROBABILITY = "    %s"
_WINNING = (
    "          {\n"
    '            "alice_outcome": %r,\n'
    '            "bob_outcome": %r\n'
    "          }"
)
_QUESTION = (
    "      {\n"
    '        "alice_setting": %r,\n'
    '        "bob_setting": %r,\n'
    '        "winning": %s\n'
    "      }"
)
_DOCUMENT = """{
  "classical_bound": %r,
  "game": {
    "questions": %s
  },
  "optimal_state": {
    "coefficients": %s,
    "rho": %r
  },
  "per_term_probs": %s,
  "quantum_bound": %r,
  "schema_version": "2",
  "spec": {
    "outcomes": %r,
    "settings": %r
  },
  "stats": {
    "I_ab": %s,
    "classical_win": %r,
    "p": %s,
    "quantum_win": %r
  },
  "terms": %s
}"""


def _array(row: str, fields: list, indent: str) -> str:
    """A JSON array of ``row`` templates, one per run of as many of the
    flat ``fields`` as ``row`` has slots, filled by one ``%`` and closed
    at ``indent``."""
    if not fields:
        return "[]"
    rows = ",\n".join([row] * (len(fields) // row.count("%")))
    return "[\n" + rows % tuple(fields) + "\n" + indent + "]"


def _optional(value: float | None) -> str:
    return "null" if value is None else repr(value)


def _spellings(values: np.ndarray) -> list[str]:
    """``repr`` of each of ``values``, a contiguous array of finite
    floats, with ``repr`` run once per distinct value. The lookup is
    keyed by each float's 64-bit pattern, so 0.0 and -0.0, equal as
    floats, keep their own spellings."""
    keys = values.view(np.int64).tolist()
    distinct = dict(zip(keys, values.tolist()))
    spelled = dict(zip(distinct, map(repr, distinct.values())))
    return list(map(spelled.__getitem__, keys))


def certificate_json(report: AnalysisReport) -> str:
    """The schema-"2" certificate of ``report``, sorted keys, fixed
    indentation.

    Byte-identical to ``json.dumps(certificate, indent=2,
    sort_keys=True)`` of the certificate as a dict, which
    :func:`parse_certificate` gives back. Raises ValueError when a
    float slot holds anything but a finite ``float`` (the state's
    coefficients must be a complex and the per-term probabilities a
    float array, and Q_s and the four statistics, where not None,
    floats), or when an int slot (spec, C_s, rho, question settings,
    winning outcomes) holds anything but an ``int``, or the label array
    is not of an integer dtype (whose ``.tolist()`` gives ints): ``repr``
    spells ``nan``, ``inf``, ``True`` and numpy scalars differently from
    ``json``.
    """
    ineq, spec, game = report.inequality, report.spec, report.game
    coefficients, probs, labels = ineq.coefficients, ineq.per_term_probs, ineq.labels
    if coefficients.dtype != complex or probs.dtype != float:
        bad = coefficients if coefficients.dtype != complex else probs
        raise ValueError(f"certificate array of dtype {bad.dtype} is not a finite float array")
    if labels.dtype.kind not in "iu":
        raise ValueError(f"certificate label array of dtype {labels.dtype} is not an int array")
    scalars = [ineq.quantum_bound, report.classical_win, report.quantum_win]
    scalars += [x for x in (report.prediction_prob, report.mutual_info_bits) if x is not None]
    values = np.concatenate((probs, coefficients.ravel().view(float)))  # probs, then re, im, ...
    # C-level passes; the comprehension only runs to name the first bad value
    if not (
        set(map(type, scalars)) <= {float}
        and all(map(math.isfinite, scalars))
        and np.isfinite(values).all()
    ):
        floats = scalars + values.tolist()
        bad = [x for x in floats if type(x) is not float or not math.isfinite(x)]
        raise ValueError(f"certificate value {bad[0]!r} is not a finite float")
    ints = [
        ineq.classical_bound,
        ineq.rho,
        spec.outcomes,
        spec.settings,
        *chain.from_iterable(game.questions),
        *chain.from_iterable(chain.from_iterable(game.winning)),
    ]
    if not set(map(type, ints)) <= {int}:
        bad = [x for x in ints if type(x) is not int]
        raise ValueError(f"certificate value {bad[0]!r} is not an int")
    spelled = _spellings(values)
    n = len(probs)
    # coefficients are read (re, im) and written (im, re), their keys' sorted order
    parts = spelled[n:]
    parts[::2], parts[1::2] = spelled[n + 1 :: 2], spelled[n::2]
    # the slots share few winning sets (two on the orbit): each distinct
    # one is rendered once; all plain ints by now, so equal means same spelling
    arrays = {
        win: _array(_WINNING, list(chain.from_iterable(sorted(win))), "        ")
        for win in set(game.winning)
    }
    questions = [
        field
        for (s, t), win in zip(game.questions, game.winning)
        for field in (s, t, arrays[win])
    ]
    return _DOCUMENT % (
        ineq.classical_bound,
        _array(_QUESTION, questions, "    "),
        _array(_COEFFICIENT, parts, "    "),
        ineq.rho,
        _array(_PROBABILITY, spelled[:n], "  "),
        ineq.quantum_bound,
        spec.outcomes,
        spec.settings,
        _optional(report.mutual_info_bits),
        report.classical_win,
        _optional(report.prediction_prob),
        report.quantum_win,
        # terms are held (alice setting, outcome, bob setting, outcome)
        # and written (alice outcome, setting, bob outcome, setting)
        _array(_TERM, labels[:, (1, 0, 3, 2)].ravel().tolist(), "  "),
    )


def parse_certificate(text: str) -> dict[str, Any]:
    """Inverse of :func:`certificate_json`; round-trips losslessly."""
    return json.loads(text)
