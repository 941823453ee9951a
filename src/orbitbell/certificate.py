"""JSON certificate for an analyzed instance.

The certificate is a plain dict of JSON-safe values. Complex
amplitudes are {"re": ..., "im": ...} pairs in flat-index order
(index = alice_level * outcomes + bob_level). The document is written
with sorted keys and two-space indentation, byte for byte what
``json.dumps(certificate, indent=2, sort_keys=True)`` gives, so repeated
runs emit byte-identical documents. It is written directly: one fixed
positional ``%``-template per row kind (term, amplitude, probability,
question, winning pair) and one for the outer document, with keys in
sorted order and numbers spelled by ``repr`` (the spelling ``json``
uses for ints and finite floats). The rows' floats repeat (every
per-term probability is the same value, and the state's amplitudes
take few distinct values), so each distinct one is spelled once and
the spelling reused, looked up by its bit pattern, which keeps 0.0
and -0.0 apart although they compare equal; likewise each distinct
winning set of the game's questions is rendered once. Row fields are read with
``operator.itemgetter`` and rows are formatted through ``map``; the
certificate's floats come from the report's arrays by ``tolist``.
``json.dumps`` with ``indent`` always runs the pure-Python encoder,
which cost more than the analysis it printed.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from operator import itemgetter
from typing import Any

import numpy as np

from .games import AnalysisReport

__all__ = ["SCHEMA_VERSION", "build_certificate", "certificate_json", "parse_certificate"]

SCHEMA_VERSION = "1"

_TOP_LEVEL_KEYS = frozenset(
    {
        "schema_version",
        "spec",
        "terms",
        "classical_bound",
        "quantum_bound",
        "optimal_state",
        "per_term_probs",
        "game",
        "stats",
    }
)

_TERM_KEYS = ("alice_outcome", "alice_setting", "bob_outcome", "bob_setting")

# Row fields in template order; the amplitude is read in (re, im)
# order and written in (im, re) order, its keys' sorted order.
_term_fields = itemgetter(*_TERM_KEYS)
_amplitude_fields = itemgetter("re", "im")
_winning_fields = itemgetter("alice_outcome", "bob_outcome")
_setting_fields = itemgetter("alice_setting", "bob_setting")

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
_AMPLITUDE = '    {\n      "im": %s,\n      "re": %s\n    }'
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
  "optimal_state": %s,
  "per_term_probs": %s,
  "quantum_bound": %r,
  "schema_version": "1",
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


def build_certificate(report: AnalysisReport) -> dict[str, Any]:
    ineq = report.inequality
    state = ineq.optimal_state
    return {
        "schema_version": SCHEMA_VERSION,
        "spec": {
            "outcomes": report.spec.outcomes,
            "settings": report.spec.settings,
        },
        "terms": [
            {
                "alice_setting": a.setting,
                "alice_outcome": a.outcome,
                "bob_setting": b.setting,
                "bob_outcome": b.outcome,
            }
            for a, b in ineq.terms
        ],
        "classical_bound": int(ineq.classical_bound),
        "quantum_bound": float(ineq.quantum_bound),
        "optimal_state": [
            {"re": re, "im": im}
            for re, im in zip(state.real.tolist(), state.imag.tolist())
        ],
        "per_term_probs": ineq.per_term_probs.tolist(),
        "game": {
            "questions": [
                {
                    "alice_setting": s,
                    "bob_setting": t,
                    "winning": [
                        {"alice_outcome": a, "bob_outcome": b}
                        for a, b in sorted(win)
                    ],
                }
                for (s, t), win in zip(report.game.questions, report.game.winning)
            ]
        },
        "stats": {
            "quantum_win": float(report.quantum_win),
            "classical_win": float(report.classical_win),
            "p": None
            if report.prediction_prob is None
            else float(report.prediction_prob),
            "I_ab": None
            if report.mutual_info_bits is None
            else float(report.mutual_info_bits),
        },
    }


def _array(rows: list[str], indent: str) -> str:
    """A JSON array of rendered rows, closed at ``indent``."""
    if not rows:
        return "[]"
    return "[\n" + ",\n".join(rows) + "\n" + indent + "]"


def _optional(value: float | None) -> str:
    return "null" if value is None else repr(value)


def _spellings(floats: list[float]) -> list[str]:
    """``repr`` of each of ``floats``, finite floats, with ``repr`` run
    once per distinct value. The lookup is keyed by each float's 64-bit
    pattern, so 0.0 and -0.0, equal as floats, keep their own
    spellings."""
    keys = np.array(floats, dtype=float).view(np.int64).tolist()
    distinct = dict(zip(keys, floats))
    spelled = dict(zip(distinct, map(repr, distinct.values())))
    return list(map(spelled.__getitem__, keys))


def certificate_json(certificate: dict[str, Any]) -> str:
    """Deterministic serialization: sorted keys, fixed indentation.

    Byte-identical to ``json.dumps(certificate, indent=2,
    sort_keys=True)`` for every schema-"1" certificate as
    :func:`build_certificate` makes it. Raises ValueError when the
    top-level keys or the schema version are not schema "1"'s, when a
    float slot holds anything but a finite ``float``, or when an int
    slot (spec, terms, classical bound, question settings, winning
    outcomes) holds anything but an ``int`` (``repr`` spells ``nan``,
    ``inf``, ``True`` and numpy scalars differently from ``json``). Rows
    are written from their schema keys: a missing key raises KeyError,
    any other key is not written.
    """
    if certificate.keys() != _TOP_LEVEL_KEYS:
        raise ValueError(
            "not a schema-1 certificate: top-level keys "
            f"{sorted(certificate)} != {sorted(_TOP_LEVEL_KEYS)}"
        )
    if certificate["schema_version"] != SCHEMA_VERSION:
        raise ValueError(
            f"not a schema-1 certificate: schema_version "
            f"{certificate['schema_version']!r}"
        )
    state = certificate["optimal_state"]
    probs = certificate["per_term_probs"]
    spec = certificate["spec"]
    stats = certificate["stats"]
    questions = certificate["game"]["questions"]
    rows = [*probs, *chain.from_iterable(map(_amplitude_fields, state))]
    floats = [certificate["quantum_bound"], stats["classical_win"], stats["quantum_win"]]
    floats += [stats[key] for key in ("p", "I_ab") if stats[key] is not None]
    floats += rows
    # C-level passes; the comprehension only runs to name the first bad value
    if not set(map(type, floats)) <= {float} or not all(map(math.isfinite, floats)):
        bad = [x for x in floats if type(x) is not float or not math.isfinite(x)]
        raise ValueError(f"certificate value {bad[0]!r} is not a finite float")
    terms = list(map(_term_fields, certificate["terms"]))
    ints = [certificate["classical_bound"], spec["outcomes"], spec["settings"]]
    ints += chain.from_iterable(terms)
    settings, winning = [], []
    for q in questions:
        settings.append(_setting_fields(q))
        winning.append(list(map(_winning_fields, q["winning"])))
        ints += settings[-1]
        ints += chain.from_iterable(winning[-1])
    if not set(map(type, ints)) <= {int}:
        bad = [x for x in ints if type(x) is not int]
        raise ValueError(f"certificate value {bad[0]!r} is not an int")
    spelled = _spellings(rows)
    spelled_probs, parts = spelled[: len(probs)], spelled[len(probs) :]  # parts: re, im, ...
    # the slots share few winning sets (two on the orbit): each distinct
    # one is rendered once; all plain ints by now, so equal means same spelling
    keys = list(map(tuple, winning))
    arrays = {
        key: _array(list(map(_WINNING.__mod__, key)), "        ") for key in set(keys)
    }
    rendered = [_QUESTION % (s, t, arrays[key]) for (s, t), key in zip(settings, keys)]
    return _DOCUMENT % (
        certificate["classical_bound"],
        _array(rendered, "    "),
        _array(list(map(_AMPLITUDE.__mod__, zip(parts[1::2], parts[::2]))), "  "),
        _array(list(map(_PROBABILITY.__mod__, spelled_probs)), "  "),
        certificate["quantum_bound"],
        spec["outcomes"],
        spec["settings"],
        _optional(stats["I_ab"]),
        stats["classical_win"],
        _optional(stats["p"]),
        stats["quantum_win"],
        _array(list(map(_TERM.__mod__, terms)), "  "),
    )


def parse_certificate(text: str) -> dict[str, Any]:
    """Inverse of :func:`certificate_json`; round-trips losslessly."""
    return json.loads(text)
