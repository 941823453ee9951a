"""The certificate writer against the JSON encoder it replaced.

``certificate_json`` writes the schema-"2" document of a report from
fixed templates. ``json.dumps(certificate_dict(report), indent=2,
sort_keys=True)`` is kept here as the reference, with
``certificate_dict`` the certificate as a dict (``tests/reference.py``):
every certificate must come out byte for byte the same, on every small
cell, on the benchmark cells, on analyze's edge cells with the most
rows, and with arbitrary finite floats in every float field of a real
report; and parsing it must give that dict back. A non-finite float, or
anything but a plain int in an int slot, is refused.
"""

import copy
import dataclasses
import functools
import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitbell import (
    GameSpec,
    MeasLabel,
    ProblemSpec,
    analyze,
    certificate_json,
    parse_certificate,
)
from reference import certificate_dict

# every cell with d <= 8, M <= 4
SMALL = [(d, m) for d in range(2, 9) for m in range(1, 5)]
# the cells the benchmark's workloads analyze
BENCHMARK = [
    (2, 2), (3, 2), (5, 4), (6, 4), (8, 2), (10, 2),
    (2, 12), (2, 13), (3, 8), (4, 6),
]
# the largest cells analyze admits at d = 64, 16 and 2: the most
# amplitudes, and the most terms and questions
EDGE = [(64, 2), (16, 98), (2, 835)]

# the report's float fields outside the two arrays; p and I_ab are None
# unless M = 2
SCALARS = ["quantum_bound", "quantum_win", "classical_win", "prediction_prob", "mutual_info_bits"]


def reference_json(report):
    return json.dumps(certificate_dict(report), indent=2, sort_keys=True)


@functools.cache
def real_report(d, m):
    return analyze(ProblemSpec(d, m))


def with_floats(report, quantum_bound=None, state=None, probs=None, **stats):
    """Copy of ``report`` with the given float fields replaced, ``state``
    the optimal state's coefficients; the statistics by their
    ``AnalysisReport`` names."""
    ineq = report.inequality
    changes = {}
    if quantum_bound is not None:
        changes["quantum_bound"] = quantum_bound
    if state is not None:
        changes["coefficients"] = state
    if probs is not None:
        changes["per_term_probs"] = probs
    return dataclasses.replace(
        report, inequality=dataclasses.replace(ineq, **changes), **stats
    )


@pytest.mark.parametrize("cell", sorted(set(SMALL) | set(BENCHMARK) | set(EDGE)))
def test_writer_matches_json_dumps(cell):
    report = real_report(*cell)
    text = certificate_json(report)
    assert text == reference_json(report)
    assert parse_certificate(text) == certificate_dict(report)


def refilled(report, values):
    """Copy of ``report`` with every float of its float fields, the real
    and imaginary parts of the state's coefficients included, replaced
    by the next of ``values``, in certificate order."""
    ineq = report.inequality
    state = ineq.coefficients.copy()
    probs = np.array([next(values) for _ in ineq.per_term_probs])
    state.real = [next(values) for _ in state]
    state.imag = [next(values) for _ in state]
    stats = {
        name: next(values)
        for name in SCALARS[1:]
        if getattr(report, name) is not None
    }
    return with_floats(report, next(values), state, probs, **stats)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    cell=st.sampled_from([(2, 1), (2, 2), (3, 2), (2, 3), (4, 3)]),
    floats=st.lists(
        st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40
    ),
)
@example(cell=(2, 2), floats=[-0.0, 5e-324, 1e22, 1e-7, 1e16])
@example(cell=(3, 2), floats=[1e16, 1e-7, 1e22, 5e-324, -0.0, 0.1, -1.5e300])
@example(cell=(2, 3), floats=[-0.0, 5e-324, 1e22, 1e-7, 1e16])
def test_writer_matches_json_dumps_for_any_finite_floats(cell, floats):
    report = refilled(real_report(*cell), itertools.cycle(floats))
    assert certificate_json(report) == reference_json(report)


@pytest.mark.parametrize(
    "field", [*SCALARS, "optimal_state.real", "optimal_state.imag", "per_term_probs"]
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_writer_rejects_a_non_finite_value_in_each_float_field(field, value):
    # one value among finite ones: the last coefficient part or probability
    report = real_report(3, 2)
    if field in SCALARS:
        changed = with_floats(report, **{field: value})
    elif field == "per_term_probs":
        probs = report.inequality.per_term_probs.copy()
        probs[-1] = value
        changed = with_floats(report, probs=probs)
    else:
        state = report.inequality.coefficients.copy()
        getattr(state, field.split(".")[1])[-1] = value
        changed = with_floats(report, state=state)
    expected = re.escape(f"certificate value {value!r} is not a finite float")
    with pytest.raises(ValueError, match=expected):
        certificate_json(changed)


def filled(array, value):
    """An array of ``array``'s shape holding ``value`` alone: of
    ``array``'s dtype for a built-in float, an int array for an int,
    and an object array for a numpy scalar."""
    if type(value) is float:
        return np.full(array.shape, value, dtype=array.dtype)
    kind = object if isinstance(value, np.generic) else type(value)
    return np.full(array.shape, value, dtype=kind)


def with_slot(report, slot, value):
    """Copy of ``report`` with every value of one certificate slot set
    to ``value``."""
    ineq, game = report.inequality, report.game
    if slot == "quantum_bound":
        return with_floats(report, quantum_bound=value)
    if slot == "per_term_probs":
        return with_floats(report, probs=filled(ineq.per_term_probs, value))
    if slot == "optimal_state":
        return with_floats(report, state=filled(ineq.coefficients, value))
    if slot == "stats":
        return with_floats(report, **dict.fromkeys(SCALARS[1:], value))
    if slot == "spec":
        # ProblemSpec refuses these values; set them past its checks
        spec = copy.copy(report.spec)
        object.__setattr__(spec, "outcomes", value)
        object.__setattr__(spec, "settings", value)
        return dataclasses.replace(report, spec=spec)
    if slot == "terms":
        label = MeasLabel(value, value)
        terms = ((label, label),) * len(ineq.terms)
        return dataclasses.replace(report, inequality=dataclasses.replace(ineq, terms=terms))
    if slot == "classical_bound":
        changed = dataclasses.replace(ineq, classical_bound=value)
        return dataclasses.replace(report, inequality=changed)
    assert slot == "game"
    count = len(game.questions)
    questions = ((value, value),) * count
    winning = (frozenset({(value, value)}),) * count
    return dataclasses.replace(report, game=GameSpec(questions, winning))


FLOAT_SLOTS = ["quantum_bound", "per_term_probs", "optimal_state", "stats"]
INT_SLOTS = ["spec", "terms", "classical_bound", "game"]


@pytest.mark.parametrize(
    "slot, kind, value",
    [
        (slot, float, value)
        for slot in FLOAT_SLOTS
        for value in (math.nan, math.inf, -math.inf, np.float64(0.5), 1)
    ]
    + [
        (slot, int, value)
        for slot in INT_SLOTS
        for value in (True, np.int64(1), 1.0, math.nan)
    ],
)
def test_writer_rejects_values_json_spells_differently(slot, kind, value):
    # repr gives nan, inf, True and np.float64(0.5) where json gives NaN,
    # Infinity, true and 0.5; an int in a float slot (an int array for
    # the arrays), or a float in an int slot, is not what the schema
    # holds, nor is a numpy scalar (in an object array for the arrays)
    changed = with_slot(real_report(2, 2), slot, value)
    expected = "is not a finite float" if kind is float else "is not an int"
    with pytest.raises(ValueError, match=expected):
        certificate_json(changed)


def test_writer_refuses_a_non_int_in_each_int_field():
    # one bad value among plain ints, in a term label, a question's
    # settings, a winning pair and C_s: an int subclass (bool), a numpy
    # int and a float that equals an int, where json would write true,
    # fail to encode, or write 1.0
    report = real_report(3, 2)
    ineq, game = report.inequality, report.game
    (a, b), *terms = ineq.terms
    (s, t), *questions = game.questions
    first, *winning = game.winning
    pair = min(first)  # (0, 0): no other pair of the set equals (value, 0)
    for value in (True, np.int64(1), 1.0):
        bumped = ((a._replace(outcome=value), b), *terms)
        for part, changed in (
            ("inequality", dataclasses.replace(ineq, terms=bumped)),
            ("game", GameSpec(((value, t), *questions), game.winning)),
            ("game", GameSpec(game.questions, (first - {pair} | {(value, 0)}, *winning))),
            ("inequality", dataclasses.replace(ineq, classical_bound=value)),
        ):
            expected = re.escape(f"certificate value {value!r} is not an int")
            with pytest.raises(ValueError, match=expected):
                certificate_json(dataclasses.replace(report, **{part: changed}))


def test_signed_zeros_keep_their_spellings():
    # 0.0 == -0.0 and both hash alike, but json spells them apart: a
    # writer that spells each distinct float once must not let one
    # zero's spelling stand for the other
    report = real_report(3, 2)
    state = report.inequality.coefficients.copy()
    probs = report.inequality.per_term_probs.copy()
    state[:2] = [complex(0.0, -0.0), complex(-0.0, 0.0)]
    probs[:4] = [-0.0, 0.0, 0.0, -0.0]
    changed = with_floats(report, state=state, probs=probs)
    text = certificate_json(changed)
    assert text == reference_json(changed)
    assert '"im": -0.0,\n        "re": 0.0' in text
    assert '"im": 0.0,\n        "re": -0.0' in text
    assert '"per_term_probs": [\n    -0.0,\n    0.0,\n    0.0,\n    -0.0,' in text
