"""The certificate writer against the JSON encoder it replaced.

``certificate_json`` writes the schema-"1" document from fixed
templates. ``json.dumps(cert, indent=2, sort_keys=True)`` is kept here
as the reference: every certificate must come out byte for byte the
same, on every small cell, on the benchmark cells, on analyze's edge
cells with the most rows, and with arbitrary finite floats in every
float slot of a real certificate. A row missing one of its schema keys
raises KeyError, and a key outside the schema is not written.
"""

import copy
import functools
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitbell import ProblemSpec, analyze, build_certificate, certificate_json

# every cell with d <= 8, M <= 4; 8^8 is inside the d^(2M) <= 1e8 guard
SMALL = [(d, m) for d in range(2, 9) for m in range(1, 5)]
# the cells the benchmark's workloads analyze
BENCHMARK = [
    (2, 2), (3, 2), (5, 4), (6, 4), (8, 2), (10, 2),
    (2, 12), (2, 13), (3, 8), (4, 6),
]
# the largest cells analyze admits at d = 64, 16 and 2: the most
# amplitudes, and the most terms and questions
EDGE = [(64, 2), (16, 98), (2, 835)]

# each row kind's schema keys, and where its first row sits
ROWS = {
    "term": (
        ("alice_outcome", "alice_setting", "bob_outcome", "bob_setting"),
        lambda cert: cert["terms"][0],
    ),
    "amplitude": (("im", "re"), lambda cert: cert["optimal_state"][0]),
    "question": (
        ("alice_setting", "bob_setting", "winning"),
        lambda cert: cert["game"]["questions"][0],
    ),
    "winning": (
        ("alice_outcome", "bob_outcome"),
        lambda cert: cert["game"]["questions"][0]["winning"][0],
    ),
}


def reference_json(cert):
    return json.dumps(cert, indent=2, sort_keys=True)


@functools.cache
def real_certificate(d, m):
    return build_certificate(analyze(ProblemSpec(d, m)))


@pytest.mark.parametrize("cell", sorted(set(SMALL) | set(BENCHMARK) | set(EDGE)))
def test_writer_matches_json_dumps(cell):
    cert = real_certificate(*cell)
    assert certificate_json(cert) == reference_json(cert)


@pytest.mark.parametrize(
    "row, key", [(row, key) for row, (keys, _) in ROWS.items() for key in keys]
)
def test_writer_raises_key_error_for_a_row_missing_a_key(row, key):
    cert = copy.deepcopy(real_certificate(2, 2))
    del ROWS[row][1](cert)[key]
    with pytest.raises(KeyError, match=key):
        certificate_json(cert)


@pytest.mark.parametrize("row", ROWS)
def test_writer_leaves_out_an_extra_key_in_a_row(row):
    cert = copy.deepcopy(real_certificate(2, 2))
    ROWS[row][1](cert)["extra"] = 1
    assert certificate_json(cert) == certificate_json(real_certificate(2, 2))


def refill(node, kind, values):
    """Copy of ``node`` with every leaf of type ``kind`` replaced by the
    next of ``values``."""
    if isinstance(node, dict):
        return {key: refill(value, kind, values) for key, value in node.items()}
    if isinstance(node, list):
        return [refill(value, kind, values) for value in node]
    if type(node) is kind:
        return next(values)
    return node


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
    cert = refill(real_certificate(*cell), float, itertools.cycle(floats))
    assert certificate_json(cert) == reference_json(cert)


def without(cert, key):
    return {k: v for k, v in cert.items() if k != key}


@pytest.mark.parametrize(
    "change",
    [
        lambda cert: without(cert, "stats"),
        lambda cert: without(cert, "schema_version"),
        lambda cert: {**cert, "diagnostics": {}},
        lambda cert: {**cert, "schema_version": "2"},
    ],
    ids=["missing-key", "missing-version", "extra-key", "other-version"],
)
def test_writer_rejects_documents_outside_schema_1(change):
    with pytest.raises(ValueError, match="not a schema-1 certificate"):
        certificate_json(change(real_certificate(2, 2)))


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
    # Infinity, true and 0.5; an int in a float slot, or a float in an
    # int slot, is not what the schema holds
    cert = real_certificate(2, 2)
    changed = refill(cert[slot], kind, itertools.repeat(value))
    expected = "is not a finite float" if kind is float else "is not an int"
    with pytest.raises(ValueError, match=expected):
        certificate_json({**cert, slot: changed})


def test_signed_zeros_keep_their_spellings():
    # 0.0 == -0.0 and both hash alike, but json spells them apart: a
    # writer that spells each distinct float once must not let one
    # zero's spelling stand for the other
    cert = copy.deepcopy(real_certificate(3, 2))
    state, probs = cert["optimal_state"], cert["per_term_probs"]
    state[0] = {"re": 0.0, "im": -0.0}
    state[1] = {"re": -0.0, "im": 0.0}
    probs[:4] = [-0.0, 0.0, 0.0, -0.0]
    text = certificate_json(cert)
    assert text == reference_json(cert)
    assert '"im": -0.0,\n      "re": 0.0' in text
    assert '"im": 0.0,\n      "re": -0.0' in text
    assert '"per_term_probs": [\n    -0.0,\n    0.0,\n    0.0,\n    -0.0,' in text
