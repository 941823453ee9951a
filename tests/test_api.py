"""The package's public API is what README documents, and README's
library examples run as written."""

import dataclasses
import importlib
import re
from pathlib import Path

import numpy as np
import pytest

import orbitbell
import orbitbell.linalg

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

PUBLIC = [
    "AnalysisReport",
    "BellInequality",
    "CheckResult",
    "DeterministicStrategy",
    "GameSpec",
    "InstanceTooLarge",
    "MeasLabel",
    "OrbitEntry",
    "ProblemSpec",
    "SCHEMA_VERSION",
    "VerificationReport",
    "analyze",
    "build_inequality",
    "certificate_json",
    "classical_bound",
    "game_spec",
    "orbit",
    "parse_certificate",
    "root_unitary",
    "run_verification",
]

# the dense cross-check routes, importable from orbitbell.linalg alone
DENSE = [
    "translation_matrix",
    "apply_step",
    "accumulate_A",
    "quantum_bound_numeric",
    "joint_distribution",
    "mutual_information",
]


def test_public_names_are_the_pinned_list():
    assert len(orbitbell.__all__) == len(set(orbitbell.__all__)) == 20
    assert set(orbitbell.__all__) == set(PUBLIC)


def test_linalg_names_are_the_pinned_dense_routes():
    assert orbitbell.linalg.__all__ == DENSE
    assert all(callable(getattr(orbitbell.linalg, name)) for name in DENSE)


@pytest.mark.parametrize(
    "module,name",
    [("orbitbell", name) for name in PUBLIC] + [("orbitbell.linalg", name) for name in DENSE],
    ids=PUBLIC + DENSE,
)
def test_public_name_is_importable_and_documented(module, name):
    assert getattr(importlib.import_module(module), name) is not None
    assert f"`{name}`" in README


def test_inequality_holds_its_terms_as_one_label_array():
    # BellInequality.labels, the (n, 4) int64 array, is the field;
    # BellInequality.terms, the tuple of MeasLabel pairs README documents,
    # is a view formed from it on each access, as optimal_state is formed
    # from coefficients; the array is read-only, since the report, the
    # certificate and the game share it uncopied
    fields = {f.name for f in dataclasses.fields(orbitbell.BellInequality)}
    assert {"labels", "coefficients"} <= fields
    assert not {"terms", "optimal_state"} & fields
    assert isinstance(orbitbell.BellInequality.terms, property)
    ineq = orbitbell.build_inequality(orbitbell.ProblemSpec(3, 2))
    assert ineq.labels.dtype == np.int64 and ineq.labels.shape == (12, 4)
    with pytest.raises(ValueError, match="read-only"):
        ineq.labels[0, 3] = 5
    terms = ineq.terms
    assert type(terms) is tuple and len(terms) == 12
    assert all(
        type(pair) is tuple and [type(label) for label in pair] == [orbitbell.MeasLabel] * 2
        for pair in terms
    )
    assert [[*a, *b] for a, b in terms] == ineq.labels.tolist()
    assert "`ineq.labels`" in README and "`ineq.terms` is a view formed" in README


def test_no_dense_route_is_exported_but_the_documented_one():
    # the dense routes are linalg's alone: none is bound at the top level
    assert not set(orbitbell.linalg.__all__) & set(orbitbell.__all__)
    assert not set(orbitbell.linalg.__all__) & set(vars(orbitbell))
    assert "orbitbell.linalg.quantum_bound_numeric" in README
    assert "from orbitbell.linalg import joint_distribution" in README


PYTHON_BLOCKS = re.findall(r"```python\n(.*?)```", README, flags=re.DOTALL)


def test_readme_has_python_blocks():
    assert len(PYTHON_BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(PYTHON_BLOCKS)))
def test_readme_python_block_runs_alone(index):
    exec(compile(PYTHON_BLOCKS[index], f"README.md python block {index}", "exec"), {})
