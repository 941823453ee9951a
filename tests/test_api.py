"""The package's public API is what README documents, and README's
library examples run as written."""

import importlib
import re
from pathlib import Path

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
    "joint_distribution",
    "mutual_information",
    "orbit",
    "parse_certificate",
    "prediction_probability",
    "quantum_bound_analytic",
    "quantum_bound_numeric",
    "root_unitary",
    "run_verification",
    "winning_probabilities",
]


def test_public_names_are_the_pinned_list():
    assert len(orbitbell.__all__) == len(set(orbitbell.__all__)) == 26
    assert set(orbitbell.__all__) == set(PUBLIC)


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_is_importable_and_documented(name):
    assert getattr(importlib.import_module("orbitbell"), name) is not None
    assert f"`{name}`" in README


def test_no_dense_route_is_exported_but_the_documented_one():
    exported = set(orbitbell.linalg.__all__) & set(orbitbell.__all__)
    assert exported <= {"quantum_bound_numeric"}
    if exported:
        assert "orbitbell.linalg.quantum_bound_numeric" in README


PYTHON_BLOCKS = re.findall(r"```python\n(.*?)```", README, flags=re.DOTALL)


def test_readme_has_python_blocks():
    assert len(PYTHON_BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(PYTHON_BLOCKS)))
def test_readme_python_block_runs_alone(index):
    exec(compile(PYTHON_BLOCKS[index], f"README.md python block {index}", "exec"), {})
