"""The CI definition itself: a workflow file that does not parse runs no
gate at all, and nothing else notices."""

import ast
import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOWS = sorted((Path(__file__).resolve().parent.parent
                    / ".github" / "workflows").glob("*.y*ml"))


def test_workflows_exist():
    assert WORKFLOWS


@pytest.mark.parametrize("path", WORKFLOWS, ids=lambda path: path.name)
def test_workflow_parses_into_jobs_of_steps(path):
    doc = yaml.safe_load(path.read_text())
    assert doc["jobs"]
    for job in doc["jobs"].values():
        assert job["steps"]
        for step in job["steps"]:
            assert "run" in step or "uses" in step, step


@pytest.mark.parametrize("path", WORKFLOWS, ids=lambda path: path.name)
def test_inline_scripts_import_only_what_perf_trajectory_defines(path):
    """Steps run ``from perf_trajectory import …`` in heredocs nothing
    else parses: deleting a helper there (the uncalibrated scaling-cliff
    gate went in PR 16) must not leave a step importing it."""
    source = (path.parent.parent.parent / "benchmarks"
              / "perf_trajectory.py").read_text()
    defined = {node.name for node in ast.parse(source).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    doc = yaml.safe_load(path.read_text())
    for job in doc["jobs"].values():
        for step in job["steps"]:
            for names in re.findall(r"from perf_trajectory import ([\w, ]+)",
                                    step.get("run", "")):
                assert set(names.replace(",", " ").split()) <= defined, step
