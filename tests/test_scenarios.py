"""The scenario table's shape, and that CI and the reachability pass both
take their product scenarios from it. No scenario runs here."""

from __future__ import annotations

import ast
import re
from pathlib import Path

from tests import scenarios

REPO = Path(__file__).resolve().parents[1]
CI = REPO / ".github" / "workflows" / "ci.yml"
REACHABILITY = REPO / "tests" / "reachability.py"


def ci_job(name: str) -> str:
    """The text of one job of ``ci.yml``: from ``  name:`` to the next job."""
    match = re.search(rf"^  {name}:\n(.*?)(?=^  \S|\Z)", CI.read_text(), re.M | re.S)
    assert match, f"no {name} job in {CI}"
    return match.group(1)


def flow_list(text: str, key: str) -> list[str]:
    """The items of a one-level YAML flow list ``key: [a, b, ...]``."""
    match = re.search(rf"^\s*{key}:\s*\[(.*?)\]", text, re.M | re.S)
    assert match, f"no {key}: [...] list"
    return [item.strip().strip("'\"") for item in match.group(1).split(",") if item.strip()]


class TestTable:
    def test_labels_are_unique(self):
        labels = [s.label for steps in scenarios.SCENARIOS.values() for s in steps]
        assert len(labels) == len(set(labels)), sorted(
            label for label in set(labels) if labels.count(label) > 1)

    def test_no_group_is_empty(self):
        assert scenarios.GROUPS
        for group, steps in scenarios.SCENARIOS.items():
            assert steps, group

    def test_every_step_runs_or_checks_something(self):
        for steps in scenarios.SCENARIOS.values():
            for step in steps:
                assert step.argv or step.check, step.label
                assert step.drive is None or step.argv, step.label


class TestCI:
    def test_scenarios_matrix_lists_exactly_the_groups(self):
        job = ci_job("scenarios")
        groups = flow_list(job, "group")
        assert len(groups) == len(set(groups)), groups
        assert set(groups) == set(scenarios.GROUPS)
        assert "python tests/scenarios.py --group ${{ matrix.group }}" in job

    def test_tier1_groups_keep_python_311(self):
        """The smokes that ran inside the 3.11/3.12 tier-1 matrix still run
        on both versions."""
        job = ci_job("scenarios")
        assert flow_list(job, "python-version") == ["3.12"]
        extra = re.findall(r"-\s*\{\s*group:\s*(\w+),\s*python-version:\s*\"3\.11\"\s*\}", job)
        assert sorted(extra) == ["balancers", "ledger", "obs"]

    def test_two_jobs_no_heredocs(self):
        text = CI.read_text()
        jobs = re.findall(r"^  (\S+):\s*$", text.split("\njobs:\n", 1)[1], re.M)
        assert jobs == ["tier1", "scenarios"]
        assert "<<" not in text
        assert not re.search(r"python3? -c\b", text)


class TestReachability:
    def test_product_pass_comes_from_the_table(self):
        tree = ast.parse(REACHABILITY.read_text())
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names}
        assert "scenarios" in imported
        attributes = {node.attr for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name) and node.value.id == "scenarios"}
        assert "GROUPS" in attributes

    def test_no_argv_list_of_its_own(self):
        steps = [s for group in scenarios.SCENARIOS.values() for s in group]
        flags = {token for s in steps for token in s.argv if token.startswith("--")}
        labels = {s.label for s in steps}
        tree = ast.parse(REACHABILITY.read_text())
        strings = {node.value for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and isinstance(node.value, str)}
        assert not strings & flags, sorted(strings & flags)
        assert not strings & labels, sorted(strings & labels)
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert not names & {"PRODUCT", "FAULT_PLAN"}, names & {"PRODUCT", "FAULT_PLAN"}
