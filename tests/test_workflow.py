"""The CI workflow runs the same commands as ROADMAP.md's tier-1 line, then the benchmark."""

import json
import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parent.parent


def test_workflow_runs_tier1_and_selftest():
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (ROOT / "ROADMAP.md").read_text()).group(1)
    job = workflow["jobs"]["tests"]
    assert job["strategy"]["matrix"]["python-version"] == ["3.10", "3.11"]
    runs = [step["run"] for step in job["steps"] if "run" in step]
    assert runs[:3] == ['pip install -e ".[test]"', tier1, "distknn selftest --instances 200"]
    # then one short run of every benchmark workload, failing unless its oracle check passed
    workloads = " ".join(w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"])
    assert runs[3:] == [
        f"for workload in {workloads}; do\n"
        '  python3 bench/run.py --workload "$workload" --seed 1 --seconds 1'
        """ | tail -n 1 | grep -F '"correct": true' || exit 1\n"""
        "done\n"
    ]
