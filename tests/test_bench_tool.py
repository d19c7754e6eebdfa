"""The committed BENCH_<question>.json files against tools/bench.py.

Each file must be the tool's output for its question: the command that
made it, one row per case of the question's table in table order, and
sides that gave the same answers.  A case added to or dropped from a
table, or a file left from an older tool, fails here until the file is
regenerated.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import bench  # noqa: E402


@pytest.mark.parametrize("question", sorted(bench.QUESTIONS))
def test_committed_file_is_the_tools_output(question):
    committed = json.loads((ROOT / f"BENCH_{question}.json").read_text())
    assert committed["command"] == f"python3 tools/bench.py {question} BASELINE_SRC"
    rows = committed["rows"]
    cases = bench.QUESTIONS[question]()
    assert [(row["case"], row.get("n")) for row in rows] == [
        (case.fields["case"], case.fields.get("n")) for case in cases
    ]
    for row in rows:
        for key in ("answer", "exit", "stdout_sha256"):
            assert row["baseline"].get(key) == row["change"].get(key), (row["case"], key)
        assert any(key in row["change"] for key in ("answer", "exit")), row["case"]
