"""The benchmark's tracer against the program it traces.

perfbench/tracer.py wraps groverid functions by name and reads counts
from their arguments and results.  Renaming a traced function, changing
what it returns, or taking it off the CLI path would break the
benchmark run; this test breaks first.  It runs in a subprocess because
installing the tracer patches the groverid modules for good.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import contextlib, io, json, sys
import groverid.cli as cli
from tracer import TARGETS, Tracer

tracer = Tracer()
tracer.install()
codes = []
for argv in (
    ["build", "--n", "7"],
    ["verify", "--scheme", sys.argv[1]],
    ["verify", "--scheme", "n6-entangled"],
    ["search", "--n", "5", "--mode", "entangled"],
    ["search", "--n", "4", "--mode", "product"],
    ["identify", "--n", "5", "--hidden", "3", "--scheme", "n5-product"],
    ["identify", "--n", "6", "--hidden", "2", "--scheme", "n6-entangled"],
):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        codes.append(cli.main(argv))
    if argv[0] == "build":
        with open(sys.argv[1], "w") as fh:
            fh.write(out.getvalue())
totals = tracer.rollup()
print(json.dumps({
    "codes": codes,
    "calls": {f"{m}.{q}": totals[f"{m}.{q}.calls"] for m, q, _ in TARGETS},
    "counts": dict(tracer.counts),
}))
"""


def test_tracer_sees_every_traced_function(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "scheme.json")],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * 7
    assert {name for name, calls in result["calls"].items() if not calls} == set()
    assert result["counts"] and all(value > 0 for value in result["counts"].values())
