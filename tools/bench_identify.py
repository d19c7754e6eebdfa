"""Scale rows for identifying a weight profile: a baseline checkout
against this one.

    python3 tools/bench_identify.py BASELINE_SRC > BENCH_identify.json

BASELINE_SRC is the ``src`` directory of the commit to compare against,
for example from ``git archive <commit> | tar -x -C DIR``; this
checkout's ``src`` is the change.  Each case's profile file is written
once and identified with the hidden index n/2.  For each side,
``in_process_s`` times the ``run_identification`` call alone, in a fresh
interpreter after the file is parsed, and ``cold_s`` times a whole
``python -m groverid identify --n N --hidden K --scheme FILE``
subprocess, whose stdout is recorded as a sha256 digest so the two
sides can be seen to answer alike.  Each figure is the median of three
runs, or of the runs made before one took more than 20 s.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from bent import bent_witness  # noqa: E402
from groverid.optimizer import entangled_feasible  # noqa: E402
from groverid.serialize import scheme_to_doc  # noqa: E402

IN_PROCESS = """
import json, sys, time
from groverid.identifier import run_identification
from groverid.oracle import GroverOracle
from groverid.serialize import scheme_from_doc
profile = scheme_from_doc(json.load(open(sys.argv[1])))
hidden = int(sys.argv[2])
start = time.perf_counter()
run = run_identification(profile, GroverOracle(profile.n, hidden))
print(json.dumps({"s": time.perf_counter() - start, "identified": run.identified}))
"""

CASES = (
    ("uniform n=16", lambda: entangled_feasible(16, 6).witness),
    ("bent n=64", lambda: bent_witness(64)),
    ("bent n=256", lambda: bent_witness(256)),
    ("bent n=1024", lambda: bent_witness(1024)),
)


def _run(argv: list[str], src: Path) -> tuple[float, str]:
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, check=True)
    return time.perf_counter() - start, proc.stdout


def _median(measure) -> tuple[float, int]:
    times = []
    while len(times) < 3 and sum(times) <= 20:
        times.append(measure())
    return statistics.median(times), len(times)


def measure_side(src: Path, path: str, n: int, hidden: int) -> dict:
    digests = set()

    def in_process() -> float:
        result = json.loads(_run([sys.executable, "-c", IN_PROCESS, path, str(hidden)], src)[1])
        assert result["identified"] == hidden, path
        return result["s"]

    def cold() -> float:
        argv = [sys.executable, "-m", "groverid", "identify",
                "--n", str(n), "--hidden", str(hidden), "--scheme", path]
        seconds, out = _run(argv, src)
        assert json.loads(out)["identified"] == hidden, path
        digests.add(hashlib.sha256(out.encode()).hexdigest())
        return seconds

    (in_s, in_runs), (cold_s, cold_runs) = _median(in_process), _median(cold)
    (digest,) = digests
    return {"in_process_s": round(in_s, 4), "cold_s": round(cold_s, 3),
            "runs": [in_runs, cold_runs], "stdout_sha256": digest}


def main() -> None:
    baseline = Path(sys.argv[1]).resolve()
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, build in CASES:
            profile = build()
            hidden = profile.n // 2
            path = str(Path(tmp) / "profile.json")
            Path(path).write_text(json.dumps(scheme_to_doc(profile)))
            rows.append({
                "case": name,
                "n": profile.n,
                "t": profile.t,
                "hidden": hidden,
                "compositions": len(profile.weights),
                "mass_classes": len(set(profile.weights.values())),
                "baseline": measure_side(baseline, path, profile.n, hidden),
                "change": measure_side(ROOT / "src", path, profile.n, hidden),
            })
            print(json.dumps(rows[-1]), file=sys.stderr)
    print(json.dumps({
        "command": "python3 tools/bench_identify.py BASELINE_SRC",
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "rows": rows,
    }, indent=2))


if __name__ == "__main__":
    main()
