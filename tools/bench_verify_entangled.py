"""Scale rows for exact weight-profile verification: a baseline checkout
against this one.

    python3 tools/bench_verify_entangled.py BASELINE_SRC > BENCH_verify_entangled.json

BASELINE_SRC is the ``src`` directory of the commit to compare against,
for example from ``git archive <commit> | tar -x -C DIR``; this
checkout's ``src`` is the change.  Each case's profile file is written
once.  For each side, ``in_process_s`` times the ``verify_entangled``
call alone, in a fresh interpreter after the file is parsed, and
``cold_s`` times a whole ``python -m groverid verify --scheme FILE``
subprocess.  Each figure is the median of three runs, or of the runs
made before one took more than 20 s.
"""

from __future__ import annotations

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
from groverid.schemes import verify_entangled
from groverid.serialize import scheme_from_doc
profile = scheme_from_doc(json.load(open(sys.argv[1])))
start = time.perf_counter()
report = verify_entangled(profile)
print(json.dumps({"s": time.perf_counter() - start, "valid": report.valid}))
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


def measure_side(src: Path, path: str) -> dict:
    def in_process() -> float:
        result = json.loads(_run([sys.executable, "-c", IN_PROCESS, path], src)[1])
        assert result["valid"], path
        return result["s"]

    def cold() -> float:
        seconds, out = _run([sys.executable, "-m", "groverid", "verify", "--scheme", path], src)
        assert json.loads(out)["valid"], path
        return seconds

    (in_s, in_runs), (cold_s, cold_runs) = _median(in_process), _median(cold)
    return {"in_process_s": round(in_s, 4), "cold_s": round(cold_s, 3),
            "runs": [in_runs, cold_runs]}


def main() -> None:
    baseline = Path(sys.argv[1]).resolve()
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, build in CASES:
            profile = build()
            path = str(Path(tmp) / "profile.json")
            Path(path).write_text(json.dumps(scheme_to_doc(profile)))
            rows.append({
                "case": name,
                "n": profile.n,
                "t": profile.t,
                "compositions": len(profile.weights),
                "mass_classes": len(set(profile.weights.values())),
                "baseline": measure_side(baseline, path),
                "change": measure_side(ROOT / "src", path),
            })
            print(json.dumps(rows[-1]), file=sys.stderr)
    print(json.dumps({
        "command": "python3 tools/bench_verify_entangled.py BASELINE_SRC",
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "rows": rows,
    }, indent=2))


if __name__ == "__main__":
    main()
