"""Scale rows for scheme-file input and output: a baseline checkout
against this one.

    python3 tools/bench_io.py BASELINE_SRC > BENCH_io.json

BASELINE_SRC is the ``src`` directory of the commit to compare against,
for example from ``git archive <commit> | tar -x -C DIR``; this
checkout's ``src`` is the change.  Two kinds of row:

- ``in process``: the 16 level-mix witness files of the benchmark's
  ``entangled`` workload (n = 5..8, seed 1).  In a fresh interpreter,
  ``scheme_from_doc`` parses all of them, or ``dumps`` writes all of
  their ``scheme_to_doc`` documents; ``pass_s`` is the median over 50
  passes.
- ``cold``: a whole ``python -m groverid`` subprocess (``verify`` of a
  witness file, ``build --entangled``, ``search --mode entangled``);
  ``cold_s`` is the median of three runs.

Every side records the SHA-256 of what it printed (in process: of the
``dumps`` text of every parsed file), so equal digests show that both
sides gave the same answer.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import reference  # noqa: E402
from bent import bent_witness  # noqa: E402
from groverid.optimizer import entangled_feasible  # noqa: E402
from groverid.serialize import dumps, scheme_to_doc  # noqa: E402
from workloads import WITNESS_CASES  # noqa: E402

IN_PROCESS = """
import hashlib, json, statistics, sys, time
from groverid.serialize import dumps, scheme_from_doc, scheme_to_doc
docs = [json.load(open(path)) for path in sys.argv[2:]]
profiles = [scheme_from_doc(doc) for doc in docs]
out = [scheme_to_doc(p) for p in profiles]
digest = hashlib.sha256("".join(map(dumps, out)).encode()).hexdigest()
step = scheme_from_doc if sys.argv[1] == "load" else dumps
work = docs if sys.argv[1] == "load" else out
times = []
for _ in range(50):
    start = time.perf_counter()
    for doc in work:
        step(doc)
    times.append(time.perf_counter() - start)
print(json.dumps({"s": statistics.median(times), "digest": digest}))
"""

PASSES = 3


def _run(argv: list[str], src: Path) -> tuple[float, subprocess.CompletedProcess]:
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    return time.perf_counter() - start, proc


def in_process_side(src: Path, step: str, paths: list[str]) -> dict:
    _, proc = _run([sys.executable, "-c", IN_PROCESS, step, *paths], src)
    result = json.loads(proc.stdout)
    return {"pass_s": round(result["s"], 5), "stdout_sha256": result["digest"]}


def cold_side(src: Path, argv: list[str]) -> dict:
    times, digests, codes = [], set(), set()
    for _ in range(PASSES):
        seconds, proc = _run([sys.executable, "-m", "groverid", *argv], src)
        times.append(seconds)
        digests.add(hashlib.sha256(proc.stdout.encode()).hexdigest())
        codes.add(proc.returncode)
    assert len(digests) == 1 and len(codes) == 1, argv
    return {"cold_s": round(statistics.median(times), 3), "exit": codes.pop(),
            "stdout_sha256": digests.pop(), "runs": PASSES}


def level_mix_files(tmp: Path) -> list[str]:
    """The workload's witness files, written as its generator writes them."""
    rng = random.Random(1)
    paths = []
    for n, t in WITNESS_CASES:
        weights = reference.level_mix_weights(
            n, t, lambda subset: rng.choice(subset) if subset else rng.randint(1, n)
        )
        doc = {"kind": "entangled", "n": n, "t": t, "weights": [
            {"composition": list(c), "q": f"{q.numerator}/{q.denominator}"} for c, q in weights
        ]}
        path = tmp / f"level_mix_{n}_{t}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    return paths


def main() -> None:
    baseline = Path(sys.argv[1]).resolve()
    sides = (("baseline", baseline), ("change", ROOT / "src"))
    rows = []

    def add(row: dict) -> None:
        rows.append(row)
        print(json.dumps(row), file=sys.stderr)

    with tempfile.TemporaryDirectory() as tmp:
        paths = level_mix_files(Path(tmp))
        for step, what in (("load", "scheme_from_doc"), ("write", "dumps")):
            add({"case": f"in process: {what} of the level-mix files", "files": len(paths),
                 **{name: in_process_side(src, step, paths) for name, src in sides}})
        witnesses = (
            ("uniform n=16", entangled_feasible(16, 6).witness),
            ("bent n=256", bent_witness(256)),
            ("bent n=1024", bent_witness(1024)),
        )
        for name, profile in witnesses:
            path = Path(tmp) / "witness.json"
            path.write_text(dumps(scheme_to_doc(profile)))
            add({"case": f"cold: verify {name}", "n": profile.n, "t": profile.t,
                 "compositions": len(profile.weights),
                 **{side: cold_side(src, ["verify", "--scheme", str(path)])
                    for side, src in sides}})
    commands = (["build", "--n", "16", "--entangled"], ["search", "--n", "16", "--mode", "entangled"])
    for argv in commands:
        add({"case": "cold: " + " ".join(argv),
             **{side: cold_side(src, argv) for side, src in sides}})
    print(json.dumps({
        "command": "python3 tools/bench_io.py BASELINE_SRC",
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "rows": rows,
    }, indent=2))


if __name__ == "__main__":
    main()
