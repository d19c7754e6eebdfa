"""Scale rows for product schemes, verification and the exact cover
search: a baseline checkout against this one.

    python3 tools/bench_product.py BASELINE_SRC [BASELINE_COMMIT] > BENCH_product.json

BASELINE_SRC is the ``src`` directory of the commit to compare against,
for example from ``git archive <commit> | tar -x -C DIR``, and
BASELINE_COMMIT, if given, is recorded as its name; this checkout's
``src`` is the change.  For each side, ``in_process_s`` times
the library call alone in a fresh interpreter (``verify_product`` after
the file is parsed, or ``min_product_cover``), and ``cold_s`` times a
whole ``python -m groverid`` subprocess (``verify --scheme FILE``, or
``search --n N --mode product --max-n N``).  Search rows also record the
exit code, ``min_t`` and ``nodes_explored``, or the resource-cap detail.
Each time is the minimum of five runs, the sides alternating
(``alternate.py``).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from alternate import alternate  # noqa: E402
from groverid.schemes import construct_product_scheme  # noqa: E402
from groverid.serialize import scheme_to_doc  # noqa: E402

VERIFY = """
import json, sys, time
from groverid.schemes import verify_product
from groverid.serialize import scheme_from_doc
scheme = scheme_from_doc(json.load(open(sys.argv[1])))
start = time.perf_counter()
report = verify_product(scheme)
print(json.dumps({"s": time.perf_counter() - start, "valid": report.valid}))
"""

SEARCH = """
import json, sys, time
from groverid.exceptions import ResourceCapError
from groverid.optimizer import min_product_cover
n = int(sys.argv[1])
start = time.perf_counter()
try:
    solution = min_product_cover(n, max_n=n)
    out = {"min_t": solution.t, "nodes_explored": solution.nodes_explored}
except ResourceCapError as exc:
    out = {"detail": str(exc)}
print(json.dumps(dict(out, s=time.perf_counter() - start)))
"""

VERIFY_SIZES = (1000, 4472)
SEARCH_SIZES = range(8, 17)


def _run(argv: list[str], src: Path) -> tuple[float, subprocess.CompletedProcess]:
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    return time.perf_counter() - start, proc


def verify_measures(src: Path, path: str) -> dict:
    def in_process() -> float:
        _, proc = _run([sys.executable, "-c", VERIFY, path], src)
        result = json.loads(proc.stdout)
        assert result["valid"], path
        return result["s"]

    def cold() -> float:
        seconds, proc = _run([sys.executable, "-m", "groverid", "verify", "--scheme", path], src)
        assert proc.returncode == 0 and json.loads(proc.stdout)["valid"], path
        return seconds

    return {"in_process_s": in_process, "cold_s": cold}


def search_measures(src: Path, n: int, answer: dict) -> dict:
    """The two timed runs of a search; they record its answer in ``answer``."""

    def in_process() -> float:
        _, proc = _run([sys.executable, "-c", SEARCH, str(n)], src)
        result = json.loads(proc.stdout)
        seconds = result.pop("s")
        answer.update(result)
        return seconds

    def cold() -> float:
        argv = [sys.executable, "-m", "groverid", "search", "--n", str(n),
                "--mode", "product", "--max-n", str(n)]
        seconds, proc = _run(argv, src)
        answer["exit"] = proc.returncode
        return seconds

    return {"in_process_s": in_process, "cold_s": cold}


def main() -> None:
    baseline = Path(sys.argv[1]).resolve()
    sides = (("baseline", baseline), ("change", ROOT / "src"))
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for n in VERIFY_SIZES:
            scheme = construct_product_scheme(n)
            path = str(Path(tmp) / f"construction{n}.json")
            Path(path).write_text(json.dumps(scheme_to_doc(scheme)))
            rows.append({"case": "verify construction", "n": n, "blocks": scheme.t,
                         **alternate({name: verify_measures(src, path) for name, src in sides})})
            print(json.dumps(rows[-1]), file=sys.stderr)
    for n in SEARCH_SIZES:
        answers = {name: {} for name, _ in sides}
        times = alternate({name: search_measures(src, n, answers[name]) for name, src in sides})
        rows.append({"case": "search --mode product", "n": n,
                     **{name: dict(times[name], **answers[name]) for name, _ in sides}})
        print(json.dumps(rows[-1]), file=sys.stderr)
    head = {"baseline_commit": sys.argv[2]} if len(sys.argv) > 2 else {}
    print(json.dumps({
        **head,
        "command": "python3 tools/bench_product.py BASELINE_SRC",
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "rows": rows,
    }, indent=2))


if __name__ == "__main__":
    main()
