"""Scale rows for identification, of weight profiles and of product
schemes: a baseline checkout against this one.

    python3 tools/bench_identify.py BASELINE_SRC [BASELINE_COMMIT] > BENCH_identify.json

BASELINE_SRC is the ``src`` directory of the commit to compare against,
for example from ``git archive <commit> | tar -x -C DIR``, and
BASELINE_COMMIT, if given, is recorded as its name; this checkout's
``src`` is the change.  The product rows are the n = 4472 construction
and 40 or 200 stars (centres 1, 2, ...) in front of its blocks.  Each
case's scheme file is written once and identified with the hidden index
n/2.  For each side,
``in_process_s`` times the ``run_identification`` call alone, in a fresh
interpreter after the file is parsed, and ``cold_s`` times a whole
``python -m groverid identify --n N --hidden K --scheme FILE``
subprocess, whose stdout is recorded as a sha256 digest so the two
sides can be seen to answer alike.  Each figure is the minimum of
five runs, the sides alternating (``alternate.py``).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from alternate import alternate  # noqa: E402
from bent import bent_witness  # noqa: E402
from groverid.discrimination import CanonicalBlock  # noqa: E402
from groverid.optimizer import entangled_feasible  # noqa: E402
from groverid.schemes import ProductScheme, WeightProfile, construct_product_scheme  # noqa: E402
from groverid.serialize import scheme_to_doc  # noqa: E402

IN_PROCESS = """
import json, sys, time
from groverid.identifier import run_identification
from groverid.oracle import GroverOracle
from groverid.serialize import scheme_from_doc
scheme = scheme_from_doc(json.load(open(sys.argv[1])))
hidden = int(sys.argv[2])
start = time.perf_counter()
run = run_identification(scheme, GroverOracle(scheme.n, hidden))
print(json.dumps({"s": time.perf_counter() - start, "identified": run.identified}))
"""


def stars_on_construction(stars: int, n: int = 4472) -> ProductScheme:
    blocks = [CanonicalBlock.star(c, n) for c in range(1, stars + 1)]
    return ProductScheme(n, blocks + list(construct_product_scheme(n).blocks))


CASES = (
    ("uniform n=16", lambda: entangled_feasible(16, 6).witness),
    ("bent n=64", lambda: bent_witness(64)),
    ("bent n=256", lambda: bent_witness(256)),
    ("bent n=1024", lambda: bent_witness(1024)),
    ("construction n=4472", lambda: stars_on_construction(0)),
    ("40 stars + construction n=4472", lambda: stars_on_construction(40)),
    ("200 stars + construction n=4472", lambda: stars_on_construction(200)),
)


def describe(scheme) -> dict:
    if isinstance(scheme, WeightProfile):
        return {"compositions": len(scheme.weights),
                "mass_classes": len(set(scheme.weights.values()))}
    return {"stars": sum(b.kind == "star" for b in scheme.blocks),
            "support_entries": sum(scheme.n if b.kind == "star" else len(b.indices)
                                   for b in scheme.blocks)}


def _run(argv: list[str], src: Path) -> tuple[float, str]:
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, check=True)
    return time.perf_counter() - start, proc.stdout


def measures(src: Path, path: str, n: int, hidden: int, digests: set) -> dict:
    """One side's two timed runs, by field; a cold run adds its stdout's
    digest to ``digests``."""

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

    return {"in_process_s": in_process, "cold_s": cold}


def main() -> None:
    sides = (("baseline", Path(sys.argv[1]).resolve()), ("change", ROOT / "src"))
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for case, build in CASES:
            scheme = build()
            hidden = scheme.n // 2
            path = str(Path(tmp) / "scheme.json")
            Path(path).write_text(json.dumps(scheme_to_doc(scheme)))
            digests = {name: set() for name, _ in sides}
            times = alternate({name: measures(src, path, scheme.n, hidden, digests[name])
                               for name, src in sides})
            rows.append({
                "case": case,
                "n": scheme.n,
                "t": scheme.t,
                "hidden": hidden,
                **describe(scheme),
                **{name: dict(times[name], stdout_sha256=digest)
                   for name, (digest,) in digests.items()},
            })
            print(json.dumps(rows[-1]), file=sys.stderr)
    head = {"baseline_commit": sys.argv[2]} if len(sys.argv) > 2 else {}
    print(json.dumps({
        **head,
        "command": "python3 tools/bench_identify.py BASELINE_SRC",
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "rows": rows,
    }, indent=2))


if __name__ == "__main__":
    main()
