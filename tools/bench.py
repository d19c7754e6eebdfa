"""Alternating timed rows for one benchmark question: a baseline checkout
against this one.

    python3 tools/bench.py QUESTION BASELINE_SRC [BASELINE_COMMIT] > BENCH_<QUESTION>.json

QUESTION is ``identify``, ``product``, ``verify_entangled`` or ``io``.
BASELINE_SRC is the ``src`` directory of the commit to compare against,
for example from ``git archive <commit> | tar -x -C DIR``, and
BASELINE_COMMIT, if given, is recorded as its name; this checkout's
``src`` is the change.

Each question is a table of cases.  A case writes its scheme files once
and may have an in-process step, a cold command, or both:

- ``in_process_s`` times the step alone, one short expression such as
  ``verify_product(scheme)``, in a fresh interpreter after every file is
  parsed (``SNIPPET``);
- ``cold_s`` times a whole ``python -m groverid`` subprocess.

Each case makes RUNS rounds.  A round times every side in turn in
process, and then every side in turn cold, so drift in the host's speed
reaches the sides alike; each figure is the minimum of its RUNS times.  A side records the
step's answer, and the cold command's exit code and stdout sha256.  The
tool stops unless every round of both sides gives the same ones.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import groverid.schemes  # noqa: E402
from bent import bent_witness  # noqa: E402
from groverid.discrimination import CanonicalBlock  # noqa: E402
from groverid.optimizer import entangled_feasible  # noqa: E402
from groverid.schemes import ProductScheme, WeightProfile, construct_product_scheme  # noqa: E402
from groverid.serialize import scheme_to_doc  # noqa: E402
from workloads import WITNESS_CASES, Inputs  # noqa: E402

RUNS = 5

#: In a fresh interpreter: parse the files named after the step, then
#: time ``eval(step)``.  A list of schemes or texts is answered by the
#: sha256 of their ``dumps`` text.
SNIPPET = """
import hashlib, json, sys, time
from pathlib import Path
from groverid.exceptions import ResourceCapError
from groverid.identifier import run_identification
from groverid.optimizer import min_product_cover
from groverid.oracle import GroverOracle
from groverid.schemes import verify_entangled, verify_product
from groverid.serialize import dumps, scheme_from_doc, scheme_to_doc

def cover(n):
    try:
        solution = min_product_cover(n, max_n=n)
    except ResourceCapError as exc:
        return {"detail": str(exc)}
    return {"min_t": solution.t, "nodes_explored": solution.nodes_explored}

docs = [json.loads(Path(path).read_text()) for path in sys.argv[2:]]
schemes = [scheme_from_doc(doc) for doc in docs]
written = [scheme_to_doc(scheme) for scheme in schemes]
scheme = schemes[0] if schemes else None
start = time.perf_counter()
answer = eval(sys.argv[1])
seconds = time.perf_counter() - start
if isinstance(answer, list):
    text = "".join(a if isinstance(a, str) else dumps(scheme_to_doc(a)) for a in answer)
    answer = hashlib.sha256(text.encode()).hexdigest()
print(json.dumps({"s": seconds, "answer": answer}))
"""

#: Stands in a cold command for the case's (first) scheme file.
FILE = "FILE"


@dataclass(frozen=True)
class Case:
    """One row: its descriptive fields, a writer of its scheme files that
    also returns the fields read off them, and what is timed."""

    fields: dict
    files: Callable[[Path], tuple[list[str], dict]] = lambda tmp: ([], {})
    step: str | None = None
    argv: tuple[str, ...] = ()


def describe(scheme) -> dict:
    if isinstance(scheme, WeightProfile):
        return {"t": scheme.t, "compositions": len(scheme.weights),
                "mass_classes": len(set(scheme.weights.values()))}
    return {"t": scheme.t, "stars": sum(b.kind == "star" for b in scheme.blocks),
            "support_entries": sum(scheme.n if b.kind == "star" else len(b.indices)
                                   for b in scheme.blocks)}


def one_scheme(build: Callable) -> Callable:
    """A case's files: the one scheme ``build()`` makes."""

    def files(tmp: Path) -> tuple[list[str], dict]:
        scheme = build()
        path = tmp / "scheme.json"
        path.write_text(json.dumps(scheme_to_doc(scheme)))
        return [str(path)], describe(scheme)

    return files


def stars_on_construction(stars: int, n: int = 4472) -> ProductScheme:
    blocks = [CanonicalBlock.star(c, n) for c in range(1, stars + 1)]
    return ProductScheme(n, blocks + list(construct_product_scheme(n).blocks))


PROFILES = (
    ("uniform n=16", 16, lambda: entangled_feasible(16, 6).witness),
    ("bent n=64", 64, lambda: bent_witness(64)),
    ("bent n=256", 256, lambda: bent_witness(256)),
    ("bent n=1024", 1024, lambda: bent_witness(1024)),
)


def identify_cases() -> list[Case]:
    """Identification of weight profiles and of product schemes: the
    n = 4472 construction with 0, 40 or 200 stars (centres 1, 2, ...) in
    front of its blocks.  The hidden index is n/2."""
    schemes = PROFILES + tuple(
        (f"{stars} stars + construction n=4472" if stars else "construction n=4472", 4472,
         lambda stars=stars: stars_on_construction(stars))
        for stars in (0, 40, 200))
    return [Case({"case": label, "n": n, "hidden": n // 2}, one_scheme(build),
                 "run_identification(scheme, GroverOracle(scheme.n, scheme.n // 2)).identified",
                 ("identify", "--n", str(n), "--hidden", str(n // 2), "--scheme", FILE))
            for label, n, build in schemes]


def product_cases() -> list[Case]:
    """Verification of the construction, and the exact cover search, which
    answers with ``min_t`` and ``nodes_explored`` or the resource-cap
    detail."""
    verify = [Case({"case": "verify construction", "n": n},
                   one_scheme(lambda n=n: construct_product_scheme(n)),
                   "verify_product(scheme).valid", ("verify", "--scheme", FILE))
              for n in (1000, 4472)]
    search = [Case({"case": "search --mode product", "n": n}, step=f"cover({n})",
                   argv=("search", "--n", str(n), "--mode", "product", "--max-n", str(n)))
              for n in range(8, 17)]
    return verify + search


def verify_entangled_cases() -> list[Case]:
    """Exact verification of weight profiles."""
    return [Case({"case": label, "n": n}, one_scheme(build),
                 "verify_entangled(scheme).valid", ("verify", "--scheme", FILE))
            for label, n, build in PROFILES]


def level_mix_files(tmp: Path) -> tuple[list[str], dict]:
    """The level-mix witness files of the benchmark's ``entangled``
    workload, seed 1, written by its own generator."""
    inputs = Inputs(random.Random(1), tmp, groverid.schemes)
    return [inputs.level_mix(n, t) for n, t in WITNESS_CASES], {}


def io_cases() -> list[Case]:
    """Scheme-file input and output: parsing or writing every level-mix
    file in process, and two commands that build and write a witness."""
    in_process = [Case({"case": f"in process: {what} of the level-mix files",
                        "files": len(WITNESS_CASES)}, level_mix_files, step)
                  for what, step in (("scheme_from_doc", "[scheme_from_doc(d) for d in docs]"),
                                     ("dumps", "[dumps(d) for d in written]"))]
    cold = [Case({"case": "cold: " + " ".join(argv)}, argv=argv)
            for argv in (("build", "--n", "16", "--entangled"),
                         ("search", "--n", "16", "--mode", "entangled"))]
    return in_process + cold


QUESTIONS = {"identify": identify_cases, "product": product_cases,
             "verify_entangled": verify_entangled_cases, "io": io_cases}


def _run(argv: list[str], src: Path) -> tuple[float, subprocess.CompletedProcess]:
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    return time.perf_counter() - start, proc


def measure(case: Case, paths: list[str], sides: dict[str, Path]) -> dict:
    """Each side's minimum times over RUNS alternating rounds, with the
    answer, exit code and stdout digest that all its rounds gave."""
    argv = [sys.executable, "-m", "groverid", *(paths[0] if a == FILE else a for a in case.argv)]
    times = {name: defaultdict(list) for name in sides}
    outcomes = {name: defaultdict(set) for name in sides}
    for _ in range(RUNS):
        for name, src in sides.items():
            if case.step:
                _, proc = _run([sys.executable, "-c", SNIPPET, case.step, *paths], src)
                if proc.returncode:
                    raise SystemExit(f"{case.fields} on {name}: {proc.stderr}")
                out = json.loads(proc.stdout)
                times[name]["in_process_s"].append(out["s"])
                outcomes[name]["answer"].add(json.dumps(out["answer"]))
        for name, src in sides.items():
            if case.argv:
                seconds, proc = _run(argv, src)
                times[name]["cold_s"].append(seconds)
                outcomes[name]["exit"].add(json.dumps(proc.returncode))
                digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
                outcomes[name]["stdout_sha256"].add(json.dumps(digest))
    baseline, change = outcomes.values()
    if baseline != change or any(len(values) != 1 for values in baseline.values()):
        raise SystemExit(f"{case.fields}: the rounds or the sides differ: {outcomes}")
    return {name: {**{key: round(min(values), 5) for key, values in times[name].items()},
                   "runs": RUNS,
                   **{key: json.loads(*values) for key, values in outcomes[name].items()}}
            for name in sides}


def main() -> None:
    question, baseline = sys.argv[1], Path(sys.argv[2]).resolve()
    sides = {"baseline": baseline, "change": ROOT / "src"}
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for k, case in enumerate(QUESTIONS[question]()):
            workdir = Path(tmp) / str(k)
            workdir.mkdir()
            paths, described = case.files(workdir)
            rows.append({**case.fields, **described, **measure(case, paths, sides)})
            print(json.dumps(rows[-1]), file=sys.stderr)
    head = {"baseline_commit": sys.argv[3]} if len(sys.argv) > 3 else {}
    print(json.dumps({
        **head,
        "command": f"python3 tools/bench.py {question} BASELINE_SRC",
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "rows": rows,
    }, indent=2))


if __name__ == "__main__":
    main()
