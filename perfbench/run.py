"""Closed-loop benchmark of the groverid command line.

One client sends CLI requests back to back: each request is one call of
``groverid.cli.main(argv)`` in this process with stdout captured, so a
request covers the whole path from argument parsing to the JSON written
out, but not interpreter start-up.  Every answer is checked against an
expected answer that workloads.py and reference.py work out without the
program.

Times are scaled to a reference machine speed.  The host these runs
share changes speed by up to 2x over tens of seconds, so a fixed
calibration snippet runs between requests, and each request's time is
multiplied by CALIBRATION_REFERENCE_S over the mean of the snippet's
times just before and just after it.  Raw times are printed alongside.

    python3 perfbench/run.py --workload product --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, each in its own process

The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  With --trace 0 the metrics are the end-to-end
ones; with --trace 1 the run is split into an untraced and a traced half
and the metrics are the per-layer ones (see README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 9
# Roughly the calibration snippet's time on an idle core of the 2.0 GHz
# Xeon the benchmark was sized on, so scaled times read close to raw
# ones on a quiet host.
CALIBRATION_REFERENCE_S = 0.002
SUBPROCESS_TIMEOUT_S = 120
CHILD_EXTRA_S = 150

# Per-layer metrics named in BENCHMARK.json are totals from
# Tracer.rollup() per traced pass, except these ratios of two totals and
# the two metrics measure() adds itself.
RATIOS = {
    "optimizer.entangled_feasible.feasible_ratio": (
        "optimizer.entangled_feasible.feasible", "optimizer.entangled_feasible.calls"),
    "identifier.queries_per_run": (
        "identifier.run_identification.queries", "identifier.run_identification.calls"),
    "identifier.overlaps_per_match": (
        "identifier.run_identification.overlaps", "identifier.run_identification.calls"),
}
MEASURED_ELSEWHERE = ("trace.throughput_ratio", "cli.subprocess_s")


def metric_specs(kind: str) -> dict[str, str]:
    """Name -> unit of the end_to_end or per_layer metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def import_program():
    """Import groverid afresh from the checkout's src/ and return its cli."""
    for name in [m for m in sys.modules if m == "groverid" or m.startswith("groverid.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("groverid.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"groverid was imported from {cli.__file__}, not from {SRC}")
    return cli


def _calibration_work() -> int:
    table = {(i % 97, i): Fraction(i, 7) for i in range(2000)}
    return len({(b, a) for a, b in table})


def calibration() -> float:
    """Seconds the machine takes for a fixed snippet of the kind of work
    the program does (small tuples, dicts, sets, Fractions), GC paused."""
    was_enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    _calibration_work()
    elapsed = time.perf_counter() - start
    if was_enabled:
        gc.enable()
    return elapsed


def speed_scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two calibrations into
    reference-speed time."""
    return 2 * CALIBRATION_REFERENCE_S / (before + after)


def setup(workload: str, seed: int, workdir: Path):
    """Import the program, write the seeded files, work out the answers.
    Returns the reference-speed set-up time first."""
    before = calibration()
    start = time.perf_counter()
    cli = import_program()
    inputs = workloads.Inputs(random.Random(seed), workdir, sys.modules["groverid.schemes"])
    requests = workloads.WORKLOADS[workload](inputs)
    probe = workloads.probe(inputs)
    elapsed = time.perf_counter() - start
    return elapsed * speed_scale(before, calibration()), cli, requests, probe


def call(cli, argv):
    """One request; returns (seconds, outcome).  The outcome is
    (exit code, stdout) or ("raised", description)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed request, not a benchmark error
        return time.perf_counter() - start, ("raised", repr(exc))
    return time.perf_counter() - start, (code, out.getvalue())


class Loop:
    """Closed loop over whole passes: each pass sends every request once
    in seeded order, and passes repeat until the time is up.  Latencies
    are reference-speed times; raw ones are kept beside them.  Answers
    are checked between requests, outside the timed calls."""

    def __init__(self, requests, rng: random.Random, checker: "Checker"):
        self.requests = requests
        self.rng = rng
        self.checker = checker
        self.latencies: list[float] = []
        self.raw: list[float] = []
        self.sent: list[int] = []
        self.passes = 0

    def run(self, cli, seconds: float) -> "Loop":
        deadline = time.perf_counter() + seconds
        before = calibration()
        while True:
            for i in self.rng.sample(range(len(self.requests)), len(self.requests)):
                dt, outcome = call(cli, self.requests[i].argv)
                after = calibration()
                self.latencies.append(dt * speed_scale(before, after))
                self.raw.append(dt)
                self.sent.append(i)
                self.checker(self.requests[i], outcome)
                before = calibration()
            self.passes += 1
            if time.perf_counter() >= deadline:
                break
        return self

    @property
    def throughput(self) -> float:
        """Requests per second of reference-speed busy time."""
        return len(self.latencies) / sum(self.latencies)


def problem(request: workloads.Request, outcome) -> str | None:
    """Why an outcome is wrong, or None when it is the expected answer."""
    code, text = outcome
    if code == "raised":
        return f"raised {text}"
    if code != request.expect_code:
        return f"exit code {code!r}, expected {request.expect_code}"
    try:
        doc = json.loads(text)
    except ValueError:
        return "stdout is not exactly one JSON document"
    if not isinstance(doc, dict):
        return "stdout is not a JSON object"
    try:
        return request.check(doc)
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        return f"malformed answer: {exc!r}"


class Checker:
    """Counts attempted and failed requests; each distinct answer is
    checked once, and only distinct answers are kept."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self._memo: dict = {}

    def __call__(self, request: workloads.Request, outcome) -> None:
        key = (id(request), outcome)
        if key not in self._memo:
            self._memo[key] = problem(request, outcome)
        self.attempted += 1
        if self._memo[key]:
            self.failures.append(f"{request.kind} {' '.join(request.argv)}: {self._memo[key]}")


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with >= 10 samples above it."""
    s = sorted(latencies)
    k = max(len(s) - 11, 0)
    return s[k], 100.0 * (k + 1) / len(s)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cold_subprocess_seconds(probe, checker: Checker, workdir: Path) -> float:
    """Median wall time of one fresh interpreter per subcommand."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    seen, times = set(), []
    for request in probe:
        if request.argv[0] in seen:
            continue
        seen.add(request.argv[0])
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "groverid", *request.argv],
            cwd=workdir, env=env, capture_output=True, text=True,
            timeout=SUBPROCESS_TIMEOUT_S,
        )
        times.append(time.perf_counter() - start)
        checker(request, (proc.returncode, proc.stdout))
    return statistics.median(times)


def measure(args, workdir: Path) -> dict:
    setups = [setup(args.workload, args.seed, workdir) for _ in range(SETUP_REPEATS)]
    _, cli, requests, probe = setups[-1]
    checker = Checker()
    order = random.Random(f"order-{args.seed}")
    Loop(probe, order, checker).run(cli, 0)  # warm-up, untimed

    if not args.trace:
        loop = Loop(requests, order, checker).run(cli, args.seconds)
        value, percentile = tail(loop.latencies)
        metrics = {
            "throughput_ops_s": loop.throughput,
            "latency_p50_ms": 1e3 * statistics.median(loop.latencies),
            "latency_tail_ms": 1e3 * value,
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": statistics.median(s[0] for s in setups),
        }
        units = metric_specs("end_to_end")
        info = {"tail_percentile": round(percentile, 2), "samples": len(loop.latencies),
                "passes": loop.passes, "raw_ops_s": len(loop.raw) / sum(loop.raw),
                "raw_p50_ms": 1e3 * statistics.median(loop.raw),
                "median_ms_by_kind": by_kind(requests, loop)}
    else:
        mixed = requests + probe
        plain = Loop(mixed, order, checker).run(cli, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        traced = Loop(mixed, order, checker).run(sys.modules["groverid.cli"], args.seconds / 2)
        units = metric_specs("per_layer")
        metrics = layer_metrics(tracer, traced.passes, list(units))
        metrics["trace.throughput_ratio"] = traced.throughput / plain.throughput
        metrics["cli.subprocess_s"] = cold_subprocess_seconds(probe, checker, workdir)
        info = {"passes": traced.passes, "untraced_ops_s": plain.throughput,
                "traced_ops_s": traced.throughput,
                "span_dump": str(dump_spans(args, tracer, metrics).relative_to(ROOT))}
    info["fail_ratio"] = len(checker.failures) / checker.attempted
    return {
        "info": info,
        "failures": checker.failures,
        "result": {
            "correct": not checker.failures,
            "attempted": checker.attempted,
            "failed": len(checker.failures),
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        },
    }


def by_kind(requests, loop: Loop) -> dict[str, float]:
    groups: dict[str, list[float]] = {}
    for i, dt in zip(loop.sent, loop.latencies):
        groups.setdefault(requests[i].kind, []).append(dt)
    return {kind: round(1e3 * statistics.median(v), 3) for kind, v in sorted(groups.items())}


def layer_metrics(tracer: Tracer, passes: int, names: list[str]) -> dict[str, float]:
    totals = tracer.rollup()
    metrics = {}
    for name in names:
        if name in RATIOS:
            num, den = RATIOS[name]
            metrics[name] = totals[num] / totals[den] if totals[den] else 0.0
        elif name not in MEASURED_ELSEWHERE:
            metrics[name] = totals[name] / passes
    return metrics


def dump_spans(args, tracer: Tracer, metrics: dict) -> Path:
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "fields": ["name", "start_s", "end_s", "parent", "request"],
        "spans": [[n, round(s - t0, 7), round(e - t0, 7), p, r] for n, s, e, p, r in tracer.spans],
        "metrics": metrics,
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def run_one(args) -> int:
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        report = measure(args, Path(tmp))
    for line in report["failures"][:20]:
        print(f"failed: {line}", file=sys.stderr)
    print("info " + json.dumps(report["info"], sort_keys=True))
    print(json.dumps(report["result"]))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh interpreter, so memory and warm state stay apart."""
    status, results = 0, {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=args.seconds + CHILD_EXTRA_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        info = json.loads(lines[-2].removeprefix("info "))
        result = json.loads(lines[-1])
        results[name] = {"info": info, "result": result}
        print(f"== {name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"fail_ratio {info['fail_ratio']:.4g}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:44s} {m['value']:14.6g} {m['unit']}")
        if "tail_percentile" in info:
            print(f"  latency_tail_ms is p{info['tail_percentile']} of {info['samples']} samples")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "groverid").is_dir():
        print(f"no groverid sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
