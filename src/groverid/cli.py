"""Command-line interface.

Each invocation writes exactly one JSON document to stdout; any human
diagnostics go to stderr.  Exit codes: 0 success / valid / feasible,
1 verified-invalid or infeasible (a legitimate negative answer),
2 usage error or exceeded cap, 3 malformed input file.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

from .discrimination import CanonicalBlock, block_graph, discrimination_graph
from .exceptions import (
    AmbiguousClassificationError,
    IndistinguishableError,
    ResourceCapError,
    SchemaError,
)
from .identifier import run_identification
from .optimizer import (
    DEFAULT_COVER_CAP,
    entangled_feasible,
    entangled_scan,
    min_product_cover,
)
from .oracle import GroverOracle
from .schemes import (
    BUILTIN_NAMES,
    ProductScheme,
    WeightProfile,
    builtin,
    construct_product_scheme,
    construction_size,
    general_lower_bound,
    verify_entangled,
    verify_product,
)
from .serialize import (
    dumps,
    graph_to_doc,
    report_to_doc,
    scheme_from_doc,
    scheme_to_doc,
    state_from_doc,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_MALFORMED = 3


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, too deep
        raise SchemaError(f"{path} is not valid JSON: {exc}") from None


def _load_scheme(spec: str):
    if spec in BUILTIN_NAMES:
        return builtin(spec)
    return scheme_from_doc(_load_json(spec))


def cmd_bounds(args) -> tuple[dict, int]:
    n = args.n
    if n < 1:
        raise ValueError(f"--n must be >= 1, got {n}")
    if n == 2:
        return {"indistinguishable": True}, EXIT_OK
    return {
        "general_lower": general_lower_bound(n),
        "construction_size": construction_size(n),
    }, EXIT_OK


def cmd_build(args) -> tuple[dict, int]:
    n = args.n
    if args.entangled:
        if n < 2:
            raise ValueError(f"--entangled needs n >= 2, got {n}")
        t = args.t if args.t is not None else max(1, general_lower_bound(n))
        result = entangled_feasible(n, t)
        if not result.feasible:
            print(f"no entangled scheme exists for n={n} at t={t}", file=sys.stderr)
            return {"feasible": False, "n": n, "t": t}, EXIT_NEGATIVE
        return scheme_to_doc(result.witness), EXIT_OK
    scheme = construct_product_scheme(n)
    return scheme_to_doc(scheme), EXIT_OK


def cmd_verify(args) -> tuple[dict, int]:
    scheme = _load_scheme(args.scheme)
    if isinstance(scheme, WeightProfile):
        report = verify_entangled(scheme)
    else:
        report = verify_product(scheme)
    if not report.valid:
        print(f"invalid: {len(report.failing_pairs)} failing pair(s)", file=sys.stderr)
    return report_to_doc(report), EXIT_OK if report.valid else EXIT_NEGATIVE


def cmd_search(args) -> tuple[dict, int]:
    n = args.n
    if args.mode == "product":
        solution = min_product_cover(n, max_n=args.max_n)
        witness = scheme_to_doc(ProductScheme(n, solution.blocks))
        return {
            "min_t": solution.t,
            "witness": witness,
            "nodes_explored": solution.nodes_explored,
        }, EXIT_OK
    if n < 2:
        raise ValueError(f"--entangled needs n >= 2, got {n}")
    t_max = args.t_max if args.t_max is not None else construction_size(n)
    scan = entangled_scan(n, t_max)
    stats = [
        {
            "t": t,
            "feasible": result.feasible,
            "variables": result.stats.variables,
            "constraints": result.stats.constraints,
            "pivots": result.stats.pivots,
        }
        for t, result in scan
    ]
    if not scan or not scan[-1][1].feasible:
        print(f"no entangled scheme with t <= {t_max} for n={n}", file=sys.stderr)
        return {"min_t": None, "witness": None, "lp_stats": stats}, EXIT_NEGATIVE
    t, result = scan[-1]
    return {
        "min_t": t,
        "witness": scheme_to_doc(result.witness),
        "lp_stats": stats,
    }, EXIT_OK


def cmd_identify(args) -> tuple[dict, int]:
    n = args.n
    if not 1 <= args.hidden <= n:
        raise ValueError(f"--hidden must be in 1..{n}, got {args.hidden}")
    scheme = _load_scheme(args.scheme) if args.scheme else construct_product_scheme(n)
    if scheme.n != n:
        raise ValueError(f"scheme is for n={scheme.n}, but --n is {n}")
    run = run_identification(scheme, GroverOracle(n, args.hidden))
    return {"identified": run.identified, "queries": run.hidden_queries_used}, EXIT_OK


def cmd_graph(args) -> tuple[dict, int]:
    if args.state:
        state = state_from_doc(_load_json(args.state))
        graph = discrimination_graph(state)
    else:
        if args.n is None:
            raise ValueError("--block requires --n")
        block = _parse_block_spec(args.block, args.n)
        graph = block_graph(block)
    return graph_to_doc(graph), EXIT_OK


def _parse_block_spec(spec: str, n: int) -> CanonicalBlock:
    parts = spec.split()
    if not parts:
        raise ValueError("empty --block spec")
    kind, raw_indices = parts[0], parts[1:]
    try:
        indices = [int(p) for p in raw_indices]
    except ValueError:
        raise ValueError(f"non-integer index in --block spec {spec!r}") from None
    if kind == "pair" and len(indices) == 2:
        return CanonicalBlock.pair(indices[0], indices[1], n)
    if kind == "quad" and len(indices) == 4:
        return CanonicalBlock.quad(*indices, n)
    if kind == "star" and len(indices) == 1:
        return CanonicalBlock.star(indices[0], n)
    raise ValueError(
        f"bad --block spec {spec!r}; expected 'pair i j', 'quad a b c d', or 'star i'"
    )


class _Parser(argparse.ArgumentParser):
    """Argument parser whose errors reach main as ValueError, so they are
    reported as one usage-error JSON document like every other error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then kept: parsing
    reads it and never changes it."""
    parser = _Parser(
        prog="groverid",
        description="Exact parallel discrimination schemes for phase oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="closed-form lower bound and construction size")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("build", help="emit a verified scheme as JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--entangled", action="store_true", help="emit an exact entangled witness")
    p.add_argument("--t", type=int, default=None, help="copy count for --entangled")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="verify a scheme file")
    p.add_argument("--scheme", required=True, help="scheme JSON file or builtin name")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="exact minimal schemes at small n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("product", "entangled"), required=True)
    p.add_argument("--t-max", type=int, default=None, help="entangled scan limit")
    p.add_argument("--max-n", type=int, default=DEFAULT_COVER_CAP, help="product search cap")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("identify", help="run a scheme against a hidden oracle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--hidden", type=int, required=True, help="hidden target index")
    p.add_argument("--scheme", default=None, help="scheme JSON file or builtin name")
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("graph", help="discrimination graph of a state or block")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--state", help="one-copy state JSON file")
    group.add_argument("--block", help="block spec: 'pair i j', 'quad a b c d', 'star i'")
    p.add_argument("--n", type=int, default=None, help="dimension (with --block)")
    p.set_defaults(func=cmd_graph)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        payload, code = args.func(args)
    except SchemaError as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        payload, code = {"error": "malformed-input", "detail": str(exc)}, EXIT_MALFORMED
    except IndistinguishableError as exc:
        print(str(exc), file=sys.stderr)
        payload, code = {"indistinguishable": True, "detail": str(exc)}, EXIT_NEGATIVE
    except AmbiguousClassificationError as exc:
        print(f"ambiguous classification: {exc}", file=sys.stderr)
        payload, code = {"error": "ambiguous-classification", "detail": str(exc)}, EXIT_NEGATIVE
    except ResourceCapError as exc:
        print(f"over resource cap: {exc}", file=sys.stderr)
        payload, code = {"error": "resource-cap", "detail": str(exc)}, EXIT_USAGE
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        payload, code = {"error": "usage", "detail": str(exc)}, EXIT_USAGE
    sys.stdout.write(dumps(payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
