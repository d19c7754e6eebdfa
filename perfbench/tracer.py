"""Spans around groverid's public functions, recorded from outside.

``install`` replaces each traced function in every groverid module that
holds it (so callers that imported the name see the wrapper too).  Each
call records a span [name, start, end, parent span, request id]; a span
with no parent starts a new request.  Counts are read from return values
and arguments.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter


def _edges(c, args, result):
    c["discrimination.block_graph.edges"] += len(result.edges)


def _pairs(c, args, result):
    n = args[0].n
    c["schemes.verify_product.pairs"] += n * (n - 1) // 2


def _nodes(c, args, result):
    c["optimizer.min_product_cover.nodes"] += result.nodes_explored


def _lp(c, args, result):
    c["optimizer.entangled_feasible.variables"] += result.stats.variables
    c["optimizer.entangled_feasible.constraints"] += result.stats.constraints
    c["optimizer.entangled_feasible.pivots"] += result.stats.pivots
    c["optimizer.entangled_feasible.feasible"] += result.feasible


def _compositions(c, args, result):
    c["oracle.enumerate_compositions.count"] += len(result)


def _tuples(c, args, result):
    c["schemes.expand_to_state.tuples"] += len(result.amps)


def _terms(c, args, result):
    c["amplitude.signed_sqrt_sum.terms"] += len(args[0])


def _queries(c, args, result):
    c["identifier.run_identification.queries"] += result.hidden_queries_used


def _bytes(c, args, result):
    c["serialize.dumps.bytes"] += len(result)


#: (defining module, qualified name, counter) of every traced function.
TARGETS = (
    ("cli", "main", None),
    ("discrimination", "block_graph", _edges),
    ("schemes", "verify_product", _pairs),
    ("schemes", "verify_entangled", None),
    ("schemes", "expand_to_state", _tuples),
    ("schemes", "construct_product_scheme", None),
    ("optimizer", "min_product_cover", _nodes),
    ("optimizer", "CoverInstance.build", None),
    ("optimizer", "entangled_feasible", _lp),
    ("simplex", "phase1_feasible", None),
    ("oracle", "enumerate_compositions", _compositions),
    ("oracle", "apply_oracle", None),
    ("oracle", "apply_oracle_to_copy", None),
    ("oracle", "overlap", None),
    ("amplitude", "signed_sqrt_sum", _terms),
    ("identifier", "run_identification", _queries),
    ("serialize", "scheme_from_doc", None),
    ("serialize", "scheme_to_doc", None),
    ("serialize", "dumps", _bytes),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._requests = 0

    def wrap(self, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            if stack:
                parent = stack[-1]
            else:
                parent = -1
                self._requests += 1
            span = [name, perf_counter(), 0.0, parent, self._requests]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k.startswith("groverid.")]
        for module_name, qualname, counter in TARGETS:
            module = sys.modules[f"groverid.{module_name}"]
            name = f"{module_name}.{qualname}"
            if "." in qualname:
                owner_name, attr = qualname.split(".")
                owner = getattr(module, owner_name)
                setattr(owner, attr, staticmethod(self.wrap(name, getattr(owner, attr), counter)))
                continue
            original = getattr(module, qualname)
            wrapper = self.wrap(name, original, counter)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

    def rollup(self) -> dict[str, float]:
        """Totals per span name (calls, inclusive and self seconds), the
        counters, and the overlaps evaluated inside identification runs."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: defaultdict[str, float] = defaultdict(float, self.counts)
        for k, (name, start, end, parent, _) in enumerate(self.spans):
            totals[f"{name}.calls"] += 1
            totals[f"{name}.s"] += end - start
            totals[f"{name}.self_s"] += end - start - child[k]
            if name == "oracle.overlap" and parent >= 0 and self.spans[parent][0] == "identifier.run_identification":
                totals["identifier.run_identification.overlaps"] += 1
        return totals
