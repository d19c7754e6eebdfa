"""Seeded request sets for the three workloads, with their expected answers.

Every workload is a fixed multiset of CLI requests per pass.  The seed
changes only index labels, hidden targets, block order and (in run.py)
request order, never the sizes, so passes cost the same on every seed.
Each input file is checked with the independent code in reference.py
before use, so a bad generator stops the benchmark instead of being
counted as a program failure.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference as ref

# product: verify on relabelled construction schemes, two of them with
# one block dropped; the cover search at its three feasible sizes (9 and
# 10 twice, so the slowest request kind has enough samples for the
# tail); and the construction itself.
VERIFY_SIZES = (150, 175, 200, 225, 250, 275, 300)
MUTILATED_SIZES = (175, 250)
COVER_SIZES = (8, 9, 9, 10, 10)
COVER_MAX_N = 10
PRODUCT_MIN_T = {6: 3, 8: 4, 9: 5, 10: 5}
BUILD_SIZES = (120, 210, 300)

# entangled: the LP scan, feasible and infeasible builds, and verify on
# level-mix witness files.
ENTANGLED_SEARCH_SIZES = (5, 6, 7, 8)
ENTANGLED_BUILDS = ((5, 3), (6, 2), (7, 2), (7, 3), (8, 2), (8, 3), (9, 2))
WITNESS_CASES = tuple((n, t) for n in (5, 6, 7, 8) for t in range(n // 2, n // 2 + 4))

# identify: (a) the default construction, (b) star-mixed product files,
# (c) entangled weight profiles.
CONSTRUCTION_SIZES = (10, 11, 12, 13, 14, 14)
STAR_SIZES = (7, 8, 9, 10)
IDENTIFY_WITNESSES = ((5, 2), (6, 3), (7, 3), (7, 4))

Check = Callable[[dict], "str | None"]


@dataclass(frozen=True)
class Request:
    kind: str
    argv: tuple[str, ...]
    expect_code: int
    check: Check


class Inputs:
    """Writes the seeded scheme files of one set-up into a directory."""

    def __init__(self, rng: random.Random, workdir: Path, schemes):
        self.rng = rng
        self.workdir = workdir
        self.schemes = schemes  # groverid.schemes, for the construction
        self.files = 0

    def write(self, doc: dict) -> str:
        self.files += 1
        path = self.workdir / f"scheme{self.files}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def construction_blocks(self, n: int, labels: list[int]) -> list[dict]:
        """The program's grouping construction on n, index k renamed to
        labels[k-1], in seeded block order."""
        blocks = []
        for block in self.schemes.construct_product_scheme(n).blocks:
            i, j = sorted(labels[v - 1] for v in block.indices)
            blocks.append({"type": "pair", "i": i, "j": j})
        self.rng.shuffle(blocks)
        return blocks

    def relabelled_construction(self, n: int, drop_one: bool) -> tuple[str, list]:
        labels = self.rng.sample(range(1, n + 1), n)
        blocks = self.construction_blocks(n, labels)
        if drop_one:
            blocks.pop(self.rng.randrange(len(blocks)))
        missing = ref.uncovered_pairs(n, blocks)
        if bool(missing) != drop_one:
            raise RuntimeError(f"generated n={n} scheme has {len(missing)} uncovered pairs")
        return self.write({"kind": "product", "n": n, "blocks": blocks}), missing

    def star_mixed(self, n: int) -> tuple[str, int]:
        """star(c) tensor the construction on the other n-1 indices."""
        center = self.rng.randint(1, n)
        others = [v for v in range(1, n + 1) if v != center]
        self.rng.shuffle(others)
        blocks = [{"type": "star", "i": center}] + self.construction_blocks(n - 1, others)
        if ref.uncovered_pairs(n, blocks):
            raise RuntimeError(f"generated star-mixed n={n} scheme does not cover")
        return self.write({"kind": "product", "n": n, "blocks": blocks}), len(blocks)

    def level_mix(self, n: int, t: int) -> str:
        rng = self.rng
        weights = ref.level_mix_weights(
            n, t, lambda subset: rng.choice(subset) if subset else rng.randint(1, n)
        )
        if ref.parity_defects(n, weights):
            raise RuntimeError(f"generated n={n} t={t} witness is not valid")
        doc = {
            "kind": "entangled",
            "n": n,
            "t": t,
            "weights": [
                {"composition": list(c), "q": f"{q.numerator}/{q.denominator}"}
                for c, q in weights
            ],
        }
        return self.write(doc)


def _verify_product_check(missing: list) -> Check:
    expected = [list(p) for p in missing]

    def check(doc):
        if doc.get("valid") is not (not missing):
            return f"verdict {doc.get('valid')!r}, expected {not missing}"
        if sorted(doc.get("failing_pairs", [])) != expected:
            return f"{len(doc.get('failing_pairs', []))} failing pairs, expected {len(expected)}"
        return None

    return check


def _verify_valid_check(doc):
    if doc.get("valid") is not True or doc.get("failing_pairs") != []:
        return f"expected a valid verdict, got {ref.head(doc)}"
    return None


def _cover_check(n: int) -> Check:
    def check(doc):
        if doc.get("min_t") != PRODUCT_MIN_T[n]:
            return f"min_t {doc.get('min_t')!r}, expected {PRODUCT_MIN_T[n]}"
        return ref.product_doc_problem(doc["witness"], n, PRODUCT_MIN_T[n])

    return check


def _build_check(n: int) -> Check:
    return lambda doc: ref.product_doc_problem(doc, n, ref.construction_size(n))


def _entangled_search_check(n: int) -> Check:
    min_t = ref.min_entangled_t(n)

    def check(doc):
        if doc.get("min_t") != min_t:
            return f"min_t {doc.get('min_t')!r}, expected {min_t}"
        for row in doc["lp_stats"]:
            if row["feasible"] != ref.entangled_feasible(n, row["t"]):
                return f"t={row['t']} reported feasible={row['feasible']}"
        return ref.entangled_doc_problem(doc["witness"], n, min_t)

    return check


def _entangled_build_check(n: int, t: int) -> Check:
    if ref.entangled_feasible(n, t):
        return lambda doc: ref.entangled_doc_problem(doc, n, t)
    negative = {"feasible": False, "n": n, "t": t}
    return lambda doc: None if doc == negative else f"expected {negative}, got {ref.head(doc)}"


def _identify_check(hidden: int, t: int) -> Check:
    expected = {"identified": hidden, "queries": t}
    return lambda doc: None if doc == expected else f"expected {expected}, got {doc}"


def _identify(inputs: Inputs, kind: str, n: int, t: int, scheme: str | None) -> Request:
    hidden = inputs.rng.randint(1, n)
    argv = ["identify", "--n", str(n), "--hidden", str(hidden)]
    if scheme is not None:
        argv += ["--scheme", scheme]
    return Request(kind, tuple(argv), 0, _identify_check(hidden, t))


def product(inputs: Inputs) -> list[Request]:
    requests = []
    for n in VERIFY_SIZES:
        path, missing = inputs.relabelled_construction(n, n in MUTILATED_SIZES)
        kind = "verify-mutilated" if missing else "verify-product"
        requests.append(
            Request(kind, ("verify", "--scheme", path), 1 if missing else 0,
                    _verify_product_check(missing))
        )
    for n in COVER_SIZES:
        argv = ("search", "--n", str(n), "--mode", "product", "--max-n", str(COVER_MAX_N))
        requests.append(Request(f"search-product-{n}", argv, 0, _cover_check(n)))
    for n in BUILD_SIZES:
        requests.append(Request("build-product", ("build", "--n", str(n)), 0, _build_check(n)))
    return requests


def entangled(inputs: Inputs) -> list[Request]:
    requests = []
    for n in ENTANGLED_SEARCH_SIZES:
        argv = ("search", "--n", str(n), "--mode", "entangled")
        requests.append(Request(f"search-entangled-{n}", argv, 0, _entangled_search_check(n)))
    for n, t in ENTANGLED_BUILDS:
        argv = ("build", "--n", str(n), "--entangled", "--t", str(t))
        code = 0 if ref.entangled_feasible(n, t) else 1
        requests.append(Request(f"build-entangled-{n}-{t}", argv, code, _entangled_build_check(n, t)))
    for n, t in WITNESS_CASES:
        path = inputs.level_mix(n, t)
        requests.append(Request("verify-entangled", ("verify", "--scheme", path), 0, _verify_valid_check))
    return requests


def identify(inputs: Inputs) -> list[Request]:
    requests = []
    for n in CONSTRUCTION_SIZES:
        requests.append(_identify(inputs, f"identify-construction-{n}", n, ref.construction_size(n), None))
    for n in STAR_SIZES:
        path, t = inputs.star_mixed(n)
        requests.append(_identify(inputs, f"identify-star-{n}", n, t, path))
    requests.append(_identify(inputs, "identify-entangled", 6, 2, "n6-entangled"))
    for n, t in IDENTIFY_WITNESSES:
        requests.append(_identify(inputs, "identify-entangled", n, t, inputs.level_mix(n, t)))
    return requests


def probe(inputs: Inputs) -> list[Request]:
    """One small request per layer path.  It warms every code path before
    timing, and the traced run appends it to each pass so every layer has
    a reading on every workload."""
    path, _ = inputs.relabelled_construction(30, False)
    return [
        Request("probe", ("verify", "--scheme", path), 0, _verify_valid_check),
        Request("probe", ("verify", "--scheme", "n6-entangled"), 0, _verify_valid_check),
        Request("probe", ("build", "--n", "30"), 0, _build_check(30)),
        Request("probe", ("search", "--n", "6", "--mode", "product"), 0, _cover_check(6)),
        Request("probe", ("search", "--n", "5", "--mode", "entangled"), 0, _entangled_search_check(5)),
        _identify(inputs, "probe", 6, ref.construction_size(6), None),
        _identify(inputs, "probe", 6, 2, "n6-entangled"),
    ]


WORKLOADS = {"product": product, "entangled": entangled, "identify": identify}
