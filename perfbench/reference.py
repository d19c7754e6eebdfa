"""Independent answers for the benchmark's answer checks.

Nothing here imports groverid.  Coverage is the half-sum rule worked out
per block kind, parity masses are summed from the raw weight list, and
entangled feasibility is the closed-form level bracket, so a wrong
answer from the program cannot also make its own check pass.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

HALF = Fraction(1, 2)


def construction_size(n: int) -> int:
    """Copy count of the grouping construction for n >= 3."""
    return 2 * (n // 3) + n % 3


def _block_rows(block: dict, n: int) -> list[tuple[int, int]]:
    """(vertex, neighbour bitmask) rows of one block's discrimination graph.

    A pair block puts squared modulus 1/2 on i and j, so it tells apart
    exactly the pairs with one end in {i, j}.  A quad puts 1/4 on four
    indices: the pairs inside them.  A star puts (n-3)/(2(n-2)) on its
    center and 1/(2(n-2)) elsewhere: the pairs through the center, and
    at n=4, where every modulus is 1/4, all six pairs.
    """
    full = (1 << (n + 1)) - 2
    kind = block["type"]
    if kind == "pair":
        i, j = block["i"], block["j"]
        rest = full & ~(1 << i) & ~(1 << j)
        return [(i, rest), (j, rest)]
    if kind == "quad":
        idx = [block[k] for k in "abcd"]
        members = sum(1 << v for v in idx)
        return [(v, members & ~(1 << v)) for v in idx]
    if kind == "star":
        c = block["i"]
        if n == 4:
            return [(v, full & ~(1 << v)) for v in range(1, 5)]
        return [(c, full & ~(1 << c))]
    raise ValueError(f"unknown block type {kind!r}")


def uncovered_pairs(n: int, blocks: list[dict]) -> list[tuple[int, int]]:
    """Pairs (i < j) that no block of a product scheme discriminates."""
    rows = [0] * (n + 1)
    for block in blocks:
        for v, mask in _block_rows(block, n):
            rows[v] |= mask
    return [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if not (rows[i] >> j & 1 or rows[j] >> i & 1)
    ]


def odd_fraction(n: int, level: int) -> Fraction:
    """Share of pairs with odd parity when exactly ``level`` counts are odd."""
    return Fraction(level * (n - level), n * (n - 1) // 2)


def levels(n: int, t: int) -> list[int]:
    """Odd-count levels a t-copy composition on n slots can have."""
    return list(range(t % 2, min(t, n) + 1, 2))


def entangled_feasible(n: int, t: int) -> bool:
    """A t-copy scheme exists exactly when 1/2 lies between the least and
    greatest odd-pair share over the reachable levels (symmetrize any
    solution over the permutations of 1..n)."""
    shares = [odd_fraction(n, level) for level in levels(n, t)]
    return min(shares) <= HALF <= max(shares)


def min_entangled_t(n: int) -> int:
    t = 1
    while not entangled_feasible(n, t):
        t += 1
    return t


def parity_defects(n: int, weights: list[tuple[tuple[int, ...], Fraction]]) -> list[tuple[int, int]]:
    """Pairs whose odd-parity mass differs from 1/2, summed exactly."""
    odd_masks = [
        (sum(1 << i for i, c in enumerate(counts, start=1) if c % 2), q)
        for counts, q in weights
    ]
    bad = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            mass = sum((q for m, q in odd_masks if (m >> i ^ m >> j) & 1), Fraction(0))
            if mass != HALF:
                bad.append((i, j))
    return bad


def entangled_doc_problem(doc: dict, n: int, t: int) -> str | None:
    """Why an entangled scheme document is not a valid (n, t) witness, or None."""
    if doc.get("kind") != "entangled" or doc.get("n") != n or doc.get("t") != t:
        return f"expected an entangled n={n} t={t} scheme, got {head(doc)}"
    weights = []
    for entry in doc.get("weights", []):
        counts = tuple(entry["composition"])
        q = Fraction(entry["q"])
        if len(counts) != n or sum(counts) != t or min(counts) < 0 or q < 0:
            return f"bad weight entry {entry}"
        weights.append((counts, q))
    if sum((q for _, q in weights), Fraction(0)) != 1:
        return "masses do not sum to 1"
    bad = parity_defects(n, weights)
    if bad:
        return f"{len(bad)} pairs with odd-parity mass != 1/2"
    return None


def product_doc_problem(doc: dict, n: int, t: int | None) -> str | None:
    """Why a product scheme document is not a complete cover on n with t
    blocks (any t when None), or None."""
    if doc.get("kind") != "product" or doc.get("n") != n:
        return f"expected a product n={n} scheme, got {head(doc)}"
    blocks = doc.get("blocks", [])
    if t is not None and len(blocks) != t:
        return f"expected {t} blocks, got {len(blocks)}"
    missing = uncovered_pairs(n, blocks)
    if missing:
        return f"{len(missing)} pairs uncovered"
    return None


def head(doc) -> str:
    text = repr(doc)
    return text if len(text) < 120 else text[:117] + "..."


def level_mix_weights(n: int, t: int, anchor) -> list[tuple[tuple[int, ...], Fraction]]:
    """A t-copy entangled witness built from two odd-count levels.

    Each level l is spread evenly over its l-subsets S (one composition
    per subset: one copy on every member, the t - l spare copies on the
    member ``anchor(S)`` picks, which keeps its count odd).  Mixing the
    two levels that bracket 1/2 with the exact weight that hits 1/2 gives
    every pair an odd-parity mass of 1/2.  ``anchor`` receives the subset
    (empty for level 0, where it must return an index in 1..n).
    """
    shares = {level: odd_fraction(n, level) for level in levels(n, t)}
    exact = [lv for lv, f in shares.items() if f == HALF]
    if exact:
        mix = {exact[0]: Fraction(1)}
    else:
        low = max((lv for lv, f in shares.items() if f < HALF), key=lambda lv: shares[lv])
        high = min((lv for lv, f in shares.items() if f > HALF), key=lambda lv: shares[lv])
        lam = (HALF - shares[low]) / (shares[high] - shares[low])
        mix = {high: lam, low: 1 - lam}
    weights = []
    for level, mass in mix.items():
        subsets = list(combinations(range(1, n + 1), level))
        for subset in subsets:
            counts = [0] * n
            for v in subset:
                counts[v - 1] = 1
            counts[anchor(subset) - 1] += t - level
            weights.append((tuple(counts), mass / len(subsets)))
    return weights

