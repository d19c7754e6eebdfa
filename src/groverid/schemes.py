"""Scheme construction, verification, and closed-form bounds.

A product scheme is a list of one-copy blocks whose discrimination
graphs must jointly cover the complete graph.  An entangled scheme is
summarized by a weight profile: exact rational masses on compositions,
valid exactly when every pair's odd-parity mass equals 1/2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

from . import discrimination
from .discrimination import CanonicalBlock, all_pairs, block_state, pair_count
from .exceptions import IndistinguishableError, ResourceCapError
from .oracle import AmpState, Composition, StateTable, _over_common_denominator

#: Cap on the entries identification reads: the tuple count of an
#: expanded state, a weight profile's compositions times t, or a product
#: scheme's support entries summed over its blocks.
MAX_TUPLES = 1_000_000

#: Count parities 0 and 1 as the digits "0" and "1".
_PARITY_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


class ProductScheme:
    """Ordered list of canonical one-copy blocks; the input state is
    their tensor product.  An empty scheme is allowed only for n=1,
    where there is nothing to discriminate."""

    __slots__ = ("n", "blocks")

    def __init__(self, n: int, blocks: Sequence[CanonicalBlock]):
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {n}")
        blocks = tuple(blocks)
        if not blocks and n != 1:
            raise ValueError("empty scheme is only valid for n=1")
        for b in blocks:
            if not isinstance(b, CanonicalBlock):
                raise TypeError(f"unsupported block type {type(b).__name__}")
            if b.n != n:
                raise ValueError(f"block on dimension {b.n} in scheme for n={n}")
        self.n = n
        self.blocks = blocks

    @property
    def t(self) -> int:
        return len(self.blocks)

    def __repr__(self) -> str:
        return f"ProductScheme(n={self.n}, t={self.t})"


class WeightProfile:
    """Exact rational masses on compositions for a t-copy entangled
    scheme; masses are nonnegative and sum to exactly 1.

    ``denominator`` is D, the lcm of the mass denominators, and
    ``numerators`` holds each mass times D, in ``weights`` order.
    """

    __slots__ = ("n", "t", "weights", "denominator", "numerators")

    def __init__(self, n: int, t: int, weights: Mapping[Composition, Fraction]):
        if n < 1 or t < 1:
            raise ValueError("need n >= 1 and t >= 1")
        store: dict[Composition, Fraction] = {}
        for comp, q in weights.items():
            if type(q) is not Fraction:
                q = Fraction(q)
            counts = comp.counts
            if len(counts) != n:
                raise ValueError(f"composition {counts} has {len(counts)} slots, expected {n}")
            if sum(counts) != t:
                raise ValueError(f"composition {counts} sums to {sum(counts)}, expected {t}")
            if q.numerator < 0:
                raise ValueError(f"negative mass {q} on {counts}")
            if q:
                store[comp] = q
        denominator, numerators = _over_common_denominator(list(store.values()))
        total = sum(numerators)
        if total != denominator:
            raise ValueError(f"masses sum to {Fraction(total, denominator)}, expected exactly 1")
        self.n = n
        self.t = t
        self.weights = store
        self.denominator = denominator
        self.numerators = tuple(numerators)

    def __repr__(self) -> str:
        return f"WeightProfile(n={self.n}, t={self.t}, {len(self.weights)} compositions)"


Scheme = Union[ProductScheme, WeightProfile]


@dataclass(frozen=True)
class PairDefect:
    pair: tuple[int, int]
    defect: Fraction | None


@dataclass(frozen=True)
class SchemeReport:
    """Verification verdict; valid exactly when no pair fails."""

    valid: bool
    method: str
    failing_pairs: tuple[PairDefect, ...]

    def __post_init__(self):
        if self.valid != (not self.failing_pairs):
            raise ValueError("valid must match emptiness of failing_pairs")


def construct_product_scheme(n: int) -> ProductScheme:
    """The grouping construction: split 1..n into groups of three, give
    each group {a, b, c} the blocks <a,b> and <a,c>, and cover a leftover
    of one or two elements with one extra pair block apiece anchored at 1.
    The pair cap is checked first: a scheme over it can be neither
    verified nor graphed.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    pair_count(n)
    if n == 1:
        return ProductScheme(1, [])
    if n == 2:
        raise IndistinguishableError(
            "the two oracles on n=2 differ only by a global phase; "
            "no scheme with any number of copies exists"
        )
    blocks: list[CanonicalBlock] = []
    for g in range(n // 3):
        a = 3 * g + 1
        blocks.append(CanonicalBlock.pair(a, a + 1, n))
        blocks.append(CanonicalBlock.pair(a, a + 2, n))
    if n % 3 == 1:
        blocks.append(CanonicalBlock.pair(1, n, n))
    elif n % 3 == 2:
        blocks.append(CanonicalBlock.pair(1, n - 1, n))
        blocks.append(CanonicalBlock.pair(1, n, n))
    return ProductScheme(n, blocks)


def construction_size(n: int) -> int:
    """Copy count of the grouping construction: 2*floor(n/3) + (n mod 3)."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if n == 1:
        return 0
    if n == 2:
        raise IndistinguishableError("no scheme exists for n=2")
    return 2 * (n // 3) + n % 3


def verify_product(s: ProductScheme) -> SchemeReport:
    """Coverage check: the blocks' graphs (``block_graph``) must cover the
    complete graph; the pairs they leave out fail, in all_pairs order.

    No graph is built.  A pair block {i, j} covers uv exactly when it
    holds exactly one of u and v, so the pair blocks cover uv exactly
    when u and v differ in their signature, the set of pair blocks
    holding them.  A star covers every pair at its centre (any star
    covers K4 at n = 4), and a quad the pairs inside it.  So the
    vertices that are no star's centre fall into signature classes, and
    a pair fails exactly when both its ends lie in one class and no quad
    holds both.  That costs O(n + sum of block sizes) plus the
    same-class pairs and one merge of their sorted runs.  The pair cap
    is checked first.
    """
    n = s.n
    pair_count(n)
    signatures: list[list[int]] = [[] for _ in range(n + 1)]
    centres = set()
    in_quad = set()
    for k, b in enumerate(s.blocks):
        if b.kind == "pair":
            for v in b.indices:
                signatures[v].append(k)
        elif b.kind == "star":
            centres.add(b.indices[0])
        else:
            in_quad.update(itertools.combinations(b.indices, 2))
    if n == 4 and centres:
        centres = set(range(1, 5))  # any star covers K4
    classes: dict[tuple[int, ...], list[int]] = {}
    for v in range(1, n + 1):
        if v not in centres:
            classes.setdefault(tuple(signatures[v]), []).append(v)
    # Each class yields its pairs in order, so the sort merges sorted runs.
    gaps = sorted(
        pair
        for members in classes.values()
        for pair in itertools.combinations(members, 2)
        if pair not in in_quad
    )
    failing = tuple(PairDefect(pair, None) for pair in gaps)
    return SchemeReport(valid=not failing, method="coverage-check", failing_pairs=failing)


def _parity_columns(w: WeightProfile) -> list[tuple[int, list[Composition], list[int]]]:
    """The profile's compositions grouped by integer mass a = q * D, in
    ``weights`` order within each class, with the class's n parity
    columns: bit c of column i is set when the class's c-th composition
    has an odd count on index i."""
    n = w.n
    classes: dict[int, list[Composition]] = {}
    for comp, a in zip(w.weights, w.numerators):
        classes.setdefault(a, []).append(comp)
    columns = []
    for a, comps in classes.items():
        # Byte i of every row, last row first, spells column i in binary.
        rows = (bytes(map((1).__and__, comp.counts)) for comp in reversed(comps))
        parity = b"".join(rows).translate(_PARITY_DIGITS)
        columns.append((a, comps, [int(parity[i::n], 2) for i in range(n)]))
    return columns


def verify_entangled(w: WeightProfile) -> SchemeReport:
    """Exact parity-mass check: for every pair, the mass on odd-parity
    compositions must equal exactly 1/2.

    Pair (i, j) has odd parity in a composition (``tau_parity``) exactly
    when one of its counts on i and j is odd and the other even.  With D
    the lcm of the mass denominators, every mass is a/D for an integer a,
    and the compositions fall into classes of equal a.  A class keeps one
    column per index (``_parity_columns``): an int whose bit c is set
    when the class's c-th composition has an odd count there.  So the
    pair's odd-parity mass is total/D with

        total = sum over classes of a * popcount(col_a[i] ^ col_a[j]),

    an identity between integers that loses nothing.  The pair is valid
    exactly when 2 * total == D, and its defect mass - 1/2 is
    (2 * total - D) / (2 * D).  Failing pairs come in ``all_pairs`` order.
    The work is one popcount per pair per class, so the pair cap bounds
    the classes times C(n,2), checked before any column is built.
    """
    n = w.n
    pairs = pair_count(n)
    classes = len(set(w.numerators))
    if classes * pairs > discrimination.MAX_PAIRS:
        raise ResourceCapError(
            f"{classes} mass classes x {pairs} pairs, over the cap of {discrimination.MAX_PAIRS}"
        )
    denominator = w.denominator
    columns = _parity_columns(w)
    # The total of a valid pair; an odd D leaves no pair valid.
    half = denominator // 2 if denominator % 2 == 0 else -1
    failing = []
    for i in range(n - 1):
        totals = [0] * (n - 1 - i)
        for a, _, col in columns:
            ci = col[i]
            totals = [acc + a * (ci ^ cj).bit_count() for acc, cj in zip(totals, col[i + 1:])]
        if totals.count(half) == len(totals):
            continue
        for j, total in enumerate(totals, start=i + 2):
            if 2 * total != denominator:
                defect = Fraction(2 * total - denominator, 2 * denominator)
                failing.append(PairDefect((i + 1, j), defect))
    return SchemeReport(valid=not failing, method="parity-mass", failing_pairs=tuple(failing))


def expand_to_state(s: Scheme) -> AmpState:
    """Lift a scheme to its multi-copy input state, one ``StateTable``
    that holds by construction, every sign positive.

    Product schemes expand to the full tensor product of their blocks.
    Identification never expands one (it runs block by block), so this
    branch is the tests' reference for small n.  Weight profiles place
    amplitude sqrt(q) on one representative tuple per composition, row r
    for the r-th composition of ``weights``, which preserves every pair
    condition because the parity depends on a tuple only through its
    composition.

    Both caps are checked before the work they bound: a profile's tuple
    entries (compositions times t) before any tuple is built, and a
    product's running tuple count after each block's support.
    """
    if isinstance(s, WeightProfile):
        entries = len(s.weights) * s.t
        if entries > MAX_TUPLES:
            raise ResourceCapError(f"{entries} tuple entries exceeds cap {MAX_TUPLES}")
        tuples = [comp.representative_tuple() for comp in s.weights]
        return AmpState.on(StateTable(s.n, s.t, tuples, s.weights.values()))
    if not s.blocks:
        raise ValueError("an empty scheme has no input state")
    supports = []
    count = 1
    for b in s.blocks:
        supports.append(block_state(b).mag2s)
        count *= len(supports[-1])
        if count > MAX_TUPLES:
            raise ResourceCapError(f"over {MAX_TUPLES} tuples after {len(supports)} blocks")
    tuples = itertools.product(*supports)
    mag2s = map(math.prod, itertools.product(*(m.values() for m in supports)))
    return AmpState.on(StateTable(s.n, len(supports), tuples, mag2s))


def builtin(name: str, diag: int = 3) -> Scheme:
    """The built-in example schemes.

    n4-single:     one quad block, the only single-copy scheme (n=4).
    n5-product:    star(1) tensor quad{2,3,4,5}, two copies for n=5.
    n6-entangled:  the two-copy entangled profile for n=6, mass 1/16 on
                   every mixed pair composition plus 1/16 on one doubled
                   index (``diag``, default 3 — any index works).
    """
    if name == "n4-single":
        return ProductScheme(4, [CanonicalBlock.quad(1, 2, 3, 4, 4)])
    if name == "n5-product":
        return ProductScheme(5, [CanonicalBlock.star(1, 5), CanonicalBlock.quad(2, 3, 4, 5, 5)])
    if name == "n6-entangled":
        if not 1 <= diag <= 6:
            raise ValueError(f"diag index {diag} out of range 1..6")
        sixteenth = Fraction(1, 16)
        weights: dict[Composition, Fraction] = {}
        for i, j in all_pairs(6):
            counts = [0] * 6
            counts[i - 1] = counts[j - 1] = 1
            weights[Composition(tuple(counts))] = sixteenth
        counts = [0] * 6
        counts[diag - 1] = 2
        weights[Composition(tuple(counts))] = sixteenth
        return WeightProfile(6, 2, weights)
    raise ValueError(f"unknown builtin scheme {name!r}")


BUILTIN_NAMES = ("n4-single", "n5-product", "n6-entangled")


def general_lower_bound(n: int) -> int:
    """Smallest integer t with t >= (n - sqrt(n))/2, in exact integer
    arithmetic: t works exactly when n - 2t <= isqrt(n)."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return (n - math.isqrt(n) + 1) // 2
