"""Single-copy discrimination power.

A one-copy input state tells two phase oracles i and j apart exactly
when its squared moduli on i and j sum to 1/2.  That test reads no
phase, so a one-copy state is held as its squared moduli alone, exact
rationals in a sparse map.  The pairs a state can discriminate form its
discrimination graph, and three canonical block states (quad, pair,
star) dominate everything a single copy can do: any nontrivial state
can be replaced by one of them without losing edges.

A graph on 1..N is one integer mask over the C(N,2) pairs: bit k stands
for the k-th pair of ``all_pairs(N)``, so the row of pairs (i, j > i) is
a contiguous run of bits.  That layout is known in this module only.
Every graph, state and pair list is capped at ``MAX_PAIRS`` pairs,
checked before anything of that size is allocated.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .exceptions import ResourceCapError, TrivialStateError

#: Largest pair universe C(n,2) a graph, a state or a pair list may span.
MAX_PAIRS = 10**7

Edge = tuple[int, int]


def pair_count(n: int) -> int:
    """C(n,2); raises ResourceCapError when it exceeds MAX_PAIRS."""
    count = n * (n - 1) // 2
    if count > MAX_PAIRS:
        raise ResourceCapError(f"n={n} spans {count} pairs, over the cap of {MAX_PAIRS}")
    return count


def all_pairs(n: int) -> list[Edge]:
    """All unordered index pairs (i, j) with 1 <= i < j <= n, lexicographic."""
    pair_count(n)
    return list(itertools.combinations(range(1, n + 1), 2))


@functools.lru_cache(maxsize=16)
def _row_ends(n: int) -> int:
    """Mask of the pairs (i, n), the last bit of every row."""
    return int("".join("1" + "0" * (n - i - 1) for i in range(n - 1, 0, -1)), 2)


def _star(n: int, v: int) -> int:
    """Mask of the pairs holding v: its row, and its column, which is
    the ends of the rows before v shifted down by n-v."""
    start = (v - 1) * (2 * n - v) // 2
    row = ((1 << (n - v)) - 1) << start
    return row | (_row_ends(n) & ((1 << start) - 1)) >> (n - v)


class SingleCopyState:
    """One-copy state p_1 |1> + ... + p_N |N>, held as its squared moduli.

    ``mag2s`` maps each index with p_i != 0 to |p_i|^2, a rational, in
    index order; an absent index has modulus 0.  The moduli must sum to
    exactly 1, and a float modulus raises TypeError.
    """

    __slots__ = ("n", "mag2s")

    def __init__(self, n: int, mag2s: Mapping[int, Fraction | int]):
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {n}")
        pair_count(n)
        store: dict[int, Fraction] = {}
        for i, q in sorted(mag2s.items()):
            if not 1 <= i <= n:
                raise ValueError(f"index {i} out of range 1..{n}")
            if not isinstance(q, (int, Fraction)) or isinstance(q, bool):
                raise TypeError(f"|p_{i}|^2 must be a rational, got {type(q).__name__}")
            if q < 0:
                raise ValueError(f"negative |p_{i}|^2 = {q}")
            if q:
                store[i] = Fraction(q)
        norm = sum(store.values(), Fraction(0))
        if norm != 1:
            raise ValueError(f"exact state has squared norm {norm}, expected 1")
        self.n = n
        self.mag2s = store

    def mag2(self, i: int) -> Fraction:
        if not 1 <= i <= self.n:
            raise ValueError(f"index {i} out of range 1..{self.n}")
        return self.mag2s.get(i, Fraction(0))

    def __repr__(self) -> str:
        return f"SingleCopyState(n={self.n}, {len(self.mag2s)} nonzero)"


@dataclass(frozen=True)
class DiscriminationGraph:
    """Undirected graph on vertices 1..n whose edges are the oracle pairs
    a state can discriminate: bit k of ``mask`` is ``all_pairs(n)[k]``."""

    n: int
    mask: int

    def __post_init__(self):
        if self.mask < 0 or self.mask.bit_length() > pair_count(self.n):
            raise ValueError(f"mask has bits beyond the pairs of n={self.n}")

    @classmethod
    def complete(cls, n: int) -> "DiscriminationGraph":
        return cls(n, (1 << pair_count(n)) - 1)

    def __iter__(self) -> Iterator[Edge]:
        """The edges in all_pairs order, found row by row."""
        bits = bin(self.mask)[:1:-1]
        i, start, k = 1, 0, bits.find("1")
        while k >= 0:
            while k >= start + self.n - i:
                start, i = start + self.n - i, i + 1
            yield i, i + 1 + k - start
            k = bits.find("1", k + 1)

    @property
    def edges(self) -> frozenset[Edge]:
        return frozenset(self)


@dataclass(frozen=True)
class CanonicalBlock:
    """One of the three canonical one-copy blocks on ambient dimension n.

    kind "quad":  amplitude 1/2 on four distinct indices.
    kind "pair":  amplitude 1/sqrt(2) on two distinct indices.
    kind "star":  amplitude sqrt((n-3)/(2(n-2))) on its center and
                  sqrt(1/(2(n-2))) on every other index (n >= 3).
    """

    kind: str
    indices: tuple[int, ...]
    n: int

    _SIZES = {"quad": 4, "pair": 2, "star": 1}
    _MIN_N = {"quad": 4, "pair": 2, "star": 3}

    def __post_init__(self):
        kind, indices, n = self.kind, self.indices, self.n
        size = self._SIZES.get(kind)
        # Fast accept: a tuple of the kind's size, 1 <= i1 < ... < ik <= n.
        # Anything else, and a comparison of unorderable values, is left
        # to the checks below, so they alone reject and name the reason.
        try:
            if type(indices) is tuple and len(indices) == size and n >= self._MIN_N[kind]:
                match indices:
                    case (i,) if 1 <= i <= n:
                        return
                    case (i, j) if 1 <= i < j <= n:
                        return
                    case (i, j, k, l) if 1 <= i < j < k < l <= n:
                        return
        except TypeError:
            pass
        if size is None:
            raise ValueError(f"unknown block kind {kind!r}")
        if n < self._MIN_N[kind]:
            raise ValueError(f"{kind} block needs n >= {self._MIN_N[kind]}")
        if len(indices) != size:
            raise ValueError(f"{kind} block needs {size} indices")
        if len(set(indices)) != size:
            raise ValueError(f"block indices must be distinct: {indices}")
        if min(indices) < 1 or max(indices) > n:
            raise ValueError(f"block indices {indices} out of range 1..{n}")
        if not all(map(operator.lt, indices, indices[1:])):  # distinct, so ascending
            raise ValueError("block indices must be sorted ascending")

    @classmethod
    def quad(cls, a: int, b: int, c: int, d: int, n: int) -> "CanonicalBlock":
        return cls("quad", tuple(sorted((a, b, c, d))), n)

    @classmethod
    def pair(cls, i: int, j: int, n: int) -> "CanonicalBlock":
        return cls("pair", tuple(sorted((i, j))), n)

    @classmethod
    def star(cls, i: int, n: int) -> "CanonicalBlock":
        return cls("star", (i,), n)


def copy_discriminates(s: SingleCopyState, i: int, j: int) -> bool:
    """True when the state's squared moduli on i and j sum to exactly 1/2."""
    if i == j:
        raise ValueError("pair indices must be distinct")
    return s.mag2(i) + s.mag2(j) == Fraction(1, 2)


def discrimination_graph(s: SingleCopyState) -> DiscriminationGraph:
    """Graph of all pairs the state discriminates, built row by row: the
    row of pairs (i, j > i) is the tail, past i, of the indicator string
    of the indices whose modulus is 1/2 - |p_i|^2."""
    n, half, zero = s.n, Fraction(1, 2), Fraction(0)
    mag2s = [s.mag2s.get(i, zero) for i in range(1, n + 1)]
    where: dict[Fraction, list[int]] = {}
    for k, q in enumerate(mag2s):
        where.setdefault(q, []).append(k)
    rows = {}
    for q in where:
        row = bytearray(b"0" * n)
        for k in where.get(half - q, ()):
            row[k] = ord("1")
        rows[q] = row.decode()
    bits = "".join(rows[q][k + 1:] for k, q in enumerate(mag2s))
    return DiscriminationGraph(n, int(bits[::-1] or "0", 2))


def block_state(b: CanonicalBlock) -> SingleCopyState:
    """The canonical state of a block: 1/|indices| on each index of a pair
    or quad; (n-3)/(2(n-2)) on a star's center and 1/(2(n-2)) elsewhere."""
    n = b.n
    pair_count(n)
    if b.kind != "star":
        share = Fraction(1, len(b.indices))
        return SingleCopyState(n, {i: share for i in b.indices})
    mag2s = dict.fromkeys(range(1, n + 1), Fraction(1, 2 * (n - 2)))
    mag2s[b.indices[0]] = Fraction(n - 3, 2 * (n - 2))
    return SingleCopyState(n, mag2s)


def block_graph(b: CanonicalBlock) -> DiscriminationGraph:
    """Combinatorial shortcut for discrimination_graph(block_state(b)): a
    quad's pairs have both ends in it, a pair's or a star's exactly one.

    At n=4 the star's amplitudes coincide with the uniform quad, so its
    true graph is the full K4 rather than the nominal star shape.
    """
    n = b.n
    pair_count(n)
    if b.kind == "star" and n == 4:
        return DiscriminationGraph.complete(4)
    one_end = any_end = 0
    for star in (_star(n, v) for v in b.indices):
        one_end, any_end = one_end ^ star, any_end | star
    return DiscriminationGraph(n, any_end ^ one_end if b.kind == "quad" else one_end)


def candidate_blocks(n: int) -> Iterator[CanonicalBlock]:
    """All canonical blocks on dimension n in the fixed deterministic
    order: pairs, then quads, then stars, lexicographic indices."""
    for i, j in all_pairs(n):
        yield CanonicalBlock.pair(i, j, n)
    if n >= 4:
        for quad in itertools.combinations(range(1, n + 1), 4):
            yield CanonicalBlock("quad", quad, n)
    if n >= 3:
        for i in range(1, n + 1):
            yield CanonicalBlock.star(i, n)


def canonicalize(s: SingleCopyState) -> CanonicalBlock:
    """Replace a nontrivial state by a canonical block that discriminates
    at least the same pairs; first match in the fixed block order."""
    graph = discrimination_graph(s)
    if not graph.mask:
        raise TrivialStateError("state discriminates no pair")
    for block in candidate_blocks(s.n):
        if not graph.mask & ~block_graph(block).mask:
            return block
    raise ValueError("no canonical block covers the state's graph")


def uncovered(graphs: Iterable[DiscriminationGraph], n: int) -> DiscriminationGraph:
    """The pairs of 1..n in none of the graphs: the complete graph's mask
    with the OR of theirs taken out."""
    union = 0
    for g in graphs:
        if g.n != n:
            raise ValueError(f"graph on {g.n} vertices mixed into cover for n={n}")
        union |= g.mask
    return DiscriminationGraph(n, DiscriminationGraph.complete(n).mask & ~union)


def is_complete_cover(graphs: Iterable[DiscriminationGraph], n: int) -> bool:
    """True when the union of the graphs is the complete graph on n."""
    return not uncovered(graphs, n).mask
