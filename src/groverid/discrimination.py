"""Single-copy discrimination power.

A one-copy input state tells two phase oracles i and j apart exactly
when its squared moduli on i and j sum to 1/2.  The pairs a state can
discriminate form its discrimination graph, and three canonical block
states (quad, pair, star) dominate everything a single copy can do: any
nontrivial state can be replaced by one of them without losing edges.

A graph on 1..N is one integer mask over the C(N,2) pairs: bit k stands
for the k-th pair of ``all_pairs(N)``, so the row of pairs (i, j > i) is
a contiguous run of bits.  That layout is known in this module only.
Every graph, dense state and pair list is capped at ``MAX_PAIRS`` pairs,
checked before anything of that size is allocated.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .amplitude import SqrtRational
from .exceptions import ResourceCapError, TrivialStateError

#: Tolerance of the float-mode checks on one-copy states (normalization
#: and the half-sum test); exact states never use it.
FLOAT_TOL = 1e-9

#: Largest pair universe C(n,2) a graph, a dense state or a pair list may span.
MAX_PAIRS = 10**7

#: A one-copy amplitude: exact (SqrtRational) or floating point (complex).
AmpValue = Union[SqrtRational, complex]

Edge = tuple[int, int]


def value_mag2(v: AmpValue) -> Fraction | float:
    """Squared modulus of an amplitude, exact when the amplitude is."""
    if isinstance(v, SqrtRational):
        return v.mag2
    m = abs(v)
    return m * m  # overflows to inf, which the norm check rejects


def value_to_complex(v: AmpValue) -> complex:
    if isinstance(v, SqrtRational):
        return complex(float(v))
    return complex(v)


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
    """One-copy state p_1 |1> + ... + p_N |N|, dense over 1..N.

    Exact when every amplitude is a SqrtRational, otherwise complex
    floats with the usual 1e-9 normalization tolerance.
    """

    __slots__ = ("n", "amps", "exact")

    def __init__(self, n: int, amps: Sequence[AmpValue] | Mapping[int, AmpValue]):
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {n}")
        pair_count(n)
        if isinstance(amps, Mapping):
            for i in amps:
                if not 1 <= i <= n:
                    raise ValueError(f"index {i} out of range 1..{n}")
            zero = SqrtRational.zero()
            values = [amps.get(i, zero) for i in range(1, n + 1)]
        else:
            values = list(amps)
            if len(values) != n:
                raise ValueError(f"expected {n} amplitudes, got {len(values)}")
        exact = all(isinstance(v, SqrtRational) for v in values)
        if not exact:
            values = [value_to_complex(v) for v in values]
        self.n = n
        self.amps = tuple(values)
        self.exact = exact
        norm = sum(value_mag2(v) for v in values)
        if exact:
            if norm != 1:
                raise ValueError(f"exact state has squared norm {norm}, expected 1")
        elif not abs(norm - 1.0) <= FLOAT_TOL:  # also rejects NaN
            raise ValueError(f"state has squared norm {norm!r}, expected 1 +/- {FLOAT_TOL}")

    def mag2(self, i: int) -> Fraction | float:
        if not 1 <= i <= self.n:
            raise ValueError(f"index {i} out of range 1..{self.n}")
        return value_mag2(self.amps[i - 1])

    def __repr__(self) -> str:
        mode = "exact" if self.exact else "float"
        return f"SingleCopyState(n={self.n}, {mode})"


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
        if self.kind not in self._SIZES:
            raise ValueError(f"unknown block kind {self.kind!r}")
        if self.n < self._MIN_N[self.kind]:
            raise ValueError(f"{self.kind} block needs n >= {self._MIN_N[self.kind]}")
        if len(self.indices) != self._SIZES[self.kind]:
            raise ValueError(f"{self.kind} block needs {self._SIZES[self.kind]} indices")
        if len(set(self.indices)) != len(self.indices):
            raise ValueError(f"block indices must be distinct: {self.indices}")
        if any(not 1 <= i <= self.n for i in self.indices):
            raise ValueError(f"block indices {self.indices} out of range 1..{self.n}")
        if self.indices != tuple(sorted(self.indices)):
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
    """True when the state's squared moduli on i and j sum to exactly 1/2
    (within 1e-9 in float mode)."""
    if i == j:
        raise ValueError("pair indices must be distinct")
    total = s.mag2(i) + s.mag2(j)
    if s.exact:
        return total == Fraction(1, 2)
    return abs(total - 0.5) <= FLOAT_TOL


def discrimination_graph(s: SingleCopyState) -> DiscriminationGraph:
    """Graph of all pairs the state discriminates."""
    bits = "".join("1" if copy_discriminates(s, i, j) else "0" for i, j in all_pairs(s.n))
    return DiscriminationGraph(s.n, int(bits[::-1] or "0", 2))


def block_state(b: CanonicalBlock) -> SingleCopyState:
    """The canonical state of a block, squared moduli stored exactly."""
    n = b.n
    pair_count(n)
    if b.kind == "quad":
        amp = SqrtRational.sqrt(Fraction(1, 4))
        return SingleCopyState(n, {i: amp for i in b.indices})
    if b.kind == "pair":
        amp = SqrtRational.sqrt(Fraction(1, 2))
        return SingleCopyState(n, {i: amp for i in b.indices})
    center = b.indices[0]
    center_amp = SqrtRational.sqrt(Fraction(n - 3, 2 * (n - 2)))
    rest_amp = SqrtRational.sqrt(Fraction(1, 2 * (n - 2)))
    amps = {i: rest_amp for i in range(1, n + 1)}
    amps[center] = center_amp
    return SingleCopyState(n, amps)


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
