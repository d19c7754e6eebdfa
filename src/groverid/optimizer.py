"""Exact minimal schemes at small N.

Two exact searches: an iteratively deepened set cover over the
canonical blocks for the minimal product scheme, and a rational LP
feasibility test for the existence of a t-copy entangled scheme.  Both
are deterministic and return verifiable witnesses.

The cover search breaks the symmetry of 1..N instead of exploring every
relabelling of a partial cover (orbital branching: Ostrowski, Linderoth,
Rossi & Smriglio, Math. Program. 126, 2011).  The vertices no chosen
block holds and the branch pair does not hold are interchangeable, so a
block may bring in only the lowest of them; ``min_product_cover`` gives
the rule and its proof.  Its first round asks for a cover of
``product_lower_bound(n)`` blocks, a floor proven from the coverage
rules alone, and each later round allows one block more.  Its set-up is
lazy: a pair's candidates are listed from the pair's two ends the first
time the search branches on it, and a candidate becomes a block with a
pair mask only when the search first tries it.

The entangled LP is solved in its symmetry-reduced form.  Its pair
constraints (odd-parity mass 1/2 on every pair) are permuted among
themselves by any permutation of 1..N, so the average of a solution
over all permutations is again a solution (Gatermann & Parrilo,
J. Pure Appl. Algebra 192, 2004).  In a permutation-invariant solution
every pair has the same odd-parity mass, which is then the mean over
pairs; a composition with l odd counts (its level, ``Composition.l1``)
splits l(N-l) of the C(N,2) pairs.  So a solution exists exactly when
masses x_l >= 0, one per level a t-copy composition can reach, satisfy

    sum_l x_l = 1,    sum_l x_l * l(N-l)/C(N,2) = 1/2.

Conversely, level masses lift back to a composition witness by spreading
x_l uniformly over the l-subsets of 1..N: a pair is split by
2*C(N-2, l-1) of the C(N, l) subsets, a share of exactly l(N-l)/C(N,2).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .discrimination import CanonicalBlock, all_pairs, block_graph
from .exceptions import IndistinguishableError, ResourceCapError
from .oracle import Composition, enumerate_compositions
from .schemes import (
    WeightProfile,
    construct_product_scheme,
    construction_size,
    general_lower_bound,
)
from .simplex import HALF, ONE, phase1_feasible

#: Largest n the exhaustive cover search accepts by default.
DEFAULT_COVER_CAP = 9

#: Most search nodes one cover search may enter.
MAX_COVER_NODES = 5 * 10**6

#: Most (pair, candidate block) tests the cover search's set-up may make:
#: C(n,2) * (C(n,2) + C(n,4) + n), a bound on the worst case of its
#: on-demand lists (every pair listed), which lets n <= 20 through.
MAX_COVER_SETUP = 10**6


@dataclass(frozen=True)
class CoverInstance:
    """Set-cover instance: all C(n,2) pairs as the universe and every
    canonical block as a candidate, in the fixed pair < quad < star order.

    Nothing is listed when it is built: ``covering`` lists the candidates
    of one pair from its two ends alone."""

    n: int

    @classmethod
    def build(cls, n: int) -> "CoverInstance":
        return cls(n)

    def covering(self, a: int, b: int) -> list[tuple[int, str, tuple[int, ...]]]:
        """(vertex mask, kind, indices) of every candidate covering the
        pair a < b, in candidate order: the pair blocks with exactly one
        end in {a, b}, the quads holding both, and the stars at a and b
        (all four at n = 4).  Vertex bit v-1 stands for index v."""
        n = self.n
        bit = [0] + [1 << v for v in range(n)]
        ends = bit[a] | bit[b]
        others = [v for v in range(1, n + 1) if v != a and v != b]
        pairs = sorted((min(u, v), max(u, v)) for u in (a, b) for v in others)
        stars = range(1, 5) if n == 4 else (a, b)
        # Two sets of one size compare by the least element of their
        # difference, which adding {a, b} leaves alone: the quads come
        # out in the order of the pairs of ``others``.
        return (
            [(bit[i] | bit[j], "pair", (i, j)) for i, j in pairs]
            + [
                (ends | bit[c] | bit[d], "quad", tuple(sorted((a, b, c, d))))
                for c, d in itertools.combinations(others, 2)
            ]
            + [(bit[v], "star", (v,)) for v in stars]
        )


@dataclass(frozen=True)
class CoverSolution:
    t: int
    blocks: tuple[CanonicalBlock, ...]
    nodes_explored: int


@dataclass(frozen=True)
class LpStats:
    variables: int
    constraints: int
    pivots: int


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    witness: WeightProfile | None
    phase1_objective: Fraction
    stats: LpStats


def product_lower_bound(n: int) -> int:
    """Lower bound on the blocks of any canonical-block cover of the
    complete graph on n: 2 at n = 3, 1 at n = 4, and ceil((2n - 5) / 3)
    for n >= 5.  The exact search meets it for n = 3..15.

    The proof uses only the coverage rules of ``block_graph``: a pair
    block {i, j} covers the edges with exactly one end in {i, j}, a quad
    the six edges inside it, and a star the edges at its centre (all of
    K4 at n = 4).  At n = 3 every block covers two of the three edges.

    For n >= 5 take a cover with p pair blocks, q quads and s stars.

    - Signature lemma.  The pair blocks cover uv exactly when u and v
      lie in different sets of pair blocks.  Two vertices with the same
      nonempty set share every block of it, so they are an isolated-edge
      component of the pair-block multigraph H.  So the edges the pair
      blocks leave are those inside Z, the z vertices in no pair block,
      and the a isolated edges of H.
    - Pair blocks.  A component of H with k vertices holds at least
      k - 1 distinct blocks.  With b components of three or more
      vertices, 2a + 3b <= n - z, so p >= (n - z) - a - b, which gives
      p >= (2(n - z) - a) / 3.
    - Quads and stars.  Let m count the vertices of Z that are no star's
      centre, so s >= z - m.  Give each edge among those m vertices
      weight 1/6 and each isolated edge of H weight 1/2; all of them
      must be covered by quads and stars.  A quad carries weight at most
      1: six light edges, two isolated edges, or one isolated edge and
      one light edge.  A star centred in Z carries none, and any other
      star at most 1/2, as the isolated edges form a matching.  So
      q + s >= (z - m) + C(m, 2)/6 + a/2.
    - Adding the two bounds,
      t >= (2n - 5)/3 + (m - 4)(m - 5)/12 + (z - m)/3 + a/6,
      and every term after the first is >= 0 for integers m, z, a.
    """
    if n < 3:
        raise ValueError(f"product lower bound needs n >= 3, got {n}")
    if n == 3:
        return 2
    return (2 * n - 3) // 3


def min_product_cover(n: int, max_n: int = DEFAULT_COVER_CAP) -> CoverSolution:
    """Exact minimum number of canonical blocks covering the complete
    graph on n, with a deterministic witness.

    Iterative deepening from the floor (Korf, Artif. Intell. 27, 1985):
    a depth-first feasibility search asks for a cover of at most t
    blocks for t = ``product_lower_bound(n)``, t + 1, ... up to one below
    the grouping construction's size, and returns the first cover it
    finds; when none is smaller, the construction is the answer.  The
    search branches on the lowest uncovered pair {a, b} and prunes on
    ceil(uncovered / max coverage) > budget.  Nothing is set up in
    advance: ``CoverInstance.covering`` lists the candidates covering a
    pair the first time the search branches on it, and a candidate's
    block and pair mask (``block_graph``) are made the first time it
    passes the symmetry rule below.  ResourceCapError is raised
    before anything is built when listing every pair could take more
    than ``MAX_COVER_SETUP`` tests, and on entering more than
    ``MAX_COVER_NODES`` nodes over all the rounds.  When the construction
    already meets the floor (n = 3) nothing is searched and
    ``nodes_explored`` is 0; the construction is built only when it is
    the answer.

    Symmetry breaking.  The search carries ``touched``, the vertices of
    the blocks chosen so far; ``free`` is every vertex in neither
    ``touched`` nor {a, b}.  A block covering {a, b} is tried only when
    its new vertices (those in ``free``) are the lowest ones of ``free``;
    a block with no new vertex is always tried.  This loses no optimum:

    - A pair block {i, j} covers the edges with exactly one end in
      {i, j}, a quad the edges inside it, and a star the edges at its
      centre (all of K4 at n = 4).  So any permutation fixing every
      touched vertex maps the covered set, and with it the uncovered
      set U, to itself.
    - Take any optimal completion of U.  One of its blocks covers {a, b}.
      Permuting the free vertices, with the touched ones and a and b
      fixed, makes that block's new vertices the lowest free ones, and
      the permuted blocks are again an optimal completion of U.
    - By induction the search from U finds a completion of at most
      budget blocks, when one exists, for every ``touched`` a path can
      carry.  So the ``failed`` memo, which keeps for each U the largest
      budget whose search from U failed, stays sound when keyed by U
      alone, and from one round to the next.
    """
    if n < 3:
        if n == 2:
            raise IndistinguishableError("no scheme exists for n=2")
        raise ValueError(f"cover search needs n >= 3, got {n}")
    if n > max_n:
        raise ResourceCapError(f"cover search capped at n <= {max_n}, got {n}")
    npairs = n * (n - 1) // 2
    setup = npairs * (npairs + math.comb(n, 4) + n)
    if setup > MAX_COVER_SETUP:
        raise ResourceCapError(
            f"cover search set-up for n={n} takes {setup} tests, over the cap of {MAX_COVER_SETUP}"
        )

    size = construction_size(n)
    floor = product_lower_bound(n)
    if size == floor:
        return CoverSolution(t=floor, blocks=construct_product_scheme(n).blocks, nodes_explored=0)

    inst = CoverInstance.build(n)
    all_vertices = (1 << n) - 1
    pairs = all_pairs(n)
    pair_vertices = [(1 << (i - 1)) | (1 << (j - 1)) for i, j in pairs]
    max_cover = max(6, 2 * (n - 2), n - 1)
    # Set up on demand, keyed by a candidate's vertex mask, which tells it
    # apart: a pair's list is made when the search first branches on it,
    # and a candidate's pair mask and block when it is first tried.
    cover_lists: list[list[tuple[int, str, tuple[int, ...]]] | None] = [None] * npairs
    graphs: dict[int, int] = {}
    blocks: dict[int, CanonicalBlock] = {}
    nodes = 0
    failed: dict[int, int] = {}
    chosen: list[int] = []

    def dfs(uncovered: int, touched: int, budget: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > MAX_COVER_NODES:
            raise ResourceCapError(f"cover search for n={n} over {MAX_COVER_NODES} nodes")
        if uncovered == 0:
            return True
        if -(-uncovered.bit_count() // max_cover) > budget or failed.get(uncovered, -1) >= budget:
            return False
        branch_bit = (uncovered & -uncovered).bit_length() - 1
        free = all_vertices & ~(touched | pair_vertices[branch_bit])
        candidates = cover_lists[branch_bit]
        if candidates is None:
            candidates = cover_lists[branch_bit] = inst.covering(*pairs[branch_bit])
        for vertices, kind, indices in candidates:
            new = vertices & free
            if free & ((1 << new.bit_length()) - 1) != new:
                continue
            mask = graphs.get(vertices)
            if mask is None:
                block = blocks[vertices] = CanonicalBlock(kind, indices, n)
                mask = graphs[vertices] = block_graph(block).mask
            chosen.append(vertices)
            if dfs(uncovered & ~mask, touched | vertices, budget - 1):
                return True
            chosen.pop()
        failed[uncovered] = budget
        return False

    for t in range(floor, size):
        if dfs((1 << npairs) - 1, 0, t):
            cover = tuple(blocks[v] for v in chosen)
            return CoverSolution(t=len(cover), blocks=cover, nodes_explored=nodes)
    return CoverSolution(t=size, blocks=construct_product_scheme(n).blocks, nodes_explored=nodes)


def entangled_feasible(n: int, t: int) -> FeasibilityResult:
    """Decide whether a t-copy parallel scheme exists for n oracles.

    The scheme exists exactly when the two-row level LP of the module
    docstring is feasible; an exact phase-1 simplex decides it, and
    ``stats`` and ``phase1_objective`` describe that LP.  The witness
    lifts its basic solution: each level mass x_l is spread uniformly
    over the C(n, l) compositions that put 1 on an l-subset S and add the
    even surplus t - l to min S (to index 1 when S is empty).  The
    compositions of t into n parts are enumerated first for the
    reachable levels, so ``oracle.MAX_COMPOSITIONS`` caps the work and
    the witness size before either is allocated.
    """
    if n < 2:
        raise ValueError(f"feasibility needs n >= 2, got {n}")
    comps = enumerate_compositions(n, t)
    levels = sorted({c.l1 for c in comps})
    npairs = math.comb(n, 2)
    rows = [[ONE] * len(levels), [Fraction(l * (n - l), npairs) for l in levels]]
    result = phase1_feasible(rows, [ONE, HALF])
    stats = LpStats(variables=len(levels), constraints=len(rows), pivots=result.pivots)
    witness = None
    if result.feasible:
        weights: dict[Composition, Fraction] = {}
        for level, x in zip(levels, result.x):
            if not x:
                continue
            share = x / math.comb(n, level)
            for subset in itertools.combinations(range(n), level):
                counts = [0] * n
                for i in subset:
                    counts[i] = 1
                counts[subset[0] if subset else 0] += t - level
                weights[Composition(tuple(counts))] = share
        witness = WeightProfile(n, t, weights)
    return FeasibilityResult(
        feasible=result.feasible,
        witness=witness,
        phase1_objective=result.objective,
        stats=stats,
    )


def entangled_scan(n: int, t_max: int) -> list[tuple[int, FeasibilityResult]]:
    """Decide t = lower bound, lower bound + 1, ... up to the first
    feasible t, and return each t with its result.

    The scan stops at min(t_max, n + 1): for t >= n every level of the
    right parity up to n is reachable, so the level set, and with it the
    verdict, repeats with period 2 from t = n on.
    """
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    results = []
    for t in range(max(1, general_lower_bound(n)), min(t_max, n + 1) + 1):
        result = entangled_feasible(n, t)
        results.append((t, result))
        if result.feasible:
            break
    return results


def min_entangled_t(n: int, t_max: int) -> int | None:
    """Smallest t <= t_max with a feasible t-copy scheme, scanning upward
    from the closed-form lower bound; None when every t is infeasible."""
    scan = entangled_scan(n, t_max)
    if scan and scan[-1][1].feasible:
        return scan[-1][0]
    return None
