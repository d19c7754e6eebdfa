"""Exact minimal schemes at small N.

Two exact searches: a branch-and-bound set cover over the canonical
blocks for the minimal product scheme, and a rational LP feasibility
test for the existence of a t-copy entangled scheme.  Both are
deterministic and return verifiable witnesses.

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

from .discrimination import CanonicalBlock, all_pairs, block_graph, candidate_blocks
from .exceptions import IndistinguishableError, ResourceCapError
from .oracle import DEFAULT_MAX_COMPOSITIONS, Composition, enumerate_compositions
from .schemes import (
    WeightProfile,
    construct_product_scheme,
    general_lower_bound,
)
from .simplex import HALF, ONE, phase1_feasible

#: Largest n the exhaustive cover search accepts by default.
DEFAULT_COVER_CAP = 9


@dataclass(frozen=True)
class CoverInstance:
    """Set-cover instance: all C(n,2) pairs as the universe and every
    canonical block as a candidate, in the fixed pair < quad < star order."""

    n: int
    candidates: tuple[CanonicalBlock, ...]
    masks: tuple[int, ...]

    @classmethod
    def build(cls, n: int) -> "CoverInstance":
        pair_bit = {p: k for k, p in enumerate(all_pairs(n))}
        candidates = tuple(candidate_blocks(n))
        masks = []
        for block in candidates:
            mask = 0
            for edge in block_graph(block).edges:
                mask |= 1 << pair_bit[edge]
            masks.append(mask)
        return cls(n, candidates, tuple(masks))


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


def min_product_cover(n: int, max_n: int = DEFAULT_COVER_CAP) -> CoverSolution:
    """Exact minimum number of canonical blocks covering the complete
    graph on n, with a deterministic witness.

    Branch and bound: starts from the grouping construction as the
    incumbent, always branches on the uncovered pair with the fewest
    covering candidates, and prunes on ceil(uncovered / max coverage).
    Failed subproblems are memoized by their uncovered-pair set.
    """
    if n < 3:
        if n == 2:
            raise IndistinguishableError("no scheme exists for n=2")
        raise ValueError(f"cover search needs n >= 3, got {n}")
    if n > max_n:
        raise ResourceCapError(f"cover search capped at n <= {max_n}, got {n}")

    inst = CoverInstance.build(n)
    npairs = n * (n - 1) // 2
    universe = (1 << npairs) - 1
    cover_lists: list[list[int]] = [[] for _ in range(npairs)]
    for c, mask in enumerate(inst.masks):
        bits = mask
        while bits:
            low = bits & -bits
            cover_lists[low.bit_length() - 1].append(c)
            bits ^= low
    # Static branching order: fewest covering candidates first.
    pair_order = sorted(range(npairs), key=lambda b: (len(cover_lists[b]), b))
    max_cover = max(6, 2 * (n - 2), n - 1)

    best_blocks = list(construct_product_scheme(n).blocks)
    best_t = len(best_blocks)
    nodes = 0
    failed: dict[int, int] = {}
    chosen: list[int] = []

    def dfs(uncovered: int) -> None:
        nonlocal best_t, best_blocks, nodes
        nodes += 1
        if uncovered == 0:
            if len(chosen) < best_t:
                best_t = len(chosen)
                best_blocks = [inst.candidates[c] for c in chosen]
            return
        budget = best_t - 1 - len(chosen)
        if budget <= 0:
            return
        if -(-uncovered.bit_count() // max_cover) > budget:
            return
        if failed.get(uncovered, -1) >= budget:
            return
        entry_best = best_t
        branch_bit = next(b for b in pair_order if uncovered >> b & 1)
        for c in cover_lists[branch_bit]:
            chosen.append(c)
            dfs(uncovered & ~inst.masks[c])
            chosen.pop()
        if best_t == entry_best and failed.get(uncovered, -1) < budget:
            failed[uncovered] = budget

    dfs(universe)
    return CoverSolution(t=best_t, blocks=tuple(best_blocks), nodes_explored=nodes)


def entangled_feasible(
    n: int, t: int, max_compositions: int = DEFAULT_MAX_COMPOSITIONS
) -> FeasibilityResult:
    """Decide whether a t-copy parallel scheme exists for n oracles.

    The scheme exists exactly when the two-row level LP of the module
    docstring is feasible; an exact phase-1 simplex decides it, and
    ``stats`` and ``phase1_objective`` describe that LP.  The witness
    lifts its basic solution: each level mass x_l is spread uniformly
    over the C(n, l) compositions that put 1 on an l-subset S and add the
    even surplus t - l to min S (to index 1 when S is empty).  The
    compositions of t into n parts are enumerated first for the
    reachable levels, so ``max_compositions`` caps the work and the
    witness size before either is allocated.
    """
    if n < 2:
        raise ValueError(f"feasibility needs n >= 2, got {n}")
    comps = enumerate_compositions(n, t, max_compositions)
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


def entangled_scan(
    n: int, t_max: int, max_compositions: int = DEFAULT_MAX_COMPOSITIONS
) -> list[tuple[int, FeasibilityResult]]:
    """Decide t = lower bound, lower bound + 1, ... up to the first
    feasible t, and return each t with its result.

    The scan stops at min(t_max, n + 1): for t >= n every level of the
    right parity up to n is reachable, so the level set, and with it the
    verdict, repeats with period 2 from t = n on.
    """
    results = []
    for t in range(max(1, general_lower_bound(n)), min(t_max, n + 1) + 1):
        result = entangled_feasible(n, t, max_compositions)
        results.append((t, result))
        if result.feasible:
            break
    return results


def min_entangled_t(
    n: int, t_max: int, max_compositions: int = DEFAULT_MAX_COMPOSITIONS
) -> int | None:
    """Smallest t <= t_max with a feasible t-copy scheme, scanning upward
    from the closed-form lower bound; None when every t is infeasible."""
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    scan = entangled_scan(n, t_max, max_compositions)
    if scan and scan[-1][1].feasible:
        return scan[-1][0]
    return None
