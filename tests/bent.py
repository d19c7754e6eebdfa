"""Bent-function witnesses for the entangled scheme at n = 4^m.

f(x, y) = x.y on m + m bits is bent, so its support D is a Hadamard
difference set of size (n - sqrt(n))/2 (Rothaus, J. Combin. Theory A
20, 1976; Dillon 1974).  For every d != 0, f(u) + f(u ^ d) is balanced,
so of the n XOR-translates D ^ v exactly n/2 hold one of u and u ^ d:
with mass 1/n on each translate, every pair has odd-parity mass 1/2.
"""

from fractions import Fraction

from groverid.oracle import Composition
from groverid.schemes import WeightProfile


def bent_witness(n: int) -> WeightProfile:
    """The n translates of the support of x.y, index u + 1 for u in 0..n-1."""
    m = n.bit_length() // 2
    support = [u for u in range(n) if (u >> m & u).bit_count() % 2]
    weights = {}
    for v in range(n):
        counts = [0] * n
        for u in support:
            counts[u ^ v] = 1
        weights[Composition(tuple(counts))] = Fraction(1, n)
    return WeightProfile(n, len(support), weights)
