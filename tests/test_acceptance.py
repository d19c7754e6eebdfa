"""Acceptance suite: one test per criterion, each timed against its
runtime limit and printing a single pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from groverid.discrimination import (
    CanonicalBlock,
    SingleCopyState,
    all_pairs,
    block_graph,
    canonicalize,
    discrimination_graph,
)
from groverid.identifier import OracleBlackBox, run_identification
from groverid.optimizer import entangled_feasible, min_entangled_t, min_product_cover
from groverid.oracle import (
    GroverOracle,
    apply_oracle,
    composition_of,
    odd_pair_count,
    overlap,
    tau_parity,
)
from groverid.schemes import (
    ProductScheme,
    builtin,
    construct_product_scheme,
    construction_size,
    expand_to_state,
    general_lower_bound,
    verify_entangled,
    verify_product,
)


@contextmanager
def criterion(num, description, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    within = elapsed < limit_seconds
    status = "PASS" if within else "FAIL"
    print(
        f"criterion {num}: {status} ({elapsed:.2f}s, limit {limit_seconds:g}s) - {description}"
    )
    assert within, f"criterion {num} took {elapsed:.2f}s, limit {limit_seconds}s"


def pairwise_output_overlaps(scheme):
    state = expand_to_state(scheme)
    n = scheme.n
    outputs = {k: apply_oracle(GroverOracle(n, k), state) for k in range(1, n + 1)}
    return {(i, j): overlap(outputs[i], outputs[j]) for i, j in all_pairs(n)}


def sample_manifold_state(rng, n):
    """Exact nontrivial state: one pair's squared moduli sum to 1/2, the
    rest of the mass spread over a random subset of the other indices."""
    i, j = sorted(rng.sample(range(1, n + 1), 2))
    split = Fraction(rng.randint(0, 8), 16)
    mag2 = {i: split, j: Fraction(1, 2) - split}
    others = [k for k in range(1, n + 1) if k not in (i, j)]
    chosen = rng.sample(others, rng.randint(1, len(others)))
    weights = [rng.randint(1, 9) for _ in chosen]
    total = sum(weights)
    for k, w in zip(chosen, weights):
        mag2[k] = mag2.get(k, Fraction(0)) + Fraction(w, 2 * total)
    return SingleCopyState(n, mag2)


def test_criterion_1_n4_single_copy():
    with criterion(1, "n=4 single-copy scheme is exactly orthogonal", 1):
        scheme = ProductScheme(4, [CanonicalBlock.quad(1, 2, 3, 4, 4)])
        overlaps = pairwise_output_overlaps(scheme)
        assert len(overlaps) == 6
        assert all(v == Fraction(0) for v in overlaps.values())


def test_criterion_2_n5_product_example():
    with criterion(2, "n=5 two-copy product scheme valid and minimal", 5):
        scheme = builtin("n5-product")
        assert scheme.t == 2
        assert verify_product(scheme).valid
        overlaps = pairwise_output_overlaps(scheme)
        assert len(overlaps) == 10
        assert all(v == Fraction(0) for v in overlaps.values())
        assert not entangled_feasible(5, 1).feasible


def test_criterion_3_n6_entangled_example():
    with criterion(3, "n=6 two-copy entangled scheme valid and optimal", 10):
        profile = builtin("n6-entangled")
        assert profile.t == 2
        report = verify_entangled(profile)
        assert report.valid
        for i, j in all_pairs(6):
            mass = sum(
                q for c, q in profile.weights.items() if tau_parity(c, i, j) == 1
            )
            assert mass == Fraction(1, 2)
        assert not entangled_feasible(6, 1).feasible
        assert general_lower_bound(6) == 2


def test_criterion_4_n6_product_separation():
    with criterion(4, "minimal product scheme for n=6 needs exactly 3 copies", 60):
        solution = min_product_cover(6)
        assert solution.t == 3
        assert verify_product(ProductScheme(6, solution.blocks)).valid


def test_criterion_5_construction_bound():
    with criterion(5, "construction valid with pinned size for 3 <= n <= 300", 30):
        for n in range(3, 301):
            scheme = construct_product_scheme(n)
            assert verify_product(scheme).valid
            size = construction_size(n)
            assert scheme.t == size == 2 * (n // 3) + n % 3
            assert size <= 2 * n / 3 + 2


def test_criterion_6_sandwich_small_n():
    with criterion(6, "exact minima sandwich for 3 <= n <= 9", 600):
        expected_product = {4: 1, 5: 2, 6: 3}
        for n in range(3, 10):
            cover = min_product_cover(n)
            t_ent = min_entangled_t(n, cover.t)
            assert t_ent is not None
            assert (
                general_lower_bound(n)
                <= t_ent
                <= cover.t
                <= construction_size(n)
            ), n
            if n in expected_product:
                assert cover.t == expected_product[n], n


def test_criterion_7_odd_pair_count_property():
    with criterion(7, "odd-pair count formula matches brute force on 1000 samples", 5):
        rng = random.Random(97)
        checked = 0
        while checked < 1000:
            n = rng.randint(2, 10)
            t = rng.randint(1, min(5, n // 2))
            a = tuple(rng.randint(1, n) for _ in range(t))
            c = composition_of(a, n)
            brute = sum(
                1
                for i, j in itertools.combinations(range(1, n + 1), 2)
                if tau_parity(c, i, j) == 1
            )
            assert odd_pair_count(c) == c.l1 * (n - c.l1) == brute
            assert odd_pair_count(c) <= t * (n - t)
            checked += 1


def test_criterion_8_perfect_identification():
    with criterion(8, "perfect identification for every n in 3..9 and target", 60):
        for n in range(3, 10):
            scheme = construct_product_scheme(n)
            for k in range(1, n + 1):
                box = OracleBlackBox(GroverOracle(n, k))
                run = run_identification(scheme, box)
                assert run.identified == k
                assert run.hidden_queries_used == scheme.t == box.calls
        for name, n in [("n5-product", 5), ("n6-entangled", 6)]:
            scheme = builtin(name)
            for k in range(1, n + 1):
                run = run_identification(scheme, GroverOracle(n, k))
                assert run.identified == k
                assert run.hidden_queries_used == 2


def test_criterion_9_n2_impossibility():
    with criterion(9, "n=2 infeasible for every t in 1..6", 5):
        for t in range(1, 7):
            result = entangled_feasible(2, t)
            assert not result.feasible
            assert result.phase1_objective > 0


def test_criterion_10_canonicalization_containment():
    with criterion(10, "canonical block contains each of 500 sampled graphs", 10):
        rng = random.Random(83)
        for _ in range(500):
            n = rng.randint(3, 9)
            state = sample_manifold_state(rng, n)
            graph = discrimination_graph(state)
            assert graph.edges  # nontrivial by construction
            block = canonicalize(state)
            assert graph.edges <= block_graph(block).edges
