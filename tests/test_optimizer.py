"""Tests for the exact cover search and LP feasibility."""

import itertools
from fractions import Fraction

import pytest

from groverid.discrimination import all_pairs, block_graph, candidate_blocks, is_complete_cover
from groverid.exceptions import IndistinguishableError, ResourceCapError
from groverid.identifier import exhaustive_check, run_identification
from groverid.optimizer import (
    CoverInstance,
    entangled_feasible,
    entangled_scan,
    min_entangled_t,
    min_product_cover,
)
from groverid.oracle import GroverOracle, enumerate_compositions, tau_parity
from groverid.schemes import (
    ProductScheme,
    builtin,
    construction_size,
    general_lower_bound,
    verify_entangled,
    verify_product,
)
from groverid.simplex import phase1_feasible

#: Every (n, t) the dense composition LP decides quickly enough to compare.
SMALL_CASES = [(n, t) for n in range(2, 8) for t in range(1, 5)] + [(2, 5), (2, 6)]


def dense_composition_lp(n, t):
    """Independent feasibility oracle from the definition: one variable
    per composition, a sum row, and one row per pair asking for
    odd-parity mass exactly 1/2."""
    comps = enumerate_compositions(n, t)
    rows = [[1] * len(comps)]
    rows += [[tau_parity(c, i, j) for c in comps] for i, j in all_pairs(n)]
    return phase1_feasible(rows, [1] + [Fraction(1, 2)] * (len(rows) - 1))


def brute_min_cover(n, t_limit):
    """Independent cover oracle: try every candidate subset of each size."""
    candidates = list(candidate_blocks(n))
    graphs = [block_graph(b) for b in candidates]
    for size in range(1, t_limit + 1):
        for combo in itertools.combinations(range(len(candidates)), size):
            if is_complete_cover([graphs[c] for c in combo], n):
                return size
    return None


def brute_min_cover_bitmask(n, t_limit):
    """Same oracle with bitmask unions, fast enough for n up to 8."""
    from groverid.discrimination import all_pairs

    bit = {p: k for k, p in enumerate(all_pairs(n))}
    masks = []
    for b in candidate_blocks(n):
        m = 0
        for e in block_graph(b).edges:
            m |= 1 << bit[e]
        masks.append(m)
    full = (1 << len(bit)) - 1
    for size in range(1, t_limit + 1):
        for combo in itertools.combinations(masks, size):
            union = 0
            for m in combo:
                union |= m
            if union == full:
                return size
    return None


class TestMinProductCover:
    def test_n4_single_quad(self):
        sol = min_product_cover(4)
        assert sol.t == 1
        assert sol.blocks[0].kind == "quad"
        assert sol.blocks[0].indices == (1, 2, 3, 4)

    def test_n5_two_blocks(self):
        assert min_product_cover(5).t == 2

    def test_n6_three_blocks(self):
        sol = min_product_cover(6)
        assert sol.t == 3
        assert verify_product(ProductScheme(6, sol.blocks)).valid

    def test_agrees_with_bruteforce_up_to_n6(self):
        for n in range(3, 7):
            sol = min_product_cover(n)
            assert sol.t == brute_min_cover(n, construction_size(n))

    def test_agrees_with_bruteforce_n7_n8(self):
        for n in (7, 8):
            assert min_product_cover(n).t == brute_min_cover_bitmask(n, construction_size(n))

    def test_witness_always_verifies(self):
        for n in range(3, 9):
            sol = min_product_cover(n)
            assert verify_product(ProductScheme(n, sol.blocks)).valid

    def test_deterministic(self):
        first = min_product_cover(7)
        second = min_product_cover(7)
        assert first == second

    def test_n2_and_cap(self):
        with pytest.raises(IndistinguishableError):
            min_product_cover(2)
        with pytest.raises(ResourceCapError):
            min_product_cover(10)
        with pytest.raises(ValueError):
            min_product_cover(1)

    def test_instance_candidate_order(self):
        inst = CoverInstance.build(5)
        kinds = [b.kind for b in inst.candidates]
        assert kinds == ["pair"] * 10 + ["quad"] * 5 + ["star"] * 5


class TestEntangledFeasible:
    def test_n6_t2_feasible_with_exact_witness(self):
        res = entangled_feasible(6, 2)
        assert res.feasible
        assert res.phase1_objective == 0
        assert verify_entangled(res.witness).valid

    def test_n5_t1_infeasible(self):
        res = entangled_feasible(5, 1)
        assert not res.feasible
        assert res.witness is None
        assert res.phase1_objective > 0

    def test_n2_always_infeasible(self):
        for t in range(1, 7):
            assert not entangled_feasible(2, t).feasible

    def test_witnesses_verify_for_small_cases(self):
        for n, t in [(3, 2), (4, 1), (4, 2), (5, 2), (6, 2), (7, 3)]:
            res = entangled_feasible(n, t)
            assert res.feasible, (n, t)
            assert verify_entangled(res.witness).valid

    def test_deterministic(self):
        a = entangled_feasible(5, 2)
        b = entangled_feasible(5, 2)
        assert a.phase1_objective == b.phase1_objective
        assert a.stats == b.stats
        assert a.witness.weights == b.witness.weights

    def test_monotone_by_two_copies(self):
        for n in range(3, 7):
            t = min_entangled_t(n, 6)
            assert t is not None
            assert entangled_feasible(n, t + 2).feasible

    def test_composition_cap(self):
        with pytest.raises(ResourceCapError):
            entangled_feasible(6, 2, max_compositions=10)

    def test_rejects_n1(self):
        with pytest.raises(ValueError):
            entangled_feasible(1, 1)

    @pytest.mark.parametrize("n,t", SMALL_CASES)
    def test_agrees_with_dense_composition_lp(self, n, t):
        res = entangled_feasible(n, t)
        assert res.feasible == dense_composition_lp(n, t).feasible
        assert (res.phase1_objective == 0) == res.feasible

    @pytest.mark.parametrize("n,t", SMALL_CASES)
    def test_two_rows_one_variable_per_level(self, n, t):
        stats = entangled_feasible(n, t).stats
        assert stats.constraints == 2
        assert stats.variables == len(range(t % 2, min(t, n) + 1, 2))

    @pytest.mark.parametrize("n,t", SMALL_CASES)
    def test_witness_passes_both_verifiers(self, n, t):
        res = entangled_feasible(n, t)
        if res.feasible:
            assert verify_entangled(res.witness).valid
            assert exhaustive_check(res.witness)
        else:
            assert res.witness is None

    def test_n6_t2_witness_is_the_paper_example(self):
        assert entangled_feasible(6, 2).witness.weights == builtin("n6-entangled", diag=1).weights

    @pytest.mark.parametrize("n,t", [(7, 3), (8, 3)])
    def test_witness_identifies_every_index(self, n, t):
        witness = entangled_feasible(n, t).witness
        for k in range(1, n + 1):
            run = run_identification(witness, GroverOracle(n, k))
            assert run.identified == k
            assert run.hidden_queries_used == t

    def test_verdict_repeats_with_period_two_from_t_equal_n(self):
        for n in range(2, 7):
            for t in range(n + 2, n + 4):
                assert entangled_feasible(n, t).feasible == entangled_feasible(n, t - 2).feasible


class TestMinEntangledT:
    def test_examples(self):
        assert min_entangled_t(6, 4) == 2
        assert min_entangled_t(5, 4) == 2
        assert min_entangled_t(3, 4) == 2

    def test_none_when_out_of_reach(self):
        assert min_entangled_t(2, 6) is None

    def test_scan_stops_at_n_plus_one(self):
        assert [t for t, _ in entangled_scan(2, 10**5)] == [1, 2, 3]
        assert min_entangled_t(2, 10**5) is None

    def test_lower_bound_attained_up_to_16(self):
        # The half-(N - sqrt N) bound is the exact entangled minimum for
        # N = 4..16; at N = 3 it says 1, but one copy cannot split the
        # three pairs evenly.
        assert min_entangled_t(3, construction_size(3)) == 2
        for n in range(4, 17):
            assert min_entangled_t(n, construction_size(n)) == general_lower_bound(n), n

    def test_sandwich_small(self):
        for n in range(3, 8):
            cover = min_product_cover(n)
            t_ent = min_entangled_t(n, cover.t)
            assert t_ent is not None
            assert general_lower_bound(n) <= t_ent <= cover.t <= construction_size(n)

    def test_below_floor_infeasible_spot_checks(self):
        for n in (5, 6, 7):
            floor = general_lower_bound(n)
            if floor > 1:
                assert not entangled_feasible(n, floor - 1).feasible
