"""Tests for the exact cover search and LP feasibility."""

import hashlib
import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groverid import optimizer
from groverid.discrimination import (
    CanonicalBlock,
    DiscriminationGraph,
    all_pairs,
    block_graph,
    candidate_blocks,
    is_complete_cover,
)
from groverid.exceptions import IndistinguishableError, ResourceCapError
from groverid.identifier import exhaustive_check, run_identification
from groverid.optimizer import (
    CoverInstance,
    CoverSolution,
    entangled_feasible,
    entangled_scan,
    min_entangled_t,
    min_product_cover,
    product_lower_bound,
)
from groverid.oracle import GroverOracle, enumerate_compositions, tau_parity
from groverid.schemes import (
    ProductScheme,
    builtin,
    construct_product_scheme,
    construction_size,
    general_lower_bound,
    verify_entangled,
    verify_product,
)
from groverid.simplex import phase1_feasible

from product_schemes import mask_failing_pairs, product_schemes

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
    """Same oracle with mask unions, fast enough for n up to 8."""
    masks = [block_graph(b).mask for b in candidate_blocks(n)]
    full = DiscriminationGraph.complete(n).mask
    for size in range(1, t_limit + 1):
        for combo in itertools.combinations(masks, size):
            union = 0
            for m in combo:
                union |= m
            if union == full:
                return size
    return None


def eager_candidates(n):
    """Every candidate block in candidate order, and its pair mask."""
    blocks = list(candidate_blocks(n))
    return blocks, [block_graph(b).mask for b in blocks]


def unpruned_min_cover(n):
    """The cover search without symmetry breaking or node budget: every
    candidate covering the branch pair is tried, so every relabelling of
    a partial cover is explored.  Same incumbent, order, bound and memo."""
    candidates, masks = eager_candidates(n)
    npairs = n * (n - 1) // 2
    cover_lists = [[c for c, m in enumerate(masks) if m >> b & 1] for b in range(npairs)]
    pair_order = sorted(range(npairs), key=lambda b: (len(cover_lists[b]), b))
    max_cover = max(6, 2 * (n - 2), n - 1)
    incumbent = construct_product_scheme(n).blocks
    best = {"t": len(incumbent), "blocks": incumbent, "nodes": 0}
    failed = {}
    chosen = []

    def dfs(uncovered):
        best["nodes"] += 1
        if uncovered == 0:
            if len(chosen) < best["t"]:
                best["t"] = len(chosen)
                best["blocks"] = tuple(candidates[c] for c in chosen)
            return
        budget = best["t"] - 1 - len(chosen)
        if budget <= 0 or -(-uncovered.bit_count() // max_cover) > budget:
            return
        if failed.get(uncovered, -1) >= budget:
            return
        entry_best = best["t"]
        branch_bit = next(b for b in pair_order if uncovered >> b & 1)
        for c in cover_lists[branch_bit]:
            chosen.append(c)
            dfs(uncovered & ~masks[c])
            chosen.pop()
        if best["t"] == entry_best and failed.get(uncovered, -1) < budget:
            failed[uncovered] = budget

    dfs((1 << npairs) - 1)
    return CoverSolution(best["t"], best["blocks"], best["nodes"])


class TestSymmetryBrokenCover:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_agrees_with_unpruned_search(self, n):
        sol = min_product_cover(n, max_n=10)
        ref = unpruned_min_cover(n)
        assert sol.t == ref.t
        assert sol.blocks == ref.blocks
        assert sol.nodes_explored <= ref.nodes_explored

    def test_exact_minima_n11_to_n13(self):
        start = time.perf_counter()
        # The minima meet ceil((2n - 5) / 3), which product_lower_bound
        # proves is a floor for every n >= 5.
        for n, t in ((11, 6), (12, 7), (13, 7)):
            sol = min_product_cover(n, max_n=13)
            assert sol.t == t == -(-(2 * n - 5) // 3) == product_lower_bound(n)
            assert verify_product(ProductScheme(n, sol.blocks)).valid
        assert time.perf_counter() - start < 30

    def test_floor_changes_only_the_node_count(self, monkeypatch):
        """With a floor of 1 the search never stops early, so it proves
        each minimum by itself; it must find the same cover."""
        floored = {n: min_product_cover(n, max_n=13) for n in range(3, 14)}
        monkeypatch.setattr(optimizer, "product_lower_bound", lambda n: 1)
        for n, sol in floored.items():
            full = min_product_cover(n, max_n=13)
            assert (full.t, full.blocks) == (sol.t, sol.blocks), n
            assert sol.nodes_explored <= full.nodes_explored

    def test_no_search_when_the_construction_meets_the_floor(self, monkeypatch):
        monkeypatch.setattr(CoverInstance, "build", None)
        sol = min_product_cover(3)
        assert (sol.t, sol.nodes_explored) == (2, 0)
        assert sol.blocks == construct_product_scheme(3).blocks

    def test_node_budget_is_checked_as_each_node_is_entered(self, monkeypatch):
        nodes = min_product_cover(9).nodes_explored
        monkeypatch.setattr(optimizer, "MAX_COVER_NODES", nodes)
        assert min_product_cover(9).nodes_explored == nodes
        monkeypatch.setattr(optimizer, "MAX_COVER_NODES", nodes - 1)
        with pytest.raises(ResourceCapError, match=f"over {nodes - 1} nodes"):
            min_product_cover(9)

    def test_set_up_cap_is_checked_before_the_instance_is_built(self, monkeypatch):
        setup = 36 * (36 + 126 + 9)  # n = 9: pairs times pair, quad and star candidates
        monkeypatch.setattr(optimizer, "MAX_COVER_SETUP", setup)
        assert min_product_cover(9).t == 5
        monkeypatch.setattr(optimizer, "MAX_COVER_SETUP", setup - 1)
        monkeypatch.setattr(CoverInstance, "build", None)
        with pytest.raises(ResourceCapError, match=f"takes {setup} tests"):
            min_product_cover(9)


#: n: (sha256 of repr([(kind, indices) ...]) of the witness, nodes
#: explored), as the branch-and-bound search of commit ff84925 found them.
BRANCH_AND_BOUND_COVERS = {
    3: ("b3a7c5fd5decd05e393c45ca15cbe4675e23ef6d7bb9b44d7c2d86b8d5915cf1", 0),
    4: ("5e3e83a55b618ca4bacf64031fba9d6593402f3218c415531d3a6a15e23e9b5c", 10),
    5: ("fe4f54daaac519d81328176d03391ec474b0a87348966246ef28fcea3e59fb4d", 42),
    6: ("79eb396fa07585e3ed345d79abe7e1e92eba9c4cbad016cca9af097019ca1a64", 14),
    7: ("e381a92f58f82c1857bebc6ba97746919d4e3bb4263588f228e4fcb8d8cb8933", 40),
    8: ("499b4e43a0f628c4c9e08a36f3013170f59a0588605d3b7fb65814e271796e14", 54),
    9: ("5b7a2160e9563bd52ea98f46f162831f60d7a0b2e08b122bf5bc78a1b0cf8125", 33),
    10: ("f72ca64ba3731a9c049e25bc2a39aeb11b457494a3d52ba4e5ed12498d2c779c", 630),
    11: ("2f07b738975c3c7e9516354fbdb5d626e72dd67a22fda0ac66cfa04bedbae7ac", 792),
    12: ("1a338d1f4a50d09136f940e50b563113ad205ecb296fa07d5fb93633c0240d59", 831),
    13: ("dd856a49becdc55706de540df15b2eb00f087aaae1fde73e9b51123fb130d6d3", 77485),
    14: ("a90969fb98df9d832b4c28517a237feb812db1384e5d1fe47e6a966779f4ec3b", 110318),
    15: ("4d2c29948b4f294db26e2d888aaf0767bb9cf6f762d585c4ecd05d0c3d967e2d", 148511),
}

#: The nodes the iteratively deepened search enters, as
#: ``search --mode product`` prints them.
ITERATIVE_DEEPENING_NODES = {
    3: 0, 4: 4, 5: 31, 6: 14, 7: 18, 8: 25, 9: 33, 10: 539, 11: 677, 12: 831,
    13: 77_382, 14: 110_190, 15: 148_511,
}


class TestIterativeDeepening:
    @pytest.mark.parametrize("n", sorted(BRANCH_AND_BOUND_COVERS))
    def test_same_witness_as_branch_and_bound(self, n):
        """Both searches take candidates in the same depth-first order and
        prune only subtrees with no cover of the target size, so the
        first minimum cover is the same, block for block."""
        digest, nodes = BRANCH_AND_BOUND_COVERS[n]
        sol = min_product_cover(n, max_n=15)
        blocks = repr([(b.kind, b.indices) for b in sol.blocks])
        assert hashlib.sha256(blocks.encode()).hexdigest() == digest
        assert sol.nodes_explored <= nodes
        assert sol.nodes_explored == ITERATIVE_DEEPENING_NODES[n]

    @pytest.mark.parametrize("n", range(3, 13))
    def test_every_pair_has_the_same_number_of_candidates(self, n):
        """The candidates covering a pair: 2(n-2) pair blocks, C(n-2, 2)
        quads and two stars (all four at n = 4).  No pair is rarer than
        another, so a fewest-candidates-first order is no order at all."""
        _, masks = eager_candidates(n)
        counts = {
            sum(m >> b & 1 for m in masks) for b in range(n * (n - 1) // 2)
        }
        stars = 4 if n == 4 else 2
        assert counts == {2 * (n - 2) + (n - 2) * (n - 3) // 2 + stars}


class TestLazyCoverInstance:
    @pytest.mark.parametrize("n", range(3, 13))
    def test_lists_match_the_eager_instance(self, n):
        """Each pair's on-demand list holds the candidates whose eager
        mask covers it, as blocks in candidate order, each with its
        vertex mask; a block made from an entry has the eager mask."""
        inst = CoverInstance.build(n)
        candidates, masks = eager_candidates(n)
        for k, (a, b) in enumerate(all_pairs(n)):
            listed = inst.covering(a, b)
            eager = [c for c, m in enumerate(masks) if m >> k & 1]
            blocks = [CanonicalBlock(kind, indices, n) for _, kind, indices in listed]
            assert blocks == [candidates[c] for c in eager]
            for (vertices, _, indices), block, c in zip(listed, blocks, eager):
                assert vertices == sum(1 << (v - 1) for v in indices)
                assert block_graph(block).mask == masks[c]

    @pytest.mark.parametrize("n, tried, candidates", [(8, 24, 106), (9, 32, 171), (10, 157, 265)])
    def test_only_tried_candidates_get_a_graph(self, monkeypatch, n, tried, candidates):
        """The search makes one graph per candidate it tries, not one per
        candidate: an eager set-up would make all of them."""
        graphs = []

        def counted(block):
            graphs.append(block)
            return block_graph(block)

        monkeypatch.setattr(optimizer, "block_graph", counted)
        min_product_cover(n, max_n=10)
        assert len(list(candidate_blocks(n))) == candidates
        assert len(set(graphs)) == len(graphs) <= tried

    def test_construction_is_built_only_when_it_is_the_answer(self, monkeypatch):
        expected = {n: min_product_cover(n, max_n=10) for n in range(4, 11)}
        monkeypatch.setattr(optimizer, "construct_product_scheme", None)
        for n, sol in expected.items():
            assert min_product_cover(n, max_n=10) == sol


class TestProductLowerBound:
    def test_values(self):
        assert [product_lower_bound(n) for n in range(3, 17)] == [
            2, 1, 2, 3, 3, 4, 5, 5, 6, 7, 7, 8, 9, 9,
        ]
        with pytest.raises(ValueError):
            product_lower_bound(2)

    @settings(max_examples=300, deadline=None)
    @given(scheme=product_schemes(), data=st.data())
    def test_random_covers_hold_the_floor(self, scheme, data):
        """Random blocks, completed to a cover by a star at one end of
        each pair they leave uncovered, never number below the floor."""
        n, blocks = scheme.n, list(scheme.blocks)
        centres = set()
        for pair in mask_failing_pairs(n, blocks):
            if not centres.intersection(pair):
                centres.add(data.draw(st.sampled_from(pair)))
        blocks += [CanonicalBlock.star(v, n) for v in sorted(centres)]
        assert mask_failing_pairs(n, blocks) == ()
        assert len(blocks) >= product_lower_bound(n)


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
        kinds = [b.kind for b in candidate_blocks(5)]
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
            entangled_feasible(40, 17)

    @pytest.mark.parametrize("t_max", [0, -3])
    def test_scan_rejects_t_max_below_1(self, t_max):
        with pytest.raises(ValueError):
            entangled_scan(5, t_max)
        with pytest.raises(ValueError):
            min_entangled_t(5, t_max)

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
