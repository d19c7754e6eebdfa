"""Tests for single-copy discrimination graphs and canonical blocks."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groverid.amplitude import SqrtRational
from groverid.discrimination import (
    MAX_PAIRS,
    CanonicalBlock,
    DiscriminationGraph,
    SingleCopyState,
    all_pairs,
    block_graph,
    block_state,
    canonicalize,
    copy_discriminates,
    discrimination_graph,
    is_complete_cover,
    pair_count,
)
from groverid.exceptions import ResourceCapError, TrivialStateError
from groverid.oracle import AmpState, GroverOracle, apply_oracle, overlap
from groverid.schemes import ProductScheme, construct_product_scheme, verify_product


def lift(s, rng):
    """Embed a one-copy state as a t=1 AmpState, with a random sign on
    every amplitude: the graph must not depend on phases."""
    return AmpState(
        s.n, 1, {(i,): SqrtRational.sqrt(q, rng.choice((-1, 1))) for i, q in s.mag2s.items()}
    )


def graph_via_inner_products(s, rng):
    """Independent graph oracle: the edge set of pairs where
    <psi| f_i f_j |psi> vanishes, psi a randomly signed lift of s."""
    psi = lift(s, rng)
    edges = []
    for i, j in all_pairs(s.n):
        out = apply_oracle(GroverOracle(s.n, i), apply_oracle(GroverOracle(s.n, j), psi))
        if overlap(psi, out) == 0:
            edges.append((i, j))
    return frozenset(edges)


def half_sum_graph(b):
    """Independent edge set of a block: the pairs whose squared moduli in
    the block's state sum to 1/2, with no bit layout involved."""
    s = block_state(b)
    return {(i, j) for i, j in all_pairs(b.n) if copy_discriminates(s, i, j)}


@st.composite
def canonical_blocks(draw, n):
    kinds = [kind for kind, least in (("pair", 2), ("star", 3), ("quad", 4)) if n >= least]
    kind = draw(st.sampled_from(kinds))
    size = {"pair": 2, "star": 1, "quad": 4}[kind]
    indices = draw(st.lists(st.integers(1, n), min_size=size, max_size=size, unique=True))
    return CanonicalBlock(kind, tuple(sorted(indices)), n)


def exact_state_from_mag2(n, mag2_by_index):
    return SingleCopyState(n, mag2_by_index)


def sample_manifold_state(rng, n):
    """Random exact nontrivial state: one pair's squared moduli sum to 1/2,
    the remaining mass is spread over a random subset of the others."""
    i, j = sorted(rng.sample(range(1, n + 1), 2))
    split = Fraction(rng.randint(0, 8), 16)
    mag2 = {i: split, j: Fraction(1, 2) - split}
    others = [k for k in range(1, n + 1) if k not in (i, j)]
    chosen = rng.sample(others, rng.randint(1, len(others)))
    weights = [rng.randint(1, 9) for _ in chosen]
    total = sum(weights)
    for k, w in zip(chosen, weights):
        mag2[k] = mag2.get(k, Fraction(0)) + Fraction(w, 2 * total)
    return exact_state_from_mag2(n, mag2)


def reference_block_checks(kind, indices, n):
    """CanonicalBlock's checks without its fast accept, in their order."""
    sizes, min_n = {"quad": 4, "pair": 2, "star": 1}, {"quad": 4, "pair": 2, "star": 3}
    size = sizes.get(kind)
    if size is None:
        raise ValueError(f"unknown block kind {kind!r}")
    if n < min_n[kind]:
        raise ValueError(f"{kind} block needs n >= {min_n[kind]}")
    if len(indices) != size:
        raise ValueError(f"{kind} block needs {size} indices")
    if len(set(indices)) != size:
        raise ValueError(f"block indices must be distinct: {indices}")
    if min(indices) < 1 or max(indices) > n:
        raise ValueError(f"block indices {indices} out of range 1..{n}")
    if any(a >= b for a, b in zip(indices, indices[1:])):
        raise ValueError("block indices must be sorted ascending")


class TestCopyDiscriminates:
    def test_quad_pair_true(self):
        s = block_state(CanonicalBlock.quad(1, 2, 3, 4, 6))
        assert copy_discriminates(s, 1, 2)

    def test_pair_own_pair_false(self):
        s = block_state(CanonicalBlock.pair(1, 2, 6))
        assert not copy_discriminates(s, 1, 2)

    def test_uniform_n5_false(self):
        s = SingleCopyState(5, dict.fromkeys(range(1, 6), Fraction(1, 5)))
        assert not any(copy_discriminates(s, i, j) for i, j in all_pairs(5))


class TestDiscriminationGraph:
    def test_pair_block_n6(self):
        g = discrimination_graph(block_state(CanonicalBlock.pair(1, 2, 6)))
        expected = {(1, k) for k in (3, 4, 5, 6)} | {(2, k) for k in (3, 4, 5, 6)}
        assert g.edges == frozenset(expected)

    def test_star_block_n6(self):
        g = discrimination_graph(block_state(CanonicalBlock.star(1, 6)))
        assert g.edges == frozenset((1, k) for k in range(2, 7))

    def test_basis_state_trivial(self):
        s = SingleCopyState(4, {1: Fraction(1)})
        assert discrimination_graph(s).edges == frozenset()

    def test_matches_inner_product_definition_exact(self):
        rng, signs = random.Random(5), random.Random(6)
        for _ in range(40):
            n = rng.randint(3, 7)
            s = sample_manifold_state(rng, n)
            assert discrimination_graph(s).edges == graph_via_inner_products(s, signs)


class TestSingleCopyState:
    def test_sparse_moduli_in_index_order(self):
        s = SingleCopyState(6, {5: Fraction(1, 2), 2: Fraction(1, 4), 3: 0, 1: Fraction(1, 4)})
        assert list(s.mag2s) == [1, 2, 5]
        assert list(s.mag2s.values()) == [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]
        assert s.mag2(3) == s.mag2(6) == 0

    @pytest.mark.parametrize("value", [0.5, True, "1/2"])
    def test_non_rational_modulus_raises(self, value):
        with pytest.raises(TypeError):
            SingleCopyState(2, {1: value, 2: Fraction(1, 2)})

    @pytest.mark.parametrize(
        "mag2s", [{1: Fraction(1, 2), 2: Fraction(1, 3)}, {1: Fraction(3, 2), 2: Fraction(-1, 2)}]
    )
    def test_norm_exactly_one_and_moduli_nonnegative(self, mag2s):
        with pytest.raises(ValueError):
            SingleCopyState(3, mag2s)


class TestBlockState:
    def test_star_n5_matches_known_coefficients(self):
        s = block_state(CanonicalBlock.star(1, 5))
        assert s.mag2(1) == Fraction(1, 3)
        assert all(s.mag2(k) == Fraction(1, 6) for k in range(2, 6))

    def test_star_n3_center_vanishes(self):
        s = block_state(CanonicalBlock.star(2, 3))
        assert s.mag2(2) == 0
        assert s.mag2(1) == s.mag2(3) == Fraction(1, 2)

    def test_quad_n5(self):
        s = block_state(CanonicalBlock.quad(2, 3, 4, 5, 5))
        assert s.mag2(1) == 0
        assert all(s.mag2(k) == Fraction(1, 4) for k in range(2, 6))

    def test_variant_needs_room(self):
        with pytest.raises(ValueError):
            CanonicalBlock.quad(1, 2, 3, 4, 3)
        with pytest.raises(ValueError):
            CanonicalBlock.star(1, 2)
        with pytest.raises(ValueError):
            CanonicalBlock.pair(1, 1, 5)

    @pytest.mark.parametrize(
        "kind, indices, n, message",
        [
            ("hex", (1, 2), 5, "unknown block kind 'hex'"),
            ("quad", (1, 2, 3, 4), 3, "quad block needs n >= 4"),
            ("pair", (1, 2, 3), 5, "pair block needs 2 indices"),
            ("star", (), 5, "star block needs 1 indices"),
            ("pair", (2, 2), 1, "pair block needs n >= 2"),
            ("quad", (1, 2, 2, 9), 5, "block indices must be distinct: (1, 2, 2, 9)"),
            ("quad", (0, 1, 2, 3), 5, "block indices (0, 1, 2, 3) out of range 1..5"),
            ("pair", (6, 1), 5, "block indices (6, 1) out of range 1..5"),
            ("quad", (1, 3, 2, 4), 5, "block indices must be sorted ascending"),
            ("pair", (2, 1), 5, "block indices must be sorted ascending"),
        ],
    )
    def test_checks_in_order(self, kind, indices, n, message):
        """Each malformed block names the first check it fails, in the
        order kind, room, index count, distinctness, range, order."""
        with pytest.raises(ValueError) as info:
            CanonicalBlock(kind, indices, n)
        assert str(info.value) == message

    @settings(max_examples=1000, deadline=None)
    @given(
        kind=st.sampled_from(["pair", "quad", "star", "hex", ""]),
        entries=st.lists(st.integers(-2, 10) | st.booleans() | st.none(), max_size=5)
        | st.lists(st.integers(1, 9), min_size=1, max_size=4, unique=True).map(sorted),
        as_list=st.booleans(),
        n=st.integers(-1, 9) | st.booleans() | st.none(),
    )
    def test_fast_accept_decides_as_the_checks_do(self, kind, entries, as_list, n):
        """The fast accept of a well-formed block changes no verdict and
        no error: a copy of the checks alone decides the same way."""
        indices = list(entries) if as_list else tuple(entries)
        try:
            reference_block_checks(kind, indices, n)
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc)) as info:
                CanonicalBlock(kind, indices, n)
            assert str(info.value) == str(exc)
        else:
            assert CanonicalBlock(kind, indices, n).indices == indices


class TestBlockGraph:
    def test_edge_counts(self):
        assert block_graph(CanonicalBlock.quad(1, 2, 3, 4, 6)).mask.bit_count() == 6
        assert block_graph(CanonicalBlock.pair(1, 2, 6)).mask.bit_count() == 8
        assert block_graph(CanonicalBlock.star(1, 6)).mask.bit_count() == 5
        assert block_graph(CanonicalBlock.star(1, 3)).mask.bit_count() == 2

    def test_star_n4_degenerates_to_quad(self):
        g = block_graph(CanonicalBlock.star(2, 4))
        assert g == DiscriminationGraph.complete(4)

    def test_agrees_with_state_graph_exhaustively(self):
        from groverid.discrimination import candidate_blocks

        for n in range(3, 13):
            for block in candidate_blocks(n):
                assert block_graph(block) == discrimination_graph(block_state(block)), block


class TestMaskAgainstDefinition:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_block_graph_is_the_half_sum_graph(self, data):
        n = data.draw(st.one_of(st.sampled_from([3, 4]), st.integers(2, 40)), label="n")
        block = data.draw(canonical_blocks(n), label="block")
        assert block_graph(block).edges == half_sum_graph(block)

    def test_every_star_at_n3_and_n4(self):
        for n in (3, 4):
            for center in range(1, n + 1):
                block = CanonicalBlock.star(center, n)
                assert block_graph(block).edges == half_sum_graph(block)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_verify_product_fails_exactly_the_missing_pairs(self, data):
        n = data.draw(st.integers(3, 30), label="n")
        blocks = list(data.draw(st.sampled_from([(), construct_product_scheme(n).blocks])))
        blocks += data.draw(st.lists(canonical_blocks(n), max_size=4), label="extra")
        if not blocks:
            blocks.append(data.draw(canonical_blocks(n)))
        if len(blocks) > 1 and data.draw(st.booleans(), label="drop"):
            del blocks[data.draw(st.integers(0, len(blocks) - 1))]
        covered = set().union(*(half_sum_graph(b) for b in blocks))
        report = verify_product(ProductScheme(n, blocks))
        assert [d.pair for d in report.failing_pairs] == [
            p for p in all_pairs(n) if p not in covered
        ]
        assert report.valid == is_complete_cover([block_graph(b) for b in blocks], n)

    def test_edges_round_trip_through_the_mask(self):
        pairs = all_pairs(9)
        for k, pair in enumerate(pairs):
            assert DiscriminationGraph(9, 1 << k).edges == {pair}
        assert DiscriminationGraph.complete(9).edges == set(pairs)
        assert DiscriminationGraph(9, 0).edges == frozenset()

    def test_mask_range_checked(self):
        DiscriminationGraph(4, (1 << 6) - 1)
        for mask in (1 << 6, -1):
            with pytest.raises(ValueError):
                DiscriminationGraph(4, mask)


class TestPairCap:
    def test_pair_count(self):
        assert pair_count(1) == 0
        assert pair_count(6) == 15
        assert pair_count(4472) == 4472 * 4471 // 2 <= MAX_PAIRS
        with pytest.raises(ResourceCapError):
            pair_count(4473)

    @pytest.mark.parametrize(
        "make",
        [
            all_pairs,
            DiscriminationGraph.complete,
            lambda n: DiscriminationGraph(n, 1),
            lambda n: SingleCopyState(n, {1: Fraction(1)}),
            lambda n: block_state(CanonicalBlock.star(1, n)),
            lambda n: block_graph(CanonicalBlock.pair(1, 2, n)),
            lambda n: block_graph(CanonicalBlock.quad(n - 3, n - 2, n - 1, n, n)),
        ],
        ids=["all_pairs", "complete", "graph", "state", "block_state", "pair", "quad"],
    )
    def test_over_cap_raises_before_allocating(self, make):
        with pytest.raises(ResourceCapError):
            make(10**12)


class TestCanonicalize:
    def test_pair_state_is_already_canonical(self):
        s = exact_state_from_mag2(5, {1: Fraction(1, 2), 2: Fraction(1, 2)})
        assert canonicalize(s) == CanonicalBlock.pair(1, 2, 5)

    def test_half_quarter_quarter_state(self):
        s = exact_state_from_mag2(
            5, {1: Fraction(1, 2), 2: Fraction(1, 4), 3: Fraction(1, 4)}
        )
        assert discrimination_graph(s).edges == frozenset({(1, 4), (1, 5), (2, 3)})
        assert canonicalize(s) == CanonicalBlock.pair(1, 2, 5)

    def test_trivial_state_raises(self):
        s = SingleCopyState(4, {1: Fraction(1)})
        with pytest.raises(TrivialStateError):
            canonicalize(s)

    def test_containment_on_manifold_samples(self):
        rng = random.Random(41)
        for _ in range(120):
            n = rng.randint(3, 9)
            s = sample_manifold_state(rng, n)
            graph = discrimination_graph(s)
            block = canonicalize(s)
            assert graph.edges <= block_graph(block).edges

    def test_uniform_quad_maps_to_quad(self):
        s = block_state(CanonicalBlock.quad(1, 2, 3, 4, 4))
        assert canonicalize(s) == CanonicalBlock("quad", (1, 2, 3, 4), 4)


class TestCompleteCover:
    def test_quad_plus_star_covers_n5(self):
        graphs = [
            block_graph(CanonicalBlock.quad(1, 2, 3, 4, 5)),
            block_graph(CanonicalBlock.star(5, 5)),
        ]
        assert is_complete_cover(graphs, 5)

    def test_single_pair_block_misses_its_own_pair(self):
        assert not is_complete_cover([block_graph(CanonicalBlock.pair(1, 2, 6))], 6)

    def test_two_pair_blocks_cover_n3(self):
        graphs = [
            block_graph(CanonicalBlock.pair(1, 2, 3)),
            block_graph(CanonicalBlock.pair(1, 3, 3)),
        ]
        assert is_complete_cover(graphs, 3)

    def test_single_block_completeness_by_dimension(self):
        from groverid.discrimination import candidate_blocks

        assert is_complete_cover([block_graph(CanonicalBlock.quad(1, 2, 3, 4, 4))], 4)
        assert is_complete_cover([block_graph(CanonicalBlock.star(1, 4))], 4)
        for n in range(5, 9):
            for block in candidate_blocks(n):
                assert not is_complete_cover([block_graph(block)], n)

    def test_vertex_count_mismatch(self):
        with pytest.raises(ValueError):
            is_complete_cover([block_graph(CanonicalBlock.pair(1, 2, 5))], 6)
