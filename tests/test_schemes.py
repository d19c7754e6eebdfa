"""Tests for scheme construction, verification, and bounds."""

import functools
import hashlib
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groverid import discrimination
from groverid.discrimination import CanonicalBlock, all_pairs
from groverid.exceptions import IndistinguishableError, ResourceCapError
from groverid.optimizer import entangled_feasible
from groverid.oracle import (
    Composition,
    GroverOracle,
    apply_oracle,
    enumerate_compositions,
    overlap,
    tau_parity,
)
from groverid.schemes import (
    ProductScheme,
    WeightProfile,
    builtin,
    construct_product_scheme,
    construction_size,
    expand_to_state,
    general_lower_bound,
    verify_entangled,
    verify_product,
)

from bent import bent_witness
from product_schemes import mask_failing_pairs, product_schemes


def pairwise_outputs_orthogonal(state, n):
    """Independent scheme check straight from the orthogonality condition."""
    outputs = {k: apply_oracle(GroverOracle(n, k), state) for k in range(1, n + 1)}
    bad = []
    for i, j in all_pairs(n):
        if overlap(outputs[i], outputs[j]) != 0:
            bad.append((i, j))
    return bad


class TestConstruction:
    def test_n6_block_list(self):
        scheme = construct_product_scheme(6)
        assert [(b.kind, b.indices) for b in scheme.blocks] == [
            ("pair", (1, 2)),
            ("pair", (1, 3)),
            ("pair", (4, 5)),
            ("pair", (4, 6)),
        ]

    def test_n3_block_list(self):
        scheme = construct_product_scheme(3)
        assert [(b.kind, b.indices) for b in scheme.blocks] == [
            ("pair", (1, 2)),
            ("pair", (1, 3)),
        ]

    def test_n2_is_indistinguishable(self):
        with pytest.raises(IndistinguishableError):
            construct_product_scheme(2)
        with pytest.raises(IndistinguishableError):
            construction_size(2)

    def test_n1_empty(self):
        scheme = construct_product_scheme(1)
        assert scheme.t == 0
        assert construction_size(1) == 0
        assert verify_product(scheme).valid

    def test_size_examples(self):
        assert construction_size(6) == 4
        assert construction_size(3) == 2
        assert construction_size(5) == 4

    def test_size_matches_length_and_bound(self):
        for n in range(3, 301):
            scheme = construct_product_scheme(n)
            assert scheme.t == construction_size(n) == 2 * (n // 3) + n % 3
            assert construction_size(n) <= 2 * n / 3 + 2

    def test_all_sizes_verify_valid(self):
        for n in range(3, 101):
            assert verify_product(construct_product_scheme(n)).valid

    def test_benchmark_sizes_keep_their_blocks(self):
        """The benchmark writes relabelled copies of the construction at
        these sizes, drops one block of some at random, and checks that a
        pair is then left uncovered; which seeds drop a redundant block
        depends on the block lists.  So any change to them must come with
        a change to the benchmark's generator, and this digest says so
        first."""
        sizes = [30, 120, *range(150, 301, 25), 210, *range(6, 15)]
        lines = (
            " ".join(f"{b.kind}{list(b.indices)}" for b in construct_product_scheme(n).blocks)
            for n in sizes
        )
        text = "\n".join(f"{n}: {line}" for n, line in zip(sizes, lines))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "f36f3ba5b8d6856285fa6e02af539cc443f0b3a355ff611922eed23cf8e036b8"


class TestVerifyProduct:
    def test_construction_n9_valid(self):
        assert verify_product(construct_product_scheme(9)).valid

    def test_single_pair_block_invalid(self):
        report = verify_product(ProductScheme(3, [CanonicalBlock.pair(1, 2, 3)]))
        assert not report.valid
        assert [d.pair for d in report.failing_pairs] == [(1, 2)]

    def test_builtin_n5_valid(self):
        assert verify_product(builtin("n5-product")).valid

    @settings(max_examples=300, deadline=None)
    @given(scheme=product_schemes())
    def test_signature_classes_agree_with_pair_masks(self, scheme):
        report = verify_product(scheme)
        assert report.method == "coverage-check"
        assert all(d.defect is None for d in report.failing_pairs)
        failing = tuple(d.pair for d in report.failing_pairs)
        assert failing == mask_failing_pairs(scheme.n, scheme.blocks)

    def test_construction_with_each_block_dropped_agrees_with_pair_masks(self):
        for n in range(3, 41):
            blocks = construct_product_scheme(n).blocks
            for k in range(len(blocks)):
                rest = blocks[:k] + blocks[k + 1:]
                failing = tuple(d.pair for d in verify_product(ProductScheme(n, rest)).failing_pairs)
                assert failing == mask_failing_pairs(n, rest), (n, k)

    def test_raw_state_blocks(self):
        # product schemes take canonical blocks only
        from groverid.discrimination import block_state

        blocks = [
            block_state(CanonicalBlock.star(1, 5)),
            block_state(CanonicalBlock.quad(2, 3, 4, 5, 5)),
        ]
        with pytest.raises(TypeError):
            ProductScheme(5, blocks)

    def test_cross_check_agrees_on_samples(self):
        # the coverage check against the full-tensor reference
        rng = random.Random(17)
        from groverid.discrimination import candidate_blocks
        from groverid.identifier import tensor_failing_pairs

        for n in range(3, 9):
            candidates = list(candidate_blocks(n))
            schemes = [ProductScheme(n, [b]) for b in candidates]
            for t in (2, 3, 4):
                for _ in range(6):
                    blocks = [rng.choice(candidates) for _ in range(t)]
                    schemes.append(ProductScheme(n, blocks))
            for scheme in schemes:
                report = verify_product(scheme)
                assert tuple(d.pair for d in report.failing_pairs) == tensor_failing_pairs(scheme)


class TestVerifyEntangled:
    def test_builtin_profile_valid_with_exact_masses(self):
        profile = builtin("n6-entangled")
        report = verify_entangled(profile)
        assert report.valid
        for i, j in all_pairs(6):
            mass = sum(
                q
                for comp, q in profile.weights.items()
                if (comp.counts[i - 1] + comp.counts[j - 1]) % 2 == 1
            )
            assert mass == Fraction(1, 2)

    def test_uniform_n2_t1_invalid(self):
        profile = WeightProfile(
            2,
            1,
            {
                Composition((1, 0)): Fraction(1, 2),
                Composition((0, 1)): Fraction(1, 2),
            },
        )
        report = verify_entangled(profile)
        assert not report.valid
        (defect,) = report.failing_pairs
        assert defect.pair == (1, 2)
        assert defect.defect == Fraction(1, 2)  # mass 1, off by +1/2

    def test_quarter_mass_profile_n3_valid(self):
        profile = WeightProfile(
            3,
            3,
            {
                Composition((1, 1, 1)): Fraction(1, 4),
                Composition((3, 0, 0)): Fraction(1, 4),
                Composition((0, 3, 0)): Fraction(1, 4),
                Composition((0, 0, 3)): Fraction(1, 4),
            },
        )
        assert verify_entangled(profile).valid

    def test_profile_soundness_against_expanded_state(self):
        rng = random.Random(29)
        for _ in range(30):
            n = rng.randint(2, 5)
            t = rng.randint(1, 3)
            comps = enumerate_compositions(n, t)
            support = rng.sample(comps, rng.randint(1, min(len(comps), 50)))
            weights = [Fraction(rng.randint(1, 9)) for _ in support]
            total = sum(weights)
            profile = WeightProfile(
                n, t, {c: q / total for c, q in zip(support, weights)}
            )
            report = verify_entangled(profile)
            state = expand_to_state(profile)
            bad = pairwise_outputs_orthogonal(state, n)
            assert report.valid == (not bad)
            assert [d.pair for d in report.failing_pairs] == bad


    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_defects_match_tau_parity_sums(self, data):
        # Reference straight from the definition: one tau_parity call per
        # (pair, composition), summed in the profile's order.
        n = data.draw(st.integers(1, 7), label="n")
        t = data.draw(st.integers(1, 4), label="t")
        comps = enumerate_compositions(n, t)
        support = data.draw(st.lists(st.sampled_from(comps), min_size=1, max_size=12, unique=True))
        raw = [Fraction(data.draw(st.integers(1, 9))) for _ in support]
        profile = WeightProfile(n, t, {c: q / sum(raw) for c, q in zip(support, raw)})
        expected = []
        for i, j in all_pairs(n):
            mass = sum(
                (q for c, q in profile.weights.items() if tau_parity(c, i, j)), Fraction(0)
            )
            if mass != Fraction(1, 2):
                expected.append(((i, j), mass - Fraction(1, 2)))
        report = verify_entangled(profile)
        assert [(d.pair, d.defect) for d in report.failing_pairs] == expected


def fraction_sum_defects(w):
    """The parity-mass check as one Fraction addition per (pair,
    composition): bit i of a composition's mask is set when its count on
    index i is odd, and a pair's odd-parity mass sums the compositions
    whose bits i and j differ."""
    odd = [
        (sum(1 << i for i, c in enumerate(comp.counts, start=1) if c % 2), q)
        for comp, q in w.weights.items()
    ]
    failing = []
    for i, j in all_pairs(w.n):
        mass = sum((q for m, q in odd if (m >> i ^ m >> j) & 1), Fraction(0))
        if mass != Fraction(1, 2):
            failing.append(((i, j), mass - Fraction(1, 2)))
    return failing


@functools.cache
def small_witness(n, t):
    return entangled_feasible(n, t).witness


#: (n, t) whose witness has at most 20 compositions, so two mixed
#: relabellings stay within 40.
SMALL_WITNESSES = [(3, 2), (3, 3), (4, 1), (4, 2), (4, 3), (5, 2), (5, 3), (6, 2)]


@st.composite
def profiles(draw):
    """Random profiles (mixed or all-distinct masses, n <= 9, up to 40
    compositions), and mixtures of relabelled witnesses, valid as drawn
    and sometimes perturbed."""
    kind = draw(st.sampled_from(["mixed", "distinct", "witness"]))
    if kind == "witness":
        n, t = draw(st.sampled_from(SMALL_WITNESSES))
        lambdas = [Fraction(draw(st.integers(1, 9))) for _ in range(draw(st.integers(1, 2)))]
        weights = {}
        for lam in lambdas:
            perm = draw(st.permutations(range(n)))
            for comp, q in small_witness(n, t).weights.items():
                key = Composition(tuple(comp.counts[p] for p in perm))
                weights[key] = weights.get(key, 0) + q * lam / sum(lambdas)
        if len(weights) > 1 and draw(st.booleans()):
            a, b = draw(st.lists(st.sampled_from(sorted(weights, key=lambda c: c.counts)),
                                 min_size=2, max_size=2, unique=True))
            shift = weights[a] * Fraction(1, draw(st.integers(2, 7)))
            weights[a] -= shift
            weights[b] += shift
        return WeightProfile(n, t, weights)
    n = draw(st.integers(1, 9))
    t = draw(st.integers(1, 4))
    support = draw(st.lists(
        st.sampled_from(enumerate_compositions(n, t)), min_size=1, max_size=40, unique=True
    ))
    if kind == "mixed":
        raw = [Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9))) for _ in support]
        return WeightProfile(n, t, {c: q / sum(raw) for c, q in zip(support, raw)})
    dens = draw(st.lists(st.integers(len(support) + 1, 1000),
                         min_size=len(support) - 1, max_size=len(support) - 1, unique=True))
    masses = [Fraction(1, d) for d in dens]
    masses.append(1 - sum(masses))
    return WeightProfile(n, t, dict(zip(support, masses)))


class TestParityColumns:
    """verify_entangled sums integer masses over parity columns; these
    tests hold it to the per-pair Fraction sum and to bent witnesses."""

    @settings(max_examples=300, deadline=None)
    @given(profiles())
    def test_matches_the_fraction_sum(self, profile):
        report = verify_entangled(profile)
        expected = fraction_sum_defects(profile)
        assert [(d.pair, d.defect) for d in report.failing_pairs] == expected
        assert report.valid == (not expected)
        assert report.method == "parity-mass"

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_bent_witnesses_are_valid(self, n):
        profile = bent_witness(n)
        assert profile.t == general_lower_bound(n)
        assert len(profile.weights) == n
        assert verify_entangled(profile).valid

    def test_bent_n16_against_tau_parity_sums(self):
        profile = bent_witness(16)
        for i, j in all_pairs(16):
            mass = sum(q for c, q in profile.weights.items() if tau_parity(c, i, j))
            assert mass == Fraction(1, 2)

    def test_bent_n256_in_under_a_second(self):
        profile = bent_witness(256)
        start = time.perf_counter()
        report = verify_entangled(profile)
        assert time.perf_counter() - start < 1
        assert report.valid

    def test_masses_summing_to_three_quarters_raise(self):
        weights = {
            Composition((1, 0, 0)): Fraction(1, 4),
            Composition((0, 1, 0)): Fraction(1, 3),
            Composition((0, 0, 1)): Fraction(1, 6),
        }
        with pytest.raises(ValueError, match=re.escape("masses sum to 3/4, expected exactly 1")):
            WeightProfile(3, 1, weights)

    def test_pair_cap_is_checked_first(self, monkeypatch):
        monkeypatch.setattr(discrimination, "MAX_PAIRS", 14)
        with pytest.raises(ResourceCapError):
            verify_entangled(builtin("n6-entangled"))

    def test_pair_cap_bounds_mass_classes_times_pairs(self, monkeypatch):
        """Three distinct masses over the three pairs of n = 3 take nine
        popcounts: a cap of 9 lets the profile through, 8 does not."""
        weights = {
            Composition((1, 0, 0)): Fraction(1, 2),
            Composition((0, 1, 0)): Fraction(1, 3),
            Composition((0, 0, 1)): Fraction(1, 6),
        }
        profile = WeightProfile(3, 1, weights)
        monkeypatch.setattr(discrimination, "MAX_PAIRS", 9)
        assert not verify_entangled(profile).valid
        monkeypatch.setattr(discrimination, "MAX_PAIRS", 8)
        with pytest.raises(ResourceCapError):
            verify_entangled(profile)


class TestWeightProfileChecks:
    @pytest.mark.parametrize(
        "n, t, weights, message",
        [
            (0, 1, {}, "need n >= 1 and t >= 1"),
            (3, 1, {(1, 0): 1}, "composition (1, 0) has 2 slots, expected 3"),
            (2, 2, {(1, 0): 1}, "composition (1, 0) sums to 1, expected 2"),
            (2, 1, {(1, 0): Fraction(3, 2), (0, 1): Fraction(-1, 2)},
             "negative mass -1/2 on (0, 1)"),
            (2, 1, {(1, 0): Fraction(1, 2), (0, 1): 0}, "masses sum to 1/2, expected exactly 1"),
        ],
        ids=["n0", "slots", "count-sum", "negative-mass", "mass-sum"],
    )
    def test_each_check_names_its_fault(self, n, t, weights, message):
        weights = {Composition(counts): q for counts, q in weights.items()}
        with pytest.raises(ValueError) as info:
            WeightProfile(n, t, weights)
        assert str(info.value) == message

    def test_masses_of_any_rational_type_are_kept_as_fractions(self):
        a, b, c = Composition((1, 0, 0)), Composition((0, 1, 0)), Composition((0, 0, 1))
        profile = WeightProfile(3, 1, {a: "1/2", b: 0.5, c: 0})
        assert profile.weights == {a: Fraction(1, 2), b: Fraction(1, 2)}
        assert {type(q) for q in profile.weights.values()} == {Fraction}


class TestExpandToState:
    def test_two_pair_blocks_give_four_tuples(self):
        scheme = ProductScheme(
            3, [CanonicalBlock.pair(1, 2, 3), CanonicalBlock.pair(1, 3, 3)]
        )
        state = expand_to_state(scheme)
        assert set(state.tuples()) == {(1, 1), (1, 3), (2, 1), (2, 3)}
        assert all(state.mag2(a) == Fraction(1, 4) for a in state.tuples())

    def test_profile_expansion_passes_all_pair_checks(self):
        state = expand_to_state(builtin("n6-entangled"))
        assert len(state.amps) == 16
        assert pairwise_outputs_orthogonal(state, 6) == []

    def test_single_quad_n4(self):
        state = expand_to_state(builtin("n4-single"))
        assert set(state.tuples()) == {(1,), (2,), (3,), (4,)}
        assert all(state.mag2(a) == Fraction(1, 4) for a in state.tuples())

    def test_tuple_cap(self):
        scheme = ProductScheme(6, [CanonicalBlock.quad(1, 2, 3, 4, 6)] * 10)  # 4^10 tuples
        with pytest.raises(ResourceCapError):
            expand_to_state(scheme)

    def test_star_n5_times_quad_matches_known_amplitudes(self):
        state = expand_to_state(builtin("n5-product"))
        # star amplitude on 1 is sqrt(1/3); quad amplitudes are 1/2
        assert state.mag2((1, 2)) == Fraction(1, 12)
        assert state.mag2((2, 2)) == Fraction(1, 24)
        assert sum(state.mag2(a) for a in state.tuples()) == 1


class TestBuiltins:
    def test_names_and_shapes(self):
        n4 = builtin("n4-single")
        assert isinstance(n4, ProductScheme) and n4.t == 1
        n5 = builtin("n5-product")
        assert isinstance(n5, ProductScheme) and n5.t == 2
        assert [b.kind for b in n5.blocks] == ["star", "quad"]
        n6 = builtin("n6-entangled")
        assert isinstance(n6, WeightProfile) and n6.t == 2
        assert len(n6.weights) == 16

    def test_all_builtins_verify_and_are_exactly_orthogonal(self):
        for name in ("n4-single", "n5-product", "n6-entangled"):
            scheme = builtin(name)
            if isinstance(scheme, WeightProfile):
                assert verify_entangled(scheme).valid
            else:
                assert verify_product(scheme).valid
            state = expand_to_state(scheme)
            n = scheme.n
            outputs = {k: apply_oracle(GroverOracle(n, k), state) for k in range(1, n + 1)}
            for i, j in all_pairs(n):
                assert overlap(outputs[i], outputs[j]) == Fraction(0)

    def test_diag_replacement(self):
        for k in range(1, 7):
            assert verify_entangled(builtin("n6-entangled", diag=k)).valid
        with pytest.raises(ValueError):
            builtin("n6-entangled", diag=7)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin("n7-magic")


class TestGeneralLowerBound:
    def test_examples(self):
        assert general_lower_bound(6) == 2
        assert general_lower_bound(100) == 45
        assert general_lower_bound(4) == 1

    def test_minimality_exhaustive(self):
        for n in range(1, 10**6 + 1):
            t = general_lower_bound(n)
            assert n - 2 * t <= 0 or (n - 2 * t) ** 2 <= n
            if t > 0:
                prev = t - 1
                assert n - 2 * prev > 0 and (n - 2 * prev) ** 2 > n
