"""Tests for black-box identification runs."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groverid.discrimination import CanonicalBlock, candidate_blocks
from groverid.exceptions import AmbiguousClassificationError
from groverid.identifier import OracleBlackBox, exhaustive_check, run_identification
from groverid.oracle import GroverOracle, apply_oracle, composition_of, overlap
from groverid.schemes import (
    ProductScheme,
    WeightProfile,
    builtin,
    construct_product_scheme,
    construction_size,
    expand_to_state,
    verify_product,
)


class TestRunIdentification:
    def test_n5_builtin_finds_hidden_target(self):
        run = run_identification(builtin("n5-product"), GroverOracle(5, 3))
        assert run.identified == 3
        assert run.hidden_queries_used == 2

    def test_n6_entangled_all_targets(self):
        scheme = builtin("n6-entangled")
        for k in range(1, 7):
            run = run_identification(scheme, GroverOracle(6, k))
            assert run.identified == k
            assert run.hidden_queries_used == 2

    def test_n4_single_copy(self):
        run = run_identification(builtin("n4-single"), GroverOracle(4, 1))
        assert run.identified == 1
        assert run.hidden_queries_used == 1

    def test_construction_schemes_recover_every_target(self):
        for n in range(3, 10):
            scheme = construct_product_scheme(n)
            for k in range(1, n + 1):
                run = run_identification(scheme, GroverOracle(n, k))
                assert run.identified == k
                assert run.hidden_queries_used == scheme.t

    def test_exactly_one_unit_overlap(self):
        run = run_identification(builtin("n5-product"), GroverOracle(5, 2))
        unit = [k for k, mag in enumerate(run.per_candidate_overlaps, start=1) if mag == 1]
        zero = [mag for mag in run.per_candidate_overlaps if mag == 0]
        assert unit == [2]
        assert len(zero) == 4
        assert all(type(mag) is Fraction for mag in run.per_candidate_overlaps)

    def test_black_box_counts_queries(self):
        box = OracleBlackBox(GroverOracle(6, 5))
        scheme = builtin("n6-entangled")
        run = run_identification(scheme, box)
        assert box.calls == 2
        assert run.hidden_queries_used == 2
        # a second run on the same box counts only its own queries
        run2 = run_identification(scheme, box)
        assert box.calls == 4
        assert run2.hidden_queries_used == 2

    def test_invalid_scheme_is_ambiguous(self):
        scheme = ProductScheme(3, [CanonicalBlock.pair(1, 2, 3)])
        with pytest.raises(AmbiguousClassificationError):
            run_identification(scheme, GroverOracle(3, 1))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            run_identification(builtin("n4-single"), GroverOracle(5, 1))

    def test_empty_n1_scheme_needs_no_query(self):
        scheme = ProductScheme(1, [])
        run = run_identification(scheme, GroverOracle(1, 1))
        assert run.identified == 1
        assert run.hidden_queries_used == 0
        assert exhaustive_check(scheme)

    def test_agreement_with_exhaustive_check(self):
        import random

        from groverid.discrimination import candidate_blocks

        rng = random.Random(37)
        for n in range(3, 7):
            candidates = list(candidate_blocks(n))
            for _ in range(8):
                blocks = [rng.choice(candidates) for _ in range(rng.randint(1, 3))]
                scheme = ProductScheme(n, blocks)
                runs_clean = True
                for k in range(1, n + 1):
                    try:
                        run = run_identification(scheme, GroverOracle(n, k))
                    except AmbiguousClassificationError:
                        runs_clean = False
                        break
                    if run.identified != k:
                        runs_clean = False
                        break
                assert runs_clean == exhaustive_check(scheme)


_CANDIDATES = {n: list(candidate_blocks(n)) for n in range(2, 8)}


@st.composite
def _product_schemes(draw):
    n = draw(st.integers(2, 7))
    return ProductScheme(n, draw(st.lists(st.sampled_from(_CANDIDATES[n]), min_size=1, max_size=3)))


def _outcome(scheme, hidden):
    """(overlaps, identified) of a run, or the ambiguity message."""
    try:
        run = run_identification(scheme, hidden)
    except AmbiguousClassificationError as exc:
        return str(exc)
    return run.per_candidate_overlaps, run.identified


def _as_profile(scheme: ProductScheme) -> WeightProfile:
    """The weight profile with the same mass on every composition as the
    product's tensor state; every candidate overlap depends on the state
    only through those masses, so identifying it runs the tensor path."""
    masses: Counter = Counter()
    for a, v in expand_to_state(scheme).amps.items():
        masses[composition_of(a, scheme.n)] += v.mag2
    return WeightProfile(scheme.n, scheme.t, masses)


class TestBlockByBlock:
    """A product scheme runs one block at a time; its overlaps, queries
    and ambiguity messages must be those of the tensor state."""

    @settings(max_examples=150, deadline=None)
    @given(scheme=_product_schemes())
    def test_matches_tensor_state(self, scheme):
        n, psi = scheme.n, expand_to_state(scheme)
        profile = _as_profile(scheme)
        for h in range(1, n + 1):
            out = apply_oracle(GroverOracle(n, h), psi)
            expected = tuple(
                abs(overlap(apply_oracle(GroverOracle(n, k), psi), out)) for k in range(1, n + 1)
            )
            box = OracleBlackBox(GroverOracle(n, h))
            got = _outcome(scheme, box)
            assert box.calls == scheme.t
            assert got == _outcome(profile, GroverOracle(n, h))
            if not isinstance(got, str):
                overlaps, identified = got
                assert overlaps == expected
                assert all(type(mag) is Fraction for mag in overlaps)
                assert identified == h
            elif verify_product(scheme).valid:
                pytest.fail(f"covering scheme {scheme.blocks} is ambiguous: {got}")

    def test_strategy_reaches_every_outcome(self):
        """The property above sees covering and non-covering schemes, and
        both ambiguity messages."""
        seen = set()

        @settings(max_examples=150, deadline=None, database=None)
        @given(scheme=_product_schemes())
        def collect(scheme):
            seen.add("covering" if verify_product(scheme).valid else "not covering")
            for h in range(1, scheme.n + 1):
                outcome = _outcome(scheme, GroverOracle(scheme.n, h))
                if isinstance(outcome, str):
                    seen.add("magnitude" if outcome.startswith("candidate") else "count")

        collect()
        assert seen == {"covering", "not covering", "magnitude", "count"}

    def test_builds_no_tensor_state(self, monkeypatch):
        import groverid.identifier as identifier

        def refuse(*args):
            raise AssertionError("a product scheme reached the tensor path")

        for name in ("expand_to_state", "apply_oracle", "overlap"):
            monkeypatch.setattr(identifier, name, refuse)
        run = run_identification(builtin("n5-product"), GroverOracle(5, 4))
        assert run.identified == 4

    def test_construction_scales(self):
        for n in range(15, 41):
            scheme = construct_product_scheme(n)
            for k in range(1, n + 1):
                run = run_identification(scheme, GroverOracle(n, k))
                assert run.identified == k
                assert run.hidden_queries_used == construction_size(n)


class TestExhaustiveCheck:
    def test_builtins_pass(self):
        assert exhaustive_check(builtin("n6-entangled"))
        assert exhaustive_check(builtin("n5-product"))
        assert exhaustive_check(builtin("n4-single"))

    def test_single_pair_block_fails(self):
        assert not exhaustive_check(ProductScheme(3, [CanonicalBlock.pair(1, 2, 3)]))

    def test_agrees_with_verifier(self):
        import random

        from groverid.discrimination import candidate_blocks
        from groverid.schemes import verify_product

        rng = random.Random(31)
        for n in range(3, 7):
            candidates = list(candidate_blocks(n))
            for _ in range(10):
                blocks = [rng.choice(candidates) for _ in range(rng.randint(1, 3))]
                scheme = ProductScheme(n, blocks)
                assert exhaustive_check(scheme) == verify_product(scheme).valid
