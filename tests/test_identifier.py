"""Tests for black-box identification runs."""

from fractions import Fraction

import pytest

from groverid.discrimination import CanonicalBlock
from groverid.exceptions import AmbiguousClassificationError
from groverid.identifier import OracleBlackBox, exhaustive_check, run_identification
from groverid.oracle import GroverOracle
from groverid.schemes import ProductScheme, builtin, construct_product_scheme


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
