"""Tests for black-box identification runs."""

import itertools
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bent import bent_witness
from fraction_overlaps import fraction_overlaps
from groverid.discrimination import CanonicalBlock, candidate_blocks
from groverid.exceptions import AmbiguousClassificationError
from groverid.identifier import (
    OracleBlackBox,
    _product_overlaps,
    exhaustive_check,
    run_identification,
)
from groverid.optimizer import entangled_feasible
from groverid.oracle import (
    Composition,
    GroverOracle,
    apply_oracle,
    apply_oracle_to_copy,
    composition_of,
    enumerate_compositions,
    overlap,
)
from groverid.schemes import (
    ProductScheme,
    WeightProfile,
    builtin,
    construct_product_scheme,
    construction_size,
    expand_to_state,
    verify_entangled,
    verify_product,
)
from product_schemes import product_schemes


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
    only through those masses, so identifying it runs the profile path."""
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

    @settings(max_examples=150, deadline=None)
    @given(scheme=product_schemes())
    def test_signed_overlaps_are_tensor_overlaps(self, scheme):
        """Each candidate's overlap from the blocks, sign included, is
        <O_k psi|O_h psi> on the expanded state, for every hidden h.  The
        blocks after the tensor state passes 1024 tuples are left out."""
        blocks, size = [], 1
        for b in scheme.blocks:
            size *= scheme.n if b.kind == "star" else len(b.indices)
            if size > 1024:
                break
            blocks.append(b)
        scheme = ProductScheme(scheme.n, blocks)
        n, psi = scheme.n, expand_to_state(scheme)
        outputs = [apply_oracle(GroverOracle(n, k), psi) for k in range(1, n + 1)]
        for h in range(1, n + 1):
            box = OracleBlackBox(GroverOracle(n, h))
            got = _product_overlaps(scheme, box)
            assert box.calls == scheme.t
            assert got == [overlap(out, outputs[h - 1]) for out in outputs]

    @settings(max_examples=150, deadline=None)
    @given(scheme=product_schemes())
    def test_integer_factors_match_fraction_reference(self, scheme):
        """Every block counts, with no tensor-size cut: the integer
        factors give the Fraction reference's list for every hidden h."""
        for h in range(1, scheme.n + 1):
            got = _product_overlaps(scheme, OracleBlackBox(GroverOracle(scheme.n, h)))
            assert got == fraction_overlaps(scheme, OracleBlackBox(GroverOracle(scheme.n, h)))
            assert all(type(value) is Fraction for value in got)

    def test_integer_factors_on_the_largest_construction(self):
        n = 4472
        stars = [CanonicalBlock.star(c, n) for c in range(1, 41)]
        scheme = ProductScheme(n, stars + list(construct_product_scheme(n).blocks))
        for h in (1, 40, 41, n):
            got = _product_overlaps(scheme, OracleBlackBox(GroverOracle(n, h)))
            assert got == fraction_overlaps(scheme, OracleBlackBox(GroverOracle(n, h)))
            assert all(type(value) is Fraction for value in got)

    def test_stars_on_the_largest_construction(self):
        """40 stars tensor the n = 4472 construction: 184,844 support
        entries, each star's n indices sharing one factor."""
        n = 4472
        stars = [CanonicalBlock.star(c, n) for c in range(1, 41)]
        scheme = ProductScheme(n, stars + list(construct_product_scheme(n).blocks))
        for k in (1, 40, 41, n):
            start = time.perf_counter()
            run = run_identification(scheme, GroverOracle(n, k))
            assert time.perf_counter() - start < 3
            assert run.identified == k
            assert run.hidden_queries_used == 40 + construction_size(n)

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


def _tensor_outcome(profile: WeightProfile, hidden: int):
    """The outcome of a weight-profile run from the definition: query
    every copy slot of the expanded state, then take each candidate's
    overlap <O_k psi|out> from its own tensor state, in order, stopping
    at the first that is neither 0 nor 1 in magnitude."""
    n, psi = profile.n, expand_to_state(profile)
    out = psi
    for copy in range(1, psi.t + 1):
        out = apply_oracle_to_copy(GroverOracle(n, hidden), out, copy)
    magnitudes, matches = [], []
    for k in range(1, n + 1):
        mag = abs(overlap(apply_oracle(GroverOracle(n, k), psi), out))
        magnitudes.append(mag)
        if mag == 1:
            matches.append(k)
        elif mag != 0:
            return f"candidate {k} has overlap magnitude {float(mag)!r}, neither 0 nor 1"
    if len(matches) != 1:
        return f"{len(matches)} candidates matched the output, expected exactly 1"
    return tuple(magnitudes), matches[0]


def _pair_share(n, family):
    """The share of the family's subsets holding exactly one of u and v,
    if it is the same for every pair {u, v}, else None."""
    shares = {
        Fraction(sum((u in s) != (v in s) for s in family), len(family))
        for u, v in itertools.combinations(range(1, n + 1), 2)
    }
    return shares.pop() if len(shares) == 1 else None


def _families(n):
    """Subset families whose pair share is the same for every pair: all
    l-subsets, the translates of the (7, 3, 1) difference set {0, 1, 3}
    and of its complement, and the 14 planes of AG(3, 2)."""
    families = [list(itertools.combinations(range(1, n + 1), size)) for size in range(n + 1)]
    if n == 7:
        for base in ({0, 1, 3}, {2, 4, 5, 6}):
            families.append([tuple(sorted((x + v) % 7 + 1 for x in base)) for v in range(7)])
    if n == 8:
        families.append([
            tuple(x + 1 for x in range(8) if (a & x).bit_count() % 2 == b)
            for a in range(1, 8) for b in (0, 1)
        ])
    shares = ((f, _pair_share(n, f)) for f in families if len(f) <= 40)
    return [(f, q) for f, q in shares if q is not None]


def _level_mixes():
    """(n, t, [(family, mass per subset)]) for every mix of one or two
    families whose pair shares bracket 1/2 and hit it exactly, within
    40 compositions: each subset gets one copy on every member and its
    t - |S| spare copies on one member, so |S| has the parity of t."""
    half = Fraction(1, 2)
    mixes = []
    for n in range(3, 9):
        for t in range(1, 5):
            usable = [
                (f, q) for f, q in _families(n) if len(f[0]) <= t and (t - len(f[0])) % 2 == 0
            ]
            for f, q in usable:
                if q == half:
                    mixes.append((n, t, [(f, Fraction(1, len(f)))]))
            for (lo, q_lo), (hi, q_hi) in itertools.product(usable, repeat=2):
                if q_lo < half < q_hi and len(lo) + len(hi) <= 40:
                    lam = (half - q_lo) / (q_hi - q_lo)
                    mixes.append((n, t, [(hi, lam / len(hi)), (lo, (1 - lam) / len(lo))]))
    return mixes


_LEVEL_MIXES = _level_mixes()


@st.composite
def _profiles(draw):
    """Weight profiles on n = 3..8 with at most 40 compositions: valid
    level mixes, relabelled at random, perturbed level mixes, and random
    masses on random compositions."""
    kind = draw(st.sampled_from(["valid", "perturbed", "random"]))
    if kind == "random":
        n, t = draw(st.integers(3, 8)), draw(st.integers(1, 4))
        comps = enumerate_compositions(n, t)
        chosen = draw(st.lists(st.sampled_from(comps), min_size=1, max_size=40, unique=True))
        masses = draw(st.lists(st.integers(1, 3), min_size=len(chosen), max_size=len(chosen)))
        return WeightProfile(n, t, {c: Fraction(m, sum(masses)) for c, m in zip(chosen, masses)})
    n, t, parts = draw(st.sampled_from(_LEVEL_MIXES))
    label = draw(st.permutations(range(n)))
    weights: Counter = Counter()
    for family, mass in parts:
        for subset in family:
            counts = [0] * n
            for v in subset:
                counts[label[v - 1]] = 1
            spare = draw(st.sampled_from(subset)) if subset else draw(st.integers(1, n))
            counts[label[spare - 1]] += t - len(subset)
            weights[Composition(tuple(counts))] += mass
    if kind == "perturbed":
        comps = list(weights)
        src = draw(st.sampled_from(comps))
        dst = draw(st.sampled_from(enumerate_compositions(n, t)))
        moved = weights[src] * draw(st.sampled_from([Fraction(1, 2), Fraction(1)]))
        weights[src] -= moved
        weights[dst] += moved
    else:
        assert verify_entangled(WeightProfile(n, t, weights)).valid
    return WeightProfile(n, t, weights)


class TestParityColumns:
    """A weight profile's overlaps come from parity columns; its outcome
    must be that of the tensor-state definition."""

    @settings(max_examples=200, deadline=None)
    @given(profile=_profiles())
    def test_matches_tensor_loop(self, profile):
        for h in range(1, profile.n + 1):
            box = OracleBlackBox(GroverOracle(profile.n, h))
            got = _outcome(profile, box)
            assert box.calls == profile.t
            assert got == _tensor_outcome(profile, h)
            if not isinstance(got, str):
                assert all(type(mag) is Fraction for mag in got[0])
            elif verify_entangled(profile).valid:
                pytest.fail(f"valid profile is ambiguous: {got}")

    def test_strategy_reaches_every_outcome(self):
        """The property above sees valid and invalid profiles, one and
        several mass classes, and both ambiguity messages."""
        seen = set()

        @settings(max_examples=200, deadline=None, database=None)
        @given(profile=_profiles())
        def collect(profile):
            seen.add("valid" if verify_entangled(profile).valid else "invalid")
            seen.add("one class" if len(set(profile.weights.values())) == 1 else "classes")
            for h in range(1, profile.n + 1):
                outcome = _outcome(profile, GroverOracle(profile.n, h))
                if isinstance(outcome, str):
                    seen.add("magnitude" if outcome.startswith("candidate") else "count")

        collect()
        assert seen == {"valid", "invalid", "one class", "classes", "magnitude", "count"}

    def test_mismatch_raises(self, monkeypatch):
        import groverid.identifier as identifier

        monkeypatch.setattr(identifier, "overlap", lambda x, y: Fraction(-1))
        with pytest.raises(RuntimeError, match="column overlap 1 != tensor overlap -1"):
            run_identification(builtin("n6-entangled"), GroverOracle(6, 4))

    @pytest.mark.parametrize("name", ["uniform n=16", "bent n=256"])
    def test_scale(self, name):
        profile = entangled_feasible(16, 6).witness if name == "uniform n=16" else bent_witness(256)
        n = profile.n
        for k in (1, n // 2, n):
            start = time.perf_counter()
            run = run_identification(profile, GroverOracle(n, k))
            assert time.perf_counter() - start < 1.5
            assert run.identified == k
            assert run.hidden_queries_used == profile.t

    def test_scale_bent_1024(self):
        """The n = 1024 bent witness (t = 496): each query is one XOR on
        the expanded state's sign int."""
        profile = bent_witness(1024)
        start = time.perf_counter()
        run = run_identification(profile, GroverOracle(1024, 512))
        assert time.perf_counter() - start < 5
        assert run.identified == 512
        assert run.hidden_queries_used == profile.t
