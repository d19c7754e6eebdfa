"""Tests for phase oracles, compositions, and inner products."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groverid.amplitude import SqrtRational
from groverid.discrimination import CanonicalBlock
from groverid.exceptions import ResourceCapError
from groverid.oracle import (
    AmpState,
    Composition,
    GroverOracle,
    apply_oracle,
    apply_oracle_to_copy,
    composition_of,
    enumerate_compositions,
    odd_pair_count,
    overlap,
    tau_parity,
)
from groverid.schemes import ProductScheme, expand_to_state

import dict_state
from dict_state import DictState


def brute_tau(a, i, j):
    """Independent parity oracle: sum of per-entry deltas, mod 2."""
    return sum((1 if ak == i else 0) + (1 if ak == j else 0) for ak in a) % 2


def brute_odd_pair_count(c):
    """Count pairs with odd parity by enumerating all of them."""
    n = c.n
    return sum(
        1
        for i, j in itertools.combinations(range(1, n + 1), 2)
        if tau_parity(c, i, j) == 1
    )


def uniform_pair_state(n, i, j):
    """(|i> + |j>) / sqrt(2) as a one-copy AmpState."""
    half = SqrtRational.sqrt(Fraction(1, 2))
    return AmpState(n, 1, {(i,): half, (j,): half})


def phi6_state(diag=3):
    """The 2-copy entangled state for n=6: (1/4)(sum_{i<j} |ij> + |kk>)."""
    amp = SqrtRational.sqrt(Fraction(1, 16))
    amps = {(i, j): amp for i, j in itertools.combinations(range(1, 7), 2)}
    amps[(diag, diag)] = amp
    return AmpState(6, 2, amps)


class TestGroverOracle:
    def test_target_in_range(self):
        GroverOracle(6, 3)
        with pytest.raises(ValueError):
            GroverOracle(6, 0)
        with pytest.raises(ValueError):
            GroverOracle(6, 7)

    def test_sign_kept_on_even_count(self):
        # |33> under target 3: the target occurs twice, sign unchanged
        state = phi6_state()
        out = apply_oracle(GroverOracle(6, 3), state)
        assert out.amps[(3, 3)] == SqrtRational.sqrt(Fraction(1, 16))

    def test_sign_flipped_on_odd_count(self):
        state = phi6_state()
        out = apply_oracle(GroverOracle(6, 3), state)
        assert out.amps[(3, 5)] == -SqrtRational.sqrt(Fraction(1, 16))

    def test_involution(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(2, 6)
            t = rng.randint(1, 3)
            state = random_exact_state(rng, n, t)
            o = GroverOracle(n, rng.randint(1, n))
            back = apply_oracle(o, apply_oracle(o, state))
            assert back.amps == state.amps

    def test_per_copy_applications_compose_to_full(self):
        state = phi6_state()
        o = GroverOracle(6, 4)
        stepped = state
        for k in range(1, 3):
            stepped = apply_oracle_to_copy(o, stepped, k)
        full = apply_oracle(o, state)
        assert stepped.amps == full.amps

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_oracle(GroverOracle(5, 1), phi6_state())


def random_exact_state(rng, n, t):
    """Exact state with random signed rational squared moduli."""
    tuples = list(itertools.product(range(1, n + 1), repeat=t))
    chosen = rng.sample(tuples, rng.randint(1, len(tuples)))
    weights = [Fraction(rng.randint(1, 9)) for _ in chosen]
    total = sum(weights)
    return AmpState(
        n,
        t,
        {
            a: SqrtRational.sqrt(w / total, sign=rng.choice((-1, 1)))
            for a, w in zip(chosen, weights)
        },
    )


class TestTauParity:
    def test_double_occurrence_is_even(self):
        c = composition_of((3, 3), 6)
        assert tau_parity(c, 3, 5) == 0

    def test_single_occurrence_is_odd(self):
        c = composition_of((1, 2), 3)
        assert tau_parity(c, 1, 3) == 1

    def test_matches_bruteforce_on_random_tuples(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(2, 8)
            t = rng.randint(1, 6)
            a = tuple(rng.randint(1, n) for _ in range(t))
            i, j = rng.sample(range(1, n + 1), 2)
            assert tau_parity(composition_of(a, n), i, j) == brute_tau(a, i, j)

    def test_rejects_equal_and_out_of_range_indices(self):
        c = composition_of((1, 2), 3)
        with pytest.raises(ValueError):
            tau_parity(c, 2, 2)
        with pytest.raises(ValueError):
            tau_parity(c, 1, 4)


class TestComposition:
    def test_examples(self):
        assert composition_of((1, 2, 3), 3).counts == (1, 1, 1)
        assert composition_of((3, 3), 6).counts == (0, 0, 2, 0, 0, 0)

    def test_permutation_invariance(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(2, 7)
            t = rng.randint(1, 6)
            a = [rng.randint(1, n) for _ in range(t)]
            shuffled = a[:]
            rng.shuffle(shuffled)
            assert composition_of(tuple(a), n) == composition_of(tuple(shuffled), n)
            assert composition_of(tuple(a), n) == composition_of(tuple(sorted(a)), n)

    def test_derived_counts(self):
        c = Composition((1, 0, 2, 3))
        assert c.t == 6
        assert c.l1 == 2
        assert c.l2 == 2
        assert c.representative_tuple() == (1, 3, 3, 4, 4, 4)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Composition((1, -1))


class TestOddPairCount:
    def test_formula_examples(self):
        assert odd_pair_count(Composition((1, 1, 0, 0, 0, 0))) == 8
        assert odd_pair_count(Composition((0, 0, 2, 0, 0, 0))) == 0

    def test_exhaustive_small(self):
        for n in range(2, 9):
            for t in range(1, 5):
                for c in enumerate_compositions(n, t):
                    assert odd_pair_count(c) == brute_odd_pair_count(c)

    def test_random_bound(self):
        rng = random.Random(19)
        for _ in range(1000):
            n = rng.randint(2, 10)
            t = rng.randint(1, min(5, n // 2))
            a = tuple(rng.randint(1, n) for _ in range(t))
            c = composition_of(a, n)
            count = odd_pair_count(c)
            assert count == brute_odd_pair_count(c)
            assert count <= t * (n - t)


class TestOverlap:
    def test_self_overlap_is_one(self):
        s = uniform_pair_state(5, 1, 2)
        assert overlap(s, s) == Fraction(1)

    def test_plus_minus_orthogonal(self):
        half = SqrtRational.sqrt(Fraction(1, 2))
        plus = AmpState(2, 1, {(1,): half, (2,): half})
        minus = AmpState(2, 1, {(1,): half, (2,): -half})
        assert overlap(plus, minus) == Fraction(0)

    def test_entangled_outputs_orthogonal(self):
        # Two oracle outputs of the n=6 entangled state: exactly orthogonal.
        state = phi6_state()
        out1 = apply_oracle(GroverOracle(6, 1), state)
        out2 = apply_oracle(GroverOracle(6, 2), state)
        value = overlap(out1, out2)
        assert value == Fraction(0)

    def test_mixed_surds_raise(self):
        # cross terms sqrt(1/3 * 1/2) are irrational: not an overlap the
        # program ever takes, so it is refused rather than approximated
        third = SqrtRational.sqrt(Fraction(1, 3))
        x = AmpState(3, 1, {(1,): third, (2,): third, (3,): third})
        y = uniform_pair_state(3, 1, 2)
        with pytest.raises(ValueError):
            overlap(x, y)

    def test_sign_rule_under_oracle_pair(self):
        # applying f_i then f_j flips a tuple's sign exactly when the
        # tuple's composition has odd parity for (i, j)
        rng = random.Random(57)
        one = SqrtRational.sqrt(Fraction(1))
        for _ in range(100):
            n = rng.randint(2, 7)
            t = rng.randint(1, 4)
            a = tuple(rng.randint(1, n) for _ in range(t))
            i, j = rng.sample(range(1, n + 1), 2)
            state = AmpState(n, t, {a: one})
            out = apply_oracle(GroverOracle(n, j), state)
            out = apply_oracle(GroverOracle(n, i), out)
            sign = out.amps[a].sign
            parity = tau_parity(composition_of(a, n), i, j)
            assert sign == (-1) ** parity

    def test_norm_preserved_under_oracles(self):
        # x and y share squared moduli but not signs, so <x|y> is rational
        rng = random.Random(23)
        for _ in range(20):
            n = rng.randint(2, 5)
            t = rng.randint(1, 2)
            x = random_exact_state(rng, n, t)
            y = AmpState(
                n, t, {a: SqrtRational.sqrt(v.mag2, rng.choice((-1, 1))) for a, v in x.amps.items()}
            )
            o = GroverOracle(n, rng.randint(1, n))
            before = abs(overlap(x, y))
            after = abs(overlap(apply_oracle(o, x), apply_oracle(o, y)))
            assert after == before

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            overlap(uniform_pair_state(5, 1, 2), uniform_pair_state(6, 1, 2))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_product_overlap_factorizes(self, data):
        # Independent closed form: a block b with squared moduli m_b gives
        # <O_k b|O_h b> = 1 - 2(m_b(k) + m_b(h)), and a tensor product of
        # blocks multiplies these factors.
        n = data.draw(st.integers(2, 7), label="n")
        kinds = [kind for kind, least in (("pair", 2), ("star", 3), ("quad", 4)) if n >= least]
        blocks, moduli = [], []
        for _ in range(data.draw(st.integers(1, 3), label="t")):
            kind = data.draw(st.sampled_from(kinds))
            size = {"pair": 2, "star": 1, "quad": 4}[kind]
            indices = sorted(data.draw(st.permutations(range(1, n + 1)))[:size])
            blocks.append(CanonicalBlock(kind, tuple(indices), n))
            if kind == "star":
                m = {x: Fraction(1, 2 * (n - 2)) for x in range(1, n + 1)}
                m[indices[0]] = Fraction(n - 3, 2 * (n - 2))
            else:
                m = {x: Fraction(1, size) if x in indices else Fraction(0) for x in range(1, n + 1)}
            moduli.append(m)
        k, h = data.draw(st.permutations(range(1, n + 1)))[:2]
        psi = expand_to_state(ProductScheme(n, blocks))
        value = overlap(apply_oracle(GroverOracle(n, k), psi), apply_oracle(GroverOracle(n, h), psi))
        assert type(value) is Fraction
        assert value == math.prod(1 - 2 * (m[k] + m[h]) for m in moduli)


class TestEnumerateCompositions:
    def test_counts(self):
        assert len(enumerate_compositions(6, 2)) == 21
        assert len(enumerate_compositions(7, 2)) == 28
        for n in range(1, 9):
            for t in range(1, 9):
                assert len(enumerate_compositions(n, t)) == math.comb(n + t - 1, n - 1)

    def test_order_for_n2_t1(self):
        comps = enumerate_compositions(2, 1)
        assert [c.counts for c in comps] == [(1, 0), (0, 1)]

    def test_descending_lexicographic_no_duplicates(self):
        comps = enumerate_compositions(4, 3)
        vectors = [c.counts for c in comps]
        assert vectors == sorted(vectors, reverse=True)
        assert len(set(vectors)) == len(vectors)
        assert all(sum(v) == 3 for v in vectors)

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            enumerate_compositions(30, 30)

    def test_cap_boundary(self):
        # C(28, 5) = 98280 is under the cap of 10^5.  Over it: one more
        # copy, C(41, 4) = 101270 on the k = t side of k = min(t, n-1),
        # and 100001 compositions, for k = n-1 = 1 and for k = t = 1.
        assert len(enumerate_compositions(6, 23)) == 98280
        for n, t in [(6, 24), (38, 4), (2, 100_000), (100_001, 1)]:
            with pytest.raises(ResourceCapError):
                enumerate_compositions(n, t)

    def test_entries_cap(self):
        # 3163 one-copy compositions of 3163 counts each are 10,004,569
        # entries, just over MAX_COMPOSITION_ENTRIES; the count is under
        # MAX_COMPOSITIONS, so only the entries cap stops them.
        with pytest.raises(ResourceCapError, match="10004569 counts"):
            enumerate_compositions(3163, 1)

    def test_deep_enumeration_does_not_recurse(self):
        comps = enumerate_compositions(1500, 1)
        assert len(comps) == 1500
        assert comps[0].counts[0] == 1 and comps[-1].counts[-1] == 1


class TestAmpState:
    def test_rejects_unnormalized_exact(self):
        with pytest.raises(ValueError):
            AmpState(2, 1, {(1,): SqrtRational.sqrt(Fraction(1, 2))})

    def test_rejects_unnormalized_float(self):
        with pytest.raises(TypeError):
            AmpState(2, 1, {(1,): 0.9 + 0j})

    def test_drops_exact_zeros(self):
        amps = {
            (1,): SqrtRational.sqrt(Fraction(1)),
            (2,): SqrtRational.zero(),
        }
        s = AmpState(2, 1, amps)
        assert (2,) not in s.amps

    def test_mixed_values_rejected(self):
        # multi-copy states are exact only: one float amplitude is refused
        with pytest.raises(TypeError):
            AmpState(
                2,
                1,
                {(1,): SqrtRational.sqrt(Fraction(1, 2)), (2,): complex(math.sqrt(0.5))},
            )

    def test_tuple_validation(self):
        with pytest.raises(ValueError):
            AmpState(2, 2, {(1,): SqrtRational.sqrt(Fraction(1))})
        with pytest.raises(ValueError):
            AmpState(2, 1, {(3,): SqrtRational.sqrt(Fraction(1))})

    @pytest.mark.parametrize(
        "t, amps, error, message",
        [
            (2, {(1,): SqrtRational.sqrt(1)}, ValueError, "tuple (1,) has length 1, expected t=2"),
            (2, {(1, 0): SqrtRational.sqrt(1)}, ValueError, "tuple entry 0 out of range 1..3"),
            (2, {(4, 1): SqrtRational.sqrt(1)}, ValueError, "tuple entry 4 out of range 1..3"),
            (1, {(1,): Fraction(1)}, TypeError,
             "amplitude of (1,) must be a SqrtRational, got Fraction"),
            (1, {}, ValueError, "exact state has squared norm 0, expected 1"),
            (1, {(1,): SqrtRational.zero()}, ValueError,
             "exact state has squared norm 0, expected 1"),
            (2, {(1, 2): SqrtRational.sqrt(Fraction(1, 6)),
                 (3, 3): SqrtRational.sqrt(Fraction(1, 3))},
             ValueError, "exact state has squared norm 1/2, expected 1"),
        ],
    )
    def test_error_messages(self, t, amps, error, message):
        """Each check names what failed, in these exact words (n = 3)."""
        with pytest.raises(error) as exc:
            AmpState(3, t, amps)
        assert str(exc.value) == message


@st.composite
def _amplitudes(draw, n, t):
    """Up to 10 tuples on n, t with random signs and squared moduli from
    a few weights, zeros included, normalized."""
    tuples = draw(
        st.lists(st.tuples(*[st.integers(1, n)] * t), min_size=1, max_size=10, unique=True)
    )
    k = len(tuples)
    weights = draw(st.lists(st.sampled_from([0, 1, 1, 2, 4, 9]), min_size=k, max_size=k))
    if not any(weights):
        weights[0] = 1
    signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=k, max_size=k))
    return {
        a: SqrtRational.sqrt(Fraction(w, sum(weights)), sign)
        for a, w, sign in zip(tuples, weights, signs)
    }


def _value_or_error(f, x, y):
    try:
        return f(x, y)
    except ValueError:
        return "ValueError"


class TestAgainstDictState:
    """The table-and-sign state against the dict-rebuilding one it
    replaced (``tests/dict_state.py``): same amplitudes, moduli, tuple
    order and overlaps after any sequence of queries."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_queries_and_overlaps(self, data):
        n, t = data.draw(st.integers(1, 6), label="n"), data.draw(st.integers(1, 4), label="t")
        amps = data.draw(_amplitudes(n, t), label="amps")
        if data.draw(st.booleans(), label="resigned other"):
            # same tuples and moduli on another table, so cross terms are rational
            other_amps = {
                a: SqrtRational.sqrt(v.mag2, data.draw(st.sampled_from([-1, 1])))
                for a, v in amps.items()
            }
        else:
            other_amps = data.draw(_amplitudes(n, t), label="other amps")
        queries = data.draw(
            st.lists(st.tuples(st.integers(0, t), st.integers(1, n)), max_size=6), label="queries"
        )
        state, ref = AmpState(n, t, amps), DictState(n, t, amps)
        states, refs = [state], [ref]
        for copy, target in queries:  # copy 0: every copy at once
            if copy:
                state = apply_oracle_to_copy(GroverOracle(n, target), state, copy)
                ref = dict_state.apply_oracle_to_copy(target, ref, copy)
            else:
                state = apply_oracle(GroverOracle(n, target), state)
                ref = dict_state.apply_oracle(target, ref)
            assert state.table is states[0].table
            states.append(state)
            refs.append(ref)
        other, other_ref = AmpState(n, t, other_amps), DictState(n, t, other_amps)
        probes = amps.keys() | other_amps.keys()
        for x, rx in zip(states, refs):
            assert list(x.amps.items()) == list(rx.amps.items())
            assert len(x.amps) == len(rx.amps)
            assert list(x.tuples()) == list(rx.tuples())
            assert all(x.mag2(a) == rx.mag2(a) for a in probes)
            for y, ry in zip(states, refs):
                value = overlap(x, y)
                assert type(value) is Fraction
                assert value == dict_state.overlap(rx, ry)
            assert _value_or_error(overlap, x, other) == _value_or_error(
                dict_state.overlap, rx, other_ref
            )
            assert _value_or_error(overlap, other, x) == _value_or_error(
                dict_state.overlap, other_ref, rx
            )
