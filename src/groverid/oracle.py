"""Phase oracles, multi-copy basis tuples, compositions, and inner products.

Database items are indexed 1..N externally.  A phase oracle with target
``x0`` flips the sign of the basis state ``|x0>`` and leaves every other
basis state unchanged; on a t-copy basis tuple it contributes one sign
flip per occurrence of the target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .amplitude import SqrtRational, signed_sqrt_sum
from .exceptions import ResourceCapError

#: Cap on the number of compositions an enumeration may produce.
MAX_COMPOSITIONS = 100_000

#: Cap on the counts those compositions hold together: n per composition.
MAX_COMPOSITION_ENTRIES = 10**7

#: An ordered multi-copy basis label a_1..a_t, entries in 1..N.
BasisTuple = tuple[int, ...]


@dataclass(frozen=True)
class GroverOracle:
    """Diagonal +/-1 phase oracle on dimension n with a single target index."""

    n: int
    target: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        if not 1 <= self.target <= self.n:
            raise ValueError(f"target {self.target} out of range 1..{self.n}")


@dataclass(frozen=True)
class Composition:
    """Multiplicity vector c_1..c_N of a basis tuple; the sufficient
    statistic for every pair-parity condition."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if not self.counts:
            raise ValueError("composition needs at least one slot")
        if min(self.counts) < 0:
            raise ValueError(f"counts must be nonnegative: {self.counts}")

    @property
    def n(self) -> int:
        return len(self.counts)

    @property
    def t(self) -> int:
        return sum(self.counts)

    @property
    def l1(self) -> int:
        """Number of odd multiplicities."""
        return sum(1 for c in self.counts if c % 2 == 1)

    @property
    def l2(self) -> int:
        """Number of even multiplicities."""
        return self.n - self.l1

    def representative_tuple(self) -> BasisTuple:
        """Lexicographically smallest tuple with this composition."""
        out: list[int] = []
        for i, c in enumerate(self.counts, start=1):
            out.extend([i] * c)
        return tuple(out)


def validate_tuple(a: BasisTuple, n: int) -> None:
    if len(a) < 1:
        raise ValueError("basis tuple must have length >= 1")
    for entry in a:
        if not 1 <= entry <= n:
            raise ValueError(f"tuple entry {entry} out of range 1..{n}")


def composition_of(a: BasisTuple, n: int) -> Composition:
    """Multiplicity vector of a tuple; invariant under permuting the tuple."""
    validate_tuple(a, n)
    counts = [0] * n
    for entry in a:
        counts[entry - 1] += 1
    return Composition(tuple(counts))


def tau_parity(c: Composition, i: int, j: int) -> int:
    """Sign-exponent parity (c_i + c_j) mod 2 for the oracle pair (i, j)."""
    if i == j:
        raise ValueError("pair indices must be distinct")
    for idx in (i, j):
        if not 1 <= idx <= c.n:
            raise ValueError(f"index {idx} out of range 1..{c.n}")
    return (c.counts[i - 1] + c.counts[j - 1]) % 2


def odd_pair_count(c: Composition) -> int:
    """Number of unordered pairs (i, j) whose tau parity is odd: l1*(N-l1)."""
    return c.l1 * (c.n - c.l1)


def enumerate_compositions(n: int, t: int) -> list[Composition]:
    """All compositions of t into n nonnegative parts, descending
    lexicographic on the count vectors (so ``(t,0,..)`` first), which
    orders them by their smallest representative tuple.

    Their number C(n+t-1, k), k = min(t, n-1), is built as the running
    product C(m+1, 1), C(m+2, 2), ..., which never decreases, so the cap
    is checked after each exact step and huge n or t cost a few steps.
    The n counts of every composition are capped as well, at
    ``MAX_COMPOSITION_ENTRIES``, before any is built.

    Each composition follows from the one before: take one from the last
    nonzero part before the final slot and put it, with the final slot's
    count, into the part after it.
    """
    if n < 1 or t < 1:
        raise ValueError("need n >= 1 and t >= 1")
    k = min(t, n - 1)
    m = n + t - 1 - k
    total = 1
    for i in range(1, k + 1):
        total = total * (m + i) // i
        if total > MAX_COMPOSITIONS:
            raise ResourceCapError(f"over {MAX_COMPOSITIONS} compositions for n={n}, t={t}")
    if total * n > MAX_COMPOSITION_ENTRIES:
        raise ResourceCapError(
            f"{total} compositions for n={n}, t={t} hold {total * n} counts, "
            f"over the cap of {MAX_COMPOSITION_ENTRIES}"
        )
    counts = [t] + [0] * (n - 1)
    out = [Composition(tuple(counts))]
    last = n - 1
    while counts[last] < t:
        i = last - 1
        while not counts[i]:
            i -= 1
        tail = counts[last]
        counts[last] = 0
        counts[i] -= 1
        counts[i + 1] = tail + 1
        out.append(Composition(tuple(counts)))
    return out


def _over_common_denominator(masses: list[Fraction]) -> tuple[int, list[int]]:
    """The lcm D of the masses' denominators, and each mass times D."""
    denominator = math.lcm(*{q.denominator for q in masses})
    return denominator, [q.numerator * (denominator // q.denominator) for q in masses]


class AmpState:
    """Sparse exact t-copy state: a map from basis tuples to SqrtRational
    amplitudes.  Instances are immutable after construction and safe to
    share."""

    __slots__ = ("n", "t", "amps")

    def __init__(self, n: int, t: int, amps: Mapping[BasisTuple, SqrtRational]):
        if n < 1 or t < 1:
            raise ValueError("need n >= 1 and t >= 1")
        store: dict[BasisTuple, SqrtRational] = {}
        for a, v in amps.items():
            a = tuple(a)
            if len(a) != t:
                raise ValueError(f"tuple {a} has length {len(a)}, expected t={t}")
            if min(a) < 1 or max(a) > n:
                validate_tuple(a, n)  # names the entry out of range
            if not isinstance(v, SqrtRational):
                raise TypeError(f"amplitude of {a} must be a SqrtRational, got {type(v).__name__}")
            if not v.is_zero:
                store[a] = v
        self.n = n
        self.t = t
        self.amps = store
        denominator, numerators = _over_common_denominator([v.mag2 for v in store.values()])
        norm = sum(numerators)
        if norm != denominator:
            raise ValueError(
                f"exact state has squared norm {Fraction(norm, denominator)}, expected 1"
            )

    def mag2(self, a: BasisTuple) -> Fraction:
        v = self.amps.get(tuple(a))
        return Fraction(0) if v is None else v.mag2

    def tuples(self) -> Iterable[BasisTuple]:
        return self.amps.keys()

    def __repr__(self) -> str:
        return f"AmpState(n={self.n}, t={self.t}, {len(self.amps)} tuples)"


def _check_same_shape(oracle: GroverOracle, state: AmpState) -> None:
    if oracle.n != state.n:
        raise ValueError(f"oracle dimension {oracle.n} != state dimension {state.n}")


def apply_oracle(oracle: GroverOracle, state: AmpState) -> AmpState:
    """Apply the oracle to every copy at once: the amplitude of tuple a
    picks up one sign flip per occurrence of the target in a."""
    _check_same_shape(oracle, state)
    new_amps: dict[BasisTuple, SqrtRational] = {}
    for a, v in state.amps.items():
        if a.count(oracle.target) % 2 == 1:
            v = -v
        new_amps[a] = v
    return AmpState(state.n, state.t, new_amps)


def apply_oracle_to_copy(oracle: GroverOracle, state: AmpState, copy: int) -> AmpState:
    """Apply the oracle to a single copy slot (1-based); one query."""
    _check_same_shape(oracle, state)
    if not 1 <= copy <= state.t:
        raise ValueError(f"copy slot {copy} out of range 1..{state.t}")
    new_amps: dict[BasisTuple, SqrtRational] = {}
    for a, v in state.amps.items():
        if a[copy - 1] == oracle.target:
            v = -v
        new_amps[a] = v
    return AmpState(state.n, state.t, new_amps)


def overlap(x: AmpState, y: AmpState) -> Fraction:
    """Inner product <x|y> as an exact Fraction.

    Each cross term is sign * sqrt(mag2_x * mag2_y).  For two oracle
    outputs of one input state mag2_x == mag2_y on every tuple, so the
    sum is rational term by term; states whose cross terms are not
    rational raise ValueError.
    """
    if (x.n, x.t) != (y.n, y.t):
        raise ValueError(
            f"shape mismatch: ({x.n}, {x.t}) vs ({y.n}, {y.t})"
        )
    terms = []
    for a in x.amps.keys() & y.amps.keys():
        xv, yv = x.amps[a], y.amps[a]
        terms.append((xv.sign * yv.sign, xv.mag2 * yv.mag2))
    return signed_sqrt_sum(terms)
