"""Phase oracles, multi-copy basis tuples, compositions, and inner products.

Database items are indexed 1..N externally.  A phase oracle with target
``x0`` flips the sign of the basis state ``|x0>`` and leaves every other
basis state unchanged; on a t-copy basis tuple it contributes one sign
flip per occurrence of the target.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

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
        indices = range(1, self.n + 1)
        if max(self.counts) == 1:  # each index at most once
            return tuple(itertools.compress(indices, self.counts))
        runs = map(itertools.repeat, indices, self.counts)
        return tuple(itertools.chain.from_iterable(runs))


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


class StateTable:
    """What no oracle changes in a multi-copy state: its tuples and their
    squared moduli, in row order, checked once (by ``AmpState`` or by how
    ``expand_to_state`` builds them) and shared by every state derived
    from it.  Its indexes fill lazily and are kept: the row of each
    tuple, the rows of each distinct modulus, and per slot and target
    the rows a query flips, one O(K) pass each for K rows.
    """

    __slots__ = ("n", "t", "tuples", "mag2s", "_rows", "_slots", "_classes")

    def __init__(self, n: int, t: int, tuples: Sequence[BasisTuple], mag2s: Sequence[Fraction]):
        self.n = n
        self.t = t
        self.tuples = tuple(tuples)
        self.mag2s = tuple(mag2s)
        self._rows: dict[BasisTuple, int] | None = None
        self._slots: list[dict[int, int]] = [{} for _ in range(t)]
        self._classes: dict[Fraction, int] | None = None

    def row(self, a: BasisTuple) -> int | None:
        """The row of tuple a, or None when a has amplitude 0."""
        if self._rows is None:
            self._rows = dict(zip(self.tuples, range(len(self.tuples))))
        return self._rows.get(a)

    def flips(self, copy: int, target: int) -> int:
        """Mask of the rows whose entry in slot ``copy`` (1-based) is
        ``target``: the signs one query of that oracle on that slot flips."""
        masks = self._slots[copy - 1]
        if target not in masks:
            hits = map(target.__eq__, map(operator.itemgetter(copy - 1), self.tuples))
            rows = itertools.compress(itertools.count(), hits)
            masks[target] = sum(map((1).__lshift__, rows))
        return masks[target]

    def classes(self) -> dict[Fraction, int]:
        """Each distinct squared modulus, in row order of first use, with
        the mask of its rows."""
        if self._classes is None:
            rows: dict[Fraction, list[int]] = {}
            for r, q in enumerate(self.mag2s):
                rows.setdefault(q, []).append(r)
            self._classes = {q: sum(map((1).__lshift__, rs)) for q, rs in rows.items()}
        return self._classes


class AmpState:
    """Sparse exact t-copy state, built from a map of basis tuples to
    ``SqrtRational`` amplitudes (checked, zeros dropped) and held as a
    ``StateTable`` plus ``sign``, an int whose bit r is set when row r is
    negative.  An oracle only flips signs, so the states it derives share
    the table.  ``amps`` is a read-only view of the amplitudes.
    Instances are immutable and safe to share.
    """

    __slots__ = ("n", "t", "table", "sign")

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
        mag2s = [v.mag2 for v in store.values()]
        denominator, numerators = _over_common_denominator(mag2s)
        norm = sum(numerators)
        if norm != denominator:
            raise ValueError(
                f"exact state has squared norm {Fraction(norm, denominator)}, expected 1"
            )
        negative = "".join("1" if v.sign < 0 else "0" for v in reversed(store.values()))
        self.n = n
        self.t = t
        self.table = StateTable(n, t, store, mag2s)
        self.sign = int(negative or "0", 2)

    @classmethod
    def on(cls, table: StateTable, sign: int = 0) -> "AmpState":
        """The state with these signs on a table, unchecked."""
        state = object.__new__(cls)
        state.n = table.n
        state.t = table.t
        state.table = table
        state.sign = sign
        return state

    @property
    def amps(self) -> Mapping[BasisTuple, SqrtRational]:
        return _Amplitudes(self)

    def mag2(self, a: BasisTuple) -> Fraction:
        r = self.table.row(tuple(a))
        return Fraction(0) if r is None else self.table.mag2s[r]

    def tuples(self) -> Iterable[BasisTuple]:
        return self.amps.keys()

    def __repr__(self) -> str:
        return f"AmpState(n={self.n}, t={self.t}, {len(self.table.tuples)} tuples)"


class _Amplitudes(Mapping):
    """A state's amplitudes, tuple to SqrtRational, in row order."""

    __slots__ = ("_state",)

    def __init__(self, state: AmpState):
        self._state = state

    def __getitem__(self, a: BasisTuple) -> SqrtRational:
        table = self._state.table
        r = table.row(a)
        if r is None:
            raise KeyError(a)
        return SqrtRational(-1 if self._state.sign >> r & 1 else 1, table.mag2s[r])

    def __len__(self) -> int:
        return len(self._state.table.tuples)

    def __iter__(self) -> Iterator[BasisTuple]:
        return iter(self._state.table.tuples)


def _check_same_shape(oracle: GroverOracle, state: AmpState) -> None:
    if oracle.n != state.n:
        raise ValueError(f"oracle dimension {oracle.n} != state dimension {state.n}")


def apply_oracle(oracle: GroverOracle, state: AmpState) -> AmpState:
    """Apply the oracle to every copy at once: the amplitude of tuple a
    picks up one sign flip per occurrence of the target in a."""
    _check_same_shape(oracle, state)
    table, flips = state.table, 0
    for copy in range(1, state.t + 1):
        flips ^= table.flips(copy, oracle.target)
    return AmpState.on(table, state.sign ^ flips)


def apply_oracle_to_copy(oracle: GroverOracle, state: AmpState, copy: int) -> AmpState:
    """Apply the oracle to a single copy slot (1-based); one query."""
    _check_same_shape(oracle, state)
    if not 1 <= copy <= state.t:
        raise ValueError(f"copy slot {copy} out of range 1..{state.t}")
    return AmpState.on(state.table, state.sign ^ state.table.flips(copy, oracle.target))


def overlap(x: AmpState, y: AmpState) -> Fraction:
    """Inner product <x|y> as an exact Fraction.

    Each cross term is sign * sqrt(mag2_x * mag2_y).  On one table, as
    for two oracle outputs of one input state, a row adds +/-mag2, so
    each distinct modulus gives ``signed_sqrt_sum`` one term, counted by
    popcounts.  States on different tables are summed tuple by tuple,
    and cross terms that are not rational raise ValueError.
    """
    if (x.n, x.t) != (y.n, y.t):
        raise ValueError(
            f"shape mismatch: ({x.n}, {x.t}) vs ({y.n}, {y.t})"
        )
    if x.table is y.table:
        differ = x.sign ^ y.sign
        terms = []
        for q, rows in x.table.classes().items():
            # the class adds q * (rows that agree - rows that differ)
            c = rows.bit_count() - 2 * (differ & rows).bit_count()
            terms.append((-1 if c < 0 else 1, (c * q) ** 2))
        return signed_sqrt_sum(terms)
    xa, ya = x.amps, y.amps
    terms = []
    for a in xa.keys() & ya.keys():
        xv, yv = xa[a], ya[a]
        terms.append((xv.sign * yv.sign, xv.mag2 * yv.mag2))
    return signed_sqrt_sum(terms)
