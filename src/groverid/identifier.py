"""End-to-end identification against a hidden oracle.

The hidden oracle is wrapped in a black box that exposes only its
dimension and per-copy application, so the identification path never
sees the target index and a run on a t-copy scheme costs exactly t
recorded applications.  Classification compares the black-box output
against the precomputed outputs of every candidate oracle; for a valid
scheme those are mutually orthogonal, so exactly one overlap has unit
magnitude.  Overlaps are exact rationals and are compared with ``==``.

A query flips signs only, so the run reads the box's answer as the
output state's sign bits.  A product scheme runs one block at a time.
Its input is a tensor product of one-copy states and every oracle is
diagonal, so each candidate overlap is a product over blocks of
one-copy sums: the box gets each block's one-copy state as its own
query, and no multi-copy state is built.  Each sum is a small integer
over the block's denominator (2, 4 or 2(n-2)), so every overlap is an
integer product over one common denominator.  A weight profile's t
queries run on its expanded t-copy state; its candidate overlaps then
come from the integer parity columns that its verifier reads, one
popcount per mass class, not from n candidate states.  The matched
candidate's overlap is taken once more from its tensor state as a
check.  Both paths share one classification loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .discrimination import all_pairs, pair_count
from .exceptions import AmbiguousClassificationError, ResourceCapError
from .oracle import (
    AmpState,
    GroverOracle,
    StateTable,
    apply_oracle,
    apply_oracle_to_copy,
    overlap,
)
from .schemes import (
    MAX_TUPLES,
    ProductScheme,
    Scheme,
    WeightProfile,
    _parity_columns,
    expand_to_state,
)


class OracleBlackBox:
    """Query-counting wrapper that hides an oracle's target index."""

    __slots__ = ("_oracle", "calls")

    def __init__(self, oracle: GroverOracle):
        self._oracle = oracle
        self.calls = 0

    @property
    def n(self) -> int:
        return self._oracle.n

    def apply(self, state: AmpState, copy: int) -> AmpState:
        """Apply the hidden oracle to one copy slot; counts one query."""
        self.calls += 1
        return apply_oracle_to_copy(self._oracle, state, copy)


@dataclass(frozen=True)
class IdentificationRun:
    """A classified run.  ``per_candidate_overlaps`` holds the magnitudes
    |<O_k psi|out>| for k = 1..n, not the signed overlaps."""

    n: int
    scheme: Scheme
    hidden_queries_used: int
    identified: int
    per_candidate_overlaps: tuple[Fraction, ...]


def run_identification(
    scheme: Scheme, hidden: Union[GroverOracle, OracleBlackBox]
) -> IdentificationRun:
    """Run a scheme against a hidden oracle and classify the output.

    The scheme is expected to pass its verifier; running an invalid one
    surfaces as AmbiguousClassificationError, since its candidate
    outputs are not mutually orthogonal.  Query count equals the
    scheme's copy count: the empty n=1 scheme names its only candidate
    without a query.  Either path yields the exact overlaps
    <O_k psi|out>, checked in the order k = 1..n.
    """
    box = hidden if isinstance(hidden, OracleBlackBox) else OracleBlackBox(hidden)
    if box.n != scheme.n:
        raise ValueError(f"hidden oracle dimension {box.n} != scheme dimension {scheme.n}")
    if isinstance(scheme, ProductScheme) and not scheme.blocks:
        return IdentificationRun(
            n=1, scheme=scheme, hidden_queries_used=0, identified=1,
            per_candidate_overlaps=(Fraction(1),),
        )

    calls_before = box.calls
    if isinstance(scheme, WeightProfile):
        psi = expand_to_state(scheme)
        out = psi
        for copy in range(1, psi.t + 1):
            out = box.apply(out, copy)
        overlaps = _column_overlaps(scheme, out)
    else:
        overlaps = _product_overlaps(scheme, box)
    queries = box.calls - calls_before

    magnitudes: list[Fraction] = []
    matches: list[int] = []
    for k, value in enumerate(overlaps, start=1):
        mag = abs(value)
        magnitudes.append(mag)
        if mag == 1:
            matches.append(k)
        elif mag != 0:
            raise AmbiguousClassificationError(
                f"candidate {k} has overlap magnitude {float(mag)!r}, neither 0 nor 1"
            )
    if len(matches) != 1:
        raise AmbiguousClassificationError(
            f"{len(matches)} candidates matched the output, expected exactly 1"
        )
    identified = matches[0]
    if isinstance(scheme, WeightProfile):
        exact = overlap(apply_oracle(GroverOracle(scheme.n, identified), psi), out)
        if exact != overlaps[identified - 1]:
            raise RuntimeError(
                f"candidate {identified}: column overlap {overlaps[identified - 1]} "
                f"!= tensor overlap {exact}"
            )
    return IdentificationRun(
        n=scheme.n,
        scheme=scheme,
        hidden_queries_used=queries,
        identified=identified,
        per_candidate_overlaps=tuple(magnitudes),
    )


def _column_overlaps(scheme: WeightProfile, out: AmpState) -> list[Fraction]:
    """The n candidate overlaps <O_k psi|out> of a weight profile.

    psi = ``expand_to_state(scheme)`` puts sqrt(q_c) on one representative
    tuple per composition c, row c in ``weights`` order, and ``out``
    shares its table, so <O_k psi|out> = sum_c q_c (-1)^(c_k) s_c, with
    s_c negative when bit c of ``out.sign`` is set.  In a mass class a
    (q_c = a/D, ``_parity_columns``) let bit j of out_a be the sign bit
    of the class's j-th composition; then the class adds
    a * (N_a - 2 * popcount(col_a[k] ^ out_a)) / D, N_a its size.  So
    each value is exactly the tensor overlap, one popcount per class.
    """
    bits = f"{out.sign:0{len(scheme.weights)}b}"[::-1]  # bits[r]: row r's sign bit
    rows: dict[int, list[int]] = {}  # the rows of each class, in its order
    for r, a in enumerate(scheme.numerators):
        rows.setdefault(a, []).append(r)
    totals = [0] * scheme.n
    for a, comps, cols in _parity_columns(scheme):
        out_a, size = int("".join([bits[r] for r in reversed(rows[a])]), 2), len(comps)
        totals = [
            acc + a * (size - 2 * (col ^ out_a).bit_count()) for acc, col in zip(totals, cols)
        ]
    return [Fraction(total, scheme.denominator) for total in totals]


def _product_overlaps(scheme: ProductScheme, box: OracleBlackBox) -> list[Fraction]:
    """The n candidate overlaps of a product scheme, one block at a time.

    Block b's state goes through the box as one one-copy query on its
    own table of rows (i,), so the output's sign names at most one
    flipped row.  Its moduli are integer numerators over d_b, as in
    ``block_state``: a pair (d_b = 2) or quad (4) lists 1 on its support
    and shares 0 elsewhere; a star (2(n-2)) lists n-3 on its centre,
    which has no row at n = 3, and shares 1.  With w_b(i) the numerator
    at i, negated if flipped, candidate k's overlap is the product over
    blocks of (base_b - 2 w_b(k)) / d_b, base_b = d_b - 2 (the flipped
    numerator, or 0).  An index that b neither lists nor flips takes the
    common factor base_b - 2 shared_b.  So the loop keeps ints only: P,
    the product of the nonzero common factors, a count of the zero ones,
    and per candidate k the product num_k of its own factors and den_k
    of the nonzero common factors they replace.  The overlap is
    (P // den_k) num_k / prod_b d_b, exactly the tensor-state overlap,
    if k's blocks hold every zero common factor, and 0 otherwise.

    The pair cap comes first, as in ``block_state``, and also bounds the
    n-sized lists; the support entries (a pair 2, a quad 4, a star n) are
    capped at ``MAX_TUPLES`` before any block table is built.
    """
    n = scheme.n
    pair_count(n)
    entries = sum(n if b.kind == "star" else len(b.indices) for b in scheme.blocks)
    if entries > MAX_TUPLES:
        raise ResourceCapError(
            f"{entries} support entries in {scheme.t} blocks exceeds cap {MAX_TUPLES}"
        )
    singles = [(i,) for i in range(1, n + 1)]
    moduli = {2: [Fraction(1, 2)] * 2, 4: [Fraction(1, 4)] * 4}  # a pair's, a quad's
    star_d = 2 * (n - 2)
    if n > 2:  # a star needs n >= 3
        star_modulus, centre_modulus = Fraction(1, star_d), Fraction(n - 3, star_d)
    product, zeros, denominator = 1, 0, 1
    num = [1] * (n + 1)  # k's own factors
    den = [1] * (n + 1)  # the nonzero common factors they replace
    zeros_held = [0] * (n + 1)  # the zero common factors they replace
    for b in scheme.blocks:
        if b.kind == "star":
            centre = b.indices[0]
            d, shared, listed = star_d, 1, {centre: n - 3}
            rows, mag2s = singles, [star_modulus] * n
            if n == 3:  # the centre has modulus 0, so no row
                rows, mag2s = singles[:centre - 1] + singles[centre:], mag2s[1:]
            else:
                mag2s[centre - 1] = centre_modulus
            table = StateTable(n, 1, rows, mag2s)
        else:
            d, shared, listed = len(b.indices), 0, dict.fromkeys(b.indices, 1)
            table = StateTable(n, 1, [singles[i - 1] for i in b.indices], moduli[d])
        flipped = box.apply(AmpState.on(table), 1).sign
        base = d
        if flipped:
            (i,) = table.tuples[flipped.bit_length() - 1]
            q = listed.get(i, shared)
            listed[i] = -q
            base -= 2 * q
        common = base - 2 * shared
        product, zeros = product * (common or 1), zeros + (not common)
        for i, w in listed.items():
            num[i] *= base - 2 * w
            den[i] *= common or 1
            zeros_held[i] += not common
        denominator *= d
    zero = Fraction(0)
    return [
        Fraction(product // den[k] * num[k], denominator)
        if num[k] and zeros_held[k] == zeros else zero
        for k in range(1, n + 1)
    ]


def tensor_failing_pairs(scheme: Scheme) -> tuple[tuple[int, int], ...]:
    """Reference check from the definition: expand the scheme's input
    state, apply every candidate oracle, and return the pairs whose
    outputs are not exactly orthogonal."""
    if scheme.n == 1:
        return ()  # no pair, and the empty n=1 scheme has no input state
    psi = expand_to_state(scheme)
    outputs = {
        k: apply_oracle(GroverOracle(scheme.n, k), psi) for k in range(1, scheme.n + 1)
    }
    return tuple(p for p in all_pairs(scheme.n) if overlap(outputs[p[0]], outputs[p[1]]) != 0)


def exhaustive_check(scheme: Scheme) -> bool:
    """True when all pairwise candidate-output overlaps vanish exactly;
    equivalent to the scheme verifier's verdict."""
    return not tensor_failing_pairs(scheme)
