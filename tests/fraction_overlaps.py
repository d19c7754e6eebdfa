"""The Fraction-arithmetic product overlaps, kept as a test reference.

Each block's one-copy moduli are built as ``Fraction``s, block by
block, and every candidate's overlap is a running ``Fraction`` product.
``groverid.identifier`` takes the same factors as integer numerators
over one denominator instead, and must agree with this on every value.
"""

from fractions import Fraction

from groverid.discrimination import CanonicalBlock, pair_count
from groverid.exceptions import ResourceCapError
from groverid.identifier import OracleBlackBox
from groverid.oracle import AmpState, StateTable
from groverid.schemes import MAX_TUPLES, ProductScheme


def block_query(b: CanonicalBlock, singles: list[tuple[int]]) -> tuple[AmpState, Fraction, dict]:
    """Block b's one-copy state from the closed-form moduli of
    ``block_state``, the modulus shared by every index it does not list,
    and the moduli of those it lists: a pair or quad lists its support
    and shares 0, a star lists its centre and shares 1/(2(n-2)).
    ``singles[i - 1]`` is the tuple (i,).
    """
    n = b.n
    if b.kind != "star":
        q = Fraction(1, len(b.indices))
        listed = dict.fromkeys(b.indices, q)
        table = StateTable(n, 1, [singles[i - 1] for i in b.indices], listed.values())
        return AmpState.on(table), Fraction(0), listed
    centre = b.indices[0]
    shared, own = Fraction(1, 2 * (n - 2)), Fraction(n - 3, 2 * (n - 2))
    mag2s = [shared] * n
    mag2s[centre - 1] = own
    rows = singles
    if not own:  # n = 3: the centre has modulus 0, so no row
        rows, mag2s = singles[:centre - 1] + singles[centre:], mag2s[:centre - 1] + mag2s[centre:]
    return AmpState.on(StateTable(n, 1, rows, mag2s)), shared, {centre: own}


def fraction_overlaps(scheme: ProductScheme, box: OracleBlackBox) -> list[Fraction]:
    """The n candidate overlaps of a product scheme, one block at a time.

    Block b's state phi_b goes through the box as one one-copy query.
    Its rows are the distinct tuples (i,), so the output's sign names at
    most one flipped row; w_b(i) is |phi_b(i)|^2 with the output's sign
    on index i.  Candidate k's overlap is the product over blocks of
    base_b - 2 w_b(k), where base_b = sum_i w_b(i) = 1 - 2 (the flipped
    modulus, or 0).  The indices that ``block_query`` does not list and
    the box did not flip share one w_b, so one factor.  So each
    candidate takes the product of the nonzero shared factors, a count
    of the zero ones, and its own factors in the blocks that list or
    flip it: O(n + listed and flipped entries) Fraction operations in
    all, a star two or three, none a division by zero, each value
    exactly the tensor-state overlap.

    The pair cap comes first, as in ``block_state``, and also bounds the
    n-sized lists; the support entries (a pair 2, a quad 4, a star n) are
    capped at ``MAX_TUPLES`` before any block state is built.
    """
    n = scheme.n
    pair_count(n)
    entries = sum(n if b.kind == "star" else len(b.indices) for b in scheme.blocks)
    if entries > MAX_TUPLES:
        raise ResourceCapError(
            f"{entries} support entries in {scheme.t} blocks exceeds cap {MAX_TUPLES}"
        )
    singles = [(i,) for i in range(1, n + 1)]
    product, zeros = Fraction(1), 0
    ratio = [Fraction(1)] * (n + 1)  # k's own factors over the shared ones they replace
    zeros_held = [0] * (n + 1)  # zero shared factors in the blocks that list k
    for b in scheme.blocks:
        state, shared, listed = block_query(b, singles)
        flipped, table = box.apply(state, 1).sign, state.table
        base = Fraction(1)
        if flipped:
            r = flipped.bit_length() - 1
            (i,), q = table.tuples[r], table.mag2s[r]
            listed[i] = -q
            base -= 2 * q
        common = base - 2 * shared
        if common:
            product *= common
        else:
            zeros += 1
        # one exact division per distinct term, not per index; a zero
        # factor is counted instead of divided out
        own = {w: (base - 2 * w) / (common or 1) for w in set(listed.values())}
        for i, w in listed.items():
            ratio[i] *= own[w]
            zeros_held[i] += not common
    return [
        product * ratio[k] if zeros == zeros_held[k] else Fraction(0)
        for k in range(1, n + 1)
    ]
