"""Hypothesis strategy for canonical-block product schemes, and the
pair-mask coverage check that ``verify_product`` is held to."""

from hypothesis import strategies as st

from groverid.discrimination import CanonicalBlock, block_graph, uncovered
from groverid.schemes import ProductScheme


def mask_failing_pairs(n, blocks):
    """The pairs of 1..n outside the OR of the blocks' graph masks, in
    all_pairs order."""
    return tuple(uncovered((block_graph(b) for b in blocks), n))


@st.composite
def product_schemes(draw):
    """Schemes on n = 3..14, n = 4 drawn more often (any star
    covers K4 there).  Blocks come from a small pool, so they repeat,
    and pairs and quads from the first few vertices, so they overlap."""
    n = draw(st.sampled_from([4, *range(3, 15)]))
    window = draw(st.integers(min(4, n), n))
    kinds = [
        st.lists(st.integers(1, window), min_size=2, max_size=2, unique=True)
        .map(lambda ij: CanonicalBlock.pair(*ij, n)),
        st.integers(1, n).map(lambda i: CanonicalBlock.star(i, n)),
    ]
    if n >= 4:
        kinds.append(
            st.lists(st.integers(1, window), min_size=4, max_size=4, unique=True)
            .map(lambda q: CanonicalBlock.quad(*q, n))
        )
    # Pair blocks set the signatures, so draw them twice as often.
    pool = draw(st.lists(st.one_of(kinds[0], *kinds), min_size=1, max_size=8))
    blocks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    return ProductScheme(n, blocks)
