"""Tests for bit-exact JSON round-trips and schema validation."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groverid.discrimination import CanonicalBlock, block_graph
from groverid.exceptions import SchemaError
from groverid.oracle import Composition
from groverid.schemes import (
    ProductScheme,
    WeightProfile,
    builtin,
    construct_product_scheme,
    verify_entangled,
    verify_product,
)
from groverid.serialize import (
    dumps,
    fraction_from_str,
    fraction_to_str,
    graph_to_doc,
    report_to_doc,
    scheme_from_doc,
    scheme_to_doc,
    state_from_doc,
)


class TestFractions:
    def test_round_trip(self):
        for q in (Fraction(1, 16), Fraction(-3, 7), Fraction(0), Fraction(5)):
            assert fraction_from_str(fraction_to_str(q)) == q

    def test_reduced_form_emitted(self):
        assert fraction_to_str(Fraction(2, 32)) == "1/16"

    def test_bad_strings(self):
        for bad in ("1/0", "a/b", 3, None, "1.5", "1/2\n", "\u0661/\u0662"):
            with pytest.raises(SchemaError):
                fraction_from_str(bad)


class TestSchemeRoundTrip:
    def test_product(self):
        scheme = construct_product_scheme(7)
        doc = scheme_to_doc(scheme)
        back = scheme_from_doc(doc)
        assert isinstance(back, ProductScheme)
        assert back.n == scheme.n
        assert back.blocks == scheme.blocks

    def test_product_with_all_block_kinds(self):
        scheme = ProductScheme(
            6,
            [
                CanonicalBlock.pair(1, 2, 6),
                CanonicalBlock.quad(2, 3, 4, 5, 6),
                CanonicalBlock.star(6, 6),
            ],
        )
        back = scheme_from_doc(scheme_to_doc(scheme))
        assert back.blocks == scheme.blocks

    def test_entangled_exact(self):
        profile = builtin("n6-entangled")
        doc = scheme_to_doc(profile)
        back = scheme_from_doc(doc)
        assert isinstance(back, WeightProfile)
        assert back.weights == profile.weights
        assert dumps(scheme_to_doc(back)) == dumps(doc)

    def test_byte_identical_dumps(self):
        a = dumps(scheme_to_doc(builtin("n6-entangled")))
        b = dumps(scheme_to_doc(builtin("n6-entangled")))
        assert a == b


class TestSchemaValidation:
    def test_unknown_kind(self):
        with pytest.raises(SchemaError):
            scheme_from_doc({"kind": "magic", "n": 3})

    def test_duplicate_composition_rejected(self):
        doc = {
            "kind": "entangled",
            "n": 2,
            "t": 1,
            "weights": [
                {"composition": [1, 0], "q": "1/2"},
                {"composition": [1, 0], "q": "1/2"},
            ],
        }
        with pytest.raises(SchemaError, match="duplicate"):
            scheme_from_doc(doc)

    def test_unnormalized_mass_rejected(self):
        doc = {
            "kind": "entangled",
            "n": 2,
            "t": 1,
            "weights": [{"composition": [1, 0], "q": "1/3"}],
        }
        with pytest.raises(SchemaError, match="sum"):
            scheme_from_doc(doc)

    def test_out_of_range_block_index(self):
        doc = {"kind": "product", "n": 3, "blocks": [{"type": "pair", "i": 1, "j": 4}]}
        with pytest.raises(SchemaError):
            scheme_from_doc(doc)

    def test_negative_mass_rejected(self):
        doc = {
            "kind": "entangled",
            "n": 2,
            "t": 1,
            "weights": [
                {"composition": [1, 0], "q": "3/2"},
                {"composition": [0, 1], "q": "-1/2"},
            ],
        }
        with pytest.raises(SchemaError, match="negative"):
            scheme_from_doc(doc)

    def test_wrong_composition_length(self):
        doc = {
            "kind": "entangled",
            "n": 3,
            "t": 1,
            "weights": [{"composition": [1, 0], "q": "1/1"}],
        }
        with pytest.raises(SchemaError):
            scheme_from_doc(doc)

    def test_verified_semantics_survive_round_trip(self):
        for name in ("n4-single", "n5-product", "n6-entangled"):
            scheme = scheme_from_doc(scheme_to_doc(builtin(name)))
            if isinstance(scheme, WeightProfile):
                assert verify_entangled(scheme).valid
            else:
                assert verify_product(scheme).valid


class TestGraphAndReportDocs:
    def test_graph_sorted_edges(self):
        doc = graph_to_doc(block_graph(CanonicalBlock.pair(2, 1, 6)))
        assert doc["n"] == 6
        assert doc["edges"] == sorted(doc["edges"])
        assert len(doc["edges"]) == 8

    def test_report_with_defects(self):
        profile = WeightProfile(
            2,
            1,
            {Composition((1, 0)): Fraction(1, 2), Composition((0, 1)): Fraction(1, 2)},
        )
        doc = report_to_doc(verify_entangled(profile))
        assert doc["valid"] is False
        assert doc["failing_pairs"] == [[1, 2]]
        assert doc["defects"] == ["1/2"]

    def test_report_without_defects(self):
        report = verify_product(construct_product_scheme(5))
        doc = report_to_doc(report)
        assert doc == {"valid": True, "method": "coverage-check", "failing_pairs": []}


class TestStateDocs:
    def test_exact_state(self):
        doc = {
            "n": 5,
            "amps": [
                {"i": 1, "mag2": "1/2"},
                {"i": 2, "mag2": "1/4"},
                {"i": 3, "mag2": "1/4", "sign": -1},
            ],
        }
        state = state_from_doc(doc)
        assert state.mag2(1) == Fraction(1, 2)
        assert state.mag2(5) == 0

    @pytest.mark.parametrize(
        "entry", [{"re": 0.7071067811865476}, {"im": 0.7071067811865476}], ids=["re", "im"]
    )
    def test_re_im_entries_refused(self, entry):
        doc = {"n": 2, "amps": [{"i": 1, **entry}, {"i": 2, **entry}]}
        with pytest.raises(SchemaError, match="mag2"):
            state_from_doc(doc)

    def test_malformed_states(self):
        bad_docs = [
            {"n": 2, "amps": [{"i": 3, "mag2": "1/1"}]},
            {"n": 2, "amps": [{"i": 1, "mag2": "1/2"}, {"i": 1, "mag2": "1/2"}]},
            {"n": 2, "amps": [{"i": 1}]},
            {"n": 2, "amps": [{"i": 1, "mag2": "1/2"}]},  # unnormalized
            {"n": 2, "amps": []},
            {"n": 2},
        ]
        for doc in bad_docs:
            with pytest.raises(SchemaError):
                state_from_doc(doc)


# Text that reaches every escape: quotes, backslashes, control and
# non-ASCII characters, astral ones and a lone surrogate.
_text = st.text(
    st.sampled_from('"\\/\x00\x1f\x7f\n\té€\U0001f600\ud800a'), max_size=6
) | st.text(max_size=6)
_leaves = (
    _text
    | st.integers()
    | st.integers(min_value=2**64)
    | st.integers(max_value=-(2**64))
    | st.booleans()
    | st.none()
    | st.floats()
    | st.lists(st.integers(), max_size=6)
)
_documents = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_text, inner, max_size=4),
    max_leaves=20,
)


class TestCanonicalWriter:
    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(_text, _documents, max_size=5))
    def test_same_bytes_as_the_stdlib_indent_encoder(self, doc):
        assert dumps(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
