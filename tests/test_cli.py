"""Tests for the CLI surface: payloads, exit codes, determinism."""

import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groverid import serialize
from groverid.cli import main
from groverid.schemes import builtin, construct_product_scheme
from groverid.serialize import scheme_to_doc

from bent import bent_witness

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage failures
        code = exc.code
    out, err = capsys.readouterr()
    payload = json.loads(out) if out else None
    return code, payload, err


class TestBounds:
    def test_n6(self, capsys):
        code, payload, _ = run_cli(capsys, "bounds", "--n", "6")
        assert code == 0
        assert payload == {"general_lower": 2, "construction_size": 4}

    def test_n100(self, capsys):
        code, payload, _ = run_cli(capsys, "bounds", "--n", "100")
        assert code == 0
        assert payload == {"general_lower": 45, "construction_size": 67}

    def test_n2_indistinguishable(self, capsys):
        code, payload, _ = run_cli(capsys, "bounds", "--n", "2")
        assert code == 0
        assert payload == {"indistinguishable": True}

    def test_missing_n_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "bounds")
        assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("verify",),
        ("bounds", "--n", "abc"),
        ("frobnicate",),
        (),
        ("verify", "--scheme", "n5-product", "--max-tuples", "10"),
        ("identify", "--n", "6", "--hidden", "1", "--max-tuples", "10"),
        ("build", "--n", "6", "--entangled", "--max-compositions", "10"),
    ],
    ids=[
        "missing-scheme", "bad-int", "unknown-command", "no-command", "unknown-flag",
        "no-max-tuples", "no-max-compositions",
    ],
)
def test_argument_errors_print_one_usage_document(capsys, argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert code == 2
    assert json.loads(out)["error"] == "usage"
    assert "usage:" in err


def captured_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return out.getvalue(), err.getvalue(), code


@pytest.mark.parametrize(
    "bad, good",
    [
        (("search", "--n", "5", "--mode", "product", "--max-n", "x"),
         ("search", "--n", "5", "--mode", "entangled")),
        (("search", "--n", "6", "--mode", "product", "--t-max", "3", "--frob"),
         ("search", "--n", "6", "--mode", "product")),
        (("build", "--n", "6", "--entangled", "--t"), ("build", "--n", "6", "--entangled")),
        (("graph", "--block", "pair 1 2", "--state", "x.json", "--n", "4"),
         ("graph", "--block", "pair 1 2", "--n", "4")),
        (("verify",), ("verify", "--scheme", "n6-entangled")),
    ],
    ids=["bad-int", "unknown-flag", "missing-value", "exclusive-group", "missing-scheme"],
)
def test_usage_error_leaves_no_state_behind(bad, good):
    """The parser is built once per process; a request after a usage
    error answers as it does on its own."""
    alone = captured_main(good)
    out, _, code = captured_main(bad)
    assert code == 2 and json.loads(out)["error"] == "usage"
    assert captured_main(good) == alone


class TestBuildAndVerify:
    def test_round_trip_product(self, capsys, tmp_path):
        for n in range(3, 51):
            code, payload, _ = run_cli(capsys, "build", "--n", str(n))
            assert code == 0
            path = tmp_path / f"scheme{n}.json"
            path.write_text(json.dumps(payload))
            code, report, _ = run_cli(capsys, "verify", "--scheme", str(path))
            assert code == 0
            assert report["valid"] is True

    def test_one_pair_block_at_n300(self, capsys, tmp_path):
        """The pair block covers only the pairs with one end in it: the
        other 298 vertices and the block's own pair fail."""
        doc = {"kind": "product", "n": 300, "blocks": [{"type": "pair", "i": 7, "j": 250}]}
        path = tmp_path / "one-pair.json"
        path.write_text(json.dumps(doc))
        code, report, _ = run_cli(capsys, "verify", "--scheme", str(path))
        assert code == 1
        assert report["valid"] is False
        assert len(report["failing_pairs"]) == math.comb(298, 2) + 1
        assert [7, 250] in report["failing_pairs"]
        assert report["failing_pairs"] == sorted(report["failing_pairs"])

    def test_round_trip_entangled(self, capsys, tmp_path):
        for n, t in [(5, 2), (6, 2)]:
            code, payload, _ = run_cli(
                capsys, "build", "--n", str(n), "--entangled", "--t", str(t)
            )
            assert code == 0
            assert payload["kind"] == "entangled"
            path = tmp_path / f"ent{n}.json"
            path.write_text(json.dumps(payload))
            code, report, _ = run_cli(capsys, "verify", "--scheme", str(path))
            assert code == 0
            assert report["valid"] is True

    def test_build_n2_exits_1(self, capsys):
        code, payload, err = run_cli(capsys, "build", "--n", "2")
        assert code == 1
        assert payload["indistinguishable"] is True
        assert "global phase" in err

    def test_build_entangled_infeasible_exits_1(self, capsys):
        code, payload, _ = run_cli(capsys, "build", "--n", "5", "--entangled", "--t", "1")
        assert code == 1
        assert payload == {"feasible": False, "n": 5, "t": 1}

    def test_build_entangled_over_composition_cap_exits_2(self, capsys):
        code, payload, _ = run_cli(capsys, "build", "--n", "40", "--entangled")
        assert code == 2
        assert payload["error"] == "resource-cap"

    def test_verify_invalid_scheme_exits_1(self, capsys, tmp_path):
        doc = {"kind": "product", "n": 3, "blocks": [{"type": "pair", "i": 1, "j": 2}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, report, _ = run_cli(capsys, "verify", "--scheme", str(path))
        assert code == 1
        assert report["failing_pairs"] == [[1, 2]]

    def test_verify_perturbed_profile_exits_1(self, capsys, tmp_path):
        code, payload, _ = run_cli(capsys, "build", "--n", "6", "--entangled", "--t", "2")
        assert code == 0
        # shift 1/32 of mass from the first weight to the second
        from fractions import Fraction

        q0 = Fraction(payload["weights"][0]["q"]) - Fraction(1, 32)
        q1 = Fraction(payload["weights"][1]["q"]) + Fraction(1, 32)
        payload["weights"][0]["q"] = f"{q0.numerator}/{q0.denominator}"
        payload["weights"][1]["q"] = f"{q1.numerator}/{q1.denominator}"
        path = tmp_path / "perturbed.json"
        path.write_text(json.dumps(payload))
        code, report, _ = run_cli(capsys, "verify", "--scheme", str(path))
        assert code == 1
        assert report["valid"] is False
        assert report["failing_pairs"]
        assert "defects" in report

    def test_verify_builtin_by_name(self, capsys):
        code, report, _ = run_cli(capsys, "verify", "--scheme", "n6-entangled")
        assert code == 0
        assert report["valid"] is True
        assert report["method"] == "parity-mass"

    def test_verify_malformed_file_exits_3(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, payload, _ = run_cli(capsys, "verify", "--scheme", str(path))
        assert code == 3
        assert payload["error"] == "malformed-input"

    def test_verify_schema_violation_exits_3(self, capsys, tmp_path):
        doc = {
            "kind": "entangled",
            "n": 2,
            "t": 1,
            "weights": [
                {"composition": [1, 0], "q": "1/2"},
                {"composition": [1, 0], "q": "1/2"},
            ],
        }
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(doc))
        code, payload, _ = run_cli(capsys, "verify", "--scheme", str(path))
        assert code == 3


@pytest.mark.parametrize(
    "content",
    [b"[" * 200_000, b"\xff\xfe", b'{"n": ' + b"1" * 5000 + b"}"],
    ids=["deeply-nested", "not-utf8", "over-digit-limit"],
)
@pytest.mark.parametrize(
    "command", [("verify", "--scheme"), ("graph", "--state")], ids=["verify", "graph"]
)
def test_unreadable_file_exits_3(capsys, tmp_path, content, command):
    """A file the JSON reader cannot take in is malformed input: one
    malformed-input document, exit 3, for every command that reads one."""
    path = tmp_path / "input.json"
    path.write_bytes(content)
    code, payload, _ = run_cli(capsys, *command, str(path))
    assert code == 3
    assert payload["error"] == "malformed-input"


def _profile(n, t, *entries):
    return {
        "kind": "entangled",
        "n": n,
        "t": t,
        "weights": [{"composition": counts, "q": q} for counts, q in entries],
    }


@pytest.mark.parametrize(
    "doc, detail",
    [
        (_profile(0, 1, ([], "1/1")),
         "bad composition (): composition needs at least one slot"),
        (_profile(2, 1, ([True, 0], "1/1")), "composition count must be an integer, got True"),
        (_profile(2, 1, ([1.0, 0], "1/1")), "composition count must be an integer, got 1.0"),
        (_profile(3, 2, ([1, 1.5, True], "1/1")),
         "composition count must be an integer, got 1.5"),
        (_profile(2, 1, ([2, -1], "1/1")),
         "bad composition (2, -1): counts must be nonnegative: (2, -1)"),
        (_profile(2, 1, ([1, 0], 1)), "expected a 'num/den' string, got 1"),
        (_profile(2, 1, ([1, 0], "1/0")), "zero denominator in '1/0'"),
        (_profile(2, 1, ([1, 0], "-1/2"), ([0, 1], "3/2")), "negative mass -1/2 on [1, 0]"),
        (_profile(2, 1, ([1, 0], "1/x"), ([0, 1], "1/x")),
         "expected a 'num/den' string, got '1/x'"),
        (_profile(2, 1, ([2, -1], "1/x")), "expected a 'num/den' string, got '1/x'"),
        (_profile(2, 1, ([True, 0], "1/x")), "composition count must be an integer, got True"),
        (_profile(2, 1, ([1, 0], "1/2"), ([1, 0], "1/2")), "duplicate composition [1, 0]"),
        (_profile(2, 2, ([1, 0], "1/1")), "composition (1, 0) sums to 1, expected 2"),
        (_profile(2, 1, ([1, 0], "1/2"), ([0, 1], "1/3")),
         "masses sum to 5/6, expected exactly 1"),
    ],
    ids=[
        "n0-empty-composition", "bool-count", "float-count", "first-bad-count-named",
        "negative-count", "non-string-mass", "zero-denominator", "negative-mass",
        "bad-mass-twice", "mass-before-composition", "counts-before-mass",
        "duplicate-composition", "wrong-count-sum", "masses-not-one",
    ],
)
def test_malformed_profile_detail(capsys, tmp_path, doc, detail):
    """Each malformed weight profile is malformed input (exit 3) with a
    detail that names the first fault, in the order the entries are read."""
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(doc))
    code, payload, err = run_cli(capsys, "verify", "--scheme", str(path))
    assert code == 3
    assert payload == {"error": "malformed-input", "detail": detail}
    assert err == f"malformed input: {detail}\n"


class TestSearch:
    def test_product_n6(self, capsys):
        code, payload, _ = run_cli(capsys, "search", "--n", "6", "--mode", "product")
        assert code == 0
        assert payload["min_t"] == 3
        assert payload["nodes_explored"] > 0

    def test_product_n4_witness(self, capsys):
        code, payload, _ = run_cli(capsys, "search", "--n", "4", "--mode", "product")
        assert code == 0
        assert payload["min_t"] == 1
        assert payload["witness"]["blocks"] == [
            {"type": "quad", "a": 1, "b": 2, "c": 3, "d": 4}
        ]

    def test_entangled_n6(self, capsys):
        code, payload, _ = run_cli(
            capsys, "search", "--n", "6", "--mode", "entangled", "--t-max", "3"
        )
        assert code == 0
        assert payload["min_t"] == 2
        assert payload["lp_stats"][-1]["feasible"] is True

    def test_entangled_unreachable_exits_1(self, capsys):
        code, payload, _ = run_cli(
            capsys, "search", "--n", "2", "--mode", "entangled", "--t-max", "4"
        )
        assert code == 1
        assert payload["min_t"] is None

    def test_entangled_scan_is_bounded(self, capsys):
        start = time.perf_counter()
        code, payload, _ = run_cli(
            capsys, "search", "--n", "2", "--mode", "entangled", "--t-max", "100000"
        )
        assert time.perf_counter() - start < 2
        assert code == 1
        assert payload["min_t"] is None
        assert [row["t"] for row in payload["lp_stats"]] == [1, 2, 3]

    def test_entangled_n10(self, capsys):
        start = time.perf_counter()
        code, payload, _ = run_cli(capsys, "search", "--n", "10", "--mode", "entangled")
        assert time.perf_counter() - start < 5
        assert code == 0
        assert payload["min_t"] == 4
        assert payload["lp_stats"][-1]["constraints"] == 2

    @pytest.mark.parametrize("t_max", ["0", "-3"])
    def test_entangled_t_max_below_1_is_usage_error(self, capsys, t_max):
        code, payload, _ = run_cli(
            capsys, "search", "--n", "5", "--mode", "entangled", "--t-max", t_max
        )
        assert code == 2
        assert payload["error"] == "usage"

    @pytest.mark.parametrize("n", ["1", "0"])
    def test_entangled_needs_n_at_least_2(self, capsys, n):
        code, payload, _ = run_cli(capsys, "search", "--n", n, "--mode", "entangled")
        assert code == 2
        assert payload == {"error": "usage", "detail": f"--entangled needs n >= 2, got {n}"}

    def test_over_cap_exits_2(self, capsys):
        code, payload, _ = run_cli(capsys, "search", "--n", "12", "--mode", "product")
        assert code == 2
        assert payload["error"] == "resource-cap"

    def test_product_n12_under_the_node_budget(self, capsys):
        code, payload, _ = run_cli(
            capsys, "search", "--n", "12", "--mode", "product", "--max-n", "12"
        )
        assert code == 0
        assert payload["min_t"] == 7
        assert len(payload["witness"]["blocks"]) == 7

    @pytest.mark.parametrize("n,t", [(14, 8), (15, 9)])
    def test_product_n14_n15_stop_at_the_floor(self, capsys, tmp_path, n, t):
        code, payload, _ = run_cli(
            capsys, "search", "--n", str(n), "--mode", "product", "--max-n", "15"
        )
        assert code == 0
        assert payload["min_t"] == t
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(payload["witness"]))
        code, report, _ = run_cli(capsys, "verify", "--scheme", str(path))
        assert code == 0
        assert report["valid"] is True

    def test_product_n16_over_the_node_budget_exits_2(self, capsys):
        start = time.perf_counter()
        code, payload, _ = run_cli(
            capsys, "search", "--n", "16", "--mode", "product", "--max-n", "16"
        )
        assert time.perf_counter() - start < 15
        assert code == 2
        assert payload["error"] == "resource-cap"
        assert "nodes" in payload["detail"]

    def test_product_set_up_over_its_cap_exits_2(self, capsys):
        """A raised --max-n no longer builds all C(40,4) quads and the
        cover lists before the node budget applies."""
        start = time.perf_counter()
        code, payload, _ = run_cli(
            capsys, "search", "--n", "40", "--mode", "product", "--max-n", "40"
        )
        assert time.perf_counter() - start < 2
        assert code == 2
        assert payload["error"] == "resource-cap"
        assert "set-up" in payload["detail"]

    def test_deterministic_bytes(self, capsys):
        outputs = []
        for _ in range(2):
            code = main(["search", "--n", "6", "--mode", "entangled", "--t-max", "2"])
            assert code == 0
            out, _ = capsys.readouterr()
            outputs.append(out)
        assert outputs[0] == outputs[1]


class TestIdentify:
    def test_default_construction_scheme(self, capsys):
        code, payload, _ = run_cli(capsys, "identify", "--n", "6", "--hidden", "4")
        assert code == 0
        assert payload == {"identified": 4, "queries": 4}

    def test_builtin_entangled(self, capsys):
        code, payload, _ = run_cli(
            capsys, "identify", "--n", "6", "--hidden", "4", "--scheme", "n6-entangled"
        )
        assert code == 0
        assert payload == {"identified": 4, "queries": 2}

    def test_builtin_n5(self, capsys):
        code, payload, _ = run_cli(
            capsys, "identify", "--n", "5", "--hidden", "1", "--scheme", "n5-product"
        )
        assert code == 0
        assert payload == {"identified": 1, "queries": 2}

    def test_hidden_out_of_range_exits_2(self, capsys):
        code, payload, _ = run_cli(capsys, "identify", "--n", "5", "--hidden", "9")
        assert code == 2

    def test_scheme_dimension_mismatch_exits_2(self, capsys):
        code, payload, _ = run_cli(
            capsys, "identify", "--n", "6", "--hidden", "1", "--scheme", "n5-product"
        )
        assert code == 2

    def test_n1_needs_no_query(self, capsys):
        code, payload, _ = run_cli(capsys, "identify", "--n", "1", "--hidden", "1")
        assert code == 0
        assert payload == {"identified": 1, "queries": 0}

    def test_construction_at_the_pair_cap(self, capsys):
        """The largest construction runs block by block in seconds."""
        start = time.perf_counter()
        code, payload, _ = run_cli(capsys, "identify", "--n", "4472", "--hidden", "4472")
        assert time.perf_counter() - start < 5
        assert code == 0
        assert payload == {"identified": 4472, "queries": 2982}

    def test_invalid_scheme_is_ambiguous_exits_1(self, capsys, tmp_path):
        doc = {"kind": "product", "n": 3, "blocks": [{"type": "pair", "i": 1, "j": 2}]}
        path = tmp_path / "uncovering.json"
        path.write_text(json.dumps(doc))
        code, payload, _ = run_cli(
            capsys, "identify", "--n", "3", "--hidden", "1", "--scheme", str(path)
        )
        assert code == 1
        assert payload["error"] == "ambiguous-classification"


class TestGraph:
    def test_pair_block(self, capsys):
        code, payload, _ = run_cli(capsys, "graph", "--block", "pair 1 2", "--n", "6")
        assert code == 0
        assert len(payload["edges"]) == 8

    def test_star_block(self, capsys):
        code, payload, _ = run_cli(capsys, "graph", "--block", "star 1", "--n", "6")
        assert code == 0
        assert payload["edges"] == [[1, k] for k in range(2, 7)]

    def test_quad_block(self, capsys):
        code, payload, _ = run_cli(capsys, "graph", "--block", "quad 1 2 3 4", "--n", "6")
        assert code == 0
        assert len(payload["edges"]) == 6

    def test_state_file(self, capsys, tmp_path):
        doc = {"n": 5, "amps": [{"i": 1, "mag2": "1/2"}, {"i": 2, "mag2": "1/2"}]}
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        code, payload, _ = run_cli(capsys, "graph", "--state", str(path))
        assert code == 0
        assert len(payload["edges"]) == 6  # 2(n-2) for a pair state at n=5

    def test_malformed_state_exits_3(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"n": 5, "amps": [{"i": 1, "mag2": "1/3"}]}))
        code, payload, _ = run_cli(capsys, "graph", "--state", str(path))
        assert code == 3

    @pytest.mark.parametrize("text", ["NaN", "1e200"])
    def test_non_finite_float_state_exits_3(self, capsys, tmp_path, text):
        path = tmp_path / "state.json"
        path.write_text('{"n": 4, "amps": [{"i": 1, "re": %s}]}' % text)
        code, payload, _ = run_cli(capsys, "graph", "--state", str(path))
        assert code == 3
        assert payload["error"] == "malformed-input"

    @pytest.mark.parametrize(
        "entry", ['"re": 0.7071067811865476', '"im": 0.7071067811865476', '"re": 0.5, "im": 0.5']
    )
    def test_finite_re_im_state_exits_3(self, capsys, tmp_path, entry):
        """re/im entries are refused even when they describe a normalized
        state; the refusal names the key an entry needs."""
        path = tmp_path / "state.json"
        path.write_text('{"n": 4, "amps": [{"i": 1, %s}, {"i": 2, %s}]}' % (entry, entry))
        code, payload, _ = run_cli(capsys, "graph", "--state", str(path))
        assert code == 3
        assert payload["error"] == "malformed-input"
        assert "mag2" in payload["detail"]

    def test_sign_does_not_change_graph(self, capsys, tmp_path):
        plain = {"n": 6, "amps": [
            {"i": i, "mag2": q} for i, q in zip((1, 2, 4, 5), ("1/4", "1/4", "3/8", "1/8"))
        ]}
        signed = {"n": 6, "amps": [dict(e, sign=s) for e, s in zip(plain["amps"], (1, -1, -1, 1))]}
        outputs = []
        for doc in (plain, signed):
            path = tmp_path / "state.json"
            path.write_text(json.dumps(doc))
            assert main(["graph", "--state", str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["edges"] == [[1, 2], [4, 5]]

    @pytest.mark.parametrize("sign", ["true", "false", "1.0", '"1"', "null", "0", "2"])
    def test_sign_not_plus_or_minus_one_exits_3(self, capsys, tmp_path, sign):
        path = tmp_path / "state.json"
        path.write_text(
            '{"n": 2, "amps": [{"i": 1, "mag2": "1/2", "sign": %s}, {"i": 2, "mag2": "1/2"}]}'
            % sign
        )
        code, payload, _ = run_cli(capsys, "graph", "--state", str(path))
        assert code == 3
        assert payload["error"] == "malformed-input"

    def test_mag2_over_digit_limit_exits_3(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"n": 2, "amps": [{"i": 1, "mag2": "1" * 5000}]}))
        code, payload, _ = run_cli(capsys, "graph", "--state", str(path))
        assert code == 3
        assert payload["error"] == "malformed-input"

    def test_bad_block_spec_exits_2(self, capsys):
        code, payload, _ = run_cli(capsys, "graph", "--block", "pair 1", "--n", "6")
        assert code == 2


_FIELD_VALUES = st.one_of(
    st.integers(-3, 60),
    st.just(10**12),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.fractions(min_value=-1, max_value=2, max_denominator=20).map(
        lambda q: f"{q.numerator}/{q.denominator}"
    ),
    st.sampled_from(
        ["1/2", "1/0", "-0/1", "1//2", "1/2/3", " 1/2", "1/2\n", "0x1", "½", "", "1e3"]
    ),
    st.text(max_size=6),
)


_ENTRIES = st.one_of(
    st.dictionaries(st.sampled_from(["i", "mag2", "sign", "re", "im"]), _FIELD_VALUES, max_size=5),
    st.integers(),
    st.text(max_size=3),
    st.lists(st.integers(), max_size=2),
    st.none(),
)


@st.composite
def _state_docs(draw):
    """A graph --state document: a valid one, a valid one with one thing
    broken, a random object, or no object at all."""
    case = draw(st.sampled_from(["valid", "broken", "random", "not-object"]))
    if case == "not-object":
        return draw(st.one_of(_FIELD_VALUES, st.lists(_FIELD_VALUES, max_size=3)))
    if case == "random":
        return draw(st.fixed_dictionaries(
            {"n": st.one_of(st.integers(-2, 50), st.just(10**12), _FIELD_VALUES)},
            optional={"amps": st.one_of(st.lists(_ENTRIES, max_size=6), _FIELD_VALUES)},
        ))
    n = draw(st.integers(1, 50))
    indices = draw(st.lists(st.integers(1, n), min_size=1, max_size=min(n, 8), unique=True))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(indices), max_size=len(indices)))
    amps = []
    for i, w in zip(indices, weights):
        q = Fraction(w, sum(weights))
        entry = {"i": i, "mag2": f"{q.numerator}/{q.denominator}"}
        if draw(st.booleans()):
            entry["sign"] = draw(st.sampled_from([-1, 1]))
        amps.append(entry)
    doc = {"n": n, "amps": amps}
    if case == "broken":
        k = draw(st.integers(0, len(amps) - 1))
        change = draw(st.sampled_from(["n", "set", "drop", "duplicate", "replace"]))
        if change == "n":
            doc["n"] = draw(st.one_of(st.integers(-2, 50), st.just(10**12)))
        elif change == "set":
            key = draw(st.sampled_from(["i", "mag2", "sign", "re", "im"]))
            amps[k][key] = draw(_FIELD_VALUES)
        elif change == "drop":
            amps[k].pop(draw(st.sampled_from(sorted(amps[k]))))
        elif change == "duplicate":
            amps.append(dict(amps[k]))
        else:
            amps[k] = draw(_ENTRIES)
    return doc


class TestStateFileFuzz:
    @settings(max_examples=300, deadline=None)
    @given(doc=_state_docs())
    def test_one_document_and_a_known_exit_code(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "state.json"
            path.write_text(json.dumps(doc))
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = main(["graph", "--state", str(path)])
        assert code in (0, 1, 2, 3)
        payload = json.loads(out.getvalue())  # exactly one document, or this raises
        assert isinstance(payload, dict)


_BLOCK_KEYS = {"pair": ("i", "j"), "quad": ("a", "b", "c", "d"), "star": ("i",)}


@st.composite
def _scheme_docs(draw):
    """A verify/identify --scheme document: a valid product or entangled
    scheme, or one with n replaced, or a field or entry dropped,
    duplicated or replaced."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 50))
        kinds = [kind for kind, least in (("pair", 2), ("quad", 4), ("star", 3)) if n >= least]
        entries = []
        for _ in range(draw(st.integers(1, 4)) if kinds else 0):
            kind = draw(st.sampled_from(kinds))
            keys = _BLOCK_KEYS[kind]
            indices = draw(st.lists(
                st.integers(1, n), min_size=len(keys), max_size=len(keys), unique=True
            ))
            entries.append({"type": kind, **dict(zip(keys, sorted(indices)))})
        doc = {"kind": "product", "n": n, "blocks": entries}
    else:
        n, t = draw(st.integers(1, 8)), draw(st.integers(1, 4))
        picks = draw(st.lists(
            st.lists(st.integers(0, n - 1), min_size=t, max_size=t), min_size=1, max_size=5
        ))
        counts = {tuple(pick.count(i) for i in range(n)) for pick in picks}
        masses = draw(st.lists(st.integers(1, 9), min_size=len(counts), max_size=len(counts)))
        entries = []
        for c, m in zip(sorted(counts), masses):
            q = Fraction(m, sum(masses))
            entries.append({"composition": list(c), "q": f"{q.numerator}/{q.denominator}"})
        doc = {"kind": "entangled", "n": n, "t": t, "weights": entries}
    change = draw(st.sampled_from(["none", "n", "drop", "duplicate", "replace"]))
    if change == "n":
        doc["n"] = draw(st.one_of(st.integers(-2, 50), st.just(10**12)))
    elif change != "none":
        target = doc
        if entries and draw(st.booleans()):
            target = entries[draw(st.integers(0, len(entries) - 1))]
        key = draw(st.sampled_from(sorted(target)))
        if change == "drop":
            target.pop(key)
        elif change == "duplicate" and entries:
            entries.append(dict(draw(st.sampled_from(entries))))
        else:
            target[key] = draw(st.one_of(_FIELD_VALUES, _ENTRIES))
    return doc


class TestSchemeFileFuzz:
    @settings(max_examples=200, deadline=None)
    @given(doc=_scheme_docs())
    def test_one_document_and_a_known_exit_code(self, doc):
        n = doc.get("n")
        n = n if isinstance(n, int) and not isinstance(n, bool) else 5
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scheme.json"
            path.write_text(json.dumps(doc))
            for argv in (
                ["verify", "--scheme", str(path)],
                ["identify", "--n", str(n), "--hidden", "1", "--scheme", str(path)],
            ):
                out = io.StringIO()
                with redirect_stdout(out), redirect_stderr(io.StringIO()):
                    code = main(argv)
                assert code in (0, 1, 2, 3)
                payload = json.loads(out.getvalue())  # exactly one document, or this raises
                assert isinstance(payload, dict)


def check_over_cap(capsys, *argv):
    """One resource-cap document (run_cli parses all of stdout as one)
    and exit 2, in under a second."""
    start = time.perf_counter()
    code, payload, _ = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert payload["error"] == "resource-cap"


class TestPairCap:
    """Inputs whose pair universe C(n,2) is over the cap answer exit 2
    at once, before any graph, pair list or dense state is built."""

    def test_verify_one_block_n_million(self, capsys, tmp_path):
        doc = {"kind": "product", "n": 10**6, "blocks": [{"type": "pair", "i": 1, "j": 2}]}
        path = tmp_path / "scheme.json"
        path.write_text(json.dumps(doc))
        check_over_cap(capsys, "verify", "--scheme", str(path))

    def test_graph_block_n_billion(self, capsys):
        check_over_cap(capsys, "graph", "--block", "pair 1 2", "--n", "1000000000")

    def test_graph_state_n_trillion(self, capsys, tmp_path):
        doc = {"n": 10**12, "amps": [{"i": 1, "mag2": "1/2"}, {"i": 2, "mag2": "1/2"}]}
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        check_over_cap(capsys, "graph", "--state", str(path))

    def test_verify_profile_with_2000_mass_classes_at_n200(self, capsys, tmp_path):
        """2000 distinct masses times the 19,900 pairs of n = 200 is
        about 4 * 10^7 popcounts, over the cap before any column is built."""
        n, k = 200, 2000
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)][:k - n]
        comps = [[2 if v == i else 0 for v in range(n)] for i in range(n)]
        comps += [[1 if v in pair else 0 for v in range(n)] for pair in pairs]
        total = k * (k + 1) // 2
        weights = [{"composition": c, "q": str(Fraction(m, total))}
                   for m, c in enumerate(comps, start=1)]
        path = tmp_path / "profile.json"
        path.write_text(json.dumps({"kind": "entangled", "n": n, "t": 2, "weights": weights}))
        check_over_cap(capsys, "verify", "--scheme", str(path))


class TestCapsBeforeWork:
    """Each cap is checked from input sizes before the work it bounds:
    the tuple cap before any profile tuple is built, the support cap
    before any product block state is built, the composition cap by a
    running binomial, and the pair cap before the construction is built."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("identify", "--n", "4473", "--hidden", "1"),
            ("search", "--n", "1000000", "--mode", "entangled"),
            ("search", "--n", "100000000", "--mode", "entangled"),
            ("build", "--n", "100000000"),
        ],
        ids=["identify-n4473", "search-n1e6", "search-n1e8", "build-n1e8"],
    )
    def test_over_cap(self, capsys, argv):
        check_over_cap(capsys, *argv)

    def test_identify_n4000_is_under_every_cap(self, capsys):
        code, payload, _ = run_cli(capsys, "identify", "--n", "4000", "--hidden", "1")
        assert code == 0
        assert payload == {"identified": 1, "queries": 2667}

    def test_entangled_build_n1500_answers_infeasible(self, capsys):
        code, payload, _ = run_cli(capsys, "build", "--n", "1500", "--entangled", "--t", "1")
        assert code == 1
        assert payload == {"feasible": False, "n": 1500, "t": 1}

    def test_entangled_build_over_the_entries_cap(self, capsys):
        """4472 one-copy compositions of 4472 counts each hold about
        2 * 10^7 entries, over MAX_COMPOSITION_ENTRIES."""
        check_over_cap(capsys, "build", "--n", "4472", "--entangled", "--t", "1")

    def test_product_support_over_cap(self, capsys, tmp_path):
        """224 stars at n = 4472 hold 224 * 4472 = 1,001,728 support
        entries, just over MAX_TUPLES."""
        doc = {"kind": "product", "n": 4472,
               "blocks": [{"type": "star", "i": i} for i in range(1, 225)]}
        path = tmp_path / "stars.json"
        path.write_text(json.dumps(doc))
        check_over_cap(capsys, "identify", "--n", "4472", "--hidden", "1", "--scheme", str(path))

    def test_profile_with_huge_t(self, capsys, tmp_path):
        t = 10**10
        doc = {"kind": "entangled", "n": 3, "t": t,
               "weights": [{"composition": [t, 0, 0], "q": "1"}]}
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(doc))
        check_over_cap(capsys, "identify", "--n", "3", "--hidden", "1", "--scheme", str(path))

    def test_construction_at_the_pair_cap(self, capsys):
        code, payload, _ = run_cli(capsys, "build", "--n", "4472")
        assert code == 0
        assert len(payload["blocks"]) == 2982  # 2*floor(n/3) + n mod 3
        check_over_cap(capsys, "build", "--n", "4473")


class TestProfileReadCap:
    """A weight profile file is refused before any composition is built
    when its pairs or its counts are over their caps."""

    def test_n5000_is_over_the_pair_cap(self, capsys, tmp_path):
        doc = {"kind": "entangled", "n": 5000, "t": 1,
               "weights": [{"composition": [1] + [0] * 4999, "q": "1"}]}
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(doc))
        check_over_cap(capsys, "verify", "--scheme", str(path))
        check_over_cap(capsys, "identify", "--n", "5000", "--hidden", "1", "--scheme", str(path))

    def test_entries_cap_boundary(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "n6.json"
        path.write_text(json.dumps(scheme_to_doc(builtin("n6-entangled"))))
        monkeypatch.setattr(serialize, "MAX_COMPOSITION_ENTRIES", 16 * 6)
        code, payload, _ = run_cli(capsys, "verify", "--scheme", str(path))
        assert code == 0 and payload["valid"] is True
        monkeypatch.setattr(serialize, "MAX_COMPOSITION_ENTRIES", 16 * 6 - 1)
        check_over_cap(capsys, "verify", "--scheme", str(path))


def cold_verify(path):
    """A whole ``python -m groverid verify`` run on a file: its seconds
    and its process."""
    path_env = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "groverid", "verify", "--scheme", str(path)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path_env),
    )
    return time.perf_counter() - start, proc


def test_cold_verify_of_the_n1024_bent_witness(tmp_path):
    path = tmp_path / "bent1024.json"
    path.write_text(json.dumps(scheme_to_doc(bent_witness(1024))))
    seconds, proc = cold_verify(path)
    assert seconds < 5
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"valid": True, "method": "parity-mass", "failing_pairs": []}


def test_cold_verify_of_the_n4472_construction(tmp_path):
    path = tmp_path / "construction4472.json"
    path.write_text(json.dumps(scheme_to_doc(construct_product_scheme(4472))))
    seconds, proc = cold_verify(path)
    assert seconds < 0.5
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"valid": True, "method": "coverage-check", "failing_pairs": []}


class TestEntryPoint:
    def test_module_invocation(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "groverid", "bounds", "--n", "6"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"general_lower": 2, "construction_size": 4}
        assert proc.stdout.endswith("\n")
