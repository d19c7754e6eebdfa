"""Tests for the CLI surface: payloads, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from groverid.cli import main


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
    ],
    ids=["missing-scheme", "bad-int", "unknown-command", "no-command", "unknown-flag"],
)
def test_argument_errors_print_one_usage_document(capsys, argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert code == 2
    assert json.loads(out)["error"] == "usage"
    assert "usage:" in err


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

    def test_over_cap_exits_2(self, capsys):
        code, payload, _ = run_cli(capsys, "search", "--n", "12", "--mode", "product")
        assert code == 2
        assert payload["error"] == "resource-cap"

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

    def test_bad_block_spec_exits_2(self, capsys):
        code, payload, _ = run_cli(capsys, "graph", "--block", "pair 1", "--n", "6")
        assert code == 2


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
