"""Bit-exact JSON encoding of schemes, graphs, states, and reports.

Rationals travel as reduced "num/den" strings so files round-trip
without any floating-point loss.  Documents are emitted with sorted
keys and deterministic list orders, so identical inputs produce
byte-identical payloads.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Any

from .discrimination import CanonicalBlock, DiscriminationGraph, SingleCopyState, pair_count
from .exceptions import ResourceCapError, SchemaError
from .oracle import MAX_COMPOSITION_ENTRIES, Composition
from .schemes import ProductScheme, Scheme, SchemeReport, WeightProfile


def fraction_to_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def fraction_from_str(text: Any) -> Fraction:
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise SchemaError(f"expected a 'num/den' string, got {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise SchemaError(f"zero denominator in {text!r}") from None
    except ValueError as exc:  # past the int string-conversion digit limit
        raise SchemaError(f"unreadable rational: {exc}") from None


_INT_TYPE = frozenset({int})


def _require_int(value: Any, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{what} must be an integer, got {value!r}")
    return value


def scheme_to_doc(scheme: Scheme) -> dict:
    if isinstance(scheme, WeightProfile):
        weights = sorted(scheme.weights.items(), key=lambda kv: kv[0].counts, reverse=True)
        return {
            "kind": "entangled",
            "n": scheme.n,
            "t": scheme.t,
            "weights": [
                {"composition": list(comp.counts), "q": fraction_to_str(q)}
                for comp, q in weights
            ],
        }
    blocks = []
    for b in scheme.blocks:
        if b.kind == "pair":
            blocks.append({"type": "pair", "i": b.indices[0], "j": b.indices[1]})
        elif b.kind == "quad":
            a, bb, c, d = b.indices
            blocks.append({"type": "quad", "a": a, "b": bb, "c": c, "d": d})
        else:
            blocks.append({"type": "star", "i": b.indices[0]})
    return {"kind": "product", "n": scheme.n, "blocks": blocks}


def scheme_from_doc(doc: Any) -> Scheme:
    if not isinstance(doc, dict):
        raise SchemaError("scheme document must be a JSON object")
    kind = doc.get("kind")
    if kind == "product":
        return _product_from_doc(doc)
    if kind == "entangled":
        return _entangled_from_doc(doc)
    raise SchemaError(f"unknown scheme kind {kind!r}")


def _product_from_doc(doc: dict) -> ProductScheme:
    n = _require_int(doc.get("n"), "n")
    raw_blocks = doc.get("blocks")
    if not isinstance(raw_blocks, list):
        raise SchemaError("product scheme needs a 'blocks' list")
    blocks = []
    for entry in raw_blocks:
        if not isinstance(entry, dict):
            raise SchemaError(f"block entry must be an object, got {entry!r}")
        btype = entry.get("type")
        try:
            if btype == "pair":
                block = CanonicalBlock.pair(
                    _require_int(entry.get("i"), "pair i"),
                    _require_int(entry.get("j"), "pair j"),
                    n,
                )
            elif btype == "quad":
                block = CanonicalBlock.quad(
                    _require_int(entry.get("a"), "quad a"),
                    _require_int(entry.get("b"), "quad b"),
                    _require_int(entry.get("c"), "quad c"),
                    _require_int(entry.get("d"), "quad d"),
                    n,
                )
            elif btype == "star":
                block = CanonicalBlock.star(_require_int(entry.get("i"), "star i"), n)
            else:
                raise SchemaError(f"unknown block type {btype!r}")
        except ValueError as exc:
            raise SchemaError(f"bad block {entry!r}: {exc}") from None
        blocks.append(block)
    try:
        return ProductScheme(n, blocks)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def _entangled_from_doc(doc: dict) -> WeightProfile:
    """Parse a weight profile.  The pair cap and the cap on the counts the
    compositions hold together are checked from n and the entry count
    before any composition is built."""
    n = _require_int(doc.get("n"), "n")
    t = _require_int(doc.get("t"), "t")
    raw_weights = doc.get("weights")
    if not isinstance(raw_weights, list) or not raw_weights:
        raise SchemaError("entangled scheme needs a nonempty 'weights' list")
    if n > 0:  # any other n fails the length check of every composition
        pair_count(n)
    if len(raw_weights) * n > MAX_COMPOSITION_ENTRIES:
        raise ResourceCapError(
            f"{len(raw_weights)} compositions for n={n} hold {len(raw_weights) * n} counts, "
            f"over the cap of {MAX_COMPOSITION_ENTRIES}"
        )
    weights: dict[Composition, Fraction] = {}
    masses: dict[str, Fraction] = {}  # each distinct 'q' string is parsed once
    for entry in raw_weights:
        if not isinstance(entry, dict):
            raise SchemaError(f"weight entry must be an object, got {entry!r}")
        counts = entry.get("composition")
        if not isinstance(counts, list) or len(counts) != n:
            raise SchemaError(f"composition must be a list of {n} counts, got {counts!r}")
        if set(map(type, counts)) - _INT_TYPE:  # name the first bad count
            for c in counts:
                _require_int(c, "composition count")
        counts = tuple(counts)
        text = entry.get("q")
        q = masses.get(text) if type(text) is str else None
        if q is None:
            q = masses[text] = fraction_from_str(text)
        try:
            comp = Composition(counts)
        except ValueError as exc:
            raise SchemaError(f"bad composition {counts}: {exc}") from None
        if comp in weights:
            raise SchemaError(f"duplicate composition {list(counts)}")
        if q.numerator < 0:
            raise SchemaError(f"negative mass {fraction_to_str(q)} on {list(counts)}")
        weights[comp] = q
    try:
        return WeightProfile(n, t, weights)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def graph_to_doc(graph: DiscriminationGraph) -> dict:
    return {"n": graph.n, "edges": [list(e) for e in graph]}


def report_to_doc(report: SchemeReport) -> dict:
    doc: dict = {
        "valid": report.valid,
        "method": report.method,
        "failing_pairs": [list(d.pair) for d in report.failing_pairs],
    }
    if any(d.defect is not None for d in report.failing_pairs):
        doc["defects"] = [
            fraction_to_str(d.defect) if isinstance(d.defect, Fraction) else d.defect
            for d in report.failing_pairs
        ]
    return doc


def state_from_doc(doc: Any) -> SingleCopyState:
    """Parse a one-copy state file: each entry carries an index ``i`` and
    a squared modulus ``mag2`` ("num/den").  An optional ``sign`` (-1 or
    1) is checked but not kept, since no test on one copy reads phases."""
    if not isinstance(doc, dict):
        raise SchemaError("state document must be a JSON object")
    n = _require_int(doc.get("n"), "n")
    raw_amps = doc.get("amps")
    if not isinstance(raw_amps, list) or not raw_amps:
        raise SchemaError("state needs a nonempty 'amps' list")
    mag2s: dict[int, Fraction] = {}
    for entry in raw_amps:
        if not isinstance(entry, dict):
            raise SchemaError(f"amp entry must be an object, got {entry!r}")
        i = _require_int(entry.get("i"), "amp index")
        if not 1 <= i <= n:
            raise SchemaError(f"amp index {i} out of range 1..{n}")
        if i in mag2s:
            raise SchemaError(f"duplicate amp index {i}")
        if "mag2" not in entry:
            raise SchemaError(f"amp entry for index {i} needs 'mag2'")
        mag2 = fraction_from_str(entry["mag2"])
        if mag2 < 0:
            raise SchemaError(f"negative mag2 on index {i}")
        sign = _require_int(entry.get("sign", 1), "sign")
        if sign not in (-1, 1):
            raise SchemaError(f"sign must be -1 or 1, got {sign!r}")
        mag2s[i] = mag2
    try:
        return SingleCopyState(n, mag2s)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def dumps(doc: dict) -> str:
    """Canonical JSON text: sorted keys, two-space indent, newline at end.

    The same bytes as ``json.dumps(doc, indent=2, sort_keys=True)`` plus
    a newline, for documents of dicts with str keys, lists, str, int,
    bool and None.  The stdlib runs its pure-Python encoder whenever
    ``indent`` is set, so the text is written here instead."""
    out: list[str] = []
    _write(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(value: Any, newline: str, out: list[str]) -> None:
    """Append the indented JSON text of value; newline is the line break
    and indent that come before value's own closing bracket."""
    kind = type(value)
    if kind is str:
        out.append(_encode_str(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is dict and value:
        inner = newline + "  "
        separator = "{" + inner
        for key, item in sorted(value.items()):
            out += (separator, _encode_str(key), ": ")
            _write(item, inner, out)
            separator = "," + inner
        out += (newline, "}")
    elif kind is list and value:
        inner = newline + "  "
        if set(map(type, value)) == _INT_TYPE:  # a row of counts, joined at C speed
            out += ("[", inner, ("," + inner).join(map(int.__repr__, value)), newline, "]")
            return
        separator = "[" + inner
        for item in value:
            out.append(separator)
            _write(item, inner, out)
            separator = "," + inner
        out += (newline, "]")
    else:  # bool, None, a float, an empty list or dict
        out.append(json.dumps(value))
