"""End-to-end identification against a hidden oracle.

The hidden oracle is wrapped in a black box that exposes only its
dimension and per-copy application, so the identification path never
sees the target index and a run on a t-copy scheme costs exactly t
recorded applications.  Classification compares the black-box output
against the precomputed outputs of every candidate oracle; for a valid
scheme those are mutually orthogonal, so exactly one overlap has unit
magnitude.  Overlaps are exact rationals and are compared with ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .discrimination import all_pairs
from .exceptions import AmbiguousClassificationError
from .oracle import AmpState, GroverOracle, apply_oracle, apply_oracle_to_copy, overlap
from .schemes import ProductScheme, Scheme, expand_to_state


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
    without a query.
    """
    box = hidden if isinstance(hidden, OracleBlackBox) else OracleBlackBox(hidden)
    if box.n != scheme.n:
        raise ValueError(f"hidden oracle dimension {box.n} != scheme dimension {scheme.n}")
    if isinstance(scheme, ProductScheme) and not scheme.blocks:
        return IdentificationRun(
            n=1, scheme=scheme, hidden_queries_used=0, identified=1,
            per_candidate_overlaps=(Fraction(1),),
        )

    psi = expand_to_state(scheme)
    calls_before = box.calls
    out = psi
    for copy in range(1, psi.t + 1):
        out = box.apply(out, copy)
    queries = box.calls - calls_before

    magnitudes: list[Fraction] = []
    matches: list[int] = []
    for k in range(1, scheme.n + 1):
        candidate = apply_oracle(GroverOracle(scheme.n, k), psi)
        mag = abs(overlap(candidate, out))
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
    return IdentificationRun(
        n=scheme.n,
        scheme=scheme,
        hidden_queries_used=queries,
        identified=matches[0],
        per_candidate_overlaps=tuple(magnitudes),
    )


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
