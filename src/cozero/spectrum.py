"""Laplacian spectrum assembly and the brute-force check.

Every divisor class induces an edgeless subgraph, so the join reduction
makes the class of divisor d contribute its weighted degree exactly
(class size - 1) times; those eigenvalues are exact integers and are
kept that way. The remaining d eigenvalues come from the small quotient
Laplacian: its zero is exact, from the deflated square-root weights, and
the other d - 1 values are solved numerically. verify_against_oracle
compares the whole assembly against a brute-force eigensolve of the
explicit vertex-level Laplacian. x and n - x generate the same ideal, so
they are twins; the oracle checks that exactly, takes the first m // 2
degrees as eigenvalues, and eigensolves the one even block of about
m / 2 that is left. Which int n each accepts is decided where it is
factored: quotient.factorize_for_quotient, fullgraph.factorize_for_full_graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import eigen
from .fullgraph import (
    build_full_graph,
    factorize_for_full_graph,
    negation_split,
)
from .numbers import Factorization
from .quotient import (
    QuotientGraph,
    build_quotient,
    factorize_for_quotient,
    full_graph_component_count,
    symmetric_laplacian,
)


@dataclass(frozen=True)
class AssembledSpectrum:
    """Full Laplacian spectrum of the cozero-divisor graph of Z_n.

    quotient is the graph it was assembled from, empty for prime n: the
    class of each proper divisor d contributes its weighted degree
    (weight - 1) times, the integer part. quotient_part holds the d
    eigenvalues of the weighted quotient Laplacian; combined is the
    multiset union of both. degenerate is "empty" for prime n, "null"
    for prime powers (edgeless graph, all-zero spectrum), None otherwise.
    """

    n: int
    quotient: QuotientGraph
    quotient_part: eigen.SpectrumMultiset
    combined: eigen.SpectrumMultiset
    degenerate: str | None = None

    @property
    def vertex_count(self) -> int:
        return self.combined.total_multiplicity


def assemble_spectrum(n: int | Factorization) -> AssembledSpectrum:
    """Spectrum via the divisor-class join reduction.

    Takes n or its factorization; n is factored once, here, and a
    composite n >= 2**63 is refused before that. Prime n yields the empty
    spectrum (marked degenerate "empty"); prime powers yield the all-zero
    spectrum of a null graph ("null"). The quotient's zero eigenvalue is
    exact: the square-root weights are deflated as a known null vector.
    """
    f = n if isinstance(n, Factorization) else factorize_for_quotient(n)
    q = build_quotient(f)
    if f.is_prime:
        empty = eigen.SpectrumMultiset(())
        return AssembledSpectrum(f.n, q, empty, empty, "empty")
    values = eigen.eigenvalues_in_place(
        symmetric_laplacian(q), np.sqrt(np.array(q.weights, dtype=np.float64))
    )
    quotient_part = eigen.merge_spectrum(
        [(0, 1, True)] + [(v, 1, False) for v in values.tolist()]
    )
    triples = [(deg, w - 1, True) for deg, w in zip(q.degrees, q.weights)]
    triples.extend(quotient_part.entries)
    combined = eigen.merge_spectrum(triples)
    expected = f.n - f.totient - 1
    if combined.total_multiplicity != expected:
        raise AssertionError(
            f"assembled {combined.total_multiplicity} eigenvalues at n = {f.n}, "
            f"expected {expected}"
        )
    degenerate = "null" if f.is_prime_power else None
    return AssembledSpectrum(f.n, q, quotient_part, combined, degenerate)


def is_laplacian_integral(spectrum: AssembledSpectrum) -> bool:
    """True iff every eigenvalue is exact, an integer as merge_spectrum decided."""
    return spectrum.combined.is_integral()


# ---------------------------------------------------------------------------
# multiset comparison and the brute-force oracle

@dataclass(frozen=True)
class MultisetComparison:
    matched: bool
    max_deviation: float
    multiplicity_mismatches: tuple[tuple[float, int, int], ...]


def compare_multisets(
    a: eigen.SpectrumMultiset, b: eigen.SpectrumMultiset
) -> MultisetComparison:
    """Greedy descending pairing; reports the worst gap, not just a verdict.

    The spectra match when no paired values differ by more than
    eigen.MATCH_TOL.
    """
    va, vb = a.values(), b.values()
    if len(va) != len(vb):
        mismatches = _multiplicity_mismatches(a, b)
        return MultisetComparison(False, math.inf, mismatches)
    dev = float(np.max(np.abs(va - vb))) if len(va) else 0.0
    matched = dev <= eigen.MATCH_TOL
    mismatches = () if matched else _multiplicity_mismatches(a, b)
    return MultisetComparison(matched, dev, mismatches)


def _multiplicity_mismatches(
    a: eigen.SpectrumMultiset, b: eigen.SpectrumMultiset
) -> tuple[tuple[float, int, int], ...]:
    out = []
    i = j = 0
    ea, eb = a.entries, b.entries
    while i < len(ea) or j < len(eb):
        if i < len(ea) and j < len(eb) and abs(ea[i].value - eb[j].value) <= eigen.MATCH_TOL:
            if ea[i].multiplicity != eb[j].multiplicity:
                out.append((float(ea[i].value), ea[i].multiplicity, eb[j].multiplicity))
            i += 1
            j += 1
        elif j >= len(eb) or (i < len(ea) and ea[i].value > eb[j].value):
            out.append((float(ea[i].value), ea[i].multiplicity, 0))
            i += 1
        else:
            out.append((float(eb[j].value), 0, eb[j].multiplicity))
            j += 1
    return tuple(out)


@dataclass(frozen=True)
class OracleReport:
    n: int
    vertex_count: int
    matched: bool
    max_deviation: float
    multiplicity_mismatches: tuple[tuple[float, int, int], ...]
    laplacian_integral: bool
    degenerate: str | None
    zero_multiplicity: int
    component_count: int


def verify_against_oracle(n: int | Factorization) -> OracleReport:
    """Assembled spectrum versus a brute-force eigensolve of the full graph.

    Takes n or its factorization; an int n is factored once, here, by
    factorize_for_full_graph, and both sides read that factorization. The
    oracle builds the explicit vertex-level graph and solves its Laplacian
    L with no knowledge of the join structure. It uses one generic
    symmetry: Rx = R(-x) in any ring, so x and n - x have the same
    neighbours, and they are mirror images in the vertex list.
    negation_split checks that exactly (an AssertionError refuses a graph
    that fails) and splits L by it: the first m // 2 degrees are
    eigenvalues, and the rest of the spectrum is that of one float64 block
    of about m / 2, solved in place; the two halves are merged once.
    The component count is read off the assembled quotient, not searched
    in the full graph. Raises VertexCapError when the graph would exceed
    fullgraph.VERTEX_CAP, for an int n before factoring it when its vertex
    bound already does. Prime n verifies trivially (both sides empty) and
    is flagged degenerate.
    """
    f = n if isinstance(n, Factorization) else factorize_for_full_graph(n)
    if f.is_prime:
        return OracleReport(f.n, 0, True, 0.0, (), True, "empty", 0, 0)
    graph = build_full_graph(f)
    degrees, even = negation_split(graph)
    oracle = eigen.merge_spectrum(
        (v, 1, False) for v in np.concatenate((degrees, eigen.eigenvalues_in_place(even)))
    )
    assembled = assemble_spectrum(f)
    comparison = compare_multisets(assembled.combined, oracle)
    return OracleReport(
        n=f.n,
        vertex_count=graph.vertex_count,
        matched=comparison.matched,
        max_deviation=comparison.max_deviation,
        multiplicity_mismatches=comparison.multiplicity_mismatches,
        laplacian_integral=is_laplacian_integral(assembled),
        degenerate=assembled.degenerate,
        zero_multiplicity=oracle.zero_multiplicity(),
        component_count=full_graph_component_count(assembled.quotient),
    )
