"""Proper-divisor quotient graph with totient weights: the divisor lattice.

Built from one Factorization of n. Vertices are the proper divisors of
n, each with its exponent vector; two are adjacent when neither divides
the other, that is when their exponent vectors are incomparable. Vertex
d carries weight phi(n/d) = prod phi(p^(e - a)), the size of its divisor
class. The weighted degree of d sums the weights of its neighbours and
equals the full-graph degree of every vertex in the class of d (the
partition is equitable). Two Laplacian reductions live here: the integer
zero-row-sum form and its symmetric conjugate, which share one spectrum.
Both are int64 and float64 arrays, so n must lie below 2**63.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigen import component_count, upper_pairs
from .numbers import (
    Factorization,
    divisor_exponents,
    factorize,
    is_prime,
    totient_prime_power,
)


@dataclass(frozen=True)
class QuotientGraph:
    n: int
    divisors: tuple[int, ...]
    weights: tuple[int, ...]
    adjacency: np.ndarray

    @property
    def size(self) -> int:
        return len(self.divisors)

    @property
    def is_empty(self) -> bool:
        return self.size == 0

    @property
    def edge_count(self) -> int:
        return int(self.adjacency.sum()) // 2

    def edges(self) -> list[tuple[int, int]]:
        i, j = upper_pairs(self.adjacency)
        d = np.array(self.divisors, dtype=np.int64)
        return list(zip(d[i].tolist(), d[j].tolist()))


def _require_below_int64(n: int) -> None:
    if n >= 2**63:
        raise ValueError(
            f"n = {n} is not below 2**63, the bound of the quotient's int64 arithmetic"
        )


def factorize_for_quotient(n: int) -> Factorization:
    """factorize(n), but a composite n >= 2**63 is refused before any factoring.

    A prime n passes, so that it can still be reported degenerate:
    is_prime is trial division and Miller-Rabin, with no rho.
    """
    if n >= 2**63 and not is_prime(n):
        _require_below_int64(n)
    return factorize(n)


def build_quotient(n: int | Factorization) -> QuotientGraph:
    """Quotient graph on the proper divisors, ascending. Empty for prime n.

    Takes n or its factorization. A composite n must lie below 2**63:
    weighted degrees are int64 sums of weights, which add up to
    n - phi(n) - 1.
    """
    f = n if isinstance(n, Factorization) else factorize_for_quotient(n)
    if not f.is_prime:
        _require_below_int64(f.n)
    proper = divisor_exponents(f)[1:-1]
    phis = [[totient_prime_power(p, e - a) for a in range(e + 1)] for p, e in f.factors]
    weights = tuple(math.prod(phi[a] for phi, a in zip(phis, vec)) for _, vec in proper)
    # d_i divides d_j when no exponent of d_i is larger; adjacent when
    # neither divides the other. Exponents of n < 2**63 fit in int8.
    m = len(proper)
    exponents = np.array([vec for _, vec in proper], dtype=np.int8).reshape(m, len(f.factors))
    divides = np.ones((m, m), dtype=bool)
    for col in exponents.T:
        divides &= col[:, None] <= col[None, :]
    adjacency = ~(divides | divides.T)
    adjacency.setflags(write=False)
    return QuotientGraph(f.n, tuple(d for d, _ in proper), weights, adjacency)


def quotient_connectivity_state(q: QuotientGraph) -> str:
    """"empty" for prime n, else "connected" or "disconnected" by BFS.

    A single vertex counts as connected.
    """
    if q.is_empty:
        return "empty"
    return "connected" if component_count(q.adjacency) == 1 else "disconnected"


def weighted_degrees(q: QuotientGraph) -> list[int]:
    """Sum of neighbour weights per divisor; 0 for isolated vertices.

    int64 cannot overflow: all weights together sum to n - phi(n) - 1.
    """
    weights = np.array(q.weights, dtype=np.int64)
    return [int(x) for x in q.adjacency.astype(np.int64) @ weights]


@dataclass(frozen=True)
class WeightedLaplacian:
    """Both Laplacian reductions of a weighted quotient graph.

    entries is the integer zero-row-sum form: diagonal holds the weighted
    degrees, entry (i, j) is -weight(j) on edges. symmetric_form has the
    same diagonal with -sqrt(weight(i) * weight(j)) on edges; it is the
    conjugate of entries by the square-root weight diagonal, so the two
    share one eigenvalue multiset.
    """

    dimension: int
    entries: np.ndarray
    symmetric_form: np.ndarray


def build_weighted_laplacian(q: QuotientGraph) -> WeightedLaplacian:
    if q.is_empty:
        raise ValueError(f"n = {q.n} is prime; the quotient has no Laplacian")
    degrees = weighted_degrees(q)
    weights = np.array(q.weights, dtype=np.int64)
    root_w = np.sqrt(weights.astype(np.float64))
    entries = np.where(q.adjacency, -weights[None, :], 0)
    np.fill_diagonal(entries, degrees)
    symmetric = np.where(q.adjacency, -np.outer(root_w, root_w), 0.0)
    np.fill_diagonal(symmetric, degrees)
    entries.setflags(write=False)
    symmetric.setflags(write=False)
    return WeightedLaplacian(q.size, entries, symmetric)
