"""Proper-divisor quotient graph with totient weights: the divisor lattice.

Built from one Factorization of n. Vertices are the proper divisors of
n, each with its exponent vector; two are adjacent when neither divides
the other, that is when their exponent vectors are incomparable. Vertex
d carries weight phi(n/d) = prod phi(p^(e - a)), the size of its divisor
class. The weighted degree of d sums the weights of its neighbours and
equals the full-graph degree of every vertex in the class of d (the
partition is equitable); build_quotient computes the degrees once. Two
Laplacian reductions are built from them on demand: the integer
zero-row-sum form and its symmetric conjugate, which share one spectrum.
They are int64 and float64 arrays, so n must lie below 2**63. The full
graph's components are read off the quotient's, by one search here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigen import STRIP_HEIGHT
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
    # weighted degrees, Python ints; 0 for isolated vertices
    degrees: tuple[int, ...]

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
        i, j = np.nonzero(np.triu(self.adjacency, 1))
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
    n - phi(n) - 1, so no sum overflows.
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
    # STRIP_HEIGHT rows at a time: no int64 copy of the whole adjacency
    w = np.array(weights, dtype=np.int64)
    strips = (adjacency[lo:lo + STRIP_HEIGHT] @ w for lo in range(0, m, STRIP_HEIGHT))
    degrees = tuple(x for strip in strips for x in strip.tolist())
    return QuotientGraph(f.n, tuple(d for d, _ in proper), weights, adjacency, degrees)


def _component_count(adjacency: np.ndarray) -> int:
    """Components of a symmetric boolean adjacency, by breadth-first
    search on whole frontiers; every vertex reached is marked once."""
    seen = np.zeros(len(adjacency), dtype=bool)
    count = 0
    for start in range(len(adjacency)):
        if seen[start]:
            continue
        count += 1
        seen[start] = True
        frontier = np.array([start])
        while len(frontier):
            reached = adjacency[frontier].any(axis=0) & ~seen
            seen |= reached
            frontier = np.flatnonzero(reached)
    return count


def quotient_connectivity_state(q: QuotientGraph) -> str:
    """"empty" for prime n, else "connected" or "disconnected" by BFS.

    A single vertex counts as connected.
    """
    if q.is_empty:
        return "empty"
    return "connected" if _component_count(q.adjacency) == 1 else "disconnected"


def full_graph_component_count(q: QuotientGraph) -> int:
    """Components of the full graph, read off its quotient; 0 for prime n.

    The full graph joins edgeless classes over the quotient, so every
    quotient component with an edge is one component of the full graph,
    and a class with no neighbour (weighted degree 0) is w isolated
    vertices: C - I + the sum of w over the I isolated classes.
    """
    isolated = [w for w, deg in zip(q.weights, q.degrees) if deg == 0]
    return _component_count(q.adjacency) - len(isolated) + sum(isolated)


def integer_laplacian(q: QuotientGraph) -> np.ndarray:
    """The integer zero-row-sum Laplacian, int64: the weighted degrees on
    the diagonal and -weight(j) at each edge (i, j). 0 x 0 for prime n."""
    entries = np.where(q.adjacency, -np.array(q.weights, dtype=np.int64), 0)
    np.fill_diagonal(entries, q.degrees)
    return entries


def symmetric_laplacian(q: QuotientGraph) -> np.ndarray:
    """The symmetric conjugate of integer_laplacian by the square-root
    weight diagonal, a fresh writable float64 array on every call: the
    weighted degrees on the diagonal, -sqrt(weight(i) * weight(j)) on
    edges and +0.0 elsewhere. Both forms share one eigenvalue multiset,
    and the square-root weights are a null vector of this one.
    """
    root_w = np.sqrt(np.array(q.weights, dtype=np.float64))
    symmetric = np.multiply.outer(-root_w, root_w)
    # built in this one array, with no temporary of its size: the product
    # by the adjacency leaves -0.0 at non-edges, and adding 0.0 turns
    # that into +0.0 and leaves every other entry as it is
    symmetric *= q.adjacency
    symmetric += 0.0
    np.fill_diagonal(symmetric, q.degrees)
    return symmetric
