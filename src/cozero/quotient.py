"""Proper-divisor quotient graph with totient weights: the divisor lattice.

Built from one Factorization of n. Vertices are the proper divisors of
n, each with its exponent vector; two are adjacent when neither divides
the other, that is when their exponent vectors are incomparable. Vertex
d carries weight phi(n/d), the size of its divisor class, and a weighted
degree, the sum of its neighbours' weights and the full-graph degree of
every vertex in its class (the partition is equitable). Both, and the
connectivity, are read off the factorization: the graph holds only
tuples. Its boolean adjacency is built when asked for, by edges() and
the two Laplacian reductions, int64 and float64 arrays that share one
spectrum, so n must lie below 2**63.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numbers import (
    Factorization,
    factorize,
    is_prime,
    totient_prime_power,
)


@dataclass(frozen=True)
class QuotientGraph:
    n: int
    divisors: tuple[int, ...]
    # each divisor's exponents of the primes of n, ascending by prime
    exponents: tuple[tuple[int, ...], ...]
    weights: tuple[int, ...]
    # weighted degrees, Python ints; 0 for isolated vertices
    degrees: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.divisors)

    @property
    def is_empty(self) -> bool:
        return self.size == 0

    def adjacency(self) -> np.ndarray:
        """The d x d boolean adjacency, built on each call: d_i divides d_j
        when no exponent of d_i is larger, and they are adjacent when
        neither divides the other. Exponents of n < 2**63 fit in int8."""
        divides = np.ones((self.size, self.size), dtype=bool)
        # one column per prime, and none for the empty quotient of a prime
        for col in np.array(self.exponents, dtype=np.int8).T:
            divides &= col[:, None] <= col[None, :]
        return ~(divides | divides.T)

    def edges(self) -> list[tuple[int, int]]:
        i, j = np.nonzero(np.triu(self.adjacency(), 1))
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

    Takes n or its factorization; a composite n must lie below 2**63. With
    a = v_p(d), p^e || n and c_p = p^e - p^(e - a - 1), or p^e if a = e,
    the weighted degree of d is n - n/d - prod c_p + phi(n/d), in Python
    ints: the non-units, less the multiples of d, less the non-units whose
    gcd with n divides d (prod c_p - phi(n) of them), plus the class of d,
    counted in both.
    """
    f = n if isinstance(n, Factorization) else factorize_for_quotient(n)
    if not f.is_prime:
        _require_below_int64(f.n)
    # (d, exponents, phi(n/d), prod c_p), expanded one prime at a time as
    # divisor_exponents expands the divisors
    rows = [(1, (), 1, 1)]
    for p, e in f.factors:
        phis = [totient_prime_power(p, e - a) for a in range(e + 1)]
        cs = [p**e - p ** (e - a - 1) for a in range(e)] + [p**e]
        rows = [(d * p**a, vec + (a,), w * phis[a], c * cs[a])
                for d, vec, w, c in rows for a in range(e + 1)]
    rows.sort()
    proper = rows[1:-1]
    return QuotientGraph(
        f.n, tuple(r[0] for r in proper), tuple(r[1] for r in proper),
        tuple(r[2] for r in proper), tuple(f.n - f.n // d - c + w for d, _, w, c in proper),
    )


def quotient_connectivity_state(q: QuotientGraph) -> str:
    """"empty" for prime n, else "connected" or "disconnected".

    With two or more primes, every proper divisor d is adjacent to some
    full power p^e || n: some p^e does not divide d, and if d divides it,
    d is a power of p and any other prime's full power will do. Those
    powers are pairwise adjacent, so the quotient is connected. A prime
    power's proper divisors form a chain with no edges, connected only as
    a single vertex.
    """
    if q.is_empty:
        return "empty"
    return "connected" if q.size == 1 or len(q.exponents[0]) > 1 else "disconnected"


def full_graph_component_count(q: QuotientGraph) -> int:
    """Components of the full graph, read off its quotient; 0 for prime n.

    The full graph joins edgeless classes over the quotient. With two or
    more primes the quotient is connected and has an edge, so the full
    graph is one component. A prime power's classes have no neighbour,
    so its n/p - 1 vertices, the sum of the weights, are all isolated.
    """
    if q.is_empty:
        return 0
    return 1 if len(q.exponents[0]) > 1 else sum(q.weights)


def integer_laplacian(q: QuotientGraph) -> np.ndarray:
    """The integer zero-row-sum Laplacian, int64: the weighted degrees on
    the diagonal and -weight(j) at each edge (i, j). 0 x 0 for prime n."""
    entries = np.where(q.adjacency(), -np.array(q.weights, dtype=np.int64), 0)
    np.fill_diagonal(entries, q.degrees)
    return entries


def symmetric_laplacian(q: QuotientGraph) -> np.ndarray:
    """The symmetric conjugate of integer_laplacian by the square-root
    weight diagonal, a fresh writable float64 array on every call: the
    weighted degrees on the diagonal, -sqrt(weight(i) * weight(j)) on
    edges and +0.0 elsewhere. Both forms share one eigenvalue multiset,
    and the square-root weights are a null vector of this one.
    """
    adjacency = q.adjacency()
    root_w = np.sqrt(np.array(q.weights, dtype=np.float64))
    symmetric = np.multiply.outer(-root_w, root_w)
    # built in this one array, with no temporary of its size: the product
    # by the adjacency leaves -0.0 at non-edges, and adding 0.0 turns
    # that into +0.0 and leaves every other entry as it is
    symmetric *= adjacency
    symmetric += 0.0
    symmetric.reshape(-1)[:: q.size + 1] = q.degrees
    return symmetric
