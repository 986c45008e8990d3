"""Vertex-level cozero-divisor graph of the integers mod n.

This is the brute-force side of every spectral check. Adjacency is filled
from the divisor criterion: x and y are adjacent when neither gcd class
divides the other, which is the ring definition (x outside the ideal of
y and y outside the ideal of x) since y and gcd(y, n) generate the same
ideal of Z_n. negation_split uses the same fact once more for the
oracle: x and n - x generate the same ideal, so they are twins, and the
Laplacian splits into a diagonal of degrees and one block of half size.
An int n reaches a graph only through factorize_for_full_graph.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .eigen import STRIP_HEIGHT, component_count
from .errors import EmptyGraphError, VertexBoundError, VertexCapError
from .numbers import Factorization, factorize, is_prime

DEFAULT_VERTEX_CAP = 20_000


@dataclass(frozen=True)
class FullGraph:
    """Explicit graph on the non-zero non-unit residues of Z_n.

    vertices are ascending; classes[i] == gcd(vertices[i], n). The
    adjacency matrix is boolean, symmetric, hollow, and read-only, so
    built graphs are safe to share across threads.
    """

    n: int
    vertices: tuple[int, ...]
    classes: tuple[int, ...]
    adjacency: np.ndarray

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return int(self.adjacency.sum()) // 2

    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1, dtype=np.int64)

    def edge_strips(self) -> Iterator[tuple[list[int], list[int]]]:
        """Vertex indices i < j of the edges, row-major, as one pair of lists
        per strip of STRIP_HEIGHT adjacency rows: no m x m temporary."""
        a = self.adjacency
        for lo in range(0, len(a), STRIP_HEIGHT):
            i, j = np.nonzero(np.triu(a[lo:lo + STRIP_HEIGHT, lo:], 1))
            yield (i + lo).tolist(), (j + lo).tolist()


def factorize_for_full_graph(n: int, cap: int = DEFAULT_VERTEX_CAP) -> Factorization:
    """factorize(n), but VertexBoundError, before any factoring, when a
    composite n has more than cap vertices by its bound of isqrt(n) - 1 (the
    multiples of its least prime). A prime n passes, to be reported
    degenerate: is_prime runs no rho."""
    bound = math.isqrt(n) - 1
    if bound > cap and not is_prime(n):
        raise VertexBoundError(n, bound, cap)
    return factorize(n)


def build_full_graph(n: int | Factorization, cap: int = DEFAULT_VERTEX_CAP) -> FullGraph:
    """Build the graph for composite n, given as n or its factorization.

    An int n is admitted by factorize_for_full_graph. Prime n raises
    EmptyGraphError (no vertices at all, distinct from the edgeless null
    graphs of prime powers). The cap bounds memory: a graph on m vertices
    stores an m x m boolean matrix, filled STRIP_HEIGHT rows at a time.
    """
    f = n if isinstance(n, Factorization) else factorize_for_full_graph(n, cap)
    n = f.n
    if f.is_prime:
        raise EmptyGraphError(n)
    m = n - f.totient - 1
    if m > cap:
        raise VertexCapError(n, m, cap)

    # the non-units are the multiples of n's primes
    vertices = np.unique(np.concatenate([np.arange(p, n, p) for p in f.primes]))
    assert len(vertices) == m
    g = np.gcd(vertices, n)
    # the divisor criterion evaluated on every pair, one strip of rows at a time
    adjacency = np.empty((m, m), dtype=bool)
    for lo in range(0, m, STRIP_HEIGHT):
        strip = g[lo:lo + STRIP_HEIGHT, None]
        adjacency[lo:lo + STRIP_HEIGHT] = (strip % g != 0) & (g % strip != 0)

    adjacency.setflags(write=False)
    return FullGraph(n, tuple(int(v) for v in vertices), tuple(int(c) for c in g), adjacency)


def negation_split(graph: FullGraph) -> tuple[np.ndarray, np.ndarray]:
    """The Laplacian L = D - A of graph in the basis (e_i -+ e_{m-1-i}) / sqrt 2.

    x and n - x generate the same ideal, so they have the same neighbours,
    and on the ascending vertex list n - x is the mirror of x: row i of
    the adjacency equals row m - 1 - i. That is checked exactly, STRIP_HEIGHT
    rows at a time, and an AssertionError refuses a graph that fails it;
    nothing else about the graph is assumed. With h = m // 2 it gives:

    - on (e_i - e_{m-1-i}) / sqrt 2, the eigenvalue deg_i, for i < h;
      these h degrees are the first array returned;
    - on (e_i + e_{m-1-i}) / sqrt 2, the even block D_top - 2 A_top, with
      D_top and A_top the leading h x h blocks of D and A, bordered for
      odd m by the middle vertex e_h: the row and column -sqrt 2 A[h, :h]
      and the corner deg_h. It is float64, of size m - h, and the second
      array returned.
    """
    a = graph.adjacency
    m = len(a)
    h = m // 2
    for lo in range(0, h, STRIP_HEIGHT):
        hi = min(lo + STRIP_HEIGHT, h)
        if not np.array_equal(a[lo:hi], a[m - hi:m - lo][::-1]):
            raise AssertionError(f"x and {graph.n} - x are not twins among the {m} vertices")
    degrees = graph.degrees()
    # zeros, then the edges: every non-edge is +0.0, as it is in L, where
    # scaling A by -2.0 would give -0.0, whose sign Householder reads
    even = np.zeros((m - h, m - h))
    np.copyto(even[:h, :h], -2.0, where=a[:h, :h])
    if m > 2 * h:
        np.copyto(even[h, :h], -math.sqrt(2.0), where=a[h, :h])
        np.copyto(even[:h, h], -math.sqrt(2.0), where=a[h, :h])
    np.fill_diagonal(even, degrees[:m - h])
    return degrees[:h], even


def connected_component_count(graph: FullGraph) -> int:
    return component_count(graph.adjacency)


def full_graph_connected_predicate(n: int | Factorization) -> bool | None:
    """Closed-form connectivity without building the graph.

    Takes n or its factorization. None for prime n (empty graph).
    Otherwise the graph is connected unless n is a prime power, with
    n = 4 as the single-vertex boundary case that still counts as
    connected.
    """
    f = n if isinstance(n, Factorization) else factorize(n)
    if f.is_prime:
        return None
    if not f.is_prime_power:
        return True
    return f.n == 4
