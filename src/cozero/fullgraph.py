"""Vertex-level cozero-divisor graph of the integers mod n.

This is the brute-force side of every spectral check. Adjacency comes
from the divisor criterion: x and y are adjacent when neither gcd class
divides the other, which is the ring definition (x outside the ideal of
y and y outside the ideal of x) since y and gcd(y, n) generate the same
ideal of Z_n. A graph is therefore its class vector: it keeps the
criterion's value for each pair of distinct classes, fewer than the
divisors of n squared, and hands out any rows of the adjacency, never
an m x m matrix. negation_split uses the same fact once more for
the oracle: x and n - x generate the same ideal, so they are twins, and
the Laplacian splits into a diagonal of degrees and one block of half
size. An int n reaches a graph only through factorize_for_full_graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .eigen import STRIP_HEIGHT
from .errors import EmptyGraphError, VertexBoundError, VertexCapError
from .numbers import Factorization, checked_factorization, factorize, is_prime

# the most vertices any full graph may have, read at each call
VERTEX_CAP = 20_000


@dataclass(frozen=True)
class FullGraph:
    """Explicit graph on the non-zero non-unit residues of Z_n.

    vertices are ascending; classes[i] == gcd(vertices[i], n). No m x m
    matrix is held: the divisor criterion is evaluated once per pair of
    distinct classes, into a table with one adjacency row per class, and
    adjacency_rows gathers any rows of the adjacency from it. Every other
    reader goes through adjacency_rows. The graph is immutable, so built
    graphs are safe to share across threads.
    """

    n: int
    vertices: tuple[int, ...]
    classes: tuple[int, ...]
    # the index of each vertex's class among the distinct classes, and the
    # class rows: row c is the adjacency row of every vertex of class c
    _class_of: np.ndarray = field(init=False, repr=False, compare=False)
    _class_rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        values, class_of = np.unique(np.array(self.classes, dtype=np.int64), return_inverse=True)
        pairs = (values[:, None] % values != 0) & (values % values[:, None] != 0)
        object.__setattr__(self, "_class_of", class_of)
        object.__setattr__(self, "_class_rows", pairs[:, class_of])

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    def adjacency_rows(self, rows) -> np.ndarray:
        """The adjacency rows at rows, a slice or an index array, as a fresh
        boolean array: one gather of class rows. The whole matrix they
        come from is symmetric and hollow."""
        return self._class_rows[self._class_of[rows]]


def factorize_for_full_graph(n: int) -> Factorization:
    """factorize(n), but VertexBoundError, before any factoring, when a
    composite n has more than VERTEX_CAP vertices by its bound of
    isqrt(n) - 1 (the multiples of its least prime). A prime n passes, to
    be reported degenerate: is_prime runs no rho. n < 2 has no bound and
    gets factorize's refusal."""
    if n >= 2:
        bound = math.isqrt(n) - 1
        if bound > VERTEX_CAP and not is_prime(n):
            raise VertexBoundError(n, bound, VERTEX_CAP)
    return factorize(n)


def build_full_graph(n: int | Factorization) -> FullGraph:
    """Build the graph for composite n, given as n or its factorization.

    An int n is admitted by factorize_for_full_graph, a factorization by
    checked_factorization. Prime n raises EmptyGraphError (no vertices at
    all, distinct from the edgeless null graphs of prime powers), and more
    than VERTEX_CAP vertices raises VertexCapError before any array is
    built. The cap bounds time and the oracle's memory: the graph itself
    holds a class row of m booleans per distinct gcd, fewer than the
    divisors of n, and each reader a strip or a row at a time.
    """
    f = checked_factorization(n) if isinstance(n, Factorization) else factorize_for_full_graph(n)
    n = f.n
    if f.is_prime:
        raise EmptyGraphError(n)
    m = n - f.totient - 1
    if m > VERTEX_CAP:
        raise VertexCapError(n, m, VERTEX_CAP)

    # the non-units are the multiples of n's primes
    vertices = np.unique(np.concatenate([np.arange(p, n, p) for p in f.primes]))
    if len(vertices) != m:
        raise AssertionError(f"{len(vertices)} non-units of {n}, expected {m}")
    return FullGraph(n, tuple(vertices.tolist()), tuple(np.gcd(vertices, n).tolist()))


def negation_split(graph: FullGraph) -> tuple[np.ndarray, np.ndarray]:
    """The Laplacian L = D - A of graph in the basis (e_i -+ e_{m-1-i}) / sqrt 2.

    x and n - x generate the same ideal, so they have the same neighbours,
    and on the ascending vertex list n - x is the mirror of x: row i of
    the adjacency equals row m - 1 - i. That is checked exactly, on the
    strips read here, and an AssertionError refuses a graph that fails it;
    nothing else about the graph is assumed. With h = m // 2 it gives:

    - on (e_i - e_{m-1-i}) / sqrt 2, the eigenvalue deg_i, for i < h;
      these h degrees are the first array returned;
    - on (e_i + e_{m-1-i}) / sqrt 2, the even block D_top - 2 A_top, with
      D_top and A_top the leading h x h blocks of D and A, bordered for
      odd m by the middle vertex e_h: the row and column -sqrt 2 A[h, :h]
      and the corner deg_h. It is float64, of size m - h, and the second
      array returned.

    Each strip of the top h rows and its mirror are read once, for the
    twin check, the degrees and the even block; the middle row once more.
    """
    m = graph.vertex_count
    h = m // 2
    root2 = math.sqrt(2.0)
    degrees = np.empty(m - h, dtype=np.int64)
    # zeros, then the edges: every non-edge is +0.0, as it is in L, where
    # scaling A by -2.0 would give -0.0, whose sign Householder reads
    even = np.zeros((m - h, m - h))
    for lo in range(0, h, STRIP_HEIGHT):
        hi = min(lo + STRIP_HEIGHT, h)
        top = graph.adjacency_rows(slice(lo, hi))
        if not np.array_equal(top, graph.adjacency_rows(slice(m - hi, m - lo))[::-1]):
            raise AssertionError(f"x and {graph.n} - x are not twins among the {m} vertices")
        degrees[lo:hi] = top.sum(axis=1)
        np.copyto(even[lo:hi, :h], -2.0, where=top[:, :h])
        if m > 2 * h:
            np.copyto(even[lo:hi, h], -root2, where=top[:, h])
    if m > 2 * h:
        (middle,) = graph.adjacency_rows(slice(h, h + 1))
        degrees[h] = middle.sum()
        np.copyto(even[h, :h], -root2, where=middle[:h])
    np.fill_diagonal(even, degrees)
    return degrees[:h], even

