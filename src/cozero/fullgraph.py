"""Vertex-level cozero-divisor graph of the integers mod n.

This is the brute-force side of every spectral check. Adjacency is filled
from the divisor criterion: x and y are adjacent when neither gcd class
divides the other, which is the ring definition (x outside the ideal of
y and y outside the ideal of x) since y and gcd(y, n) generate the same
ideal of Z_n. negation_blocks splits the Laplacian by the automorphism
x -> n - x for the oracle's eigensolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .eigen import STRIP_HEIGHT, component_count
from .errors import EmptyGraphError, VertexCapError
from .numbers import Factorization, factorize

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


def build_full_graph(n: int | Factorization, cap: int = DEFAULT_VERTEX_CAP) -> FullGraph:
    """Build the graph for composite n, given as n or its factorization.

    Prime n raises EmptyGraphError (no vertices at all, distinct from the
    edgeless null graphs of prime powers). The cap bounds memory: a graph
    on m vertices stores an m x m boolean matrix, filled STRIP_HEIGHT rows
    at a time so that no larger temporary is formed.
    """
    f = n if isinstance(n, Factorization) else factorize(n)
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


def laplacian_matrix(graph: FullGraph) -> np.ndarray:
    """Degree matrix minus adjacency matrix, exact, built in place.

    The dtype is the smallest signed integer type that holds -m, so every
    degree fits: int16 below 32768 vertices, a quarter of float64's bytes.
    """
    lap = graph.adjacency.astype(np.min_scalar_type(-graph.vertex_count))
    np.negative(lap, out=lap)
    np.fill_diagonal(lap, graph.degrees())
    return lap


def negation_blocks(lap: np.ndarray) -> Iterator[np.ndarray]:
    """The two diagonal blocks of lap in the basis (e_i -+ e_{m-1-i}) / sqrt 2.

    x and n - x generate the same ideal, so x -> n - x is an automorphism
    of the graph, and on the ascending vertex list it is the reversal:
    the Laplacian L satisfies L == L[::-1, ::-1]. That is checked
    exactly, before the first block is built, and an AssertionError
    refuses an L that fails it; nothing else about the graph is assumed.
    In that basis L splits into two blocks of about m / 2. With
    h = m // 2 and R = L[:h, ::-1][:, :h]:

    - the odd block, on (e_i - e_{m-1-i}) / sqrt 2, is L[:h, :h] - R;
    - the even block, on (e_i + e_{m-1-i}) / sqrt 2, is L[:h, :h] + R,
      bordered for odd m by the middle vertex e_h: the row and column
      sqrt 2 * L[h, :h] and the corner L[h, h].

    The blocks are float64 and built one at a time, as they are asked
    for; a caller that drops each block before asking for the next, as
    eigen.eigenvalues_block_diagonal does, holds one at a time.
    """
    m = len(lap)
    if not np.array_equal(lap, lap[::-1, ::-1]):
        raise AssertionError(f"reversing the {m} vertices is not an automorphism")
    h = m // 2
    top, mirror = lap[:h, :h], lap[:h, ::-1][:, :h]
    yield np.subtract(top, mirror, dtype=np.float64)
    even = np.empty((m - h, m - h))
    np.add(top, mirror, out=even[:h, :h], dtype=np.float64)
    if m > 2 * h:
        even[h, :h] = even[:h, h] = math.sqrt(2.0) * lap[h, :h]
        even[h, h] = lap[h, h]
    yield even


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
