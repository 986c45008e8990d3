"""Independent references the tests compare the library against.

Each one computes its answer the slow, literal way: from the ring
definition, by scanning residues, by exact Horner evaluation, or in exact
integer arithmetic. The paper's two exact results live here too: the
closed-form spectrum of n = p*q and the quartic characteristic polynomial
of the p**2 * q quotient, with Faddeev-LeVerrier as the exact polynomial
of any small integer matrix. None is used by the library itself.
eigenvalue_multiset is no independent reference: it wraps the library's
solver so that a test can pass any matrix and get a merged multiset, and
with_flipped_pairs makes a graph the builder cannot, for the oracle's
refusals to be tested.
"""

from math import gcd

import numpy as np

from cozero import (
    AssembledSpectrum,
    ClassEigenvalue,
    FullGraph,
    SpectrumEntry,
    SpectrumMultiset,
    factorize,
    is_prime,
    merge_spectrum,
)
from cozero.eigen import eigenvalues_in_place

CHARPOLY_MAX_DIM = 64


def _check_vertex(x: int, n: int) -> None:
    if not 0 < x < n:
        raise ValueError(f"{x} is not a canonical non-zero element of Z_{n}")
    if gcd(x, n) == 1:
        raise ValueError(f"{x} is a unit of Z_{n}")


def is_adjacent_by_definition(x: int, y: int, n: int) -> bool:
    """Ring definition: adjacent iff x lies outside the ideal of y and vice versa.

    Membership of x in the ideal of y reduces to divisibility of x by
    gcd(y, n), because y and gcd(y, n) generate the same ideal of Z_n.
    """
    _check_vertex(x, n)
    _check_vertex(y, n)
    return x % gcd(y, n) != 0 and y % gcd(x, n) != 0


def ideal_of(y: int, n: int) -> frozenset[int]:
    """The principal ideal {r*y mod n}, literally enumerated."""
    return frozenset(r * y % n for r in range(n))


def is_adjacent_exhaustive(x: int, y: int, n: int) -> bool:
    """Ring definition with enumerated ideals. O(n) per call."""
    _check_vertex(x, n)
    _check_vertex(y, n)
    return x not in ideal_of(y, n) and y not in ideal_of(x, n)


def adjacency(graph) -> np.ndarray:
    """The whole boolean adjacency of a built graph, gathered in one read."""
    return graph.adjacency_rows(slice(None))


def laplacian(graph) -> np.ndarray:
    """Degree matrix minus adjacency matrix of a built graph, in int64."""
    a = adjacency(graph)
    return np.diag(a.sum(axis=1, dtype=np.int64)) - a


def with_flipped_pairs(graph, pairs):
    """graph, read through a row reader that flips the adjacency of each
    pair (i, j) in pairs, both ways: a graph the builder cannot make."""
    class Flipped(FullGraph):
        def adjacency_rows(self, rows):
            block = super().adjacency_rows(rows)
            index = np.arange(self.vertex_count)[rows]
            for i, j in pairs:
                for a, b in ((i, j), (j, i)):
                    block[index == a, b] ^= True
            return block

    return Flipped(graph.n, graph.vertices, graph.classes)


def eigenvalue_multiset(matrix, null_vector=None) -> SpectrumMultiset:
    """All eigenvalues of a real symmetric matrix, merged by multiplicity.

    A float64 copy of matrix goes to eigenvalues_in_place, so matrix is
    left as it was. A null vector is deflated there and contributes one
    exact zero here, as in assemble_spectrum.
    """
    values = eigenvalues_in_place(np.array(matrix, dtype=np.float64), null_vector)
    triples = [(v, 1, False) for v in values]
    if null_vector is not None:
        triples.append((0, 1, True))
    return merge_spectrum(triples)


def gcd_class_count(n: int, d: int) -> int:
    """|{x in [1, n-1] : gcd(x, n) == d}| by direct scan."""
    return sum(1 for x in range(1, n) if gcd(x, n) == d)


def quotient_connected_predicate(n: int) -> bool | None:
    """Closed form: None for prime n (empty quotient); otherwise the
    quotient is connected unless n is a prime power p**t with t >= 3,
    whose divisors form a divisibility chain with no edges."""
    if n < 2:
        raise ValueError(f"predicate requires n >= 2, got {n}")
    f = factorize(n)
    if f.is_prime:
        return None
    return not (f.is_prime_power and f.factors[0][1] >= 3)


def poly_eval_int(coeffs, x: int) -> int:
    """Exact Horner evaluation of an integer polynomial at an integer."""
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


def _as_int_matrix(matrix) -> list[list[int]]:
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    rows: list[list[int]] = []
    for row in a.tolist():
        out_row = []
        for x in row:
            if isinstance(x, bool):
                raise ValueError("boolean entries are not integers")
            if isinstance(x, int):
                out_row.append(x)
            elif isinstance(x, float) and x.is_integer():
                out_row.append(int(x))
            else:
                raise ValueError(f"non-integer entry {x!r}")
        rows.append(out_row)
    return rows


def _int_matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def characteristic_polynomial(matrix) -> list[int]:
    """Coefficients of det(xI - M), descending powers, exact integers.

    Faddeev-LeVerrier over Python integers: the k-th trace is divisible
    by k for any integer matrix, so no rationals ever appear. Dimension
    is capped at CHARPOLY_MAX_DIM; this is meant for the small quotient
    matrices, not for full graphs.
    """
    rows = _as_int_matrix(matrix)
    m = len(rows)
    if m > CHARPOLY_MAX_DIM:
        raise ValueError(
            f"dimension {m} exceeds the exact-arithmetic cap of {CHARPOLY_MAX_DIM}"
        )
    if m == 0:
        return [1]
    coeffs = [1]
    work = [row[:] for row in rows]
    for k in range(1, m + 1):
        if k > 1:
            shifted = [row[:] for row in work]
            for i in range(m):
                shifted[i][i] += coeffs[-1]
            work = _int_matmul(rows, shifted)
        trace = sum(work[i][i] for i in range(m))
        if trace % k != 0:
            raise ArithmeticError(
                f"trace {trace} not divisible by {k}; input was not an integer matrix"
            )
        coeffs.append(-(trace // k))
    return coeffs


def _require_distinct_primes(p: int, q: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    if p == q:
        raise ValueError(f"primes must be distinct, got {p} twice")


def closed_form_pq(p: int, q: int) -> AssembledSpectrum:
    """Exact spectrum for n = p*q: {0, p+q-2, (p-1)^(q-2), (q-1)^(p-2)}.

    No numerics anywhere; the quotient on two divisors is a single edge
    whose Laplacian has eigenvalues p+q-2 and 0. The result is always
    integral.
    """
    _require_distinct_primes(p, q)
    lo, hi = min(p, q), max(p, q)
    # divisor lo has weight phi(hi) and weighted degree lo - 1, and vice versa
    integer_part = (
        ClassEigenvalue(lo - 1, hi - 2, lo),
        ClassEigenvalue(hi - 1, lo - 2, hi),
    )
    quotient_part = SpectrumMultiset(
        (SpectrumEntry(p + q - 2, 1, True), SpectrumEntry(0, 1, True))
    )
    combined = merge_spectrum(
        [(e.value, e.multiplicity, True) for e in integer_part]
        + [(e.value, e.multiplicity, e.exact) for e in quotient_part.entries]
    )
    return AssembledSpectrum(p * q, integer_part, quotient_part, combined, None)


def charpoly_p2q(p: int, q: int) -> list[int]:
    """Characteristic polynomial of the 4x4 quotient Laplacian of n = p*p*q.

    Monic quartic with zero constant term, exact integer coefficients;
    must match characteristic_polynomial of the constructed matrix.
    """
    _require_distinct_primes(p, q)
    c3 = (p - 1) * (2 * p + 1) + (p + 1) * (q - 1)
    c2 = (
        p * (p - 1) ** 2 * (p + 1)
        + (p - 1) * (p + 1) ** 2 * (q - 1)
        + p * (q - 1) ** 2
        + (p - 1) ** 2 * (q - 1)
    )
    c1 = p * (p - 1) * (q - 1) * ((p - 1) * (p + 1) + p * (q - 1))
    return [1, -c3, c2, -c1, 0]
