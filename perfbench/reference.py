"""Reference values for the output checks, computed apart from the program.

Nothing here imports cozero. The divisor lattice comes from the input's
factorization (exponent vectors, incomparable pairs adjacent), the
quotient spectrum from numpy.linalg.eigvalsh, small characteristic
polynomials from sympy, and the oracle side from a vertex-level Laplacian
built straight from the ring definition: x and y are adjacent when
neither lies in the ideal generated by the other.

Usage: python3 perfbench/reference.py < inputs.json > references.json
(inputs.json is a list of {"n", "factors", "oracle"} objects).
"""

from __future__ import annotations

import json
import sys
from itertools import product
from math import prod

import numpy as np
import sympy

from check import MATCH_TOL, root_multiplicity

# quotients up to this dimension get an exact characteristic polynomial
EXACT_MAX_DIM = 16


def _phi_prime_power(p: int, k: int) -> int:
    return 1 if k == 0 else p ** (k - 1) * (p - 1)


def lattice(factors: list[list[int]]) -> tuple[list[int], list[int], list[list[bool]]]:
    """Proper divisors ascending, their class sizes phi(n/d) and adjacency."""
    primes = [p for p, _ in factors]
    tops = [e for _, e in factors]
    vectors = [v for v in product(*(range(e + 1) for e in tops))
               if any(v) and list(v) != tops]
    divisor = {v: prod(p ** a for p, a in zip(primes, v)) for v in vectors}
    vectors.sort(key=divisor.__getitem__)
    weights = [prod(_phi_prime_power(p, e - a) for p, e, a in zip(primes, tops, v))
               for v in vectors]

    def below(u, v):
        return all(a <= b for a, b in zip(u, v))

    adjacency = [[not below(u, v) and not below(v, u) for v in vectors] for u in vectors]
    return [divisor[v] for v in vectors], weights, adjacency


def _components(adjacency, weights) -> int:
    """Components of the vertex-level graph: a quotient component of two or
    more classes is one component; an isolated class is w isolated vertices."""
    seen = [False] * len(weights)
    total = 0
    for start in range(len(weights)):
        if seen[start]:
            continue
        seen[start] = True
        members, stack = [start], [start]
        while stack:
            i = stack.pop()
            for j, adj in enumerate(adjacency[i]):
                if adj and not seen[j]:
                    seen[j] = True
                    members.append(j)
                    stack.append(j)
        total += 1 if len(members) > 1 else weights[start]
    return total


def _integer_roots_count(charpoly: list[int], approx: np.ndarray) -> int:
    candidates = {int(round(x)) + k for x in approx for k in (-1, 0, 1)}
    return sum(root_multiplicity(charpoly, k) for k in candidates)


def _oracle(n: int, expected: np.ndarray, components: int) -> dict:
    """Vertex-level Laplacian from the ring definition, eigensolved by LAPACK."""
    x = np.arange(1, n, dtype=np.int64)
    g = np.gcd(x, n)
    x, g = x[g > 1], g[g > 1]
    # x lies in the ideal of y exactly when gcd(y, n) divides x
    adjacency = (x[:, None] % g[None, :] != 0) & (x[None, :] % g[:, None] != 0)
    laplacian = np.diag(adjacency.sum(axis=1).astype(np.float64)) - adjacency
    values = np.linalg.eigvalsh(laplacian)
    zeros = int(np.sum(np.abs(values) <= 1e-8 * max(1, n)))
    if zeros != components:
        raise AssertionError(f"reference disagrees with itself at n = {n}")
    if len(values) != len(expected):
        return {"matched": False, "max_deviation": float("inf")}
    deviation = float(np.max(np.abs(np.sort(values) - np.sort(expected)))) if len(values) else 0.0
    return {"matched": deviation <= MATCH_TOL, "max_deviation": deviation}


def reference(item: dict) -> dict:
    n, factors = item["n"], item["factors"]
    divisors, weights, adjacency = lattice(factors)
    d = len(divisors)
    degrees = [sum(w for w, adj in zip(weights, row) if adj) for row in adjacency]
    root_w = np.sqrt(np.array(weights, dtype=np.float64))
    symmetric = np.diag(np.array(degrees, dtype=np.float64))
    mask = np.array(adjacency, dtype=bool)
    symmetric[mask] = -np.outer(root_w, root_w)[mask]
    quotient = np.linalg.eigvalsh(symmetric)
    components = _components(adjacency, weights)

    charpoly = integral = None
    if d <= EXACT_MAX_DIM:
        exact = sympy.Matrix(d, d, lambda i, j: degrees[i] if i == j
                             else (-weights[j] if adjacency[i][j] else 0))
        charpoly = [int(c) for c in exact.charpoly().all_coeffs()]
        integral = _integer_roots_count(charpoly, quotient) == d

    closed_form = None
    if [e for _, e in factors] == [1, 1]:
        (p, _), (q, _) = factors
        table: dict[int, int] = {}
        for value, mult in ((0, 1), (p + q - 2, 1), (p - 1, q - 2), (q - 1, p - 2)):
            table[value] = table.get(value, 0) + mult
        closed_form = sorted((v, m) for v, m in table.items() if m > 0)

    oracle = None
    if item["oracle"]:
        integer_part = np.repeat(np.array(degrees, dtype=np.float64),
                                 np.array(weights) - 1)
        oracle = _oracle(n, np.concatenate([integer_part, quotient]), components)

    phi = n
    for p, _ in factors:
        phi = phi // p * (p - 1)
    vertex_count = n - phi - 1
    if vertex_count != sum(weights):
        raise AssertionError(f"class sizes do not add up at n = {n}")
    return {
        "n": n,
        "classes": [[dv, w, deg] for dv, w, deg in zip(divisors, weights, degrees)],
        "vertex_count": vertex_count,
        "components": components,
        "max_degree": max(degrees),
        "quotient_eigenvalues": [float(v) for v in quotient],
        "charpoly": charpoly,
        "integral": integral,
        "closed_form": closed_form,
        "oracle": oracle,
    }


def main() -> int:
    items = json.load(sys.stdin)
    json.dump([reference(item) for item in items], sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
