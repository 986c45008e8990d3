"""Independent references the tests compare the library against.

Each one computes its answer the slow, literal way: from the ring
definition, by scanning residues, or by exact Horner evaluation. None is
used by the library itself.
"""

from math import gcd

from cozero import factorize


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
