"""Exact integer arithmetic underpinning the graph construction.

Factorization is deterministic trial division. It runs up to the larger
of the second-largest prime factor of n and the square root of the
largest: instant for smooth n of any size, a fraction of a second for a
product of two primes near 10**6. One Factorization carries everything
derived from n: primality, phi(n) and the divisors, enumerated once
together with their exponent vectors. All functions are pure and safe to
call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt, prod


@dataclass(frozen=True)
class Factorization:
    """n = p1^e1 * ... * pk^ek with primes strictly ascending."""

    n: int
    factors: tuple[tuple[int, int], ...]

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    @property
    def is_prime(self) -> bool:
        return len(self.factors) == 1 and self.factors[0][1] == 1

    @property
    def is_prime_power(self) -> bool:
        return len(self.factors) == 1

    @property
    def totient(self) -> int:
        return prod(totient_prime_power(p, e) for p, e in self.factors)


def factorize(n: int) -> Factorization:
    """Prime-power decomposition by trial division up to sqrt(n)."""
    if n < 2:
        raise ValueError(f"factorize requires n >= 2, got {n}")
    factors: list[tuple[int, int]] = []
    rest = n
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            factors.append((p, e))
        p = 3 if p == 2 else p + 2
    if rest > 1:
        factors.append((rest, 1))
    return Factorization(n, tuple(factors))


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for p in range(3, isqrt(n) + 1, 2):
        if n % p == 0:
            return False
    return True


def totient(n: int) -> int:
    """Count of integers in [1, n] coprime to n, by the product formula."""
    if n < 1:
        raise ValueError(f"totient requires n >= 1, got {n}")
    return 1 if n == 1 else factorize(n).totient


def totient_prime_power(p: int, e: int) -> int:
    """phi(p^e) for prime p and e >= 0."""
    if e == 0:
        return 1
    return p ** (e - 1) * (p - 1)


def divisor_exponents(f: Factorization) -> list[tuple[int, tuple[int, ...]]]:
    """Every divisor of f.n with its exponent vector over f.primes, ascending."""
    divs: list[tuple[int, tuple[int, ...]]] = [(1, ())]
    for p, e in f.factors:
        divs = [(d * p**a, vec + (a,)) for d, vec in divs for a in range(e + 1)]
    return sorted(divs)


def all_divisors(n: int) -> list[int]:
    """Every divisor of n including 1 and n, ascending."""
    if n < 1:
        raise ValueError(f"all_divisors requires n >= 1, got {n}")
    f = factorize(n) if n > 1 else Factorization(1, ())
    return [d for d, _ in divisor_exponents(f)]


def proper_divisors(n: int) -> list[int]:
    """Divisors d with 1 < d < n, ascending; empty when n is prime."""
    if n < 2:
        raise ValueError(f"proper_divisors requires n >= 2, got {n}")
    return all_divisors(n)[1:-1]


def gcd_class_count(n: int, d: int) -> int:
    """|{x in [1, n-1] : gcd(x, n) == d}| by direct scan (verification oracle)."""
    return sum(1 for x in range(1, n) if gcd(x, n) == d)
