"""Exact integer arithmetic underpinning the graph construction.

Factorization is deterministic. Trial division by the primes below
SMALL_PRIME_LIMIT strips the small factors, which settles smooth n of any
size. Each cofactor left over is tested by Miller-Rabin with the 13
prime bases 2..41, which is proven to decide primality below
MILLER_RABIN_LIMIT (Sorenson & Webster 2017, Math. Comp. 86), and each
composite one is split by Pollard-Brent rho (Brent 1980, BIT 20), about
n**(1/4) steps, recursing until every part is prime. The slowest n below
2**63, products of two primes near 3*10**9, take a few tens of
milliseconds, a tenth of a second in the tail. A cofactor at or above
MILLER_RABIN_LIMIT cannot be decided, and the input is refused with a
ValueError. One Factorization carries everything derived from n:
primality, phi(n) and the divisors, enumerated once together with their
exponent vectors. All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress, count
from math import gcd, isqrt, prod


def _primes_below(limit: int) -> tuple[int, ...]:
    """Sieve of Eratosthenes."""
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return tuple(compress(range(limit), sieve))


# trial division covers the primes below this; a cofactor below its square
# with no prime factor below it is prime
SMALL_PRIME_LIMIT = 1000
_SMALL_PRIMES = _primes_below(SMALL_PRIME_LIMIT)
# the 13 smallest primes; psi_13, the least composite that is a strong
# probable prime to all of them, bounds where the test is proven
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_LIMIT = 3317044064679887385961981
# rho differences multiplied together before one gcd
RHO_BATCH = 128


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
    """Prime-power decomposition of n >= 2, primes strictly ascending.

    Trial division by the primes below SMALL_PRIME_LIMIT, then Miller-Rabin
    and Pollard-Brent rho on the cofactor left over. Raises ValueError for
    n < 2, and when that cofactor is at or above MILLER_RABIN_LIMIT, where
    its primality cannot be decided.
    """
    if n < 2:
        raise ValueError(f"factorize requires n >= 2, got {n}")
    factors: list[tuple[int, int]] = []
    rest = n
    for p in _SMALL_PRIMES:
        if p * p > rest:
            break
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            factors.append((p, e))
    if rest >= SMALL_PRIME_LIMIT**2:
        # the loop ran out, so no prime factor of rest lies below SMALL_PRIME_LIMIT
        factors.extend(sorted(Counter(_prime_factors(rest)).items()))
    elif rest > 1:
        factors.append((rest, 1))
    return Factorization(n, tuple(factors))


def is_prime(n: int) -> bool:
    """Primality by trial division below SMALL_PRIME_LIMIT, then Miller-Rabin.

    Raises ValueError when n has no prime factor below SMALL_PRIME_LIMIT
    and is at or above MILLER_RABIN_LIMIT, where the test is not proven.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if p * p > n:
            return True
        if n % p == 0:
            return n == p
    return _miller_rabin(n)


def _miller_rabin(m: int) -> bool:
    """Primality of m, which has no prime factor below SMALL_PRIME_LIMIT.

    m is prime iff it is a strong probable prime to every base of
    MILLER_RABIN_BASES, proven for m below MILLER_RABIN_LIMIT; m at or
    above it is refused.
    """
    if m >= MILLER_RABIN_LIMIT:
        raise ValueError(
            f"cannot decide whether {m} is prime: Miller-Rabin with bases "
            f"2..41 is proven only below {MILLER_RABIN_LIMIT}"
        )
    d = m - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in MILLER_RABIN_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _prime_factors(m: int) -> list[int]:
    """Prime factors of m with multiplicity; m > 1 has none below SMALL_PRIME_LIMIT."""
    if _miller_rabin(m):
        return [m]
    d = _pollard_brent(m)
    return _prime_factors(d) + _prime_factors(m // d)


def _pollard_brent(m: int) -> int:
    """A nontrivial factor of the odd composite m (Brent 1980, BIT 20).

    Iterates y -> y*y + c mod m from y = 2 for c = 1, 2, ... in turn.
    RHO_BATCH differences are multiplied before each gcd; a batch whose
    product reaches a multiple of m is replayed one step at a time, and a
    c that yields only m itself is dropped for the next.
    """
    for c in count(1):
        y, r, g, acc = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(RHO_BATCH, r - k)):
                    y = (y * y + c) % m
                    acc = acc * (x - y) % m
                g = gcd(acc, m)
                k += RHO_BATCH
            r *= 2
        if g == m:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = gcd(x - ys, m)
        if g != m:
            return g


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
