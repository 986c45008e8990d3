"""Exact integer arithmetic underpinning the graph construction.

Factorization is deterministic. The primes below SMALL_PRIME_LIMIT that
divide n's gcd with their product are divided out, which settles smooth
n of any size. Each cofactor left over is tested by Miller-Rabin with
the 13 prime bases 2..41, which is proven to decide primality below
MILLER_RABIN_LIMIT (Sorenson & Webster 2017, Math. Comp. 86). A composite
one below 2**64 is scanned for its prime factors below SCAN_PRIME_LIMIT
(2**20) by a wrapping uint64 product with the primes' inverses mod 2**64,
from its square root down, a segment of primes per vectorized step. The
table of inverses, 8 bytes per prime, is built a segment at a time the
first time a scan reaches it. A full scan takes about 0.1 ms. What is
still composite is split by Pollard-Brent rho (Brent 1980, BIT 20),
about n**(1/4) steps, recursing until every part is prime. The slowest
n below 2**63, products of two primes near 3*10**9, take a few tens of
milliseconds, a tenth of a second in the tail. A cofactor at or above
MILLER_RABIN_LIMIT cannot be decided, and the input is refused with a
ValueError. One Factorization carries what is derived from n alone:
its prime powers, primality and phi(n); the quotient expands the
divisors from it. All functions are pure and safe to call concurrently;
threads that build the same segment of the scan's table at once store
equal arrays.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import count
from math import gcd, isqrt, prod

import numpy as np


def _odd_primes_in(lo: int, hi: int, sieving: tuple[int, ...]) -> np.ndarray:
    """The odd primes of [lo, hi), 3 <= lo < hi, ascending, by a sieve of
    Eratosthenes on the odd numbers of that segment with sieving, the odd
    primes up to isqrt(hi - 1) or further."""
    first = lo | 1
    # sieve[i] stands for first + 2i
    sieve = np.ones((hi - first + 1) // 2, dtype=bool)
    for p in sieving:
        # the least odd multiple of p from max(p * p, first) up
        start = max(p * p, -(-first // p) * p)
        sieve[(start + p * (start % 2 == 0) - first) // 2 :: p] = False
    return first + 2 * np.flatnonzero(sieve)


# the gcd with the primorial covers the primes below this; a cofactor below
# its square with no prime factor below it is prime
SMALL_PRIME_LIMIT = 1000
# the 13 smallest primes; psi_13, the least composite that is a strong
# probable prime to all of them, bounds where the test is proven
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_LIMIT = 3317044064679887385961981
# the vectorized scan tries the primes from SMALL_PRIME_LIMIT to below
# this: a full scan takes about 0.1 ms, where rho takes 0.5 to 0.9 ms for a
# factor near it
SCAN_PRIME_LIMIT = 1 << 20
# the scan's table is built a segment of this many numbers at a time, as a
# scan first reaches it; smaller segments leave less of their sieve and
# temporaries resident, larger ones save a few microseconds per scan
SCAN_SEGMENT = 1 << 17
# the odd primes up to isqrt(SCAN_PRIME_LIMIT - 1) = 1023, sieved with those
# up to 31; they sieve every segment of the scan's table
_SIEVING_PRIMES = tuple(_odd_primes_in(3, 1024, (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)).tolist())
_SMALL_PRIMES = (2, *(p for p in _SIEVING_PRIMES if p < SMALL_PRIME_LIMIT))
_SMALL_PRIMORIAL = prod(_SMALL_PRIMES)
_INVERSES: list[np.ndarray | None] = [None] * (SCAN_PRIME_LIMIT // SCAN_SEGMENT)
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

    The primes below SMALL_PRIME_LIMIT that divide n's gcd with their
    product are divided out, then Miller-Rabin decides the cofactor left.
    A composite cofactor below 2**64 is scanned for its prime factors
    below SCAN_PRIME_LIMIT, and Pollard-Brent rho splits what the scan
    leaves composite. Raises ValueError for n < 2, and when that cofactor
    is at or above MILLER_RABIN_LIMIT, where its primality cannot be
    decided.
    """
    if n < 2:
        raise ValueError(f"factorize requires n >= 2, got {n}")
    factors: list[tuple[int, int]] = []
    rest = n
    # the small primes that divide n divide this gcd; the loop ends once it is used up
    small = gcd(n, _SMALL_PRIMORIAL)
    for p in _SMALL_PRIMES:
        if small == 1:
            break
        if small % p == 0:
            small //= p
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            factors.append((p, e))
    # rest has no prime factor below SMALL_PRIME_LIMIT, so below its square it is 1 or prime
    if rest >= SMALL_PRIME_LIMIT**2:
        factors.extend(sorted(Counter(_prime_factors(rest)).items()))
    elif rest > 1:
        factors.append((rest, 1))
    return Factorization(n, tuple(factors))


def is_prime(n: int) -> bool:
    """Primality from n's gcd with the product of the primes below
    SMALL_PRIME_LIMIT, as factorize reads it, then Miller-Rabin.

    n with a prime factor below SMALL_PRIME_LIMIT is prime only if it is
    that prime; n with none is prime below SMALL_PRIME_LIMIT**2, and above
    it as Miller-Rabin decides. Raises ValueError when n has no prime
    factor below SMALL_PRIME_LIMIT and is at or above MILLER_RABIN_LIMIT,
    where the test is not proven.
    """
    if n < 2:
        return False
    if gcd(n, _SMALL_PRIMORIAL) > 1:
        return n in _SMALL_PRIMES
    return n < SMALL_PRIME_LIMIT**2 or _miller_rabin(n)


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


def _prime_factors(m: int, scan: bool = True) -> list[int]:
    """Prime factors of m with multiplicity; m > 1 has none below SMALL_PRIME_LIMIT.

    A composite m below 2**64 is first scanned for its prime factors below
    SCAN_PRIME_LIMIT, and rho splits what is left. The parts that rho
    splits off are not scanned (scan is false): after a scan they have no
    prime factor below SCAN_PRIME_LIMIT, and the parts of an m at or
    above 2**64 are left to rho alone.
    """
    if _miller_rabin(m):
        return [m]
    found: list[int] = []
    if scan and m < 1 << 64:
        found, m = _scan(m)
        if m == 1:
            return found
    d = _pollard_brent(m)
    return found + _prime_factors(d, scan=False) + _prime_factors(m // d, scan=False)


def _scan(m: int) -> tuple[list[int], int]:
    """The prime factors of m below SCAN_PRIME_LIMIT, and what is left of m.

    m < 2**64 is composite and has no prime factor below SMALL_PRIME_LIMIT.
    If a prime d with inverse v mod 2**64 divides m, then m * v mod 2**64
    is m // d <= m // lo, lo the start of d's segment (Granlund & Montgomery
    1994, PLDI). So one wrapping product and one compare per segment of the
    table give every prime factor in it, among the few non-divisors that
    an exact m % d rejects. The least prime factor of m is at most its
    square root, so the scan starts at the segment that holds isqrt(m) and
    works down. It stops after a segment that divides out a factor and
    leaves 1 or a prime (below SMALL_PRIME_LIMIT**2, or by Miller-Rabin);
    a prime left joins the factors, and the rest returned is 1. As m has
    at most one prime factor above isqrt(m), a scan that reads down to the
    first segment without stopping leaves a composite with no prime factor
    below SCAN_PRIME_LIMIT, at least 2**40, and returns it as the rest.
    """
    found: list[int] = []
    for k in range(min(isqrt(m), SCAN_PRIME_LIMIT - 1) // SCAN_SEGMENT, -1, -1):
        inverses = _inverse_segment(k)
        start = m
        # the candidates for the m a segment starts with include those for
        # any m left after dividing out a factor
        bound = m // max(k * SCAN_SEGMENT, SMALL_PRIME_LIMIT)
        for i in (inverses * np.uint64(m) <= bound).nonzero()[0]:
            d = pow(int(inverses[i]), -1, 1 << 64)
            while m % d == 0:
                m //= d
                found.append(d)
        if m != start and (m < SMALL_PRIME_LIMIT**2 or _miller_rabin(m)):
            if m > 1:
                found.append(m)
            return found, 1
    return found, m


def _inverse_segment(k: int) -> np.ndarray:
    """Inverses mod 2**64 of the primes of segment k of the scan, ascending.

    Segment k holds the primes of [k, k + 1) * SCAN_SEGMENT from
    SMALL_PRIME_LIMIT up. It is sieved and inverted the first time a scan
    reaches it and kept in _INVERSES; threads that build it at once store
    equal arrays.
    """
    inverses = _INVERSES[k]
    if inverses is None:
        lo = max(k * SCAN_SEGMENT, SMALL_PRIME_LIMIT)
        primes = _odd_primes_in(lo, (k + 1) * SCAN_SEGMENT, _SIEVING_PRIMES).view(np.uint64)
        # Newton's step v -> v * (2 - p * v) doubles the number of correct
        # low bits of the inverse, and v = p is right in 3 bits for odd p,
        # so five steps in wrapping uint64 arithmetic reach all 64
        inverses = primes.copy()
        for _ in range(5):
            inverses *= 2 - primes * inverses
        _INVERSES[k] = inverses
    return inverses


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
