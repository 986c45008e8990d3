import random
import sys
import threading
from collections import Counter
from math import gcd, isqrt, prod

import numpy as np
import pytest

from cozero import (
    Factorization,
    build_quotient,
    divisor_exponents,
    factorize,
    is_prime,
    numbers,
)
from reference import gcd_class_count, trial_division


# the least composite that is a strong probable prime to every prime base 2..41
PSI_13 = 3317044064679887385961981
SIEVE_LIMIT = 10**5
# 2**63 // 1048573 rounded down to a prime, so 1048573 * NEAR_TOP < 2**63
NEAR_TOP = 8796118188103


def factorization(n):
    """factorize(n), and the empty product for n = 1."""
    return factorize(n) if n != 1 else Factorization(1, ())


def totient(n):
    return factorization(n).totient


def all_divisors(n):
    return [d for d, _ in divisor_exponents(factorization(n))]


def proper_divisors(n):
    return all_divisors(n)[1:-1]


def brute_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, n))


@pytest.fixture(scope="module")
def smallest_prime_factor():
    """spf[n] for every n below SIEVE_LIMIT, by the sieve of Eratosthenes."""
    spf = list(range(SIEVE_LIMIT))
    for p in range(2, isqrt(SIEVE_LIMIT - 1) + 1):
        if spf[p] == p:
            for m in range(p * p, SIEVE_LIMIT, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


def sieve_factors(spf, n):
    factors = Counter()
    while n > 1:
        factors[spf[n]] += 1
        n //= spf[n]
    return tuple(sorted(factors.items()))


def strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


class TestFactorize:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (2, ((2, 1),)),
            (30, ((2, 1), (3, 1), (5, 1))),
            (12, ((2, 2), (3, 1))),
            (7919, ((7919, 1),)),
            (1024, ((2, 10),)),
        ],
    )
    def test_examples(self, n, expected):
        assert factorize(n).factors == expected

    @pytest.mark.parametrize("n", [1, 0, -5])
    def test_rejects_below_two(self, n):
        with pytest.raises(ValueError):
            factorize(n)

    def test_reconstructs_input(self):
        for n in range(2, 2001):
            f = factorize(n)
            product = 1
            previous = 0
            for p, e in f.factors:
                assert p > previous, "primes must be strictly increasing"
                assert e >= 1
                assert brute_is_prime(p)
                product *= p**e
                previous = p
            assert product == n

    def test_matches_sieve(self, smallest_prime_factor):
        for n in range(2, SIEVE_LIMIT):
            assert factorize(n).factors == sieve_factors(smallest_prime_factor, n), n

    @pytest.mark.parametrize(
        "factors",
        [
            # two primes just below sqrt(2**63), where rho is slowest below 2**63
            ((3037000453, 1), (3037000493, 1)),
            ((2147483647, 1), (4294967291, 1)),
            ((3, 1), (2**53 + 5, 1)),
            ((3, 1), (100003, 2)),
            ((999983, 2), (1000003, 1)),
            ((1000003, 3),),
            # just above trial division, in the scan's first segment
            ((1009, 1), (1013, 1)),
            ((1009, 2),),
            # 897612484786617600, the n below 2**63 with the most divisors
            ((2, 8), (3, 4), (5, 2), (7, 2), (11, 1), (13, 1), (17, 1), (19, 1),
             (23, 1), (29, 1), (31, 1), (37, 1)),
            # above the Miller-Rabin bound: smooth, or with a prime cofactor below it
            ((2, 200), (3, 100), (997, 20)),
            ((2, 70), (1000000000000000003, 1)),
            # the largest prime the scan tries, times the least above it
            ((1048573, 1), (1048583, 1)),
            # both primes above the scan, so rho splits them
            ((1048583, 1), (1048589, 1)),
            ((1048573, 3),),
            # near 2**63 the filter passes non-divisors too, which the exact
            # check rejects; Miller-Rabin settles the prime left over
            ((1048573, 1), (NEAR_TOP, 1)),
        ],
    )
    def test_constructed(self, factors):
        n = prod(p**e for p, e in factors)
        assert factorize(n) == Factorization(n, factors)

    @pytest.mark.parametrize(
        "n",
        [
            # repeated small factors: the gcd names the prime once
            2**62, 3**39, 2**40 * 3**20, 997**6,
            # the largest small primes, alone and with a prime above them
            997, 991 * 997, 991 * 997**2, 991 * 997 * 1009, 991 * 997 * 999983,
            2 * 997 * (10**9 + 7),
            # smooth n
            720720, 897612484786617600, 2**8 * 3**4 * 5**2 * 7**2 * 11 * 997,
            # prime n, small and large
            2, 3, 1009, 999983, 1000003, 2**31 - 1, 10**9 + 7, 999999999989,
            # squares of primes on either side of SMALL_PRIME_LIMIT
            997**2, 1009**2, 997 * 1009,
        ],
    )
    def test_matches_trial_division_reference(self, n):
        assert factorize(n).factors == trial_division(n)

    def test_matches_trial_division_reference_below_a_million(self):
        rng = random.Random(32)
        for n in [*range(999_000, 1_000_000), *rng.sample(range(2, 1_000_000), 2000)]:
            assert factorize(n).factors == trial_division(n), n

    @pytest.mark.parametrize("n", [PSI_13, 2 * PSI_13, PSI_13 * 1000003])
    def test_refuses_undecidable_cofactor(self, n):
        with pytest.raises(ValueError, match=f"proven only below {PSI_13}"):
            factorize(n)

    def test_prime_flags(self):
        assert factorize(13).is_prime
        assert factorize(13).is_prime_power
        assert factorize(8).is_prime_power
        assert not factorize(8).is_prime
        assert not factorize(12).is_prime_power


@pytest.fixture(scope="module")
def scan_primes():
    """The primes from SMALL_PRIME_LIMIT to below SCAN_PRIME_LIMIT."""
    sieve = bytearray([1]) * numbers.SCAN_PRIME_LIMIT
    for p in range(2, isqrt(numbers.SCAN_PRIME_LIMIT - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, numbers.SCAN_PRIME_LIMIT, p)))
    return [p for p in range(numbers.SMALL_PRIME_LIMIT, numbers.SCAN_PRIME_LIMIT) if sieve[p]]


class TestScan:
    """The vectorized divisibility scan against exact trial division."""

    def test_table_holds_the_inverse_of_every_prime(self, scan_primes):
        table = np.concatenate(
            [numbers._inverse_segment(k) for k in range(len(numbers._INVERSES))]
        )
        assert len(table) == len(scan_primes) == 81857
        assert np.all(table * np.array(scan_primes, dtype=np.uint64) == 1)

    def test_matches_trial_division(self, scan_primes):
        rng = random.Random(31)
        primorial = prod(p for p in range(2, numbers.SMALL_PRIME_LIMIT) if is_prime(p))
        for _ in range(40):
            m = 2**63
            while m >= 2**62:
                m = prod(rng.choice(scan_primes) ** rng.randrange(1, 3)
                         for _ in range(rng.randrange(4)))
            while True:
                # a cofactor with no prime factor below SMALL_PRIME_LIMIT
                # that leaves m composite, as the scan requires
                r = rng.randrange(1, 2**63 // m)
                if gcd(r, primorial) == 1 and m * r > 1 and not is_prime(m * r):
                    break
            m *= r
            small, rest = [], m
            for d in scan_primes:
                while rest % d == 0:
                    small.append(d)
                    rest //= d
            found, left = numbers._scan(m)
            if left == 1:
                # what the scan stopped on is 1 or a prime it joined
                assert sorted(found) == sorted(small + ([rest] if rest > 1 else [])), m
                assert rest == 1 or is_prime(rest)
            else:
                assert (sorted(found), left) == (small, rest), m
                assert not is_prime(left)

    def test_exact_check_rejects_what_the_filter_passes(self):
        m = 1048573 * NEAR_TOP
        # isqrt(m) is above 2**20, so the scan starts at the last segment
        k = len(numbers._INVERSES) - 1
        last = numbers._inverse_segment(k)
        products = last * np.uint64(m)
        # a bound of m // SMALL_PRIME_LIMIT passes non-divisors too, which
        # only the exact m % d would reject; the segment's own bound
        # m // (k * SCAN_SEGMENT) passes the divisor alone here
        assert np.count_nonzero(products <= m // numbers.SMALL_PRIME_LIMIT) > 1
        passed = np.flatnonzero(products <= m // (k * numbers.SCAN_SEGMENT))
        assert [pow(int(last[i]), -1, 2**64) for i in passed] == [1048573]
        assert numbers._scan(m) == ([1048573, NEAR_TOP], 1)

    def test_segment_bound_passes_the_least_prime_of_each_segment(self, scan_primes):
        # m = d * q with d the least prime of segment k and q the largest
        # prime that keeps m below 2**64, so m // d is as close to the
        # segment's bound as it gets
        for k in range(len(numbers._INVERSES)):
            lo = max(k * numbers.SCAN_SEGMENT, numbers.SMALL_PRIME_LIMIT)
            d = next(p for p in scan_primes if p >= lo)
            q = (2**64 - 1) // d
            while not is_prime(q):
                q -= 1
            assert numbers._scan(d * q) == ([d, q], 1), k

    def test_threads_that_build_the_table_at_once_agree(self, monkeypatch, scan_primes):
        table = [None] * len(numbers._INVERSES)
        monkeypatch.setattr(numbers, "_INVERSES", table)
        # scans that start in different segments; the last reads them all
        cases = {99960340573: ((100291, 1), (996703, 1)),
                 598992816949: ((599003, 1), (999983, 1)),
                 1099515822059: ((1048573, 1), (1048583, 1)),
                 1099532599387: ((1048583, 1), (1048589, 1))}
        results = []

        def work(n):
            results.append((n, factorize(n).factors))

        threads = [threading.Thread(target=work, args=(n,)) for n in list(cases) * 2]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(results) == sorted(list(cases.items()) * 2)
        assert np.all(np.concatenate(table) * np.array(scan_primes, dtype=np.uint64) == 1)


class TestIsPrime:
    def test_matches_brute_force(self, smallest_prime_factor):
        # the sieve is the brute-force reference here
        assert not is_prime(0) and not is_prime(1)
        for n in range(2, SIEVE_LIMIT):
            assert is_prime(n) == (smallest_prime_factor[n] == n), n

    @pytest.mark.parametrize(
        "n,bases",
        [
            # psi_k, the least strong pseudoprime to the first k prime bases
            (2047, 1),
            (1373653, 2),
            (25326001, 3),
            (3215031751, 4),
            (2152302898747, 5),
            (3474749660383, 6),
            (341550071728321, 8),
            (3825123056546413051, 11),
            (318665857834031151167461, 12),
        ],
    )
    def test_strong_pseudoprimes_are_composite(self, n, bases):
        fooled = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)[:bases]
        assert all(strong_probable_prime(n, a) for a in fooled)
        assert not is_prime(n)

    @pytest.mark.parametrize("n", [561, 41041, 825265])
    def test_carmichael_numbers_are_composite(self, n):
        assert all(pow(a, n - 1, n) == 1 for a in range(2, 100) if gcd(a, n) == 1)
        assert not is_prime(n)

    @pytest.mark.parametrize(
        "n", [2**31 - 1, 2**61 - 1, 10**9 + 7, 999999999989, 2**53 + 5]
    )
    def test_large_primes(self, n):
        assert is_prime(n)

    def test_refuses_at_the_bound(self):
        bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
        assert all(strong_probable_prime(PSI_13, a) for a in bases)
        with pytest.raises(ValueError, match=f"proven only below {PSI_13}"):
            is_prime(PSI_13)
        # an even n above the bound is decided by trial division
        assert not is_prime(PSI_13 + 1)


class TestTotient:
    @pytest.mark.parametrize("n,expected", [(1, 1), (15, 8), (12, 4), (2, 1)])
    def test_examples(self, n, expected):
        assert totient(n) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            totient(0)

    def test_matches_brute_count(self):
        for n in range(1, 301):
            brute = sum(1 for x in range(1, n + 1) if gcd(x, n) == 1)
            assert totient(n) == brute

    def test_multiplicative_on_coprime_pairs(self):
        for a in range(1, 101):
            for b in range(1, 101):
                if gcd(a, b) == 1:
                    assert totient(a * b) == totient(a) * totient(b)


class TestDivisors:
    @pytest.mark.parametrize(
        "n,expected",
        [(7, []), (30, [2, 3, 5, 6, 10, 15]), (12, [2, 3, 4, 6]), (4, [2])],
    )
    def test_proper_divisor_examples(self, n, expected):
        assert proper_divisors(n) == expected

    def test_complete_and_ascending(self):
        for n in range(2, 501):
            scan = [d for d in range(2, n) if n % d == 0]
            assert proper_divisors(n) == scan

    def test_all_divisors(self):
        assert all_divisors(1) == [1]
        assert all_divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]

    def test_exponent_vectors_rebuild_each_divisor(self):
        for n in range(2, 501):
            f = factorize(n)
            pairs = divisor_exponents(f)
            assert [d for d, _ in pairs] == all_divisors(n)
            for d, vec in pairs:
                assert d == prod(p**a for p, a in zip(f.primes, vec))


class TestDivisorClassPartition:
    """The divisor classes are the quotient's vertices: the class of d
    holds the phi(n/d) residues x with gcd(x, n) == d, its weight."""

    def test_worked_example(self):
        q = build_quotient(30)
        assert q.divisors == (2, 3, 5, 6, 10, 15)
        assert q.weights == (8, 4, 2, 4, 2, 1)

    def test_smallest_composite(self):
        q = build_quotient(4)
        assert q.divisors == (2,)
        assert q.weights == (1,)

    def test_prime_power_sizes(self):
        assert build_quotient(12).weights == (2, 2, 2, 1)

    def test_prime_gives_empty_marker(self):
        q = build_quotient(13)
        assert q.is_empty
        assert q.divisors == q.weights == ()

    def test_total_size_identity(self):
        # sum of phi(n/d) over proper divisors is n - phi(n) - 1
        for n in range(2, 1001):
            assert sum(build_quotient(n).weights) == n - totient(n) - 1

    def test_sizes_match_direct_gcd_counts(self):
        for n in range(2, 501):
            counts = Counter(gcd(x, n) for x in range(1, n))
            del counts[1]
            q = build_quotient(n)
            assert dict(zip(q.divisors, q.weights)) == dict(counts)

    def test_gcd_class_count_helper(self):
        assert gcd_class_count(30, 2) == 8
        assert gcd_class_count(30, 15) == 1

    def test_verify_mode(self):
        for n in (12, 30, 97, 210):
            q = build_quotient(n)
            for d, w in zip(q.divisors, q.weights):
                assert gcd_class_count(n, d) == w, f"class {d} of n={n}"
            assert sum(q.weights) == n - totient(n) - 1
