from collections import Counter
from math import gcd, prod

import pytest

from cozero import (
    all_divisors,
    build_quotient,
    divisor_exponents,
    factorize,
    gcd_class_count,
    is_prime,
    proper_divisors,
    totient,
)


def brute_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, n))


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

    def test_prime_flags(self):
        assert factorize(13).is_prime
        assert factorize(13).is_prime_power
        assert factorize(8).is_prime_power
        assert not factorize(8).is_prime
        assert not factorize(12).is_prime_power


class TestIsPrime:
    def test_matches_brute_force(self):
        for n in range(0, 500):
            assert is_prime(n) == brute_is_prime(n)


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
