"""Seeded input lists for the three benchmark workloads.

Every list is a fixed sequence of slots. A slot names an input family
whose members share a divisor lattice (and so a cost), and the seed picks
the member. A slot whose members still differ in cost enough to move the
median operation or the largest time stays at one member, so those stay
the same from seed to seed. Each input carries its factorization, so the
reference side rebuilds the divisor lattice without factoring anything.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from itertools import combinations

WORKLOADS = ("quotient-ladder", "large-prime", "oracle-ladder")
# the host-speed kernel that slows the way each workload's operations do
# (calibrate.py): trial division alone for large-prime; trial division
# plus numpy row rotations for the Jacobi-bound ladders
KERNEL = {"quotient-ladder": "mix", "large-prime": "int", "oracle-ladder": "mix"}


@dataclass(frozen=True)
class Input:
    n: int
    factors: tuple[tuple[int, int], ...]
    argv: tuple[str, ...]
    slot: str
    largest: bool = False
    # a fault of the program that this input shows on every run; the
    # operation is counted as failed and does not make the run incorrect
    known_fault: str | None = None
    # only oracle inputs need the explicit vertex-level Laplacian
    oracle: bool = False

    def to_json(self) -> dict:
        return asdict(self)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _factor_small(n: int) -> tuple[tuple[int, int], ...]:
    out = []
    f = 2
    while f * f <= n:
        e = 0
        while n % f == 0:
            n //= f
            e += 1
        if e:
            out.append((f, e))
        f += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def _value(factors) -> int:
    n = 1
    for p, e in factors:
        n *= p ** e
    return n


def _vertex_count(factors) -> int:
    n = _value(factors)
    phi = n
    for p, _ in factors:
        phi = phi // p * (p - 1)
    return n - phi - 1


# ---------------------------------------------------------------------------
# quotient-ladder: highly composite n, spectrum --format json

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)
QUOTIENT_LARGEST = 720720  # 2^4 3^2 5 7 11 13: 238 proper divisors
# (exponent signature, seeded) in ascending quotient dimension
# (prod(e+1) - 2): 30, 34, 58, 94, 118 and 178; the largest input adds 238.
# Rungs below 30 divisors take a few ms, and on a shared host such short
# operations run at one of two speeds, so a median over them flips between
# the two. The 94-divisor rung holds the median operation and the two
# above it most of the time of a round; they stay at the smallest primes
# (highly composite n) so that the draw does not move either.
QUOTIENT_RUNGS = (
    ((3, 1, 1, 1), True), ((2, 2, 1, 1), True), ((4, 2, 1, 1), True),
    ((3, 2, 1, 1, 1), False), ((4, 2, 1, 1, 1), False), ((4, 2, 2, 1, 1), False),
)


def _signature_pool(signature: tuple[int, ...]) -> list[tuple[tuple[int, int], ...]]:
    """Smooth n of one signature, larger exponents on smaller primes, n < 720720.

    The first member uses the smallest primes."""
    pool = []
    for primes in combinations(SMALL_PRIMES, len(signature)):
        factors = tuple(zip(primes, signature))
        if _value(factors) < QUOTIENT_LARGEST:
            pool.append(factors)
    return pool


def quotient_ladder(seed: int) -> list[Input]:
    rng = random.Random(f"quotient-ladder/{seed}")
    inputs = []
    for signature, seeded in QUOTIENT_RUNGS:
        pool = _signature_pool(signature)
        factors = rng.choice(pool) if seeded else pool[0]
        inputs.append(_spectrum_input(factors, "json", f"d{_dimension(signature)}"))
    inputs.append(_spectrum_input(_factor_small(QUOTIENT_LARGEST), "json", "largest", largest=True))
    return inputs


def _dimension(signature: tuple[int, ...]) -> int:
    count = 1
    for e in signature:
        count *= e + 1
    return count - 2


def _spectrum_input(factors, fmt: str, slot: str, **extra) -> Input:
    n = _value(factors)
    return Input(n, tuple(factors), ("spectrum", str(n), "--format", fmt), slot, **extra)


# ---------------------------------------------------------------------------
# large-prime: n = p^a q^b with large primes, spectrum --format csv

# lower edges of the bands the smaller prime of p*q is drawn from; trial
# division runs up to that prime, so it sets the cost of the input
PQ_BANDS = (100_000, 129_000, 167_000, 215_000, 278_000, 359_000, 464_000, 599_000, 774_000)
BAND_WIDTH = 1.01
LARGE_HI = 1_000_000
# small prime powers times one large prime: shapes of the family that the
# program gets right for every draw (a squared large prime loses the zero
# eigenvalue, and 2^2 * q flags a false exact eigenvalue; see FOUND in
# CHANGES.md)
SMALL_COFACTORS = ((2, 3), (3, 2), (5, 1))
KNOWN_FAULTS = (
    # 3 * 100003^2: connected, yet no zero eigenvalue is reported
    (((3, 1), (100003, 2)), "lost-zero"),
    # 2^2 * 1000000007: eigenvalue 2 is flagged exact but is no eigenvalue of the quotient
    (((2, 2), (1000000007, 1)), "false-exact"),
)


def _prime_in(rng: random.Random, lo: int, hi: int, exclude=()) -> int:
    while True:
        p = rng.randrange(lo, hi)
        while not _is_prime(p):
            p += 1
        if p < hi and p not in exclude:
            return p


def large_prime(seed: int) -> list[Input]:
    rng = random.Random(f"large-prime/{seed}")
    inputs = []
    for lo in PQ_BANDS:
        p = _prime_in(rng, lo, int(lo * BAND_WIDTH))
        q = _prime_in(rng, p + 1, LARGE_HI)
        inputs.append(_spectrum_input(((p, 1), (q, 1)), "csv", f"pq{lo // 1000}k"))
    for small, e in SMALL_COFACTORS:
        q = _prime_in(rng, 100_000, LARGE_HI)
        inputs.append(_spectrum_input(((small, e), (q, 1)), "csv", f"{small}^{e}q"))
    for factors, fault in KNOWN_FAULTS:
        inputs.append(_spectrum_input(factors, "csv", fault, known_fault=fault))
    p = _prime_in(rng, 999_000, LARGE_HI)
    q = _prime_in(rng, 999_000, LARGE_HI, exclude=(p,))
    inputs.append(_spectrum_input(tuple(sorted(((p, 1), (q, 1)))), "csv", "largest", largest=True))
    return inputs


# ---------------------------------------------------------------------------
# oracle-ladder: verify --format json on composite n of 45 to 209 vertices,
# plus one input just above the 2000-vertex solver switch

ORACLE_LARGEST = 3010  # 2 * 5 * 7 * 43: 2001 vertices
# (signature, vertex count, seeded): every member of a slot has exactly
# that many vertices and an isomorphic divisor lattice. Slots below 45
# vertices take a few ms and run at one of two host speeds (see
# QUOTIENT_RUNGS). Of the 13 operations of a round, the median one is a
# sample of the 139-vertex slot, which stays at n = 204 because its two
# members differ in cost by up to 15 %.
ORACLE_SLOTS = (
    ((1, 1, 1), 45, True), ((1, 1, 1), 69, True), ((1, 1, 1), 93, True),
    ((2, 1, 1), 139, False), ((1, 1, 1), 189, True), ((2, 1, 1), 209, True),
)
ORACLE_SEARCH_LIMIT = 1000


def _oracle_pool(signature, vertices: int) -> list[tuple[tuple[int, int], ...]]:
    pool = []
    for n in range(6, ORACLE_SEARCH_LIMIT):
        factors = _factor_small(n)
        if (tuple(sorted((e for _, e in factors), reverse=True)) == signature
                and _vertex_count(factors) == vertices):
            pool.append(factors)
    return pool


def oracle_ladder(seed: int) -> list[Input]:
    rng = random.Random(f"oracle-ladder/{seed}")
    inputs = []
    for signature, vertices, seeded in ORACLE_SLOTS:
        pool = _oracle_pool(signature, vertices)
        factors = rng.choice(pool) if seeded else pool[0]
        n = _value(factors)
        inputs.append(Input(n, factors, ("verify", str(n), "--format", "json"), f"m{vertices}",
                            oracle=True))
    inputs.append(Input(ORACLE_LARGEST, _factor_small(ORACLE_LARGEST),
                        ("verify", str(ORACLE_LARGEST), "--format", "json"),
                        "largest", largest=True, oracle=True))
    return inputs


def round_schedule(inputs: list[Input]) -> list[int]:
    """Input indices of one timed round: the others, the largest, the others.

    Every input but the largest is timed on both sides of the largest,
    some seconds apart, so a short burst of host load moves its median less.
    """
    rest = [k for k, item in enumerate(inputs) if not item.largest]
    return rest + [k for k, item in enumerate(inputs) if item.largest] + rest


def warmup_schedule(inputs: list[Input]) -> list[int]:
    """The untimed warm-up pass: the first half of the list, its cheaper inputs,
    which take the same code paths as the rest up to the largest."""
    return list(range(len(inputs) // 2))


def make_inputs(workload: str, seed: int) -> list[Input]:
    builders = {
        "quotient-ladder": quotient_ladder,
        "large-prime": large_prime,
        "oracle-ladder": oracle_ladder,
    }
    return builders[workload](seed)
