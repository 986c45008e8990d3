"""Peak memory of the oracle and the quotient, traced with tracemalloc
(numpy reports to it).

Oracle peaks are in units of one m x m float64 array, 8 m**2 bytes, at
n = 720 (527 vertices). The full graph holds no m x m array: one row of
m booleans per distinct gcd class (28 rows at 720, under a hundredth of a
unit) from which it gathers adjacency rows a strip at a time. Split by
the negation x -> n - x, the oracle builds one float64 block of about
m / 2 (a quarter unit) from those strips and solves it in place; the
other half of the spectrum is the degree list. So the oracle's bound
leaves room for that block and strips of STRIP_HEIGHT rows, but not for a
second block or an m x m int16 Laplacian (a quarter unit each), nor for
a stored m x m boolean adjacency (an eighth). The tests'
eigenvalue_multiset on the whole Laplacian forms one full working copy.

Quotient peaks are in units of one d x d float64 array, 8 d**2 bytes, at
n = 720720 (d = 238) or 735134400 (d = 1342). build_quotient forms no
d x d array: the weights and weighted degrees are counts read off the
factorization, one divisor at a time. It peaks at 0.02 units at
d = 1342, where a d x d boolean array would be an eighth of a unit, and
summing the degrees over one, a strip of rows at a time, peaked at 0.31.
symmetric_laplacian builds the boolean adjacency from the exponent
vectors first, writes the outer product of the square-root weights into
the one array it returns, then zeroes the non-edges and sets the
diagonal in place; it peaks at 1.42 units, the rest being the adjacency
(an eighth) and numpy's fixed-size buffers (1.14 units at d = 1342).
Masking a separate outer product, as np.where does, peaked at 2.01.
eigenvalues_in_place then solves that array in place, so it is the
solve's only d x d float array. A retained int64 Laplacian or a copy
before the solve costs a unit more.

The vectorized scan's table holds the inverse mod 2**64 of each of the
81,857 primes in [1000, 2**20), 8 bytes each (655 KB), and nothing else
that lasts. It is built a segment of 2**17 numbers at a time, so only one
segment's sieve, primes and Newton temporaries live beside it: a full
build peaks at about 1.45 tables. Four segments that double in size,
the last holding half the primes, peaked at 3.2, and a sieve of all of
[0, 2**20) is 1.6 tables by itself.

Implicit QL works on two lists of Python floats, after the Householder
reduction has released its panels. tracemalloc hooks every float it
creates, which makes QL some sixty times slower, so here it passes the
diagonal through: the values are wrong, the arrays are the real ones.
"""

import tracemalloc

import pytest

from cozero import (
    assemble_spectrum,
    build_full_graph,
    build_quotient,
    eigen,
    factorize,
    numbers,
)
from cozero.quotient import symmetric_laplacian
from cozero.spectrum import verify_against_oracle
from reference import eigenvalue_multiset, laplacian

N = 720
QUOTIENT_N = 720720
LARGE_QUOTIENT_N = 735134400
# the primes in [SMALL_PRIME_LIMIT, SCAN_PRIME_LIMIT): pi(2**20) - pi(1000)
SCAN_PRIMES = 82025 - 168


def traced_peak(fn, *args):
    """Peak bytes traced during fn(*args), beyond what was live before it."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(autouse=True)
def untraced_ql(monkeypatch):
    monkeypatch.setattr(eigen, "_tridiagonal_eigenvalues", lambda diag, sub: diag)


@pytest.fixture(scope="module")
def graph():
    return build_full_graph(N)


@pytest.fixture(scope="module")
def unit(graph):
    return 8 * graph.vertex_count**2


def test_eigensolve_forms_one_working_copy(graph, unit):
    lap = laplacian(graph)
    assert traced_peak(eigenvalue_multiset, lap) <= 1.4 * unit


def test_oracle_holds_one_working_copy(unit):
    assert traced_peak(verify_against_oracle, N) <= 0.55 * unit


def test_full_graph_build_forms_no_full_size_temporary(unit):
    # an m x m boolean matrix would be an eighth of a unit
    assert traced_peak(build_full_graph, N) <= 0.05 * unit


def test_quotient_solve_holds_one_matrix():
    d = build_quotient(QUOTIENT_N).size
    assert d == 238
    assert traced_peak(assemble_spectrum, QUOTIENT_N) <= 3.0 * 8 * d**2


def test_build_quotient_forms_no_square_array():
    # a d x d boolean array alone is an eighth of a unit
    d = build_quotient(LARGE_QUOTIENT_N).size
    assert d == 1342
    assert traced_peak(build_quotient, LARGE_QUOTIENT_N) <= 0.05 * 8 * d**2


def test_symmetric_laplacian_forms_no_second_matrix():
    q = build_quotient(QUOTIENT_N)
    assert traced_peak(symmetric_laplacian, q) <= 1.5 * 8 * q.size**2


def test_scan_table_holds_eight_bytes_per_prime(monkeypatch):
    table = [None] * len(numbers._INVERSES)
    monkeypatch.setattr(numbers, "_INVERSES", table)
    tracemalloc.start()
    try:
        # no prime factor below 2**20: the scan builds every segment
        factorize(1048583 * 1048589)
        resident, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = 8 * SCAN_PRIMES
    assert sum(segment.nbytes for segment in table) == size
    # beside the arrays' data: their headers and numpy's first-use caches
    assert resident <= size + 2**14
    assert peak <= 2 * size
