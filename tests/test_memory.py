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

The full graph's DOT is rendered one adjacency row at a time: structure
720 --format dot --full (527 vertices, 70,120 edges, about 1.1 MB of
text) holds the class rows and one row's edges and text, never a strip's
or the whole text, so its peak is counted in the same units.

Quotient peaks are in units of one d x d float64 array, 8 d**2 bytes, at
n = 720720 (d = 238). build_quotient forms the int64 adjacency product
for the weighted degrees (one unit) and frees it; assemble_spectrum then
builds the symmetric Laplacian from the outer product of the square-root
weights, and eigenvalues_in_place solves that one array in place. A
retained int64 Laplacian or a copy before the solve costs a unit more.

Implicit QL works on two lists of Python floats, after the Householder
reduction has released its panels. tracemalloc hooks every float it
creates, which makes QL some sixty times slower, so here it passes the
diagonal through: the values are wrong, the arrays are the real ones.
"""

import os
import tracemalloc

import pytest

from cozero import assemble_spectrum, build_full_graph, build_quotient, cli, eigen
from cozero.spectrum import verify_against_oracle
from reference import eigenvalue_multiset, laplacian

N = 720
QUOTIENT_N = 720720


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


def test_full_graph_dot_holds_the_class_rows_and_one_row(unit):
    argv = ["structure", str(N), "--format", "dot", "--full", "--out", os.devnull]
    # the first call also builds the CLI's parser
    assert cli.main(argv) == 0
    codes = []
    peak = traced_peak(lambda: codes.append(cli.main(argv)))
    assert codes == [0]
    # one row's edges and text measure about 0.045 units; one strip of 64
    # rows, about 1.03, and the whole text as lines over four
    assert peak <= 0.1 * unit


def test_quotient_solve_holds_one_matrix():
    d = build_quotient(QUOTIENT_N).size
    assert d == 238
    assert traced_peak(assemble_spectrum, QUOTIENT_N) <= 3.0 * 8 * d**2
