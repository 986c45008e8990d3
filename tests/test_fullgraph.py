import json
from itertools import combinations
from math import gcd, isqrt

import numpy as np
import pytest

from cozero import (
    EmptyGraphError,
    VertexCapError,
    build_full_graph,
    build_quotient,
    full_graph_component_count,
    is_prime,
    merge_spectrum,
    verify_against_oracle,
)
from cozero import fullgraph
from cozero.eigen import MATCH_TOL, eigenvalues_in_place
from cozero.errors import VertexBoundError
from cozero.fullgraph import negation_split
from reference import (
    adjacency,
    component_count,
    eigenvalue_multiset,
    is_adjacent_by_definition,
    is_adjacent_exhaustive,
    laplacian,
    with_flipped_pairs,
)


def composite_range(hi):
    return [n for n in range(4, hi + 1) if not is_prime(n)]


def adjacent_in_graph(x, y, n):
    graph = build_full_graph(n)
    (row,) = graph.adjacency_rows([graph.vertices.index(x)])
    return bool(row[graph.vertices.index(y)])


def is_connected(graph):
    return component_count(adjacency(graph)) == 1


# every composite n in [4, 400], then even and odd vertex counts beyond
SEARCHED = composite_range(400) + [720, 1155, 3010]


class TestAdjacency:
    def test_examples_mod_30(self):
        assert is_adjacent_by_definition(2, 3, 30)
        assert not is_adjacent_by_definition(2, 6, 30)
        assert adjacent_in_graph(3, 10, 30)
        assert not adjacent_in_graph(5, 10, 30)
        assert adjacent_in_graph(9, 10, 30)

    def test_same_class_never_adjacent(self):
        # 3 and 9 share gcd class 3 in Z_30
        assert not is_adjacent_by_definition(3, 9, 30)
        assert not adjacent_in_graph(3, 9, 30)

    @pytest.mark.parametrize("x", [0, 1, 7, 30, 31])
    def test_rejects_zero_units_and_out_of_range(self, x):
        with pytest.raises(ValueError):
            is_adjacent_by_definition(x, 6, 30)
        with pytest.raises(ValueError):
            is_adjacent_exhaustive(6, x, 30)

    def test_definition_matches_exhaustive_ideals(self):
        # small moduli: compare against literally enumerated ideals
        for n in composite_range(48):
            vertices = [x for x in range(1, n) if gcd(x, n) > 1]
            for x, y in combinations(vertices, 2):
                assert is_adjacent_by_definition(x, y, n) == is_adjacent_exhaustive(
                    x, y, n
                )

    def test_definition_matches_divisor_criterion_everywhere(self):
        # vectorized form of the definition, independent of the builder,
        # against the whole adjacency and against rows read by index
        for n in composite_range(400):
            graph = build_full_graph(n)
            v = np.array(graph.vertices)
            g = np.gcd(v, n)
            by_definition = (v[:, None] % g[None, :] != 0) & (
                v[None, :] % g[:, None] != 0
            )
            assert np.array_equal(adjacency(graph), by_definition)
            rows = np.arange(len(v) - 1, -1, -3)
            assert np.array_equal(graph.adjacency_rows(rows), by_definition[rows])


class TestBuildFullGraph:
    def test_vertex_count_30(self):
        graph = build_full_graph(30)
        assert graph.vertex_count == 21

    def test_single_vertex_graph(self):
        graph = build_full_graph(4)
        assert graph.vertex_count == 1
        assert not adjacency(graph).any()

    def test_edge_count_15_by_brute_recount(self):
        graph = build_full_graph(15)
        assert graph.vertex_count == 6
        vertices = [x for x in range(1, 15) if gcd(x, 15) > 1]
        brute = sum(
            1 for x, y in combinations(vertices, 2) if is_adjacent_by_definition(x, y, 15)
        )
        assert brute == 8
        assert int(adjacency(graph).sum()) // 2 == brute

    def test_prime_raises_empty_graph(self):
        with pytest.raises(EmptyGraphError):
            build_full_graph(13)

    def test_vertex_cap(self, monkeypatch):
        # the cap is read when build_full_graph is called
        monkeypatch.setattr(fullgraph, "VERTEX_CAP", 10)
        with pytest.raises(VertexCapError) as err:
            build_full_graph(30)
        assert err.value.vertex_count == 21
        assert err.value.cap == 10

    def test_refuses_by_the_vertex_bound_before_factoring(self, monkeypatch):
        # two primes near 2**40, which rho takes a sizeable fraction of a
        # second to split; the least one alone bounds the vertex count
        def refuse(n):
            raise AssertionError(f"factorize({n}) called")

        monkeypatch.setattr(fullgraph, "factorize", refuse)
        n = 1099511627791 * 1099511627803
        with pytest.raises(VertexBoundError) as err:
            build_full_graph(n)
        assert err.value.vertex_count == isqrt(n) - 1
        assert err.value.cap == fullgraph.VERTEX_CAP

    def test_verify_mode(self):
        # every pair re-checked against the ring definition
        for n in (12, 30, 60):
            graph = build_full_graph(n)
            a = adjacency(graph)
            for i, j in combinations(range(graph.vertex_count), 2):
                x, y = graph.vertices[i], graph.vertices[j]
                assert bool(a[i, j]) == is_adjacent_by_definition(x, y, n)

    def test_vertices_are_exactly_non_units(self):
        for n in (12, 30, 49):
            graph = build_full_graph(n)
            assert graph.vertices == tuple(
                x for x in range(1, n) if gcd(x, n) > 1
            )

    def test_lists_non_units_from_the_primes(self, monkeypatch):
        # a gcd per residue would take n = 1009**2 calls for 1008 vertices
        calls = []

        def counted(a, b):
            calls.append(a)
            return gcd(a, b)

        # the module imports no gcd; one that did would be counted here
        monkeypatch.setattr(fullgraph, "gcd", counted, raising=False)
        graph = build_full_graph(1009**2)
        assert graph.vertices == tuple(range(1009, 1009**2, 1009))
        assert len(calls) <= graph.vertex_count

    @pytest.mark.parametrize("n", [720, 1155])
    def test_holds_no_vertex_by_vertex_array(self, n):
        # a class row per distinct gcd, never an m x m matrix
        graph = build_full_graph(n)
        m = graph.vertex_count
        classes = len(set(graph.classes))
        arrays = [v for v in vars(graph).values() if isinstance(v, np.ndarray)]
        assert arrays and max(a.size for a in arrays) == classes * m < m * m // 16


class TestEquitableStructure:
    def test_within_class_edgeless_between_class_all_or_none(self):
        for n in composite_range(300):
            graph = build_full_graph(n)
            a = adjacency(graph)
            divisors = build_quotient(n).divisors
            classes = np.array(graph.classes)
            for i, di in enumerate(divisors):
                idx_i = np.nonzero(classes == di)[0]
                block = a[np.ix_(idx_i, idx_i)]
                assert not block.any(), f"edges inside class {di} of n={n}"
                for dj in divisors[i + 1:]:
                    idx_j = np.nonzero(classes == dj)[0]
                    count = int(a[np.ix_(idx_i, idx_j)].sum())
                    assert count in (0, len(idx_i) * len(idx_j)), (
                        f"partial join between classes {di}, {dj} of n={n}"
                    )


class TestConnectivity:
    def test_examples(self):
        assert is_connected(build_full_graph(30))
        assert not is_connected(build_full_graph(9))
        assert is_connected(build_full_graph(4))  # single vertex

    def test_component_counts(self):
        for n, components in ((8, 3), (9, 2), (30, 1), (4, 1), (27, 8)):
            assert component_count(adjacency(build_full_graph(n))) == components, n
            assert full_graph_component_count(build_quotient(n)) == components, n
        assert full_graph_component_count(build_quotient(7)) == 0

    def test_verify_counts_match_a_vertex_search(self):
        # verify reads the count off its quotient, and the oracle's zeros
        # must agree with it
        for n in SEARCHED:
            report = verify_against_oracle(n)
            expected = component_count(adjacency(build_full_graph(n)))
            assert (report.component_count, report.zero_multiplicity) == (expected, expected), n

    def test_predicate_matches_bfs(self, cli_output):
        # structure derives it from the quotient; 9, 25, 49, ... are the n
        # whose quotient is one class of several vertices
        for n in SEARCHED:
            code, out = cli_output("structure", str(n), "--format", "json", "--no-timestamp")
            reported = json.loads(out)["full_graph_connected"]
            assert reported is is_connected(build_full_graph(n)), n

    def test_predicate_for_prime_is_none(self, cli_output):
        for n in [p for p in range(2, 401) if is_prime(p)] + [1099511627791]:
            code, out = cli_output("structure", str(n), "--format", "json", "--no-timestamp")
            assert (code, json.loads(out)["full_graph_connected"]) == (2, None), n


class TestExports:
    def test_laplacian_rows_sum_to_zero(self):
        lap = laplacian(build_full_graph(30))
        assert np.array_equal(lap.sum(axis=1), np.zeros(21))
        assert np.array_equal(lap, lap.T)


def split_spectrum(graph):
    """The oracle's spectrum: the split's degrees and its even block's values."""
    degrees, even = negation_split(graph)
    return merge_spectrum(
        (v, 1, False) for v in np.concatenate((degrees, eigenvalues_in_place(even)))
    )


def assert_same_multiset(ours, reference):
    """Equal multiplicities, group by group, and values within MATCH_TOL."""
    assert [e.multiplicity for e in ours.entries] == [
        e.multiplicity for e in reference.entries
    ]
    assert max(
        (abs(x.value - y.value) for x, y in zip(ours.entries, reference.entries)),
        default=0.0,
    ) <= MATCH_TOL


def eigvalsh_spectrum(lap):
    """numpy's LAPACK eigenvalues of the whole matrix, merged like ours."""
    return merge_spectrum((v, 1, False) for v in np.linalg.eigvalsh(lap))


def negation_basis(m):
    """Columns (e_i - e_{m-1-i}) / sqrt 2, then (e_i + e_{m-1-i}) / sqrt 2
    for i < m // 2, then the middle e_{m // 2} when m is odd."""
    h = m // 2
    basis = np.zeros((m, m))
    for i in range(h):
        basis[i, i] = basis[i, h + i] = basis[m - 1 - i, h + i] = 1 / np.sqrt(2)
        basis[m - 1 - i, i] = -1 / np.sqrt(2)
    if m % 2:
        basis[h, m - 1] = 1.0
    return basis


class TestNegationSplit:
    def test_matches_eigvalsh_and_the_unsplit_solve_below_200(self):
        for n in composite_range(199):
            graph = build_full_graph(n)
            lap = laplacian(graph)
            split = split_spectrum(graph)
            assert_same_multiset(split, eigvalsh_spectrum(lap))
            assert_same_multiset(split, eigenvalue_multiset(lap))

    @pytest.mark.parametrize("n", [720, 1155, 3010])
    def test_matches_eigvalsh_at_size(self, n):
        graph = build_full_graph(n)
        assert_same_multiset(split_spectrum(graph), eigvalsh_spectrum(laplacian(graph)))

    @pytest.mark.parametrize("n", [4, 8, 12, 15, 30, 49, 60, 81])
    def test_blocks_are_the_laplacian_in_the_negation_basis(self, n):
        graph = build_full_graph(n)
        lap = laplacian(graph)
        m = len(lap)
        h = m // 2
        basis = negation_basis(m)
        rotated = basis.T @ lap @ basis
        degrees, even = negation_split(graph)
        # twin rows cancel exactly, so the odd part is exactly diagonal; the
        # rest agrees up to the rounding of 1 / sqrt 2
        odd = rotated[:h, :h]
        assert np.array_equal(odd, np.diag(np.diagonal(odd)))
        expected = np.zeros((m, m))
        expected[:h, :h] = np.diag(degrees)
        expected[h:, h:] = even
        assert np.max(np.abs(rotated - expected)) <= 1e-12 * m
        # the Householder reduction reads the sign of a zero: none is -0.0
        assert not np.signbit(even[even == 0]).any()

    @pytest.mark.parametrize(
        "n, m",
        [(4, 1), (6, 3), (8, 3), (9, 2), (15, 6), (30, 21), (81, 26), (720, 527), (1155, 674)],
    )
    def test_block_sizes_for_either_parity(self, n, m):
        # m is odd exactly when n is even: n / 2 is the middle vertex
        graph = build_full_graph(n)
        assert graph.vertex_count == m and m % 2 != n % 2
        degrees, even = negation_split(graph)
        h = m // 2
        assert (degrees.shape, even.shape) == ((h,), (m - h, m - h))
        assert even.dtype == np.float64

    def test_single_vertex(self):
        graph = build_full_graph(4)
        assert [e.multiplicity for e in split_spectrum(graph).entries] == [1]
        assert split_spectrum(graph).entries[0].value == 0

    @pytest.mark.parametrize("n", [8, 81])
    def test_null_graph_blocks_are_zero(self, n):
        graph = build_full_graph(n)
        degrees, even = negation_split(graph)
        assert not degrees.any() and not even.any()
        (zero,) = split_spectrum(graph).entries
        assert (zero.value, zero.multiplicity) == (0, graph.vertex_count)

    def test_refuses_a_graph_that_reversal_does_not_preserve(self):
        # still a simple graph, but reversal maps the pair (0, 1) to (m-1, m-2)
        broken = with_flipped_pairs(build_full_graph(30), [(0, 1)])
        a = adjacency(broken)
        assert np.array_equal(a, a.T) and a[0, 1] != adjacency(build_full_graph(30))[0, 1]
        with pytest.raises(AssertionError, match="twins"):
            negation_split(broken)

    def test_refuses_a_reversible_graph_without_twins(self):
        # flipping (0, 1) and its mirror (m-2, m-1) keeps L == L[::-1, ::-1],
        # but row 0 no longer equals row m-1: 0 and m-1 are not twins
        graph = build_full_graph(30)
        m = graph.vertex_count
        broken = with_flipped_pairs(graph, [(0, 1), (m - 2, m - 1)])
        lap = laplacian(broken)
        assert np.array_equal(lap, lap[::-1, ::-1])
        with pytest.raises(AssertionError, match="twins"):
            negation_split(broken)
