from itertools import combinations
from math import gcd

import numpy as np
import pytest

from cozero import (
    EmptyGraphError,
    VertexCapError,
    build_full_graph,
    build_quotient,
    connected_component_count,
    full_graph_connected_predicate,
    is_prime,
    laplacian_matrix,
)
from cozero import fullgraph
from cozero.fullgraph import to_dot
from reference import is_adjacent_by_definition, is_adjacent_exhaustive


def composite_range(hi):
    return [n for n in range(4, hi + 1) if not is_prime(n)]


def adjacent_in_graph(x, y, n):
    graph = build_full_graph(n)
    return bool(graph.adjacency[graph.vertices.index(x), graph.vertices.index(y)])


def is_connected(graph):
    return connected_component_count(graph) == 1


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
        # vectorized form of the definition, independent of the builder
        for n in composite_range(300):
            graph = build_full_graph(n)
            v = np.array(graph.vertices)
            g = np.gcd(v, n)
            by_definition = (v[:, None] % g[None, :] != 0) & (
                v[None, :] % g[:, None] != 0
            )
            assert np.array_equal(by_definition, graph.adjacency)


class TestBuildFullGraph:
    def test_vertex_count_30(self):
        graph = build_full_graph(30)
        assert graph.vertex_count == 21

    def test_single_vertex_graph(self):
        graph = build_full_graph(4)
        assert graph.vertex_count == 1
        assert graph.edge_count == 0

    def test_edge_count_15_by_brute_recount(self):
        graph = build_full_graph(15)
        assert graph.vertex_count == 6
        vertices = [x for x in range(1, 15) if gcd(x, 15) > 1]
        brute = sum(
            1 for x, y in combinations(vertices, 2) if is_adjacent_by_definition(x, y, 15)
        )
        assert brute == 8
        assert graph.edge_count == brute

    def test_prime_raises_empty_graph(self):
        with pytest.raises(EmptyGraphError):
            build_full_graph(13)

    def test_vertex_cap(self):
        with pytest.raises(VertexCapError) as err:
            build_full_graph(30, cap=10)
        assert err.value.vertex_count == 21
        assert err.value.cap == 10

    def test_verify_mode(self):
        # every pair re-checked against the ring definition
        for n in (12, 30, 60):
            graph = build_full_graph(n)
            for i, j in combinations(range(graph.vertex_count), 2):
                x, y = graph.vertices[i], graph.vertices[j]
                assert bool(graph.adjacency[i, j]) == is_adjacent_by_definition(x, y, n)

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

    def test_adjacency_is_read_only(self):
        graph = build_full_graph(12)
        with pytest.raises(ValueError):
            graph.adjacency[0, 1] = True


class TestEquitableStructure:
    def test_within_class_edgeless_between_class_all_or_none(self):
        for n in composite_range(300):
            graph = build_full_graph(n)
            divisors = build_quotient(n).divisors
            classes = np.array(graph.classes)
            for i, di in enumerate(divisors):
                idx_i = np.nonzero(classes == di)[0]
                block = graph.adjacency[np.ix_(idx_i, idx_i)]
                assert not block.any(), f"edges inside class {di} of n={n}"
                for dj in divisors[i + 1:]:
                    idx_j = np.nonzero(classes == dj)[0]
                    count = int(graph.adjacency[np.ix_(idx_i, idx_j)].sum())
                    assert count in (0, len(idx_i) * len(idx_j)), (
                        f"partial join between classes {di}, {dj} of n={n}"
                    )


class TestConnectivity:
    def test_examples(self):
        assert is_connected(build_full_graph(30))
        assert not is_connected(build_full_graph(9))
        assert is_connected(build_full_graph(4))  # single vertex

    def test_component_counts(self):
        assert connected_component_count(build_full_graph(8)) == 3
        assert connected_component_count(build_full_graph(9)) == 2
        assert connected_component_count(build_full_graph(30)) == 1

    def test_predicate_matches_bfs(self):
        for n in composite_range(300):
            predicted = full_graph_connected_predicate(n)
            assert predicted is not None
            assert is_connected(build_full_graph(n)) == predicted

    def test_predicate_for_prime_is_none(self):
        assert full_graph_connected_predicate(13) is None


class TestExports:
    def test_laplacian_rows_sum_to_zero(self):
        lap = laplacian_matrix(build_full_graph(30))
        assert np.array_equal(lap.sum(axis=1), np.zeros(21))
        assert np.array_equal(lap, lap.T)

    @pytest.mark.parametrize("n,dtype", [(30, np.int8), (720, np.int16)])
    def test_laplacian_is_exact_in_the_least_signed_type(self, n, dtype):
        graph = build_full_graph(n)
        lap = laplacian_matrix(graph)
        assert lap.dtype == dtype
        assert np.array_equal(np.diagonal(lap), graph.degrees())
        off_diagonal = -lap.astype(np.int64)
        np.fill_diagonal(off_diagonal, 0)
        assert np.array_equal(off_diagonal, graph.adjacency)

    def test_dot_output(self):
        graph = build_full_graph(12)
        dot = to_dot(graph)
        assert dot.startswith("graph cozero_divisor_12 {")
        for v in graph.vertices:
            assert f'v{v} [label="{v}"' in dot
        assert dot.count(" -- ") == graph.edge_count
