import numpy as np
import pytest

from cozero import (
    build_full_graph,
    build_quotient,
    build_weighted_laplacian,
    factorize,
    is_prime,
    quotient_connectivity_state,
    weighted_degrees,
)
from cozero.eigen import eigenvalues_symmetric
from cozero.quotient import laplacian_csv, to_dot
from reference import quotient_connected_predicate


def prime_pairs(limit):
    pairs = []
    for p in range(2, limit):
        if not is_prime(p):
            continue
        for q in range(p + 1, limit):
            if is_prime(q) and p * q <= limit:
                pairs.append((p, q))
    return pairs


class TestBuildQuotient:
    def test_worked_example_30(self):
        q = build_quotient(30)
        assert q.divisors == (2, 3, 5, 6, 10, 15)
        assert q.weights == (8, 4, 2, 4, 2, 1)
        assert q.edges() == [
            (2, 3), (2, 5), (2, 15), (3, 5), (3, 10),
            (5, 6), (6, 10), (6, 15), (10, 15),
        ]

    def test_path_structure_12(self):
        q = build_quotient(12)
        assert q.divisors == (2, 3, 4, 6)
        assert q.edges() == [(2, 3), (3, 4), (4, 6)]

    def test_chain_has_no_edges(self):
        q = build_quotient(8)
        assert q.divisors == (2, 4)
        assert q.edge_count == 0

    def test_prime_is_empty(self):
        q = build_quotient(11)
        assert q.is_empty

    def test_factorization_gives_the_same_graph(self):
        for n in (12, 30, 720720, 3 * 2**60):
            a, b = build_quotient(n), build_quotient(factorize(n))
            assert (a.n, a.divisors, a.weights) == (b.n, b.divisors, b.weights)
            assert np.array_equal(a.adjacency, b.adjacency)

    def test_adjacency_is_mutual_non_divisibility(self):
        for n in range(4, 1001):
            q = build_quotient(n)
            for i, a in enumerate(q.divisors):
                for j, b in enumerate(q.divisors):
                    assert q.adjacency[i, j] == (a % b != 0 and b % a != 0)

    def test_refuses_n_from_two_to_the_63(self):
        build_quotient(2**62 * 3 // 2)
        with pytest.raises(ValueError, match=r"2\*\*63"):
            build_quotient(2**63)

    def test_weight_sum_identity(self):
        for n in range(2, 1001):
            q = build_quotient(n)
            assert sum(q.weights) == n - factorize(n).totient - 1


class TestWeightedDegrees:
    def test_example_12(self):
        assert weighted_degrees(build_quotient(12)) == [2, 4, 3, 2]

    def test_isolated_vertices_get_zero(self):
        assert weighted_degrees(build_quotient(8)) == [0, 0]

    def test_two_prime_case(self):
        # divisors ascending (lo, hi); each one's degree is its own totient
        for p, q in prime_pairs(100):
            degrees = weighted_degrees(build_quotient(p * q))
            assert degrees == [p - 1, q - 1]

    def test_matches_full_graph_degrees(self):
        # the partition is equitable: every vertex of the class of d has
        # full-graph degree equal to the weighted degree of d
        for n in range(4, 301):
            if is_prime(n):
                continue
            q = build_quotient(n)
            degrees = dict(zip(q.divisors, weighted_degrees(q)))
            graph = build_full_graph(n)
            graph_degrees = graph.degrees()
            for vertex, cls, deg in zip(graph.vertices, graph.classes, graph_degrees):
                assert deg == degrees[cls], f"vertex {vertex} of n={n}"


class TestWeightedLaplacian:
    def test_two_prime_matrix(self):
        for p, q in ((3, 5), (2, 3), (5, 7)):
            wl = build_weighted_laplacian(build_quotient(p * q))
            expected = [[p - 1, -(p - 1)], [-(q - 1), q - 1]]
            assert wl.entries.tolist() == expected

    def test_matrix_12(self):
        wl = build_weighted_laplacian(build_quotient(12))
        assert wl.entries.tolist() == [
            [2, -2, 0, 0],
            [-2, 4, -2, 0],
            [0, -2, 3, -1],
            [0, 0, -2, 2],
        ]

    def test_zero_matrix_8(self):
        wl = build_weighted_laplacian(build_quotient(8))
        assert wl.entries.tolist() == [[0, 0], [0, 0]]

    def test_prime_rejected(self):
        with pytest.raises(ValueError):
            build_weighted_laplacian(build_quotient(7))

    def test_row_sums_zero(self):
        for n in range(4, 1001):
            if is_prime(n):
                continue
            wl = build_weighted_laplacian(build_quotient(n))
            assert (wl.entries.sum(axis=1) == 0).all()

    def test_symmetric_form_entries(self):
        q = build_quotient(15)
        wl = build_weighted_laplacian(q)
        # weights (4, 2): off-diagonal -sqrt(8), diagonal as in the integer form
        assert wl.symmetric_form[0, 0] == 2
        assert wl.symmetric_form[1, 1] == 4
        assert wl.symmetric_form[0, 1] == pytest.approx(-np.sqrt(8))
        assert np.allclose(wl.symmetric_form, wl.symmetric_form.T)

    def test_forms_share_spectrum(self):
        # LAPACK on the nonsymmetric integer form is the test-side oracle
        for n in range(4, 1001):
            if is_prime(n):
                continue
            wl = build_weighted_laplacian(build_quotient(n))
            raw = np.linalg.eigvals(wl.entries.astype(float))
            assert float(np.max(np.abs(raw.imag))) < 1e-8
            reference = np.sort(raw.real)[::-1]
            ours = eigenvalues_symmetric(wl.symmetric_form).values()
            assert float(np.max(np.abs(ours - reference))) < 1e-8

    def test_verify_mode(self):
        # zero row sums, and the symmetric form equals the integer form
        # conjugated by diag(sqrt(w)), entry for entry
        for n in range(4, 400):
            if is_prime(n):
                continue
            q = build_quotient(n)
            wl = build_weighted_laplacian(q)
            assert not wl.entries.sum(axis=1).any()
            root_w = np.sqrt(np.array(q.weights, dtype=np.float64))
            conj = root_w[:, None] * wl.entries / root_w[None, :]
            scale = max(1.0, float(np.max(np.abs(wl.symmetric_form))))
            assert float(np.max(np.abs(conj - wl.symmetric_form))) <= 1e-12 * scale


class TestConnectivity:
    def test_examples(self):
        assert quotient_connectivity_state(build_quotient(27)) == "disconnected"
        assert quotient_connectivity_state(build_quotient(4)) == "connected"  # single vertex
        assert quotient_connectivity_state(build_quotient(30)) == "connected"

    def test_state_strings(self):
        assert quotient_connectivity_state(build_quotient(11)) == "empty"
        assert quotient_connectivity_state(build_quotient(8)) == "disconnected"
        assert quotient_connectivity_state(build_quotient(12)) == "connected"

    def test_bfs_matches_predicate(self):
        for n in range(2, 1001):
            predicted = quotient_connected_predicate(n)
            if is_prime(n):
                assert predicted is None
                continue
            state = quotient_connectivity_state(build_quotient(n))
            assert state == ("connected" if predicted else "disconnected")


class TestDisplayHelpers:
    def test_dot_output(self):
        q = build_quotient(30)
        dot = to_dot(q, weighted_degrees(q))
        assert dot.startswith("graph divisor_quotient_30 {")
        assert 'd2 [label="2\\nw=8 D=7"];' in dot
        assert dot.count(" -- ") == 9

    def test_csv_dump(self):
        wl = build_weighted_laplacian(build_quotient(12))
        assert laplacian_csv(wl).splitlines() == [
            "2,-2,0,0",
            "-2,4,-2,0",
            "0,-2,3,-1",
            "0,0,-2,2",
        ]
