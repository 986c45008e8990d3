from math import prod

import numpy as np
import pytest

from cozero import (
    build_full_graph,
    build_quotient,
    factorize,
    is_prime,
    quotient_connectivity_state,
)
from cozero.quotient import (
    full_graph_component_count,
    integer_laplacian,
    symmetric_laplacian,
)
from reference import (
    adjacency,
    closed_form_quotient,
    component_count,
    eigenvalue_multiset,
)



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
        assert q.edges() == []

    def test_prime_is_empty(self):
        q = build_quotient(11)
        assert q.is_empty
        assert q.degrees == ()

    def test_factorization_gives_the_same_graph(self):
        for n in (12, 30, 720720, 3 * 2**60):
            a, b = build_quotient(n), build_quotient(factorize(n))
            assert a == b and hash(a) == hash(b)

    def test_matches_the_closed_form_reference_below_3000(self):
        for n in range(4, 3001):
            if not is_prime(n):
                f = factorize(n)
                assert build_quotient(f) == closed_form_quotient(f), n

    # the exponent signatures of the spectrum ladder, 30 to 238 divisors,
    # larger exponents on the smaller primes and on the larger ones
    @pytest.mark.parametrize("signature", [
        (3, 1, 1, 1), (2, 2, 1, 1), (4, 2, 1, 1), (3, 2, 1, 1, 1),
        (4, 2, 1, 1, 1), (4, 2, 2, 1, 1), (4, 2, 1, 1, 1, 1),
    ])
    @pytest.mark.parametrize("primes", [(2, 3, 5, 7, 11, 13), (19, 17, 13, 11, 7, 5)])
    def test_matches_the_closed_form_reference_on_the_ladder(self, signature, primes):
        n = prod(p**e for p, e in zip(primes, signature))
        f = factorize(n)
        assert sorted(e for _, e in f.factors) == sorted(signature)
        assert build_quotient(f) == closed_form_quotient(f)

    def test_holds_no_array(self):
        # every field is a tuple or an int, so the graph is hashable
        q = build_quotient(720720)
        assert q.exponents[:3] == ((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (2, 0, 0, 0, 0, 0))
        assert not any(isinstance(v, np.ndarray) for v in vars(q).values())
        hash(q)

    def test_adjacency_is_mutual_non_divisibility(self):
        for n in range(4, 1001):
            q = build_quotient(n)
            a = q.adjacency()
            for i, x in enumerate(q.divisors):
                for j, y in enumerate(q.divisors):
                    assert a[i, j] == (x % y != 0 and y % x != 0)

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
        assert build_quotient(12).degrees == (2, 4, 3, 2)

    def test_isolated_vertices_get_zero(self):
        assert build_quotient(8).degrees == (0, 0)

    def test_two_prime_case(self):
        # divisors ascending (lo, hi); each one's degree is its own totient
        for p, q in prime_pairs(100):
            assert build_quotient(p * q).degrees == (p - 1, q - 1)

    @staticmethod
    def neighbour_weight_sums(q):
        # the definition: the weights of each divisor's neighbours, summed
        # as Python ints over its adjacency row
        return tuple(
            sum(q.weights[j] for j in np.flatnonzero(row).tolist()) for row in q.adjacency()
        )

    def test_closed_form_matches_python_int_sums_below_3000(self):
        for n in range(4, 3000):
            if not is_prime(n):
                q = build_quotient(n)
                assert q.degrees == self.neighbour_weight_sums(q), n

    # 94, 238, 1342 and 2686 proper divisors; 4 times a prime above 1e9;
    # 3 times the square of a prime above 1e5; 3 times a prime above
    # 2**53, whose degrees are exact Python ints above 2**53
    @pytest.mark.parametrize("n", [
        27720, 720720, 735134400, 13967553600,
        4 * (10**9 + 7), 3 * 100003**2, 3 * (2**53 + 5),
    ])
    def test_closed_form_matches_python_int_sums(self, n):
        q = build_quotient(n)
        assert q.degrees == self.neighbour_weight_sums(q)
        assert all(type(deg) is int for deg in q.degrees)

    def test_matches_full_graph_degrees(self):
        # the partition is equitable: every vertex of the class of d has
        # full-graph degree equal to the weighted degree of d
        for n in range(4, 301):
            if is_prime(n):
                continue
            q = build_quotient(n)
            degrees = dict(zip(q.divisors, q.degrees))
            graph = build_full_graph(n)
            graph_degrees = adjacency(graph).sum(axis=1).tolist()
            for vertex, cls, deg in zip(graph.vertices, graph.classes, graph_degrees):
                assert deg == degrees[cls], f"vertex {vertex} of n={n}"


class TestWeightedLaplacian:
    def test_two_prime_matrix(self):
        for p, q in ((3, 5), (2, 3), (5, 7)):
            expected = [[p - 1, -(p - 1)], [-(q - 1), q - 1]]
            assert integer_laplacian(build_quotient(p * q)).tolist() == expected

    def test_matrix_12(self):
        lap = integer_laplacian(build_quotient(12))
        assert lap.dtype == np.int64
        assert lap.tolist() == [
            [2, -2, 0, 0],
            [-2, 4, -2, 0],
            [0, -2, 3, -1],
            [0, 0, -2, 2],
        ]

    def test_zero_matrix_8(self):
        assert integer_laplacian(build_quotient(8)).tolist() == [[0, 0], [0, 0]]

    def test_prime_gives_zero_by_zero(self):
        # no proper divisors: both forms are empty, and nothing is refused
        q = build_quotient(7)
        assert integer_laplacian(q).shape == (0, 0)
        assert symmetric_laplacian(q).shape == (0, 0)

    def test_row_sums_zero(self):
        for n in range(4, 1001):
            if is_prime(n):
                continue
            lap = integer_laplacian(build_quotient(n))
            assert (lap.sum(axis=1) == 0).all()

    def test_symmetric_form_entries(self):
        sym = symmetric_laplacian(build_quotient(15))
        # weights (4, 2): off-diagonal -sqrt(8), diagonal as in the integer form
        assert sym[0, 0] == 2
        assert sym[1, 1] == 4
        assert sym[0, 1] == pytest.approx(-np.sqrt(8))
        assert np.allclose(sym, sym.T)

    def test_symmetric_form_is_fresh_and_writable(self):
        # each call hands the solver its own working array
        q = build_quotient(30)
        first, second = symmetric_laplacian(q), symmetric_laplacian(q)
        assert first.dtype == np.float64
        assert first.flags.writeable and second.flags.writeable
        assert not np.shares_memory(first, second)
        first[:] = 0.0
        assert np.array_equal(second, symmetric_laplacian(q))

    def test_symmetric_form_has_no_negative_zero(self):
        # every non-edge is +0.0, so a sign test on the entries is never fooled
        for n in (8, 12, 30, 27, 720, 720720):
            sym = symmetric_laplacian(build_quotient(n))
            assert not np.signbit(sym[sym == 0.0]).any(), f"n={n}"

    def test_forms_share_spectrum(self):
        # LAPACK on the nonsymmetric integer form is the test-side oracle
        for n in range(4, 1001):
            if is_prime(n):
                continue
            q = build_quotient(n)
            raw = np.linalg.eigvals(integer_laplacian(q).astype(float))
            assert float(np.max(np.abs(raw.imag))) < 1e-8
            reference = np.sort(raw.real)[::-1]
            ours = eigenvalue_multiset(symmetric_laplacian(q)).values()
            assert float(np.max(np.abs(ours - reference))) < 1e-8

    def test_verify_mode(self):
        # zero row sums, and the symmetric form equals the integer form
        # conjugated by diag(sqrt(w)), entry for entry
        for n in range(4, 400):
            if is_prime(n):
                continue
            q = build_quotient(n)
            lap, sym = integer_laplacian(q), symmetric_laplacian(q)
            assert not lap.sum(axis=1).any()
            root_w = np.sqrt(np.array(q.weights, dtype=np.float64))
            conj = root_w[:, None] * lap / root_w[None, :]
            scale = max(1.0, float(np.max(np.abs(sym))))
            assert float(np.max(np.abs(conj - sym))) <= 1e-12 * scale


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
        # the closed forms against a breadth-first search of the quotient
        # for n < 3000, and of the full graph for n <= 1000
        for n in range(2, 3000):
            q = build_quotient(n)
            state = quotient_connectivity_state(q)
            if is_prime(n):
                assert (state, full_graph_component_count(q)) == ("empty", 0)
                continue
            components = component_count(q.adjacency())
            assert state == ("connected" if components == 1 else "disconnected"), n
            if n <= 1000:
                expected = component_count(adjacency(build_full_graph(n)))
                assert full_graph_component_count(q) == expected, n


class TestDisplayHelpers:
    """structure's DOT and CSV renderings of the quotient, through the CLI."""

    def test_dot_output(self, cli_output):
        code, out = cli_output("structure", "30", "--format", "dot")
        assert code == 0
        assert '  d2 [label="2\\nw=8 D=7"];' in out.splitlines()

    def test_csv_dump(self, cli_output):
        code, out = cli_output("structure", "12", "--format", "csv")
        assert code == 0
        assert out.splitlines() == [
            "2,-2,0,0",
            "-2,4,-2,0",
            "0,-2,3,-1",
            "0,0,-2,2",
        ]
