import json

import numpy as np
import pytest

from cozero import (
    Factorization,
    SpectrumEntry,
    VertexCapError,
    assemble_spectrum,
    build_full_graph,
    build_quotient,
    compare_multisets,
    factorize,
    is_laplacian_integral,
    is_prime,
    verify_against_oracle,
)
from cozero.quotient import integer_laplacian
from reference import (
    adjacency,
    characteristic_polynomial,
    charpoly_p2q,
    closed_form_pq,
    integer_part,
    true_spectrum,
    with_flipped_pairs,
)


def entry_pairs(multiset):
    return [(e.value, e.multiplicity) for e in multiset.entries]


def integer_multiplicity_total(spectrum):
    return sum(m for _, m in integer_part(spectrum).values())


def two_prime_power(p, n1, q, n2):
    """assemble_spectrum of p**n1 * q**n2 from its known factorization."""
    return assemble_spectrum(Factorization(p**n1 * q**n2, tuple(sorted(((p, n1), (q, n2))))))


def prime_pairs_up_to(limit):
    pairs = []
    for p in range(2, limit):
        if not is_prime(p):
            continue
        for q in range(p + 1, limit):
            if is_prime(q) and p * q <= limit:
                pairs.append((p, q))
    return pairs


class TestAssembleSpectrum:
    def test_two_prime_example(self):
        s = assemble_spectrum(15)
        assert entry_pairs(s.combined) == [(6.0, 1), (4.0, 1), (2.0, 3), (0.0, 1)]
        assert all(e.exact for e in s.combined.entries)
        assert s.degenerate is None

    def test_single_vertex(self):
        s = assemble_spectrum(4)
        assert entry_pairs(s.combined) == [(0.0, 1)]
        assert s.degenerate == "null"

    def test_prime_power_all_zero(self):
        s = assemble_spectrum(9)
        assert entry_pairs(s.combined) == [(0.0, 2)]
        assert s.degenerate == "null"

    @pytest.mark.parametrize("p, t", [(3, 39), (2, 62)])
    def test_edgeless_quotient_is_one_exact_zero(self, p, t):
        # the t - 1 divisors of p**t form a chain, so the quotient has no
        # edges: one zero is deflated and the other t - 2 are computed
        s = assemble_spectrum(p**t)
        assert s.quotient_part.entries == (SpectrumEntry(0, t - 1, True),)

    def test_prime_is_empty_marker(self):
        s = assemble_spectrum(13)
        assert s.combined.entries == ()
        assert s.degenerate == "empty"

    def test_rejects_below_two(self):
        with pytest.raises(ValueError):
            assemble_spectrum(1)

    def test_integer_part_of_twelve(self):
        s = assemble_spectrum(12)
        assert integer_part(s) == {
            2: (2, 1),
            3: (4, 1),
            4: (3, 1),
            6: (2, 0),
        }
        assert s.quotient_part.total_multiplicity == 4

    def test_twelve_matches_oracle(self, oracle_spectrum):
        s = assemble_spectrum(12)
        cmp = compare_multisets(s.combined, oracle_spectrum(12))
        assert cmp.matched

    def test_total_multiplicity(self):
        for n in (12, 30, 72, 100, 210):
            s = assemble_spectrum(n)
            assert s.combined.total_multiplicity == n - factorize(n).totient - 1

    def test_integer_part_count_is_total_minus_quotient_size(self):
        # the quotient contributes exactly d eigenvalues; the classes the rest
        for n in range(4, 301):
            if is_prime(n):
                continue
            s = assemble_spectrum(n)
            d = build_quotient(n).size
            total = s.combined.total_multiplicity
            assert integer_multiplicity_total(s) == total - d

    def test_zero_eigenvalue_present(self):
        for n in (12, 30, 8, 49):
            s = assemble_spectrum(n)
            assert s.combined.zero_multiplicity() >= 1

    def test_largest_eigenvalue_bounded_by_vertex_count(self):
        for n in range(4, 121):
            if is_prime(n):
                continue
            s = assemble_spectrum(n)
            assert s.combined.values()[0] <= s.vertex_count + 1e-8

    def test_trace_identity_against_edge_count(self):
        for n in (12, 15, 30, 60, 96):
            s = assemble_spectrum(n)
            graph = build_full_graph(n)
            assert abs(float(np.sum(s.combined.values())) - adjacency(graph).sum()) < 1e-6


class TestClosedFormTwoPrimes:
    def test_three_five(self):
        s = closed_form_pq(3, 5)
        assert entry_pairs(s.combined) == [(6.0, 1), (4.0, 1), (2.0, 3), (0.0, 1)]
        assert is_laplacian_integral(s)

    def test_two_three_drops_zero_multiplicity(self):
        # the multiplicity of q-1 is p-2 = 0 here; the oracle fixes {3, 1, 0}
        s = closed_form_pq(2, 3)
        assert entry_pairs(s.combined) == [(3.0, 1), (1.0, 1), (0.0, 1)]

    def test_symmetric_in_arguments(self):
        assert entry_pairs(closed_form_pq(3, 5).combined) == entry_pairs(
            closed_form_pq(5, 3).combined
        )

    @pytest.mark.parametrize("p,q", [(4, 5), (3, 3), (2, 9)])
    def test_rejects_bad_primes(self, p, q):
        with pytest.raises(ValueError):
            closed_form_pq(p, q)

    def test_matches_assembly_for_all_small_products(self):
        for p, q in prime_pairs_up_to(400):
            closed = closed_form_pq(p, q)
            assembled = assemble_spectrum(p * q)
            assert integer_part(closed) == integer_part(assembled)
            assert closed.quotient == assembled.quotient
            cmp = compare_multisets(closed.combined, assembled.combined)
            assert cmp.matched, f"(p, q) = ({p}, {q})"

    def test_matches_oracle_for_small_case(self, oracle_spectrum):
        cmp = compare_multisets(closed_form_pq(2, 3).combined, oracle_spectrum(6))
        assert cmp.matched

    def test_primes_far_above_two_to_the_53(self):
        p, q = 999983, 2**61 - 1
        entries = closed_form_pq(p, q).quotient_part.entries
        assert (entries[0].value, entries[0].exact) == (p + q - 2, True)
        assert type(entries[0].value) is int


class TestQuarticCharpoly:
    def test_frozen_coefficients_at_two_three(self):
        assert charpoly_p2q(2, 3) == [1, -11, 34, -28, 0]

    def test_monic_with_zero_constant(self):
        for p, q in ((2, 3), (3, 2), (2, 5), (5, 2), (3, 5), (5, 3)):
            coeffs = charpoly_p2q(p, q)
            assert coeffs[0] == 1
            assert coeffs[-1] == 0
            assert len(coeffs) == 5

    @pytest.mark.parametrize("p,q", [(2, 3), (3, 2), (2, 5), (5, 2), (3, 5), (5, 3)])
    def test_equals_exact_matrix_charpoly(self, p, q):
        lap = integer_laplacian(build_quotient(p * p * q))
        assert charpoly_p2q(p, q) == characteristic_polynomial(lap)

    def test_roots_union_integer_part_matches_oracle(self, oracle_spectrum):
        from cozero.eigen import merge_spectrum

        for p, q in ((2, 3), (3, 2), (2, 5)):
            n = p * p * q
            assembled = assemble_spectrum(n)
            roots = np.roots(charpoly_p2q(p, q)).real
            triples = [
                (float(value), m, True)
                for value, m in integer_part(assembled).values()
                if m > 0
            ]
            triples.extend((r, 1, False) for r in roots)
            rebuilt = merge_spectrum(triples)
            cmp = compare_multisets(rebuilt, oracle_spectrum(n))
            assert cmp.matched, f"(p, q) = ({p}, {q})"


class TestClosedFormGeneral:
    """The paper's p**n1 * q**n2 family, assembled from its factorization."""

    def test_reduces_to_two_prime_form(self):
        general = two_prime_power(3, 1, 5, 1)
        direct = closed_form_pq(3, 5)
        assert integer_part(general) == integer_part(direct)
        assert compare_multisets(general.combined, direct.combined).matched

    def test_degree_values_at_twelve(self):
        general = two_prime_power(2, 2, 3, 1)
        assert integer_part(general) == {
            2: (2, 1),
            3: (4, 1),
            4: (3, 1),
            6: (2, 0),
        }

    def test_matches_assembly_exactly_on_integer_part(self):
        cases = [(2, 2, 3, 1), (2, 3, 3, 1), (2, 2, 3, 2), (3, 2, 2, 2), (2, 3, 3, 2)]
        for p, n1, q, n2 in cases:
            general = two_prime_power(p, n1, q, n2)
            assembled = assemble_spectrum(p**n1 * q**n2)
            assert integer_part(general) == integer_part(assembled)
            cmp = compare_multisets(general.combined, assembled.combined)
            assert cmp.matched

    def test_quotient_size_bookkeeping(self):
        # n = 72: 47 vertices, 10 from the quotient, 37 integer slots
        general = two_prime_power(2, 3, 3, 2)
        vertices = 72 - 24 - 1  # phi(72) = 24
        assert general.quotient_part.total_multiplicity == (3 + 1) * (2 + 1) - 2
        assert integer_multiplicity_total(general) == vertices - 10
        assert general.combined.total_multiplicity == vertices

    def test_matches_oracle_at_seventy_two(self, oracle_spectrum):
        general = two_prime_power(2, 3, 3, 2)
        cmp = compare_multisets(general.combined, oracle_spectrum(72))
        assert cmp.matched

    def test_never_factors_n(self, monkeypatch):
        from cozero import fullgraph, numbers, quotient

        def refuse(n):
            raise AssertionError(f"factorize({n}) called")

        for module in (numbers, quotient, fullgraph):
            monkeypatch.setattr(module, "factorize", refuse)
        general = two_prime_power(999983, 1, 1000003, 1)
        direct = closed_form_pq(999983, 1000003)
        assert integer_part(general) == integer_part(direct)
        assert general.combined == direct.combined


class TestLaplacianIntegrality:
    def test_two_prime_products_are_integral(self):
        assert is_laplacian_integral(assemble_spectrum(15))
        assert is_laplacian_integral(assemble_spectrum(35))

    def test_twelve_is_not_integral(self):
        # the quartic x^4 - 11x^3 + 34x^2 - 28x has three irrational roots
        s = assemble_spectrum(12)
        assert not is_laplacian_integral(s)
        distances = [
            abs(e.value - round(e.value))
            for e in s.combined.entries
            if not e.exact
        ]
        assert distances and min(distances) > 0.1


class TestOracleVerification:
    def test_thirty_matches(self):
        report = verify_against_oracle(30)
        assert report.matched
        assert report.vertex_count == 21
        assert report.max_deviation < 1e-8
        assert report.multiplicity_mismatches == ()

    def test_fifteen_matches_closed_form_and_oracle(self):
        report = verify_against_oracle(15)
        assert report.matched
        assert report.laplacian_integral

    def test_null_graph_nine(self):
        report = verify_against_oracle(9)
        assert report.matched
        assert report.vertex_count == 2
        assert report.zero_multiplicity == 2
        assert report.component_count == 2
        assert report.degenerate == "null"

    def test_prime_is_degenerate_trivial_match(self):
        report = verify_against_oracle(7919)
        assert report.matched
        assert report.degenerate == "empty"
        assert report.vertex_count == 0

    def test_cap_propagates(self):
        # 40022 = 2 * 20011 has 20011 vertices, 11 above the cap
        with pytest.raises(VertexCapError) as err:
            verify_against_oracle(40022)
        assert (err.value.vertex_count, err.value.cap) == (20011, 20000)

    def test_zero_multiplicity_equals_component_count(self):
        for n in (8, 9, 12, 27, 30, 64):
            report = verify_against_oracle(n)
            assert report.zero_multiplicity == report.component_count

    @staticmethod
    def flipped(monkeypatch, pairs):
        """Make the oracle build graphs with the adjacency of each (i, j)
        in pairs(m) flipped, m the vertex count."""
        from cozero import spectrum

        def broken_graph(f):
            graph = build_full_graph(f)
            return with_flipped_pairs(graph, pairs(graph.vertex_count))

        monkeypatch.setattr(spectrum, "build_full_graph", broken_graph)

    def test_refuses_a_graph_that_reversal_does_not_preserve(self, monkeypatch):
        # the oracle checks the twins it splits by on every call
        self.flipped(monkeypatch, lambda m: [(0, 1)])
        with pytest.raises(AssertionError, match="twins"):
            verify_against_oracle(30)

    def test_refuses_a_reversible_graph_without_twins(self, monkeypatch):
        # reversal maps (0, 1) to (m - 2, m - 1), so it still preserves the
        # graph, but vertices 0 and m - 1 are no longer twins
        self.flipped(monkeypatch, lambda m: [(0, 1), (m - 2, m - 1)])
        with pytest.raises(AssertionError, match="twins"):
            verify_against_oracle(30)

    def test_five_hundred_vertex_graph(self):
        report = verify_against_oracle(720)
        assert report.vertex_count == 527
        assert report.matched
        assert report.max_deviation < 1e-8
        assert report.zero_multiplicity == report.component_count == 1


class TestExactQuotientZero:
    """A large prime squared in n used to turn the quotient's zero into
    1e-6 to 1e-2, or into a small negative value, with exact=False."""

    @pytest.mark.parametrize(
        "n",
        [
            3 * 100003**2,
            101 * 100003**2,
            11**3 * 10007**2,
            10007**2 * 100003**2,
            100003 * 100019**2,
            999983**2 * 1000003,
        ],
    )
    def test_zero_is_exact_and_single(self, n):
        s = assemble_spectrum(n)
        assert s.quotient_part.entries[-1] == SpectrumEntry(0.0, 1, True)
        assert s.quotient_part.zero_multiplicity() == 1
        assert s.combined.entries[-1] == SpectrumEntry(0.0, 1, True)
        # trace of the quotient Laplacian: the sum of its weighted degrees
        degrees = sum(s.quotient.degrees)
        assert abs(float(np.sum(s.quotient_part.values())) - degrees) <= 1e-12 * degrees


def assert_true_entries(n):
    """assemble_spectrum(n) against true_spectrum(n): the same multiplicities
    and exact flags in the same order, exact values the same ints, and any
    other value within 4 d eps rho of its root. That is the normwise error
    bound of a float solver on the d x d quotient, rho the largest row sum
    of its Laplacian, twice the largest weighted degree."""
    q = build_quotient(n)
    bound = 4 * q.size * np.finfo(float).eps * 2 * max(q.degrees)
    got, want = assemble_spectrum(n).combined.entries, true_spectrum(n)
    assert [(m, e) for _, m, e in got] == [(m, e) for _, m, e in want]
    for (value, _, exact), (root, _, _) in zip(got, want):
        if exact:
            assert type(value) is int and value == root
        else:
            assert abs(value - root) <= bound, (value, root, bound)


class TestTrueSpectrum:
    """The assembly against the roots of the exact characteristic
    polynomial, where no tolerance decides wrongly (ROADMAP item 1)."""

    @pytest.mark.parametrize("n", [12, 30, 3 * 1009**2, 6 * 1000003])
    def test_matches_the_exact_roots(self, n):
        assert_true_entries(n)

    # the table of ROADMAP item 1: fixed tolerances decide exact values and
    # merges wrongly at each n. Strict, so a fix that passes a row fails
    # the suite until its marker is removed
    @pytest.mark.xfail(
        strict=True, raises=AssertionError, reason="exact values decided by tolerance"
    )
    @pytest.mark.parametrize(
        "n",
        [
            # 2000000014 and 1000000007 printed exact; a root near 2 merged
            # into the class value 2
            4 * (10**9 + 7),
            # 466357 printed exact
            4 * 466357,
            # p - 1 printed twice, p + 1 missing, p = 2**53 + 5
            3 * (2**53 + 5),
            # the root 1.99999999973643 printed as 2.000001907348633,
            # above the class value 2
            3 * 123191**2,
            # a root near 2 merged into the class value 2 (large-prime's
            # second known fault)
            3 * 100003**2,
        ],
    )
    def test_known_faults(self, n):
        assert_true_entries(n)


class TestReports:
    """spectrum's JSON and CSV renderings, through the CLI."""

    def test_json_report_shape(self, cli_output):
        code, out = cli_output("spectrum", "30", "--format", "json", "--no-timestamp")
        assert code == 0
        report = json.loads(out)
        assert report["vertex_count"] == 21
        # the report never runs the oracle; these two keys are constants
        assert report["oracle_checked"] is False
        assert report["max_deviation"] is None
        assert report["laplacian_integral"] is False

    def test_degenerate_report(self, cli_output):
        code, out = cli_output("spectrum", "13", "--format", "json", "--no-timestamp")
        assert code == 2
        report = json.loads(out)
        assert report["degenerate"] == "empty"
        assert report["spectrum"] == []
        assert report["divisor_classes"] == []

    def test_csv_export(self, cli_output):
        code, out = cli_output("spectrum", "15", "--format", "csv")
        assert code == 0
        assert out.splitlines() == [
            "value,multiplicity,exact",
            "6,1,true",
            "4,1,true",
            "2,3,true",
            "0,1,true",
        ]
