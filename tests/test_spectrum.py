import dataclasses
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
from cozero import eigen, spectrum
from cozero.eigen import eigenvalues_in_place, merge_spectrum
from cozero.fullgraph import negation_split
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


def raw_oracle_values(n):
    """The oracle's eigenvalues as it solves them, descending: the split's
    degrees and its even block's values, neither grouped nor snapped."""
    degrees, even = negation_split(build_full_graph(n))
    return np.sort(np.concatenate((degrees, eigenvalues_in_place(even))))[::-1]


class TestRawOracleComparison:
    """The oracle's values reach merge_spectrum only when the check fails."""

    def test_zero_count_reads_the_raw_values(self):
        # grouping snapped 2e-7 to an exact 0, and merged 5e-7 with 1e-12
        # into one 0 of multiplicity 2, so both counted with 1e-6, not ZERO_TOL
        assert merge_spectrum([(2e-7, 1, False), (3.0, 1, False)]).zero_multiplicity() == 1
        assert merge_spectrum([(5e-7, 1, False), (1e-12, 1, False)]).zero_multiplicity() == 2
        assert spectrum._zero_count(np.array([2e-7, 3.0])) == 0
        assert spectrum._zero_count(np.array([5e-7, 1e-12])) == 1

    def test_max_deviation_is_against_the_raw_values(self):
        for n in [n for n in range(4, 401) if not is_prime(n)] + [1155, 3010]:
            report = verify_against_oracle(n)
            raw = raw_oracle_values(n)
            assembled = assemble_spectrum(n).combined.values()
            assert report.matched, n
            assert report.max_deviation == float(np.max(np.abs(assembled - raw))), n

    def test_passing_check_merges_only_the_assembled_side(self, monkeypatch):
        calls = []

        def counted(triples):
            calls.append(None)
            return merge(triples)

        merge = eigen.merge_spectrum
        monkeypatch.setattr(eigen, "merge_spectrum", counted)
        assemble_spectrum(204)
        assembled_calls = len(calls)
        calls.clear()
        report = verify_against_oracle(204)
        assert report.matched and report.vertex_count == 139
        assert len(calls) == assembled_calls == 2

    def test_failing_check_lists_the_grouped_raw_values(self, monkeypatch):
        # the largest class's degree, shifted by 1, moves its w - 1 copies
        def shifted(f):
            s = assemble_spectrum(f)
            q = s.quotient
            largest = q.weights.index(max(q.weights))
            triples = [(deg + (i == largest), w - 1, True)
                       for i, (deg, w) in enumerate(zip(q.degrees, q.weights))]
            triples.extend(s.quotient_part.entries)
            return dataclasses.replace(s, combined=merge_spectrum(triples))

        monkeypatch.setattr(spectrum, "assemble_spectrum", shifted)
        report = verify_against_oracle(204)
        expected = compare_multisets(
            shifted(204).combined,
            merge_spectrum((v, 1, False) for v in raw_oracle_values(204)),
        )
        assert not report.matched and not expected.matched
        assert report.multiplicity_mismatches == expected.multiplicity_mismatches
        assert report.multiplicity_mismatches


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


class TestPassedInFactorization:
    """A Factorization not made by factorize is checked where it is used."""

    ENTRY_POINTS = [build_quotient, assemble_spectrum, build_full_graph, verify_against_oracle]

    @pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("n, factors, fault", [
        (12, ((3, 1), (4, 1)), "4 is not prime"),
        (30, ((2, 1), (15, 1)), "15 is not prime"),
        (36, ((2, 2), (3, 1)), "the prime powers do not multiply to n"),
        (1, (), "n is below 2"),
        (12, ((2, 2), (3, 1), (5, 0)), "an exponent is below 1"),
        (6, ((3, 1), (2, 1)), "the primes do not strictly ascend from 2"),
        (6, ((1, 1), (2, 1), (3, 1)), "the primes do not strictly ascend from 2"),
        (2**64, ((2, 10**30),), "the prime powers do not multiply to n"),
    ])
    def test_refuses_a_wrong_factorization(self, entry, n, factors, fault):
        with pytest.raises(ValueError, match=f"^not a factorization of {n}: {fault}$"):
            entry(Factorization(n, factors))

    @pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda f: f.__name__)
    def test_takes_a_right_one_as_factorize_gives_it(self, entry):
        assert entry(Factorization(12, ((2, 2), (3, 1)))) == entry(factorize(12))

    def test_factorize_gives_one_that_needs_no_check(self, monkeypatch):
        from cozero import numbers

        f = factorize(720)
        monkeypatch.setattr(numbers, "is_prime", lambda p: pytest.fail("checked again"))
        assert verify_against_oracle(f).matched

    @pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda f: f.__name__)
    def test_checks_a_passed_in_one_once(self, entry, monkeypatch):
        # the entry point checks it and passes a proven copy on, which no
        # later stage checks again
        from cozero import numbers

        calls = []
        original = numbers.is_prime
        monkeypatch.setattr(numbers, "is_prime", lambda p: calls.append(p) or original(p))
        entry(Factorization(3010, ((2, 1), (5, 1), (7, 1), (43, 1))))
        assert calls == [2, 5, 7, 43]


class TestIntegerTypes:
    """n of any integer type, numpy's too, gives what the same Python int
    gives, exact values included as Python ints; other types are refused."""

    @pytest.mark.parametrize("n, kind", [
        (n, kind) for n in (30, 720, 4526152, 3000000021)
        for kind in (int, np.int64, np.int32, np.uint64)
        if kind is int or n <= np.iinfo(kind).max
    ], ids=lambda v: getattr(v, "__name__", str(v)))
    def test_takes_any_integer_type(self, n, kind):
        assert factorize(kind(n)) == factorize(n)
        assert is_prime(kind(n)) == is_prime(n)
        assembled = assemble_spectrum(kind(n))
        assert assembled.combined.entries == assemble_spectrum(n).combined.entries
        assert all(type(e.value) is int for e in assembled.combined.entries if e.exact)
        if n < 1000:
            assert verify_against_oracle(kind(n)) == verify_against_oracle(n)

    @pytest.mark.parametrize("entry", [factorize, *TestPassedInFactorization.ENTRY_POINTS],
                             ids=lambda f: f.__name__)
    def test_refuses_a_float_and_gives_factorize_message_below_two(self, entry):
        with pytest.raises(TypeError):
            entry(30.0)
        with pytest.raises(ValueError, match="^factorize requires n >= 2, got -5$"):
            entry(-5)
