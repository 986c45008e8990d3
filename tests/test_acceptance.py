"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to stream the lines.
The brute-force oracle spectra are computed once per session and shared
across criteria.
"""

import time
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest

from cozero import (
    assemble_spectrum,
    build_full_graph,
    build_quotient,
    Factorization,
    compare_multisets,
    factorize,
    is_laplacian_integral,
    is_prime,
    quotient_connectivity_state,
    verify_against_oracle,
)
from cozero.eigen import SpectrumMultiset, merge_spectrum
from cozero.quotient import integer_laplacian, symmetric_laplacian
from reference import (
    adjacency,
    characteristic_polynomial,
    charpoly_p2q,
    closed_form_pq,
    component_count,
    eigenvalue_multiset,
    integer_part,
    laplacian,
)

TOL = 1e-6

P2Q_PAIRS = ((2, 3), (3, 2), (2, 5), (5, 2), (3, 5), (5, 3))
GENERAL_CASES = ((2, 2, 3, 1), (2, 3, 3, 1), (2, 2, 3, 2), (3, 2, 2, 2), (2, 3, 3, 2))


def prime_pairs_product_up_to(limit):
    pairs = []
    for p in range(2, limit):
        if not is_prime(p):
            continue
        for q in range(p + 1, limit):
            if is_prime(q) and p * q <= limit:
                pairs.append((p, q))
    return pairs


def composite_range(lo, hi):
    return [n for n in range(lo, hi + 1) if not is_prime(n)]


def conclude(index, description, violations, elapsed=None):
    status = "PASS" if not violations else "FAIL"
    timing = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"\nACCEPTANCE {index}: {status} - {description}{timing}")
    assert not violations, f"criterion {index}: {violations[:5]}"


@dataclass(frozen=True)
class SweepRecord:
    n: int
    vertex_count: int
    matched: bool
    max_deviation: float
    oracle: SpectrumMultiset
    full_trace: float
    full_norm: float
    components: int
    quotient: SpectrumMultiset
    quotient_trace: float
    quotient_norm: float
    quotient_components: int


@dataclass(frozen=True)
class Sweep:
    records: dict
    elapsed_seconds: float

    def items(self):
        return self.records.items()

    def __getitem__(self, n):
        return self.records[n]

    def __len__(self):
        return len(self.records)


@pytest.fixture(scope="session")
def sweep(oracle_spectrum):
    """Oracle-versus-assembly records for every non-prime n in [4, 300]."""
    started = time.perf_counter()
    records = {}
    for n in composite_range(4, 300):
        graph = build_full_graph(n)
        lap = laplacian(graph)
        oracle = oracle_spectrum(n)
        assembled = assemble_spectrum(n)
        comparison = compare_multisets(assembled.combined, oracle)
        q = build_quotient(n)
        sym = symmetric_laplacian(q)
        quotient_spec = eigenvalue_multiset(sym)
        records[n] = SweepRecord(
            n=n,
            vertex_count=graph.vertex_count,
            matched=comparison.matched,
            max_deviation=comparison.max_deviation,
            oracle=oracle,
            full_trace=float(np.trace(lap)),
            full_norm=float(np.linalg.norm(lap)),
            components=component_count(adjacency(graph)),
            quotient=quotient_spec,
            quotient_trace=float(np.trace(sym)),
            quotient_norm=float(np.linalg.norm(sym)),
            quotient_components=component_count(q.adjacency()),
        )
    return Sweep(records, time.perf_counter() - started)


def test_criterion_1_two_prime_closed_form(oracle_spectrum):
    """Every prime pair p < q with pq <= 400 reproduces the closed form."""
    started = time.perf_counter()
    violations = []
    pairs = prime_pairs_product_up_to(400)
    for p, q in pairs:
        n = p * q
        closed = closed_form_pq(p, q)
        assembled = assemble_spectrum(n)
        if integer_part(closed) != integer_part(assembled):
            violations.append((n, "integer part differs from the closed form"))
            continue
        quotient_gap = float(
            np.max(np.abs(closed.quotient_part.values() - assembled.quotient_part.values()))
        )
        if quotient_gap > TOL:
            violations.append((n, f"quotient part off by {quotient_gap:.2e}"))
            continue
        expected = {
            (0.0, 1),
            (float(p + q - 2), 1),
            (float(p - 1), q - 2),
            (float(q - 1), p - 2),
        }
        expected = {(v, m) for v, m in expected if m > 0}
        got = {(e.value, e.multiplicity) for e in closed.combined.entries}
        if got != expected:
            violations.append((n, f"closed form multiset {got} != {expected}"))
            continue
        cmp = compare_multisets(assembled.combined, oracle_spectrum(n))
        if not cmp.matched:
            violations.append((n, f"oracle deviation {cmp.max_deviation:.2e}"))
    elapsed = time.perf_counter() - started
    conclude(1, f"closed form for {len(pairs)} two-prime products (pq <= 400)",
             violations, elapsed)


def test_criterion_2_integrality_census():
    """Every n = pq with pq <= 400 reports an all-integer spectrum."""
    violations = []
    for p, q in prime_pairs_product_up_to(400):
        n = p * q
        if not is_laplacian_integral(assemble_spectrum(n)):
            violations.append(n)
        if not is_laplacian_integral(closed_form_pq(p, q)):
            violations.append((n, "closed form"))
    conclude(2, "integrality census over two-prime products", violations)


def test_criterion_3_quartic_polynomial_identity(oracle_spectrum):
    """Closed-form quartic equals the exact matrix charpoly; roots rebuild the oracle."""
    violations = []
    for p, q in P2Q_PAIRS:
        n = p * p * q
        exact = characteristic_polynomial(integer_laplacian(build_quotient(n)))
        closed = charpoly_p2q(p, q)
        if closed != exact:
            violations.append((n, f"coefficients {closed} != {exact}"))
            continue
        assembled = assemble_spectrum(n)
        triples = [
            (float(value), m, True)
            for value, m in integer_part(assembled).values()
            if m > 0
        ]
        # numpy's roots are the test-side reference; the library finds none
        triples.extend((r, 1, False) for r in np.roots(closed).real)
        rebuilt = merge_spectrum(triples)
        cmp = compare_multisets(rebuilt, oracle_spectrum(n))
        if not cmp.matched:
            violations.append((n, f"root union off by {cmp.max_deviation:.2e}"))
    conclude(3, "quartic charpoly identity for six p*p*q cases", violations)


def test_criterion_4_oracle_equivalence(sweep):
    """Assembly equals the brute-force spectrum for all non-prime n in [4, 300]."""
    violations = [
        (n, f"deviation {r.max_deviation:.2e}")
        for n, r in sweep.items()
        if not r.matched
    ]
    conclude(4, f"oracle equivalence on {len(sweep)} moduli", violations,
             sweep.elapsed_seconds)


def test_criterion_5_two_prime_power_family(oracle_spectrum):
    """The two-prime-power family from its factorization agrees with
    assembly from n, quotient size included.

    Both run the same lattice and assembly, so each case is also checked
    against the brute-force oracle, which shares no code with either.
    """
    violations = []
    for p, n1, q, n2 in GENERAL_CASES:
        n = p**n1 * q**n2
        general = assemble_spectrum(Factorization(n, tuple(sorted(((p, n1), (q, n2))))))
        assembled = assemble_spectrum(n)
        if integer_part(general) != integer_part(assembled):
            violations.append((n, "integer parts differ"))
            continue
        expected_quotient = (n1 + 1) * (n2 + 1) - 2
        if general.quotient_part.total_multiplicity != expected_quotient:
            violations.append(
                (n, f"quotient contributes {general.quotient_part.total_multiplicity}, "
                    f"expected {expected_quotient}")
            )
            continue
        cmp = compare_multisets(general.combined, assembled.combined)
        if not cmp.matched:
            violations.append((n, f"combined off by {cmp.max_deviation:.2e}"))
            continue
        cmp = compare_multisets(general.combined, oracle_spectrum(n))
        if not cmp.matched:
            violations.append((n, f"oracle deviation {cmp.max_deviation:.2e}"))
    conclude(5, f"two-prime-power family over {len(GENERAL_CASES)} cases", violations)


def test_criterion_6_structural_suite():
    """Class structure, adjacency equivalence, sizes, connectivity: no violations."""
    started = time.perf_counter()
    violations = []
    for n in range(2, 301):
        q = build_quotient(n)
        state = quotient_connectivity_state(q)
        if (state == "empty") != is_prime(n):
            violations.append((n, "quotient state misclassifies prime input"))
        if state == "empty":
            continue
        graph = build_full_graph(n)
        v = np.array(graph.vertices)
        g = np.gcd(v, n)
        by_definition = (v[:, None] % g[None, :] != 0) & (v[None, :] % g[:, None] != 0)
        a = adjacency(graph)
        if not np.array_equal(by_definition, a):
            violations.append((n, "definition and divisor adjacency differ"))
        class_sizes = Counter(graph.classes)
        for d, size in class_sizes.items():
            if size != factorize(n // d).totient:
                violations.append((n, f"class {d} has size {size}"))
        classes = np.array(graph.classes)
        divisors = sorted(class_sizes)
        for i, di in enumerate(divisors):
            idx_i = np.nonzero(classes == di)[0]
            if a[np.ix_(idx_i, idx_i)].any():
                violations.append((n, f"edges inside class {di}"))
            for dj in divisors[i + 1:]:
                idx_j = np.nonzero(classes == dj)[0]
                between = int(a[np.ix_(idx_i, idx_j)].sum())
                if between not in (0, len(idx_i) * len(idx_j)):
                    violations.append((n, f"partial join {di}-{dj}"))
        connected = component_count(q.adjacency()) == 1
        if (state == "connected") != connected:
            violations.append((n, "quotient connectivity disagrees with a search"))
    elapsed = time.perf_counter() - started
    conclude(6, "structural suite over all n <= 300", violations, elapsed)


def test_criterion_7_numerical_hygiene(sweep):
    """Trace identity, positive semidefiniteness, zero-multiplicity = components."""
    violations = []
    for n, r in sweep.items():
        full_sum = float(np.sum(r.oracle.values()))
        if abs(full_sum - r.full_trace) > 1e-8 * max(r.full_norm, 1.0):
            violations.append((n, "full-graph trace identity"))
        smallest = r.oracle.entries[-1].value
        if smallest < -1e-8:
            violations.append((n, f"negative eigenvalue {smallest:.2e}"))
        if r.oracle.zero_multiplicity() != r.components:
            violations.append(
                (n, f"zero multiplicity {r.oracle.zero_multiplicity()} != "
                    f"{r.components} components")
            )
        quotient_sum = float(np.sum(r.quotient.values()))
        if abs(quotient_sum - r.quotient_trace) > 1e-8 * max(r.quotient_norm, 1.0):
            violations.append((n, "quotient trace identity"))
        if r.quotient.entries and r.quotient.entries[-1].value < -1e-8:
            violations.append((n, "negative quotient eigenvalue"))
        if r.quotient.zero_multiplicity() != r.quotient_components:
            violations.append((n, "quotient zero multiplicity"))
    conclude(7, f"numerical hygiene across {2 * len(sweep)} solved spectra", violations)


def test_verify_cli_entry_matches_oracle_reports(sweep):
    """The verify operation agrees with the sweep on a few sampled moduli."""
    for n in (12, 30, 72, 243):
        report = verify_against_oracle(n)
        assert report.matched == sweep[n].matched
        assert report.vertex_count == sweep[n].vertex_count
