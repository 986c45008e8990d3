import argparse
import dataclasses
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from cozero import (
    AssembledSpectrum,
    SpectrumEntry,
    SpectrumMultiset,
    build_quotient,
    cli,
    factorize,
    is_prime,
    numbers,
)
from cozero import spectrum as sp
from cozero.cli import main
from cozero.quotient import full_graph_component_count, quotient_connectivity_state


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_calls(monkeypatch, name):
    """Record the arguments of every call to cozero.numbers.<name>.

    Patches the function in each cozero module that imported it, so calls
    between modules are seen too.
    """
    from cozero import numbers

    calls = []
    original = getattr(numbers, name)

    def counted(n):
        calls.append(n)
        return original(n)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("cozero") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def no_rho(monkeypatch):
    """Make any call to Pollard-Brent rho fail the test."""
    from cozero import numbers

    def pollard_brent(m):
        raise AssertionError(f"rho ran on {m}")

    monkeypatch.setattr(numbers, "_pollard_brent", pollard_brent)


class TestSpectrumCommand:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "spectrum", "15")
        assert code == 0
        assert out == "n=15: 6^1 4^1 2^3 0^1\n"

    def test_prime_is_degenerate(self, capsys):
        code, out, _ = run(capsys, "spectrum", "7")
        assert code == 2
        assert "degenerate" in out

    def test_prime_power_is_degenerate_but_prints(self, capsys):
        code, out, _ = run(capsys, "spectrum", "9")
        assert code == 2
        assert "0^2" in out
        assert "null graph" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "spectrum", "30", "--format", "json",
                           "--no-timestamp")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert doc["n"] == 30
        assert sum(e["multiplicity"] for e in doc["spectrum"]) == 21
        assert "timestamp" not in doc

    def test_json_timestamp_present_by_default(self, capsys):
        _, out, _ = run(capsys, "spectrum", "15", "--format", "json")
        assert "timestamp" in json.loads(out)

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "spectrum", "15", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "value,multiplicity,exact"

    def test_dot_is_rejected(self, capsys, monkeypatch):
        from cozero import spectrum

        def assemble(n):
            raise AssertionError("the refusal comes before the assembly")

        monkeypatch.setattr(spectrum, "assemble_spectrum", assemble)
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "15", "--format", "dot"])
        assert exc.value.code == 64
        assert "--format" in capsys.readouterr().err

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "spectrum", "30", "--format", "json",
                          "--no-timestamp")
        _, second, _ = run(capsys, "spectrum", "30", "--format", "json",
                           "--no-timestamp")
        assert first == second

    def test_json_assembles_once(self, capsys, monkeypatch):
        from cozero import spectrum

        calls = {"assemble_spectrum": 0, "build_quotient": 0}

        def counted(name):
            original = getattr(spectrum, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(spectrum, name, wrapper)

        counted("assemble_spectrum")
        counted("build_quotient")
        code, out, _ = run(capsys, "spectrum", "30", "--format", "json",
                           "--no-timestamp")
        assert code == 0
        assert calls == {"assemble_spectrum": 1, "build_quotient": 1}
        assert json.loads(out)["divisor_classes"][0] == {"d": 2, "size": 8, "D": 7}

    def test_csv_factors_once(self, capsys, monkeypatch):
        calls = count_calls(monkeypatch, "factorize")
        n = 999007 * 999023
        code, out, _ = run(capsys, "spectrum", str(n), "--format", "csv")
        assert code == 0
        assert out.splitlines()[1] == "1998028,1,true"
        assert calls == [n]

    def test_exact_values_above_two_to_the_53(self, capsys):
        # seven of these class values lie above 2**53, where a float rounds them
        n = 3 * 2**60
        q = build_quotient(n)
        code, out, _ = run(capsys, "spectrum", str(n), "--format", "csv")
        assert code == 0
        printed = {int(row.split(",")[0]) for row in out.splitlines()[1:]
                   if row.endswith(",true")}
        values = {D for D, w in zip(q.degrees, q.weights) if w > 1}
        assert max(values) > 2**53
        assert values <= printed

    @pytest.mark.parametrize("command", ["spectrum", "structure"])
    def test_refuses_n_from_two_to_the_63(self, capsys, command):
        code, out, err = run(capsys, command, str(3 * 2**64), "--format", "csv")
        assert code == 1
        assert out == ""
        assert "2**63" in err

    @pytest.mark.parametrize("command", ["spectrum", "structure", "integrality"])
    def test_refuses_n_from_two_to_the_63_before_factoring(
        self, capsys, monkeypatch, command
    ):
        no_rho(monkeypatch)
        # 1820275395151 * 1822274944367, just below the Miller-Rabin bound
        code, out, err = run(capsys, command, "3317042244431407466564417")
        assert code == 1
        assert out == ""
        assert "2**63" in err

    @pytest.mark.parametrize("command", ["spectrum", "structure", "integrality"])
    def test_prime_above_two_to_the_63_is_degenerate(self, capsys, monkeypatch, command):
        no_rho(monkeypatch)
        code, out, _ = run(capsys, command, "9223372036854775837")
        assert code == 2
        assert "degenerate" in out

    def test_prime_near_two_to_the_60_is_degenerate(self, capsys):
        code, out, _ = run(capsys, "spectrum", "1000000000000000003")
        assert code == 2
        assert "degenerate" in out

    def test_refuses_n_beyond_the_primality_bound(self, capsys):
        # the least strong pseudoprime to all 13 Miller-Rabin bases
        code, out, err = run(capsys, "spectrum", "3317044064679887385961981")
        assert code == 1
        assert out == ""
        assert "proven only below 3317044064679887385961981" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "spec.txt"
        code, out, _ = run(capsys, "spectrum", "15", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text() == "n=15: 6^1 4^1 2^3 0^1\n"

    def test_unwritable_out_is_one_line_error(self, capsys, tmp_path):
        missing = tmp_path / "missing" / "x.csv"
        for target, kind in ((missing, "No such file or directory"),
                             (tmp_path, "Is a directory")):
            code, out, err = run(capsys, "spectrum", "15", "--format", "csv",
                                 "--out", str(target))
            assert code == 1
            assert out == ""
            assert err.startswith("cozero: ") and err.count("\n") == 1
            assert kind in err and str(target) in err

    def test_eigensolver_cap_is_one_line_error(self, capsys, monkeypatch):
        from cozero import eigen

        monkeypatch.setattr(eigen, "QL_MAX_ITERATIONS", 0)
        code, out, err = run(capsys, "spectrum", "30")
        assert code == 1
        assert out == ""
        assert err.startswith("cozero: implicit QL cap of 0 exhausted (residual ")
        assert err.count("\n") == 1


def prime_in(rng, lo, hi):
    while True:
        p = rng.randrange(lo, hi)
        if is_prime(p):
            return p


@pytest.fixture
def fresh_scan_table(monkeypatch):
    """An unbuilt table for the vectorized scan, in place of the shared one."""
    table = [None] * len(numbers._INVERSES)
    monkeypatch.setattr(numbers, "_INVERSES", table)
    return table


class TestFactoringPath:
    """The spectra of p^a q^b with primes up to 10**6 are factored by the
    small primes' gcd and the vectorized scan, never by rho, and n that
    never reach the scan leave its table unbuilt."""

    def test_large_prime_families_factor_without_rho(self, capsys, monkeypatch):
        no_rho(monkeypatch)
        rng = random.Random(31)
        cases = []
        for _ in range(20):
            p = prime_in(rng, 10**5, 10**6)
            q = prime_in(rng, p + 1, 10**6 + 1)
            cases.append(((p, 1), (q, 1)))
        for small, e in ((2, 3), (3, 2), (5, 1)):
            cases.append(((small, e), (prime_in(rng, 10**5, 10**6), 1)))
        cases.append(((3, 1), (100003, 2)))
        for factors in cases:
            n = math.prod(p**e for p, e in factors)
            assert factorize(n).factors == factors
            code, out, _ = run(capsys, "spectrum", str(n), "--format", "csv")
            assert code == 0 and out.startswith("value,multiplicity,exact\n")

    def test_rho_splits_primes_above_the_scan(self, monkeypatch):
        calls = count_calls(monkeypatch, "_pollard_brent")
        n = 1048583 * 1048589
        assert factorize(n).factors == ((1048583, 1), (1048589, 1))
        assert calls == [n]

    @pytest.mark.parametrize("n", [6, 720720, 1000000007])
    def test_smooth_and_prime_n_leave_the_table_unbuilt(
        self, capsys, fresh_scan_table, n
    ):
        code, _, _ = run(capsys, "spectrum", str(n), "--format", "csv")
        assert code in (0, 2)
        assert all(segment is None for segment in fresh_scan_table)

    def test_most_divisors_below_two_to_the_63_leave_the_table_unbuilt(
        self, fresh_scan_table
    ):
        assert len(factorize(897612484786617600).factors) == 12
        assert all(segment is None for segment in fresh_scan_table)

    @pytest.mark.parametrize(
        "factors,segments",
        [
            # isqrt(n) = 316166 lies in the third segment of 2**17 numbers;
            # the scan works down to 100291 in the first, and 996703 left
            # over is below 1000**2, so prime
            (((100291, 1), (996703, 1)), {0, 1, 2}),
            # isqrt(n) is above 2**20: the last segment holds 1048573, and
            # Miller-Rabin settles 1048583
            (((1048573, 1), (1048583, 1)), {7}),
        ],
    )
    def test_a_scan_builds_only_the_segments_it_reaches(
        self, fresh_scan_table, factors, segments
    ):
        assert factorize(math.prod(p for p, _ in factors)).factors == factors
        built = {k for k, segment in enumerate(fresh_scan_table) if segment is not None}
        assert built == segments


class TestVerifyCommand:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "30")
        assert code == 0
        assert out.startswith("n=30: PASS")

    def test_two_prime_case_reports_integral(self, capsys):
        code, out, _ = run(capsys, "verify", "15")
        assert code == 0
        assert "integral=true" in out

    def test_prime_degenerate(self, capsys):
        code, out, _ = run(capsys, "verify", "7919")
        assert code == 2
        assert "degenerate" in out

    def test_cap_exceeded(self, capsys):
        # 40022 = 2 * 20011 has 20011 vertices: it is factored, then refused
        # before any graph is built, so the refusal takes no large array
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "verify", "40022")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (3, "")
        assert err == "cozero: n = 40022 needs 20011 vertices, above the cap of 20000\n"
        assert peak < 2**20

    def test_refuses_above_the_cap_before_factoring(self, capsys, monkeypatch):
        no_rho(monkeypatch)
        # 1820275395151 * 1822274944367 has at least isqrt(n) - 1 vertices
        code, out, err = run(capsys, "verify", "3317042244431407466564417")
        assert code == 3
        assert out == ""
        assert "at least 1821274895348 vertices" in err

    def test_refuses_by_the_vertex_bound_before_factoring(self, capsys, monkeypatch):
        # a composite n has at least isqrt(n) - 1 vertices, the multiples
        # of its least prime, so 2**64 is refused unfactored
        calls = count_calls(monkeypatch, "factorize")
        code, out, err = run(capsys, "verify", str(2**64))
        assert (code, out) == (3, "")
        assert "needs at least 4294967295 vertices" in err
        assert calls == []

    def test_prime_above_the_cap_bound_is_degenerate(self, capsys, monkeypatch):
        no_rho(monkeypatch)
        code, out, _ = run(capsys, "verify", "9223372036854775837")
        assert code == 2
        assert "degenerate" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "verify", "15", "--format", "json",
                           "--no-timestamp")
        assert code == 0
        doc = json.loads(out)
        assert doc["matched"] is True
        assert doc["vertex_count"] == 6

    def test_factors_once(self, capsys, monkeypatch):
        calls = {name: count_calls(monkeypatch, name)
                 for name in ("factorize", "is_prime")}
        code, out, _ = run(capsys, "verify", "998")
        assert code == 0
        assert out.startswith("n=998: PASS")
        assert calls == {"factorize": [998], "is_prime": []}


class TestScanCommand:
    def test_factors_each_n_once(self, capsys, monkeypatch):
        calls = count_calls(monkeypatch, "factorize")
        code, _, _ = run(capsys, "scan", "4", "30")
        assert code == 0
        assert calls == list(range(4, 31))

    def test_two_prime_filter(self, capsys):
        code, out, _ = run(capsys, "scan", "6", "40", "--filter", "pq",
                           "--no-timestamp")
        assert code == 0
        lines = out.splitlines()
        ns = [int(line.split(":")[0][2:]) for line in lines if line.startswith("n=")]
        assert ns == [6, 10, 14, 15, 21, 22, 26, 33, 34, 35, 38, 39]
        assert ns == sorted(ns)
        assert "0 failures" in lines[-1]
        assert f"{len(ns)} integral" in lines[-1]

    def test_single_value_range(self, capsys):
        code, out, _ = run(capsys, "scan", "6", "6", "--no-timestamp")
        assert code == 0
        assert out.splitlines()[0].startswith("n=6: PASS")

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "scan", "6", "20", "--filter", "p2q",
                           "--format", "json", "--no-timestamp")
        assert code == 0
        doc = json.loads(out)
        assert [row["n"] for row in doc["rows"]] == [12, 18, 20]
        assert doc["failures"] == 0

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_jobs_is_unknown(self, capsys, jobs):
        # every n is verified in the calling process; there are no workers
        with pytest.raises(SystemExit) as exc:
            main(["scan", "4", "9", "--jobs", jobs])
        assert exc.value.code == 64
        assert "--jobs" in capsys.readouterr().err

    def test_bad_range_is_usage_error(self, capsys):
        code, _, err = run(capsys, "scan", "30", "6")
        assert code == 64
        assert "lo" in err

    def test_fail_row_keeps_its_numbers(self, capsys, monkeypatch):
        # a FAIL row reads as verify's verdict line does
        report = cli.sp.verify_against_oracle(30)
        mismatched = dataclasses.replace(report, matched=False, max_deviation=0.5)
        monkeypatch.setattr(cli.sp, "verify_against_oracle", lambda n: mismatched)
        verdict = "n=30: FAIL (vertices=21, max_deviation=5.000e-01, integral=false)"
        code, out, _ = run(capsys, "scan", "30", "30", "--no-timestamp")
        assert code == 1
        assert out.splitlines() == [verdict, "checked 1 values, 1 failures, 0 integral"]
        code, out, _ = run(capsys, "verify", "30")
        assert (code, out) == (1, verdict + "\n")

    @pytest.mark.parametrize("family", cli.FILTERS)
    def test_refused_n_is_a_cap_row_under_every_filter(self, capsys, monkeypatch, family):
        # factoring 10**30 + 1 reaches a cofactor above the Miller-Rabin
        # bound; its vertex bound refuses it before that, as verify does
        no_rho(monkeypatch)
        calls = count_calls(monkeypatch, "factorize")
        n = 10**30 + 1
        code, out, err = run(capsys, "scan", str(n), str(n + 1), "--filter", family,
                             "--format", "json", "--no-timestamp")
        assert code == 1
        assert err == ""
        rows = json.loads(out)["rows"]
        assert [(r["n"], r["status"]) for r in rows] == [(n, "CAP"), (n + 1, "CAP")]
        assert "at least 999999999999999 vertices" in rows[0]["error"]
        assert calls == []
        code, out, _ = run(capsys, "verify", str(n))
        assert code == 3

    @pytest.mark.parametrize("family", cli.FILTERS)
    def test_failed_factoring_is_an_error_row_under_every_filter(self, capsys, family):
        # every n under the vertex bound factors; above it, the admission
        # tests primality alone, and cannot decide it for this n, the least
        # at or above MILLER_RABIN_LIMIT with no prime factor below
        # SMALL_PRIME_LIMIT; the scan still reports n
        from cozero.numbers import MILLER_RABIN_LIMIT, SMALL_PRIME_LIMIT

        n = 3317044064679887385961981
        assert n == MILLER_RABIN_LIMIT
        assert all(n % p for p in range(2, SMALL_PRIME_LIMIT))
        code, out, err = run(capsys, "scan", str(n), str(n), "--filter", family,
                             "--format", "json", "--no-timestamp")
        assert code == 1
        assert err == ""
        rows = json.loads(out)["rows"]
        assert [(r["n"], r["status"]) for r in rows] == [(n, "ERROR")]
        assert rows[0]["error"].startswith(f"cannot decide whether {n} is prime")

    def test_cap_exceeded_is_a_cap_row(self, capsys):
        code, out, err = run(capsys, "scan", "40022", "40022", "--no-timestamp")
        assert (code, err) == (1, "")
        assert out.splitlines() == [
            "n=40022: CAP n = 40022 needs 20011 vertices, above the cap of 20000",
            "checked 1 values, 1 failures, 0 integral",
        ]


class TestStructureCommand:
    def test_dot_quotient(self, capsys):
        code, out, _ = run(capsys, "structure", "30", "--format", "dot")
        assert code == 0
        assert out.startswith("graph divisor_quotient_30 {")
        assert out.count(" -- ") == 9

    def test_text_table(self, capsys):
        code, out, _ = run(capsys, "structure", "12")
        assert code == 0
        assert "4 proper divisors" in out
        assert "edges: 2-3 3-4 4-6" in out

    def test_boundary_note_for_four(self, capsys):
        code, out, _ = run(capsys, "structure", "4")
        assert code == 0
        assert "boundary" in out

    def test_csv_is_laplacian(self, capsys):
        code, out, _ = run(capsys, "structure", "12", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "2,-2,0,0"

    def test_prime_degenerate(self, capsys):
        code, out, _ = run(capsys, "structure", "11")
        assert code == 2

    def test_json(self, capsys):
        code, out, _ = run(capsys, "structure", "30", "--format", "json",
                           "--no-timestamp")
        doc = json.loads(out)
        assert doc["quotient_connectivity"] == "connected"
        assert len(doc["edges"]) == 9

    def test_json_factors_once(self, capsys, monkeypatch):
        calls = count_calls(monkeypatch, "factorize")
        n = 999007 * 999023
        code, out, _ = run(capsys, "structure", str(n), "--format", "json",
                           "--no-timestamp")
        assert code == 0
        assert json.loads(out)["full_graph_connected"] is True
        assert calls == [n]


class TestPrimeJson:
    """Prime n has an empty graph: JSON still carries each command's payload."""

    @pytest.mark.parametrize("n", [7, 9223372036854775837])
    @pytest.mark.parametrize("command", ["spectrum", "verify", "structure", "integrality"])
    def test_is_json_with_schema(self, capsys, command, n):
        code, out, _ = run(capsys, command, str(n), "--format", "json", "--no-timestamp")
        assert code == 2
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert doc["n"] == n
        assert out == json.dumps(doc, indent=2) + "\n"

    def test_payloads(self, capsys):
        docs = {}
        for command in ("verify", "structure", "integrality"):
            _, out, _ = run(capsys, command, "7", "--format", "json", "--no-timestamp")
            docs[command] = json.loads(out)
        assert docs["verify"]["matched"] is True
        assert docs["verify"]["vertex_count"] == 0
        assert docs["structure"]["divisor_classes"] == docs["structure"]["edges"] == []
        assert docs["structure"]["quotient_connectivity"] == "empty"
        assert docs["structure"]["full_graph_connected"] is None
        assert docs["integrality"]["degenerate"] == "empty"

    def test_payload_keys_match_composite_n(self, capsys):
        for command in ("verify", "structure", "integrality"):
            keys = []
            for n in ("7", "15"):
                _, out, _ = run(capsys, command, n, "--format", "json", "--no-timestamp")
                keys.append(list(json.loads(out)))
            assert keys[0] == keys[1], command


class TestIntegralityCommand:
    def test_integral_case(self, capsys):
        code, out, _ = run(capsys, "integrality", "15")
        assert code == 0
        assert "laplacian_integral=true" in out

    def test_non_integral_case(self, capsys):
        code, out, _ = run(capsys, "integrality", "12")
        assert code == 0
        assert "laplacian_integral=false" in out

    def test_prime_degenerate(self, capsys):
        code, out, _ = run(capsys, "integrality", "13")
        assert code == 2


# strings that look like the emitter's separators or brackets, or need escapes
AWKWARD_STRINGS = ["", "a", "\0", "x\0y", '"', "\\", "},", "],", ",\0", "},\0{",
                   "{", "[", ": ", "\n\t", "\u00e9t\u00e9", "\u65e5\u672c", "\U0001f600"]
SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, 0.1]


def random_scalar(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return rng.choice(SPECIAL_FLOATS + [rng.uniform(-1, 1) * 10.0 ** rng.randint(-20, 20)])
    if kind == 1:
        return rng.choice([0, -1, 2**64 + 1, -(2**70), rng.randint(-10**6, 10**6)])
    if kind == 2:
        return rng.choice([True, False, None])
    return rng.choice(AWKWARD_STRINGS) + rng.choice(AWKWARD_STRINGS)


def random_tree(rng, depth=0):
    """A random JSON tree; flat containers and lists of them come up often."""
    kind = rng.randrange(10)
    if depth > 3 or kind < 3:
        return random_scalar(rng)
    size = rng.randrange(5)
    if kind < 5:
        return {rng.choice(AWKWARD_STRINGS) + str(i): random_tree(rng, depth + 1)
                for i in range(size)}
    if kind < 7:
        return [random_tree(rng, depth + 1) for _ in range(size)]
    if kind == 7:
        return tuple(random_tree(rng, depth + 1) for _ in range(size))
    if kind == 8:
        return [{rng.choice(AWKWARD_STRINGS) + str(i): random_scalar(rng)
                 for i in range(rng.randrange(3))} for _ in range(size)]
    return [[random_scalar(rng) for _ in range(rng.randrange(3))] for _ in range(size)]


class TestJsonEmitter:
    @pytest.mark.parametrize("value", [
        {}, [], (), {"a": {}}, [[]], [[], []], [{}, {"a": 1}], [{"a": 1}, {}],
        [[1], (2, 3)], [{"a": 1}, [1]], [[1, [2]], [3]], {"a": [[1, 2], [3, 4]]},
        [{"a": 1, "b": [2]}], {"x": float("nan"), "y": [math.inf, -math.inf, -0.0]},
        [2**64 + 1, -(2**70), True, False, None], {s: s for s in AWKWARD_STRINGS},
        [{s: [s]} for s in AWKWARD_STRINGS], [[s, s] for s in AWKWARD_STRINGS],
        [[{"a": [1, {"b": ()}]}]], "},\0{", 7, None,
    ])
    def test_matches_json_dumps(self, value):
        assert cli._json_text(value) == json.dumps(value, indent=2)

    def test_matches_json_dumps_on_random_trees(self):
        for seed in range(3000):
            tree = random_tree(random.Random(seed))
            assert cli._json_text(tree) == json.dumps(tree, indent=2), seed

    @pytest.mark.parametrize("value", [{"a": {1, 2}}, [b"x"], {"a": [1.5, 2j]}])
    def test_refuses_other_types(self, value):
        with pytest.raises(TypeError, match="not JSON serializable"):
            cli._json_text(value)

    @pytest.mark.parametrize("argv", [
        ["spectrum", "30"], ["verify", "30"], ["structure", "30"],
        ["integrality", "30"], ["scan", "4", "20"],
    ])
    def test_commands_never_run_the_python_encoder(self, capsys, monkeypatch, argv):
        # json.dumps with an indent builds its pure-Python encoder here
        # (before CPython 3.13); the emitter must not reach it
        def refuse(*args, **kwargs):
            raise AssertionError("the pure-Python JSON encoder ran")

        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        code, out, _ = run(capsys, *argv, "--format", "json", "--no-timestamp")
        assert code == 0
        assert json.loads(out)["schema"] == 1


def spectrum_doc(assembled):
    """spectrum's JSON document as a dict per table row, with no timestamp."""
    q, entries = assembled.quotient, assembled.combined.entries
    return {
        "schema": 1,
        "n": assembled.n,
        "vertex_count": assembled.vertex_count,
        "divisor_classes": [
            {"d": d, "size": w, "D": deg} for d, w, deg in zip(q.divisors, q.weights, q.degrees)
        ],
        "spectrum": [
            {"value": e.value, "multiplicity": e.multiplicity, "exact": e.exact} for e in entries
        ],
        "laplacian_integral": sp.is_laplacian_integral(assembled),
        "oracle_checked": False,
        "max_deviation": None,
        "degenerate": assembled.degenerate,
    }


def structure_doc(n):
    """structure's JSON document as a dict per class row, with no timestamp."""
    q = build_quotient(n)
    return {
        "schema": 1,
        "n": n,
        "divisor_classes": [
            {"d": d, "size": w, "D": deg} for d, w, deg in zip(q.divisors, q.weights, q.degrees)
        ],
        "edges": [list(e) for e in q.edges()],
        "quotient_connectivity": quotient_connectivity_state(q),
        "full_graph_connected": None if q.is_empty else full_graph_component_count(q) == 1,
        "boundary_case": n == 4,
    }


class TestJsonTables:
    """spectrum and structure write their tables from tuples; the bytes
    must be those of the document with a dict per row, as the emitter
    writes it and as json.dumps(doc, indent=2) does."""

    def assert_renders(self, capsys, monkeypatch, command, ns):
        assembled = []
        assemble = sp.assemble_spectrum
        monkeypatch.setattr(sp, "assemble_spectrum", lambda n: assembled.append(assemble(n))
                            or assembled[-1])
        for n in ns:
            code, out, _ = run(capsys, command, str(n), "--format", "json", "--no-timestamp")
            assert code in (0, 2), n
            doc = spectrum_doc(assembled.pop()) if command == "spectrum" else structure_doc(n)
            assert out == cli._json_text(doc) + "\n", n
            assert out == json.dumps(json.loads(out), indent=2) + "\n", n

    @pytest.mark.parametrize("command", ["spectrum", "structure"])
    def test_every_n_below_3000(self, capsys, monkeypatch, command):
        self.assert_renders(capsys, monkeypatch, command, range(2, 3000))

    @pytest.mark.parametrize("n", [720720, 735134400, 7, 2**61 - 1, 81, 2**40])
    @pytest.mark.parametrize("command", ["spectrum", "structure"])
    def test_large_prime_and_prime_power_n(self, capsys, monkeypatch, command, n):
        self.assert_renders(capsys, monkeypatch, command, [n])

    def test_non_finite_values(self):
        entries = SpectrumMultiset((
            SpectrumEntry(math.inf, 1, False), SpectrumEntry(2**60 + 3, 2, True),
            SpectrumEntry(1e300, 1, False), SpectrumEntry(0.1, 4, False),
            SpectrumEntry(-0.0, 1, False), SpectrumEntry(5e-324, 1, False),
            SpectrumEntry(math.nan, 1, False), SpectrumEntry(-math.inf, 3, False),
        ))
        assembled = AssembledSpectrum(12, build_quotient(12), entries, entries, None)
        doc = {"schema": 1, **cli._spectrum_report(assembled)}
        assert cli._json_text(doc) == json.dumps(spectrum_doc(assembled), indent=2)

    @pytest.mark.parametrize("indent", ["", "  ", "      "])
    def test_table_at_any_depth(self, indent):
        keys = tuple(s + str(i) for i, s in enumerate(AWKWARD_STRINGS))
        cells = ["%s", "100%", *AWKWARD_STRINGS]
        columns = [[cli._string_text(cells[(k + r) % len(cells)]) for r in range(4)]
                   for k in range(len(keys))]
        rows = [{key: cells[(k + r) % len(cells)] for k, key in enumerate(keys)} for r in range(4)]
        table = cli._Table(keys, tuple(columns))
        assert table.text(indent) == json.dumps(rows, indent=2).replace("\n", "\n" + indent)
        assert cli._json_text({"a": [table, 1]}) == json.dumps({"a": [rows, 1]}, indent=2)
        assert cli._Table(keys, tuple([] for _ in keys)).text(indent) == "[]"


# argvs that main parses through the top parser (help, an unknown command,
# arguments before the command word) or dispatches to a sub-parser: usage
# errors, help texts, abbreviations and valid calls of every command
USAGE_CORPUS = [
    [], ["-h"], ["--help"], ["--he"], ["frobnicate", "30"], ["spec", "30"],
    ["--no-timestamp", "spectrum", "30"], ["--", "spectrum", "30"], ["-h", "spectrum"],
    ["spectrum"], ["spectrum", "1"], ["spectrum", "x"], ["spectrum", "30", "31"],
    ["spectrum", "30", "--bogus"], ["spectrum", "--bogus", "30"],
    ["spectrum", "30", "--cap", "5"], ["spectrum", "30", "--jobs"],
    ["spectrum", "30", "--full"], ["spectrum", "30", "--tol"],
    ["spectrum", "30", "--form", "csv"], ["spectrum", "30", "--no-t"],
    ["spectrum", "30", "--", "--x"], ["spectrum", "--", "30"], ["spectrum", "--format"],
    ["spectrum", "30", "--format", "dot"], ["spectrum", "30", "extra", "--bogus"],
    ["spectrum", "-h"], ["verify", "--help"], ["spectrum", "6", "-h", "--bogus"],
    ["scan", "4", "9", "--filter", "zz"], ["scan", "4", "9", "--jobs", "2"],
    ["scan", "4"], ["verify", "30", "--format", "csv"], ["structure", "30", "--format", "svg"],
    ["integrality", "-h"],
    ["spectrum", "30", "--format=json", "--no-timestamp", "--out", "s.json"],
    ["verify", "-5"], ["verify", "30", "--format", "json"],
    ["scan", "4", "9", "--fil", "pq", "--format", "csv"],
    ["structure", "30", "--format", "dot"], ["integrality", "12", "--no-timestamp"],
]


class TestUsageErrors:
    @pytest.mark.parametrize("argv", USAGE_CORPUS, ids=lambda argv: " ".join(argv) or "(none)")
    def test_main_parses_as_the_top_parser(self, capsys, monkeypatch, argv):
        # main enters a command's sub-parser directly; what it prints, its
        # exit code and the Namespace it runs the command on must be the top
        # parser's on the same argv
        monkeypatch.setenv("COLUMNS", "80")
        parser, commands = cli._build_parser()
        dispatched = []
        for name, command in commands.items():
            monkeypatch.setitem(commands, name, command._replace(
                run=lambda args: dispatched.append(args) or 0))
        got = in_process(capsys, argv)
        try:
            want = vars(parser.parse_args(argv))
            code = 0
        except SystemExit as exc:
            want, code = None, exc.code
        assert got == (*capsys.readouterr(), code)
        assert [vars(args) for args in dispatched] == ([want] if want else [])

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "30"])
        assert exc.value.code == 64

    def test_tolerance_flags_are_unknown(self, capsys):
        # the tolerances are constants of cozero.eigen, not options
        for argv in (["spectrum", "15", "--tol", "1e-6"],
                     ["verify", "15", "--merge-tol", "1e-6"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 64

    @pytest.mark.parametrize("argv", [
        ["verify", "30", "--format", "csv"],
        ["verify", "30", "--format", "dot"],
        ["integrality", "12", "--format", "csv"],
        ["integrality", "12", "--format", "dot"],
        ["scan", "4", "8", "--format", "dot"],
        ["spectrum", "30", "--cap", "5"],
        ["integrality", "12", "--cap", "1"],
        ["structure", "30", "--format", "svg"],
        ["structure", "30", "--cap", "1"],
        ["structure", "30", "--format", "dot", "--cap", "1"],
    ])
    def test_options_a_command_does_not_use_are_refused(self, capsys, argv):
        # each command takes only the formats it renders, and no command
        # takes --cap
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert argv[-2] in err

    @pytest.mark.parametrize("flag", [["--cap", "100"], ["--full"]], ids=["cap", "full"])
    @pytest.mark.parametrize("argv", [
        ["verify", "30"],
        ["scan", "4", "9"],
        ["structure", "30"],
        ["structure", "30", "--format", "dot"],
    ], ids=["verify", "scan", "structure", "structure-dot"])
    def test_removed_flags_are_unknown(self, capsys, argv, flag):
        # the vertex cap is the constant cozero.VERTEX_CAP, not an option,
        # and structure renders the quotient only: the full graph is built
        # for the oracle alone
        with pytest.raises(SystemExit) as exc:
            main([*argv, *flag])
        assert exc.value.code == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert f"unrecognized arguments: {' '.join(flag)}" in err

    def test_missing_argument(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum"])
        assert exc.value.code == 64

    def test_n_below_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "1"])
        assert exc.value.code == 64
        assert "argument n: must be an integer >= 2, got '1'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify", "1"], ["verify", "-5"], ["spectrum", "0"], ["structure", "1"],
        ["integrality", "1"], ["verify", "1", "--format", "json"], ["scan", "1", "4"],
    ])
    def test_n_below_two_is_a_usage_error_on_every_command(self, capsys, argv):
        # scan's range check and the parser's type give the same exit code
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert code == 64
        assert out == "" and err


SRC = Path(cli.__file__).resolve().parents[1]


def fresh_process(argv, env):
    """stdout, stderr and exit code of `python -m cozero.cli` in a new interpreter."""
    env = dict(env, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", "cozero.cli", *argv],
                          capture_output=True, text=True, env=env)
    return done.stdout, done.stderr, done.returncode


def in_process(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return captured.out, captured.err, code


class TestParserReuse:
    def test_later_calls_build_no_parser(self, capsys, monkeypatch, tmp_path):
        assert run(capsys, "spectrum", "15")[0] == 0
        built = []
        original = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(type(self))
            original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert run(capsys, "verify", "30", "--format", "json")[0] == 0
        assert run(capsys, "structure", "12", "--format", "csv")[0] == 0
        assert run(capsys, "integrality", "12")[0] == 0
        assert run(capsys, "scan", "4", "9")[0] == 0
        assert run(capsys, "spectrum", "30", "--out", str(tmp_path / "s.txt"))[0] == 0
        assert built == []

    @pytest.mark.parametrize("argv", [
        ["spectrum", "30", "--format", "csv"], ["verify", "30"], ["scan", "4", "9"],
        ["structure", "12", "--format", "dot"], ["integrality", "12", "--format", "json"],
    ], ids=lambda argv: argv[0])
    def test_commands_skip_the_top_parser(self, capsys, monkeypatch, argv):
        # the top parser's pass over the tokens is what dispatching saves;
        # patched on the instance only, since the sub-parsers share its class
        parser, _ = cli._build_parser()

        def refuse(*args, **kwargs):
            raise AssertionError("the top parser ran")

        monkeypatch.setitem(vars(parser), "parse_known_args", refuse)
        with pytest.raises(AssertionError, match="the top parser ran"):
            main(["--no-timestamp", *argv])
        assert run(capsys, *argv)[0] == 0

    def test_in_process_sequence_matches_fresh_processes(self, capsys, tmp_path):
        # each pair checks that nothing of one call leaks into the next
        sequence = [
            ["verify", "40022"],
            ["verify", "30"],
            ["spectrum", "30", "--frobnicate"],
            ["structure", "30", "--format", "dot", "--full"],
            ["structure", "30", "--format", "dot"],
            ["spectrum", "30", "--format", "json", "--no-timestamp", "--out", "{out}"],
            ["verify", "40022", "--format", "json", "--no-timestamp"],
            ["verify", "30", "--format", "json", "--no-timestamp"],
        ]
        results = []
        for i, argv in enumerate(sequence):
            out_file = tmp_path / f"in{i}.json"
            results.append(in_process(
                capsys, [a.format(out=out_file) for a in argv]))
        assert [r[2] for r in results] == [3, 0, 64, 64, 0, 0, 3, 0]

        for i, argv in enumerate(sequence):
            out_file = tmp_path / f"fresh{i}.json"
            expected = fresh_process([a.format(out=out_file) for a in argv], os.environ)
            assert results[i] == expected, argv
            if "{out}" in argv:
                assert (tmp_path / f"in{i}.json").read_text() == out_file.read_text()


def test_import_leaves_multiprocessing_out():
    # no command starts worker processes, so none imports multiprocessing,
    # scan's default path included
    code = (
        "import sys\n"
        "from cozero import cli\n"
        "print('multiprocessing' in sys.modules)\n"
        "cli.main(['scan', '4', '9', '--out', sys.argv[1]])\n"
        "cli.main(['spectrum', '30', '--out', sys.argv[1]])\n"
        "print('multiprocessing' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code, os.devnull],
                          capture_output=True, text=True, env=env, check=True)
    assert done.stdout.split() == ["False", "False"]
