"""Output checks: the program's printed results against the references.

Pure Python (no numpy), so the checking process stays small. Each check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
from fractions import Fraction

# eigenvalue tolerance: relative part scaled by the largest weighted
# degree (the quotient's norm grows with it), absolute part covering the
# program's 1e-6 merge and integer-snapping tolerances
VALUE_RTOL = 1e-8
VALUE_ATOL = 1e-5
# an eigenvalue this close to 0 counts as zero; the CLI's default --tol
ZERO_TOL = 1e-6
# the CLI's default comparison tolerance for verify
MATCH_TOL = 1e-6


def root_multiplicity(coeffs: list[int], k: int) -> int:
    """Order of vanishing at the integer k of an integer polynomial (leading coefficient first)."""
    count = 0
    poly = list(coeffs)
    while len(poly) > 1:
        quotient = [poly[0]]
        for c in poly[1:]:
            quotient.append(c + k * quotient[-1])
        if quotient.pop() != 0:
            break
        count += 1
        poly = quotient
    return count


def parse_csv_spectrum(text: str) -> list[tuple]:
    lines = text.splitlines()
    if not lines or lines[0] != "value,multiplicity,exact":
        raise ValueError("missing CSV header")
    entries = []
    for line in lines[1:]:
        value, mult, exact = line.split(",")
        is_exact = exact == "true"
        if exact not in ("true", "false"):
            raise ValueError(f"bad exact flag {exact!r}")
        entries.append((int(value) if is_exact else float(value), int(mult), is_exact))
    return entries


def _expected_values(ref: dict) -> list[tuple]:
    """(value, multiplicity) of the true spectrum, descending."""
    values = [(deg, w - 1) for _, w, deg in ref["classes"] if w > 1]
    values.extend((lam, 1) for lam in ref["quotient_eigenvalues"])
    return sorted(values, key=lambda vm: -vm[0])


def spectrum_problems(entries: list[tuple], ref: dict) -> list[str]:
    """Checks of a (value, multiplicity, exact) table against the references."""
    problems = []
    total = sum(m for _, m, _ in entries)
    if total != ref["vertex_count"]:
        problems.append(f"{total} eigenvalues, expected {ref['vertex_count']}")
    if any(m < 1 for _, m, _ in entries):
        problems.append("non-positive multiplicity")
    if any(a[0] <= b[0] for a, b in zip(entries, entries[1:])):
        problems.append("values are not strictly descending")
    if any(exact and not isinstance(v, int) for v, _, exact in entries):
        problems.append("an exact value is not printed as an integer")
    if problems:
        return problems

    tol = VALUE_ATOL + VALUE_RTOL * max(1, ref["max_degree"])
    worst = _multiset_deviation(entries, _expected_values(ref))
    if worst > tol:
        problems.append(f"eigenvalues off by {worst:.3e} (tolerance {tol:.3e})")

    # trace identities: tr L = sum w*D, tr L^2 = sum w*D^2 + sum w*D
    numeric = [(Fraction(v), m) for v, m, exact in entries if not exact]
    slack = sum(m for _, m in numeric) * tol
    biggest = max((abs(v) for v, _ in numeric), default=Fraction(0))
    tr1 = sum(Fraction(v) * m for v, m, _ in entries)
    tr2 = sum(Fraction(v) ** 2 * m for v, m, _ in entries)
    want1 = sum(w * deg for _, w, deg in ref["classes"])
    want2 = sum(w * deg * deg for _, w, deg in ref["classes"]) + want1
    if abs(tr1 - want1) > slack:
        problems.append(f"tr L = {float(tr1):.6e}, expected {want1}")
    if abs(tr2 - want2) > slack * (2 * biggest + tol):
        problems.append(f"tr L^2 = {float(tr2):.6e}, expected {want2}")

    zeros = sum(m for v, m, _ in entries if abs(v) <= ZERO_TOL)
    if zeros != ref["components"]:
        problems.append(f"zero multiplicity {zeros}, expected {ref['components']} components")

    if ref["charpoly"] is not None:
        for v, m, exact in entries:
            if not exact:
                continue
            want = sum(w - 1 for _, w, deg in ref["classes"] if deg == v)
            want += root_multiplicity(ref["charpoly"], v)
            if m != want:
                problems.append(f"exact eigenvalue {v} has multiplicity {m}, the "
                                f"characteristic polynomial and class sizes give {want}")

    if ref["closed_form"] is not None:
        got = sorted((v, m) for v, m, exact in entries if exact)
        if len(got) != len(entries) or got != sorted(map(tuple, ref["closed_form"])):
            problems.append("differs from the closed form {0, p+q-2, (p-1)^(q-2), (q-1)^(p-2)}")
    return problems


def _multiset_deviation(entries: list[tuple], expected: list[tuple]) -> float:
    """Largest gap when both multisets are expanded, sorted and paired."""
    worst = 0.0
    i = j = 0
    left_a = entries[0][1] if entries else 0
    left_b = expected[0][1] if expected else 0
    while i < len(entries) and j < len(expected):
        worst = max(worst, abs(float(entries[i][0]) - float(expected[j][0])))
        step = min(left_a, left_b)
        left_a -= step
        left_b -= step
        if left_a == 0:
            i += 1
            left_a = entries[i][1] if i < len(entries) else 0
        if left_b == 0:
            j += 1
            left_b = expected[j][1] if j < len(expected) else 0
    if i < len(entries) or j < len(expected):
        return float("inf")
    return worst


def _envelope_problems(doc: dict, n: int) -> list[str]:
    problems = []
    if doc.get("schema") != 1:
        problems.append(f"schema {doc.get('schema')!r}, expected 1")
    if "timestamp" in doc:
        problems.append("timestamp present under --no-timestamp")
    if doc.get("n") != n:
        problems.append(f"n = {doc.get('n')!r}, expected {n}")
    return problems


def check_spectrum_json(text: str, n: int, ref: dict) -> list[str]:
    doc = json.loads(text)
    problems = _envelope_problems(doc, n)
    classes = [[c["d"], c["size"], c["D"]] for c in doc["divisor_classes"]]
    if classes != ref["classes"]:
        problems.append("divisor classes (d, phi(n/d), D) differ from the lattice")
    if doc["vertex_count"] != ref["vertex_count"]:
        problems.append(f"vertex_count {doc['vertex_count']}, expected {ref['vertex_count']}")
    if doc["degenerate"] is not None or doc["oracle_checked"] is not False:
        problems.append("unexpected degenerate or oracle fields")
    if ref["integral"] is not None and doc["laplacian_integral"] != ref["integral"]:
        problems.append(f"laplacian_integral {doc['laplacian_integral']}, expected {ref['integral']}")
    entries = [(e["value"], e["multiplicity"], e["exact"]) for e in doc["spectrum"]]
    return problems + spectrum_problems(entries, ref)


def check_spectrum_csv(text: str, n: int, ref: dict) -> list[str]:
    return spectrum_problems(parse_csv_spectrum(text), ref)


def check_verify_json(text: str, n: int, ref: dict) -> list[str]:
    doc = json.loads(text)
    problems = _envelope_problems(doc, n)
    oracle = ref["oracle"]
    if doc["vertex_count"] != ref["vertex_count"]:
        problems.append(f"vertex_count {doc['vertex_count']}, expected {ref['vertex_count']}")
    if doc["component_count"] != ref["components"]:
        problems.append(f"component_count {doc['component_count']}, expected {ref['components']}")
    if doc["zero_multiplicity"] != ref["components"]:
        problems.append(f"zero_multiplicity {doc['zero_multiplicity']}, expected {ref['components']}")
    if doc["matched"] is not oracle["matched"]:
        problems.append(f"matched {doc['matched']}, the reference comparison gives {oracle['matched']}")
    elif doc["matched"] and not (doc["max_deviation"] <= MATCH_TOL and not doc["multiplicity_mismatches"]):
        problems.append("matched, yet the deviation or the mismatch list says otherwise")
    if ref["integral"] is not None and doc["laplacian_integral"] != ref["integral"]:
        problems.append(f"laplacian_integral {doc['laplacian_integral']}, expected {ref['integral']}")
    return problems


CHECKERS = {"spectrum:json": check_spectrum_json, "spectrum:csv": check_spectrum_csv,
            "verify:json": check_verify_json}


def check_output(argv: list[str], text: str, n: int, ref: dict) -> list[str]:
    """Problems with one CLI output; malformed output is a problem, not a crash."""
    checker = CHECKERS[f"{argv[0]}:{argv[argv.index('--format') + 1]}"]
    try:
        return checker(text, n, ref)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed output: {exc!r}"]
