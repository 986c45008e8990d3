"""Command-line front end.

Commands: spectrum (assembled spectrum of one n), verify (assembly versus
the brute-force oracle), scan (verify over a range, in parallel),
structure (quotient graph and class table), integrality (integer-spectrum
check). Exit codes: 0 success, 1 error or failed verification,
2 degenerate input (prime or prime power), 3 vertex cap exceeded,
64 usage error. Every output format (text, JSON, CSV and DOT) is rendered
here; the library modules only compute.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from collections.abc import Iterable
from datetime import datetime, timezone
from itertools import chain

import numpy as np

from . import spectrum as sp
from .errors import VertexCapError
from .fullgraph import (
    DEFAULT_VERTEX_CAP,
    FullGraph,
    build_full_graph,
    factorize_for_full_graph,
)
from .numbers import Factorization
from .quotient import (
    QuotientGraph,
    build_quotient,
    factorize_for_quotient,
    integer_laplacian,
    quotient_connectivity_state,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DEGENERATE = 2
EXIT_CAP = 3
EXIT_USAGE = 64

SCHEMA_VERSION = 1
FILTERS = ("all", "pq", "p2q", "png-q", "general2prime")

# qualitative palette cycled per divisor class in the full graph's DOT
_PALETTE = (
    "#66c2a5", "#fc8d62", "#8da0cb", "#e78ac3", "#a6d854",
    "#ffd92f", "#e5c494", "#b3b3b3", "#1f78b4", "#33a02c",
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int, what: str):
    """An argparse type for integers of at least low; what names them."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    return parse


_positive_int = _int_at_least(1, "a positive integer")
# Z_n has no non-zero non-unit below n = 2, so n < 2 is a usage error
_modulus = _int_at_least(2, "an integer >= 2")


@functools.cache
def _build_parser() -> _Parser:
    # built on the first main() call and reused: parse_args returns a fresh
    # Namespace each time, and no argument has a mutable default or appends
    parser = _Parser(prog="cozero", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--no-timestamp", action="store_true",
                        help="suppress timestamps/timing for byte-identical output")
    common.add_argument("--out", default=None, help="write output to a file")

    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, formats: tuple[str, ...], cap: bool, summary: str) -> _Parser:
        # each command takes only the formats it renders, and --cap only
        # when it builds the full graph
        p = sub.add_parser(name, parents=[common], help=summary)
        p.add_argument("--format", choices=formats, default="text")
        if cap:
            p.add_argument("--cap", type=_positive_int, default=DEFAULT_VERTEX_CAP,
                           help=f"vertex cap for full-graph builds (default {DEFAULT_VERTEX_CAP})")
        return p

    p_spec = command("spectrum", ("text", "json", "csv"), False,
                     "assembled Laplacian spectrum of one n")
    p_spec.add_argument("n", type=_modulus)

    p_verify = command("verify", ("text", "json"), True,
                       "check the assembly against the brute-force oracle")
    p_verify.add_argument("n", type=_modulus)

    p_scan = command("scan", ("text", "json", "csv"), True,
                     "verify every eligible n in a range")
    p_scan.add_argument("lo", type=int)
    p_scan.add_argument("hi", type=int)
    p_scan.add_argument("--filter", choices=FILTERS, default="all")
    p_scan.add_argument("--jobs", type=_positive_int, default=None,
                        help="worker processes (default: available cores)")

    p_struct = command("structure", ("text", "json", "csv", "dot"), True,
                       "divisor quotient graph and class table")
    p_struct.add_argument("n", type=_modulus)
    p_struct.add_argument("--full", action="store_true",
                          help="with --format dot, emit the full graph instead")
    # only --full builds the full graph, so an explicit --cap must come with
    # it; _cmd_structure refuses the two options through this parser's usage
    p_struct.set_defaults(cap=None, parser=p_struct)

    p_int = command("integrality", ("text", "json"), False,
                    "report whether the spectrum is all-integer")
    p_int.add_argument("n", type=_modulus)

    return parser


def _emit(lines: Iterable[str], args) -> None:
    """Write each of lines (a list, or a generator of chunks) and a newline to --out or stdout."""
    text = (f"{line}\n" for line in lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(text)
    else:
        sys.stdout.writelines(text)


_INF = float("inf")


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


_string_text = json.encoder.encode_basestring_ascii

# the text json writes for each scalar type, looked up by exact type
_SCALAR_TEXT = {
    str: _string_text,
    int: int.__repr__,
    float: _float_text,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}
_SCALARS = frozenset(_SCALAR_TEXT)
_CONTAINERS = (dict, list, tuple)

# Writes a flat container (a dict or list whose members are all scalars),
# or a list of flat containers of one kind, in one C-encoder call, with a
# NUL after each item separator. json writes a NUL inside a string as
# \u0000, so a raw NUL only ever marks a separator, and one between two
# containers follows a closing bracket, which no scalar's text ends with.
_encode_flat = json.JSONEncoder(separators=(",\0", ": "), check_circular=False).encode


def _json_text(value, indent: str = "") -> str:
    """json.dumps(value, indent=2), byte for byte, with value's first line at indent.

    Takes exactly these types: dicts with str keys, lists, tuples, str,
    int, float, bool and None. The C encoder writes every flat container;
    on CPython before 3.13, json.dumps with an indent runs the pure-Python
    encoder instead.
    """
    kind = type(value)
    if kind not in _CONTAINERS:
        write = _SCALAR_TEXT.get(kind)
        if write is None:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
        return write(value)
    if not value:
        return "{}" if kind is dict else "[]"
    inner = indent + "  "
    if _SCALARS.issuperset(map(type, value.values() if kind is dict else value)):
        text = _encode_flat(value)
        body = text[1:-1].replace(",\0", ",\n" + inner)
        return f"{text[0]}\n{inner}{body}\n{indent}{text[-1]}"
    first = type(value[0]) if kind is not dict else None
    if (first in _CONTAINERS and {first}.issuperset(map(type, value)) and all(value)
            and _SCALARS.issuperset(map(type, chain.from_iterable(
                map(dict.values, value) if first is dict else value)))):
        # "[{...},\0{...}]": the outer brackets come off, and a separator
        # that follows a closing bracket is one between two members
        text = _encode_flat(value)
        opening, closing = text[1], text[-2]
        member = inner + "  "
        body = text[2:-2].replace(
            f"{closing},\0{opening}", f"\n{inner}{closing},\n{inner}{opening}\n{member}"
        ).replace(",\0", ",\n" + member)
        return f"[\n{inner}{opening}\n{member}{body}\n{inner}{closing}\n{indent}]"
    sep = ",\n" + inner
    if kind is dict:
        body = sep.join([
            f"{_string_text(k)}: {_json_text(v, inner)}" for k, v in value.items()
        ])
        return f"{{\n{inner}{body}\n{indent}}}"
    body = sep.join([_json_text(v, inner) for v in value])
    return f"[\n{inner}{body}\n{indent}]"


def _emit_json(payload: dict, args) -> None:
    doc = {"schema": SCHEMA_VERSION}
    if not args.no_timestamp:
        doc["timestamp"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    doc.update(payload)
    _emit([_json_text(doc)], args)


def _emit_degenerate(n: int, args, what: str = "empty graph") -> int:
    """The one text line of a prime n, which has no vertices and no table."""
    _emit([f"n={n}: degenerate (prime, {what})"], args)
    return EXIT_DEGENERATE


def _verdict_line(n: int, status: str, vertices: int, deviation: float, integral: bool) -> str:
    return (
        f"n={n}: {status} (vertices={vertices}, max_deviation={deviation:.3e}, "
        f"integral={str(integral).lower()})"
    )


def _spectrum_report(assembled: sp.AssembledSpectrum) -> dict:
    """spectrum's JSON payload. It never runs the oracle (verify does), so
    "oracle_checked" is always false and "max_deviation" always null."""
    return {
        "n": assembled.n,
        "vertex_count": assembled.vertex_count,
        "divisor_classes": [
            {"d": e.divisor, "size": e.multiplicity + 1, "D": e.value}
            for e in assembled.integer_part
        ],
        "spectrum": [
            {"value": e.value, "multiplicity": e.multiplicity, "exact": e.exact}
            for e in assembled.combined.entries
        ],
        "laplacian_integral": sp.is_laplacian_integral(assembled),
        "oracle_checked": False,
        "max_deviation": None,
        "degenerate": assembled.degenerate,
    }


def _spectrum_csv(assembled: sp.AssembledSpectrum) -> list[str]:
    # exact values are Python ints, the rest floats, written as repr writes them
    return ["value,multiplicity,exact"] + [
        f"{e.value},{e.multiplicity},{str(e.exact).lower()}"
        for e in assembled.combined.entries
    ]


def _quotient_dot(q: QuotientGraph) -> list[str]:
    """The quotient graph, each divisor labelled with its weight and weighted degree."""
    lines = [f"graph divisor_quotient_{q.n} {{"]
    lines.extend(
        f'  d{d} [label="{d}\\nw={w} D={deg}"];'
        for d, w, deg in zip(q.divisors, q.weights, q.degrees)
    )
    lines.extend(f"  d{a} -- d{b};" for a, b in q.edges())
    return lines + ["}"]


def _full_graph_dot(graph: FullGraph) -> Iterable[str]:
    """The full graph: vertex label is the ring element, fill color marks the
    class. Edges are read one adjacency row at a time, and each row's edges
    to later vertices, if it has any, are one chunk, never the whole text."""
    color_of = {
        c: _PALETTE[i % len(_PALETTE)] for i, c in enumerate(sorted(set(graph.classes)))
    }
    yield f"graph cozero_divisor_{graph.n} {{\n  node [style=filled];"
    vertices = graph.vertices
    for v, c in zip(vertices, graph.classes):
        yield f'  v{v} [label="{v}", fillcolor="{color_of[c]}", tooltip="class {c}"];'
    for i, v in enumerate(vertices):
        (row,) = graph.adjacency_rows(slice(i, i + 1))
        later = np.flatnonzero(row[i + 1:])
        if len(later):
            yield "\n".join([f"  v{v} -- v{vertices[j]};" for j in (later + (i + 1)).tolist()])
    yield "}"


def _laplacian_csv(q: QuotientGraph) -> list[str]:
    """The integer quotient Laplacian as bare CSV rows."""
    return [",".join(map(str, row)) for row in integer_laplacian(q).tolist()]


def _cmd_spectrum(args) -> int:
    n = args.n
    assembled = sp.assemble_spectrum(n)
    if args.format == "json":
        _emit_json(_spectrum_report(assembled), args)
    elif args.format == "csv":
        _emit(_spectrum_csv(assembled), args)
    elif assembled.degenerate == "empty":
        return _emit_degenerate(n, args)
    else:
        values = " ".join(
            f"{e.value if e.exact else f'{e.value:.6f}'}^{e.multiplicity}"
            for e in assembled.combined.entries
        )
        lines = [f"n={n}: {values}"]
        if assembled.degenerate == "null":
            lines.append(f"n={n} is a prime power: null graph, all-zero spectrum")
        _emit(lines, args)
    return EXIT_DEGENERATE if assembled.degenerate else EXIT_OK


def _cmd_verify(args) -> int:
    n = args.n
    report = sp.verify_against_oracle(n, cap=args.cap)
    prime = report.degenerate == "empty"
    if args.format == "json":
        _emit_json({
            "n": n,
            "matched": report.matched,
            "vertex_count": report.vertex_count,
            "max_deviation": report.max_deviation,
            "laplacian_integral": report.laplacian_integral,
            "zero_multiplicity": report.zero_multiplicity,
            "component_count": report.component_count,
            "multiplicity_mismatches": [
                list(row) for row in report.multiplicity_mismatches
            ],
        }, args)
    elif prime:
        return _emit_degenerate(n, args)
    else:
        lines = [_verdict_line(n, "PASS" if report.matched else "FAIL", report.vertex_count,
                               report.max_deviation, report.laplacian_integral)]
        lines.extend(
            f"  mismatch at {value:.6f}: assembled {mult_a}, oracle {mult_b}"
            for value, mult_a, mult_b in report.multiplicity_mismatches
        )
        _emit(lines, args)
    return EXIT_DEGENERATE if prime else EXIT_OK if report.matched else EXIT_ERROR


def _matches_filter(f: Factorization, family: str) -> bool:
    if f.is_prime:
        return False
    exponents = sorted(e for _, e in f.factors)
    if family == "all":
        return True
    if family == "pq":
        return exponents == [1, 1]
    if family == "p2q":
        return exponents == [1, 2]
    if family == "png-q":
        return len(exponents) == 2 and min(exponents) == 1
    if family == "general2prime":
        return len(exponents) == 2
    raise ValueError(f"unknown filter {family!r}")


def _scan_one(task: tuple[int, int, str]) -> dict | None:
    """The scan row of n, or None when n is not of the filter's family.

    An n that the vertex bound refuses is left unfactored, and an n whose
    factoring fails has no factors either; their family is unknown, so
    under every filter they become CAP and ERROR rows.
    """
    n, cap, family = task
    try:
        f = factorize_for_full_graph(n, cap)
        if not _matches_filter(f, family):
            return None
        report = sp.verify_against_oracle(f, cap=cap)
    except VertexCapError as exc:
        return {"n": n, "status": "CAP", "error": str(exc)}
    except Exception as exc:  # collected, not fatal
        return {"n": n, "status": "ERROR", "error": str(exc)}
    return {
        "n": n,
        "status": "PASS" if report.matched else "FAIL",
        "vertex_count": report.vertex_count,
        "max_deviation": report.max_deviation,
        "laplacian_integral": report.laplacian_integral,
    }


def _cmd_scan(args) -> int:
    if not 2 <= args.lo <= args.hi:
        sys.stderr.write(f"cozero: need 2 <= lo <= hi, got {args.lo}, {args.hi}\n")
        return EXIT_USAGE
    tasks = [(n, args.cap, args.filter) for n in range(args.lo, args.hi + 1)]
    cores = os.cpu_count() or 1
    jobs = min(args.jobs or cores, len(tasks), cores)
    started = time.perf_counter()
    if jobs > 1:
        from multiprocessing import Pool  # only here: it costs every start ~6 ms

        with Pool(processes=jobs) as pool:
            rows = pool.map(_scan_one, tasks)
    else:
        rows = [_scan_one(t) for t in tasks]
    rows = [r for r in rows if r is not None]
    elapsed = time.perf_counter() - started

    failures = [r for r in rows if r["status"] not in ("PASS",)]
    integral_count = sum(1 for r in rows if r.get("laplacian_integral"))
    if args.format == "json":
        payload = {
            "lo": args.lo,
            "hi": args.hi,
            "filter": args.filter,
            "rows": rows,
            "checked": len(rows),
            "failures": len(failures),
            "integral_count": integral_count,
        }
        if not args.no_timestamp:
            payload["elapsed_seconds"] = round(elapsed, 3)
        _emit_json(payload, args)
    elif args.format == "csv":
        lines = ["n,status,vertex_count,max_deviation,laplacian_integral"]
        for r in rows:
            lines.append(
                f"{r['n']},{r['status']},{r.get('vertex_count', '')},"
                f"{r.get('max_deviation', '')},"
                f"{str(r.get('laplacian_integral', '')).lower()}"
            )
        _emit(lines, args)
    else:
        lines = [
            _verdict_line(r["n"], r["status"], r["vertex_count"], r["max_deviation"],
                          r["laplacian_integral"])
            if r["status"] in ("PASS", "FAIL")
            else f"n={r['n']}: {r['status']} {r['error']}".rstrip()
            for r in rows
        ]
        lines.append(
            f"checked {len(rows)} values, {len(failures)} failures, "
            f"{integral_count} integral"
        )
        if not args.no_timestamp:
            lines.append(f"elapsed {elapsed:.2f}s")
        _emit(lines, args)
    return EXIT_OK if not failures else EXIT_ERROR


def _cmd_structure(args) -> int:
    if args.full and args.format != "dot":
        args.parser.error("argument --full: only with --format dot")
    if args.cap is not None and not args.full:
        args.parser.error("argument --cap: only with --full")
    n = args.n
    # --full builds no quotient: the vertex bound refuses n, not 2**63
    cap = args.cap or DEFAULT_VERTEX_CAP
    f = factorize_for_full_graph(n, cap) if args.full else factorize_for_quotient(n)
    if f.is_prime and args.format != "json":
        return _emit_degenerate(n, args, "no proper divisors")
    if args.full:
        _emit(_full_graph_dot(build_full_graph(f, cap=cap)), args)
        return EXIT_OK
    q = build_quotient(f)
    if args.format == "csv":
        _emit(_laplacian_csv(q), args)
        return EXIT_OK
    if args.format == "dot":
        _emit(_quotient_dot(q), args)
        return EXIT_OK
    boundary = n == 4
    state = quotient_connectivity_state(q)
    # the full graph is a join of edgeless classes over the quotient, so it
    # is connected when the quotient is, unless that is one class of more
    # than one vertex (n = p**2, p odd); None for prime n, which has none
    connected = None if q.is_empty else (
        state == "connected" and (q.size > 1 or q.weights[0] == 1)
    )

    if args.format == "json":
        _emit_json({
            "n": n,
            "divisor_classes": [
                {"d": d, "size": w, "D": deg}
                for d, w, deg in zip(q.divisors, q.weights, q.degrees)
            ],
            "edges": [list(e) for e in q.edges()],
            "quotient_connectivity": state,
            "full_graph_connected": connected,
            "boundary_case": boundary,
        }, args)
    else:
        lines = [
            f"n={n}: {q.size} proper divisors, {q.edge_count} quotient edges",
            f"quotient {state}; full graph connected: {str(connected).lower()}",
        ]
        if boundary:
            lines.append("note: n=4 is the single-vertex boundary case (even prime squared)")
        lines.append("divisor  size  D")
        for d, w, deg in zip(q.divisors, q.weights, q.degrees):
            lines.append(f"{d:7d}  {w:4d}  {deg}")
        if q.edge_count:
            lines.append("edges: " + " ".join(f"{a}-{b}" for a, b in q.edges()))
        _emit(lines, args)
    return EXIT_DEGENERATE if f.is_prime else EXIT_OK


def _cmd_integrality(args) -> int:
    n = args.n
    assembled = sp.assemble_spectrum(n)
    if assembled.degenerate == "empty" and args.format != "json":
        return _emit_degenerate(n, args)
    integral = sp.is_laplacian_integral(assembled)
    worst = float(max(
        (abs(e.value - round(e.value)) for e in assembled.combined.entries),
        default=0.0,
    ))
    if args.format == "json":
        _emit_json({
            "n": n,
            "laplacian_integral": integral,
            "worst_integer_distance": worst,
            "degenerate": assembled.degenerate,
        }, args)
    else:
        _emit([
            f"n={n}: laplacian_integral={str(integral).lower()} "
            f"(worst integer distance {worst:.3e})"
        ], args)
    return EXIT_DEGENERATE if assembled.degenerate else EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "spectrum": _cmd_spectrum,
        "verify": _cmd_verify,
        "scan": _cmd_scan,
        "structure": _cmd_structure,
        "integrality": _cmd_integrality,
    }
    try:
        return handlers[args.command](args)
    except VertexCapError as exc:
        sys.stderr.write(f"cozero: {exc}\n")
        return EXIT_CAP
    except (ValueError, ArithmeticError, OSError) as exc:
        sys.stderr.write(f"cozero: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
