"""Command-line front end.

Commands: spectrum (assembled spectrum of one n), verify (assembly versus
the brute-force oracle), scan (verify every n of a range),
structure (quotient graph and class table), integrality (integer-spectrum
check). Exit codes: 0 success, 1 error or failed verification,
2 degenerate input (prime or prime power), 3 vertex cap exceeded,
64 usage error. Every output format (text, JSON, CSV and DOT) is rendered
here; the library modules only compute.

main() dispatches on the command word: when the first argument names a
command, that command's own sub-parser parses the rest, and the top parser
refuses whatever it leaves over. The top parser parses everything else:
help, an unknown command, and arguments before the command word. Every
usage error prints what the top parser alone would print, with exit 64.
`cozero -h` shows this docstring without this last paragraph.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from datetime import datetime, timezone
from itertools import chain
from typing import Callable, NamedTuple, Sequence

from . import spectrum as sp
from .errors import ConvergenceError, VertexCapError
from .fullgraph import factorize_for_full_graph
from .quotient import (
    QuotientGraph,
    build_quotient,
    factorize_for_quotient,
    full_graph_component_count,
    integer_laplacian,
    quotient_connectivity_state,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DEGENERATE = 2
EXIT_CAP = 3
EXIT_USAGE = 64

SCHEMA_VERSION = 1
# scan's families, each a predicate on the sorted exponents of a composite n
FILTERS = {
    "all": lambda exponents: True,
    "pq": lambda exponents: exponents == [1, 1],
    "p2q": lambda exponents: exponents == [1, 2],
    "png-q": lambda exponents: len(exponents) == 2 and exponents[0] == 1,
    "general2prime": lambda exponents: len(exponents) == 2,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _Command(NamedTuple):
    parser: _Parser
    run: Callable[[argparse.Namespace], int]


def _modulus(text: str) -> int:
    """The argparse type of n: Z_n has no non-zero non-unit below n = 2,
    so n < 2 is a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = 1
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be an integer >= 2, got {text!r}")
    return value


@functools.cache
def _build_parser() -> tuple[_Parser, dict[str, _Command]]:
    """The top parser, and each command's sub-parser and handler by name.

    Built on the first main() call and reused: parsing returns a fresh
    Namespace each time, and no argument has a mutable default or appends.
    """
    parser = _Parser(prog="cozero", description=__doc__ and __doc__.rpartition("\n\n")[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--no-timestamp", action="store_true",
                        help="suppress timestamps/timing for byte-identical output")
    common.add_argument("--out", default=None, help="write output to a file")

    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def command(name: str, formats: tuple[str, ...], summary: str,
                handler: Callable[[argparse.Namespace], int]) -> _Parser:
        # each command takes only the formats it renders
        p = sub.add_parser(name, parents=[common], help=summary)
        p.add_argument("--format", choices=formats, default="text")
        commands[name] = _Command(p, handler)
        return p

    p_spec = command("spectrum", ("text", "json", "csv"),
                     "assembled Laplacian spectrum of one n", _cmd_spectrum)
    p_spec.add_argument("n", type=_modulus)

    p_verify = command("verify", ("text", "json"),
                       "check the assembly against the brute-force oracle", _cmd_verify)
    p_verify.add_argument("n", type=_modulus)

    p_scan = command("scan", ("text", "json", "csv"),
                     "verify every eligible n in a range", _cmd_scan)
    p_scan.add_argument("lo", type=int)
    p_scan.add_argument("hi", type=int)
    p_scan.add_argument("--filter", choices=FILTERS, default="all")

    p_struct = command("structure", ("text", "json", "csv", "dot"),
                       "divisor quotient graph and class table", _cmd_structure)
    p_struct.add_argument("n", type=_modulus)

    p_int = command("integrality", ("text", "json"),
                    "report whether the spectrum is all-integer", _cmd_integrality)
    p_int.add_argument("n", type=_modulus)

    return parser, commands


def _emit(lines: list[str], args) -> None:
    """Write each of lines and a newline to --out or stdout."""
    text = (f"{line}\n" for line in lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(text)
    else:
        sys.stdout.writelines(text)


# json's text of an int or a float is its repr, except for nan and the infinities
_NON_FINITE_TEXT = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _NON_FINITE_TEXT.get(text, text)


def _number_texts(values) -> list[str]:
    """The JSON text of each of values, Python ints and floats."""
    texts = list(map(repr, values))
    return list(map(_NON_FINITE_TEXT.get, texts, texts))


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


class _Table(NamedTuple):
    """A JSON list of objects with the same keys (which hold no %), held as
    one column per key of ints or JSON texts, written by one %-format."""

    keys: tuple[str, ...]
    columns: tuple[Sequence, ...]

    def text(self, indent: str) -> str:
        """json.dumps(list of the row objects, indent=2), byte for byte,
        with its first line at indent."""
        cells = tuple(chain.from_iterable(zip(*self.columns)))
        if not cells:
            return "[]"
        inner = indent + "  "
        fields = f",\n{inner}  ".join([f"{_string_text(k)}: %s" for k in self.keys])
        row = f"{{\n{inner}  {fields}\n{inner}}}"
        body = f",\n{inner}".join([row] * (len(cells) // len(self.keys)))
        return f"[\n{inner}{body}\n{indent}]" % cells


def _json_text(value, indent: str = "") -> str:
    """json.dumps(value, indent=2), byte for byte, with value's first line at indent.

    Takes exactly these types: dicts with str keys, lists, tuples, str,
    int, float, bool, None and _Table, which writes itself. The C encoder
    writes every other flat container; on CPython before 3.13, json.dumps
    with an indent runs the pure-Python encoder instead.
    """
    kind = type(value)
    if kind not in _CONTAINERS:
        if kind is _Table:
            return value.text(indent)
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


def _divisor_classes(q: QuotientGraph) -> _Table:
    """The class table of JSON output: divisor, class size and weighted degree."""
    return _Table(("d", "size", "D"), (q.divisors, q.weights, q.degrees))


def _spectrum_report(assembled: sp.AssembledSpectrum) -> dict:
    """spectrum's JSON payload. It never runs the oracle (verify does), so
    "oracle_checked" is always false and "max_deviation" always null."""
    entries = assembled.combined.entries
    values, multiplicities, exact = zip(*entries) if entries else ((), (), ())
    return {
        "n": assembled.n,
        "vertex_count": assembled.vertex_count,
        "divisor_classes": _divisor_classes(assembled.quotient),
        "spectrum": _Table(("value", "multiplicity", "exact"), (
            _number_texts(values), multiplicities, ["true" if e else "false" for e in exact]
        )),
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
    report = sp.verify_against_oracle(n)
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


def _scan_one(n: int, family: str) -> dict | None:
    """The scan row of n, or None when n is not of the filter's family.

    An n above the vertex bound is left unfactored: a CAP row, or an ERROR
    row when its primality cannot be decided (no prime factor below
    SMALL_PRIME_LIMIT, at or above MILLER_RABIN_LIMIT). Every n under the
    bound factors. Those rows' family is unknown, so every filter keeps
    them. Any failure of the oracle is an ERROR row too.
    """
    try:
        f = factorize_for_full_graph(n)
        if f.is_prime or not FILTERS[family](sorted(e for _, e in f.factors)):
            return None
        report = sp.verify_against_oracle(f)
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
    started = time.perf_counter()
    rows = [
        r for n in range(args.lo, args.hi + 1)
        if (r := _scan_one(n, args.filter)) is not None
    ]
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
    n = args.n
    f = factorize_for_quotient(n)
    if f.is_prime and args.format != "json":
        return _emit_degenerate(n, args, "no proper divisors")
    q = build_quotient(f)
    if args.format == "csv":
        _emit(_laplacian_csv(q), args)
        return EXIT_OK
    if args.format == "dot":
        _emit(_quotient_dot(q), args)
        return EXIT_OK
    boundary = n == 4
    state = quotient_connectivity_state(q)
    # None for prime n, whose full graph has no vertices
    connected = None if q.is_empty else full_graph_component_count(q) == 1
    edges = q.edges()

    if args.format == "json":
        _emit_json({
            "n": n,
            "divisor_classes": _divisor_classes(q),
            "edges": [list(e) for e in edges],
            "quotient_connectivity": state,
            "full_graph_connected": connected,
            "boundary_case": boundary,
        }, args)
    else:
        lines = [
            f"n={n}: {q.size} proper divisors, {len(edges)} quotient edges",
            f"quotient {state}; full graph connected: {str(connected).lower()}",
        ]
        if boundary:
            lines.append("note: n=4 is the single-vertex boundary case (even prime squared)")
        lines.append("divisor  size  D")
        for d, w, deg in zip(q.divisors, q.weights, q.degrees):
            lines.append(f"{d:7d}  {w:4d}  {deg}")
        if edges:
            lines.append("edges: " + " ".join(f"{a}-{b}" for a, b in edges))
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
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = commands.get(argv[0]) if argv else None
    if command is None:
        # help, an unknown command, or an argument before the command word
        args = parser.parse_args(argv)
        command = commands[args.command]
    else:
        # the top parser hands every token after the command word to its
        # sub-parser and refuses what that leaves over; this does the same
        # without the top parser's own pass over the tokens
        args, extras = command.parser.parse_known_args(argv[1:])
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
        args.command = argv[0]
    try:
        return command.run(args)
    except VertexCapError as exc:
        sys.stderr.write(f"cozero: {exc}\n")
        return EXIT_CAP
    except (ValueError, ArithmeticError, OSError, ConvergenceError) as exc:
        sys.stderr.write(f"cozero: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
