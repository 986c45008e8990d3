"""Self-test of the output checks: correct outputs pass, corrupted ones fail.

    python3 perfbench/selftest.py

Takes real CLI outputs for a few small n, confirms that the checks accept
them, then corrupts one thing at a time (a value, a multiplicity, the
zero eigenvalue, an exact flag, a class size, the oracle verdict) and
confirms that each corruption is rejected. It also feeds in the program's
own output at the two known-fault inputs, which must be rejected too.
Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import check
import reference

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from cozero import cli  # noqa: E402


def cli_output(argv: list[str]) -> str:
    path = HERE / "out" / "selftest.out"
    path.parent.mkdir(exist_ok=True)
    if cli.main([*argv, "--no-timestamp", "--out", str(path)]) != 0:
        raise SystemExit(f"cozero {' '.join(argv)} failed")
    return path.read_text(encoding="utf-8")


def ref_for(n: int, factors, oracle: bool = False) -> dict:
    return reference.reference({"n": n, "factors": factors, "oracle": oracle})


def csv_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()[1:]]


def csv_text(rows: list[list[str]]) -> str:
    return "value,multiplicity,exact\n" + "".join(",".join(r) + "\n" for r in rows)


def corrupt_csv(text: str, fn) -> str:
    rows = csv_rows(text)
    fn(rows)
    return csv_text(rows)


def corrupt_json(text: str, fn) -> str:
    doc = json.loads(text)
    fn(doc)
    return json.dumps(doc)


def main() -> int:
    ok = True

    def expect(label: str, problems: list[str], rejected: bool) -> None:
        nonlocal ok
        good = bool(problems) == rejected
        ok &= good
        verdict = "rejected" if problems else "accepted"
        print(f"{'ok ' if good else 'BAD'} {label}: {verdict}"
              + (f" ({problems[0]})" if problems else ""))

    # n = 15 = 3 * 5, CSV: spectrum {6, 4, 2^3, 0}
    text = cli_output(["spectrum", "15", "--format", "csv"])
    ref = ref_for(15, ((3, 1), (5, 1)))
    expect("n=15 csv as printed", check.check_spectrum_csv(text, 15, ref), False)

    def bump_value(rows):
        rows[0][0] = str(int(rows[0][0]) + 1)

    def move_multiplicity(rows):
        rows[1][1] = str(int(rows[1][1]) + 1)
        rows[2][1] = str(int(rows[2][1]) - 1)

    def drop_zero(rows):
        rows[-2][1] = str(int(rows[-2][1]) + int(rows[-1][1]))
        del rows[-1]

    for label, fn in (("value +1", bump_value), ("multiplicity moved", move_multiplicity),
                      ("zero eigenvalue dropped", drop_zero)):
        expect(f"n=15 csv, {label}", check.check_spectrum_csv(corrupt_csv(text, fn), 15, ref), True)

    # n = 12 = 2^2 * 3, JSON: non-integral quotient eigenvalues
    text = cli_output(["spectrum", "12", "--format", "json"])
    ref = ref_for(12, ((2, 2), (3, 1)))
    expect("n=12 json as printed", check.check_spectrum_json(text, 12, ref), False)

    def first_numeric(doc):
        return next(e for e in doc["spectrum"] if not e["exact"])

    def nudge(doc):
        first_numeric(doc)["value"] += 1e-3

    def false_exact(doc):
        entry = first_numeric(doc)
        entry["value"], entry["exact"] = round(entry["value"]), True

    def class_size(doc):
        doc["divisor_classes"][0]["size"] += 1

    for label, fn in (("numeric value off by 1e-3", nudge),
                      ("non-integer flagged exact", false_exact),
                      ("class size changed", class_size)):
        expect(f"n=12 json, {label}", check.check_spectrum_json(corrupt_json(text, fn), 12, ref), True)

    # n = 30 = 2 * 3 * 5, verify JSON
    text = cli_output(["verify", "30", "--format", "json"])
    ref = ref_for(30, ((2, 1), (3, 1), (5, 1)), oracle=True)
    expect("n=30 verify as printed", check.check_verify_json(text, 30, ref), False)
    for label, key, value in (("matched flipped", "matched", False),
                              ("zero multiplicity lost", "zero_multiplicity", 0)):
        corrupted = corrupt_json(text, lambda doc: doc.__setitem__(key, value))
        expect(f"n=30 verify, {label}", check.check_verify_json(corrupted, 30, ref), True)

    # the program's own output at the known faults
    for n, factors in ((30001800027, ((3, 1), (100003, 2))), (4000000028, ((2, 2), (1000000007, 1)))):
        text = cli_output(["spectrum", str(n), "--format", "csv"])
        expect(f"n={n} as printed (known fault)",
               check.check_spectrum_csv(text, n, ref_for(n, factors)), True)

    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
