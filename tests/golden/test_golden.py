"""Golden outputs: the exact stdout and exit code of CLI calls.

Every value these calls print is an integer, or a max_deviation of
exactly 0.0, so the bytes do not depend on the BLAS build. Each .txt file
here is a run of blocks of the form

    $ cozero <argv>
    exit <code>
    <stdout>

To add a case, append its first two lines to a file, then rewrite every
block's stdout and exit code from the current CLI with

    PYTHONPATH=src python tests/golden/test_golden.py
"""

import re
from pathlib import Path

import pytest

HERE = Path(__file__).parent
HEADER = re.compile(r"^\$ cozero ", re.M)


def cases(path):
    for block in HEADER.split(path.read_text(encoding="utf-8"))[1:]:
        argv, status, out = block.split("\n", 2)
        yield argv, int(status.removeprefix("exit ")), out


CASES = [case for path in sorted(HERE.glob("*.txt")) for case in cases(path)]


@pytest.mark.parametrize("argv, code, out", CASES, ids=[argv for argv, _, _ in CASES])
def test_output_is_golden(cli_output, argv, code, out):
    assert cli_output(*argv.split()) == (code, out)


if __name__ == "__main__":
    import contextlib
    import io

    from cozero.cli import main

    for path in sorted(HERE.glob("*.txt")):
        blocks = []
        for argv, _, _ in cases(path):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv.split())
            blocks.append(f"$ cozero {argv}\nexit {code}\n{out.getvalue()}")
        path.write_text("".join(blocks), encoding="utf-8")
