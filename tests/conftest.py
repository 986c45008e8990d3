"""Shared fixtures: a session-wide cache of brute-force oracle spectra, and
the exit code and standard output of one CLI call."""

import pytest

from cozero import build_full_graph
from cozero.cli import main
from reference import eigenvalue_multiset, laplacian


@pytest.fixture(scope="session")
def oracle_spectrum():
    """Brute-force Laplacian spectrum of the explicit graph, cached per n."""
    cache = {}

    def get(n):
        if n not in cache:
            graph = build_full_graph(n)
            cache[n] = eigenvalue_multiset(laplacian(graph))
        return cache[n]

    return get


@pytest.fixture
def cli_output(capsys):
    """Runs cozero.cli.main(argv); returns its exit code and what it printed."""

    def run(*argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    return run
