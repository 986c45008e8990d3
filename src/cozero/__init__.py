"""Laplacian spectra of cozero-divisor graphs of Z_n.

The graph on the non-zero non-unit residues of Z_n (adjacency: neither
element's ideal contains the other) decomposes as a join of edgeless
divisor classes over the proper-divisor quotient graph. That reduction
turns the n - phi(n) - 1 Laplacian eigenvalues into an exact integer part
plus the spectrum of a small weighted quotient matrix; everything here
can be cross-checked against a brute-force eigensolve of the explicit
graph. All public functions are pure and thread-safe.
"""

from .errors import ConvergenceError, EmptyGraphError, VertexCapError
from .numbers import (
    Factorization,
    divisor_exponents,
    factorize,
    is_prime,
)
from .fullgraph import (
    DEFAULT_VERTEX_CAP,
    FullGraph,
    build_full_graph,
    connected_component_count,
)
from .quotient import (
    QuotientGraph,
    build_quotient,
    quotient_connectivity_state,
)
from .eigen import (
    SpectrumEntry,
    SpectrumMultiset,
    merge_spectrum,
)
from .spectrum import (
    AssembledSpectrum,
    ClassEigenvalue,
    MultisetComparison,
    OracleReport,
    assemble_spectrum,
    compare_multisets,
    is_laplacian_integral,
    verify_against_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "AssembledSpectrum",
    "ClassEigenvalue",
    "ConvergenceError",
    "DEFAULT_VERTEX_CAP",
    "EmptyGraphError",
    "Factorization",
    "FullGraph",
    "MultisetComparison",
    "OracleReport",
    "QuotientGraph",
    "SpectrumEntry",
    "SpectrumMultiset",
    "VertexCapError",
    "assemble_spectrum",
    "build_full_graph",
    "build_quotient",
    "compare_multisets",
    "connected_component_count",
    "divisor_exponents",
    "factorize",
    "is_laplacian_integral",
    "is_prime",
    "merge_spectrum",
    "quotient_connectivity_state",
    "verify_against_oracle",
]
