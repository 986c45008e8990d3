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
    factorize,
    is_prime,
)
from .fullgraph import (
    VERTEX_CAP,
    FullGraph,
    build_full_graph,
)
from .quotient import (
    QuotientGraph,
    build_quotient,
    full_graph_component_count,
    quotient_connectivity_state,
)
from .eigen import (
    SpectrumEntry,
    SpectrumMultiset,
    merge_spectrum,
)
from .spectrum import (
    AssembledSpectrum,
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
    "ConvergenceError",
    "EmptyGraphError",
    "Factorization",
    "FullGraph",
    "MultisetComparison",
    "OracleReport",
    "QuotientGraph",
    "SpectrumEntry",
    "SpectrumMultiset",
    "VERTEX_CAP",
    "VertexCapError",
    "assemble_spectrum",
    "build_full_graph",
    "build_quotient",
    "compare_multisets",
    "factorize",
    "full_graph_component_count",
    "is_laplacian_integral",
    "is_prime",
    "merge_spectrum",
    "quotient_connectivity_state",
    "verify_against_oracle",
]
