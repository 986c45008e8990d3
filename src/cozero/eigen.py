"""Dense symmetric eigensolver and spectrum multisets.

The solver is written here rather than borrowed, and one path serves
every size: blocked Householder tridiagonalization, then root-free QL
with shifts (Pal-Walker-Kahan, as LAPACK's DSTERF). Each reflector is
I - u u^T with u normalised from the norm its step already takes. A
panel of the reduction keeps each u and its update vector as a
contiguous row of one array, so every update it makes is a single
matrix product, and the pairs are exchanged only in short rows of
coefficients or one strip of the panel at a time. Scale is decided
once, at the entry: every matrix is multiplied by the power of two that
brings its largest entry |A| into [1/2, 1), which is exact, and its
eigenvalues are scaled back, so neither the reduction nor QL checks for
over- or underflow. QL runs on the tridiagonal T in reverse order, so it
deflates from the bottom of T, with one threshold scaled by |T|, the
largest entry of T: e_i**2 <= (eps |T|)**2.
eigenvalues_in_place is the one entry point: it solves a float64 matrix
that the caller hands over as the working array, such as the oracle's
half-size negation block or the quotient's symmetric Laplacian, and
returns raw values for the caller to merge. The matrix must be finite
and exactly symmetric, as both of those are by construction: the entry
checks that and refuses any other, and repairs nothing. A known null
vector, such as the square-root weights of a weighted Laplacian, is
deflated from the whole matrix, so its zero eigenvalue is never
computed; any other zero eigenvalue is computed like the rest.

Every function is pure, except that eigenvalues_in_place destroys its
argument; concurrent calls on distinct matrices are safe.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ConvergenceError

# The absolute tolerances that decide multiplicities, integrality, zeros
# and agreement with the oracle. No function takes one as an argument.
# values less than MERGE_TOL below their group's largest join the group
MERGE_TOL = 1e-6
# a numeric group mean within INTEGER_TOL of an integer is snapped to it
INTEGER_TOL = 1e-6
# two spectra match when paired values differ by at most MATCH_TOL
MATCH_TOL = 1e-6
# a value within ZERO_TOL of 0 counts as a zero eigenvalue
ZERO_TOL = 1e-8
# |A u| <= NULL_VECTOR_TOL * |A| |u| for a null vector u to be deflated
NULL_VECTOR_TOL = 1e-12
# columns per panel of the blocked tridiagonalization
PANEL_WIDTH = 32
# rows per strip of a rank-k update, so its temporary is STRIP_HEIGHT x m,
# never m x m
STRIP_HEIGHT = 64
# QL sweeps allowed per eigenvalue before ConvergenceError
QL_MAX_ITERATIONS = 60
# exchanges u_j with w_j, index 2j with 2j + 1, in a Householder panel's
# coefficients or in one strip of the panel
_PAIR_SWAP = np.arange(2 * PANEL_WIDTH) ^ 1


# ---------------------------------------------------------------------------
# spectrum multisets

class SpectrumEntry(NamedTuple):
    """One eigenvalue and its multiplicity, a (value, multiplicity, exact)
    triple as merge_spectrum takes it.

    The library gives exact values as Python ints, so they stay exact
    above 2**53; other values are floats.
    """

    value: int | float
    multiplicity: int
    exact: bool


@dataclass(frozen=True)
class SpectrumMultiset:
    """Eigenvalues with multiplicities, values strictly descending.

    exact marks entries whose value is known to be an integer, either
    pinned analytically or detected within INTEGER_TOL of one.
    """

    entries: tuple[SpectrumEntry, ...]

    @property
    def total_multiplicity(self) -> int:
        return sum(e.multiplicity for e in self.entries)

    def values(self) -> np.ndarray:
        """Expanded eigenvalue array, descending."""
        if not self.entries:
            return np.zeros(0)
        return np.repeat(
            np.array([e.value for e in self.entries], dtype=np.float64),
            [e.multiplicity for e in self.entries],
        )

    def zero_multiplicity(self) -> int:
        return sum(e.multiplicity for e in self.entries if abs(e.value) <= ZERO_TOL)

    def is_integral(self) -> bool:
        """Whether every value is exact; merge_spectrum decides that once."""
        return all(e.exact for e in self.entries)


def merge_spectrum(triples: Iterable[tuple[float, int, bool]]) -> SpectrumMultiset:
    """Merge (value, multiplicity, exact) triples into tolerance groups.

    Groups are anchored at their largest member and take every value
    within MERGE_TOL of it; an exact member pins the group value (two
    different exact values never merge, however close). A purely numeric
    group takes the multiplicity-weighted mean, snapped to the nearest
    integer when within INTEGER_TOL of one.
    Exact values keep their type, so Python ints stay exact above 2**53
    in comparisons and ordering; only the tolerance tests round them.
    """
    items = [(v if e else float(v), int(m), bool(e)) for v, m, e in triples if m > 0]
    items.sort(key=lambda t: (-t[0], not t[2]))
    # joins no group: it closes the last one and opens one that is dropped
    items.append((None, 0, True))
    # the open group: its anchor, first exact member, multiplicity and
    # the running sum of value * multiplicity over its numeric members
    entries = []
    anchor = pinned = None
    mult = total = 0
    for value, m, exact in items:
        # within MERGE_TOL of the anchor, and no exact value other than the pin
        if (value is not None and anchor is not None and anchor - value < MERGE_TOL
                and (not exact or pinned is None or pinned == value)):
            mult += m
            if not exact:
                total += value * m
            elif pinned is None:
                pinned = value
            continue
        if pinned is not None:
            entries.append(SpectrumEntry(pinned, mult, True))
        elif anchor is not None:
            mean = total / mult
            nearest = round(mean)
            entries.append(SpectrumEntry(nearest, mult, True) if abs(mean - nearest) <= INTEGER_TOL
                           else SpectrumEntry(mean, mult, False))
        anchor, mult = value, m
        pinned, total = (value, 0) if exact else (None, value * m)
    return SpectrumMultiset(tuple(entries))


# ---------------------------------------------------------------------------
# symmetric eigensolver

def _householder_tridiagonalize(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduce symmetric a (destroyed) to (diagonal, subdiagonal).

    Blocked as LAPACK's DSYTRD/DLATRD (Dongarra, Hammarling & Sorensen
    1989). Step k reflects x, the part of column k below the diagonal,
    onto alpha e_1 with H = I - u u^T: u = (x - alpha e_1) / s, where
    s = sqrt(|x|**2 + |x_0| |x|) comes from the norm already taken, so
    u^T u = 2. H A H is then the rank-2 update A - u w^T - w u^T with
    w = A u - (u^T A u / 2) u. Within a panel of PANEL_WIDTH steps the
    pairs are rows of one array U, u_j in row 2j and w_j in row 2j + 1,
    each contiguous, and only the column about to be reduced is brought
    up to date: it takes a row of coefficients, the pairs' entries at
    that column with each pair exchanged by _PAIR_SWAP, times U. A u is
    written straight into the row of w, then corrected the same way. The
    trailing block takes A -= (P U)^T U, STRIP_HEIGHT rows at a time,
    with P the pair swap applied to the strip's columns of U only.

    eigenvalues_in_place scales a to 1/2 <= |A| < 1, so no sum of squares
    overflows, and a column whose squares may lose bits to underflow, such
    as a zero one, has |x| < 1.01e-146 << eps |A|: its step is the identity.
    """
    m = a.shape[0]
    # a sum of squares below this may have lost bits to underflow
    small = sys.float_info.min / sys.float_info.epsilon
    alphas = []
    for start in range(0, m - 2, PANEL_WIDTH):
        width = min(PANEL_WIDTH, m - 2 - start)
        # column c of U is row start + c of a
        U = np.zeros((2 * width, m - start))
        for i in range(width):
            k = start + i
            col = a[k, k:]  # column k by symmetry, stored as row k
            swap = _PAIR_SWAP[:2 * i]
            if i:
                col -= U[swap, i] @ U[:2 * i, i:]
            x = col[1:]
            xx = float(x @ x)
            if xx < small:
                alphas.append(0.0)  # u and w stay zero: the step is the identity
                continue
            r = math.sqrt(xx)
            x0 = float(x[0])
            alpha = -math.copysign(r, x0)
            alphas.append(alpha)
            s = math.sqrt(xx + abs(x0) * r)
            u = U[2 * i, i + 1:]
            np.divide(x, s, out=u)
            u[0] = (x0 - alpha) / s
            w = U[2 * i + 1, i + 1:]
            np.matmul(a[k + 1:, k + 1:], u, out=w)
            if i:
                up = U[:2 * i, i + 1:]
                w -= (up @ u)[swap] @ up
            w -= (0.5 * float(u @ w)) * u
        rest = a[start + width:, start + width:]
        U = U[:, width:]  # columns of the trailing block
        swap = _PAIR_SWAP[:2 * width]
        for lo in range(0, len(rest), STRIP_HEIGHT):
            rows = slice(lo, lo + STRIP_HEIGHT)
            rest[rows] -= U[swap, rows].T @ U
    # each diagonal entry is final once its step has updated it, and the
    # last subdiagonal entry once the last panel has
    sub = a.diagonal(-1).copy()
    sub[:len(alphas)] = alphas
    return a.diagonal().copy(), sub


def _tridiagonal_eigenvalues(diag: np.ndarray, sub: np.ndarray) -> np.ndarray:
    """Root-free QL with shifts on a symmetric tridiagonal matrix T.

    It updates the squared subdiagonal, so a sweep takes no square root
    (Parlett, The Symmetric Eigenvalue Problem). T comes from a matrix
    scaled to 1/2 <= |A| < 1, so 1/6 <= |T| <= m, and neither e_i**2 nor
    (eps |T|)**2 leaves float64's normal range. A block's end is found
    once, when it starts; each sweep then ends the block at the lowest
    new subdiagonal under the threshold.
    """
    m = len(diag)
    # Python floats: scalar access to numpy arrays costs more than the arithmetic
    d, e = diag.tolist(), sub.tolist()
    e2 = [x * x for x in e] + [0.0]
    tol2 = (sys.float_info.epsilon * max(map(abs, d + e))) ** 2
    start = 0
    while start < m:
        end = start
        while e2[end] > tol2:
            end += 1
        l, iterations = start, 0
        while l < end:
            iterations += 1
            if iterations > QL_MAX_ITERATIONS:
                raise ConvergenceError(
                    f"implicit QL cap of {QL_MAX_ITERATIONS} exhausted",
                    residual=math.sqrt(e2[l]),
                )
            rte = math.sqrt(e2[l])
            sigma = (d[l + 1] - d[l]) / (2.0 * rte)
            sigma = d[l] - rte / (sigma + math.copysign(math.hypot(sigma, 1.0), sigma))
            gamma = d[end] - sigma
            p = gamma * gamma
            c, s, low, j = 1.0, 0.0, end, end
            for i in range(end - 1, l - 1, -1):  # j is i + 1
                bb = e2[i]
                r = p + bb
                t = s * r
                e2[j] = t
                if t <= tol2:
                    low = j
                oldc, c = c, p / r
                s = bb / r
                oldgam = gamma
                alpha = d[i]
                gamma = c * (alpha - sigma) - s * oldgam
                d[j] = oldgam + (alpha - gamma)
                p = gamma * gamma / c if c else oldc * bb
                j = i
            e2[l] = s * p
            d[l] = sigma + gamma
            if e2[l] <= tol2:
                l, iterations = l + 1, 0
            end = low
        start = end + 1
    return np.array(d)


def _eigenvalues(a: np.ndarray) -> np.ndarray:
    """Unsorted eigenvalues of symmetric a (destroyed)."""
    if a.shape[0] == 0:
        return np.zeros(0)
    diag, sub = _householder_tridiagonalize(a)
    # QL deflates from the top of its input; given J T J, T reversed, it
    # deflates from the bottom of the T that the top-down reduction leaves,
    # which takes about a third fewer QL steps on the oracle's Laplacians
    return _tridiagonal_eigenvalues(diag[::-1], sub[::-1])


def _checked_scale(a: np.ndarray) -> float:
    """|A|, the largest absolute entry of a, a float64 square matrix that
    must be finite and exactly symmetric and is refused otherwise.

    Works on strips of PANEL_WIDTH rows and the matching columns, so
    each temporary holds one strip.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = 0.0
    for lo in range(0, a.shape[0], PANEL_WIDTH):
        rows = a[lo:lo + PANEL_WIDTH, lo:]
        cols = a[lo:, lo:lo + PANEL_WIDTH].T
        # every entry is in rows or cols; both are tested for a nan or an
        # inf first, as array_equal would call a nan an asymmetry
        strip = float(np.abs(rows).max())
        if not (math.isfinite(strip) and np.isfinite(cols).all()):
            raise ValueError("matrix has a non-finite entry")
        if not np.array_equal(rows, cols):
            raise ValueError("matrix is asymmetric")
        scale = max(scale, strip)
    return scale


def _deflated_eigenvalues(a: np.ndarray, null: np.ndarray) -> np.ndarray:
    """The eigenvalues of symmetric a (destroyed) besides the zero of null.

    The reflector H that maps null onto a multiple of e_1 makes the first
    row and column of H a H vanish; the trailing block holds the rest of
    the spectrum, so the zero is never computed and cannot drift.
    """
    if null.shape != (len(a),) or len(a) == 0:
        raise ValueError(f"null vector of shape {null.shape} for a {a.shape} matrix")
    norm = math.sqrt(float(null @ null))
    if not math.isfinite(norm):  # an inf or a nan entry makes it non-finite
        raise ValueError("null vector has a non-finite norm")
    product = a @ null
    residual = math.sqrt(float(product @ product))
    scale = math.sqrt(float(np.vdot(a, a))) * norm
    if norm == 0.0 or residual > NULL_VECTOR_TOL * scale:
        raise ValueError(
            f"not a null vector: |A u| = {residual:.3e} against |A| |u| = {scale:.3e}"
        )
    v = null / norm
    v[0] += math.copysign(1.0, v[0])
    beta = 2.0 / float(v @ v)
    p = beta * (a @ v)
    p -= (0.5 * beta * float(v @ p)) * v
    for lo in range(0, len(a), STRIP_HEIGHT):
        rows = slice(lo, lo + STRIP_HEIGHT)
        a[rows] -= np.multiply.outer(v[rows], p)
        a[rows] -= np.multiply.outer(p[rows], v)
    return _eigenvalues(a[1:, 1:])


def eigenvalues_in_place(a: np.ndarray, null_vector=None) -> np.ndarray:
    """Unsorted eigenvalues of a, a finite and exactly symmetric float64
    matrix that is the solver's working array: it is checked, not
    symmetrised, then destroyed. A matrix with an inf or a nan, or with
    a[i, j] != a[j, i] anywhere, is refused with a ValueError.
    The solve runs on a times 2**-e, e = frexp(|A|)[1] (0 for a zero
    matrix), which is exact and brings |A| into [1/2, 1); the values and
    a ConvergenceError's residual are scaled back. So 2**k a has the
    values of a times 2**k, bit for bit, while all stay normal floats.

    With null_vector, which must lie in the kernel of a, as the
    square-root weights do for the symmetric form of a weighted Laplacian,
    that vector is deflated and the other m - 1 values are returned; the
    caller adds its zero. Any other zero eigenvalue, such as one per
    further component of a disconnected graph, is computed like the rest.
    A null vector of the wrong shape, with an inf or a nan, or that a
    does not annihilate is refused with a ValueError, as is any null
    vector of an empty matrix.
    """
    if a.dtype != np.float64:
        raise ValueError(f"expected a float64 matrix, got {a.dtype}")
    exponent = math.frexp(_checked_scale(a))[1]
    np.ldexp(a, -exponent, out=a)
    try:
        if null_vector is None:
            values = _eigenvalues(a)
        else:
            values = _deflated_eigenvalues(a, np.asarray(null_vector, dtype=np.float64))
    except ConvergenceError as err:
        err.residual = math.ldexp(err.residual, exponent)
        raise
    return np.ldexp(values, exponent)
