"""Dense symmetric eigensolver and spectrum multisets.

The solver is written here rather than borrowed, and one path serves
every size: blocked Householder tridiagonalization, then root-free QL
with shifts (Pal-Walker-Kahan, as LAPACK's DSTERF). Each panel of the
reduction keeps its reflectors and update vectors in one array, so every
update it makes is a single matrix product. QL runs on the tridiagonal
T in reverse order, so it deflates from the bottom of T, with one
threshold scaled by |T|, the largest entry of T: e_i**2 <= (eps |T|)**2.
It is the only route to eigenvalues. A known null vector,
such as the square-root weights of a weighted Laplacian, is deflated from
the whole matrix, so its zero eigenvalue comes out exact; any other zero
eigenvalue is computed like the rest.

All entry points are pure; concurrent calls on distinct matrices are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

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
# a matrix may be asymmetric by SYMMETRY_TOL * max(1, |A|), |A| its largest entry
SYMMETRY_TOL = 1e-12
# |A u| <= NULL_VECTOR_TOL * |A| |u| for a null vector u to be deflated
NULL_VECTOR_TOL = 1e-12
# columns per panel of the blocked tridiagonalization
PANEL_WIDTH = 32
# rows per strip of a rank-k update, so its temporary is STRIP_HEIGHT x m,
# never m x m
STRIP_HEIGHT = 64
# exchanges columns 2j and 2j + 1 of a Householder panel: v_j with w_j
_PAIR_SWAP = np.arange(2 * PANEL_WIDTH) ^ 1


# ---------------------------------------------------------------------------
# spectrum multisets

@dataclass(frozen=True)
class SpectrumEntry:
    """One eigenvalue and its multiplicity.

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
    items = sorted(
        ((v if e else float(v), int(m), bool(e)) for v, m, e in triples if m > 0),
        key=lambda t: (-t[0], not t[2]),
    )
    # the open group: its anchor, first exact member, multiplicity and
    # the running sum of value * multiplicity over its numeric members
    entries = []
    anchor = pinned = None
    mult = total = 0
    for value, m, exact in items:
        fits = anchor is not None and anchor - value < MERGE_TOL
        if fits and exact and pinned is not None and pinned != value:
            fits = False  # conflicting exact values stay separate
        if not fits:
            if anchor is not None:
                entries.append(_group_entry(pinned, mult, total))
            anchor, pinned, mult, total = value, None, 0, 0
        mult += m
        if not exact:
            total += value * m
        elif pinned is None:
            pinned = value
    if anchor is not None:
        entries.append(_group_entry(pinned, mult, total))
    return SpectrumMultiset(tuple(entries))


def _group_entry(pinned, mult: int, total: float) -> SpectrumEntry:
    if pinned is not None:
        return SpectrumEntry(pinned, mult, True)
    mean = total / mult
    nearest = round(mean)
    if abs(mean - nearest) <= INTEGER_TOL:
        return SpectrumEntry(nearest, mult, True)
    return SpectrumEntry(mean, mult, False)


# ---------------------------------------------------------------------------
# symmetric eigensolver

def component_count(adjacency: np.ndarray) -> int:
    """Number of components of a symmetric boolean adjacency.

    Breadth-first by whole frontiers, whose rows are read STRIP_HEIGHT at
    a time; every vertex a search reaches is marked in one seen array.
    """
    m = adjacency.shape[0]
    seen = np.zeros(m, dtype=bool)
    count = 0
    for start in range(m):
        if seen[start]:
            continue
        count += 1
        seen[start] = True
        rows = [start]
        while len(rows):
            frontier = np.zeros(m, dtype=bool)
            for lo in range(0, len(rows), STRIP_HEIGHT):
                frontier |= adjacency[rows[lo:lo + STRIP_HEIGHT]].any(axis=0)
            frontier &= ~seen
            seen |= frontier
            rows = np.flatnonzero(frontier)
    return count


def upper_pairs(adjacency: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns i < j of the nonzero entries of a square matrix,
    row-major, read STRIP_HEIGHT rows at a time: no m x m temporary."""
    rows, cols = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for lo in range(0, len(adjacency), STRIP_HEIGHT):
        i, j = np.nonzero(np.triu(adjacency[lo:lo + STRIP_HEIGHT, lo:], 1))
        rows.append(i + lo)
        cols.append(j + lo)
    return np.concatenate(rows), np.concatenate(cols)


def _householder_tridiagonalize(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduce symmetric a (destroyed) to (diagonal, subdiagonal).

    Blocked as LAPACK's DSYTRD/DLATRD (Dongarra, Hammarling & Sorensen
    1989). Step k applies the reflector I - beta v v^T as the rank-2
    update A - v w^T - w v^T. Within a panel of PANEL_WIDTH steps the
    pairs are collected in one array U, v_j in column 2j and w_j in
    column 2j + 1, and only the column about to be reduced is brought up
    to date. With P the permutation _PAIR_SWAP, which exchanges the two
    columns of each pair, the sum of v_j w_j^T + w_j v_j^T is U (U P)^T,
    so each update is one product: the next column takes U times a row
    of U P, and the trailing block takes A -= (U P) U^T, STRIP_HEIGHT
    rows at a time, with the columns of one strip permuted at a time.
    """
    m = a.shape[0]
    diag = np.diagonal(a).copy()
    sub = np.diagonal(a, -1).copy()
    for start in range(0, m - 2, PANEL_WIDTH):
        width = min(PANEL_WIDTH, m - 2 - start)
        swap = _PAIR_SWAP[:2 * width]
        # row r of U is row start + r of a
        U = np.zeros((m - start, 2 * width))
        for i in range(width):
            k = start + i
            col = a[k, k:]  # column k by symmetry, stored contiguously
            if i:
                col -= U[i:, :2 * i] @ U[i, swap[:2 * i]]
            diag[k] = col[0]
            x = col[1:]
            xnorm = math.sqrt(float(x @ x))
            if xnorm == 0.0:
                sub[k] = 0.0  # v and w stay zero: the step is the identity
                continue
            alpha = -math.copysign(xnorm, x[0])
            sub[k] = alpha
            v = U[i + 1:, 2 * i]
            v[:] = x
            v[0] -= alpha
            beta = 2.0 / float(v @ v)
            p = a[k + 1:, k + 1:] @ v
            if i:
                up = U[i + 1:, :2 * i]
                p -= up @ (up.T @ v)[swap[:2 * i]]
            p *= beta
            p -= (0.5 * beta * float(v @ p)) * v
            U[i + 1:, 2 * i + 1] = p
        rest = a[start + width:, start + width:]
        U = U[width:]  # rows of the trailing block
        for lo in range(0, len(rest), STRIP_HEIGHT):
            rows = slice(lo, lo + STRIP_HEIGHT)
            rest[rows] -= U[rows][:, swap] @ U.T
    if m > 2:
        diag[-2:] = np.diagonal(a)[-2:]
        sub[-1] = a[-1, -2]
    return diag, sub


def _tridiagonal_eigenvalues(
    diag: np.ndarray, sub: np.ndarray, max_iterations: int = 60
) -> np.ndarray:
    """Root-free QL with shifts on a symmetric tridiagonal matrix T.

    It updates the squared subdiagonal, so a sweep takes no square root
    (Parlett, The Symmetric Eigenvalue Problem). T is first scaled by a
    power of two near |T|, so no square over- or underflows. A block's
    end is found once, when it starts; each sweep then ends the block at
    the lowest new subdiagonal under the threshold.
    """
    m = len(diag)
    # Python floats: scalar access to numpy arrays costs more than the arithmetic
    d, e = diag.tolist(), sub.tolist()
    norm = max(map(abs, d + e))
    scale = math.ldexp(1.0, math.frexp(norm)[1])
    d = [x / scale for x in d]
    e2 = [(x / scale) ** 2 for x in e] + [0.0]
    tol2 = (float(np.finfo(np.float64).eps) * norm / scale) ** 2
    start = 0
    while start < m:
        end = start
        while e2[end] > tol2:
            end += 1
        l, iterations = start, 0
        while l < end:
            iterations += 1
            if iterations > max_iterations:
                raise ConvergenceError(
                    f"implicit QL cap of {max_iterations} exhausted",
                    residual=math.sqrt(e2[l]) * scale,
                )
            rte = math.sqrt(e2[l])
            sigma = (d[l + 1] - d[l]) / (2.0 * rte)
            sigma = d[l] - rte / (sigma + math.copysign(math.hypot(sigma, 1.0), sigma))
            gamma = d[end] - sigma
            p = gamma * gamma
            c, s, low = 1.0, 0.0, end
            for i in range(end - 1, l - 1, -1):
                bb = e2[i]
                r = p + bb
                t = s * r
                e2[i + 1] = t
                if t <= tol2:
                    low = i + 1
                oldc = c
                c = p / r
                s = bb / r
                oldgam = gamma
                alpha = d[i]
                gamma = c * (alpha - sigma) - s * oldgam
                d[i + 1] = oldgam + (alpha - gamma)
                p = gamma * gamma / c if c != 0.0 else oldc * bb
            e2[l] = s * p
            d[l] = sigma + gamma
            if e2[l] <= tol2:
                l, iterations = l + 1, 0
            end = low
        start = end + 1
    return np.array(d) * scale


def _eigenvalues(a: np.ndarray) -> np.ndarray:
    """Unsorted eigenvalues of symmetric a (destroyed)."""
    if a.shape[0] == 0:
        return np.zeros(0)
    diag, sub = _householder_tridiagonalize(a)
    # QL deflates from the top of its input; given J T J, T reversed, it
    # deflates from the bottom of the T that the top-down reduction leaves,
    # which takes about a third fewer QL steps on the oracle's Laplacians
    return _tridiagonal_eigenvalues(diag[::-1], sub[::-1])


def _symmetrized_copy(matrix) -> np.ndarray:
    """float64 copy of a square matrix, checked and symmetrised in place.

    A non-finite entry, or an asymmetry above SYMMETRY_TOL * max(1, |A|)
    with |A| the largest absolute entry, is refused.

    Works on strips of PANEL_WIDTH rows and the matching columns, so
    besides the copy each temporary holds one strip.
    """
    a = np.array(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    m = a.shape[0]
    asym = scale = 0.0
    for lo in range(0, m, PANEL_WIDTH):
        hi = min(lo + PANEL_WIDTH, m)
        rows = a[lo:hi, lo:]
        cols = a[lo:, lo:hi].T
        with np.errstate(invalid="ignore"):  # inf - inf, refused below
            strip_asym = float(np.max(np.abs(rows - cols)))
        # every entry is in rows or cols; an inf or a nan leaves strip_asym non-finite
        if not math.isfinite(strip_asym):
            raise ValueError("matrix has a non-finite entry")
        asym = max(asym, strip_asym)
        scale = max(scale, float(np.max(np.abs(rows))), float(np.max(np.abs(cols))))
        mean = 0.5 * (rows + cols)
        a[lo:hi, lo:] = mean
        a[lo:, lo:hi] = mean.T
    limit = SYMMETRY_TOL * max(1.0, scale)
    if asym > limit:
        raise ValueError(f"matrix is asymmetric by {asym:.3e} (limit {limit:.3e})")
    return a


def _deflated_eigenvalues(a: np.ndarray, null: np.ndarray) -> np.ndarray:
    """The eigenvalues of symmetric a (destroyed) besides the zero of null.

    The reflector H that maps null onto a multiple of e_1 makes the first
    row and column of H a H vanish; the trailing block holds the rest of
    the spectrum, so the zero is never computed and cannot drift.
    """
    norm = math.sqrt(float(null @ null))
    if not math.isfinite(norm):  # an inf or a nan entry makes it non-finite
        raise ValueError("null vector has a non-finite norm")
    residual = math.sqrt(float(np.sum((a @ null) ** 2)))
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
        a[rows] -= np.outer(v[rows], p)
        a[rows] -= np.outer(p[rows], v)
    return _eigenvalues(a[1:, 1:])


def eigenvalues_symmetric(matrix, null_vector=None) -> SpectrumMultiset:
    """All eigenvalues of a real symmetric matrix, merged by multiplicity.

    With null_vector, which must lie in the kernel of the matrix, as the
    square-root weights do for the symmetric form of a weighted Laplacian,
    that vector is deflated from the whole matrix and gives one exact zero.
    Any other zero eigenvalue, such as one per further component of a
    disconnected graph, is computed like the rest and merges into that
    exact zero. A matrix or null vector with an inf or a nan is refused
    with a ValueError.
    """
    a = _symmetrized_copy(matrix)
    if null_vector is None:
        return merge_spectrum((v, 1, False) for v in _eigenvalues(a))
    null = np.asarray(null_vector, dtype=np.float64)
    if null.shape != (len(a),):
        raise ValueError(f"null vector of shape {null.shape} for a {a.shape} matrix")
    if len(a) == 0:
        return SpectrumMultiset(())
    triples = [(0, 1, True)]
    triples.extend((v, 1, False) for v in _deflated_eigenvalues(a, null))
    return merge_spectrum(triples)
