"""Dense symmetric eigensolver and exact polynomial machinery.

The solver is written here rather than borrowed, and one path serves
every size: blocked Householder tridiagonalization, then implicit QL
with shifts. A known null vector, such as the square-root weights of a
weighted Laplacian, is deflated, so its zero eigenvalue comes out exact.
Characteristic polynomials are exact (Faddeev-LeVerrier over Python
integers) and real roots come from Sturm bisection in integer
arithmetic, so the two routes to a quotient spectrum share no code path.

All entry points are pure; concurrent calls on distinct matrices are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import ConvergenceError
from .numbers import all_divisors

DEFAULT_MERGE_TOL = 1e-6
INTEGER_TOL = 1e-6
CHARPOLY_MAX_DIM = 64
SYMMETRY_TOL = 1e-12
# |A u| <= NULL_VECTOR_TOL * |A| |u| for a null vector u to be deflated
NULL_VECTOR_TOL = 1e-12
# columns per panel of the blocked tridiagonalization
PANEL_WIDTH = 32


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

    def min_value(self) -> float:
        return self.entries[-1].value if self.entries else math.nan

    def zero_multiplicity(self, tol: float = 1e-8) -> int:
        return sum(e.multiplicity for e in self.entries if abs(e.value) <= tol)

    def is_integral(self, tol: float = INTEGER_TOL) -> bool:
        return all(abs(e.value - round(e.value)) <= tol for e in self.entries)


def merge_spectrum(
    triples: Iterable[tuple[float, int, bool]],
    merge_tol: float = DEFAULT_MERGE_TOL,
    integer_tol: float = INTEGER_TOL,
) -> SpectrumMultiset:
    """Merge (value, multiplicity, exact) triples into tolerance groups.

    Groups are anchored at their largest member; an exact member pins the
    group value (two different exact values never merge, whatever the
    tolerance). A purely numeric group takes the multiplicity-weighted
    mean, snapped to the nearest integer when within integer_tol of one.
    Exact values keep their type, so Python ints stay exact above 2**53
    in comparisons and ordering; only the tolerance tests round them.
    """
    items = sorted(
        ((v if e else float(v), int(m), bool(e)) for v, m, e in triples if m > 0),
        key=lambda t: (-t[0], not t[2]),
    )
    groups: list[list[tuple[float, int, bool]]] = []
    for item in items:
        if groups:
            group = groups[-1]
            anchor = group[0][0]
            pinned = next((v for v, _, e in group if e), None)
            fits = anchor - item[0] < merge_tol
            if fits and item[2] and pinned is not None and pinned != item[0]:
                fits = False  # conflicting exact values stay separate
            if fits:
                group.append(item)
                continue
        groups.append([item])

    entries = []
    for group in groups:
        mult = sum(m for _, m, _ in group)
        pinned = next((v for v, _, e in group if e), None)
        if pinned is not None:
            entries.append(SpectrumEntry(pinned, mult, True))
            continue
        mean = sum(v * m for v, m, _ in group) / mult
        nearest = round(mean)
        if abs(mean - nearest) <= integer_tol:
            entries.append(SpectrumEntry(nearest, mult, True))
        else:
            entries.append(SpectrumEntry(mean, mult, False))
    return SpectrumMultiset(tuple(entries))


def spectrum_from_values(
    values: Iterable[float],
    merge_tol: float = DEFAULT_MERGE_TOL,
    integer_tol: float = INTEGER_TOL,
) -> SpectrumMultiset:
    return merge_spectrum(((v, 1, False) for v in values), merge_tol, integer_tol)


# ---------------------------------------------------------------------------
# symmetric eigensolver

def connected_components(adjacency: np.ndarray) -> list[np.ndarray]:
    """Vertex index arrays of the components of a symmetric boolean adjacency.

    Breadth-first by whole frontiers; components come in order of their
    smallest vertex. For a symmetric matrix these are its irreducible
    blocks under the pattern of nonzero off-diagonal entries.
    """
    m = adjacency.shape[0]
    seen = np.zeros(m, dtype=bool)
    components = []
    for start in range(m):
        if seen[start]:
            continue
        member = np.zeros(m, dtype=bool)
        member[start] = True
        frontier = member.copy()
        while frontier.any():
            frontier = adjacency[frontier].any(axis=0) & ~member
            member |= frontier
        seen |= member
        components.append(np.flatnonzero(member))
    return components


def _householder_tridiagonalize(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduce symmetric a (destroyed) to (diagonal, subdiagonal).

    Blocked as LAPACK's DSYTRD/DLATRD (Dongarra, Hammarling & Sorensen
    1989). Step k applies the reflector I - beta v v^T as the rank-2
    update A - v w^T - w v^T. Within a panel of PANEL_WIDTH steps the v
    and w are collected in V and W, and only the column about to be
    reduced is brought up to date; the trailing block then takes the
    whole panel at once, A -= V W^T and A -= W V^T.
    """
    m = a.shape[0]
    diag = np.diagonal(a).copy()
    sub = np.diagonal(a, -1).copy()
    for start in range(0, m - 2, PANEL_WIDTH):
        width = min(PANEL_WIDTH, m - 2 - start)
        # row r of V and W is row start + r of a
        V = np.zeros((m - start, width))
        W = np.zeros((m - start, width))
        for i in range(width):
            k = start + i
            col = a[k, k:]  # column k by symmetry, stored contiguously
            if i:
                col -= V[i:, :i] @ W[i, :i] + W[i:, :i] @ V[i, :i]
            diag[k] = col[0]
            x = col[1:]
            xnorm = math.sqrt(float(x @ x))
            if xnorm == 0.0:
                sub[k] = 0.0
                continue
            alpha = -math.copysign(xnorm, x[0])
            sub[k] = alpha
            v = V[i + 1:, i]
            v[:] = x
            v[0] -= alpha
            beta = 2.0 / float(v @ v)
            p = a[k + 1:, k + 1:] @ v
            if i:
                vp, wp = V[i + 1:, :i], W[i + 1:, :i]
                p -= vp @ (wp.T @ v) + wp @ (vp.T @ v)
            p *= beta
            p -= (0.5 * beta * float(v @ p)) * v
            W[i + 1:, i] = p
        rest = a[start + width:, start + width:]
        rest -= V[width:] @ W[width:].T
        rest -= W[width:] @ V[width:].T
    if m > 2:
        diag[-2:] = np.diagonal(a)[-2:]
        sub[-1] = a[-1, -2]
    return diag, sub


def _tridiagonal_eigenvalues(
    diag: np.ndarray, sub: np.ndarray, max_iterations: int = 60
) -> np.ndarray:
    """Implicit QL with shifts on a symmetric tridiagonal matrix."""
    m = len(diag)
    if m == 1:
        return np.array(diag, dtype=np.float64)
    # Python floats: scalar access to numpy arrays costs more than the arithmetic
    d = [float(x) for x in diag]
    e = [float(x) for x in sub] + [0.0]
    eps = float(np.finfo(np.float64).eps)
    for l in range(m):
        iterations = 0
        while True:
            split = l
            while split < m - 1:
                scale = abs(d[split]) + abs(d[split + 1])
                if abs(e[split]) <= eps * scale:
                    break
                split += 1
            if split == l:
                break
            iterations += 1
            if iterations > max_iterations:
                raise ConvergenceError(
                    f"implicit QL cap of {max_iterations} exhausted",
                    residual=float(abs(e[l])),
                )
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[split] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p_acc = 0.0
            for i in range(split - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p_acc
                    e[split] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p_acc
                r = (d[i] - g) * s + 2.0 * c * b
                p_acc = s * r
                d[i + 1] = g + p_acc
                g = c * r - b
            else:
                d[l] -= p_acc
                e[l] = g
                e[split] = 0.0
    return np.array(d)


def _eigenvalues(a: np.ndarray) -> np.ndarray:
    """Unsorted eigenvalues of symmetric a (destroyed)."""
    if a.shape[0] == 0:
        return np.zeros(0)
    return _tridiagonal_eigenvalues(*_householder_tridiagonalize(a))


def _symmetrized_copy(matrix) -> np.ndarray:
    """float64 copy of a square matrix, checked and symmetrised in place.

    Works on strips of PANEL_WIDTH rows and the matching columns, so the
    copy is the only temporary of the matrix's size.
    """
    a = np.array(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    m = a.shape[0]
    for lo in range(0, m, PANEL_WIDTH):
        hi = min(lo + PANEL_WIDTH, m)
        rows = a[lo:hi, lo:]
        cols = a[lo:, lo:hi].T
        asym = float(np.max(np.abs(rows - cols)))
        if asym > SYMMETRY_TOL:
            raise ValueError(
                f"matrix is asymmetric by {asym:.3e} (limit {SYMMETRY_TOL})"
            )
        mean = 0.5 * (rows + cols)
        a[lo:hi, lo:] = mean
        a[lo:, lo:hi] = mean.T
    return a


def _deflated_eigenvalues(a: np.ndarray, null: np.ndarray) -> np.ndarray:
    """The eigenvalues of symmetric a (destroyed) besides the zero of null.

    The reflector H that maps null onto a multiple of e_1 makes the first
    row and column of H a H vanish; the trailing block holds the rest of
    the spectrum, so the zero is never computed and cannot drift.
    """
    norm = math.sqrt(float(null @ null))
    residual = math.sqrt(float(np.sum((a @ null) ** 2)))
    scale = math.sqrt(float(np.sum(a * a))) * norm
    if norm == 0.0 or residual > NULL_VECTOR_TOL * scale:
        raise ValueError(
            f"not a null vector: |A u| = {residual:.3e} against |A| |u| = {scale:.3e}"
        )
    v = null / norm
    v[0] += math.copysign(1.0, v[0])
    beta = 2.0 / float(v @ v)
    p = beta * (a @ v)
    p -= (0.5 * beta * float(v @ p)) * v
    a -= np.outer(v, p)
    a -= np.outer(p, v)
    return _eigenvalues(a[1:, 1:])


def eigenvalues_symmetric(
    matrix,
    merge_tol: float = DEFAULT_MERGE_TOL,
    null_vector=None,
) -> SpectrumMultiset:
    """All eigenvalues of a real symmetric matrix, merged by multiplicity.

    With null_vector, the matrix is solved one irreducible block (component
    of its nonzero off-diagonal pattern) at a time. Each block must have
    null_vector's restriction in its kernel, as the square-root weights do
    for the symmetric form of a weighted Laplacian, and contributes one
    exact zero.
    """
    a = _symmetrized_copy(matrix)
    if null_vector is None:
        return spectrum_from_values(_eigenvalues(a), merge_tol)
    null = np.asarray(null_vector, dtype=np.float64)
    if null.shape != (len(a),):
        raise ValueError(f"null vector of shape {null.shape} for a {a.shape} matrix")
    pattern = a != 0.0
    np.fill_diagonal(pattern, False)
    blocks = connected_components(pattern)
    triples = [(0, len(blocks), True)]
    for block in blocks:
        part = a if len(block) == len(a) else a[np.ix_(block, block)]
        values = _deflated_eigenvalues(part, null[block])
        triples.extend((v, 1, False) for v in values)
    return merge_spectrum(triples, merge_tol)


# ---------------------------------------------------------------------------
# exact characteristic polynomial

def _as_int_matrix(matrix) -> list[list[int]]:
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    rows: list[list[int]] = []
    for row in a.tolist():
        out_row = []
        for x in row:
            if isinstance(x, bool):
                raise ValueError("boolean entries are not integers")
            if isinstance(x, int):
                out_row.append(x)
            elif isinstance(x, float) and x.is_integer():
                out_row.append(int(x))
            else:
                raise ValueError(f"non-integer entry {x!r}")
        rows.append(out_row)
    return rows


def _int_matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def characteristic_polynomial(matrix) -> list[int]:
    """Coefficients of det(xI - M), descending powers, exact integers.

    Faddeev-LeVerrier over Python integers: the k-th trace is divisible
    by k for any integer matrix, so no rationals ever appear. Dimension
    is capped at CHARPOLY_MAX_DIM; this is meant for the small quotient
    matrices, not for full graphs.
    """
    rows = _as_int_matrix(matrix)
    m = len(rows)
    if m > CHARPOLY_MAX_DIM:
        raise ValueError(
            f"dimension {m} exceeds the exact-arithmetic cap of {CHARPOLY_MAX_DIM}"
        )
    if m == 0:
        return [1]
    coeffs = [1]
    work = [row[:] for row in rows]
    for k in range(1, m + 1):
        if k > 1:
            shifted = [row[:] for row in work]
            for i in range(m):
                shifted[i][i] += coeffs[-1]
            work = _int_matmul(rows, shifted)
        trace = sum(work[i][i] for i in range(m))
        if trace % k != 0:
            raise ArithmeticError(
                f"trace {trace} not divisible by {k}; input was not an integer matrix"
            )
        coeffs.append(-(trace // k))
    return coeffs


def _charpoly_float(matrix: np.ndarray) -> np.ndarray:
    """Float Faddeev-LeVerrier, used only for debug cross-checks."""
    a = np.asarray(matrix, dtype=np.float64)
    m = a.shape[0]
    coeffs = [1.0]
    work = a.copy()
    eye = np.eye(m)
    for k in range(1, m + 1):
        if k > 1:
            work = a @ (work + coeffs[-1] * eye)
        coeffs.append(-float(np.trace(work)) / k)
    return np.array(coeffs)


def poly_eval_int(coeffs: Sequence[int], x: int) -> int:
    """Exact Horner evaluation of an integer polynomial at an integer."""
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# exact real-root isolation (Sturm bisection)
#
# Polynomials are coefficient lists in descending powers. The zero
# polynomial is []; otherwise the leading coefficient is nonzero.
# All interval endpoints are dyadic rationals num / 2**shift, so sign
# evaluations stay in integer arithmetic throughout.

def _poly_trim(c: list) -> list:
    i = 0
    while i < len(c) and c[i] == 0:
        i += 1
    return c[i:]


def _frac(c: Sequence) -> list[Fraction]:
    return [Fraction(x) for x in c]


def _poly_derivative(c: list) -> list:
    deg = len(c) - 1
    if deg < 1:
        return []
    return [coef * (deg - i) for i, coef in enumerate(c[:-1])]


def _poly_sub(a: list, b: list) -> list:
    la, lb = len(a), len(b)
    size = max(la, lb)
    out = [Fraction(0)] * size
    for i, x in enumerate(a):
        out[size - la + i] += Fraction(x)
    for i, x in enumerate(b):
        out[size - lb + i] -= Fraction(x)
    return _poly_trim(out)


def _poly_divmod(num: list, den: list) -> tuple[list, list]:
    """Long division over Fractions; returns (quotient, remainder)."""
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    num = _frac(num)
    den = _frac(den)
    if len(num) < len(den):
        return [], _poly_trim(num)
    quot = [Fraction(0)] * (len(num) - len(den) + 1)
    work = num[:]
    for i in range(len(quot)):
        if work[i] == 0:
            continue
        factor = work[i] / den[0]
        quot[i] = factor
        for j, d in enumerate(den):
            work[i + j] -= factor * d
    return _poly_trim(quot), _poly_trim(work[len(quot):])


def _poly_div_exact(num: list, den: list) -> list[Fraction]:
    quot, rem = _poly_divmod(num, den)
    if rem:
        raise ArithmeticError("polynomial division expected to be exact")
    return _frac(quot)


def _primitive_int(c: list) -> list[int]:
    """Scale by a positive rational down to primitive integer coefficients.

    Positive scaling only: sign flips would corrupt Sturm variation counts.
    """
    if not c:
        return []
    fracs = _frac(c)
    denom_lcm = 1
    for f in fracs:
        denom_lcm = denom_lcm * f.denominator // math.gcd(denom_lcm, f.denominator)
    ints = [int(f * denom_lcm) for f in fracs]
    content = 0
    for x in ints:
        content = math.gcd(content, abs(x))
    if content > 1:
        ints = [x // content for x in ints]
    return ints


def _poly_gcd(a: Sequence, b: Sequence) -> list[int]:
    """Primitive positive-lead gcd via Euclid with per-step primitivization."""
    a = _primitive_int(_poly_trim(list(a)))
    b = _primitive_int(_poly_trim(list(b)))
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, _primitive_int(r)
    if a and a[0] < 0:
        a = [-x for x in a]
    return a


def _squarefree_factors(c: list[int]) -> list[tuple[list[int], int]]:
    """Yun's algorithm: c = const * prod factor_i^i, factors squarefree.

    Intermediate polynomials stay exact Fractions; only the emitted
    factors are primitivized (a positive scale leaves roots unchanged).
    """
    f = _frac(c)
    fp = _poly_derivative(f)
    d = _poly_gcd(c, fp)
    if len(d) <= 1:
        return [(_primitive_int(c), 1)]
    b = _poly_div_exact(f, d)
    cc = _poly_div_exact(fp, d)
    z = _poly_sub(cc, _poly_derivative(b))
    factors: list[tuple[list[int], int]] = []
    i = 1
    while len(b) > 1:
        if i > len(c):
            raise ArithmeticError("squarefree split failed to terminate")
        a = _poly_gcd(b, z) if z else _primitive_int(b)
        if len(a) > 1:
            factors.append((a, i))
        b = _poly_div_exact(b, a)
        zz = _poly_div_exact(z, a) if z else []
        z = _poly_sub(zz, _poly_derivative(b))
        i += 1
    return factors


def _sturm_chain(c: list[int]) -> list[list[int]]:
    chain = [list(c)]
    deriv = _primitive_int(_poly_derivative(c))
    if deriv:
        chain.append(deriv)
    while len(chain[-1]) > 1:
        _, r = _poly_divmod(chain[-2], chain[-1])
        r = _primitive_int(r)
        if not r:
            break
        chain.append([-x for x in r])
    return chain


def _dyadic_sign(c: list[int], num: int, shift: int) -> int:
    """Sign of the polynomial at the dyadic rational num / 2**shift.

    Horner on 2**(shift*deg) * p(num / 2**shift), integers only.
    """
    if not c:
        return 0
    acc = c[0]
    power = 0
    for coef in c[1:]:
        power += shift
        acc = acc * num + (coef << power if coef else 0)
    return (acc > 0) - (acc < 0)


def _variations(chain: list[list[int]], num: int, shift: int) -> int:
    signs = []
    for poly in chain:
        s = _dyadic_sign(poly, num, shift)
        if s != 0:
            signs.append(s)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _split(
    chain: list[list[int]],
    f: list[int],
    lo: int,
    hi: int,
    shift: int,
    v_lo: int,
    v_hi: int,
    roots: list[Fraction],
    intervals: list[tuple[int, int, int]],
) -> None:
    """Split (lo, hi] / 2**shift until each piece isolates exactly one root.

    Sturm counts roots on half-open intervals: v_lo - v_hi of them live
    in (lo, hi]. Midpoints that are roots come out exactly; the recursion
    then continues on a punctured neighbourhood.
    """
    count = v_lo - v_hi
    if count == 0:
        return
    if count == 1:
        intervals.append((lo, hi, shift))
        return
    mid = lo + hi
    lo2, hi2 = lo * 2, hi * 2
    shift2 = shift + 1
    if _dyadic_sign(f, mid, shift2) != 0:
        v_mid = _variations(chain, mid, shift2)
        _split(chain, f, lo2, mid, shift2, v_lo, v_mid, roots, intervals)
        _split(chain, f, mid, hi2, shift2, v_mid, v_hi, roots, intervals)
        return
    roots.append(Fraction(mid, 1 << shift2))
    # carve out a neighbourhood of mid that holds no other root
    extra = 12
    while True:
        s = shift2 + extra
        mid_s = mid << extra
        left = mid_s - 1
        right = mid_s + 1
        if _dyadic_sign(f, left, s) != 0 and _dyadic_sign(f, right, s) != 0:
            v_left = _variations(chain, left, s)
            v_right = _variations(chain, right, s)
            if v_left - v_right == 1:  # only mid itself lives in (left, right]
                break
        extra += 12
    _split(chain, f, lo2 << extra, left, s, v_lo, v_left, roots, intervals)
    _split(chain, f, right, hi2 << extra, s, v_right, v_hi, roots, intervals)


def _exact_root_candidates(f: list[int], approx: Fraction) -> list[Fraction]:
    """Rational-root-theorem candidates near approx (denominator | lead)."""
    candidates = [Fraction(round(approx))]
    lead = abs(f[0])
    if 1 < lead <= 10**6:
        for q in all_divisors(lead):
            if q > 1:
                candidates.append(Fraction(round(approx * q), q))
    return candidates


def _is_exact_root(f: list[int], x: Fraction) -> bool:
    acc = Fraction(0)
    for coef in f:
        acc = acc * x + coef
    return acc == 0


def _refine(f: list[int], lo: int, hi: int, shift: int) -> Fraction:
    """Bisect the half-open isolating interval (lo, hi] / 2**shift."""
    sign_hi = _dyadic_sign(f, hi, shift)
    if sign_hi == 0:
        return Fraction(hi, 1 << shift)
    sign_lo = _dyadic_sign(f, lo, shift)
    if sign_lo == sign_hi:
        # a simple root strictly inside forces opposite endpoint signs
        raise ArithmeticError("isolating interval lost its sign change")
    # stop once the width is ~2**-46 of the root magnitude (or of 1)
    while (hi - lo) << 46 > max(1 << shift, abs(lo), abs(hi)):
        mid = lo + hi
        lo *= 2
        hi *= 2
        shift += 1
        s = _dyadic_sign(f, mid, shift)
        if s == 0:
            return Fraction(mid, 1 << shift)
        if s == sign_lo:
            lo = mid
        else:
            hi = mid
    lo_frac = Fraction(lo, 1 << shift)
    hi_frac = Fraction(hi, 1 << shift)
    # bisection midpoints need not land on rational roots; a candidate
    # inside the final interval that zeroes f exactly is the root itself
    for candidate in _exact_root_candidates(f, (lo_frac + hi_frac) / 2):
        if lo_frac < candidate <= hi_frac and _is_exact_root(f, candidate):
            return candidate
    return Fraction(lo + hi, 1 << (shift + 1))


def _real_roots_squarefree(f: list[int]) -> list[Fraction]:
    deg = len(f) - 1
    if deg == 1:
        return [Fraction(-f[1], f[0])]
    chain = _sturm_chain(f)
    # Cauchy bound rounded up to a power of two keeps endpoints dyadic;
    # every root then lies strictly inside (-b, b)
    lead = abs(f[0])
    tail = max(abs(x) for x in f[1:])
    b = 2
    while b * lead < lead + tail:
        b *= 2
    roots: list[Fraction] = []
    intervals: list[tuple[int, int, int]] = []
    v_lo = _variations(chain, -b, 0)
    v_hi = _variations(chain, b, 0)
    _split(chain, f, -b, b, 0, v_lo, v_hi, roots, intervals)
    for lo, hi, shift in intervals:
        roots.append(_refine(f, lo, hi, shift))
    return roots


def _check_residual(poly: list[int], root: Fraction, tol: float) -> None:
    """Exact residual test |p(root)| <= tol * sum |c_i| |root|^(deg-i)."""
    value = Fraction(0)
    scale = Fraction(0)
    r = Fraction(root)
    for coef in poly:
        value = value * r + coef
        scale = scale * abs(r) + abs(coef)
    if scale == 0:
        return
    if abs(value) > Fraction(tol) * scale:
        raise ArithmeticError(
            f"root {float(root)} fails the residual check: "
            f"|p(root)|/scale = {float(abs(value) / scale):.3e} > {tol}"
        )


def polynomial_roots_real(coeffs: Sequence, tol: float = 1e-9) -> list[float]:
    """All real roots with multiplicity, descending.

    Expects a real-rooted polynomial (Laplacian-similar matrices produce
    those); finding fewer real roots than the degree raises. The pipeline
    is exact until the final float conversion: positive integer scaling,
    zero-root stripping, Yun squarefree split, Sturm bisection isolation,
    dyadic refinement. Every root is residual-checked against the input
    polynomial in exact arithmetic.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    c = _primitive_int(_poly_trim(_frac(coeffs)))
    deg = len(c) - 1
    if deg <= 0:
        return []
    full = list(c)
    roots: list[tuple[Fraction, int]] = []
    n_zero = 0
    while c and c[-1] == 0:
        c.pop()
        n_zero += 1
    if n_zero:
        roots.append((Fraction(0), n_zero))
    if len(c) > 1:
        for factor, mult in _squarefree_factors(c):
            for root in _real_roots_squarefree(factor):
                roots.append((root, mult))
    total = sum(m for _, m in roots)
    if total != deg:
        raise ArithmeticError(
            f"found {total} real roots of a degree-{deg} polynomial; "
            "input has non-real roots"
        )
    for root, _ in roots:
        if root != 0:
            _check_residual(full, root, tol)
    out: list[float] = []
    for root, mult in roots:
        out.extend([float(root)] * mult)
    out.sort(reverse=True)
    return out
