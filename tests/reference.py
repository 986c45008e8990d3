"""Independent references the tests compare the library against.

Each one computes its answer the slow, literal way: from the ring
definition, by scanning residues, by trial division, divisor by divisor,
by a search that visits one vertex at a time, by exact Horner
evaluation, or in exact integer arithmetic. The paper's two exact
results live here too: the closed-form spectrum of n = p*q and the
quartic characteristic polynomial of the p**2 * q quotient, with
Faddeev-LeVerrier as the exact polynomial of any small integer matrix
and Sturm bisection over Fractions for its real roots. true_spectrum
takes those roots for the quotient that the library builds, so it checks
the solver and the merge, not the divisor lattice. None is used by the
library itself. Three helpers are no independent references:
integer_part reads the class table off an assembled spectrum's quotient,
eigenvalue_multiset wraps the library's solver so that a test can pass
any matrix and get a merged multiset, and with_flipped_pairs makes a
graph the builder cannot, for the oracle's refusals to be tested.
Two are the library's own hot loops written plainly, which the tuned
ones must match bit for bit: merge_spectrum_loop and ql_loop.
"""

import sys
from collections import Counter, deque
from fractions import Fraction
from itertools import product
from math import copysign, floor, gcd, hypot, prod, sqrt

import numpy as np

from cozero import (
    AssembledSpectrum,
    ConvergenceError,
    FullGraph,
    QuotientGraph,
    SpectrumEntry,
    SpectrumMultiset,
    build_quotient,
    is_prime,
    merge_spectrum,
)
from cozero.eigen import (
    INTEGER_TOL,
    MERGE_TOL,
    QL_MAX_ITERATIONS,
    eigenvalues_in_place,
)
from cozero.numbers import totient_prime_power
from cozero.quotient import integer_laplacian

CHARPOLY_MAX_DIM = 64


def _check_vertex(x: int, n: int) -> None:
    if not 0 < x < n:
        raise ValueError(f"{x} is not a canonical non-zero element of Z_{n}")
    if gcd(x, n) == 1:
        raise ValueError(f"{x} is a unit of Z_{n}")


def is_adjacent_by_definition(x: int, y: int, n: int) -> bool:
    """Ring definition: adjacent iff x lies outside the ideal of y and vice versa.

    Membership of x in the ideal of y reduces to divisibility of x by
    gcd(y, n), because y and gcd(y, n) generate the same ideal of Z_n.
    """
    _check_vertex(x, n)
    _check_vertex(y, n)
    return x % gcd(y, n) != 0 and y % gcd(x, n) != 0


def ideal_of(y: int, n: int) -> frozenset[int]:
    """The principal ideal {r*y mod n}, literally enumerated."""
    return frozenset(r * y % n for r in range(n))


def is_adjacent_exhaustive(x: int, y: int, n: int) -> bool:
    """Ring definition with enumerated ideals. O(n) per call."""
    _check_vertex(x, n)
    _check_vertex(y, n)
    return x not in ideal_of(y, n) and y not in ideal_of(x, n)


def adjacency(graph) -> np.ndarray:
    """The whole boolean adjacency of a built graph, gathered in one read."""
    return graph.adjacency_rows(slice(None))


def component_count(adjacency) -> int:
    """Components of a graph given by its boolean adjacency matrix, by a
    breadth-first search that visits one vertex at a time."""
    seen = np.zeros(len(adjacency), dtype=bool)
    count = 0
    for start in range(len(adjacency)):
        if seen[start]:
            continue
        count += 1
        seen[start] = True
        queue = deque([start])
        while queue:
            new = np.flatnonzero(adjacency[queue.popleft()] & ~seen)
            seen[new] = True
            queue.extend(new.tolist())
    return count


def integer_part(spectrum) -> dict[int, tuple[int, int]]:
    """{d: (weighted degree, class size - 1)}: the eigenvalue each divisor
    class of an assembled spectrum contributes, and how often."""
    q = spectrum.quotient
    return {d: (deg, w - 1) for d, w, deg in zip(q.divisors, q.weights, q.degrees)}


def laplacian(graph) -> np.ndarray:
    """Degree matrix minus adjacency matrix of a built graph, in int64."""
    a = adjacency(graph)
    return np.diag(a.sum(axis=1, dtype=np.int64)) - a


def with_flipped_pairs(graph, pairs):
    """graph, read through a row reader that flips the adjacency of each
    pair (i, j) in pairs, both ways: a graph the builder cannot make."""
    class Flipped(FullGraph):
        def adjacency_rows(self, rows):
            block = super().adjacency_rows(rows)
            index = np.arange(self.vertex_count)[rows]
            for i, j in pairs:
                for a, b in ((i, j), (j, i)):
                    block[index == a, b] ^= True
            return block

    return Flipped(graph.n, graph.vertices, graph.classes)


def eigenvalue_multiset(matrix, null_vector=None) -> SpectrumMultiset:
    """All eigenvalues of a real symmetric matrix, merged by multiplicity.

    A float64 copy of matrix goes to eigenvalues_in_place, so matrix is
    left as it was. A null vector is deflated there and contributes one
    exact zero here, as in assemble_spectrum.
    """
    values = eigenvalues_in_place(np.array(matrix, dtype=np.float64), null_vector)
    triples = [(v, 1, False) for v in values]
    if null_vector is not None:
        triples.append((0, 1, True))
    return merge_spectrum(triples)


def merge_spectrum_loop(triples) -> SpectrumMultiset:
    """merge_spectrum written plainly: the sorted triples walked once, a
    group closed by a helper call when the next value does not fit it,
    and the last group closed after the walk."""
    items = sorted(
        ((v if e else float(v), int(m), bool(e)) for v, m, e in triples if m > 0),
        key=lambda t: (-t[0], not t[2]),
    )
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


def ql_loop(diag: np.ndarray, sub: np.ndarray) -> np.ndarray:
    """eigen._tridiagonal_eigenvalues written plainly: the same root-free
    QL sweeps, indexing d[i + 1] and e2[i + 1] in the inner loop."""
    m = len(diag)
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
                    residual=sqrt(e2[l]),
                )
            rte = sqrt(e2[l])
            sigma = (d[l + 1] - d[l]) / (2.0 * rte)
            sigma = d[l] - rte / (sigma + copysign(hypot(sigma, 1.0), sigma))
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
    return np.array(d)


def gcd_class_count(n: int, d: int) -> int:
    """|{x in [1, n-1] : gcd(x, n) == d}| by direct scan."""
    return sum(1 for x in range(1, n) if gcd(x, n) == d)


def trial_division(n: int) -> tuple[tuple[int, int], ...]:
    """The prime-power factors of n >= 2, ascending, by dividing out every
    d = 2, 3, 4, ... up to the square root of what is left."""
    factors = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            factors.append((d, e))
        d += 1
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)


def closed_form_quotient(f) -> QuotientGraph:
    """The quotient of f.n, one proper divisor d at a time, by the closed
    form in build_quotient's docstring: weight phi(n/d), and with
    a = v_p(d), p^e || n and c_p = p^e - p^(e - a - 1), or p^e if a = e,
    weighted degree n - n/d - prod c_p + phi(n/d). The divisors are every
    exponent vector of f.factors, sorted by the divisor each makes."""
    every = sorted(
        (prod(p**a for (p, _), a in zip(f.factors, vec)), vec)
        for vec in product(*(range(e + 1) for _, e in f.factors))
    )
    divisors, exponents, weights, degrees = [], [], [], []
    for d, vec in every[1:-1]:
        pairs = list(zip(f.factors, vec))
        w = prod(totient_prime_power(p, e - a) for (p, e), a in pairs)
        c = prod(p**e if a == e else p**e - p ** (e - a - 1) for (p, e), a in pairs)
        divisors.append(d)
        exponents.append(vec)
        weights.append(w)
        degrees.append(f.n - f.n // d - c + w)
    return QuotientGraph(f.n, tuple(divisors), tuple(exponents), tuple(weights), tuple(degrees))


def poly_eval_int(coeffs, x: int) -> int:
    """Exact Horner evaluation of an integer polynomial at an integer, or
    of a Fraction polynomial at a Fraction."""
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


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


def _derivative(poly: list) -> list:
    degree = len(poly) - 1
    return [c * (degree - i) for i, c in enumerate(poly[:-1])]


def _divmod(a: list, b: list) -> tuple[list, list]:
    """Quotient and remainder of a by b, coefficient lists of Fractions,
    highest power first; the remainder has no leading zeros."""
    quotient, a = [], list(a)
    while len(a) >= len(b):
        f = a[0] / b[0]
        quotient.append(f)
        a = [x - f * y for x, y in zip(a[1:], b[1:] + [0] * (len(a) - len(b)))]
    while a and a[0] == 0:
        a.pop(0)
    return quotient, a


def _gcd(a: list, b: list) -> list:
    while b:
        a, b = b, _divmod(a, b)[1]
    return [c / a[0] for c in a]


def _sturm_chain(poly: list) -> list[list]:
    chain = [poly, _derivative(poly)]
    while len(chain[-1]) > 1:
        remainder = _divmod(chain[-2], chain[-1])[1]
        if not remainder:
            break
        chain.append([-c for c in remainder])
    return chain


def _sign_changes(chain: list[list], x: Fraction) -> int:
    signs = [v > 0 for v in (poly_eval_int(poly, x) for poly in chain) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _roots_of_square_free(poly: list) -> list[int | float]:
    """Distinct real roots of a square-free polynomial. Sturm's
    theorem counts them exactly in any interval (lo, hi]; bisection
    isolates each one and narrows it to width below 1, where an integer
    root is found by exact evaluation, and then to 2**-60 of its size."""
    if len(poly) < 2:
        return []
    chain = _sturm_chain(poly)

    def count(lo, hi):
        return _sign_changes(chain, lo) - _sign_changes(chain, hi)

    bound = 1 + max(abs(c / poly[0]) for c in poly)
    pending, roots = [(-bound, bound)], []
    while pending:
        lo, hi = pending.pop()
        k = count(lo, hi)
        if k == 0:
            continue
        mid = (lo + hi) / 2
        if k > 1 or hi - lo >= 1:
            pending += [(mid, hi), (lo, mid)]
            continue
        whole = floor(hi)
        if whole > lo and poly_eval_int(poly, whole) == 0:
            roots.append(whole)
            continue
        while hi - lo > abs(mid) / 2**60:
            lo, hi = (lo, mid) if count(lo, mid) else (mid, hi)
            mid = (lo + hi) / 2
        roots.append(float(mid))
    return roots


def real_roots(coeffs) -> list[tuple[int | float, int]]:
    """(root, multiplicity) of an integer polynomial whose roots are all
    real, such as the characteristic polynomial of a symmetric matrix,
    descending. An integer root is an int; any other root is the float
    nearest it, to about one unit in the last place.

    The square-free factors come from repeated gcds with the derivative:
    with g_0 the polynomial and g_k = gcd(g_(k-1), g_(k-1)'), s_k =
    g_(k-1) / g_k has every root of multiplicity k or more once, and
    s_k / s_(k+1) those of multiplicity exactly k.
    """
    g = [[Fraction(c) for c in coeffs]]
    while len(g[-1]) > 1:
        g.append(_gcd(g[-1], _derivative(g[-1])))
    s = [_divmod(a, b)[0] for a, b in zip(g, g[1:])] + [[Fraction(1)]]
    out = []
    for k in range(1, len(s)):
        out += [(r, k) for r in _roots_of_square_free(_divmod(s[k - 1], s[k])[0])]
    if sum(m for _, m in out) != len(coeffs) - 1:
        raise ValueError("the polynomial has roots that are not real")
    return sorted(out, key=lambda rm: -rm[0])


def true_spectrum(n: int) -> list[tuple[int | float, int, bool]]:
    """(value, multiplicity, exact) of the Laplacian spectrum of the graph
    of Z_n, descending, from exact arithmetic alone: every divisor class
    gives its weighted degree (weight - 1) times, and the quotient gives
    the roots of the exact characteristic polynomial of its integer
    Laplacian. Only integers are exact, and only equal integers merge.
    Exact arithmetic on the polynomial is slow beyond about a dozen
    quotient divisors."""
    q = build_quotient(n)
    counts = Counter()
    for degree, w in zip(q.degrees, q.weights):
        counts[degree, True] += w - 1
    for root, m in real_roots(characteristic_polynomial(integer_laplacian(q))):
        counts[root, isinstance(root, int)] += m
    ordered = sorted(counts.items(), key=lambda item: (-item[0][0], not item[0][1]))
    return [(v, m, exact) for (v, exact), m in ordered if m]


def _require_distinct_primes(p: int, q: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    if p == q:
        raise ValueError(f"primes must be distinct, got {p} twice")


def closed_form_pq(p: int, q: int) -> AssembledSpectrum:
    """Exact spectrum for n = p*q: {0, p+q-2, (p-1)^(q-2), (q-1)^(p-2)}.

    No numerics anywhere; the quotient on two divisors is a single edge
    whose Laplacian has eigenvalues p+q-2 and 0. The result is always
    integral.
    """
    _require_distinct_primes(p, q)
    lo, hi = min(p, q), max(p, q)
    # divisor lo has weight phi(hi) and weighted degree phi(lo) = lo - 1,
    # and vice versa; the two are adjacent
    quotient = QuotientGraph(p * q, (lo, hi), ((1, 0), (0, 1)), (hi - 1, lo - 1), (lo - 1, hi - 1))
    quotient_part = SpectrumMultiset(
        (SpectrumEntry(p + q - 2, 1, True), SpectrumEntry(0, 1, True))
    )
    combined = merge_spectrum(
        [(lo - 1, hi - 2, True), (hi - 1, lo - 2, True)]
        + list(quotient_part.entries)
    )
    return AssembledSpectrum(p * q, quotient, quotient_part, combined, None)


def charpoly_p2q(p: int, q: int) -> list[int]:
    """Characteristic polynomial of the 4x4 quotient Laplacian of n = p*p*q.

    Monic quartic with zero constant term, exact integer coefficients;
    must match characteristic_polynomial of the constructed matrix.
    """
    _require_distinct_primes(p, q)
    c3 = (p - 1) * (2 * p + 1) + (p + 1) * (q - 1)
    c2 = (
        p * (p - 1) ** 2 * (p + 1)
        + (p - 1) * (p + 1) ** 2 * (q - 1)
        + p * (q - 1) ** 2
        + (p - 1) ** 2 * (q - 1)
    )
    c1 = p * (p - 1) * (q - 1) * ((p - 1) * (p + 1) + p * (q - 1))
    return [1, -c3, c2, -c1, 0]
