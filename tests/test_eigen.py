import math

import numpy as np
import pytest

from cozero import (
    ConvergenceError,
    SpectrumEntry,
    build_full_graph,
    build_quotient,
    is_prime,
    merge_spectrum,
)
from cozero import eigen
from cozero.eigen import (
    INTEGER_TOL,
    MERGE_TOL,
    PANEL_WIDTH,
    STRIP_HEIGHT,
    SYMMETRY_TOL,
    _householder_tridiagonalize,
    _tridiagonal_eigenvalues,
    eigenvalues_in_place,
)
from cozero.quotient import integer_laplacian, symmetric_laplacian
from reference import (
    adjacency,
    characteristic_polynomial,
    component_count,
    eigenvalue_multiset,
    laplacian,
    poly_eval_int,
)


def bareiss_determinant(matrix):
    """Fraction-free exact determinant; independent oracle for charpolys."""
    a = [list(map(int, row)) for row in matrix]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for swap in range(k + 1, n):
                if a[swap][k] != 0:
                    a[k], a[swap] = a[swap], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def as_entry_pairs(multiset):
    return [(e.value, e.multiplicity) for e in multiset.entries]


class TestEigenvaluesSymmetric:
    def test_zero_matrix(self):
        s = eigenvalue_multiset(np.zeros((2, 2)))
        assert as_entry_pairs(s) == [(0.0, 2)]

    def test_known_two_by_two(self):
        s = eigenvalue_multiset([[1.0, -1.0], [-1.0, 1.0]])
        assert as_entry_pairs(s) == [(2.0, 1), (0.0, 1)]

    def test_quotient_form_of_fifteen(self):
        root8 = math.sqrt(8.0)
        s = eigenvalue_multiset([[2.0, -root8], [-root8, 4.0]])
        values = s.values()
        assert abs(values[0] - 6.0) < 1e-8
        assert abs(values[1]) < 1e-8

    def test_single_entry(self):
        s = eigenvalue_multiset([[5.0]])
        assert as_entry_pairs(s) == [(5.0, 1)]

    def test_diagonal_matrix(self):
        s = eigenvalue_multiset(np.diag([3.0, 1.0, 1.0, -2.0]))
        assert as_entry_pairs(s) == [(3.0, 1), (1.0, 2), (-2.0, 1)]

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="asymmetric"):
            eigenvalues_in_place(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_rejects_an_infinite_entry(self):
        # inf - inf is nan, which no asymmetry bound catches
        with pytest.raises(ValueError, match="non-finite"):
            eigenvalues_in_place(np.array([[1.0, math.inf], [math.inf, 2.0]]))

    def test_rejects_a_nan_entry(self):
        with pytest.raises(ValueError, match="non-finite"):
            eigenvalues_in_place(np.array([[1.0, 0.0], [0.0, math.nan]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            eigenvalues_in_place(np.zeros((2, 3)))

    def test_sweep_cap_raises_with_residual(self, monkeypatch):
        # a QL iteration cap of 0 cannot reduce any off-diagonal entry; the
        # residual is the top one of the first block, in the input's units
        monkeypatch.setattr(eigen, "QL_MAX_ITERATIONS", 0)
        d, e = _householder_tridiagonalize(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        with pytest.raises(ConvergenceError, match="cap of 0") as err:
            _tridiagonal_eigenvalues(d, e)
        assert err.value.residual > 0
        d, e = 1e6 * np.arange(1.0, 5.0), 1e6 * np.array([0.5, 0.25, 0.125])
        with pytest.raises(ConvergenceError) as err:
            _tridiagonal_eigenvalues(d, e)
        assert err.value.residual == pytest.approx(0.5e6, rel=1e-15)

    def test_trace_identity_random(self):
        rng = np.random.default_rng(11)
        for m in (3, 10, 40):
            a = rng.standard_normal((m, m))
            a = a + a.T
            s = eigenvalue_multiset(a)
            total = float(np.sum(s.values()))
            assert abs(total - np.trace(a)) <= 1e-8 * np.linalg.norm(a)

    def test_matches_lapack_on_random(self):
        rng = np.random.default_rng(23)
        for m in (4, 17, 60):
            a = rng.standard_normal((m, m))
            a = a + a.T
            ours = eigenvalue_multiset(a).values()
            reference = np.linalg.eigvalsh(a)[::-1]
            assert float(np.max(np.abs(ours - reference))) < 1e-9 * max(
                1.0, float(np.linalg.norm(a))
            )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        m = 25
        a = rng.standard_normal((m, m))
        a = a + a.T
        perm = rng.permutation(m)
        permuted = a[np.ix_(perm, perm)]
        base = eigenvalue_multiset(a).values()
        shuffled = eigenvalue_multiset(permuted).values()
        assert float(np.max(np.abs(base - shuffled))) < 1e-8

    def test_matches_eigvalsh_across_panel_edges(self):
        # sizes on both sides of one and two blocked-reduction panels, and
        # trailing blocks on both sides of one and two update strips
        nb, sh = PANEL_WIDTH, STRIP_HEIGHT
        rng = np.random.default_rng(7)
        strips = (nb + sh - 1, nb + sh, nb + sh + 1, nb + 2 * sh - 1, nb + 2 * sh + 1)
        for m in (2, 5, 30, 120, nb - 1, nb, nb + 1, 2 * nb + 3, *strips):
            a = rng.standard_normal((m, m))
            a = a + a.T
            ours = eigenvalue_multiset(a).values()
            reference = np.linalg.eigvalsh(a)[::-1]
            assert float(np.max(np.abs(ours - reference))) < 1e-9 * max(
                1.0, float(np.linalg.norm(a))
            ), f"m={m}"

    def test_paths_agree_on_graph_laplacian(self):
        lap = laplacian(build_full_graph(60))
        ours = eigenvalue_multiset(lap).values()
        reference = np.linalg.eigvalsh(lap)[::-1]
        assert float(np.max(np.abs(ours - reference))) < 1e-8

    def test_symmetrises_within_the_limit(self):
        a = np.array([[2.0, 1.0 + 5e-13], [1.0, 2.0]])
        assert [e.value for e in eigenvalue_multiset(a).entries] == [3.0, 1.0]

    def test_empty_matrix(self):
        s = eigenvalue_multiset(np.zeros((0, 0)))
        assert s.entries == ()


class TestEigenvaluesInPlace:
    @staticmethod
    def random_symmetric(rng, m):
        a = rng.standard_normal((m, m))
        return a + a.T

    def test_matches_eigvalsh_of_a_block_diagonal_matrix(self):
        rng = np.random.default_rng(31)
        whole = np.zeros((79, 79))
        at = 0
        for m in (0, 1, 5, 40, 33):
            whole[at:at + m, at:at + m] = self.random_symmetric(rng, m)
            at += m
        ours = np.sort(eigenvalues_in_place(whole.copy()))
        error = float(np.max(np.abs(ours - np.linalg.eigvalsh(whole))))
        assert error <= 4 * len(whole) * np.finfo(np.float64).eps * row_sum_norm(whole)

    def test_deflation_returns_the_rest_of_the_spectrum(self):
        # a Laplacian with the all-ones null vector: deflating it drops one
        # zero and returns the other m - 1 values of the undeflated solve
        adjacency = np.triu(np.random.default_rng(3).random((50, 50)) < 0.2, 1)
        adjacency = (adjacency | adjacency.T).astype(np.float64)
        lap = np.diag(adjacency.sum(axis=1)) - adjacency
        deflated = eigenvalues_in_place(lap.copy(), np.ones(50))
        whole = np.sort(eigenvalues_in_place(lap.copy()))
        assert deflated.shape == (49,)
        assert abs(whole[0]) < 1e-12
        assert float(np.max(np.abs(np.sort(deflated) - whole[1:]))) < 1e-11

    def test_empty_matrix(self):
        assert eigenvalues_in_place(np.zeros((0, 0))).shape == (0,)

    def test_refuses_a_matrix_that_is_not_float64(self):
        with pytest.raises(ValueError, match="float64"):
            eigenvalues_in_place(laplacian(build_full_graph(30)))

    def test_refuses_an_asymmetric_matrix(self):
        with pytest.raises(ValueError, match="asymmetric"):
            eigenvalues_in_place(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_refuses_a_non_finite_entry(self):
        with pytest.raises(ValueError, match="non-finite"):
            eigenvalues_in_place(np.array([[1.0, math.nan], [math.nan, 1.0]]))

    def test_refuses_an_asymmetry_beyond_the_largest_float_as_asymmetric(self):
        # 1e308 - (-1e308) overflows; the halves of the entries do not
        with pytest.raises(ValueError, match="asymmetric"):
            eigenvalues_in_place(np.array([[1.0, 1e308], [-1e308, 1.0]]))

    @staticmethod
    def assert_solves_like_eigvalsh(working, a):
        """eigenvalues_in_place(working), working holding a, against eigvalsh(a)."""
        ours = np.sort(eigenvalues_in_place(working))
        error = float(np.max(np.abs(ours - np.linalg.eigvalsh(a))))
        assert error <= 4 * len(a) * np.finfo(np.float64).eps * row_sum_norm(a)

    @pytest.mark.parametrize("scale", [1e160, 1e-160, 1e-170])
    def test_squares_of_a_scaled_matrix_neither_overflow_nor_underflow(self, scale):
        # squares of the entries overflow, fall to subnormals, or vanish
        a = scale * self.random_symmetric(np.random.default_rng(40), 40)
        self.assert_solves_like_eigvalsh(a.copy(), a)

    def test_a_column_whose_squares_underflow(self):
        # |A| is near 1, but the first column's squares are below 1e-300
        a = self.random_symmetric(np.random.default_rng(40), 40)
        a[0] *= 1e-162
        a[:, 0] *= 1e-162
        self.assert_solves_like_eigvalsh(a.copy(), a)

    @pytest.mark.parametrize("m", [67, 129])
    def test_solves_fortran_ordered_and_strided_working_arrays(self, m):
        a = self.random_symmetric(np.random.default_rng(m), m)
        fortran = np.asfortranarray(a)
        strided = np.zeros((2 * m, 2 * m))[::2, ::2]  # every other row and column
        strided[:] = a
        assert not fortran.flags.c_contiguous and not strided.flags.c_contiguous
        self.assert_solves_like_eigvalsh(fortran, a)
        self.assert_solves_like_eigvalsh(strided, a)


def tridiagonal(diag, sub):
    return np.diag(diag) + np.diag(sub, 1) + np.diag(sub, -1)


def row_sum_norm(a):
    return float(np.max(np.abs(a).sum(axis=1)))


def assert_matches_eigvalsh(a, factor=4):
    """eigenvalue_multiset against eigvalsh merged the same way: equal
    multiplicities, values within factor * m * eps * |A|."""
    ours = eigenvalue_multiset(a).entries
    reference = merge_spectrum((v, 1, False) for v in np.linalg.eigvalsh(a)).entries
    assert [e.multiplicity for e in ours] == [e.multiplicity for e in reference]
    error = max(abs(x.value - y.value) for x, y in zip(ours, reference))
    assert error <= factor * len(a) * np.finfo(np.float64).eps * row_sum_norm(a)


class TestHouseholderPanels:
    @pytest.mark.parametrize(
        "m",
        [PANEL_WIDTH - 1, PANEL_WIDTH, PANEL_WIDTH + 1,
         2 * PANEL_WIDTH - 1, 2 * PANEL_WIDTH, 2 * PANEL_WIDTH + 1, 2 * PANEL_WIDTH + 3],
    )
    def test_zero_reflector_column_inside_a_panel(self, m):
        # a direct sum of random blocks that end in the middle of the first
        # panel, at its last step k = nb - 1, at the first step k = nb of the
        # second panel (a block of one row) and in the middle of the second
        # panel: the last row of each block has a zero reflector column, and
        # the step leaves its pair of panel rows zero, so the blocks stay
        # uncoupled through the panel and trailing updates
        nb = PANEL_WIDTH
        splits = [s for s in (nb // 2, nb, nb + 1, nb + nb // 2) if s <= m - 2]
        rng = np.random.default_rng(m)
        a = np.zeros((m, m))
        edges = [0, *splits, m]
        for lo, hi in zip(edges, edges[1:]):
            b = rng.standard_normal((hi - lo, hi - lo))
            a[lo:hi, lo:hi] = b + b.T
        diag, sub = _householder_tridiagonalize(a.copy())
        assert [sub[s - 1] for s in splits] == [0.0] * len(splits)
        # eigvalsh of T itself, so that only the reduction is tested
        error = np.max(np.abs(np.linalg.eigvalsh(tridiagonal(diag, sub)) - np.linalg.eigvalsh(a)))
        assert error <= 4 * m * np.finfo(np.float64).eps * row_sum_norm(a)


class TestGradedAndClustered:
    @pytest.mark.parametrize("m", [40, 2 * PANEL_WIDTH + 3, 150])
    def test_graded_matrix(self, m):
        # entries from 1 to 1e6 in magnitude, graded along the diagonal
        rng = np.random.default_rng(m)
        b = rng.standard_normal((m, m))
        g = np.logspace(0, 3, m)
        a = np.triu(g[:, None] * b * g[None, :])
        assert_matches_eigvalsh(a + np.triu(a, 1).T)

    def test_graded_matrix_from_the_full_product(self):
        # g_i * b_ij * g_j and g_j * b_ji * g_i round apart: the asymmetry
        # is above SYMMETRY_TOL in absolute terms, far below it relative to
        # the entries, which reach 1e6
        m = 40
        b = np.random.default_rng(m).standard_normal((m, m))
        g = np.logspace(0, 3, m)
        a = g[:, None] * (b + b.T) * g[None, :]
        assert float(np.max(np.abs(a - a.T))) > SYMMETRY_TOL
        assert_matches_eigvalsh(a)

    def test_rejects_relative_asymmetry(self):
        # 1e-9 of the largest entry is far above rounding
        a = np.diag([1e6, 2e6, 3e6])
        a[0, 1] = 1e6
        a[1, 0] = 1e6 * (1 + 1e-9)
        with pytest.raises(ValueError, match="asymmetric"):
            eigenvalues_in_place(a)

    @pytest.mark.parametrize("m", [40, 2 * PANEL_WIDTH + 3, 150])
    def test_clustered_spectrum(self, m):
        # four clusters, each 1e-9 wide, well inside MERGE_TOL and well away
        # from integers, so both sides merge them into the same four groups
        rng = np.random.default_rng(m)
        q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        values = np.resize([-2.5, 0.25, 1.75, 4.5], m) + 1e-9 * rng.random(m)
        a = np.triu((q * values) @ q.T)
        assert_matches_eigvalsh(a + np.triu(a, 1).T)


def assert_ql_matches_eigvalsh(diag, sub, factor=4):
    """QL's values against eigvalsh of the same tridiagonal, normwise.

    The bound is factor * m * eps * |T|, with |T| the largest absolute
    row sum, at most three times the |T| of QL's deflation threshold.
    """
    diag, sub = np.asarray(diag, dtype=np.float64), np.asarray(sub, dtype=np.float64)
    t = tridiagonal(diag, sub)
    ours = np.sort(_tridiagonal_eigenvalues(diag.copy(), sub.copy()))
    reference = np.linalg.eigvalsh(t)
    norm = float(np.max(np.abs(t).sum(axis=1)))
    bound = factor * len(diag) * np.finfo(np.float64).eps * norm
    assert float(np.max(np.abs(ours - reference))) <= bound


class TestTridiagonalQL:
    def test_one_by_one(self):
        assert _tridiagonal_eigenvalues(np.array([-3.5]), np.zeros(0)).tolist() == [-3.5]

    @pytest.mark.parametrize("diag,sub", [([2.0, 2.0], [1.0]), ([1.0, -4.0], [1e-3]), ([0.0, 0.0], [-7.0])])
    def test_two_by_two(self, diag, sub):
        assert_ql_matches_eigvalsh(diag, sub)

    def test_zero_subdiagonal_returns_the_diagonal(self):
        diag = np.array([3.0, -1.0, 0.0, 2.5, 2.5])
        ours = _tridiagonal_eigenvalues(diag, np.zeros(4))
        assert np.array_equal(np.sort(ours), np.sort(diag))

    def test_interior_zeros_split_up_front(self):
        rng = np.random.default_rng(31)
        for m in (3, 8, 25, 60):
            diag = rng.standard_normal(m)
            sub = rng.standard_normal(m - 1)
            sub[rng.random(m - 1) < 0.3] = 0.0
            sub[m // 2 - 1] = 0.0
            assert_ql_matches_eigvalsh(diag, sub)

    @pytest.mark.parametrize("m", [6, 20, 70])
    def test_repeated_eigenvalues_split_during_the_iteration(self, m):
        # the reduction of Q diag(values) Q^T has no zero subdiagonal to
        # start with; the repeated values make them appear as QL converges
        rng = np.random.default_rng(m)
        q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        values = np.resize([-2.0, 1.0, 3.0, 5.0], m)
        diag, sub = _householder_tridiagonalize((q * values) @ q.T)
        assert_ql_matches_eigvalsh(diag, sub)

    def test_graded_diagonal(self):
        for m in (5, 13, 40):
            diag = np.logspace(0, 12, m)
            sub = 0.5 * np.sqrt(diag[:-1] * diag[1:])
            assert_ql_matches_eigvalsh(diag, sub)
            assert_ql_matches_eigvalsh(diag[::-1].copy(), sub[::-1].copy())

    @pytest.mark.parametrize("scale", [1e150, 1e-150, 1e300, 1e-300])
    def test_squares_neither_overflow_nor_underflow(self, scale):
        # at 1e300 and 1e-300 the squared entries fall outside float64
        # unless QL scales before squaring; the reference is unscaled
        rng = np.random.default_rng(17)
        diag = rng.standard_normal(30)
        sub = rng.standard_normal(29)
        t = tridiagonal(diag, sub)
        ours = np.sort(_tridiagonal_eigenvalues(diag * scale, sub * scale)) / scale
        reference = np.linalg.eigvalsh(t)
        bound = 4 * 30 * np.finfo(np.float64).eps * float(np.max(np.abs(t).sum(axis=1)))
        assert float(np.max(np.abs(ours - reference))) <= bound


class TestNullVectorDeflation:
    def test_zeros_of_other_components_merge_into_the_exact_zero(self):
        # two components, weights (1, 4) and (9, 1, 1), plus an isolated
        # vertex: the square-root weights are deflated from the whole
        # matrix, and the zeros of the other components are computed
        w = np.array([1.0, 4.0, 9.0, 1.0, 1.0, 7.0])
        adjacency = np.zeros((6, 6), dtype=bool)
        for i, j in ((0, 1), (2, 3), (3, 4)):
            adjacency[i, j] = adjacency[j, i] = True
        root = np.sqrt(w)
        sym = -np.outer(root, root) * adjacency
        np.fill_diagonal(sym, (adjacency * w[None, :]).sum(axis=1))
        s = eigenvalue_multiset(sym, null_vector=root)
        assert s.entries[-1] == SpectrumEntry(0.0, 3, True)
        reference = np.linalg.eigvalsh(sym)[::-1]
        assert float(np.max(np.abs(s.values() - reference))) < 1e-12 * np.linalg.norm(sym)

    @pytest.mark.parametrize(
        "m", [STRIP_HEIGHT - 1, STRIP_HEIGHT, STRIP_HEIGHT + 1, 2 * STRIP_HEIGHT + 1]
    )
    def test_deflation_across_strip_edges(self, m):
        # a connected weighted Laplacian in symmetric form; its reflector
        # update runs on both sides of one and two strips
        rng = np.random.default_rng(m)
        w = rng.integers(1, 50, size=m).astype(np.float64)
        adjacency = rng.random((m, m)) < 0.3
        adjacency = np.triu(adjacency, 1)
        adjacency |= adjacency.T
        adjacency[np.arange(m - 1), np.arange(1, m)] = True
        adjacency[np.arange(1, m), np.arange(m - 1)] = True
        root = np.sqrt(w)
        sym = -np.outer(root, root) * adjacency
        np.fill_diagonal(sym, (adjacency * w[None, :]).sum(axis=1))
        s = eigenvalue_multiset(sym, null_vector=root)
        assert s.entries[-1] == SpectrumEntry(0, 1, True)
        reference = np.linalg.eigvalsh(sym)[::-1]
        assert float(np.max(np.abs(s.values() - reference))) < 1e-12 * np.linalg.norm(sym)

    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_deflates_from_a_scaled_matrix(self, scale):
        # |A|**2 overflows or vanishes; the null vector test and the
        # deflating reflector run on the matrix scaled by a power of two,
        # so the test still refuses a vector outside the kernel
        rng = np.random.default_rng(7)
        w = rng.integers(1, 50, size=40).astype(np.float64)
        adjacency = np.triu(rng.random((40, 40)) < 0.3, 1)
        adjacency |= adjacency.T
        root = np.sqrt(w)
        sym = -np.outer(root, root) * adjacency
        np.fill_diagonal(sym, (adjacency * w[None, :]).sum(axis=1))
        sym *= scale
        deflated = np.sort(eigenvalues_in_place(sym.copy(), root))
        reference = np.linalg.eigvalsh(sym)
        assert abs(reference[0]) <= 1e-12 * scale
        error = float(np.max(np.abs(deflated - reference[1:])))
        assert error <= 4 * 40 * np.finfo(np.float64).eps * row_sum_norm(sym)
        with pytest.raises(ValueError, match="not a null vector"):
            eigenvalues_in_place(sym.copy(), np.ones(40))

    def test_rejects_a_vector_outside_the_kernel(self):
        with pytest.raises(ValueError, match="null vector"):
            eigenvalues_in_place(np.array([[1.0, -1.0], [-1.0, 1.0]]), [1.0, 2.0])

    def test_rejects_a_non_finite_vector(self):
        with pytest.raises(ValueError, match="non-finite"):
            eigenvalues_in_place(np.array([[1.0, -1.0], [-1.0, 1.0]]), [1.0, math.nan])

    def test_rejects_a_vector_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="shape"):
            eigenvalues_in_place(np.zeros((2, 2)), [1.0])

    def test_rejects_a_vector_of_an_empty_matrix(self):
        # a 0 x 0 matrix has no zero eigenvalue to deflate
        with pytest.raises(ValueError, match="shape"):
            eigenvalues_in_place(np.zeros((0, 0)), np.zeros(0))

    def test_does_not_modify_the_null_vector(self):
        a = np.array([[1.0, -1.0], [-1.0, 1.0]])
        null = np.array([1.0, 1.0])
        assert eigenvalues_in_place(a, null).tolist() == [2.0]
        assert null.tolist() == [1.0, 1.0]


class TestLaplacianHygiene:
    @pytest.mark.parametrize("n,components", [(8, 3), (12, 1), (30, 1), (9, 2)])
    def test_psd_and_zero_multiplicity(self, n, components):
        graph = build_full_graph(n)
        s = eigenvalue_multiset(laplacian(graph))
        assert s.entries[-1].value >= -1e-8
        assert s.zero_multiplicity() == components
        assert component_count(adjacency(graph)) == components


class TestMergeSpectrum:
    def test_groups_nearby_values(self):
        s = merge_spectrum((v, 1, False) for v in [2.0, 2.0 + 1e-9, 1.0, 0.0])
        assert as_entry_pairs(s) == [(2.0, 2), (1.0, 1), (0.0, 1)]

    def test_exact_pin_wins(self):
        s = merge_spectrum([(4.0, 2, True), (4.0 - 3e-7, 1, False)])
        assert s.entries[0].value == 4.0
        assert s.entries[0].multiplicity == 3
        assert s.entries[0].exact

    def test_distinct_exact_values_never_merge(self):
        s = merge_spectrum([(1.0, 1, True), (1.0 - 1e-9, 1, True)])
        assert len(s.entries) == 2

    def test_near_integer_snaps(self):
        s = merge_spectrum([(2.9999999, 1, False)])
        assert s.entries[0].value == 3.0
        assert s.entries[0].exact

    def test_far_from_integer_stays_numeric(self):
        s = merge_spectrum([(2.5, 1, False)])
        assert not s.entries[0].exact

    def test_zero_multiplicity_dropped(self):
        s = merge_spectrum([(1.0, 0, True), (2.0, 1, True)])
        assert as_entry_pairs(s) == [(2.0, 1)]


def reference_merge(triples):
    """merge_spectrum as one group list, closed afterwards: the grouping
    rules, summation order and value types the library must keep."""
    items = sorted(
        ((v if e else float(v), int(m), bool(e)) for v, m, e in triples if m > 0),
        key=lambda t: (-t[0], not t[2]),
    )
    groups = []
    for item in items:
        if groups:
            group = groups[-1]
            pinned = next((v for v, _, e in group if e), None)
            fits = group[0][0] - item[0] < MERGE_TOL
            if fits and item[2] and pinned is not None and pinned != item[0]:
                fits = False
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
        mean = 0  # left to right, as sum() added floats before Python 3.12
        for v, m, _ in group:
            mean += v * m
        mean /= mult
        nearest = round(mean)
        if abs(mean - nearest) <= INTEGER_TOL:
            entries.append(SpectrumEntry(nearest, mult, True))
        else:
            entries.append(SpectrumEntry(mean, mult, False))
    return tuple(entries)


def typed(entries):
    return [(type(e.value), e.value, e.multiplicity, e.exact) for e in entries]


class TestMergeAgainstGroupList:
    OFFSETS = (
        0.0, 1e-9, -1e-9, 3e-7, MERGE_TOL, -MERGE_TOL, INTEGER_TOL, -INTEGER_TOL,
        MERGE_TOL - 1e-12, MERGE_TOL + 1e-12, -MERGE_TOL + 1e-12, -MERGE_TOL - 1e-12,
        INTEGER_TOL - 1e-12, INTEGER_TOL + 1e-12, -INTEGER_TOL + 1e-12, -INTEGER_TOL - 1e-12,
    )
    ANCHORS = (0, 1, 2, 7, 2**53 + 1, 2**60 + 3, 3**40)

    def random_triples(self, rng):
        triples = []
        for _ in range(int(rng.integers(0, 30))):
            anchor = self.ANCHORS[int(rng.integers(len(self.ANCHORS)))]
            if rng.random() < 0.2:
                anchor += float(rng.uniform(-3, 3))
            mult = int(rng.integers(0, 4))
            kind = rng.random()
            if kind < 0.25 and isinstance(anchor, int):
                triples.append((anchor, mult, True))  # an exact int, maybe above 2**53
            else:
                value = anchor + self.OFFSETS[int(rng.integers(len(self.OFFSETS)))]
                value += float(rng.uniform(-2e-6, 2e-6)) if rng.random() < 0.3 else 0.0
                # an exact float inside MERGE_TOL of another exact value conflicts with it
                triples.append((value, mult, kind < 0.4))
        return triples

    def test_matches_the_group_list_on_random_triples(self):
        rng = np.random.default_rng(2024)
        for _ in range(3000):
            triples = self.random_triples(rng)
            expected = typed(reference_merge(triples))
            assert typed(merge_spectrum(triples).entries) == expected, triples

    def test_large_group(self):
        # one group of a thousand numeric members, as the oracle's
        # largest class eigenvalue at n = 3010
        rng = np.random.default_rng(5)
        triples = [(3.0 + float(x), 1, False) for x in rng.uniform(-4e-7, 4e-7, 1000)]
        triples += [(1.5, 2, False), (2**53 + 1, 3, True)]
        assert typed(merge_spectrum(triples).entries) == typed(reference_merge(triples))


class TestCharacteristicPolynomial:
    def test_one_by_one(self):
        assert characteristic_polynomial([[7]]) == [1, -7]

    def test_quotient_of_twelve(self):
        lap = integer_laplacian(build_quotient(12))
        assert characteristic_polynomial(lap) == [1, -11, 34, -28, 0]

    def test_zero_matrix_gives_pure_power(self):
        assert characteristic_polynomial(np.zeros((4, 4), dtype=int)) == [1, 0, 0, 0, 0]

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="cap"):
            characteristic_polynomial(np.eye(65, dtype=int))

    def test_rejects_non_integer_entries(self):
        with pytest.raises(ValueError, match="non-integer"):
            characteristic_polynomial([[0.5, 0.0], [0.0, 0.5]])

    def test_matches_exact_determinant_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = int(rng.integers(1, 7))
            a = rng.integers(-9, 10, size=(m, m))
            coeffs = characteristic_polynomial(a)
            for x in (-2, -1, 0, 1, 2, 3):
                shifted = x * np.eye(m, dtype=int) - a
                assert poly_eval_int(coeffs, x) == bareiss_determinant(shifted)


class TestPolynomialRootsReal:
    """The eigensolver's values are the roots of the exact characteristic polynomial."""

    def test_matches_quotient_eigensolve_across_moduli(self):
        # numpy multiplies the solved values back out; coefficient k sums
        # C(d, k) products of k eigenvalues, each bounded by the largest
        # absolute row sum rho, so its error is measured against that scale
        for n in range(4, 501):
            if is_prime(n):
                continue
            q = build_quotient(n)
            lap = integer_laplacian(q)
            exact = np.array(characteristic_polynomial(lap), dtype=np.float64)
            solved = eigenvalue_multiset(symmetric_laplacian(q)).values()
            d = q.size
            rho = float(np.max(np.abs(lap).sum(axis=1)))
            scale = np.maximum([math.comb(d, k) * rho**k for k in range(d + 1)], 1.0)
            error = float(np.max(np.abs(np.poly(solved) - exact) / scale))
            assert error <= 1e-12, f"n={n}"
