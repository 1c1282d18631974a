import json
import math
import struct

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import nclaplace as nc
from nclaplace.errors import ConsistencyError, DomainError
from nclaplace import quantization
from nclaplace.quantization import (
    norm_bound,
    spectral_norm,
    read_matrix_binary,
    read_matrix_json,
    write_matrix_binary,
    write_matrix_json,
)
from nclaplace.surface import Profile


TWO_PI = 2.0 * math.pi


def _random_real_blf(seed, max_mode=3, interval=(-1.0, 1.0)):
    """Real-valued band-limited function with random polynomial profiles."""
    rng = np.random.default_rng(seed)
    modes = {}
    for j in range(0, max_mode + 1):
        c = rng.standard_normal(3) + (1j * rng.standard_normal(3) if j else 0)

        def f(z, c=c):
            z = np.asarray(z)
            return c[0] + c[1] * z + c[2] * z * z

        def d1(z, c=c):
            z = np.asarray(z)
            return c[1] + 2 * c[2] * z

        def d2(z, c=c):
            return np.full(np.shape(z), 2 * c[2]) if np.ndim(z) else 2 * c[2]

        modes[j] = Profile(f, d1, d2)
    for j in range(1, max_mode + 1):
        pos = modes[j]
        modes[-j] = Profile(
            lambda z, pos=pos: np.conj(pos(z)),
            lambda z, pos=pos: np.conj(pos.d1(z)),
            lambda z, pos=pos: np.conj(pos.d2(z)),
        )
    return nc.BandLimitedFunction(modes, interval, real_valued=True)


class TestGrid:
    def test_paper_nodes_example(self):
        g = nc.build_grid(4, -1, 1, 1)
        assert g.hbar == (1 - (-1)) * 1.0 / 4
        np.testing.assert_allclose(g.nodes(), [-0.5, 0.0, 0.5, 1.0], atol=0)

    def test_table_scale(self):
        g = nc.build_grid(2000, -1, 1, 1)
        assert g.hbar == pytest.approx(0.001, abs=0)

    def test_midpoint_value(self):
        g = nc.build_grid(4, -1, 1, 1)
        assert g.pair_value(1, 2) == pytest.approx(-0.25, abs=0)

    def test_midpoint_symmetry_and_diagonal(self):
        g = nc.build_grid(7, -1, 1, 1.3)
        for n in range(1, 8):
            assert g.pair_value(n, n) == g.node(n)
            for m in range(1, 8):
                assert g.pair_value(n, m) == g.pair_value(m, n)

    def test_symmetric_offset_nodes(self):
        g = nc.build_grid(4, -1, 1, 1, "symmetric")
        np.testing.assert_allclose(g.nodes(), [-0.75, -0.25, 0.25, 0.75], atol=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            nc.build_grid(1, -1, 1, 1)
        with pytest.raises(ValueError):
            nc.build_grid(4, 1, -1, 1)
        with pytest.raises(ValueError):
            nc.build_grid(4, -1, 1, 0.0)
        with pytest.raises(ValueError):
            nc.build_grid(4, -1, 1, 1, "middle")


class TestDefaultBeta:
    def test_unit_sphere(self, unit_sphere):
        assert nc.default_beta(unit_sphere) == pytest.approx(1.0, rel=1e-9)

    def test_radius_two_sphere(self):
        assert nc.default_beta(nc.sphere(2.0)) == pytest.approx(2.0, rel=1e-9)

    def test_prolate(self, prolate_112):
        a, c = 1.0, 2.0
        ecc = math.sqrt(1 - a * a / (c * c))
        area = 2 * math.pi * a * a * (1 + (c / (a * ecc)) * math.asin(ecc))
        assert nc.default_beta(prolate_112) == pytest.approx(area / (4 * math.pi), rel=1e-9)


class TestQuantize:
    def test_constant_gives_identity(self, unit_sphere):
        one = nc.BandLimitedFunction({0: nc.constant_profile(1.0)}, (-1.0, 1.0))
        g = nc.build_grid(6, -1, 1, 1)
        np.testing.assert_array_equal(nc.quantize(one, g), np.eye(6))

    def test_height_gives_node_diagonal(self, unit_sphere):
        g = nc.build_grid(4, -1, 1, 1)
        T = nc.quantize(unit_sphere.coord_z, g)
        np.testing.assert_allclose(T, np.diag([-0.5, 0.0, 0.5, 1.0]), atol=0)

    def test_sphere_x_two_by_two(self, unit_sphere):
        g = nc.build_grid(2, -1, 1, 1)
        T = nc.quantize(unit_sphere.coord_x, g)
        val = 0.5 * math.sqrt(1 - 0.25)
        assert T[0, 1] == pytest.approx(val, abs=1e-15)
        assert T[1, 0] == pytest.approx(val, abs=1e-15)
        assert val == pytest.approx(0.4330127019, abs=1e-10)

    def test_hermitian_for_random_real_function(self):
        f = _random_real_blf(seed=11)
        g = nc.build_grid(16, -1, 1, 1)
        T = nc.quantize(f, g)
        assert np.abs(T - T.conj().T).max() <= 1e-13 * max(1.0, np.abs(T).max())

    def test_hermiticity_checked_on_diagonals(self):
        # a real-valued function whose mode -1 is missing: diagonal +1 of
        # T - T^H is the mode-(-1) diagonal itself
        f = nc.BandLimitedFunction({1: nc.constant_profile(0.5)}, (-1.0, 1.0), real_valued=True)
        with pytest.raises(ConsistencyError, match="deviates from hermitian by 5.00e-01"):
            nc.quantize_banded(f, nc.build_grid(6, -1, 1, 1))

    def test_banded_holds_only_the_mode_diagonals(self):
        f = _random_real_blf(seed=14, max_mode=2)
        g = nc.build_grid(9, -1, 1, 1)
        T = nc.quantize_banded(f, g)
        assert sp.issparse(T)
        offsets = T.tocoo().col - T.tocoo().row
        assert set(offsets) == {-2, -1, 0, 1, 2}

    def test_stored_diagonals_of_every_format(self):
        # DIA layout: entry c of diagonal k is A[c - k, c]; repeated entries add up
        rng = np.random.default_rng(5)
        A = np.diag(rng.standard_normal(5), 1) + np.diag(rng.standard_normal(4) * 1j, -2)
        want = {1: np.r_[0, np.diag(A, 1)], -2: np.r_[np.diag(A, -2), 0, 0]}
        coo = sp.coo_matrix(A)
        twice = lambda a: np.r_[a, a]
        doubled = sp.coo_matrix((twice(coo.data), (twice(coo.row), twice(coo.col))))
        for M, scale in ((A, 1), (sp.csr_array(A), 1), (sp.csc_matrix(A), 1), (sp.dia_matrix(A), 1),
                         (sp.dia_array(A), 1), (doubled, 2)):
            got = quantization.stored_diagonals(M, 6)
            assert sorted(got) == [-2, 1]
            for k, d in want.items():
                np.testing.assert_array_equal(got[k], scale * d)
        assert quantization.stored_diagonals(sp.csr_matrix((6, 6)), 6) == {}

    @pytest.mark.parametrize("offset", ["paper", "symmetric"])
    @pytest.mark.parametrize("N", [9, 16, 401])
    @pytest.mark.parametrize(
        "surf",
        [nc.sphere(), nc.spheroid(1.0, 2.0), nc.spheroid(1.0, 0.1), nc.ellipsoid(1.0, 2.0, 3.0)],
        ids=["sphere", "spheroid-1-2", "spheroid-1-0.1", "ellipsoid-1-2-3"],
    )
    def test_diagonals_equal_the_csr_route_bit_for_bit(self, surf, N, offset):
        # reference: each mode's values on its diagonal of a CSR matrix
        # (sp.diags), read back by stored_diagonals; CSR drops a diagonal
        # that is all zeros, the map keeps it
        grid = nc.build_grid(N, *surf.z_interval, 1.0, offset)

        def through_csr(f):
            modes = sorted(f.modes)
            values = [
                np.broadcast_to(f.profile_values(j, grid.offset_pair_values(-j)), (N - abs(j),))
                for j in modes
            ]
            M = sp.diags(values, [-j for j in modes], shape=(N, N), format="csr")
            return quantization.stored_diagonals(M, N)

        def assert_same(got, want):
            assert list(got) == sorted(got)
            assert set(want) <= set(got)
            for k, d in got.items():
                want_k = want.get(k, np.zeros(N, dtype=complex))
                np.testing.assert_array_equal(d.view(np.uint64), want_k.view(np.uint64))

        fun = dict(zip("xyz", surf.coordinates))
        cases = list(fun.values())
        for a, b in ("xy", "yz", "zx", "zz"):
            cases.append(nc.pointwise_product(fun[a], fun[b]))
            if a != b:
                cases.append(nc.bracket_function(fun[a], fun[b]))
        for f in cases:
            assert_same(quantization.quantize_diagonals(f, grid), through_csr(f))
        coords = nc.coordinate_matrices(surf, grid)
        for got, f in zip(coords.diagonals, surf.coordinates):
            assert_same(got, through_csr(f))

    def test_band_limit_must_stay_below_size(self):
        f = _random_real_blf(seed=12, max_mode=4)
        with pytest.raises(ValueError):
            nc.quantize(f, nc.build_grid(4, -1, 1, 1))

    def test_domain_error_when_grid_leaves_interval(self, prolate_112):
        # beta > 1 pushes nodes past the parameter interval
        beta = nc.default_beta(prolate_112)
        assert beta > 1
        g = nc.build_grid(50, -1, 1, beta)
        with pytest.raises(DomainError):
            nc.quantize(prolate_112.coord_x, g)


class TestCoordinateMatrices:
    def test_sphere_two_by_two(self, unit_sphere):
        g = nc.build_grid(2, -1, 1, 1)
        coords = nc.coordinate_matrices(unit_sphere, g)
        v = math.sqrt(3) / 4
        np.testing.assert_allclose(coords.X, [[0, v], [v, 0]], atol=1e-15)
        np.testing.assert_allclose(coords.Y, [[0, 1j * v], [-1j * v, 0]], atol=1e-15)
        np.testing.assert_allclose(coords.Z, np.diag([0.0, 1.0]), atol=0)

    def test_ellipsoid_axis_scaling(self):
        e = nc.ellipsoid(2.0, 3.0, 1.0)
        g = nc.build_grid(2, -1, 1, 1)
        coords = nc.coordinate_matrices(e, g)
        v = math.sqrt(3) / 4
        assert coords.X[0, 1] == pytest.approx(2 * v, abs=1e-15)
        assert coords.Y[0, 1] == pytest.approx(3j * v, abs=1e-15)
        np.testing.assert_allclose(coords.Z, np.diag([0.0, 1.0]), atol=0)

    def test_structure_tridiagonal_and_diagonal(self, prolate_112):
        g = nc.build_grid(12, -1, 1, 1)
        coords = nc.coordinate_matrices(prolate_112, g)
        band = np.tri(12, 12, 1) * np.tri(12, 12, 1).T
        for M in (coords.X, coords.Y):
            assert np.abs(M - M * band).max() == 0.0
            assert np.abs(np.diag(M)).max() == 0.0
        assert np.abs(coords.Z - np.diag(np.diag(coords.Z))).max() == 0.0

    def test_sphere_large_max_entry_near_equator(self, unit_sphere):
        g = nc.build_grid(2000, -1, 1, 1)
        X = nc.quantize(unit_sphere.coord_x, g)
        scan = np.abs(X).max()
        amplitudes = 0.5 * np.sqrt(1.0 - g.offset_pair_values(1) ** 2)
        assert scan == pytest.approx(amplitudes.max(), abs=0)
        assert scan == pytest.approx(0.5, abs=1e-3)

    def test_commutator_identity_with_height(self, unit_sphere):
        for N in (2, 16, 101):
            g = nc.build_grid(N, -1, 1, 1)
            c = nc.coordinate_matrices(unit_sphere, g)
            dev = np.abs((c.Z @ c.X - c.X @ c.Z) - 1j * g.hbar * c.Y).max()
            assert dev <= 1e-14


class TestTrace:
    def test_identity_trace_forced_by_beta(self, unit_sphere):
        g = nc.build_grid(10, -1, 1, 1)
        assert nc.trace_functional(np.eye(10), g) == pytest.approx(4 * math.pi, rel=1e-12)

    def test_height_trace_is_plain_node_sum(self, unit_sphere):
        g = nc.build_grid(37, -1, 1, 1)
        T = nc.quantize(unit_sphere.coord_z, g)
        assert nc.trace_functional(T, g) == pytest.approx(
            TWO_PI * g.hbar * g.nodes().sum(), abs=1e-14
        )

    def test_height_squared_trace_converges_to_integral(self, unit_sphere):
        # quadrature oracle: int z^2 over the unit sphere = 4*pi/3
        from scipy.integrate import quad

        integral = TWO_PI * quad(lambda z: z * z, -1, 1, epsabs=1e-13)[0]
        assert integral == pytest.approx(4 * math.pi / 3, rel=1e-12)
        z2 = nc.pointwise_product(unit_sphere.coord_z, unit_sphere.coord_z)
        errs = []
        for N in (100, 200):
            g = nc.build_grid(N, -1, 1, 1)
            errs.append(abs(nc.trace_functional(nc.quantize(z2, g), g) - integral))
        # the right-endpoint sum of an even function is second-order accurate:
        # error = 8*pi/(3*N^2), so doubling N divides the error by four
        for N, err in zip((100, 200), errs):
            assert err == pytest.approx(8 * math.pi / (3 * N * N), rel=1e-6)
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.1)

    def test_trace_of_a_map_sums_offset_zero(self, unit_sphere):
        g = nc.build_grid(37, -1, 1, 1)
        for f in unit_sphere.coordinates:
            want = nc.trace_functional(nc.quantize(f, g), g)
            assert nc.trace_functional(nc.quantize_diagonals(f, g), g) == pytest.approx(want, rel=1e-15, abs=1e-15)
        assert nc.trace_functional({}, g) == 0.0

    def test_trace_rejects_large_imaginary_part(self, unit_sphere):
        g = nc.build_grid(4, -1, 1, 1)
        with pytest.raises(ConsistencyError):
            nc.trace_functional(1j * np.eye(4), g)

    def test_equatorial_square_trace_converges(self, unit_sphere):
        # int x^2 over the unit sphere = pi * int (1 - z^2) dz = 4*pi/3
        integral = 4 * math.pi / 3
        x2 = nc.pointwise_product(unit_sphere.coord_x, unit_sphere.coord_x)
        errs = []
        for N in (100, 200):
            g = nc.build_grid(N, -1, 1, 1)
            errs.append(abs(nc.trace_functional(nc.quantize(x2, g), g) - integral))
        assert errs[0] / errs[1] >= 1.9


class TestAxiomDefects:
    def test_same_function_has_no_defect(self, unit_sphere):
        g = nc.build_grid(40, -1, 1, 1)
        d = nc.axiom_defects(unit_sphere.coord_z, unit_sphere.coord_z, g)
        assert d.product_defect == 0.0
        assert d.bracket_defect == 0.0

    def test_height_pairs_bracket_exact(self, unit_sphere):
        # pairs involving the diagonal coordinate reproduce the bracket at
        # machine precision on both grid conventions
        for offset in ("paper", "symmetric"):
            for N in (50, 100):
                g = nc.build_grid(N, -1, 1, 1, offset)
                d = nc.axiom_defects(unit_sphere.coord_z, unit_sphere.coord_x, g)
                assert d.bracket_defect <= 1e-12

    def test_equatorial_pair_at_n100(self, unit_sphere):
        g = nc.build_grid(100, -1, 1, 1)
        d = nc.axiom_defects(unit_sphere.coord_x, unit_sphere.coord_y, g)
        assert d.product_defect < 0.1
        # boundary rows of the default grid pin the scaled-commutator defect
        # near 1/2; the symmetric grid removes it entirely
        assert 0.4 < d.bracket_defect < 0.55
        gs = nc.build_grid(100, -1, 1, 1, "symmetric")
        ds = nc.axiom_defects(unit_sphere.coord_x, unit_sphere.coord_y, gs)
        assert ds.bracket_defect <= 1e-12
        assert ds.product_defect < 0.1

    def test_product_defect_halves_with_size(self, unit_sphere):
        vals = []
        for N in (50, 100, 200):
            g = nc.build_grid(N, -1, 1, 1)
            vals.append(nc.axiom_defects(unit_sphere.coord_z, unit_sphere.coord_x, g).product_defect)
        assert vals[0] / vals[1] == pytest.approx(2.0, abs=0.1)
        assert vals[1] / vals[2] == pytest.approx(2.0, abs=0.1)

    def test_product_defects_decrease_monotonically(self, unit_sphere):
        x, y, z = unit_sphere.coordinates
        for f, g_fun in [(x, y), (y, z), (z, x)]:
            vals = [
                nc.axiom_defects(f, g_fun, nc.build_grid(N, -1, 1, 1)).product_defect
                for N in (50, 100, 200, 400)
            ]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("offset", ["paper", "symmetric"])
    @pytest.mark.parametrize(
        "surf", [nc.sphere(), nc.spheroid(1.0, 2.0), nc.ellipsoid(1.0, 2.0, 3.0)],
        ids=["sphere", "spheroid-1-2", "ellipsoid-1-2-3"],
    )
    def test_defects_match_csr_products_and_dense_svd(self, surf, offset):
        grid = nc.build_grid(60, *surf.z_interval, 1.0, offset)
        fun = dict(zip("xyz", surf.coordinates))
        T = {c: nc.quantize_banded(f, grid) for c, f in fun.items()}
        sigma = lambda M: np.linalg.svd(M, compute_uv=False)[0]
        for a, b in ("xy", "yz", "zx", "zz"):
            f, g = fun[a], fun[b]
            P = (T[a] @ T[b] - nc.quantize_banded(nc.pointwise_product(f, g), grid)).toarray()
            B = ((T[a] @ T[b] - T[b] @ T[a]) / (1j * grid.hbar)
                 - nc.quantize_banded(nc.bracket_function(f, g), grid)).toarray()
            got = nc.axiom_defects(f, g, grid)
            want = (sigma(P), sigma(B), np.linalg.norm(P), np.linalg.norm(B))
            for v, w in zip(
                (got.product_defect, got.bracket_defect, got.product_defect_fro, got.bracket_defect_fro), want
            ):
                assert v == pytest.approx(w, rel=1e-13, abs=1e-13), (a, b)

    def test_frobenius_reported_alongside(self, unit_sphere):
        g = nc.build_grid(60, -1, 1, 1)
        d = nc.axiom_defects(unit_sphere.coord_x, unit_sphere.coord_y, g)
        assert d.product_defect_fro >= d.product_defect
        assert d.bracket_defect_fro >= d.bracket_defect


@settings(max_examples=150, deadline=None)
@given(
    N=st.integers(1, 60),
    lower=st.integers(0, 4),
    upper=st.integers(0, 4),
    hermitian=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_spectral_norm_matches_dense_2_norm(N, lower, upper, hermitian, seed):
    rng = np.random.default_rng(seed)
    offsets = [k for k in range(-lower, upper + 1) if abs(k) < N]
    diagonals = [
        rng.standard_normal(N - abs(k)) + 1j * rng.standard_normal(N - abs(k)) for k in offsets
    ]
    M = sp.diags(diagonals, offsets, shape=(N, N), format="csr")
    if hermitian:
        M = (M + M.conj().T) / 2
    want = np.linalg.norm(M.toarray(), 2)
    assert spectral_norm(M) == pytest.approx(want, rel=1e-13, abs=0)


def test_spectral_norm_of_zero_matrix_is_exactly_zero():
    empty = sp.csr_matrix((5, 5), dtype=complex)
    explicit = sp.csr_matrix((np.zeros(5, complex), (np.arange(5), np.arange(5))), shape=(5, 5))
    assert explicit.nnz == 5
    for M in (empty, explicit):
        assert spectral_norm(M) == 0.0


def _spy_cholesky(monkeypatch, solve=None):
    """Record, for each `spectral_norm` call, the dtype of its Cholesky band,
    and count the factorizations (?pbtrf calls); with `solve`, the
    inverse-iteration solve (?pbtrs) is replaced by it."""
    dtypes, factorizations = [], []
    lookup = sla.get_lapack_funcs

    def spy(names, arrays):
        dtypes.append(arrays[0].dtype)
        funcs = dict(zip(names, lookup(names, arrays)))
        pbtrf = funcs["pbtrf"]

        def counted(*args, **kwargs):
            factorizations.append(1)
            return pbtrf(*args, **kwargs)

        funcs["pbtrf"] = counted
        if solve is not None:
            funcs["pbtrs"] = solve
        return [funcs[name] for name in names]

    monkeypatch.setattr(quantization.sla, "get_lapack_funcs", spy)
    return dtypes, factorizations


@pytest.mark.parametrize("kind", ["real", "imaginary", "mixed"])
def test_spectral_norm_takes_a_real_band_when_mhm_is_real(kind, monkeypatch):
    dtypes, _ = _spy_cholesky(monkeypatch)
    rng = np.random.default_rng(7)
    part = {"real": lambda x, y: x, "imaginary": lambda x, y: 1j * y, "mixed": lambda x, y: x + 1j * y}[kind]
    sizes = (1, 2, 3, 17, 60)
    for N in sizes:
        offsets = [k for k in (-2, -1, 0, 1, 3) if abs(k) < N]
        diagonals = [part(*rng.standard_normal((2, N - abs(k)))) for k in offsets]
        M = sp.diags(diagonals, offsets, shape=(N, N), format="csr")
        want = np.linalg.norm(M.toarray(), 2)
        assert spectral_norm(M) == pytest.approx(want, rel=1e-13, abs=0)
    # a 1 x 1 M^H M is |m|^2, real for every kind
    assert [d == np.float64 for d in dtypes] == [kind != "mixed" or N == 1 for N in sizes]


def _sbevx_norm(M):
    """sqrt(lambda_max(M^H M)) from one banded eigenvalue solve of the real
    band of M^H M (LAPACK ?sbevx), the route `spectral_norm` took before it
    bisected with Cholesky factorizations."""
    A = (M.conj().T @ M).tocoo()
    assert not np.any(A.data.imag)
    n = A.shape[0]
    low = A.row >= A.col
    offset = A.row[low] - A.col[low]
    band = np.zeros((offset.max() + 1, n))
    band[offset, A.col[low]] = A.data.real[low]
    lam = sla.eigvals_banded(band, lower=True, select="i", select_range=(n - 1, n - 1))[0]
    return float(np.sqrt(max(lam, 0.0)))


@pytest.mark.parametrize("N", [1600, 3200])
def test_spectral_norm_agrees_with_the_banded_eigenvalue_solve(N):
    s = nc.spheroid(1.0, 2.0)
    x, y, _ = s.coordinates
    grid = nc.build_grid(N, *s.z_interval, 1.0)
    Tx, Ty = quantization.quantize_banded(x, grid), quantization.quantize_banded(y, grid)
    P = Tx @ Ty - quantization.quantize_banded(nc.pointwise_product(x, y), grid)
    B = (Tx @ Ty - Ty @ Tx) / (1j * grid.hbar) - quantization.quantize_banded(nc.bracket_function(x, y), grid)
    for M in (P, B, Tx):
        assert spectral_norm(M) == pytest.approx(_sbevx_norm(M), rel=1e-13, abs=0)


def test_spectral_norm_bisection_terminates(monkeypatch):
    _, factorizations = _spy_cholesky(monkeypatch)
    d = np.array([0.5, -3.0, 2.0, 1e-3])
    # a diagonal M brackets lambda_max exactly: no factorization at all
    assert spectral_norm(sp.diags(d, format="csr")) == 3.0
    assert spectral_norm(sp.csr_matrix([[-2.5j]])) == 2.5
    assert not factorizations
    rng = np.random.default_rng(3)
    M = sp.diags([rng.standard_normal(39), rng.standard_normal(40), rng.standard_normal(38)], [-1, 0, 2], format="csr")
    want = np.linalg.norm(M.toarray(), 2)
    for scale in (1.0, 1e-150, 3e-151):
        factorizations.clear()
        assert spectral_norm(scale * M) == pytest.approx(scale * want, rel=1e-13, abs=0)
        # hi / lo <= 2 kd + 1, so the bracket halves to one ulp in about 53 + log2(2 kd + 1) steps
        assert 0 < len(factorizations) <= 60


def _plain_bisection_norm(M, N):
    """sqrt(lambda_max(M^H M)) by plain bisection: A = M^H M from CSR
    products, the bracket [max diagonal, largest row sum of |A|] halved at
    its midpoint, each step decided by one ?pbtrf, until the midpoint no
    longer splits it.  Returns (norm, factorizations)."""
    offsets = sorted(M)
    M = sp.dia_matrix((np.array([M[k] for k in offsets]), offsets), shape=(N, N)).tocsr()
    A = (M.conj().T @ M).tocoo()
    data = A.data if np.any(A.data.imag) else A.data.real
    low = A.row >= A.col
    offset = A.row[low] - A.col[low]
    band = np.zeros((offset.max() + 1, N), dtype=data.dtype, order="F")
    band[offset, A.col[low]] = data[low]
    lo = float(band[0].real.max())
    hi = float(np.bincount(A.row, weights=np.abs(A.data), minlength=N).max())
    pbtrf = sla.lapack.zpbtrf if np.iscomplexobj(band) else sla.lapack.dpbtrf
    steps = 0
    while lo < (tau := lo + 0.5 * (hi - lo)) < hi:
        shifted = -band
        shifted[0] += tau
        steps += 1
        if pbtrf(shifted, lower=1, overwrite_ab=1)[1] == 0:
            hi = tau
        else:
            lo = tau
    return math.sqrt(hi), steps


def _axioms_norm_arguments(monkeypatch, argv):
    """The (M, N) of every `spectral_norm` call the axioms command makes."""
    from nclaplace.cli import main

    calls = []
    original = quantization.spectral_norm

    def record(M, N):
        calls.append((M, N))
        return original(M, N)

    with monkeypatch.context() as m:
        m.setattr(quantization, "spectral_norm", record)
        assert main(argv) == 0
    return calls


@pytest.mark.parametrize(
    "flags", [["spheroid", "--axes", "1,2"], ["ellipsoid", "--axes", "1,2,3"]], ids=["spheroid", "ellipsoid"]
)
def test_steered_bisection_equals_plain_bisection(tmp_path, monkeypatch, flags):
    argv = ["axioms", "--surface", *flags, "--N-list", "800", "--out", str(tmp_path)]
    calls = _axioms_norm_arguments(monkeypatch, argv)
    assert len(calls) == 11
    _, factorizations = _spy_cholesky(monkeypatch)
    steered = plain = 0
    for M, N in calls:
        factorizations.clear()
        got = spectral_norm(M, N)
        want, steps = _plain_bisection_norm(M, N) if any(np.any(d) for d in M.values()) else (0.0, 0)
        assert got == pytest.approx(want, rel=1e-15, abs=0)
        assert len(factorizations) <= 30
        steered, plain = steered + len(factorizations), plain + steps
    assert steered < plain / 2


def test_failed_inverse_iteration_falls_back_to_bisection(tmp_path, monkeypatch):
    argv = ["axioms", "--surface", "spheroid", "--axes", "1,2", "--N-list", "400", "--out", str(tmp_path)]
    calls = _axioms_norm_arguments(monkeypatch, argv)
    nan_solve = lambda ab, b, lower=0: (np.full_like(b, np.nan), 0)
    _, factorizations = _spy_cholesky(monkeypatch, solve=nan_solve)
    for M, N in calls:
        if not any(np.any(d) for d in M.values()):
            continue
        factorizations.clear()
        want, steps = _plain_bisection_norm(M, N)
        assert spectral_norm(M, N) == pytest.approx(want, rel=1e-15, abs=0)
        assert abs(len(factorizations) - steps) <= 2


def test_uniform_boundedness_proxy(unit_sphere):
    for N in (8, 16, 32, 64, 128, 256):
        g = nc.build_grid(N, -1, 1, 1)
        for blf in unit_sphere.coordinates:
            T = nc.quantize(blf, g)
            opnorm = np.linalg.svd(T, compute_uv=False)[0]
            assert opnorm <= norm_bound(blf, g) + 1e-12


class TestDequantize:
    def test_roundtrip_exact_at_samples(self):
        f = _random_real_blf(seed=13, max_mode=3)
        g = nc.build_grid(16, -1, 1, 1)
        T = nc.quantize(f, g)
        back = nc.dequantize(T, g, max_mode=3)
        for j in range(-3, 4):
            zpts, vals = back.modes[j].samples
            np.testing.assert_array_equal(vals, f.profile_values(j, zpts))

    def test_identity_has_single_constant_mode(self):
        g = nc.build_grid(8, -1, 1, 1)
        back = nc.dequantize(np.eye(8), g, max_mode=3)
        assert set(back.modes) == {0}
        np.testing.assert_array_equal(back.modes[0].samples[1], np.ones(8))

    def test_max_mode_validated(self):
        g = nc.build_grid(4, -1, 1, 1)
        with pytest.raises(ValueError):
            nc.dequantize(np.eye(4), g, max_mode=4)


def _dump_matrices(n):
    """Dense n x n complex matrices whose parts are often 0.0, -0.0 or
    non-finite, or CSR matrices storing any subset of their entries."""
    parts = hnp.arrays(np.float64, (n, n, 2), elements=st.sampled_from([0.0, -0.0]) | st.floats())
    stored = hnp.arrays(bool, (n, n))

    def build(parts, stored, sparse):
        D = parts.view(complex)[..., 0]
        if not sparse:
            return D
        r, c = np.nonzero(stored)
        return sp.csr_matrix((D[r, c], (r, c)), shape=(n, n))

    return st.builds(build, parts, stored, st.booleans())


def _bits(M, canonical_nan=False):
    """Bit patterns of the real and imaginary parts of M; with canonical_nan
    every NaN reads as float("nan"), as a NaN does after a JSON round trip."""
    parts = np.ascontiguousarray(M, dtype=complex).view(np.float64)
    if canonical_nan:
        parts = np.where(np.isnan(parts), np.nan, parts)
    return parts.view(np.uint64)


def _assert_dump_bytes(tmp_path, M):
    """Both writers give, for M and for its dense form alike, the bytes of
    the banded layout built here diagonal by diagonal: every offset whose
    diagonal holds a part that is not +0.0, all of its entries in row order."""
    dense = M.toarray() if sp.issparse(M) else M
    n = dense.shape[0]
    stored = [(k, np.diagonal(dense, k)) for k in range(1 - n, n)]
    stored = [(k, d) for k, d in stored if _bits(d).any()]
    payload = {
        "N": n,
        "offsets": [k for k, _ in stored],
        "diagonals": [[[z.real, z.imag] for z in d.tolist()] for _, d in stored],
    }
    header = struct.pack("<4sIIII12x", b"NCLQ", 2, n, 0, len(stored))
    offsets = np.array([k for k, _ in stored], dtype="<i4").tobytes()
    binary = header + offsets + b"".join(d.astype("<c16").tobytes() for _, d in stored)
    for given in (M, dense):
        write_matrix_json(tmp_path / "M.json", given)
        assert (tmp_path / "M.json").read_text() == json.dumps(payload)
        write_matrix_binary(tmp_path / "M.nclq", given, 0)
        assert (tmp_path / "M.nclq").read_bytes() == binary


class TestMatrixDumps:
    def test_binary_roundtrip_and_header(self, tmp_path, unit_sphere):
        g = nc.build_grid(5, -1, 1, 1)
        X = nc.quantize(unit_sphere.coord_x, g)
        path = tmp_path / "X.nclq"
        write_matrix_binary(path, X)
        raw = path.read_bytes()
        assert struct.unpack_from("<4sIIII12x", raw) == (b"NCLQ", 2, 5, 1, 2)  # hermitian, D = 2
        assert np.frombuffer(raw, dtype="<i4", count=2, offset=32).tolist() == [-1, 1]
        assert len(raw) == 32 + 4 * 2 + 16 * (4 + 4)  # 32 + 4 D + 16 sum(N - |k|)
        M, flags = read_matrix_binary(path)
        np.testing.assert_array_equal(M, X)
        assert flags == 1

    def test_json_roundtrip(self, tmp_path, unit_sphere):
        g = nc.build_grid(4, -1, 1, 1)
        Y = nc.quantize(unit_sphere.coord_y, g)
        path = tmp_path / "Y.json"
        write_matrix_json(path, Y)
        np.testing.assert_array_equal(read_matrix_json(path), Y)

    def test_json_reader_refuses_a_non_square_payload(self, tmp_path):
        path = tmp_path / "M.json"
        good = {"N": 3, "offsets": [-1, 1], "diagonals": [[[1.0, 0.0], [2.0, 0.0]], [[3.0, 0.0], [4.0, -1.0]]]}
        path.write_text(json.dumps(good))
        np.testing.assert_array_equal(read_matrix_json(path), [[0, 3, 0], [1, 0, 4 - 1j], [0, 2, 0]])
        banded = [
            {**good, "offsets": [1, -1]},
            {**good, "offsets": [1, 1]},
            {"N": 2, "offsets": [2], "diagonals": [[]]},
            {"N": 2, "offsets": [-3], "diagonals": [[]]},
            {**good, "diagonals": good["diagonals"][:1]},
            {**good, "diagonals": [[[1.0, 0.0]], good["diagonals"][1]]},
            {**good, "diagonals": [[[1.0, 0.0], [2.0, 0.0], [5.0, 0.0]], good["diagonals"][1]]},
            {**good, "diagonals": [[[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]], good["diagonals"][1]]},
            {**good, "diagonals": [{}, good["diagonals"][1]]},
            {**good, "N": 3.0},
            {**good, "N": True},
            {**good, "N": -1},
            {**good, "offsets": [-1.0, 1]},
            {**good, "offsets": -1},
            {**good, "version": 2},
            {"offsets": good["offsets"], "diagonals": good["diagonals"]},
        ]
        for payload in ([[[1.0, 0.0], [2.0, 0.0]]], [[1.0, 2.0]], [[[1.0, 0.0, 0.0]]], 3.0, [[{}]], *banded):
            path.write_text(json.dumps(payload))
            with pytest.raises(ValueError):
                read_matrix_json(path)

    def test_binary_reader_refuses_malformed_files(self, tmp_path):
        def header(version=2, n=3, count=2, magic=b"NCLQ"):
            return struct.pack("<4sIIII12x", magic, version, n, 0, count)

        offsets = np.array([-1, 1], dtype="<i4").tobytes()
        entries = np.arange(4, dtype="<c16").tobytes()
        path = tmp_path / "M.nclq"
        path.write_bytes(header() + offsets + entries)
        np.testing.assert_array_equal(read_matrix_binary(path)[0], [[0, 2, 0], [0, 0, 3], [0, 1, 0]])
        for raw in (
            header(magic=b"NCLX") + offsets + entries,
            header(version=3) + offsets + entries,
            header(version=0) + offsets + entries,
            header()[:20],
            header() + offsets + entries[:-16],
            header() + offsets + entries + bytes(16),
            header() + offsets + entries + bytes(1),
            header(count=3) + offsets + entries,
            header(count=0) + offsets + entries,
            header() + np.array([1, -1], dtype="<i4").tobytes() + entries,
            header() + np.array([1, 1], dtype="<i4").tobytes() + entries,
            header(n=1) + offsets + entries[:32],
            header(version=1) + np.zeros(8, dtype="<c16").tobytes(),
        ):
            path.write_bytes(raw)
            with pytest.raises(ValueError):
                read_matrix_binary(path)

    def test_readers_accept_version_1_files(self, tmp_path):
        D = np.array([[1 + 2j, -0.0], [complex(np.inf, -0.0), complex(np.nan, 1e-300)]])
        path = tmp_path / "M.nclq"
        path.write_bytes(struct.pack("<4sIII16x", b"NCLQ", 1, 2, 1) + D.astype("<c16").tobytes())
        M, flags = read_matrix_binary(path)
        np.testing.assert_array_equal(_bits(M), _bits(D))
        assert flags == 1
        path = tmp_path / "M.json"
        path.write_text(json.dumps(D.view(float).reshape(2, 2, 2).tolist()))
        np.testing.assert_array_equal(_bits(read_matrix_json(path)), _bits(D, canonical_nan=True))

    def test_json_writer_special_entries(self, tmp_path):
        # signed zeros, non-finite parts, a stored zero and an all-zero row
        D = np.zeros((4, 4), dtype=complex)
        D[0, 1] = complex(-0.0, 0.0)
        D[0, 2] = complex(0.0, -0.0)
        D[1, 0] = complex(np.nan, 1.0)
        D[1, 3] = complex(np.inf, -np.inf)
        D[3, 3] = complex(1e-300, -2.5)
        signed = [0.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
        stored_zero = sp.csr_matrix((signed, ([2, 0, 3, 3], [1, 0, 2, 3])), shape=(4, 4))
        assert stored_zero.nnz == 4
        for M in (D, sp.csr_matrix(D), stored_zero, np.zeros((1, 1), complex), np.full((1, 1), -0.0j)):
            _assert_dump_bytes(tmp_path, M)

    @settings(max_examples=200, deadline=None)
    @given(M=st.integers(1, 6).flatmap(_dump_matrices))
    def test_json_writer_bytes_match_the_encoder(self, tmp_path_factory, M):
        _assert_dump_bytes(tmp_path_factory.mktemp("dump"), M)

    @settings(max_examples=200, deadline=None)
    @given(M=st.integers(1, 6).flatmap(_dump_matrices))
    def test_dumps_read_back_bit_for_bit(self, tmp_path_factory, M):
        dense = M.toarray() if sp.issparse(M) else M
        out = tmp_path_factory.mktemp("dump")
        write_matrix_binary(out / "M.nclq", M, 0)
        np.testing.assert_array_equal(_bits(read_matrix_binary(out / "M.nclq")[0]), _bits(dense))
        write_matrix_json(out / "M.json", M)
        np.testing.assert_array_equal(_bits(read_matrix_json(out / "M.json")), _bits(dense, canonical_nan=True))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_hermitian_flag_with_infinite_entries(self, tmp_path):
        M = np.array([[np.inf, 1 - 2j, 0], [1 + 2j, 0.5, 0], [0, 0, -np.inf]])
        N = np.array(M)
        N[0, 1] = complex(np.inf, 1.0)  # its transposed entry is finite
        for matrix, flag in ((M, 1), (sp.csr_matrix(M), 1), (N, 0), (sp.csr_matrix(N), 0)):
            write_matrix_binary(tmp_path / "M.nclq", matrix)
            assert read_matrix_binary(tmp_path / "M.nclq")[1] == flag

    @pytest.mark.parametrize(
        "surf, N, offset",
        [
            (nc.ellipsoid(0.7, 1.4, 2.1), 400, "paper"),
            (nc.spheroid(1.0, 2.0), 57, "paper"),
            (nc.spheroid(1.0, 2.0), 57, "symmetric"),
        ],
        ids=["ellipsoid", "spheroid-paper", "spheroid-symmetric"],
    )
    def test_dump_bytes_equal_the_dense_writers(self, tmp_path, surf, N, offset):
        coords = nc.coordinate_matrices(surf, nc.build_grid(N, *surf.z_interval, 1.0, offset))
        nc.dump_coordinate_matrices(coords, tmp_path / "maps")
        for label in "XYZ":
            dense = getattr(coords, label)
            write_matrix_binary(tmp_path / "dense.nclq", dense)
            write_matrix_json(tmp_path / "dense.json", dense)
            for suffix in ("nclq", "json"):
                got = (tmp_path / "maps" / f"coords_{label}.{suffix}").read_bytes()
                assert got == (tmp_path / f"dense.{suffix}").read_bytes(), (label, suffix)

    def test_dump_caches_no_dense_coordinates(self, tmp_path, prolate_112):
        a, b = prolate_112.z_interval
        coords = nc.coordinate_matrices(prolate_112, nc.build_grid(9, a, b, 1))
        nc.dump_coordinate_matrices(coords, tmp_path)
        assert not {"X", "Y", "Z"} & set(coords.__dict__)
        for label, M in zip("XYZ", coords.banded):
            back, flags = read_matrix_binary(tmp_path / f"coords_{label}.nclq")
            np.testing.assert_array_equal(back, M.toarray())
            assert flags == 1
            np.testing.assert_array_equal(read_matrix_json(tmp_path / f"coords_{label}.json"), back)

    def test_dump_coordinate_matrices(self, tmp_path, unit_sphere):
        g = nc.build_grid(4, -1, 1, 1)
        coords = nc.coordinate_matrices(unit_sphere, g)
        written = nc.dump_coordinate_matrices(coords, tmp_path)
        assert len(written) == 6
        M, _ = read_matrix_binary(tmp_path / "coords_Z.nclq")
        np.testing.assert_array_equal(M, coords.Z)

