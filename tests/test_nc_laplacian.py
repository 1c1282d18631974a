import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import nclaplace as nc
from nclaplace.errors import (
    ConfigError,
    ConsistencyError,
    DegenerateMetricError,
    DenseSizeError,
    NotRevolutionSurfaceError,
    SolverConvergenceError,
)
from nclaplace import cli, nc_laplacian
from nclaplace.nc_laplacian import _dense_pairs, assemble_dense_superoperator

from conftest import (
    block_matrix,
    block_top_levels,
    csr_from_diagonals,
    dense_from_map,
    metric_oracle,
    offset_map,
)


def _ops(surf, N, beta=1.0, offset="paper"):
    a, b = surf.z_interval
    grid = nc.build_grid(N, a, b, beta, offset)
    return nc.build_operator_set(surf, grid)


class TestGamma:
    def test_two_by_two_regression(self, unit_sphere):
        # hand value: S = (w^4/4 + w^2/2) I with w^2 = 3/4, gamma = sqrt(33)/8
        ops = _ops(unit_sphere, 2)
        np.testing.assert_allclose(
            ops.gamma, (math.sqrt(33) / 8) * np.eye(2), atol=1e-14
        )

    def test_sphere_interior_near_identity(self, unit_sphere):
        ops = _ops(unit_sphere, 100)
        diag = np.real(np.diag(ops.gamma))
        assert np.abs(diag[25:75] - 1.0).max() < 1e-3
        off = ops.gamma - np.diag(np.diag(ops.gamma))
        assert np.abs(off).max() < 1e-13

    def test_gamma_squared_recovers_commutator_sum(self, prolate_112):
        ops = _ops(prolate_112, 24)
        X, Y, Z = ops.coords.X, ops.coords.Y, ops.coords.Z
        S = np.zeros_like(X)
        for A, B in ((X, Y), (Y, Z), (Z, X)):
            C = (A @ B - B @ A) / ops.hbar
            S -= C @ C
        err = np.linalg.norm(ops.gamma @ ops.gamma - S) / np.linalg.norm(S)
        assert err < 1e-10

    def test_spheroid_gamma_tracks_area_density(self, prolate_112):
        N = 100
        ops = _ops(prolate_112, N)
        nodes = ops.coords.grid.nodes()
        diag = np.real(np.diag(ops.gamma))
        for n in range(N // 4, 3 * N // 4):
            want = metric_oracle(prolate_112, nodes[n], 0.0)[3]
            assert abs(diag[n] - want) < 10.0 / N

    @pytest.mark.parametrize("N", [2, 3, 200])
    @pytest.mark.parametrize("offset", ["paper", "symmetric"])
    @pytest.mark.parametrize(
        "surf", [nc.sphere(), nc.spheroid(1.0, 2.0)], ids=["sphere", "spheroid"]
    )
    def test_diagonal_route_matches_sparse_products(self, surf, offset, N):
        # reference: S summed from sparse matrix products
        grid = nc.build_grid(N, *surf.z_interval, 1.0, offset)
        coords = nc.coordinate_matrices(surf, grid)
        X, Y, Z = (csr_from_diagonals(d, N) for d in coords.diagonals)
        S = None
        for A, B in ((X, Y), (Y, Z), (Z, X)):
            C = (A @ B - B @ A) / grid.hbar
            S = C @ C if S is None else S + C @ C
        want = np.sqrt(np.clip(np.real(-S.diagonal()), 0.0, None))
        w, V = nc.build_gamma(coords, grid.hbar)
        assert V is None
        assert np.abs(w - want).max() <= 1e-15 * want.max()

    @pytest.mark.parametrize("N", [7, 24])
    def test_triaxial_gamma_is_real(self, triaxial_123, N):
        # S is real symmetric, so gamma and gamma^{-1} come from a real eigh
        ops = _ops(triaxial_123, N)
        assert ops.gamma_eigenvectors.dtype == np.float64
        assert ops.gamma.dtype == np.float64 and ops.gamma_inv.dtype == np.float64
        np.testing.assert_allclose(ops.gamma @ ops.gamma_inv, np.eye(N), rtol=0, atol=1e-12)

    def test_broken_coordinates_raise(self, unit_sphere):
        grid = nc.build_grid(12, -1, 1, 1)
        coords = nc.coordinate_matrices(unit_sphere, grid)
        X = dict(coords.diagonals[0])
        X[11] = np.zeros(12, dtype=complex)
        X[11][11] = 0.5  # entry (0, 11): not hermitian any more
        broken = dataclasses.replace(coords, diagonals=(X, *coords.diagonals[1:]))
        with pytest.raises(ConsistencyError):
            nc.build_gamma(broken, hbar=grid.hbar)


class TestGammaInverse:
    def test_exact_inverse(self):
        # the floor is relative: min/max = 1.5e-12 is inverted
        w = 1e6 * np.array([2.0, 1.0, 0.25, 3e-12])
        np.testing.assert_array_equal(nc.gamma_inverse(w), 1.0 / w)

    @pytest.mark.parametrize(
        "w",
        [np.zeros(3), -np.ones(3), 1e6 * np.array([2.0, 1.0, 1e-12]), np.array([1.0, 0.0]),
         np.array([1.0, -1e-3])],
        ids=["zero", "negative", "near-singular", "singular", "indefinite"],
    )
    def test_degenerate_raises(self, w):
        with pytest.raises(DegenerateMetricError):
            nc.gamma_inverse(w)

    def test_refused_when_the_operator_set_is_built(self, unit_sphere, monkeypatch):
        # the one refusal sits in the constructor, before any solve
        calls = []
        original = nc_laplacian.gamma_inverse
        monkeypatch.setattr(nc_laplacian, "gamma_inverse", lambda w: calls.append(w) or original(w))
        ops = _ops(unit_sphere, 8)
        assert len(calls) == 1
        np.testing.assert_array_equal(ops.gamma_inv_eigenvalues, 1.0 / ops.gamma_eigenvalues)
        w = ops.gamma_eigenvalues.copy()
        w[3] = 0.0
        with pytest.raises(DegenerateMetricError):
            nc.QuantizedOperatorSet(ops.coords, w, None)

    def test_three_fields_and_the_grid_read_through(self, triaxial_123):
        ops = _ops(triaxial_123, 10, beta=0.7, offset="symmetric")
        names = [f.name for f in dataclasses.fields(nc.QuantizedOperatorSet)]
        assert names == ["coords", "gamma_eigenvalues", "gamma_eigenvectors"]
        assert ops.hbar == ops.coords.grid.hbar and ops.N == 10


#: every surface kind the CLI builds, with aspect ratios from 0.2 to 20
GAMMA_SURFACES = [
    pytest.param(nc.sphere(), id="sphere"),
    pytest.param(nc.spheroid(1.0, 2.0), id="spheroid-1-2"),
    pytest.param(nc.spheroid(1.0, 0.2), id="spheroid-1-0.2"),
    pytest.param(nc.spheroid(1.0, 10.0), id="spheroid-1-10"),
    pytest.param(nc.ellipsoid(1.0, 2.0, 3.0), id="ellipsoid-1-2-3"),
    pytest.param(nc.ellipsoid(1.0, 10.0, 20.0), id="ellipsoid-1-10-20"),
]


@pytest.mark.parametrize("offset", ["paper", "symmetric"])
@pytest.mark.parametrize("surf", GAMMA_SURFACES)
def test_gamma_is_positive_definite_with_margin(surf, offset):
    # gamma^{-1} is the plain inverse because no grid in use comes near the
    # GAMMA_MIN_RATIO floor: the smallest min/max measured is about 1.25e-5
    sizes = (2, 3, 8, 40, 80) + ((1000, 8000, 32000) if surf.revolution else ())
    a, b = surf.z_interval
    auto = nc.default_beta(surf)
    # an `auto` beta above 1 puts nodes outside the surface interval, so no
    # operator set exists there (DomainError from the quantization)
    for beta in (0.5, 1.0) + ((auto,) if auto <= 1.0 else ()):
        for N in sizes:
            w = nc.build_operator_set(surf, nc.build_grid(N, a, b, beta, offset)).gamma_eigenvalues
            assert w.min() / w.max() > 1e6 * nc_laplacian.GAMMA_MIN_RATIO, (beta, N)


class TestApply:
    def test_identity_in_kernel(self, unit_sphere):
        ops = _ops(unit_sphere, 40)
        out = nc.apply_laplacian(ops, np.eye(40))
        assert np.abs(out).max() == 0.0

    @pytest.mark.parametrize(
        "surf", [nc.ellipsoid(1.0, 2.0, 3.0), nc.sphere()], ids=["ellipsoid", "sphere"]
    )
    @pytest.mark.parametrize("N", [5, 16])
    def test_real_dense_path_matches_complex_formula(self, surf, N):
        # the formula in complex arithmetic on the complex coordinate matrices
        ops = _ops(surf, N)
        rng = np.random.default_rng(N)
        F = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        G = ops.gamma_inv.astype(complex)
        want = 0
        for Xi in (ops.coords.X, ops.coords.Y, ops.coords.Z):
            inner = G @ (Xi @ F - F @ Xi)
            want = want + G @ (Xi @ inner - inner @ Xi)
        want = -want / ops.hbar**2
        got = nc.apply_laplacian(ops, F)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        # a real F is mapped in real arithmetic alone and comes back real
        real = nc.apply_laplacian(ops, F.real)
        assert real.dtype == np.float64
        np.testing.assert_array_equal(real, got.real)

    @pytest.mark.parametrize("N", [2, 3, 24])
    @pytest.mark.parametrize("offset", ["paper", "symmetric"])
    def test_sparse_and_dense_paths_agree(self, prolate_112, offset, N):
        ops = _ops(prolate_112, N, offset=offset)
        rng = np.random.default_rng(7)
        k = min(2, N - 1)
        F = offset_map(rng.standard_normal(N - k), k, N)
        dense = nc.apply_laplacian(ops, dense_from_map(F, N))
        got = nc.apply_laplacian(ops, F)
        np.testing.assert_allclose(dense_from_map(got, N), dense, atol=1e-10)

    @pytest.mark.parametrize("N", [2, 3, 24])
    @pytest.mark.parametrize("offset", ["paper", "symmetric"])
    @pytest.mark.parametrize(
        "surf", [nc.sphere(), nc.spheroid(1.0, 2.0)], ids=["sphere", "spheroid"]
    )
    def test_banded_path_matches_dense(self, surf, offset, N):
        ops = _ops(surf, N, offset=offset)
        rng = np.random.default_rng(N)
        F = {}
        for k in sorted({0, 1, -1, N - 1, 1 - N, N // 2}):
            v = rng.standard_normal(N - abs(k)) + 1j * rng.standard_normal(N - abs(k))
            F.update(offset_map(v, k, N))
        want = nc.apply_laplacian(ops, dense_from_map(F, N))
        got = nc.apply_laplacian(ops, F)
        assert isinstance(got, dict) and list(got) == sorted(got)
        assert all(abs(k) < N for k in got)
        assert np.abs(dense_from_map(got, N) - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("N", [2, 3, 24])
    @pytest.mark.parametrize("offset", ["paper", "symmetric"])
    def test_banded_path_with_full_gamma(self, triaxial_123, offset, N):
        # gamma^{-1} of an ellipsoid fills every even offset
        ops = _ops(triaxial_123, N, offset=offset)
        rng = np.random.default_rng(3)
        k = min(2, N - 1)
        F = {**offset_map(rng.standard_normal(N - k), k, N), **offset_map(rng.standard_normal(N - 1), -1, N)}
        want = nc.apply_laplacian(ops, dense_from_map(F, N))
        got = nc.apply_laplacian(ops, F)
        assert np.abs(dense_from_map(got, N) - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize(
        "surf", [nc.sphere(), nc.spheroid(1.0, 2.0)], ids=["sphere", "spheroid"]
    )
    def test_banded_residual_equals_csr_residual(self, surf):
        N = 200
        ops = _ops(surf, N)
        G = sp.csr_matrix(sp.diags(ops.gamma_inv_eigenvalues))
        for block in nc.block_decompose(ops, 2):
            values, vectors = block_top_levels(block, 3)
            for lam, v in zip(values, vectors):
                F = sp.diags(v.astype(complex), block.offset, shape=(N, N), format="csr")
                LF = 0
                for X in (csr_from_diagonals(d, N) for d in ops.coords.diagonals):
                    inner = G @ (X @ F - F @ X)
                    LF = LF + G @ (X @ inner - inner @ X)
                LF = -LF / ops.hbar**2
                want = sp.linalg.norm(LF - lam * F) / np.linalg.norm(v)
                got = nc_laplacian._full_residual(ops, lam, offset_map(v, block.offset, N))
                assert abs(got - want) <= 1e-13 * want

    def test_degree_one_harmonic_symmetric_grid(self, unit_sphere):
        # uniform O(1/N^2) defect on the boundary-symmetric grid
        for N in (100, 200):
            ops = _ops(unit_sphere, N, offset="symmetric")
            Tz = nc.quantize(unit_sphere.coord_z, ops.coords.grid)
            R = np.asarray(nc.apply_laplacian(ops, Tz)) + 2.0 * Tz
            assert np.linalg.svd(R, compute_uv=False)[0] < 4.0 / N**2

    def test_degree_one_harmonic_paper_grid_interior(self, unit_sphere):
        # the default grid keeps an O(1) defect in the two pole rows, the
        # interior obeys the second-order envelope
        N = 200
        ops = _ops(unit_sphere, N)
        Tz = nc.quantize(unit_sphere.coord_z, ops.coords.grid)
        R = np.asarray(nc.apply_laplacian(ops, Tz)) + 2.0 * Tz
        assert np.abs(R[N // 8 : -N // 8, N // 8 : -N // 8]).max() < 4.0 / N**2
        Tx = nc.quantize(unit_sphere.coord_x, ops.coords.grid)
        Rx = np.asarray(nc.apply_laplacian(ops, Tx)) + 2.0 * Tx
        assert np.abs(Rx[N // 8 : -N // 8, N // 8 : -N // 8]).max() < 10.0 / N**2

    def test_hermiticity_on_quantized_functions(self, unit_sphere):
        # left-weighted ordering preserves hermiticity only up to O(hbar);
        # diagonal inputs are exact
        devs = []
        for N in (50, 100, 200):
            ops = _ops(unit_sphere, N)
            Tz = nc.quantize(unit_sphere.coord_z, ops.coords.grid)
            Rz = np.asarray(nc.apply_laplacian(ops, Tz))
            assert np.abs(Rz - Rz.conj().T).max() == 0.0
            Tx = nc.quantize(unit_sphere.coord_x, ops.coords.grid)
            Rx = np.asarray(nc.apply_laplacian(ops, Tx))
            devs.append(np.linalg.norm(Rx - Rx.conj().T) / np.linalg.norm(Rx))
        assert devs[0] < 0.1
        assert devs[0] > devs[1] > devs[2]
        assert devs[0] / devs[2] == pytest.approx(4.0, rel=0.2)


class TestDenseSuperoperator:
    def test_action_on_identity_vector(self, unit_sphere):
        ops = _ops(unit_sphere, 2)
        sup = assemble_dense_superoperator(ops)
        out = sup @ np.eye(2).reshape(-1)
        assert np.abs(out).max() < 1e-14

    def test_columns_match_apply(self, unit_sphere, triaxial_123):
        rng = np.random.default_rng(3)
        for surf, N in ((unit_sphere, 5), (triaxial_123, 6), (triaxial_123, 8)):
            ops = _ops(surf, N)
            sup = assemble_dense_superoperator(ops)
            for j in rng.integers(0, N * N, size=4):
                r, c = divmod(int(j), N)
                E = np.zeros((N, N), complex)
                E[r, c] = 1.0
                np.testing.assert_allclose(
                    sup[:, j], np.asarray(nc.apply_laplacian(ops, E)).reshape(-1), atol=1e-12
                )

    def test_kernel_present_at_six(self, unit_sphere):
        ops = _ops(unit_sphere, 6)
        w = np.linalg.eigvals(assemble_dense_superoperator(ops))
        assert np.abs(w).min() < 1e-12

    def test_cap_refusal(self, triaxial_123, prolate_112):
        N = nc_laplacian.DENSE_CAP + 1
        # only the dense oracle refuses; a triaxial operator set builds at any N
        for surf in (prolate_112, triaxial_123):
            ops = _ops(surf, N)
            with pytest.raises(DenseSizeError):
                assemble_dense_superoperator(ops)
            with pytest.raises(DenseSizeError, match=f"N <= {nc_laplacian.DENSE_CAP} "):
                nc.spectrum(ops, strategy="dense")
        assert nc_laplacian.resolve_strategy("auto", revolution=False) == "banded"

    def test_banded_cap_refuses_before_assembly(self, triaxial_123, monkeypatch):
        def no_band(*args):
            raise AssertionError("sector band assembled")

        monkeypatch.setattr(nc_laplacian, "_sector_band", no_band)
        ops = _ops(triaxial_123, 6)
        monkeypatch.setattr(nc_laplacian, "BANDED_CAP", 5)
        with pytest.raises(ConfigError, match="banded strategy needs N <= 5 "):
            nc.spectrum(ops, count=4)


class TestBlocks:
    def test_block_count_and_dimensions(self, unit_sphere):
        ops = _ops(unit_sphere, 6)
        blocks = nc.block_decompose(ops, 5)
        assert len(blocks) == 11
        assert sorted(b.dim for b in blocks) == sorted([6, 5, 5, 4, 4, 3, 3, 2, 2, 1, 1])

    def test_union_matches_dense_spectrum(self, unit_sphere):
        for surf, offset in (
            (unit_sphere, "paper"),
            (unit_sphere, "symmetric"),
            (nc.spheroid(1.0, 0.5), "paper"),
        ):
            ops = _ops(surf, 6, offset=offset)
            sup = assemble_dense_superoperator(ops)
            dense = np.sort(np.linalg.eigvals(sup).real)
            blocks = nc.block_decompose(ops, 5)
            union = np.sort(
                np.concatenate([np.linalg.eigvals(block_matrix(b)).real for b in blocks])
            )
            np.testing.assert_allclose(union, dense, atol=1e-10)

    def test_zero_block_kernel_is_constant_vector(self, unit_sphere):
        ops = _ops(unit_sphere, 10)
        block0 = [b for b in nc.block_decompose(ops, 2) if b.offset == 0][0]
        assert np.abs(block_matrix(block0) @ np.ones(10)).max() < 1e-10

    @pytest.mark.parametrize("N", [2, 3, 24])
    @pytest.mark.parametrize("offset", ["paper", "symmetric"])
    def test_block_action_matches_full_operator(self, prolate_112, offset, N):
        rng = np.random.default_rng(11)
        for surf in (prolate_112, nc.spheroid(1.0, 0.5)):
            ops = _ops(surf, N, offset=offset)
            for block in nc.block_decompose(ops, min(3, N - 1)):
                v = rng.standard_normal(block.dim)
                k = block.offset
                resp = nc.apply_laplacian(ops, offset_map(v, k, N))
                np.testing.assert_allclose(
                    resp[k][max(0, k) : N + min(0, k)].real, block_matrix(block) @ v, atol=1e-10
                )

    @pytest.mark.parametrize("offset", ["paper", "symmetric"])
    def test_vectors_are_eigenvectors_of_the_block(self, prolate_112, offset):
        # levels bisected over a value range, then ?stein: rows v of
        # `vectors` satisfy B v = lambda v for the dense block B
        ops = _ops(prolate_112, 40, offset=offset)
        for block in nc.block_decompose(ops, 3):
            stebz = sla.get_lapack_funcs("stebz", (block.diag,))
            top = block_top_levels(block, 4)[0]
            m, values = nc_laplacian._levels_within(block, top[-1] - 1e-6, np.inf, stebz, 0.0)
            assert m == len(top)
            np.testing.assert_allclose(values[::-1], top, atol=1e-10 * (1.0 + abs(top).max()))
            B = block_matrix(block)
            for lam, v in zip(values, block.vectors(values)):
                assert np.linalg.norm(B @ v - lam * v) <= 1e-10 * (1.0 + abs(lam)) * np.linalg.norm(v)

    def test_non_positive_off_diagonal_product_is_refused(self, unit_sphere):
        # with X's lower diagonal negated, the X and Y terms of every
        # off-diagonal cancel on the sphere: no symmetric form exists
        ops = _ops(unit_sphere, 12)
        X = dict(ops.coords.diagonals[0])
        X[-1] = -X[-1]
        coords = dataclasses.replace(ops.coords, diagonals=(X, *ops.coords.diagonals[1:]))
        broken = dataclasses.replace(ops, coords=coords)
        with pytest.raises(ConsistencyError, match="offset-2 block has a non-positive"):
            nc_laplacian._offset_block(broken, 2)

    def test_triaxial_raises(self, triaxial_123):
        ops = _ops(triaxial_123, 8)
        with pytest.raises(NotRevolutionSurfaceError):
            nc.block_decompose(ops, 3)

    def test_triaxial_wrongly_flagged_revolution_is_refused(self, triaxial_123):
        # a wrong revolution flag cannot make gamma diagonal: the off-diagonal
        # mass of the commutator-square sum is caught in build_gamma
        flagged = dataclasses.replace(triaxial_123, revolution=True)
        grid = nc.build_grid(8, *flagged.z_interval, 1.0)
        with pytest.raises(NotRevolutionSurfaceError, match="off-diagonal mass"):
            nc.build_gamma(nc.coordinate_matrices(flagged, grid), grid.hbar)

    def test_offset_grading_of_full_apply(self, unit_sphere):
        ops = _ops(unit_sphere, 16)
        rng = np.random.default_rng(5)
        for k in (0, 1, 3):
            v = rng.standard_normal(16 - k)
            F = np.diag(v, k)
            R = np.asarray(nc.apply_laplacian(ops, F))
            mask = np.ones_like(R, dtype=bool)
            idx = np.arange(16 - k)
            mask[idx, idx + k] = False
            assert np.abs(R[mask]).max() < 1e-12 * max(1.0, np.abs(R).max())


class TestSpectrum:
    def test_blocks_match_dense_at_small_size(self, unit_sphere):
        ops = _ops(unit_sphere, 12)
        dense = nc.spectrum(ops, strategy="dense", count=8)
        blocks = nc.spectrum(ops, strategy="blocks", count=8, block_range=11)
        np.testing.assert_allclose(dense.eigenvalues, blocks.eigenvalues, atol=1e-9)

    def test_sphere_clusters_at_moderate_size(self, unit_sphere):
        ops = _ops(unit_sphere, 100)
        rep = nc.spectrum(ops, strategy="blocks", count=9, block_range=3)
        clusters = sorted(rep.clusters, key=lambda c: abs(c[0]))
        assert [m for _, m in clusters] == [1, 3, 5]
        means = [v for v, _ in clusters]
        assert abs(means[0]) < 1e-10
        assert means[1] == pytest.approx(-2.0, abs=0.05)
        assert means[2] == pytest.approx(-6.0, abs=0.05)
        assert max(rep.residuals) <= rep.solver_tolerance
        assert all(b is not None for b in rep.blocks)

    def test_residual_gate_scales_with_kept_values(self, prolate_112):
        ops = _ops(prolate_112, 300)
        reports = [nc.spectrum(ops, strategy="blocks", count=12, block_range=K) for K in (3, 6)]
        for rep in reports:
            assert rep.solver_tolerance == 1e-8 * (1.0 + max(abs(v) for v in rep.eigenvalues))
            assert max(rep.residuals) <= rep.solver_tolerance
        assert reports[0].eigenvalues == reports[1].eigenvalues
        assert reports[0].solver_tolerance == reports[1].solver_tolerance

    def test_kernel_eigenvalue_and_residual(self, unit_sphere):
        for N in (8, 50):
            ops = _ops(unit_sphere, N)
            rep = nc.spectrum(ops, strategy="auto", count=4, block_range=1)
            assert abs(rep.eigenvalues[0]) < 1e-10
            assert rep.residuals[0] < 1e-10

    def test_nonzero_eigenvalues_negative(self, unit_sphere):
        ops = _ops(unit_sphere, 50)
        rep = nc.spectrum(ops, strategy="blocks", count=9, block_range=2)
        assert all(v < 0 for v in rep.eigenvalues[1:])

    def test_auto_strategy_selection(self, unit_sphere, triaxial_123):
        assert nc.spectrum(_ops(unit_sphere, 12), count=4).strategy == "blocks"
        assert nc.spectrum(_ops(triaxial_123, 10), count=4).strategy == "banded"
        rep = nc.spectrum(_ops(triaxial_123, 44), count=9)
        assert rep.strategy == "banded"
        assert max(rep.residuals) <= 1e-10

    @pytest.mark.parametrize(
        "surface, N, strategy",
        [
            ("triaxial_123", 8, "dense"),
            ("unit_sphere", 10, "dense"),
            ("triaxial_123", 8, "banded"),
            ("unit_sphere", 10, "banded"),
            ("prolate_112", 64, "blocks"),
            ("unit_sphere", 100, "blocks"),
        ],
    )
    def test_solvers_hand_back_count_pairs_in_report_order(self, request, surface, N, strategy):
        ops = _ops(request.getfixturevalue(surface), N)
        count, K = 9, 3
        dims = [(N * N + 1) // 2, N * N // 2]
        if strategy == "dense":
            pairs, diagnostics = _dense_pairs(ops, count)
            assert diagnostics == {"sector_dims": dims, "eigh_calls": 2}
        elif strategy == "banded":
            pairs, diagnostics = nc_laplacian._banded_pairs(ops, count)
            assert set(diagnostics) == {"sector_dims", "half_bandwidth", "shift", "solves"}
            assert diagnostics["sector_dims"] == dims
            assert diagnostics["half_bandwidth"] == (3 * N + 1) // 2 - 1
            assert diagnostics["shift"] == nc_laplacian.default_cluster_gap(ops)
            assert diagnostics["solves"] > 0
        else:
            pairs, diagnostics = nc_laplacian._block_pairs(ops, count, K)
            assert set(diagnostics) == {"levels_solved", "sturm_counts", "level_bound"}
        assert len(pairs) == count
        keys = [(abs(lam), lam, block or 0) for lam, block, _ in pairs]
        assert keys == sorted(keys)
        for lam, block, F in pairs:
            # F is in the kind apply_laplacian takes, and comes back in it
            if strategy != "blocks":
                assert block is None
                assert isinstance(F, np.ndarray) and F.shape == (N, N)
                assert isinstance(nc.apply_laplacian(ops, F), np.ndarray)
            else:
                assert list(F) == [block] and F[block].shape == (N,)
                assert not F[block][: max(0, block)].any() and not F[block][N + min(0, block) :].any()
                assert isinstance(nc.apply_laplacian(ops, F), dict)
            assert nc_laplacian._full_residual(ops, lam, F) <= 1e-8 * (1.0 + abs(lam))
        # spectrum reports the pairs in the order they come
        rep = nc.spectrum(ops, strategy=strategy, count=count, block_range=K)
        assert rep.eigenvalues == [lam for lam, _, _ in pairs]
        assert rep.blocks == [block for _, block, _ in pairs]

    def test_count_validation(self, unit_sphere):
        ops = _ops(unit_sphere, 6)
        with pytest.raises(ConfigError):
            nc.spectrum(ops, strategy="dense", count=0)
        with pytest.raises(ConfigError):
            nc.spectrum(ops, strategy="dense", count=37)

    def test_full_block_range_names_the_total(self, unit_sphere):
        # at K = N - 1 the blocks hold every eigenvalue; a wider K does not exist
        ops = _ops(unit_sphere, 8)
        with pytest.raises(ConfigError, match=r"only 64 available.*N\^2 = 64") as err:
            nc.spectrum(ops, strategy="blocks", count=70, block_range=7)
        assert "widen" not in str(err.value)
        with pytest.raises(ConfigError, match="widen the block range K"):
            nc.spectrum(ops, strategy="blocks", count=40, block_range=3)
        # every level, the one-by-one blocks at +-7 included
        blocks = nc.spectrum(ops, strategy="blocks", count=64, block_range=7)
        dense = nc.spectrum(ops, strategy="dense", count=64)
        np.testing.assert_allclose(sorted(blocks.eigenvalues), sorted(dense.eigenvalues), atol=1e-9)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", ["zero", "nan", "perturbed"])
    def test_broken_block_eigenvector_fails_residual_gate(self, prolate_112, monkeypatch, bad):
        original = nc_laplacian.OffsetBlock.vectors

        def broken(self, values):
            V = original(self, values)
            if bad == "zero":
                V[0] = 0.0
            elif bad == "nan":
                V[0] = np.nan
            else:
                V[0] += 1e-6 * np.abs(V[0]).max() * np.random.default_rng(0).standard_normal(self.dim)
            return V

        ops = _ops(prolate_112, 64)
        nc.spectrum(ops, strategy="blocks", count=9, block_range=3)
        monkeypatch.setattr(nc_laplacian.OffsetBlock, "vectors", broken)
        with pytest.raises(SolverConvergenceError, match="residuals exceed"):
            nc.spectrum(ops, strategy="blocks", count=9, block_range=3)

    def test_levels_solved_in_json_only(self, unit_sphere, tmp_path):
        ops = _ops(unit_sphere, 12)
        rep = nc.spectrum(ops, strategy="blocks", count=4, block_range=1)
        # the first cutoff holds eight levels of the three blocks; one
        # narrowing step counts the three again and holds the four kept
        # levels, the only ones bisected; the range check on blocks +-2
        # factorizes and bisects nothing
        diagnostics = rep.to_json_dict()["diagnostics"]
        assert diagnostics == {
            "levels_solved": 4,
            "sturm_counts": 3 + 3,
            "level_bound": diagnostics["level_bound"],
            "residual_margin": max(rep.residuals) / rep.solver_tolerance,
        }
        fifth = _exhaustive_selection(ops, 5, 1)[4][0]
        assert max(abs(v) for v in rep.eigenvalues) < diagnostics["level_bound"] <= abs(fifth)
        assert 0 < rep.to_json_dict()["diagnostics"]["residual_margin"] <= 1
        assert "diagnostics" not in rep.config
        assert not set(diagnostics) & set(rep.config)
        (csv_path,) = cli.write_report(tmp_path, "rep", rep.config, rep.to_csv_rows())
        for key in diagnostics:
            assert key not in csv_path.read_text()
        dense = nc.spectrum(ops, strategy="dense", count=4).to_json_dict()["diagnostics"]
        assert list(dense) == ["sector_dims", "eigh_calls", "residual_margin"]
        assert 0 < dense["residual_margin"] <= 1

    @pytest.mark.parametrize(
        "surf, R",
        [(nc.sphere(0.1), 0.1), (nc.sphere(10.0), 10.0), (nc.ellipsoid(10.0, 10.0, 10.0), 10.0)],
        ids=["sphere0.1", "sphere10", "ellipsoid10"],
    )
    def test_default_gap_scales_with_the_surface(self, unit_sphere, surf, R):
        # eigenvalues scale as 1/R^2, and so do the default gap and the
        # block-range margin: the clusters of sphere(R) are the unit sphere's
        want = nc.spectrum(_ops(unit_sphere, 100))
        got = nc.spectrum(_ops(surf, 100))
        assert [m for _, m in got.clusters] == [m for _, m in want.clusters] == [5, 3, 1]
        for g, w in zip(sorted(got.eigenvalues), sorted(want.eigenvalues)):
            assert abs(g * R**2 - w) <= 1e-10 * max(1.0, abs(w))
        assert got.config["cluster_gap"] * R**2 == pytest.approx(want.config["cluster_gap"], rel=1e-14)

    @pytest.mark.parametrize(
        "surf, want",
        [
            (nc.spheroid(0.1, 1.0), [1, 1, 1, 1, 1, 1, 1, 2]),
            (nc.spheroid(1.0, 10.0), [1, 1, 1, 1, 1, 1, 1, 2]),
            (nc.ellipsoid(1.0, 1.0, 10.0), [1, 1, 1, 1, 1, 1, 1, 2]),
            # the reference's own -14.21 pair and -14.23 level lie 0.02 apart
            (nc.spheroid(1.0, 0.1), [1, 2, 1, 2, 3]),
        ],
        ids=["prolate0.1-1", "prolate1-10", "ellipsoid1-1-10", "oblate1-0.1"],
    )
    def test_default_gap_follows_the_longest_axis(self, surf, want):
        # the low levels of a thin or long spheroid are set by its longest
        # axis: the default gap keeps its distinct levels apart and groups
        # its +-k pairs, as the per-mode reference does with the same gap
        rep = nc.spectrum(_ops(surf, 100), count=9, block_range=99)
        got = [m for _, m in sorted(rep.clusters, key=lambda c: abs(c[0]))]
        ref = sorted(sorted(nc.reference_for(surf, 9).expanded(), key=abs)[:9])
        clustered = nc.cluster_multiplicities(ref, rep.config["cluster_gap"])
        assert got == [m for _, m in sorted(clustered, key=lambda c: abs(c[0]))] == want

    def test_default_gap_follows_the_longest_axis_dense(self):
        # a disc thin along x: its levels are set by the unit axes
        rep = nc.spectrum(_ops(nc.ellipsoid(0.1, 1.0, 1.0), 40), count=6)
        assert [m for _, m in sorted(rep.clusters, key=lambda c: abs(c[0]))] == [1, 2, 1, 2]

    def test_default_gap_is_ten_hbar_over_the_longest_axis_squared(
        self, unit_sphere, prolate_112, triaxial_123
    ):
        cases = (
            (unit_sphere, 1.0),
            (nc.spheroid(0.1, 1.0), 1.0),
            (nc.spheroid(1.0, 0.5), 1.0),
            (prolate_112, 2.0),
            (triaxial_123, 3.0),
        )
        for surf, L in cases:
            ops = _ops(surf, 40, offset="symmetric")
            assert nc_laplacian.default_cluster_gap(ops) == 10.0 * ops.hbar / L**2

    def test_report_serialization(self, unit_sphere):
        ops = _ops(unit_sphere, 12)
        rep = nc.spectrum(ops, strategy="blocks", count=4, block_range=1)
        payload = rep.to_json_dict()
        assert payload["surface"] == "sphere"
        assert payload["N"] == 12
        assert "analytic_derivatives" not in payload["config"]
        assert {"value", "residual", "block", "cluster"} <= set(payload["eigenvalues"][0])
        assert {"mean", "multiplicity"} <= set(payload["clusters"][0])
        rows = payload["eigenvalues"]
        assert len(rows) == len(rep.cluster_index)
        for row, cluster in zip(rows, rep.cluster_index):
            assert type(row["cluster"]) is int and row["cluster"] == cluster
            assert "flagged" not in row
        assert "imaginary_leakage" not in payload
        json.dumps(payload)  # must be serializable as-is


def _odd_offsets(N):
    n = np.arange(N)
    return (n[:, None] - n[None, :]) % 2 == 1


DENSE_ORACLE_CASES = [
    pytest.param(nc.ellipsoid(1.0, 2.0, 3.0), N, 1.0, offset, id=f"ellipsoid-1-2-3-N{N}-{offset}")
    for N in (6, 8, 12)
    for offset in ("paper", "symmetric")
] + [
    pytest.param(nc.ellipsoid(1.0, 1.2, 1.5), 10, 0.7, "paper", id="ellipsoid-1-1.2-1.5-beta0.7"),
    pytest.param(nc.sphere(), 10, 1.0, "paper", id="sphere-N10"),
]

SECTOR_CASES = [
    pytest.param(nc.ellipsoid(1.0, 2.0, 3.0), N, 1.0, offset, id=f"ellipsoid-1-2-3-N{N}-{offset}")
    for N in (6, 7, 12)
    for offset in ("paper", "symmetric")
] + [
    pytest.param(nc.ellipsoid(1.0, 1.2, 1.5), 10, 0.7, "paper", id="ellipsoid-1-1.2-1.5-beta0.7"),
    pytest.param(nc.sphere(), 10, 1.0, "paper", id="sphere-N10"),
]


class TestDenseSectors:
    @pytest.mark.parametrize("surf, N, beta, offset", DENSE_ORACLE_CASES)
    def test_matches_superoperator_oracle(self, surf, N, beta, offset):
        ops = _ops(surf, N, beta=beta, offset=offset)
        count = 9
        rep = nc.spectrum(ops, strategy="dense", count=count)
        w = np.linalg.eigvals(assemble_dense_superoperator(ops))
        oracle = np.sort(w[np.argsort(np.abs(w))[:count]].real)
        np.testing.assert_allclose(np.sort(rep.eigenvalues), oracle, rtol=0, atol=1e-10)
        payload = rep.to_json_dict()
        assert "imaginary_leakage" not in payload
        assert not any("flagged" in row for row in payload["eigenvalues"])
        # each eigenmatrix lives in one parity sector of F[n, m]
        odd = _odd_offsets(N)
        pairs, _ = _dense_pairs(ops, count)
        for _, _, F in pairs:
            assert np.abs(F).max() > 0
            assert not F[odd].any() or not F[~odd].any()
        # gamma and gamma^{-1} from one eigh per index-parity class
        assert not ops.gamma[odd].any()
        assert not ops.gamma_inv[odd].any()

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf], ids=["zero", "nan", "inf"])
    def test_degenerate_eigenmatrix_fails_residual_gate(self, triaxial_123, monkeypatch, bad):
        def broken(ops, count):
            pairs, diagnostics = _dense_pairs(ops, count)
            lam, block, F = pairs[0]
            pairs[0] = (lam, block, np.full_like(F, bad))
            return pairs, diagnostics

        monkeypatch.setattr(nc_laplacian, "_dense_pairs", broken)
        with pytest.raises(SolverConvergenceError):
            nc.spectrum(_ops(triaxial_123, 8), strategy="dense", count=4)

    @pytest.mark.parametrize("strategy", ["dense", "banded"])
    def test_positive_eigenvalue_is_refused(self, triaxial_123, monkeypatch, strategy):
        # -H has levels far above any shift: the dense solve sees them, the
        # banded Cholesky factorization of sigma I + H fails
        original = nc_laplacian._sector_band

        def negated(*args):
            band, rows = original(*args)
            return -band, rows

        monkeypatch.setattr(nc_laplacian, "_sector_band", negated)
        with pytest.raises(ConsistencyError, match="negative semidefinite"):
            nc.spectrum(_ops(triaxial_123, 8), strategy=strategy, count=4)

    @pytest.mark.parametrize("strategy", ["dense", "banded"])
    @pytest.mark.parametrize(
        "coord, offset, value",
        [(1, 1, 1e-3), (0, 1, 1e-3j), (0, 2, 1e-3)],
        ids=["real-in-Y", "imaginary-in-X", "even-offset-in-X"],
    )
    def test_broken_sector_structure_is_refused(self, triaxial_123, coord, offset, value, strategy):
        # X real and Y imaginary on odd offsets only: one perturbed entry of a
        # coordinate is refused where the real coordinate forms are made
        ops = _ops(triaxial_123, 8)
        diagonals = [dict(d) for d in ops.coords.diagonals]
        d = diagonals[coord].get(offset, np.zeros(8, dtype=complex)).copy()
        d[4] += value
        diagonals[coord][offset] = d
        coords = dataclasses.replace(ops.coords, diagonals=tuple(diagonals))
        broken = nc.QuantizedOperatorSet(coords, ops.gamma_eigenvalues, ops.gamma_eigenvectors)
        with pytest.raises(ConsistencyError, match="parity sectors"):
            nc.spectrum(broken, strategy=strategy, count=4)

    def test_column_factor_beyond_offset_two_is_refused(self, triaxial_123, monkeypatch):
        # the last Q factor, sum_i s_i M_i^T M_i^T, has offsets 0 and +-2 only
        original = nc_laplacian._root_terms

        def widened(*args):
            terms = original(*args)
            P, Q, q = terms[-1]
            Q = Q.copy()
            Q[4, 0] += 1e-3
            terms[-1] = (P, Q, q)
            return terms

        monkeypatch.setattr(nc_laplacian, "_root_terms", widened)
        with pytest.raises(ConsistencyError, match="beyond offset 2"):
            nc.spectrum(_ops(triaxial_123, 8), strategy="banded", count=4)

    @pytest.mark.parametrize("surf, N, beta, offset", SECTOR_CASES)
    def test_sectors_are_restrictions_of_root_form_operator(self, surf, N, beta, offset):
        ops = _ops(surf, N, beta=beta, offset=offset)
        R = nc_laplacian._hermitian(1.0 / np.sqrt(ops.gamma_eigenvalues), ops.gamma_eigenvectors)
        # H = (R (x) I) K (R (x) I) in the expanded Kronecker form, A_i = R X_i R
        G, mats = ops.gamma_inv, (ops.coords.X, ops.coords.Y, ops.coords.Z)
        A = [R @ Xi @ R for Xi in mats]
        H = np.kron(sum(Ai @ Ai for Ai in A), np.eye(N))
        for Ai, Xi in zip(A, mats):
            H -= np.kron(Ai @ G + G @ Ai, Xi.T)
        H += np.kron(G @ G, sum(Xi.T @ Xi.T for Xi in mats))
        H = -H / ops.hbar**2
        scale = np.abs(H).max()
        n = np.arange(N)
        parity = np.add.outer(n, n).ravel() % 2
        dims = []
        for p in (0, 1):
            # the band, densified and permuted back, is the expanded sector
            band, rows = nc_laplacian._sector_band(ops, nc_laplacian._root_terms(ops, R), p)
            np.testing.assert_array_equal(np.sort(rows), np.flatnonzero(parity == p))
            assert band.dtype == np.float64
            assert band.shape == ((3 * N + 1) // 2, len(rows))
            sector = assemble_dense_superoperator(ops, band)
            assert np.abs(sector - H[np.ix_(rows, rows)]).max() <= 1e-15 * scale
            assert not H[np.ix_(rows, np.flatnonzero(parity != p))].any()
            dims.append(len(sector))
        if N % 2:
            assert dims == [(N * N + 1) // 2, (N * N - 1) // 2]

    def test_count_beyond_the_smaller_sector(self, unit_sphere):
        # N = 3: sectors of dimension 5 and 4, so all nine eigenvalues are wanted
        ops = _ops(unit_sphere, 3)
        rep = nc.spectrum(ops, strategy="dense", count=9)
        oracle = np.sort(np.linalg.eigvals(assemble_dense_superoperator(ops)).real)
        np.testing.assert_allclose(np.sort(rep.eigenvalues), oracle, rtol=0, atol=1e-10)

    def test_dense_solve_memory(self, triaxial_123):
        # the complex N^2 x N^2 operator alone would take 16.8 MB at N = 32
        ops = _ops(triaxial_123, 32)
        tracemalloc.start()
        try:
            nc.spectrum(ops, strategy="dense", count=9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6


BANDED_ORACLE_CASES = [
    pytest.param(axes, N, offset, id=f"{':'.join(f'{x:g}' for x in axes)}-N{N}-{offset}")
    for axes in ((1.0, 2.0, 3.0), (1.0, 1.2, 1.5), (0.5, 1.0, 4.0), (1.0, 3.0, 9.0))
    for N in (11, 16)
    for offset in ("paper", "symmetric")
] + [pytest.param((1.0, 2.0, 3.0), 33, "paper", id="1:2:3-N33-paper")]


class TestBandedSectors:
    @pytest.mark.parametrize("axes, N, offset", BANDED_ORACLE_CASES)
    def test_matches_complex_oracle(self, axes, N, offset):
        ops = _ops(nc.ellipsoid(*axes), N, offset=offset)
        count = 9
        rep = nc.spectrum(ops, strategy="banded", count=count)
        assert rep.strategy == "banded"
        w = np.linalg.eigvals(assemble_dense_superoperator(ops))
        oracle = np.sort(w[np.argsort(np.abs(w))[:count]].real)
        values = np.sort(rep.eigenvalues)
        assert np.all(np.abs(values - oracle) <= 1e-10 * (1.0 + np.abs(oracle)))

    def test_identical_runs_give_identical_values(self, triaxial_123):
        ops = _ops(triaxial_123, 20)
        first, second = (nc.spectrum(ops, strategy="banded", count=9) for _ in range(2))
        assert first.eigenvalues == second.eigenvalues
        assert first.residuals == second.residuals

    def test_sectors_too_small_for_lanczos_use_eigh(self, unit_sphere):
        # N = 3: sectors of dimension 5 and 4 hold every one of the 9 levels
        ops = _ops(unit_sphere, 3)
        rep = nc.spectrum(ops, strategy="banded", count=9)
        assert rep.diagnostics["solves"] == 0
        oracle = np.sort(np.linalg.eigvals(assemble_dense_superoperator(ops)).real)
        np.testing.assert_allclose(np.sort(rep.eigenvalues), oracle, rtol=0, atol=1e-10)

    def test_lanczos_failure_is_a_convergence_error(self, triaxial_123, monkeypatch):
        import scipy.sparse.linalg as spla

        def stalled(A, k, **kwargs):
            raise spla.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

        monkeypatch.setattr(spla, "eigsh", stalled)
        with pytest.raises(SolverConvergenceError, match="Lanczos"):
            nc.spectrum(_ops(triaxial_123, 8), strategy="banded", count=4)

    def test_past_the_dense_cap_within_memory(self, triaxial_123):
        # one dense sector alone would take 415 MB at N = 120
        ops = _ops(triaxial_123, 120)
        tracemalloc.start()
        try:
            rep = nc.spectrum(ops, count=9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.strategy == "banded"
        assert rep.diagnostics["residual_margin"] <= 1
        assert rep.diagnostics["sector_dims"] == [7200, 7200]
        assert peak < 60e6

    @pytest.mark.parametrize("N", [120, 200])
    def test_band_dominates_peak_memory(self, triaxial_123, N):
        # the scatter works a bounded number of block rows at a time, the
        # expansion is dropped before the last solve and only the kept vectors
        # are mapped back: the run holds little beside one sector band
        nc.spectrum(_ops(triaxial_123, 8), strategy="banded", count=4)  # lazy imports
        ops = _ops(triaxial_123, N)
        band_bytes = (3 * N + 1) // 2 * (N * N // 2) * 8
        tracemalloc.start()
        try:
            rep = nc.spectrum(ops, strategy="banded", count=9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.diagnostics["residual_margin"] <= 1
        assert peak < 1.5 * band_bytes

    @pytest.mark.parametrize("strategy", ["banded", "dense", "blocks"])
    def test_count_above_the_total_is_refused_before_assembly(self, unit_sphere, monkeypatch, strategy):
        def refused(*args, **kwargs):
            raise AssertionError("assembled")

        monkeypatch.setattr(nc_laplacian, "_sector_band", refused)
        monkeypatch.setattr(nc_laplacian, "block_decompose", refused)
        ops = _ops(unit_sphere, 6)
        with pytest.raises(ConfigError, match="^requested 37 eigenvalues, only 36 available"):
            nc.spectrum(ops, strategy=strategy, count=37, block_range=2)


class TestConvergenceStudy:
    def test_sphere_degree_one_errors_decrease(self, unit_sphere):
        rows = nc.convergence_study(
            unit_sphere, [50, 100, 200], count=4, block_range=1
        )
        kernel = [r for r in rows if r["cluster"] == 0]
        assert all(r["abs_error"] < 1e-10 for r in kernel)
        first = [r for r in rows if r["cluster"] == 1]
        errs = [r["abs_error"] for r in sorted(first, key=lambda r: r["N"])]
        assert errs[0] > errs[1] > errs[2]
        orders = [r["fitted_order"] for r in first if r["fitted_order"] is not None]
        assert all(p > 1.0 for p in orders)

    def test_requires_two_sizes(self, unit_sphere):
        with pytest.raises(ConfigError):
            nc.convergence_study(unit_sphere, [100], count=4)

    def test_spheroid_against_separated_reference(self, prolate_112):
        rows = nc.convergence_study(prolate_112, [100, 200], count=6, block_range=2)
        ref_vals = {r["cluster"]: r["reference"] for r in rows}
        assert ref_vals[1] == pytest.approx(-0.7287949, abs=1e-4)
        for ci in range(1, 3):
            errs = [r["abs_error"] for r in sorted(
                (r for r in rows if r["cluster"] == ci), key=lambda r: r["N"]
            )]
            assert errs[1] < errs[0]

    @pytest.mark.parametrize("c", [2.0, 0.5])
    def test_second_order_on_spheroids(self, c):
        # against the default (Galerkin) reference; cluster 0 is the kernel,
        # whose reference is 0 to rounding and has no order
        rows = nc.convergence_study(nc.spheroid(1, c), [500, 1000, 2000, 4000], count=9)
        finest = [r for r in rows if r["N"] == 4000 and r["cluster"] > 0]
        assert len(finest) >= 4
        for r in finest:
            assert 1.9 <= r["fitted_order"] <= 2.1, r


def _exhaustive_selection(ops, count, K):
    """(value, offset) of every block's `count` top levels, sorted like the
    kept spectrum: the selection without the merge is its first `count`."""
    found = [(float(lam), b.offset) for b in nc.block_decompose(ops, K) for lam in block_top_levels(b, count)[0]]
    return sorted(found, key=lambda f: (abs(f[0]), f[0], f[1]))


class TestBoundedSelection:
    @pytest.mark.parametrize("offset", ["paper", "symmetric"])
    @pytest.mark.parametrize("c", [None, 0.5, 1.5, 2.5], ids=["sphere", "c0.5", "c1.5", "c2.5"])
    def test_matches_exhaustive_selection(self, c, offset):
        surf = nc.sphere() if c is None else nc.spheroid(1.0, c)
        for N in (16, 64, 200):
            ops = _ops(surf, N, offset=offset)
            gap = nc_laplacian.default_cluster_gap(ops)
            for K in (1, 3, 5):
                outer = min(
                    abs(block_top_levels(nc_laplacian._offset_block(ops, k), 1)[0][0]) for k in (K + 1, -K - 1)
                )
                for count in (1, 4, 9, 12, 20):
                    found = _exhaustive_selection(ops, count, K)
                    values = [v for v, _ in found[:count]]
                    if outer < max(abs(v) for v in values) + gap:
                        with pytest.raises(ConfigError, match="widen"):
                            nc.spectrum(ops, strategy="blocks", count=count, block_range=K)
                        continue
                    rep = nc.spectrum(ops, strategy="blocks", count=count, block_range=K)
                    for i, (got, value) in enumerate(zip(rep.eigenvalues, values)):
                        tol = 1e-10 * (1.0 + abs(value))
                        assert abs(got - value) <= tol
                        if offset == "paper":
                            assert rep.blocks[i] == found[i][1]
                        elif rep.blocks[i] != found[i][1]:
                            # on this grid blocks +-k mirror each other, and the
                            # last bits order their equal levels: any block
                            # holding a level within tol is as good
                            assert any(b == rep.blocks[i] and abs(v - got) <= tol for v, b in found)
                    order = sorted(range(count), key=lambda i: values[i])
                    clusters = nc.cluster_multiplicities([values[i] for i in order], gap)
                    assert [m for _, m in rep.clusters] == [m for _, m in clusters]
                    assert rep.cluster_index == nc_laplacian._assign_clusters(values, order, clusters)

    def test_pinned_levels_requested(self, monkeypatch):
        # the k-way merge bisected count + 2K levels, 18 here, each twice
        # over; the count-first selection bisects only the levels below its
        # cutoff, and every other ?stebz call only counts
        bisected, counts = [], []
        get_lapack_funcs = sla.get_lapack_funcs

        def spying(names, arrays=(), *args, **kwargs):
            func = get_lapack_funcs(names, arrays, *args, **kwargs)
            if names != "stebz":
                return func

            def stebz(d, e, rng, vl, vu, il, iu, abstol, order):
                out = func(d, e, rng, vl, vu, il, iu, abstol, order)
                (bisected if abstol == 0.0 else counts).append(out[0])
                return out

            return stebz

        ops = _ops(nc.spheroid(1.0, 2.0), 1000)
        monkeypatch.setattr(sla, "get_lapack_funcs", spying)
        count, K = 12, 3
        rep = nc.spectrum(ops, strategy="blocks", count=count, block_range=K)
        diagnostics = rep.to_json_dict()["diagnostics"]
        assert count <= sum(bisected) <= count + 2
        assert diagnostics["levels_solved"] == sum(bisected)
        assert diagnostics["sturm_counts"] == len(counts)


def _all_levels(blocks):
    """(value, offset) of every level of every block (`eigh_tridiagonal`
    of the symmetric form), sorted like the kept spectrum."""
    found = [
        (float(lam), b.offset)
        for b in blocks
        for lam in sla.eigh_tridiagonal(b.diag, b.off, eigvals_only=True)
    ]
    return sorted(found, key=lambda f: (abs(f[0]), f[0], f[1]))


class TestCountFirstSelection:
    @staticmethod
    def _assert_selects(blocks, count, offset, gap):
        found = _all_levels(blocks)
        levels, diagnostics = nc_laplacian._closest_levels(blocks, count)
        got = sorted(
            ((lam, b.offset) for b, values in zip(blocks, levels) for lam in values),
            key=lambda f: (abs(f[0]), f[0], f[1]),
        )
        want = found[:count]
        assert len(got) == len(want)
        # both sides hold a level only to about ulp * ||T||: 9e-10 on
        # sphere(0.1) at N = 200, where they put the kernel level 1.2e-10 apart
        norm = max(
            np.abs(b.diag).max() + 2.0 * np.abs(b.off).max(initial=0.0) for b in blocks
        )
        for (value, block), (expected, expected_block) in zip(got, want):
            tol = 1e-10 * (1.0 + abs(expected)) + np.finfo(float).eps * norm
            assert abs(value - expected) <= tol
            if block != expected_block:
                # blocks +-k mirror each other on the symmetric grid
                assert offset == "symmetric"
                assert any(b == block and abs(v - value) <= tol for v, b in found)
        assert all(values == sorted(values, reverse=True) for values in levels)
        bound = diagnostics["level_bound"]
        assert max(abs(v) for v, _ in got) < bound
        # every level below the cutoff is bisected, and no other
        assert diagnostics["levels_solved"] == sum(abs(v) < bound for v, _ in found)
        multiplicities = [
            [m for _, m in nc.cluster_multiplicities(sorted(v for v, _ in pairs), gap)]
            for pairs in (got, want)
        ]
        assert multiplicities[0] == multiplicities[1]

    @pytest.mark.parametrize("offset", ["paper", "symmetric"])
    @pytest.mark.parametrize(
        "surf",
        [nc.sphere(), nc.sphere(0.1), nc.sphere(10.0), nc.spheroid(1.0, 0.5), nc.spheroid(1.0, 2.0)],
        ids=["sphere", "sphere0.1", "sphere10", "c0.5", "c2"],
    )
    def test_agrees_with_all_levels(self, surf, offset):
        for N, K in ((16, 3), (200, 1), (200, 3), (200, 5)):
            ops = _ops(surf, N, offset=offset)
            blocks = nc.block_decompose(ops, K)
            for count in (1, 4, 9, 12, 20, 40):
                self._assert_selects(blocks, count, offset, 10.0 * ops.hbar)

    @pytest.mark.parametrize("offset", ["paper", "symmetric"])
    @pytest.mark.parametrize("N", [2, 3])
    def test_one_by_one_blocks(self, unit_sphere, N, offset):
        # at K = N - 1 the blocks +-(N - 1) have dim 1 and are read off
        ops = _ops(unit_sphere, N, offset=offset)
        blocks = nc.block_decompose(ops, N - 1)
        assert [b.dim for b in blocks][-2:] == [1, 1]
        for count in range(1, N * N + 1):
            self._assert_selects(blocks, count, offset, 10.0 * ops.hbar)
        rep = nc.spectrum(ops, strategy="blocks", count=N * N, block_range=N - 1)
        dense = nc.spectrum(ops, strategy="dense", count=N * N)
        np.testing.assert_allclose(sorted(rep.eigenvalues), sorted(dense.eigenvalues), atol=1e-9)
        with pytest.raises(ConfigError) as err:
            nc.spectrum(ops, strategy="blocks", count=N * N + 1, block_range=N - 1)
        assert str(err.value) == (
            f"requested {N * N + 1} eigenvalues, only {N * N} available; "
            f"the blocks at K = N - 1 hold all N^2 = {N * N} eigenvalues"
        )


class TestBlockRangeCheck:
    @pytest.mark.parametrize("offset", ["paper", "symmetric"])
    @pytest.mark.parametrize("c", [None, 0.5, 2.0], ids=["sphere", "c0.5", "c2"])
    def test_factorization_agrees_with_bisection(self, c, offset):
        # the range check's verdict flips where -(largest kept + gap) passes
        # the top level of a block +-(K+1), solved here by index: above it
        # the block's value range holds no level, below it the top one
        surf = nc.sphere() if c is None else nc.spheroid(1.0, c)
        for N, K in ((8, 6), (64, 3), (200, 5)):
            ops = _ops(surf, N, offset=offset)
            margin = nc_laplacian.default_cluster_gap(ops)
            outer = [nc_laplacian._offset_block(ops, k) for k in (K + 1, -K - 1)]
            stebz = sla.get_lapack_funcs("stebz", (outer[0].diag,))
            for block in outer:
                top = abs(block_top_levels(block, 1)[0][0])
                delta = 1e-9 * np.abs(block.diag).max()
                assert nc_laplacian._levels_within(block, -(top - delta), np.inf, stebz, 0.0)[0] == 0
                m, values = nc_laplacian._levels_within(block, -(top + delta), np.inf, stebz, 0.0)
                assert m >= 1 and abs(values[-1] + top) <= delta
            nearest = min(abs(block_top_levels(b, 1)[0][0]) for b in outer)
            delta = 1e-9 * max(np.abs(b.diag).max() for b in outer)
            nc_laplacian._check_block_range(ops, K, nearest - delta - margin)
            with pytest.raises(ConfigError, match="widen"):
                nc_laplacian._check_block_range(ops, K, nearest + delta - margin)

    @pytest.mark.parametrize("c", [None, 2.0], ids=["sphere", "c2"])
    def test_open_value_range_matches_gershgorin_cap(self, c):
        # the range check asks ?stebz for (lo, inf): the same levels as
        # (lo, cap] with cap the Gershgorin bound above every level of T
        surf = nc.sphere() if c is None else nc.spheroid(1.0, c)
        ops = _ops(surf, 64)
        for k in (4, -4):
            block = nc_laplacian._offset_block(ops, k)
            stebz = sla.get_lapack_funcs("stebz", (block.diag,))
            radius = np.abs(np.concatenate(([0.0], block.off))) + np.abs(np.concatenate((block.off, [0.0])))
            cap = float((block.diag + radius).max())
            # each side bisects a level to ulp * ||T|| from its own bracket
            tol = 4.0 * np.finfo(float).eps * float((np.abs(block.diag) + radius).max())
            for lo in -abs(block_top_levels(block, 6)[0]) - 1e-6:
                m_open, open_values = nc_laplacian._levels_within(block, lo, np.inf, stebz, 0.0)
                m_cap, cap_values = nc_laplacian._levels_within(block, lo, cap, stebz, 0.0)
                assert m_open == m_cap >= 1
                np.testing.assert_allclose(open_values, cap_values, rtol=0, atol=tol)

    @pytest.mark.parametrize("offset", ["paper", "symmetric"])
    def test_config_error_names_the_magnitude(self, prolate_112, offset):
        ops = _ops(prolate_112, 64, offset=offset)
        K, margin = 3, nc_laplacian.default_cluster_gap(ops)
        nearest = min(
            abs(block_top_levels(nc_laplacian._offset_block(ops, k), 1)[0][0]) for k in (K + 1, -K - 1)
        )
        nc_laplacian._check_block_range(ops, K, nearest - margin - 1e-9 * nearest)
        largest = nearest - margin + 1e-9 * nearest
        with pytest.raises(ConfigError) as err:
            nc_laplacian._check_block_range(ops, K, largest)
        assert str(err.value) == (
            f"blocks +-{K + 1} have an eigenvalue of magnitude {nearest:.6g}, below the largest "
            f"kept magnitude {largest:.6g} plus the cluster gap {margin:.3g}; widen the block range K"
        )


class TestGammaStorage:
    def test_revolution_path_memory_is_linear_in_N(self):
        # a dense N x N float64 array alone would take 128 MB at N = 4000
        surf = nc.spheroid(1.0, 2.0)
        grid = nc.build_grid(4000, *surf.z_interval, 1.0)
        tracemalloc.start()
        try:
            ops = nc.build_operator_set(surf, grid)
            nc.spectrum(ops, strategy="blocks", count=12, block_range=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ops.gamma_eigenvectors is None
        assert peak < 32e6

    def test_one_gamma_decomposition_per_operator_set(self, triaxial_123, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        nc.spectrum(_ops(triaxial_123, 12), strategy="dense", count=9)
        # one eigh of S per index-parity class, none later
        assert calls == [(6, 6), (6, 6)]

    @pytest.mark.parametrize(
        "surf", [nc.spheroid(1.0, 2.0), nc.ellipsoid(1.0, 2.0, 3.0)], ids=["spheroid", "ellipsoid"]
    )
    def test_dense_views_match_eigenpairs(self, surf):
        ops = _ops(surf, 10)
        np.testing.assert_allclose(ops.gamma @ ops.gamma_inv, np.eye(10), atol=1e-12)
        _, G = ops.diagonals
        if surf.revolution:
            assert list(G) == [0]
        offsets = sorted(G)
        stored = sp.dia_array((np.array([G[k] for k in offsets]), offsets), shape=(10, 10))
        np.testing.assert_allclose(stored.toarray(), ops.gamma_inv, rtol=0, atol=0)
