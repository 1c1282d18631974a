import dataclasses
import json
import math

import numpy as np
import pytest
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
from nclaplace import nc_laplacian
from nclaplace.nc_laplacian import _dense_candidates, _embed_offset, assemble_dense_superoperator

from conftest import metric_oracle


def _ops(surf, N, beta=1.0, offset="paper", epsilon=1e-12):
    a, b = surf.z_interval
    grid = nc.build_grid(N, a, b, beta, offset)
    return nc.build_operator_set(surf, grid, epsilon)


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

    def test_broken_coordinates_raise(self, unit_sphere):
        grid = nc.build_grid(12, -1, 1, 1)
        coords = nc.coordinate_matrices(unit_sphere, grid)
        X = coords.banded[0].tolil()
        X[0, 11] += 0.5  # not hermitian any more
        broken = dataclasses.replace(coords, banded=(X.tocsr(), *coords.banded[1:]))
        with pytest.raises(ConsistencyError):
            nc.build_gamma(broken, hbar=grid.hbar)


class TestGammaInverse:
    def test_identity(self):
        inv, truncated = nc.gamma_inverse(np.eye(5), 1e-12, return_truncated=True)
        np.testing.assert_allclose(inv, np.eye(5), atol=1e-14)
        assert truncated == 0

    def test_thresholding_example(self):
        gamma = np.diag([2.0, 1.0, 1e-18])
        inv, truncated = nc.gamma_inverse(gamma, 1e-12, return_truncated=True)
        np.testing.assert_allclose(inv, np.diag([0.5, 1.0, 0.0]), atol=1e-14)
        assert truncated == 1

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateMetricError):
            nc.gamma_inverse(np.zeros((3, 3)), 1e-12)

    def test_sphere_well_conditioned(self, unit_sphere):
        ops = _ops(unit_sphere, 100)
        assert ops.gamma_truncated_modes == 0


class TestApply:
    def test_identity_in_kernel(self, unit_sphere):
        ops = _ops(unit_sphere, 40)
        out = nc.apply_laplacian(ops, np.eye(40))
        assert np.abs(out).max() == 0.0

    def test_sparse_and_dense_paths_agree(self, prolate_112):
        ops = _ops(prolate_112, 24)
        rng = np.random.default_rng(7)
        v = rng.standard_normal(22)
        F = _embed_offset(v, 2, 24)
        dense = nc.apply_laplacian(ops, np.asarray(F.todense()))
        sparse_out = nc.apply_laplacian(ops, F)
        np.testing.assert_allclose(np.asarray(sparse_out.todense()), dense, atol=1e-10)

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

    def test_cap_refusal(self, unit_sphere):
        ops = _ops(unit_sphere, 44)
        with pytest.raises(DenseSizeError):
            assemble_dense_superoperator(ops)
        sup = assemble_dense_superoperator(ops, cap=44)
        assert sup.shape == (44 * 44, 44 * 44)


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
                np.concatenate([np.linalg.eigvals(b.operator).real for b in blocks])
            )
            np.testing.assert_allclose(union, dense, atol=1e-10)

    def test_zero_block_kernel_is_constant_vector(self, unit_sphere):
        ops = _ops(unit_sphere, 10)
        block0 = [b for b in nc.block_decompose(ops, 2) if b.offset == 0][0]
        assert np.abs(block0.operator @ np.ones(10)).max() < 1e-10

    def test_block_action_matches_full_operator(self, prolate_112):
        rng = np.random.default_rng(11)
        for surf, offset in (
            (prolate_112, "paper"),
            (prolate_112, "symmetric"),
            (nc.spheroid(1.0, 0.5), "paper"),
        ):
            ops = _ops(surf, 16, offset=offset)
            for block in nc.block_decompose(ops, 3):
                v = rng.standard_normal(block.dim)
                F = _embed_offset(v, block.offset, 16)
                resp = nc.apply_laplacian(ops, F)
                np.testing.assert_allclose(
                    resp.diagonal(block.offset).real, block.operator @ v, atol=1e-10
                )

    def test_truncated_gamma_mode_raises(self, unit_sphere):
        # a truncated mode zeroes a row of gamma^{-1} and decouples its block
        ops = _ops(unit_sphere, 20, epsilon=0.5)
        assert ops.gamma_truncated_modes > 0
        with pytest.raises(ConsistencyError):
            nc.spectrum(ops, strategy="blocks", count=4, block_range=1)

    def test_triaxial_raises(self, triaxial_123):
        ops = _ops(triaxial_123, 8)
        with pytest.raises(NotRevolutionSurfaceError):
            nc.block_decompose(ops, 3)

    def test_triaxial_gamma_leakage_detected_without_flag(self, triaxial_123):
        # even if the revolution flag were wrongly set, the off-diagonal mass
        # of gamma is caught before any block is trusted
        ops = _ops(triaxial_123, 8)
        ops.surface_is_revolution = True
        with pytest.raises(NotRevolutionSurfaceError):
            nc.block_decompose(ops, 3)

    def test_offset_grading_of_full_apply(self, unit_sphere):
        ops = _ops(unit_sphere, 16)
        rng = np.random.default_rng(5)
        for k in (0, 1, 3):
            v = rng.standard_normal(16 - k)
            F = np.asarray(_embed_offset(v, k, 16).todense())
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
        assert nc.spectrum(_ops(triaxial_123, 10), count=4).strategy == "dense"

    def test_iterative_matches_dense_triaxial(self, triaxial_123):
        ops = _ops(triaxial_123, 12)
        dense = nc.spectrum(ops, strategy="dense", count=5)
        it = nc.spectrum(ops, strategy="iterative", count=5)
        np.testing.assert_allclose(it.eigenvalues, dense.eigenvalues, atol=1e-7)
        assert it.strategy == "iterative"

    def test_count_validation(self, unit_sphere):
        ops = _ops(unit_sphere, 6)
        with pytest.raises(ConfigError):
            nc.spectrum(ops, strategy="dense", count=0)
        with pytest.raises(ConfigError):
            nc.spectrum(ops, strategy="dense", count=37)

    def test_dequantized_eigenmatrix_is_single_mode(self, unit_sphere):
        # a block eigenmatrix lives on one offset, so its mode content is pure
        ops = _ops(unit_sphere, 16)
        blocks = nc.block_decompose(ops, 2)
        block1 = [b for b in blocks if b.offset == 1][0]
        w, V = np.linalg.eig(block1.operator)
        i = np.argmin(np.abs(w + 2.0))
        F = np.asarray(_embed_offset(V[:, i], 1, 16).todense())
        back = nc.dequantize(F, ops.coords.grid, max_mode=3)
        assert set(back.modes) == {-1}

    def test_report_serialization(self, unit_sphere, tmp_path):
        ops = _ops(unit_sphere, 12)
        rep = nc.spectrum(ops, strategy="blocks", count=4, block_range=1)
        payload = rep.to_json_dict()
        assert payload["surface"] == "sphere"
        assert payload["N"] == 12
        assert payload["config"]["analytic_derivatives"] is True
        assert {"value", "residual", "block", "cluster"} <= set(payload["eigenvalues"][0])
        assert {"mean", "multiplicity"} <= set(payload["clusters"][0])
        json.dumps(payload)  # must be serializable as-is
        first = rep.save(tmp_path, "rep")
        again = rep.save(tmp_path / "copy", "rep")
        assert (tmp_path / "rep.csv").read_bytes() == (tmp_path / "copy" / "rep.csv").read_bytes()


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


class TestDenseSectors:
    @pytest.mark.parametrize("surf, N, beta, offset", DENSE_ORACLE_CASES)
    def test_matches_superoperator_oracle(self, surf, N, beta, offset):
        ops = _ops(surf, N, beta=beta, offset=offset)
        count = 9
        rep = nc.spectrum(ops, strategy="dense", count=count)
        w = np.linalg.eigvals(assemble_dense_superoperator(ops))
        oracle = np.sort(w[np.argsort(np.abs(w))[:count]].real)
        np.testing.assert_allclose(np.sort(rep.eigenvalues), oracle, rtol=0, atol=1e-10)
        assert rep.imaginary_leakage == 0.0 and not any(rep.flagged)
        # each eigenmatrix lives in one parity sector of F[n, m]
        odd = _odd_offsets(N)
        for cand in _dense_candidates(ops, count):
            F = cand["vec"].reshape(N, N)
            assert np.abs(F).max() > 0
            assert not F[odd].any() or not F[~odd].any()
        # gamma and gamma^{-1} from one eigh per index-parity class
        assert not ops.gamma[odd].any()
        assert not ops.gamma_inv[odd].any()

    def test_truncated_gamma_is_refused(self, triaxial_123):
        ops = _ops(triaxial_123, 12, epsilon=0.3)
        assert ops.gamma_truncated_modes > 0
        with pytest.raises(ConsistencyError, match="truncated"):
            nc.spectrum(ops, strategy="dense", count=9)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf], ids=["zero", "nan", "inf"])
    def test_degenerate_eigenmatrix_fails_residual_gate(self, triaxial_123, monkeypatch, bad):
        def broken(ops, count):
            cands = _dense_candidates(ops, count)
            cands[0]["vec"] = np.full_like(cands[0]["vec"], bad)
            return cands

        monkeypatch.setattr(nc_laplacian, "_dense_candidates", broken)
        with pytest.raises(SolverConvergenceError):
            nc.spectrum(_ops(triaxial_123, 8), strategy="dense", count=4)

    def test_positive_eigenvalue_is_refused(self, triaxial_123, monkeypatch):
        original = nc_laplacian.assemble_dense_superoperator
        monkeypatch.setattr(
            nc_laplacian, "assemble_dense_superoperator", lambda *a, **kw: -original(*a, **kw)
        )
        with pytest.raises(ConsistencyError, match="negative semidefinite"):
            nc.spectrum(_ops(triaxial_123, 8), strategy="dense", count=4)

    @pytest.mark.parametrize("entry", [(0, 1, 1e-3), (0, 0, 1e-3j)], ids=["coupling", "imaginary"])
    def test_broken_sector_structure_is_refused(self, triaxial_123, monkeypatch, entry):
        # vec index 0 is F[0, 0] (even sector), index 1 is F[0, 1] (odd sector)
        original = nc_laplacian.assemble_dense_superoperator

        def perturbed(*args, **kwargs):
            H = original(*args, **kwargs)
            i, j, value = entry
            H[i, j] += value
            return H

        monkeypatch.setattr(nc_laplacian, "assemble_dense_superoperator", perturbed)
        with pytest.raises(ConsistencyError, match="parity sectors"):
            nc.spectrum(_ops(triaxial_123, 8), strategy="dense", count=4)


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
