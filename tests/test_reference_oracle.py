import math

import numpy as np
import pytest
from scipy.special import assoc_legendre_p, roots_legendre

import nclaplace as nc
from nclaplace import reference_oracle
from nclaplace.errors import ResolutionError
from nclaplace.reference_oracle import (
    GALERKIN_DEGREE,
    _galerkin_mode,
    _keep_prefix,
    _legendre_basis,
    _meridian_coefficients,
    _mode_eigenvalues,
)


class TestAnalyticSphere:
    def test_low_levels(self):
        spec = nc.analytic_sphere_spectrum(3)
        by_abs = sorted(spec.entries, key=lambda e: abs(e.value))
        got = [(e.value, e.multiplicity) for e in by_abs]
        assert got == [(0.0, 1), (-2.0, 3), (-6.0, 5), (-12.0, 7)]

    def test_multiplicity_formula_matches_odd_numbers(self):
        spec = nc.analytic_sphere_spectrum(10)
        for e in spec.entries:
            k = round((-1 + math.sqrt(1 - 4 * e.value)) / 2)
            assert e.multiplicity == 2 * k + 1

    def test_sorted_ascending(self):
        spec = nc.analytic_sphere_spectrum(5)
        vals = [e.value for e in spec.entries]
        assert vals == sorted(vals)

    def test_negative_kmax_rejected(self):
        with pytest.raises(ValueError):
            nc.analytic_sphere_spectrum(-1)


class TestRevolutionSpectrum:
    def test_sphere_low_clusters(self, unit_sphere):
        spec = nc.revolution_spectrum(unit_sphere, m_max=3, grid_points=4000, count=9)
        eigs = sorted(spec.expanded())
        clusters = nc.cluster_multiplicities(eigs, gap=0.01)
        by_abs = sorted(clusters, key=lambda c: abs(c[0]))
        assert [m for _, m in by_abs] == [1, 3, 5]
        assert abs(by_abs[0][0]) < 1e-8
        assert by_abs[1][0] == pytest.approx(-2.0, abs=1e-4)
        assert by_abs[2][0] == pytest.approx(-6.0, abs=1e-4)

    def test_zonal_band_hits_every_level(self, unit_sphere):
        spec = nc.revolution_spectrum(unit_sphere, m_max=0, grid_points=3000, count=5)
        values = sorted((e.value for e in spec.entries), key=abs)
        assert all(e.multiplicity == 1 for e in spec.entries)
        for k, v in enumerate(values):
            assert v == pytest.approx(-k * (k + 1), abs=1e-3)

    def test_self_convergence_second_order(self, unit_sphere):
        errs = []
        for gp in (500, 1000, 2000):
            spec = nc.revolution_spectrum(unit_sphere, m_max=1, grid_points=gp, count=4)
            lam1 = sorted((e.value for e in spec.entries), key=abs)[1]
            errs.append(abs(lam1 + 2.0))
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.5)
        assert errs[1] / errs[2] == pytest.approx(4.0, abs=0.5)

    def test_cross_check_against_analytic(self, unit_sphere):
        spec = nc.revolution_spectrum(unit_sphere, m_max=3, grid_points=4000, count=9)
        est = spec.metadata["max_error_estimate"]
        clusters = nc.cluster_multiplicities(sorted(spec.expanded()), gap=0.01)
        for mean, _ in clusters:
            k = round((-1 + math.sqrt(max(1 - 4 * mean, 1.0))) / 2)
            assert abs(mean + k * (k + 1)) <= 10 * est + 1e-9

    def test_multiplicity_pattern_from_band_merging(self, unit_sphere):
        spec = nc.revolution_spectrum(unit_sphere, m_max=2, grid_points=2000, count=9)
        mults = {}
        for e in spec.entries:
            key = round(e.value, 1)
            mults[key] = mults.get(key, 0) + e.multiplicity
        assert mults[0.0] == 1
        assert mults[-2.0] == 3
        assert mults[-6.0] == 5

    def test_spheroid_regression_value(self, prolate_112):
        # frozen after Richardson extrapolation over 2000/4000/8000 cells
        rich = nc.revolution_spectrum_richardson(
            prolate_112, m_max=2, grid_points_list=[2000, 4000, 8000], count=4
        )
        lam1 = sorted((e.value for e in rich.entries), key=abs)[1]
        assert lam1 == pytest.approx(-0.728794897352, abs=1e-7)
        assert rich.metadata["richardson_consistency"] < 1e-6

    def test_resolution_error_on_coarse_grid(self, unit_sphere):
        with pytest.raises(ResolutionError):
            nc.revolution_spectrum(unit_sphere, m_max=4, grid_points=16, count=40)

    def test_resolution_error_when_bands_run_out(self, unit_sphere):
        with pytest.raises(ResolutionError):
            nc.revolution_spectrum(unit_sphere, m_max=2, grid_points=10, count=22)

    def test_triaxial_rejected(self, triaxial_123):
        with pytest.raises(nc.NotRevolutionSurfaceError):
            nc.revolution_spectrum(triaxial_123, m_max=1, grid_points=100, count=3)

    @pytest.mark.parametrize("grid_points", [2, 3])
    def test_too_few_cells_rejected(self, unit_sphere, grid_points):
        with pytest.raises(ValueError, match="grid_points"):
            nc.revolution_spectrum(unit_sphere, m_max=1, grid_points=grid_points, count=1)

    def test_negative_m_max_rejected(self, unit_sphere):
        with pytest.raises(ValueError, match="m_max"):
            nc.revolution_spectrum(unit_sphere, m_max=-1, grid_points=100, count=1)


def _exhaustive_revolution_spectrum(s, m_max, grid_points, count):
    """Every band m <= m_max solved for its top `take` levels on both grids."""
    r, stretch = _meridian_coefficients(s)
    take = min(max(count, 2), grid_points // 2 - 1)
    levels = []
    for m in range(m_max + 1):
        fine = _mode_eigenvalues(r, stretch, grid_points, m, take)
        coarse = _mode_eigenvalues(r, stretch, grid_points // 2, m, take)
        levels.extend((f, 1 if m == 0 else 2, abs(f - c) / 3.0) for f, c in zip(fine, coarse))
    levels.sort(key=lambda t: abs(t[0]))
    kept, total = [], 0
    for level in levels:
        if total >= count:
            break
        kept.append(level)
        total += level[1]
    assert total >= count
    return sorted(kept)


@pytest.mark.parametrize("c", [0.3, 0.5, 1.0, 1.5, 2.5])
def test_walk_matches_exhaustive_band_solve(c):
    s = nc.spheroid(1, c)
    for count in (1, 4, 9, 12, 20, 40):
        for m_max in (0, 2, count):
            want = _exhaustive_revolution_spectrum(s, m_max, 400, count)
            got = nc.revolution_spectrum(s, m_max=m_max, grid_points=400, count=count)
            assert [e.multiplicity for e in got.entries] == [mult for _, mult, _ in want]
            for e, (value, _, _) in zip(got.entries, want):
                assert abs(e.value - value) <= 1e-8 * (1.0 + abs(value))
            scale = 1.0 + max(abs(value) for value, _, _ in want)
            worst = max(est for _, _, est in want)
            assert abs(got.metadata["max_error_estimate"] - worst) <= 1e-8 * scale


class TestClusterMultiplicities:
    def test_table_like_first_clusters(self):
        eigs = [-2.00009, -2.00002, -2.00001, 0.0]
        got = nc.cluster_multiplicities(sorted(eigs), gap=0.01)
        assert len(got) == 2
        assert got[0][1] == 3
        assert got[0][0] == pytest.approx(-2.00004, abs=1e-5)
        assert got[1] == (0.0, 1)

    def test_empty(self):
        assert nc.cluster_multiplicities([], gap=0.1) == []

    def test_five_member_cluster(self):
        eigs = [-6.000400, -6.000154, -6.000075, -6.000046, -6.000039]
        got = nc.cluster_multiplicities(sorted(eigs), gap=0.01)
        assert got == [(pytest.approx(-6.0001428, abs=1e-6), 5)]

    def test_running_mean_splits_distant_values(self):
        got = nc.cluster_multiplicities([0.0, 0.005, 1.0], gap=0.01)
        assert [m for _, m in got] == [2, 1]


def test_reference_for_picks_one_reference_per_surface_class():
    sphere = nc.reference_for(nc.sphere(), 9)
    assert {e.source for e in sphere.entries} == {"analytic"}
    assert sphere.metadata == {"k_max": 9}
    spheroid = nc.reference_for(nc.spheroid(1, 2), 4)
    assert {e.source for e in spheroid.entries} == {"galerkin"}
    assert set(spheroid.metadata) == {"surface", "degree", "modes_solved", "max_error_estimate"}
    assert spheroid.metadata["surface"] == "spheroid(1,2)"
    assert spheroid.metadata["degree"] == GALERKIN_DEGREE
    assert spheroid.metadata["max_error_estimate"] <= 1e-9
    assert nc.reference_for(nc.sphere(2.0), 4).metadata["surface"] == "sphere(radius=2)"
    assert nc.reference_for(nc.ellipsoid(1, 2, 3), 4) is None


def test_legendre_basis_matches_scipy():
    x = np.linspace(-0.995, 0.995, 41)
    for m in (0, 1, 2, 5, 12):
        P, D = _legendre_basis(m, 10, x)
        for i in range(10):
            # scipy's normalized functions carry the Condon-Shortley phase
            want = assoc_legendre_p(m + i, m, x, norm=True, diff_n=1)
            sign = np.sign(P[i] @ want[0])
            assert np.allclose(P[i], sign * want[0], rtol=0, atol=1e-12)
            assert np.allclose(D[i], sign * (1 - x * x) * want[1], rtol=0, atol=1e-11)


class TestGalerkinSpectrum:
    @pytest.mark.parametrize("radius", [1.0, 2.0])
    def test_sphere_levels_and_multiplicities(self, radius):
        spec = nc.galerkin_spectrum(nc.sphere(radius), 25)
        assert {e.source for e in spec.entries} == {"galerkin"}
        clusters = nc.cluster_multiplicities(sorted(spec.expanded()), gap=1e-6)
        by_abs = sorted(clusters, key=lambda c: abs(c[0]))
        assert [mult for _, mult in by_abs] == [1, 3, 5, 7, 9]
        for l, (mean, _) in enumerate(by_abs):
            assert abs(mean + l * (l + 1) / radius**2) <= 1e-12
        for e in spec.entries:
            # the quadrature weights and the eigen-solve round at about 1e-13 relative
            l = round((-1 + math.sqrt(1 - 4 * e.value * radius**2)) / 2)
            assert abs(e.value + l * (l + 1) / radius**2) <= 1e-12 * (1 + abs(e.value))

    def test_degree_doubles_when_a_mode_runs_out_of_levels(self):
        # 289 = 17^2 levels reach l = 16; at L = 24 the zonal mode offers
        # only l <= 15, and every sphere level passes its estimate
        spec = nc.galerkin_spectrum(nc.sphere(2.0), 289)
        assert spec.metadata["degree"] == 48
        clusters = nc.cluster_multiplicities(sorted(spec.expanded()), gap=1e-6)
        by_abs = sorted(clusters, key=lambda c: abs(c[0]))
        assert [mult for _, mult in by_abs] == [2 * l + 1 for l in range(17)]
        for l, (mean, _) in enumerate(by_abs):
            assert abs(mean + l * (l + 1) / 4) <= 1e-10

    @pytest.mark.parametrize("c", [2.0, 0.5])
    def test_agrees_with_richardson_finite_differences(self, c):
        # at count 12 on (1, 0.5) the -14.08 pair differs by 1.2e-7, which is
        # the finite differences' own error there: it moves by 3.4e-7 when the
        # three grids are doubled, while the Galerkin value moves by < 1e-11
        # from 24 to 96 Legendre functions
        s = nc.spheroid(1, c)
        count = 9
        rich = nc.revolution_spectrum_richardson(s, count, (4000, 8000, 16000), count)
        got = sorted(sorted(nc.galerkin_spectrum(s, count).expanded(), key=abs)[:count])
        want = sorted(sorted(rich.expanded(), key=abs)[:count])
        for g, w in zip(got, want, strict=True):
            assert abs(g - w) <= 1e-7

    @pytest.mark.parametrize("c, degree", [(0.3, 48), (10.0, 48)])
    def test_degree_doubles_until_the_estimate_passes(self, c, degree):
        spec = nc.galerkin_spectrum(nc.spheroid(1, c), 12)
        assert spec.metadata["degree"] == degree
        scale = 1.0 + max(abs(v) for v in spec.expanded())
        assert spec.metadata["max_error_estimate"] <= 1e-9 * scale

    def test_low_cap_raises(self, monkeypatch):
        monkeypatch.setattr(reference_oracle, "GALERKIN_MAX_DEGREE", 24)
        with pytest.raises(ResolutionError, match="24 Legendre functions"):
            nc.galerkin_spectrum(nc.spheroid(1, 10), 12)

    @pytest.mark.parametrize("c", [0.3, 0.5, 1.5, 2.0, 2.5, 5.0, 10.0])
    def test_reference_for_passes_its_gate(self, c):
        spec = nc.reference_for(nc.spheroid(1, c), 12)
        scale = 1.0 + max(abs(v) for v in spec.expanded())
        assert spec.metadata["max_error_estimate"] <= 1e-9 * scale
        assert sum(e.multiplicity for e in spec.entries) >= 12

    def test_rejects_triaxial_and_empty_counts(self, triaxial_123):
        with pytest.raises(nc.NotRevolutionSurfaceError):
            nc.galerkin_spectrum(triaxial_123, 4)
        with pytest.raises(ValueError, match="count"):
            nc.galerkin_spectrum(nc.sphere(), 0)


def test_galerkin_reads_the_cached_rule(monkeypatch):
    # the read-only cached Gauss-Legendre rule gives the values a rule
    # computed afresh on every call gives, bit for bit
    s = nc.spheroid(1, 1.5)
    cached = nc.galerkin_spectrum(s, 12)
    monkeypatch.setattr(reference_oracle, "_gauss_legendre", roots_legendre)
    fresh = nc.galerkin_spectrum(s, 12)
    assert [(e.value, e.multiplicity) for e in cached.entries] == [
        (e.value, e.multiplicity) for e in fresh.entries
    ]
    assert cached.metadata == fresh.metadata


@pytest.mark.parametrize("c", [0.3, 1.5, 2.5])
def test_galerkin_walk_matches_every_mode_solved(c):
    s = nc.spheroid(1, c)
    for count in (1, 4, 9, 12, 20, 40):
        got = nc.galerkin_spectrum(s, count)
        L = got.metadata["degree"]
        k = min(count, L - 8)
        x, w = roots_legendre(2 * L + count + 16)
        levels = []
        for m in range(count + 1):
            mu, est = _galerkin_mode(1.0, c, m, L, k, x, w)
            levels.extend((-v, 1 if m == 0 else 2, e) for v, e in zip(mu, est))
        want = sorted(levels[i] for i in _keep_prefix(levels, count)[0])
        assert [e.multiplicity for e in got.entries] == [mult for _, mult, _ in want]
        for e, (value, _, _) in zip(got.entries, want):
            assert abs(e.value - value) <= 1e-12 * (1.0 + abs(value))
        assert got.metadata["max_error_estimate"] == max(est for *_, est in want)
        assert got.metadata["modes_solved"] <= count + 1
