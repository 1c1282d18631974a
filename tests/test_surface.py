import math

import numpy as np
import pytest

import nclaplace as nc
from nclaplace.errors import ConsistencyError, DomainError

from conftest import fd_bracket, interior_points, metric_oracle


def test_coordinate_evaluation_recovers_embedding(unit_sphere):
    for z, t in interior_points(20, seed=1):
        w = math.sqrt(1 - z * z)
        assert unit_sphere.coord_x.evaluate(z, t) == pytest.approx(w * math.cos(t), abs=1e-14)
        assert unit_sphere.coord_y.evaluate(z, t) == pytest.approx(w * math.sin(t), abs=1e-14)
        assert unit_sphere.coord_z.evaluate(z, t) == pytest.approx(z, abs=1e-14)


def test_ellipsoid_reality_of_modes():
    e = nc.ellipsoid(2.0, 3.0, 1.0)
    zs = np.linspace(-0.95, 0.95, 7)
    for blf in (e.coord_x, e.coord_y):
        for j, prof in blf.modes.items():
            np.testing.assert_allclose(
                np.conj(np.asarray(prof(zs), complex)),
                np.asarray(blf.modes[-j](zs), complex),
                atol=1e-15,
            )


def test_bracket_of_function_with_itself_is_zero(unit_sphere):
    z = unit_sphere.coord_z
    for zz, tt in interior_points(5, seed=2):
        assert nc.bracket_function(z, z).evaluate(zz, tt) == 0


def test_sphere_bracket_xy_is_z(unit_sphere):
    # oracle: brute-force finite differences of the evaluated coordinates
    for zz, tt in interior_points(10, seed=3):
        val = nc.bracket_function(unit_sphere.coord_x, unit_sphere.coord_y).evaluate(zz, tt)
        assert abs(val - zz) < 1e-12
        fd = fd_bracket(unit_sphere.coord_x, unit_sphere.coord_y, zz, tt)
        assert abs(val - fd) < 1e-6


def test_sphere_bracket_yz_is_x(unit_sphere):
    for zz, tt in interior_points(10, seed=4):
        val = nc.bracket_function(unit_sphere.coord_y, unit_sphere.coord_z).evaluate(zz, tt)
        x = math.sqrt(1 - zz * zz) * math.cos(tt)
        assert abs(val - x) < 1e-12
        fd = fd_bracket(unit_sphere.coord_y, unit_sphere.coord_z, zz, tt)
        assert abs(val - fd) < 1e-6


def test_bracket_antisymmetry_exact(unit_sphere):
    x, y, z = unit_sphere.coordinates
    xy = nc.pointwise_product(x, y)
    pairs = [(x, y), (y, z), (z, x), (x, xy)]
    for i, (zz, tt) in enumerate(interior_points(100, seed=5)):
        f, h = pairs[i % len(pairs)]
        fh = nc.bracket_function(f, h).evaluate(zz, tt)
        assert fh == -nc.bracket_function(h, f).evaluate(zz, tt)


def test_bracket_leibniz_rule(unit_sphere):
    x, y, z = unit_sphere.coordinates
    gh = nc.pointwise_product(y, z)
    xgh, xy, xz = (nc.bracket_function(x, h) for h in (gh, y, z))
    for zz, tt in interior_points(25, seed=6):
        lhs = xgh.evaluate(zz, tt)
        rhs = xy.evaluate(zz, tt) * z.evaluate(zz, tt) + y.evaluate(zz, tt) * xz.evaluate(zz, tt)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_bracket_outside_interval_raises(unit_sphere):
    with pytest.raises(DomainError):
        nc.bracket_function(unit_sphere.coord_x, unit_sphere.coord_y).evaluate(1.5, 0.0)


def test_metric_sqrt_det_sphere_is_one(unit_sphere):
    for zz, tt in interior_points(20, seed=7):
        assert nc.metric_sqrt_det(unit_sphere, (zz, tt)) == pytest.approx(
            1.0, abs=1e-12
        )


def test_metric_sqrt_det_sphere_bracket_identity(unit_sphere):
    # {x,y}^2 + {y,z}^2 + {z,x}^2 = z^2 + x^2 + y^2 = 1 on the unit sphere
    x, y, z = unit_sphere.coordinates
    for zz, tt in interior_points(10, seed=8):
        total = sum(
            nc.bracket_function(f, h).evaluate(zz, tt) ** 2 for f, h in [(x, y), (y, z), (z, x)]
        )
        assert total.real == pytest.approx(1.0, abs=1e-12)
        assert abs(total.imag) < 1e-14


def test_metric_sqrt_det_ellipsoid_112_center():
    e = nc.ellipsoid(1.0, 1.0, 2.0)
    expected = metric_oracle(e, 0.0, 0.0)[3]
    assert nc.metric_sqrt_det(e, (0.0, 0.0)) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "surf",
    [nc.sphere(), nc.ellipsoid(1, 1, 2), nc.ellipsoid(1, 2, 3), nc.ellipsoid(2, 3, 1)],
    ids=["sphere", "e112", "e123", "e231"],
)
def test_metric_sqrt_det_matches_embedding_oracle(surf):
    for zz, tt in interior_points(100, seed=9):
        got = nc.metric_sqrt_det(surf, (zz, tt))
        want = metric_oracle(surf, zz, tt)[3]
        assert got == pytest.approx(want, rel=1e-9)


def test_metric_sqrt_det_at_exact_pole(triaxial_123):
    # density stays finite at the poles: sqrt|g| -> a1*a2
    assert nc.metric_sqrt_det(triaxial_123, (1.0, 0.3)) == pytest.approx(
        2.0, rel=1e-9
    )


def test_bracket_of_a_profile_without_derivative_raises(unit_sphere):
    # nothing is differenced in place of a missing closed-form derivative
    x, y = unit_sphere.coord_x, unit_sphere.coord_y
    bare = nc.BandLimitedFunction({j: nc.Profile(p.func) for j, p in y.modes.items()}, y.z_interval)
    first = nc.BandLimitedFunction(
        {j: nc.Profile(p.func, p.deriv) for j, p in y.modes.items()}, y.z_interval
    )
    with pytest.raises(ValueError, match="no closed-form first derivative"):
        nc.bracket_function(x, bare).evaluate(0.3, 0.2)
    with pytest.raises(ValueError, match="no closed-form first derivative"):
        nc.pointwise_product(x, bare).modes[0].d1(0.3)
    # a bracket's value needs first derivatives only, its derivative the second
    assert nc.bracket_function(x, first).evaluate(0.3, 0.2) == nc.bracket_function(x, y).evaluate(
        0.3, 0.2
    )
    with pytest.raises(ValueError, match="no closed-form second derivative"):
        nc.bracket_function(x, first).modes[0].d1(0.3)


def _term_by_term(f, h, k, z):
    """Mode k of f*h and {f, h} and their derivatives, each operand profile
    called once per term and formula, summed in the order of the terms."""
    terms = [(j1, f.modes[j1], k - j1, h.modes[k - j1]) for j1 in sorted(f.modes) if k - j1 in h.modes]
    out = {name: 0.0 + 0.0j for name in ("product", "product_d1", "product_d2", "bracket", "bracket_d1")}
    for j1, p1, j2, p2 in terms:
        out["product"] = out["product"] + p1(z) * p2(z)
        out["product_d1"] = out["product_d1"] + p1.d1(z) * p2(z) + p1(z) * p2.d1(z)
        out["product_d2"] = (
            out["product_d2"] + p1.d2(z) * p2(z) + 2.0 * p1.d1(z) * p2.d1(z) + p1(z) * p2.d2(z)
        )
        out["bracket"] = out["bracket"] + (1j * j1) * p1(z) * p2.d1(z) - p1.d1(z) * ((1j * j2) * p2(z))
        out["bracket_d1"] = out["bracket_d1"] + (1j * j1) * (p1.d1(z) * p2.d1(z) + p1(z) * p2.d2(z))
        out["bracket_d1"] = out["bracket_d1"] - (1j * j2) * (p1.d2(z) * p2(z) + p1.d1(z) * p2.d1(z))
    return out


def test_product_and_bracket_profiles_equal_the_term_by_term_sums(triaxial_123):
    # sampling each operand once per call changes no bit of the values
    x, y, z = triaxial_123.coordinates
    zz = np.linspace(-0.9, 0.9, 41)
    for f, h in ((x, y), (y, z), (z, x), (x, x), (nc.pointwise_product(x, y), z)):
        product, bracket = nc.pointwise_product(f, h), nc.bracket_function(f, h)
        for k in product.modes:
            want = _term_by_term(f, h, k, zz)
            got = {
                "product": product.modes[k](zz),
                "product_d1": product.modes[k].d1(zz),
                "product_d2": product.modes[k].d2(zz),
                "bracket": bracket.modes[k](zz),
                "bracket_d1": bracket.modes[k].d1(zz),
            }
            for name, value in got.items():
                assert np.asarray(value).tobytes() == np.asarray(want[name]).tobytes(), (k, name)


def test_product_and_bracket_profiles_sample_each_operand_once(unit_sphere):
    x = unit_sphere.coord_x
    orders = []

    def counted(p):
        def jet(z, order, cache):
            orders.append(order)
            return p.samples(z, order, cache)

        return nc.Profile(p.func, p.deriv, p.deriv2, jet)

    f = nc.BandLimitedFunction({j: counted(p) for j, p in x.modes.items()}, x.z_interval)
    # mode 0 of f*f and {f, f} sums the terms (-1, +1) and (+1, -1): two profiles, two samples
    zz = np.linspace(-0.5, 0.5, 7)
    for profile, order in (
        (nc.pointwise_product(f, f).modes[0], 0),
        (nc.pointwise_product(f, f).modes[0].d1, 1),
        (nc.pointwise_product(f, f).modes[0].d2, 2),
        (nc.bracket_function(f, f).modes[0], 1),
        (nc.bracket_function(f, f).modes[0].d1, 2),
    ):
        orders.clear()
        profile(zz)
        assert orders == [order, order]


def test_surface_area_values():
    assert nc.surface_area(nc.sphere()) == pytest.approx(4 * math.pi, rel=1e-10)
    assert nc.surface_area(nc.ellipsoid(1, 1, 1)) == pytest.approx(4 * math.pi, rel=1e-10)
    a, c = 1.0, 2.0
    ecc = math.sqrt(1 - a * a / (c * c))
    prolate = 2 * math.pi * a * a * (1 + (c / (a * ecc)) * math.asin(ecc))
    assert nc.surface_area(nc.spheroid(1, 2)) == pytest.approx(prolate, rel=1e-9)


def test_surface_area_cached(unit_sphere):
    first = nc.surface_area(unit_sphere)
    assert unit_sphere._area == first
    assert nc.surface_area(unit_sphere) == first


def test_triaxial_area_between_bounding_spheroids(triaxial_123):
    area = nc.surface_area(triaxial_123)
    low = nc.surface_area(nc.spheroid(1, 3))
    high = nc.surface_area(nc.spheroid(2, 3))
    assert low < area < high


def dlmf_ellipsoid_area(axes):
    """Area from Legendre's incomplete elliptic integrals (DLMF 19.33.2);
    spheroids are the limits m = 0 (prolate) and m = 1 (oblate)."""
    from scipy import special

    a, b, c = sorted(axes, reverse=True)
    phi = math.acos(c / a)
    m = a * a * (b * b - c * c) / (b * b * (a * a - c * c))
    s = math.sin(phi)
    elliptic = special.ellipeinc(phi, m) * s * s + special.ellipkinc(phi, m) * math.cos(phi) ** 2
    return 2 * math.pi * c * c + 2 * math.pi * a * b / s * elliptic


@pytest.mark.parametrize("axes", [(1.0, 2.0, 3.0), (1.0, 1.0, 0.5), (1.0, 1.0, 2.5)],
                         ids=["e123", "oblate", "prolate"])
def test_surface_integral_of_one_matches_closed_form_area(axes):
    surf = nc.ellipsoid(*axes)
    one = nc.BandLimitedFunction({0: nc.constant_profile(1.0)}, surf.z_interval)
    want = dlmf_ellipsoid_area(axes)
    assert nc.surface_integral(surf, one) == pytest.approx(want, rel=1e-12)
    assert nc.surface_area(surf) == pytest.approx(want, rel=1e-12)


def test_gauss_legendre_rule_is_computed_once_per_n(monkeypatch):
    from scipy.special import roots_legendre

    from nclaplace import surface

    x, w = surface._gauss_legendre(24)
    assert surface._gauss_legendre(24)[0] is x
    fresh = roots_legendre(24)
    assert x.tobytes() == fresh[0].tobytes() and w.tobytes() == fresh[1].tobytes()
    for a in (x, w):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    # integrals are bit-identical to a rule computed afresh for every n
    surf = nc.ellipsoid(1.0, 2.0, 3.0)
    cached = nc.surface_integral(surf, surf.coord_x)
    one = nc.BandLimitedFunction({0: nc.constant_profile(1.0)}, surf.z_interval)
    cached_one = nc.surface_integral(surf, one)
    monkeypatch.setattr(surface, "_gauss_legendre", roots_legendre)
    assert nc.surface_integral(surf, surf.coord_x) == cached
    assert nc.surface_integral(surf, one) == cached_one


def test_surface_integral_warns_when_the_rule_does_not_converge(unit_sphere):
    # sqrt|z| has a kink at the equator: Gauss-Legendre converges only algebraically
    kink = nc.BandLimitedFunction(
        {0: nc.Profile(lambda z: np.sqrt(np.abs(z)))}, unit_sphere.z_interval
    )
    with pytest.warns(UserWarning, match="area quadrature achieved"):
        value = nc.surface_integral(unit_sphere, kink)
    # the last value is still returned: 512 nodes leave a relative error of 4e-5
    assert value == pytest.approx(8 * math.pi / 3, rel=1e-4)


def test_area_density_rejects_a_negative_radicand(unit_sphere):
    # an imaginary height flips the sign of {y,z}^2 + {z,x}^2: the radicand
    # z^2 - (1 - z^2) is negative near the equator
    x, y, z = unit_sphere.coordinates
    twisted = nc.SurfaceDescriptor(
        "twisted", unit_sphere.z_interval, x, y,
        nc.BandLimitedFunction(
            {0: nc.Profile(lambda u: 1j * np.asarray(u), lambda u: np.full(np.shape(u), 1j))},
            z.z_interval,
        ),
    )
    with pytest.raises(ConsistencyError, match="not a nonnegative real"):
        nc.metric_sqrt_det(twisted, (0.1, 0.0))
    with pytest.raises(ConsistencyError, match="not a nonnegative real"):
        nc.surface_area(twisted)


def test_load_surface_config_keyvalue(tmp_path):
    cfg = tmp_path / "surf.cfg"
    cfg.write_text("kind = spheroid\nsemi_axes = [1, 1, 2]\n")
    s = nc.load_surface_config(cfg)
    assert s.semi_axes == (1.0, 1.0, 2.0)
    assert s.revolution
    assert s.z_interval == (-1.0, 1.0)


def test_load_surface_config_json(tmp_path):
    cfg = tmp_path / "surf.json"
    cfg.write_text('{"kind": "ellipsoid", "semi_axes": [1, 2, 3]}')
    s = nc.load_surface_config(cfg)
    assert s.semi_axes == (1.0, 2.0, 3.0)
    assert not s.revolution


def test_load_surface_config_rejects_unknown(tmp_path):
    cfg = tmp_path / "surf.cfg"
    cfg.write_text("kind = torus\n")
    with pytest.raises(ValueError):
        nc.load_surface_config(cfg)


@pytest.mark.parametrize(
    "spec, key",
    [
        ({"kind": "ellipsoid", "semi_axes": "1,1,2", "radius": 5}, "radius"),
        ({"kind": "sphere", "semi_axes": [1, 2, 3]}, "semi_axes"),
        ({"kind": "spheroid", "semi_axes": "1,2", "height": 3}, "height"),
        ({"kind": "ellipsoid", "semi_axes": "nan,1,2"}, "semi_axes"),
        ({"kind": "spheroid", "semi_axes": [1, -2]}, "semi_axes"),
        ({"kind": "sphere", "radius": math.inf}, "radius"),
        ({"kind": "sphere", "radius": 0}, "radius"),
        ({"kind": "sphere", "radius": 1e51}, "radius"),
        ({"kind": "ellipsoid", "semi_axes": [1, 2, 1e-51]}, "semi_axes"),
    ],
    ids=["radius-on-ellipsoid", "axes-on-sphere", "unknown-key", "nan-axis", "negative-axis",
         "inf-radius", "zero-radius", "huge-radius", "tiny-axis"],
)
def test_surface_from_spec_rejects_naming_the_key(spec, key):
    with pytest.raises(ValueError, match=key):
        nc.surface_from_spec(spec)


def test_sizes_at_the_ends_of_the_range_are_accepted():
    lo, hi = nc.surface.SIZE_RANGE
    assert nc.sphere(lo).semi_axes == (lo, lo, lo)
    assert nc.ellipsoid(hi, hi, hi).semi_axes == (hi, hi, hi)


def test_surface_from_spec_accepts_lists_and_strings():
    assert nc.surface_from_spec({"kind": "sphere"}).semi_axes == (1.0, 1.0, 1.0)
    assert nc.surface_from_spec({"kind": "sphere", "radius": "2"}).semi_axes == (2.0, 2.0, 2.0)
    for axes in ("1, 1, 2", "[1, 2]", [1, 2], (1.0, 1.0, 2.0)):
        assert nc.surface_from_spec({"kind": "spheroid", "semi_axes": axes}).semi_axes == (1.0, 1.0, 2.0)
    with pytest.raises(ValueError, match="equal equatorial"):
        nc.surface_from_spec({"kind": "spheroid", "semi_axes": "1,2,3"})


def test_load_surface_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "surf.cfg"
    cfg.write_text("kind = sphere\nradius = 2\ncolour = red\n")
    with pytest.raises(ValueError, match="colour"):
        nc.load_surface_config(cfg)


def test_load_surface_config_rejects_a_directory(tmp_path):
    with pytest.raises(ValueError, match="regular config file"):
        nc.load_surface_config(tmp_path)
