"""Axisymmetric embedded surfaces and their classical differential geometry.

A surface is held as azimuthal Fourier data: each embedding coordinate is a
finite sum  sum_j f_j(z) e^{i j theta}  over integer modes j, with z running
over a closed parameter interval [a, b].  Spheres use the geometric interval
[-R, R]; ellipsoids the normalized interval [-1, 1] with the third coordinate
scaled by the axial semi-axis.

The module provides the unweighted Poisson bracket
{f, h} = d_theta f d_z h - d_z f d_theta h, the area density
sqrt|g| = sqrt({x,y}^2 + {y,z}^2 + {z,x}^2), the bracket form of the
Laplace-Beltrami operator, integrals against the area form, and the one
parser that turns a surface spec (kind, semi_axes, radius) into a surface.

Integrals use a tensor rule: Gauss-Legendre in z and the trapezoid rule in
theta, doubling the nodes until two values agree.  The area density of the
built-in surfaces is analytic in z and periodic in theta, so both rules
converge geometrically (Trefethen & Weideman, SIAM Review 56 (2014) 385).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import roots_legendre

from .errors import ConsistencyError, DomainError, SingularPointError

TWO_PI = 2.0 * math.pi

#: relative tolerance used when checking that a radicand is nonnegative
RADICAND_TOL = 1e-12

#: area density below which a point counts as a pole (classical evaluation refused)
POLE_DENSITY_FLOOR = 1e-10

#: nodes per direction of the integration rule: first and last of the doublings
INTEGRAL_NODES = (32, 512)

#: absolute floor of the integration stopping test, so vanishing integrals stop
INTEGRAL_ABS_TOL = 1e-13


@dataclass(frozen=True)
class Profile:
    """One Fourier-mode profile f_j(z).

    Carries analytic first/second derivatives when available; otherwise
    central differences with the declared steps are used.  ``fd_step`` is the
    first-difference step ((b - a) * 1e-6 for the built-in surfaces),
    ``fd_step2`` the wider second-difference step.
    """

    func: Callable
    deriv: Callable | None = None
    deriv2: Callable | None = None
    fd_step: float = 2e-6
    fd_step2: float = 2e-4
    samples: tuple | None = None  # (z points, values) when built from a matrix

    def __call__(self, z):
        return self.func(z)

    def d1(self, z):
        if self.deriv is not None:
            return self.deriv(z)
        h = self.fd_step
        return (self.func(z + h) - self.func(z - h)) / (2.0 * h)

    def d2(self, z):
        if self.deriv2 is not None:
            return self.deriv2(z)
        h = self.fd_step2
        return (self.func(z + h) - 2.0 * self.func(z) + self.func(z - h)) / h**2

    @property
    def analytic(self) -> bool:
        return self.deriv is not None and self.deriv2 is not None


def constant_profile(value) -> Profile:
    c = complex(value)

    def f(z):
        return np.full(np.shape(z), c) if np.ndim(z) else c

    zero = lambda z: np.zeros(np.shape(z)) if np.ndim(z) else 0.0
    return Profile(f, zero, zero)


@dataclass(frozen=True)
class SurfacePoint:
    """A point (z, theta) in parameter coordinates; theta reduced mod 2*pi."""

    z: float
    theta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "z", float(self.z))
        object.__setattr__(self, "theta", float(self.theta) % TWO_PI)


def as_point(p) -> SurfacePoint:
    if isinstance(p, SurfacePoint):
        return p
    z, theta = p
    return SurfacePoint(z, theta)


@dataclass(frozen=True)
class BandLimitedFunction:
    """f(z, theta) = sum over |j| <= max_mode of f_j(z) e^{i j theta}.

    ``modes`` maps the integer mode j to its z-profile.  When ``real_valued``
    is set, profiles satisfy f_{-j}(z) = conj(f_j(z)).
    """

    modes: dict
    z_interval: tuple
    real_valued: bool = True

    @property
    def max_mode(self) -> int:
        return max((abs(j) for j in self.modes), default=0)

    def check_domain(self, z):
        a, b = self.z_interval
        tol = 1e-12 * (b - a)
        zmin, zmax = np.min(z), np.max(z)
        if zmin < a - tol or zmax > b + tol:
            raise DomainError(
                f"z in [{zmin:g}, {zmax:g}] leaves the profile interval [{a:g}, {b:g}]"
            )

    def profile_values(self, j: int, z):
        self.check_domain(z)
        prof = self.modes.get(j)
        if prof is None:
            return np.zeros(np.shape(z), dtype=complex)
        return np.asarray(prof(z), dtype=complex)

    def evaluate(self, z, theta):
        self.check_domain(z)
        acc = 0.0 + 0.0j
        for j in sorted(self.modes):
            acc = acc + self.modes[j](z) * np.exp(1j * j * theta)
        return acc

    def d_z(self, z, theta):
        self.check_domain(z)
        acc = 0.0 + 0.0j
        for j in sorted(self.modes):
            acc = acc + self.modes[j].d1(z) * np.exp(1j * j * theta)
        return acc

    def d_theta(self, z, theta):
        self.check_domain(z)
        acc = 0.0 + 0.0j
        for j in sorted(self.modes):
            acc = acc + (1j * j) * self.modes[j](z) * np.exp(1j * j * theta)
        return acc


def _binary_mode_pairs(f: BandLimitedFunction, h: BandLimitedFunction):
    """Pairs (j1, p1, j2, p2) in a fixed order, grouped by resulting mode."""
    if f.z_interval != h.z_interval:
        raise ValueError("band-limited operands live on different intervals")
    grouped: dict[int, list] = {}
    for j1 in sorted(f.modes):
        for j2 in sorted(h.modes):
            grouped.setdefault(j1 + j2, []).append((j1, f.modes[j1], j2, h.modes[j2]))
    return grouped


def _pole_clamp(interval):
    """Evaluation-point clamp for derived profiles.

    Pulls z inside the open interval by (b-a)*1e-12 so that individually
    divergent factors (profile times derivative at a sqrt-type endpoint) are
    evaluated where every factor is finite; the combined mode profiles are
    smooth, so the induced value error is of the same 1e-12 order.
    """
    a, b = interval
    eta = (b - a) * 1e-12

    def clamp(z):
        return np.clip(z, a + eta, b - eta)

    return clamp


def pointwise_product(f: BandLimitedFunction, h: BandLimitedFunction) -> BandLimitedFunction:
    """Product f*h by exact mode convolution (band limits add)."""
    grouped = _binary_mode_pairs(f, h)
    modes = {}
    step = f.modes[next(iter(f.modes))].fd_step if f.modes else 2e-6
    clamp = _pole_clamp(f.z_interval)
    for k, terms in grouped.items():

        def value(z, terms=terms):
            # plain profile products stay finite at the endpoints: no clamp
            acc = 0.0 + 0.0j
            for _, p1, _, p2 in terms:
                acc = acc + p1(z) * p2(z)
            return acc

        def d1(z, terms=terms):
            z = clamp(z)
            acc = 0.0 + 0.0j
            for _, p1, _, p2 in terms:
                acc = acc + p1.d1(z) * p2(z) + p1(z) * p2.d1(z)
            return acc

        def d2(z, terms=terms):
            z = clamp(z)
            acc = 0.0 + 0.0j
            for _, p1, _, p2 in terms:
                acc = acc + p1.d2(z) * p2(z) + 2.0 * p1.d1(z) * p2.d1(z) + p1(z) * p2.d2(z)
            return acc

        modes[k] = Profile(value, d1, d2, fd_step=step)
    return BandLimitedFunction(modes, f.z_interval, f.real_valued and h.real_valued)


def bracket_function(f: BandLimitedFunction, h: BandLimitedFunction) -> BandLimitedFunction:
    """Unweighted Poisson bracket {f, h} = d_theta f d_z h - d_z f d_theta h.

    Built by mode calculus: d_theta multiplies mode j by i*j, d_z acts on the
    profiles.  The 1/sqrt|g| weight is applied separately by callers.
    """
    grouped = _binary_mode_pairs(f, h)
    modes = {}
    step = f.modes[next(iter(f.modes))].fd_step if f.modes else 2e-6
    clamp = _pole_clamp(f.z_interval)
    for k, terms in grouped.items():

        def value(z, terms=terms):
            z = clamp(z)
            acc = 0.0 + 0.0j
            for j1, p1, j2, p2 in terms:
                acc = acc + (1j * j1) * p1(z) * p2.d1(z) - p1.d1(z) * ((1j * j2) * p2(z))
            return acc

        def d1(z, terms=terms):
            z = clamp(z)
            acc = 0.0 + 0.0j
            for j1, p1, j2, p2 in terms:
                acc = acc + (1j * j1) * (p1.d1(z) * p2.d1(z) + p1(z) * p2.d2(z))
                acc = acc - (1j * j2) * (p1.d2(z) * p2(z) + p1.d1(z) * p2.d1(z))
            return acc

        modes[k] = Profile(value, d1, None, fd_step=step)
    return BandLimitedFunction(modes, f.z_interval, f.real_valued and h.real_valued)


def poisson_bracket(f: BandLimitedFunction, h: BandLimitedFunction, p) -> complex:
    """Evaluate {f, h} at the point p."""
    p = as_point(p)
    return complex(bracket_function(f, h).evaluate(p.z, p.theta))


@dataclass
class SurfaceDescriptor:
    """An axisymmetric surface embedded through (theta, z) -> (x, y, z3).

    ``coord_x``/``coord_y`` carry modes +-1 only for the built-in surfaces;
    ``coord_z`` is the mode-0 third coordinate (identity scaled by the axial
    semi-axis for ellipsoids).
    """

    name: str
    z_interval: tuple
    coord_x: BandLimitedFunction
    coord_y: BandLimitedFunction
    coord_z: BandLimitedFunction
    semi_axes: tuple | None = None
    revolution: bool = True
    _area: float | None = field(default=None, repr=False)
    _brackets: tuple | None = field(default=None, repr=False)

    @property
    def coordinates(self):
        return (self.coord_x, self.coord_y, self.coord_z)

    @property
    def has_analytic_derivatives(self) -> bool:
        """True when every coordinate profile carries closed-form derivatives.

        Surfaces built from bare callables fall back to central differences
        (steps declared on the Profile); reports flag that situation.
        """
        return all(
            prof.analytic for blf in self.coordinates for prof in blf.modes.values()
        )

    def coordinate_brackets(self):
        """({x,y}, {y,z}, {z,x}) as band-limited functions, cached."""
        if self._brackets is None:
            x, y, z = self.coordinates
            self._brackets = (
                bracket_function(x, y),
                bracket_function(y, z),
                bracket_function(z, x),
            )
        return self._brackets


def _sqrt_mode_profiles(rsq_of_z, scale: complex, interval, dsq=None) -> Profile:
    """Profile scale*sqrt(rsq(z)) with analytic derivatives.

    rsq must be a quadratic c0 - c2*z^2 described by (c0, c2): then
    f = s*w, f' = -s*c2*z/w, f'' = -s*c0*c2/w^3 with w = sqrt(c0 - c2 z^2).
    """
    c0, c2 = rsq_of_z
    s = complex(scale)
    step = 1e-6 * (interval[1] - interval[0])

    def w(z):
        return np.sqrt(c0 - c2 * np.asarray(z) ** 2 + 0j).real

    def f(z):
        return s * w(z)

    def d1(z):
        return -s * c2 * np.asarray(z) / w(z)

    def d2(z):
        return -s * c0 * c2 / w(z) ** 3

    return Profile(f, d1, d2, fd_step=step, fd_step2=100 * step)


def _linear_profile(slope: float, interval) -> Profile:
    step = 1e-6 * (interval[1] - interval[0])

    def f(z):
        return slope * np.asarray(z, dtype=float) if np.ndim(z) else slope * z

    def d1(z):
        return np.full(np.shape(z), float(slope)) if np.ndim(z) else float(slope)

    def d2(z):
        return np.zeros(np.shape(z)) if np.ndim(z) else 0.0

    return Profile(f, d1, d2, fd_step=step, fd_step2=100 * step)


def _build_coordinates(interval, rsq, ax: float, ay: float, az: float):
    """x, y, z band-limited coordinates with x = ax*w(z)cos, y = ay*w(z)sin."""
    x = BandLimitedFunction(
        {
            +1: _sqrt_mode_profiles(rsq, ax / 2.0, interval),
            -1: _sqrt_mode_profiles(rsq, ax / 2.0, interval),
        },
        interval,
    )
    y = BandLimitedFunction(
        {
            +1: _sqrt_mode_profiles(rsq, -0.5j * ay, interval),
            -1: _sqrt_mode_profiles(rsq, +0.5j * ay, interval),
        },
        interval,
    )
    z = BandLimitedFunction({0: _linear_profile(az, interval)}, interval)
    return x, y, z


def _size(key: str, value) -> float:
    """value as a float; ValueError naming the key unless finite and positive."""
    try:
        v = float(value)
    except (TypeError, ValueError):
        v = math.nan
    if not (math.isfinite(v) and v > 0):
        raise ValueError(f"{key} must be a finite positive number, got {value!r}")
    return v


def sphere(radius: float = 1.0) -> SurfaceDescriptor:
    """Round sphere of the given radius on the geometric interval [-R, R]."""
    R = _size("radius", radius)
    interval = (-R, R)
    x, y, z = _build_coordinates(interval, (R * R, 1.0), 1.0, 1.0, 1.0)
    name = "sphere" if R == 1.0 else f"sphere(radius={R:g})"
    return SurfaceDescriptor(name, interval, x, y, z, semi_axes=(R, R, R), revolution=True)


def ellipsoid(a1: float, a2: float, a3: float) -> SurfaceDescriptor:
    """Ellipsoid with semi-axes (a1, a2, a3), normalized interval [-1, 1].

    Embedding: x = a1 sqrt(1-u^2) cos(theta), y = a2 sqrt(1-u^2) sin(theta),
    third coordinate a3*u with u the interval parameter.
    """
    a1, a2, a3 = (_size("semi_axes", v) for v in (a1, a2, a3))
    interval = (-1.0, 1.0)
    x, y, z = _build_coordinates(interval, (1.0, 1.0), a1, a2, a3)
    name = f"ellipsoid({a1:g},{a2:g},{a3:g})"
    return SurfaceDescriptor(
        name, interval, x, y, z, semi_axes=(a1, a2, a3), revolution=(a1 == a2)
    )


def spheroid(a: float, c: float) -> SurfaceDescriptor:
    """Revolution ellipsoid with equatorial semi-axis a and axial semi-axis c."""
    s = ellipsoid(a, a, c)
    s.name = f"spheroid({a:g},{c:g})"
    return s


def _area_density(s: SurfaceDescriptor, z, theta) -> np.ndarray:
    """sqrt|g| = sqrt({x,y}^2 + {y,z}^2 + {z,x}^2) on broadcast arrays z, theta.

    Every radicand must be finite, real and nonnegative up to RADICAND_TOL
    relative; otherwise ConsistencyError names the first offending z.
    """
    radicand = 0.0 + 0.0j
    for b in s.coordinate_brackets():
        v = b.evaluate(z, theta)
        radicand = radicand + v * v
    radicand = np.asarray(radicand, dtype=complex)
    z = np.broadcast_to(z, radicand.shape)
    bad = ~np.isfinite(radicand)
    if bad.any():
        raise ConsistencyError(f"non-finite bracket data at z={z[bad][0]:g} (pole?)")
    scale = np.maximum(1.0, np.abs(radicand))
    bad = (np.abs(radicand.imag) > RADICAND_TOL * scale) | (radicand.real < -RADICAND_TOL * scale)
    if bad.any():
        raise ConsistencyError(
            f"metric radicand {complex(radicand[bad][0])} not a nonnegative real at z={z[bad][0]:g}"
        )
    return np.sqrt(np.maximum(radicand.real, 0.0))


def metric_sqrt_det(s: SurfaceDescriptor, p) -> float:
    """Area density sqrt|g| = sqrt({x,y}^2 + {y,z}^2 + {z,x}^2) at p."""
    p = as_point(p)
    return float(_area_density(s, p.z, p.theta))


def laplace_beltrami_apply(s: SurfaceDescriptor, f: BandLimitedFunction, p) -> float:
    """Bracket form of the Laplace-Beltrami operator applied to f at p.

    Delta f = sum_i (1/sqrt|g|) {x^i, (1/sqrt|g|) {x^i, f}}, with the inner
    bracket computed by mode calculus and the outer derivatives by central
    differences (steps (b-a)*1e-6 in z and 2*pi*1e-6 in theta).  Points where
    the density falls below the pole floor are rejected.
    """
    p = as_point(p)
    rho0 = metric_sqrt_det(s, p)
    if rho0 < POLE_DENSITY_FLOOR:
        raise SingularPointError(f"area density {rho0:g} below pole floor at z={p.z:g}")
    a, b = s.z_interval
    hz = (b - a) * 1e-6
    ht = TWO_PI * 1e-6
    total = 0.0 + 0.0j
    for xi in s.coordinates:
        inner = bracket_function(xi, f)

        def weighted(z, theta, inner=inner):
            return inner.evaluate(z, theta) / metric_sqrt_det(s, SurfacePoint(z, theta))

        dh_dz = (weighted(p.z + hz, p.theta) - weighted(p.z - hz, p.theta)) / (2 * hz)
        dh_dt = (weighted(p.z, p.theta + ht) - weighted(p.z, p.theta - ht)) / (2 * ht)
        total += xi.d_theta(p.z, p.theta) * dh_dz - xi.d_z(p.z, p.theta) * dh_dt
    return float((total / rho0).real)


def surface_integral(s: SurfaceDescriptor, f: BandLimitedFunction, rel_tol: float = 1e-10) -> float:
    """Integral of Re(f) sqrt|g| over [a, b] x [0, 2*pi).

    Tensor rule: n Gauss-Legendre nodes in z (`roots_legendre`) times n
    trapezoid nodes in theta, or one theta node when the integrand cannot
    depend on theta (a revolution surface and a mode-0 f).  n doubles from INTEGRAL_NODES[0]
    until two successive values agree to rel_tol relative or
    INTEGRAL_ABS_TOL absolute; at INTEGRAL_NODES[1] the last value is
    returned with a warning.
    """
    a, b = s.z_interval
    theta_dependent = not (s.revolution and f.max_mode == 0)
    n, previous = INTEGRAL_NODES[0], None
    while True:
        x, w = roots_legendre(n)
        m = n if theta_dependent else 1
        z = (0.5 * (b - a) * x + 0.5 * (a + b))[:, None]
        theta = (TWO_PI / m * np.arange(m))[None, :]
        values = (f.evaluate(z, theta) * _area_density(s, z, theta)).real
        value = float(0.5 * (b - a) * TWO_PI / m * (w @ values.sum(axis=1)))
        if previous is not None:
            change = abs(value - previous)
            if change <= max(rel_tol * abs(value), INTEGRAL_ABS_TOL):
                return value
            if n >= INTEGRAL_NODES[1]:
                warnings.warn(
                    f"area quadrature achieved {change / max(abs(value), INTEGRAL_ABS_TOL):.2e} "
                    f"relative (requested {rel_tol:.1e})"
                )
                return value
        n, previous = 2 * n, value


def surface_area(s: SurfaceDescriptor, rel_tol: float = 1e-10) -> float:
    """Total area: the surface integral of the constant 1, cached on s."""
    if s._area is None:
        one = BandLimitedFunction({0: constant_profile(1.0)}, s.z_interval)
        s._area = surface_integral(s, one, rel_tol)
    return s._area


#: surface kinds and the spec keys each one accepts besides ``kind``
SURFACE_KEYS = {"sphere": ("radius",), "spheroid": ("semi_axes",), "ellipsoid": ("semi_axes",)}


def surface_from_spec(spec) -> SurfaceDescriptor:
    """Build a surface from a mapping with the keys kind, semi_axes and radius.

    kind is sphere (radius, default 1), spheroid (semi_axes [a, c] or
    [a, a, c]) or ellipsoid (semi_axes [a1, a2, a3]); semi_axes is a list or
    a comma-separated string.  An unknown key, a key that does not apply to
    the kind, or a size that is not finite and positive raises ValueError
    naming the key.
    """
    spec = dict(spec)
    kind = str(spec.pop("kind", "")).strip().lower()
    if kind not in SURFACE_KEYS:
        raise ValueError(f"unknown surface kind {kind!r}; choose from {', '.join(SURFACE_KEYS)}")
    for key in spec:
        if key not in ("radius", "semi_axes"):
            raise ValueError(f"unknown surface key {key!r}")
        if key not in SURFACE_KEYS[kind]:
            raise ValueError(f"{key} does not apply to surface kind {kind!r}")
    if kind == "sphere":
        return sphere(spec.get("radius", 1.0))
    axes = spec.get("semi_axes", [])
    if isinstance(axes, str):
        axes = [t for t in axes.replace("[", "").replace("]", "").split(",") if t.strip()]
    if not isinstance(axes, (list, tuple)):
        raise ValueError(f"semi_axes must be a list or a comma-separated string, got {axes!r}")
    axes = [_size("semi_axes", v) for v in axes]
    if kind == "ellipsoid":
        if len(axes) != 3:
            raise ValueError("ellipsoid needs semi_axes = a1, a2, a3")
        return ellipsoid(*axes)
    if len(axes) == 3:
        if axes[0] != axes[1]:
            raise ValueError("spheroid requires equal equatorial semi-axes")
        axes = [axes[0], axes[2]]
    if len(axes) != 2:
        raise ValueError("spheroid needs semi_axes = a, c or a, a, c")
    return spheroid(*axes)


def load_surface_config(path) -> SurfaceDescriptor:
    """Load a surface from a key-value or JSON config file.

    The keys are those of surface_from_spec.  A path that is not a readable
    regular file raises ValueError.
    """
    path = Path(path)
    if not path.is_file():
        raise ValueError(
            f"{str(path)!r} is neither a surface kind ({', '.join(SURFACE_KEYS)}) "
            "nor a regular config file"
        )
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValueError(f"cannot read surface config {str(path)!r}: {exc}") from exc
    if text.lstrip().startswith("{"):
        return surface_from_spec(json.loads(text))
    data = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (expected key = value): {line!r}")
        key, _, value = line.partition("=")
        data[key.strip()] = value.strip()
    return surface_from_spec(data)
