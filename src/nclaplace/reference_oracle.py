"""Independent classical references for the spectrum computations.

Provides the closed-form sphere spectrum with multiplicities, a spectral
per-mode Galerkin solver for surfaces of revolution (the default reference
there), a separated Sturm-Liouville finite-difference solver kept as its
cross-check, the rule that picks one of them for a surface
(``reference_for``), and the greedy clustering used to group near-degenerate
numerical eigenvalues.  The sign convention matches the matrix operator:
reported eigenvalues are nonpositive.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import roots_legendre

from .errors import NotRevolutionSurfaceError, ResolutionError

#: basis functions per azimuthal mode of the first Galerkin solve, doubled
#: until the estimate passes, and the largest count tried
GALERKIN_DEGREE = 24
GALERKIN_MAX_DEGREE = 384
#: the estimate compares each level with the one from the leading
#: degree - GALERKIN_NEST basis functions
GALERKIN_NEST = 8
#: a kept level passes when its estimate is below GALERKIN_TOL * (1 + |lambda|)
GALERKIN_TOL = 1e-9


@dataclass(frozen=True)
class SpectrumEntry:
    value: float
    multiplicity: int
    source: str  # "analytic" | "galerkin" | "sturm_liouville"


@dataclass(frozen=True)
class ClassicalSpectrum:
    """Reference eigenvalues sorted ascending, with multiplicities."""

    entries: tuple
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        values = [e.value for e in self.entries]
        if values != sorted(values):
            raise ValueError("entries must be sorted ascending by value")
        if any(e.multiplicity < 1 for e in self.entries):
            raise ValueError("multiplicities must be >= 1")

    def expanded(self) -> list:
        """Flat eigenvalue list with each value repeated by multiplicity."""
        out = []
        for e in self.entries:
            out.extend([e.value] * e.multiplicity)
        return out

    def cluster_means(self, count: int, gap: float) -> list:
        """Means of the clusters (`cluster_multiplicities` with `gap`) of the
        `count` levels nearest zero, sorted by absolute value."""
        nearest = sorted(sorted(self.expanded(), key=abs)[:count])
        return sorted((m for m, _ in cluster_multiplicities(nearest, gap)), key=abs)


def analytic_sphere_spectrum(k_max: int) -> ClassicalSpectrum:
    """Unit-sphere levels -k(k+1) with multiplicity 2k+1 for k = 0..k_max."""
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    entries = [
        SpectrumEntry(-float(k * (k + 1)), 2 * k + 1, "analytic")
        for k in range(k_max, -1, -1)
    ]
    return ClassicalSpectrum(tuple(entries), {"k_max": k_max})


def _revolution_axes(s):
    """Equatorial and axial semi-axes (a, c) of a sphere or spheroid."""
    if not s.revolution or s.semi_axes is None:
        raise NotRevolutionSurfaceError(f"{s.name}: no separated classical problem available")
    a_eq, _, c_ax = s.semi_axes
    return a_eq, c_ax


def _meridian_coefficients(s):
    """Radius and meridian stretch along the colatitude-type angle t in (0, pi).

    Spheres and spheroids trace r(t) = a sin t with axial height c cos t, so
    the meridian line element is sqrt(a^2 cos^2 t + c^2 sin^2 t) dt.  The
    angle coordinate keeps every coefficient smooth and r vanishing linearly
    at the poles, which is what makes the finite differences second order.
    """
    a_eq, c_ax = _revolution_axes(s)

    def r(t):
        return a_eq * np.sin(t)

    def stretch(t):
        return np.sqrt((a_eq * np.cos(t)) ** 2 + (c_ax * np.sin(t)) ** 2)

    return r, stretch


def _mode_eigenvalues(r, stretch, n: int, m: int, count: int) -> np.ndarray:
    """Top `count` eigenvalues of one azimuthal band of the revolution problem.

    Cell-centered conservative scheme for
        (1/(r E)) d/dt( (r/E) u' ) - m^2 u / r^2 = lambda u,   E = |d(meridian)/dt|
    on (0, pi).  Flux coefficients p = r/E live on cell faces and vanish at
    the poles, which encodes the bounded-solution endpoint condition; for
    m >= 1 the singular m^2/r^2 potential suppresses u there.  Returns
    eigenvalues sorted descending (nearest zero first).
    """
    h = math.pi / n
    nodes = (np.arange(n) + 0.5) * h
    faces = np.arange(n + 1) * h
    p = np.zeros(n + 1)
    inner = faces[1:-1]
    p[1:-1] = r(inner) / stretch(inner)
    rn = r(nodes)
    w = rn * stretch(nodes)
    diag_t = -(p[1:] + p[:-1]) / h**2 - (m * m) * stretch(nodes) / rn
    off_t = p[1:-1] / h**2
    # similarity-transform the generalized problem T u = lambda W u
    sw = np.sqrt(w)
    diag = diag_t / w
    off = off_t / (sw[:-1] * sw[1:])
    lo = max(n - count, 0)
    vals = eigh_tridiagonal(diag, off, select="i", select_range=(lo, n - 1), eigvals_only=True)
    return vals[::-1]


def _keep_prefix(levels, count: int):
    """The levels nearest zero that cover `count` eigenvalues with multiplicity.

    `levels` holds (value, multiplicity, ...) tuples.  The sort by |value| is
    stable, so ties keep their input order.  Returns the kept indices in
    that order and the multiplicity they cover.
    """
    kept, total = [], 0
    for i in sorted(range(len(levels)), key=lambda i: abs(levels[i][0])):
        if total >= count:
            break
        kept.append(i)
        total += levels[i][1]
    return kept, total


def revolution_spectrum(s, m_max: int, grid_points: int, count: int) -> ClassicalSpectrum:
    """Low spectrum of a revolution surface by separated finite differences.

    Solves every azimuthal band m = 0, 1, ..., m_max on `grid_points` cells
    of the meridian angle for its top min(max(count, 2), grid_points//2 - 1)
    levels by index (multiplicity 1 for m = 0, else 2), and keeps the levels
    nearest zero until `count` eigenvalues are covered with multiplicity.  A
    coarse companion solve on grid_points//2 cells estimates the
    discretization error of every kept eigenvalue; estimates comparable to
    the eigenvalue itself raise.
    """
    if grid_points < 4:
        raise ValueError(f"grid_points must be at least 4, got {grid_points}")
    if m_max < 0:
        raise ValueError(f"m_max must be nonnegative, got {m_max}")
    r, stretch = _meridian_coefficients(s)
    take = min(max(count, 2), grid_points // 2 - 1)
    fine = [  # (value, multiplicity, mode, index within the band)
        (v, 1 if m == 0 else 2, m, i)
        for m in range(m_max + 1)
        for i, v in enumerate(_mode_eigenvalues(r, stretch, grid_points, m, take))
    ]
    kept_idx, total = _keep_prefix(fine, count)
    if total < count:
        raise ResolutionError(
            f"bands m <= {m_max} on {grid_points} cells provide only {total} of the "
            f"requested {count} eigenvalues"
        )
    kept = [fine[i] for i in kept_idx]
    # a band's kept levels are its top ones and take < grid_points//2, so
    # the coarse solve of each band returns one companion per kept level
    depth = Counter(m for _, _, m, _ in kept)
    coarse = {m: _mode_eigenvalues(r, stretch, grid_points // 2, m, k) for m, k in depth.items()}
    # second-order scheme: halving the grid scales the error by ~4, so the
    # fine/coarse difference over 3 estimates the fine-grid error
    err_est = [abs(v - coarse[m][i]) / 3.0 for v, _, m, i in kept]
    for (v, _, m, _), est in zip(kept, err_est):
        if est > 0.1 * (1.0 + abs(v)):
            raise ResolutionError(
                f"grid of {grid_points} cells leaves eigenvalue {v:.6g} (mode {m}) "
                f"with an estimated error {est:.2e}; refine the grid or request fewer eigenvalues"
            )
    entries = [
        SpectrumEntry(float(v), mult, "sturm_liouville")
        for v, mult, _, _ in sorted(kept, key=lambda t: t[0])
    ]
    meta = {
        "grid_points": grid_points,
        "m_max": m_max,
        "max_error_estimate": max(err_est, default=0.0),
        "surface": s.name,
    }
    return ClassicalSpectrum(tuple(entries), meta)


def revolution_spectrum_richardson(
    s,
    m_max: int,
    grid_points_list,
    count: int,
) -> ClassicalSpectrum:
    """Richardson-extrapolated revolution spectrum over increasing grids.

    Per (mode, index) level the two finest grids give the h^2 extrapolation
    lam_f + (lam_f - lam_c)/3; the remaining grids bound the consistency of
    the extrapolation, recorded in the metadata.
    """
    grids = sorted(int(g) for g in grid_points_list)
    if len(grids) < 2:
        raise ValueError("need at least two grid resolutions")
    r, stretch = _meridian_coefficients(s)
    per_mode = max(count, 2)
    per_grid = {}
    for g in grids:
        per_grid[g] = {
            m: _mode_eigenvalues(r, stretch, g, m, per_mode) for m in range(m_max + 1)
        }

    def extrapolate(gc, gf):
        out = {}
        ratio = (gf / gc) ** 2
        for m in range(m_max + 1):
            lc, lf = per_grid[gc][m], per_grid[gf][m]
            n = min(len(lc), len(lf))
            out[m] = lf[:n] + (lf[:n] - lc[:n]) / (ratio - 1.0)
        return out

    best = extrapolate(grids[-2], grids[-1])
    consistency = 0.0
    if len(grids) >= 3:
        alt = extrapolate(grids[-3], grids[-2])
        for m in best:
            n = min(len(best[m]), len(alt[m]))
            if n:
                consistency = max(consistency, float(np.abs(best[m][:n] - alt[m][:n]).max()))
    levels = [(float(v), 1 if m == 0 else 2) for m, vals in best.items() for v in vals]
    kept = [levels[i] for i in _keep_prefix(levels, count)[0]]
    entries = [SpectrumEntry(v, mult, "sturm_liouville") for v, mult in sorted(kept)]
    meta = {
        "grid_points": grids,
        "m_max": m_max,
        "richardson_consistency": consistency,
        "surface": s.name,
    }
    return ClassicalSpectrum(tuple(entries), meta)


def _legendre_basis(m: int, L: int, x):
    """Orthonormal associated Legendre functions on [-1, 1] and their
    derivatives: P[i] = Pbar_l^m(x) and D[i] = (1 - x^2) Pbar_l^m'(x) for
    l = m + i, i < L.

    P comes from the three-term recurrence in l started at
    Pbar_m^m = const * (1 - x^2)^(m/2), and D from the identity
    (1 - x^2) P_l^m' = (l + m) P_{l-1}^m - l x P_l^m rescaled to the
    orthonormal functions.  The phase convention does not matter here.
    """
    l = np.arange(m, m + L, dtype=float)
    P = np.empty((L, x.size))
    norm = math.sqrt(0.5 * math.prod((2 * k + 1) / (2 * k) for k in range(1, m + 1)))
    P[0] = norm * (1.0 - x * x) ** (0.5 * m)
    # P_l = alpha_l (x P_{l-1} - beta_l P_{l-2}) for l > m, with beta_{m+1} = 0
    up = l[1:]
    alpha = np.sqrt((4 * up * up - 1) / (up * up - m * m))
    beta = np.sqrt(((up - 1) ** 2 - m * m) / (4 * (up - 1) ** 2 - 1))
    prev = np.zeros_like(x)
    for i in range(1, L):
        P[i] = alpha[i - 1] * (x * P[i - 1] - beta[i - 1] * prev)
        prev = P[i - 1]
    D = -l[:, None] * x * P
    D[1:] += np.sqrt((2 * up + 1) * (up * up - m * m) / (2 * up - 1))[:, None] * P[:-1]
    return P, D


def _galerkin_mode(a: float, c: float, m: int, L: int, k: int, x, w):
    """The k lowest levels mu of azimuthal mode m on spheroid (a, a, c) from
    L basis functions, and the change of each from the leading
    L - GALERKIN_NEST ones, integrated by the Gauss-Legendre rule (x, w).

    With x = cos t and E(x) = sqrt(a^2 x^2 + c^2 (1 - x^2)), the weak form
    S u = mu M u has
        S = int a (1 - x^2)/E P'P' + m^2 E / (a (1 - x^2)) P P dx,
        M = int a E P P dx,
    and lambda = -mu.  Every integrand is a polynomial times E^(+-1), so a
    rule with 2L + m + 16 nodes or more leaves about 2L degrees for E and is
    as accurate as the basis.  M = C C^T (Cholesky) reduces the pencil to
    H = C^-1 S C^-T, whose leading principal submatrix is the pencil of the
    leading basis functions: the nested solve needs no second assembly.
    """
    s2 = 1.0 - x * x
    E = np.sqrt((a * x) ** 2 + (c * c) * s2)
    P, D = _legendre_basis(m, L, x)
    A = D * np.sqrt(w * a / (E * s2))
    B = P * (m * np.sqrt(w * E / (a * s2)))
    C = P * np.sqrt(w * a * E)
    inv = np.linalg.inv(np.linalg.cholesky(C @ C.T))
    H = inv @ (A @ A.T + B @ B.T) @ inv.T
    mu = np.linalg.eigvalsh(H)[:k]
    nested = np.linalg.eigvalsh(H[: L - GALERKIN_NEST, : L - GALERKIN_NEST])[:k]
    return mu, np.abs(nested - mu)


def _galerkin_walk(a: float, c: float, count: int, L: int):
    """Kept levels (lambda, multiplicity, estimate, index within the mode) at
    degree L, whether they pass the gate, and the number of modes solved."""
    k = min(count, L - GALERKIN_NEST)
    x, w = roots_legendre(2 * L + count + 16)  # enough nodes for every m <= count
    levels = []
    tau = math.inf
    modes_solved = 0
    for m in range(count + 1):
        mu, est = _galerkin_mode(a, c, m, L, k, x, w)
        # Galerkin levels bound the true ones from above, and the true lowest
        # level of a mode grows with m: past tau, no later mode can reach in
        if mu[0] - est[0] > tau:
            break
        modes_solved += 1
        mult = 1 if m == 0 else 2
        levels.extend((-float(v), mult, float(e), i) for i, (v, e) in enumerate(zip(mu, est)))
        kept_idx, total = _keep_prefix(levels, count)
        if total >= count:
            tau = abs(levels[kept_idx[-1]][0])
    kept = [levels[i] for i in _keep_prefix(levels, count)[0]]
    # a kept last level of a mode may hide its next one, which L cannot offer.
    # Off the sphere its estimate, against the nested pencil's top level,
    # fails anyway; on the sphere every level is exact and this check doubles L
    passed = all(e <= GALERKIN_TOL * (1.0 + abs(v)) for v, _, e, _ in kept) and not (
        k < count and any(i == k - 1 for *_, i in kept)
    )
    return kept, passed, modes_solved


def galerkin_spectrum(s, count: int) -> ClassicalSpectrum:
    """Low spectrum of a sphere or spheroid by a spectral Galerkin solve per
    azimuthal mode, covering `count` eigenvalues with multiplicity.

    Each mode m = 0, 1, ... (multiplicity 1 for m = 0, else 2) is solved in
    the orthonormal associated Legendre functions of order m
    (`_galerkin_mode`).  The walk stops at the first mode whose lowest level,
    less its estimate, lies beyond the `count`-th kept |lambda|.  The degree
    starts at GALERKIN_DEGREE and doubles until every kept level's estimate
    is below GALERKIN_TOL * (1 + |lambda|); past GALERKIN_MAX_DEGREE it
    raises ResolutionError.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    a, c = _revolution_axes(s)
    L = GALERKIN_DEGREE
    while True:
        kept, passed, modes_solved = _galerkin_walk(a, c, count, L)
        if passed:
            break
        if 2 * L > GALERKIN_MAX_DEGREE:
            raise ResolutionError(
                f"{s.name}: {L} Legendre functions per mode do not resolve the "
                f"{count} lowest eigenvalues and {GALERKIN_MAX_DEGREE} is the most allowed"
            )
        L *= 2
    entries = [SpectrumEntry(v, mult, "galerkin") for v, mult, *_ in sorted(kept)]
    meta = {
        "surface": s.name,
        "degree": L,
        "modes_solved": modes_solved,
        "max_error_estimate": max(e for _, _, e, _ in kept),
    }
    return ClassicalSpectrum(tuple(entries), meta)


def reference_for(s, count: int) -> ClassicalSpectrum | None:
    """The classical reference for the `count` lowest eigenvalues of s.

    The analytic spectrum on the unit sphere, `galerkin_spectrum` on every
    other surface of revolution, and None where no reference applies (a
    triaxial ellipsoid).  The finite-difference solvers are cross-checks,
    not defaults.
    """
    if s.semi_axes == (1.0, 1.0, 1.0):
        return analytic_sphere_spectrum(max(8, count))
    if s.revolution:
        return galerkin_spectrum(s, count)
    return None


def cluster_multiplicities(eigs, gap: float) -> list:
    """Greedy clustering of a sorted eigenvalue list.

    A value joins the current cluster when it lies within `gap` of the
    running cluster mean; returns (mean, multiplicity) pairs in input order.
    """
    clusters = []
    current = []
    for x in eigs:
        if current and abs(x - sum(current) / len(current)) <= gap:
            current.append(x)
        else:
            if current:
                clusters.append((sum(current) / len(current), len(current)))
            current = [x]
    if current:
        clusters.append((sum(current) / len(current), len(current)))
    return clusters
