"""Shared fixtures and independent numerical oracles for the test suite.

The oracles here deliberately avoid the package's mode-calculus paths: they
work from plain embedding formulas and centered finite differences, so they
can catch sign and bookkeeping mistakes in the library.
"""

import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

import nclaplace as nc

TWO_PI = 2.0 * math.pi


def fd_bracket(f, h, z, theta, step=1e-5):
    """{f, h} by finite differences of the evaluated functions."""
    df_dt = (f.evaluate(z, theta + step) - f.evaluate(z, theta - step)) / (2 * step)
    dh_dt = (h.evaluate(z, theta + step) - h.evaluate(z, theta - step)) / (2 * step)
    df_dz = (f.evaluate(z + step, theta) - f.evaluate(z - step, theta)) / (2 * step)
    dh_dz = (h.evaluate(z + step, theta) - h.evaluate(z - step, theta)) / (2 * step)
    return df_dt * dh_dz - df_dz * dh_dt


def embedding_partials(surf, z, theta):
    """Analytic partial derivatives of the embedding, written out plainly."""
    a1, a2, a3 = surf.semi_axes
    if surf.z_interval == (-1.0, 1.0):
        w = math.sqrt(1.0 - z * z)
        dw = -z / w
        du = (a1 * dw * math.cos(theta), a2 * dw * math.sin(theta), a3)
        dt = (-a1 * w * math.sin(theta), a2 * w * math.cos(theta), 0.0)
    else:
        R = a1
        w = math.sqrt(R * R - z * z)
        dw = -z / w
        du = (dw * math.cos(theta), dw * math.sin(theta), 1.0)
        dt = (-w * math.sin(theta), w * math.cos(theta), 0.0)
    return du, dt


def metric_oracle(surf, z, theta):
    """(g11, g12, g22, sqrt(det g)) from the embedding partials."""
    du, dt = embedding_partials(surf, z, theta)
    g11 = sum(a * a for a in du)
    g22 = sum(a * a for a in dt)
    g12 = sum(a * b for a, b in zip(du, dt))
    det = g11 * g22 - g12 * g12
    return g11, g12, g22, math.sqrt(det)


def interior_points(n, seed, zlim=0.9):
    rng = np.random.default_rng(seed)
    zs = rng.uniform(-zlim, zlim, n)
    ts = rng.uniform(0.0, TWO_PI, n)
    return list(zip(zs, ts))


@pytest.fixture(scope="session")
def unit_sphere():
    return nc.sphere()


@pytest.fixture(scope="session")
def prolate_112():
    return nc.spheroid(1.0, 2.0)


@pytest.fixture(scope="session")
def triaxial_123():
    return nc.ellipsoid(1.0, 2.0, 3.0)


def csr_from_diagonals(diagonals, N):
    """scipy CSR form of an offset -> diagonal map (DIA layout, d[c] =
    A[c - k, c]) of an N x N matrix: an independent reference for the
    package's banded kernel."""
    import scipy.sparse as sp

    if not diagonals:
        return sp.csr_matrix((N, N), dtype=complex)
    offsets = sorted(diagonals)
    return sp.dia_matrix((np.array([diagonals[k] for k in offsets]), offsets), shape=(N, N)).tocsr()


def diagonals_from_csr(M):
    """The offset -> diagonal map of a scipy CSR matrix, read by scipy: one
    `diagonal(k)` per offset that holds a stored entry, padded to the DIA
    layout with zeros where row c - k lies outside the matrix."""
    N = M.shape[0]
    coo = M.tocoo()
    out = {}
    for k in np.unique(coo.col - coo.row).tolist():
        out[k] = np.zeros(N, dtype=complex)
        out[k][max(0, k) : N + min(0, k)] = M.diagonal(k)
    return out


def offset_map(v, k, N):
    """The offset -> diagonal map of the N x N matrix with v along offset k."""
    d = np.zeros(N, dtype=complex)
    d[max(0, k) : N + min(0, k)] = v
    return {k: d}


def dense_from_map(diagonals, N):
    """The dense N x N form of an offset -> diagonal map, by np.diag."""
    A = np.zeros((N, N), dtype=complex)
    for k, d in diagonals.items():
        A += np.diag(d[max(0, k) : N + min(0, k)], k)
    return A


def block_matrix(block):
    """The dense offset block B = diag(scale) T diag(1/scale), T the
    symmetric tridiagonal form (``diag``, ``off``) the block holds."""
    T = np.diag(block.diag) + np.diag(block.off, 1) + np.diag(block.off, -1)
    return block.scale[:, None] * T / block.scale


def block_top_levels(block, take):
    """The `take` levels of the block closest to 0, descending, and their
    eigenvectors of B (rows): `eigh_tridiagonal` of the symmetric form by
    index, all dim levels when take is above dim."""
    n = block.dim
    w, Y = eigh_tridiagonal(block.diag, block.off, select="i", select_range=(n - min(take, n), n - 1))
    return w[::-1], (block.scale[:, None] * Y).T[::-1]
