"""Discretization grid, the function-to-matrix map, and its diagnostics.

A band-limited function f becomes the N x N matrix with entry
f_{n-m}(z(n, m)) at position (n, m), where z(n, m) is the midpoint grid
value.  Mode j fills one diagonal, so the matrix is held as a map from
offset k = column - row to an N-vector in scipy's DIA layout (d[c] =
A[c - k, c]), and made sparse or dense only where a caller needs it.
Products and commutators of such maps are sums of shifted elementwise
products of their diagonals (`_banded_product`, `_banded_commutator`), the
one banded kernel that `nc_laplacian` also runs on.  Real-valued functions
map to hermitian matrices, products map to matrix products up to O(1/N),
and the scaled commutator approaches the Poisson bracket.  The module also
provides the normalized trace, the product/bracket defect norms (spectral
norms bisected with banded Cholesky factorizations, the next shift steered
by inverse iteration), the inverse read-off of a matrix into mode samples,
and matrix export in a small binary container and JSON.  Both export
formats store only the diagonals that hold an entry, so a dump costs what
the band costs.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import ConsistencyError
from .surface import (
    BandLimitedFunction,
    Profile,
    SurfaceDescriptor,
    bracket_function,
    pointwise_product,
    surface_area,
)

TWO_PI = 2.0 * math.pi

GRID_OFFSETS = ("paper", "symmetric")

#: entrywise hermiticity tolerance for matrices built from real-valued functions
HERMITICITY_TOL = 1e-13


@dataclass(frozen=True)
class QuantizationGrid:
    """Uniform z-grid with N nodes and the matching scale parameter.

    hbar = (b - a) * beta / N exactly as stored.  Node n (1-based) sits at
    a + hbar*n for the default "paper" convention, or a + hbar*(n - 1/2) for
    the boundary-symmetric variant.  Midpoints z(n, m) = z((n + m)/2).
    """

    N: int
    a: float
    b: float
    beta: float = 1.0
    grid_offset: str = "paper"
    hbar: float = field(init=False)

    def __post_init__(self):
        if self.N < 2:
            raise ValueError(f"N must be at least 2, got {self.N}")
        if not self.a < self.b:
            raise ValueError(f"need a < b, got [{self.a}, {self.b}]")
        if not self.beta > 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.grid_offset not in GRID_OFFSETS:
            raise ValueError(f"grid_offset must be one of {GRID_OFFSETS}")
        object.__setattr__(self, "hbar", (self.b - self.a) * self.beta / self.N)

    @property
    def _shift(self) -> float:
        return 0.0 if self.grid_offset == "paper" else -0.5

    def node(self, n) -> float:
        """z(n) for 1 <= n <= N."""
        return self.a + self.hbar * (np.asarray(n) + self._shift)

    def nodes(self) -> np.ndarray:
        return self.node(np.arange(1, self.N + 1, dtype=float))

    def pair_value(self, n, m) -> float:
        """Midpoint value z(n, m) = z((n + m) / 2); z(n, n) = z(n)."""
        return self.a + self.hbar * ((np.asarray(n) + np.asarray(m)) / 2.0 + self._shift)

    def offset_pair_values(self, d: int) -> np.ndarray:
        """z(n, n + |d|) along the matrix diagonal at numpy offset d."""
        d = abs(int(d))
        i = np.arange(1, self.N - d + 1, dtype=float)
        return self.pair_value(i, i + d)


def build_grid(N: int, a: float, b: float, beta: float, grid_offset: str = "paper") -> QuantizationGrid:
    """Construct the quantization grid; N >= 2, a < b, beta > 0."""
    return QuantizationGrid(int(N), float(a), float(b), float(beta), grid_offset)


def default_beta(s: SurfaceDescriptor) -> float:
    """Scale parameter making the normalized trace of the identity exact:
    beta = area / (2*pi*(b - a))."""
    a, b = s.z_interval
    return surface_area(s) / (TWO_PI * (b - a))


def _shift(a: np.ndarray, s: int) -> np.ndarray:
    """b[c] = a[c - s], zero where c - s is out of range."""
    if s == 0:
        return a
    b = np.zeros_like(a)
    if s > 0:
        b[s:] = a[:-s]
    else:
        b[:s] = a[-s:]
    return b


def _accumulate(out: dict, terms: dict) -> None:
    """Add the diagonals of `terms` into `out`, offset by offset."""
    for k, d in terms.items():
        out[k] = out[k] + d if k in out else d


def _banded_product(A: dict, B: dict, N: int) -> dict:
    """Diagonals of A @ B from those of A and B (offset -> diagonal maps),
    by ascending offset.  (AB)[r, c] sums A[r, c - l] B[c - l, c] over the
    offsets l of B, so offset k + l of the product gains a_k shifted by l
    times b_l, elementwise, over the columns c with c - l in range.  Each
    offset sums its terms in the order of B's offsets; a term of a diagonal
    that A or B does not hold is exactly zero and is skipped."""
    out = {}
    for l, b in B.items():
        lo, hi = max(0, l), N + min(0, l)
        for k, a in A.items():
            if abs(k + l) >= N:
                continue
            if k + l in out:
                out[k + l][lo:hi] += a[lo - l : hi - l] * b[lo:hi]
            else:
                out[k + l] = np.zeros(N, dtype=complex)
                np.multiply(a[lo - l : hi - l], b[lo:hi], out=out[k + l][lo:hi])
    return dict(sorted(out.items()))


def _banded_commutator(A: dict, B: dict, N: int) -> dict:
    """Diagonals of A @ B - B @ A, by ascending offset (both products hold
    the same offsets)."""
    out = _banded_product(A, B, N)
    for k, d in _banded_product(B, A, N).items():
        out[k] = out[k] - d
    return out


def _adjoint(M: dict) -> dict:
    """Diagonals of M^H: offset -k holds the conjugate of diagonal k shifted by -k."""
    return {-k: np.conj(_shift(d, -k)) for k, d in reversed(M.items())}


def quantize_diagonals(f: BandLimitedFunction, grid: QuantizationGrid) -> dict:
    """The matrix of f on the grid, entry (n, m) = f_{n-m}(z(n, m)), as a map
    from offset k = column - row to an N-vector in the DIA layout of
    `stored_diagonals` (d[c] = A[c - k, c]), by ascending offset.

    Mode j fills offset -j and nothing else, so the matrix is banded with
    half-bandwidth max_mode.  The values are added onto +0.0, as a sparse
    matrix's `diagonal` reads them, so no part is a signed zero.  Requires
    band limit < N; evaluation outside the profile interval raises
    DomainError (possible when beta > 1 pushes the grid past the interval).
    The matrix of a real-valued f must be hermitian to HERMITICITY_TOL
    relative, checked diagonal against diagonal.
    """
    N = grid.N
    if f.max_mode >= N:
        raise ValueError(f"band limit {f.max_mode} must be below N={N}")
    diagonals = {}
    for j in sorted(f.modes, reverse=True):
        zvals = grid.offset_pair_values(-j)
        d = np.zeros(N, dtype=complex)
        d[max(0, -j) : max(0, -j) + len(zvals)] += f.profile_values(j, zvals)
        diagonals[-j] = d
    if f.real_valued and diagonals:
        adjoint = _adjoint(diagonals)
        dev = np.max([np.abs(d - adjoint.get(k, 0.0)).max() for k, d in diagonals.items()])
        scale = max(1.0, np.max([np.abs(d).max() for d in diagonals.values()]))
        if dev > HERMITICITY_TOL * scale:
            raise ConsistencyError(
                f"matrix of a real-valued function deviates from hermitian by {dev:.2e}"
            )
    return diagonals


def _sparse(diagonals: dict, N: int):
    """CSR form of an offset -> diagonal map; exact zeros are not stored."""
    if not diagonals:
        return sp.csr_matrix((N, N), dtype=complex)
    return sp.dia_matrix((np.array(list(diagonals.values())), list(diagonals)), shape=(N, N)).tocsr()


def quantize_banded(f: BandLimitedFunction, grid: QuantizationGrid):
    """Sparse (CSR) form of `quantize_diagonals`."""
    return _sparse(quantize_diagonals(f, grid), grid.N)


def quantize(f: BandLimitedFunction, grid: QuantizationGrid) -> np.ndarray:
    """Dense form of `quantize_diagonals`: entry (n, m) = f_{n-m}(z(n, m))."""
    return quantize_banded(f, grid).toarray()


def spectral_norm(M, N: int | None = None) -> float:
    """Largest singular value sqrt(lambda_max(M^H M)) of a banded matrix M:
    an offset -> diagonal map of an N x N matrix, or a dense or sparse
    matrix, which is read through `stored_diagonals`.

    A = M^H M is hermitian with bandwidth kd at most the sum of the lower
    and upper bandwidths of M; its diagonals come from `_banded_product`.
    tau lies above lambda_max(A) exactly when tau I - A is positive
    definite, which one banded Cholesky factorization (LAPACK ?pbtrf,
    O(N kd^2)) decides: by Sylvester's law of inertia it succeeds exactly
    when no pivot is non-positive (Parlett, The Symmetric Eigenvalue
    Problem, ch. 3).  tau is bisected on [max diagonal of A, largest column
    sum of |A|] until the midpoint no longer splits the bracket, and the
    upper end is returned; no band is reduced to tridiagonal form and no
    dense SVD is formed.

    The factorizations decide every step, but inverse iteration picks the
    shifts: after each one that succeeds at tau, one solve y = (tau I -
    A)^{-1} x with the factor (?pbtrs) gives theta = x^H y / x^H x <= 1 /
    (tau - lambda_max), so rho = tau - 1/theta <= lambda_max, and y is the
    next x.  The next shifts tried are rho + delta, then rho - delta, with
    delta = max(2 eps |rho|, 1e-4 (tau - rho)); a shift outside the open
    bracket, NaN included, is passed over for the midpoint, so a poor
    estimate costs steps, never the result.  The band is real when every
    entry below its diagonal is real (as for purely real or purely
    imaginary M), complex otherwise; the diagonal, a sum of |m|^2, is taken
    as real, as ?pbtrf takes it.  An all-zero M gives exactly 0.0.
    """
    if not isinstance(M, dict):
        N = M.shape[0]
        M = stored_diagonals(M, N)
    if not any(np.any(d) for d in M.values()):
        return 0.0
    A = _banded_product(_adjoint(M), M, N)
    kd = -min(A)
    # lower band storage: band[i, c] = A[c + i, c], offset -i of A
    band = np.array([A.get(-i, np.zeros(N, dtype=complex)) for i in range(kd + 1)])
    band = np.asfortranarray(band if np.any(band[1:].imag) else band.real)
    lo = float(band[0].real.max())
    hi = float(np.sum([np.abs(d) for d in A.values()], axis=0).max())
    pbtrf, pbtrs = sla.get_lapack_funcs(("pbtrf", "pbtrs"), (band,))
    x = np.random.default_rng(0).standard_normal(N).astype(band.dtype)
    shifts = []
    while lo < (mid := lo + 0.5 * (hi - lo)) < hi:
        shifts = [t for t in shifts if lo < t < hi]
        tau = shifts.pop(0) if shifts else mid
        factor = -band  # tau I - A, in the same Fortran-ordered storage
        factor[0] += tau
        factor, info = pbtrf(factor, lower=1, overwrite_ab=1)
        if info != 0:
            lo = tau
            continue
        hi = tau
        y = pbtrs(factor, x, lower=1)[0]
        with np.errstate(all="ignore"):
            rho = tau - np.vdot(x, x).real / np.vdot(x, y).real
            delta = max(2 * np.finfo(float).eps * abs(rho), 1e-4 * (tau - rho))
            x = y / np.abs(y).max()
        shifts = [rho + delta, rho - delta]
    return math.sqrt(hi)


def stored_diagonals(A, N: int) -> dict:
    """The stored diagonals of an N x N matrix A (dense or sparse) by offset
    k = column - row, in scipy's DIA layout: d[c] = A[c - k, c], zero where
    row c - k lies outside the matrix.  A DIA matrix is read row by row,
    anything else through its CSR form (repeated entries add up), one
    `diagonal(k)` per offset that holds a stored entry."""
    if sp.issparse(A) and A.format == "dia":
        rows = zip(A.offsets.tolist(), A.data)
        pairs = [(k, row[max(0, k) : N + min(0, k)]) for k, row in rows if abs(k) < N]
    else:
        A = sp.csr_array(A)
        rows = np.repeat(np.arange(N), np.diff(A.indptr))
        offsets = np.flatnonzero(np.bincount(A.indices - rows + N - 1)) - (N - 1)
        pairs = [(k, A.diagonal(k)) for k in offsets.tolist()]
    out = {}
    for k, diag in pairs:
        out[k] = np.zeros(N, dtype=complex)
        out[k][max(0, k) : max(0, k) + len(diag)] = diag
    return out


@dataclass(eq=False)
class CoordinateMatrices:
    """Quantized embedding coordinates X, Y, Z on a common grid.

    ``diagonals`` holds (X, Y, Z) as the offset -> diagonal maps of
    `quantize_diagonals`.  ``banded`` (their CSR forms) and the attributes
    X, Y and Z (their dense forms) are made on first use, by the callers
    that want scipy or dense matrices.
    """

    diagonals: tuple
    grid: QuantizationGrid
    surface: SurfaceDescriptor

    @cached_property
    def banded(self) -> tuple:
        return tuple(_sparse(d, self.grid.N) for d in self.diagonals)

    @cached_property
    def X(self) -> np.ndarray:
        return self.banded[0].toarray()

    @cached_property
    def Y(self) -> np.ndarray:
        return self.banded[1].toarray()

    @cached_property
    def Z(self) -> np.ndarray:
        return self.banded[2].toarray()


def coordinate_matrices(s: SurfaceDescriptor, grid: QuantizationGrid) -> CoordinateMatrices:
    """Quantize the three embedding coordinates.

    For the built-in surfaces X and Y are tridiagonal with zero diagonal
    (modes +-1 only) and Z is diagonal (axial semi-axis times the nodes).
    Surfaces with further modes simply quantize coordinate by coordinate.
    """
    diagonals = tuple(quantize_diagonals(f, grid) for f in (s.coord_x, s.coord_y, s.coord_z))
    return CoordinateMatrices(diagonals, grid, s)


def trace_functional(F, grid: QuantizationGrid) -> float:
    """Normalized trace 2*pi*hbar*Tr(F) of an offset -> diagonal map (offset
    0 summed), or of a dense or sparse matrix; the imaginary part must be
    rounding."""
    if isinstance(F, dict):
        tr = F[0].sum() if 0 in F else 0.0
    else:
        tr = F.diagonal().sum() if sp.issparse(F) else np.trace(np.asarray(F))
    t = TWO_PI * grid.hbar * tr
    t = complex(t)
    if abs(t.imag) > 1e-12 * (1.0 + abs(t.real)):
        raise ConsistencyError(f"trace has non-negligible imaginary part {t.imag:.2e}")
    return float(t.real)


@dataclass(frozen=True)
class AxiomDefects:
    """Operator-norm defects of the product and scaled-commutator identities.

    product_defect  = || T(f)T(g) - T(fg) ||
    bracket_defect  = || [T(f), T(g)]/(i*hbar) - T({f,g}) ||
    The operator norm is the largest singular value, `spectral_norm` of the
    banded defect matrix; the *_fro fields carry the Frobenius norms of the
    same matrices, taken over their stored diagonals.
    """

    product_defect: float
    bracket_defect: float
    product_defect_fro: float
    bracket_defect_fro: float


def axiom_defects(
    f: BandLimitedFunction, g: BandLimitedFunction, grid: QuantizationGrid, Tf=None, Tg=None
) -> AxiomDefects:
    """Measure both defect norms at the given N.

    fg and {f, g} are formed by exact mode convolution before quantization so
    the defects isolate the discretization error.  Tf and Tg are the
    `quantize_diagonals` maps of f and g, computed here unless the caller
    has them; P and B are formed on diagonals (`_banded_product`).
    """
    N = grid.N
    Tf = quantize_diagonals(f, grid) if Tf is None else Tf
    Tg = quantize_diagonals(g, grid) if Tg is None else Tg
    TfTg, TgTf = _banded_product(Tf, Tg, N), _banded_product(Tg, Tf, N)
    P = dict(TfTg)
    _accumulate(P, {k: -d for k, d in quantize_diagonals(pointwise_product(f, g), grid).items()})
    B = {k: (d - TgTf[k]) * (1 / (1j * grid.hbar)) for k, d in TfTg.items()}
    _accumulate(B, {k: -d for k, d in quantize_diagonals(bracket_function(f, g), grid).items()})
    fro = lambda M: float(np.linalg.norm(np.array(list(M.values()))))
    return AxiomDefects(spectral_norm(P, N), spectral_norm(B, N), fro(P), fro(B))


def norm_bound(f: BandLimitedFunction, grid: QuantizationGrid) -> float:
    """Uniform-boundedness proxy: sum over modes of max_z |f_j(z)| on the grid."""
    total = 0.0
    for j in sorted(f.modes):
        zvals = grid.offset_pair_values(-j)
        total += float(np.abs(np.asarray(f.modes[j](zvals))).max())
    return total


def dequantize(F: np.ndarray, grid: QuantizationGrid, max_mode: int) -> BandLimitedFunction:
    """Read mode samples back off a matrix (left inverse of quantize).

    Mode j is sampled at the points z(n, n+|j|) with the values along the
    corresponding diagonal; profiles interpolate linearly between samples and
    each carries its raw samples in ``Profile.samples``.
    """
    F = np.asarray(F, dtype=complex)
    N = grid.N
    if max_mode >= N:
        raise ValueError(f"max_mode {max_mode} must be below N={N}")
    hermitian = bool(np.abs(F - F.conj().T).max() <= 1e-12 * max(1.0, np.abs(F).max()))
    modes = {}
    step = 1e-6 * (grid.b - grid.a)
    for j in range(-max_mode, max_mode + 1):
        d = -j
        vals = np.diagonal(F, offset=d).copy()
        if not np.abs(vals).max() > 0.0:
            continue
        zpts = grid.offset_pair_values(d)

        def interp(z, zpts=zpts, vals=vals):
            zr = np.interp(z, zpts, vals.real)
            zi = np.interp(z, zpts, vals.imag)
            return zr + 1j * zi

        modes[j] = Profile(interp, fd_step=step, samples=(zpts, vals))
    return BandLimitedFunction(modes, (grid.a, grid.b), real_valued=hermitian)


# ---------------------------------------------------------------------------
# matrix export: banded binary container and JSON

NCLQ_MAGIC = b"NCLQ"
NCLQ_VERSION = 2
NCLQ_FLAG_HERMITIAN = 1
_HEADER = struct.Struct("<4sIIII12x")  # magic, version, N, flags, stored diagonals, reserved -> 32 bytes


def _is_hermitian(offsets: list, diagonals: list) -> bool:
    """Entrywise hermiticity to 1e-12 relative of the layout of
    `_banded_layout`: entry i of diagonal k against the conjugate of entry i
    of diagonal -k (the transposed entry), a diagonal not stored counting as
    zeros.  Equal entries count as equal, so an infinite entry matched by
    its conjugate passes and NaN fails; the scale is the largest finite
    entry, at least 1."""
    stored = dict(zip(offsets, diagonals))
    values = np.concatenate(diagonals) if diagonals else np.zeros(0, dtype=complex)
    tol = 1e-12 * max(1.0, np.abs(values[np.isfinite(values)]).max(initial=0.0))
    for k, d in stored.items():
        t = np.conj(stored.get(-k, np.zeros_like(d)))
        differ = d != t
        with np.errstate(invalid="ignore"):  # unequal infinite parts
            dev = np.abs(d[differ] - t[differ])
        if not np.all(dev <= tol):
            return False
    return True


def _diagonal_layout(diagonals: dict, N: int) -> tuple[int, list, list]:
    """(N, offsets, diagonals) of an offset -> diagonal map (DIA layout) of
    an N x N matrix, read as a sparse matrix is: each diagonal's N - |k|
    entries in row order, added onto +0.0 (so no part is a signed zero),
    and kept when one of them has a part that is not +0.0, NaN included."""
    kept = []
    for k in sorted(diagonals):
        d = np.asarray(diagonals[k], dtype=complex)[max(0, k) : N + min(0, k)] + 0.0
        if d.view(np.uint64).any():
            kept.append((k, d))
    return N, [k for k, _ in kept], [d for _, d in kept]


def _banded_layout(M) -> tuple[int, list, list]:
    """(N, offsets, diagonals) of a square dense or sparse matrix M.

    Offset k = column - row.  A diagonal is kept when the dense form of M
    (``toarray()`` for sparse M) holds an entry on it with a part that is
    not +0.0, so -0.0 and NaN count; its entries are returned in row order,
    zeros included.  Sparse M is read through `stored_diagonals` of its CSR
    form, which sums onto +0.0 as ``toarray()`` does, so dense and sparse
    forms of one matrix give the same layout.
    """
    A = sp.csr_array(M, dtype=complex) if sp.issparse(M) else np.ascontiguousarray(M, dtype="<c16")
    n = A.shape[0] if A.ndim == 2 else -1
    if A.shape != (n, n):
        raise ValueError("matrix must be square")
    if sp.issparse(A):
        return _diagonal_layout(stored_diagonals(A, n), n)
    rows, cols = np.nonzero(A.view(np.uint64).reshape(n, n, 2).any(axis=2))
    offsets = np.unique(cols - rows).tolist()
    diagonals = [np.diagonal(A, k).copy() for k in offsets]
    kept = [(k, d) for k, d in zip(offsets, diagonals) if d.view(np.uint64).any()]
    return n, [k for k, _ in kept], [d for _, d in kept]


def _dense_from_diagonals(n: int, offsets: list, values: np.ndarray) -> np.ndarray:
    """The n x n complex matrix holding `values`, the stored diagonals in
    ascending offset order and each in row order, and zero elsewhere.
    Offsets must ascend strictly with |k| < n, and `values` must hold
    exactly their entries."""
    if any(abs(k) >= n for k in offsets) or any(a >= b for a, b in zip(offsets, offsets[1:])):
        raise ValueError(f"offsets must ascend strictly within (-{n}, {n}), got {offsets}")
    lengths = [n - abs(k) for k in offsets]
    if len(values) != sum(lengths):
        raise ValueError(f"expected {sum(lengths)} stored entries, got {len(values)}")
    M = np.zeros((n, n), dtype=complex)
    start = 0
    for k, length in zip(offsets, lengths):
        rows = np.arange(max(0, -k), max(0, -k) + length)
        M[rows, rows + k] = values[start : start + length]
        start += length
    return M


def write_matrix_binary(path, M, flags: int | None = None) -> None:
    """Banded binary dump of a dense or sparse matrix: the 32-byte header
    (magic, version 2, N, flags, D), the D int32 offsets of the stored
    diagonals (`_banded_layout`) in ascending order, then each diagonal's
    N - |k| complex128 entries in row order, all little-endian.  Without
    `flags`, the hermitian flag is set when `_is_hermitian` holds."""
    _write_binary(path, _banded_layout(M), flags)


def _write_binary(path, layout: tuple, flags: int | None = None) -> None:
    n, offsets, diagonals = layout
    if flags is None:
        flags = NCLQ_FLAG_HERMITIAN if _is_hermitian(offsets, diagonals) else 0
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(NCLQ_MAGIC, NCLQ_VERSION, n, flags, len(offsets)))
        fh.write(np.asarray(offsets, dtype="<i4").tobytes())
        for d in diagonals:
            fh.write(d.astype("<c16").tobytes())


def read_matrix_binary(path) -> tuple[np.ndarray, int]:
    """Read a binary dump back as a dense matrix; returns (matrix, flags).

    Reads version 2 (banded) and version 1 (32-byte header, then all N^2
    entries row-major)."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"file of {len(raw)} bytes has no NCLQ header")
    magic, version, n, flags, count = _HEADER.unpack_from(raw)
    if magic != NCLQ_MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    payload = raw[_HEADER.size :]
    if version == 1:
        if len(payload) != 16 * n * n:
            raise ValueError(f"version 1 payload of {len(payload)} bytes for N={n}")
        return np.frombuffer(payload, dtype="<c16").reshape(n, n).astype(complex), flags
    if version != NCLQ_VERSION:
        raise ValueError(f"unsupported version {version}")
    if len(payload) < 4 * count or (len(payload) - 4 * count) % 16:
        raise ValueError(f"payload of {len(payload)} bytes for {count} diagonals")
    offsets = np.frombuffer(payload, dtype="<i4", count=count).tolist()
    values = np.frombuffer(payload, dtype="<c16", offset=4 * count)
    return _dense_from_diagonals(n, offsets, values), flags


def write_matrix_json(path, M) -> None:
    """Banded JSON dump of a dense or sparse matrix: the text of
    json.dumps({"N": n, "offsets": [...], "diagonals": [[[re, im], ...], ...]})
    over the stored diagonals of `_banded_layout`."""
    _write_json(path, _banded_layout(M))


def _write_json(path, layout: tuple) -> None:
    n, offsets, diagonals = layout
    pairs = [np.column_stack([d.real, d.imag]).tolist() for d in diagonals]
    Path(path).write_text(json.dumps({"N": n, "offsets": offsets, "diagonals": pairs}))


def _json_floats(obj) -> np.ndarray:
    """Parsed JSON as a float array; ValueError unless it holds only numbers."""
    try:
        return np.asarray(obj, dtype=float)
    except TypeError as err:
        raise ValueError(f"expected numbers: {err}") from err


def read_matrix_json(path) -> np.ndarray:
    """Read a JSON dump back as an n x n complex matrix: the banded object,
    or the dense list of n rows of [real, imag] pairs written before it."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        pairs = _json_floats(payload)
        if pairs.ndim != 3 or pairs.shape[1:] != (len(pairs), 2):
            raise ValueError(f"expected n x n [real, imag] pairs, got shape {pairs.shape}")
        return pairs.view(complex)[..., 0]
    if set(payload) != {"N", "offsets", "diagonals"}:
        raise ValueError(f"expected the keys N, offsets and diagonals, got {sorted(payload)}")
    n, offsets, diagonals = payload["N"], payload["offsets"], payload["diagonals"]
    if type(n) is not int or n < 0 or not isinstance(offsets, list) or any(type(k) is not int for k in offsets):
        raise ValueError(f"N and the offsets must be integers, got N={n!r}, offsets={offsets!r}")
    if not isinstance(diagonals, list) or len(diagonals) != len(offsets):
        raise ValueError(f"expected {len(offsets)} diagonals")
    parts = [_json_floats(d) for d in diagonals]
    if any(p.shape != (n - abs(k), 2) for k, p in zip(offsets, parts)):
        raise ValueError(f"diagonal k of N={n} must hold N - |k| [real, imag] pairs")
    values = np.concatenate(parts).view(complex)[:, 0] if parts else np.zeros(0, complex)
    return _dense_from_diagonals(n, offsets, values)


def dump_coordinate_matrices(coords: CoordinateMatrices, out_dir, formats=("binary", "json")) -> list:
    """Write X, Y, Z under out_dir from their diagonals (`_diagonal_layout`),
    the bytes `write_matrix_binary` and `write_matrix_json` write for their
    sparse forms; returns the created paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for label, diagonals in zip("XYZ", coords.diagonals):
        layout = _diagonal_layout(diagonals, coords.grid.N)
        if "binary" in formats:
            p = out / f"coords_{label}.nclq"
            _write_binary(p, layout)
            written.append(p)
        if "json" in formats:
            p = out / f"coords_{label}.json"
            _write_json(p, layout)
            written.append(p)
    return written
