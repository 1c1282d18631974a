"""Discretization grid, the function-to-matrix map, and its diagnostics.

A band-limited function f becomes the N x N matrix with entry
f_{n-m}(z(n, m)) at position (n, m), where z(n, m) is the midpoint grid
value.  Mode j fills one diagonal, so the matrix is stored banded (sparse)
and made dense only where a caller needs it.  Real-valued functions map to
hermitian matrices, products map to matrix products up to O(1/N), and the
scaled commutator approaches the Poisson bracket.  The module also provides
the normalized trace, the product/bracket defect norms (spectral norms
bisected with banded Cholesky factorizations), the inverse read-off of a
matrix into mode samples, and matrix export in a small binary container and
JSON.  Both export formats store only the diagonals that hold an entry, so
a dump costs what the band costs.
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


def quantize_banded(f: BandLimitedFunction, grid: QuantizationGrid):
    """Sparse (CSR) matrix of f on the grid: entry (n, m) = f_{n-m}(z(n, m)).

    Mode j fills the diagonal at numpy offset -j and nothing else, so the
    matrix is banded with half-bandwidth max_mode.  Requires band limit < N;
    evaluation outside the profile interval raises DomainError (possible when
    beta > 1 pushes the grid past the interval).  Exact zeros are not stored.
    """
    N = grid.N
    if f.max_mode >= N:
        raise ValueError(f"band limit {f.max_mode} must be below N={N}")
    diagonals = {}
    for j in sorted(f.modes):
        zvals = grid.offset_pair_values(-j)
        diagonals[-j] = np.broadcast_to(f.profile_values(j, zvals), zvals.shape)
    if not diagonals:
        return sp.csr_matrix((N, N), dtype=complex)
    if f.real_valued:
        # diagonal d of T - T^H is diagonal d of T minus the conjugate of diagonal -d
        dev = np.max(
            [np.abs(v - np.conj(diagonals.get(-d, 0.0))).max() for d, v in diagonals.items()]
        )
        scale = max(1.0, np.max([np.abs(v).max() for v in diagonals.values()]))
        if dev > HERMITICITY_TOL * scale:
            raise ConsistencyError(
                f"matrix of a real-valued function deviates from hermitian by {dev:.2e}"
            )
    return sp.diags(list(diagonals.values()), list(diagonals), shape=(N, N), format="csr")


def quantize(f: BandLimitedFunction, grid: QuantizationGrid) -> np.ndarray:
    """Dense form of `quantize_banded`: entry (n, m) = f_{n-m}(z(n, m))."""
    return quantize_banded(f, grid).toarray()


def spectral_norm(M) -> float:
    """Largest singular value of a banded sparse matrix, sqrt(lambda_max(M^H M)).

    A = M^H M is hermitian with bandwidth kd at most the sum of the lower
    and upper bandwidths of M.  tau lies above lambda_max(A) exactly when
    tau I - A is positive definite, which one banded Cholesky factorization
    (LAPACK ?pbtrf, O(N kd^2)) decides: by Sylvester's law of inertia it
    succeeds exactly when no pivot is non-positive (Parlett, The Symmetric
    Eigenvalue Problem, ch. 3).  tau is bisected on [max diagonal of A,
    largest Gershgorin row sum of A] until the midpoint no longer splits the
    bracket, and the upper end is returned; no band is reduced to
    tridiagonal form and no dense SVD is formed.  The band is real when
    every stored entry of A is real (as for purely real or purely imaginary
    M), complex otherwise.  An all-zero M gives exactly 0.0.
    """
    if not np.any(M.data):
        return 0.0
    A = (M.conj().T @ M).tocoo()
    data = A.data if np.any(A.data.imag) else A.data.real
    n = A.shape[0]
    low = A.row >= A.col
    offset = A.row[low] - A.col[low]
    band = np.zeros((offset.max() + 1, n), dtype=data.dtype, order="F")
    band[offset, A.col[low]] = data[low]  # lower storage: band[k, j] = A[j + k, j]
    lo = float(band[0].real.max())
    hi = float(np.bincount(A.row, weights=np.abs(A.data), minlength=n).max())
    pbtrf = sla.get_lapack_funcs("pbtrf", (band,))
    while lo < (tau := lo + 0.5 * (hi - lo)) < hi:
        shifted = -band  # tau I - A, in the same Fortran-ordered storage
        shifted[0] += tau
        if pbtrf(shifted, lower=1, overwrite_ab=1)[1] == 0:
            hi = tau
        else:
            lo = tau
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

    ``banded`` holds (X, Y, Z) as the CSR matrices of `quantize_banded`; the
    attributes X, Y and Z are their dense forms, made on first use by the
    dense operator paths, and ``diagonals`` their `stored_diagonals`, made
    on first use by the banded ones.
    """

    banded: tuple
    grid: QuantizationGrid
    surface: SurfaceDescriptor

    @cached_property
    def X(self) -> np.ndarray:
        return self.banded[0].toarray()

    @cached_property
    def Y(self) -> np.ndarray:
        return self.banded[1].toarray()

    @cached_property
    def Z(self) -> np.ndarray:
        return self.banded[2].toarray()

    @cached_property
    def diagonals(self) -> tuple:
        return tuple(stored_diagonals(M, self.grid.N) for M in self.banded)


def coordinate_matrices(s: SurfaceDescriptor, grid: QuantizationGrid) -> CoordinateMatrices:
    """Quantize the three embedding coordinates.

    For the built-in surfaces X and Y are tridiagonal with zero diagonal
    (modes +-1 only) and Z is diagonal (axial semi-axis times the nodes).
    Surfaces with further modes simply quantize coordinate by coordinate.
    """
    banded = tuple(quantize_banded(f, grid) for f in (s.coord_x, s.coord_y, s.coord_z))
    return CoordinateMatrices(banded, grid, s)


def trace_functional(F, grid: QuantizationGrid) -> float:
    """Normalized trace 2*pi*hbar*Tr(F) of a dense or sparse matrix; the
    imaginary part must be rounding."""
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
    same matrices.
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
    the defects isolate the discretization error.  Tf and Tg are
    `quantize_banded` of f and g, computed here unless the caller has them.
    """
    Tf = quantize_banded(f, grid) if Tf is None else Tf
    Tg = quantize_banded(g, grid) if Tg is None else Tg
    TfTg = Tf @ Tg
    P = TfTg - quantize_banded(pointwise_product(f, g), grid)
    B = (TfTg - Tg @ Tf) / (1j * grid.hbar) - quantize_banded(bracket_function(f, g), grid)
    fro = lambda M: float(np.linalg.norm(M.data))
    return AxiomDefects(spectral_norm(P), spectral_norm(B), fro(P), fro(B))


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


def _is_hermitian(M) -> bool:
    """Entrywise hermiticity to 1e-12 relative; M dense or sparse."""
    return bool(abs(M - M.conj().T).max() <= 1e-12 * max(1.0, abs(M).max()))


def _banded_layout(M) -> tuple[int, list, list]:
    """(N, offsets, diagonals) of a square dense or sparse matrix M.

    Offset k = column - row.  A diagonal is kept when the dense form of M
    (``toarray()`` for sparse M) holds an entry on it with a part that is
    not +0.0, so -0.0 and NaN count; its entries are returned in row order,
    zeros included.  Sparse M is read through one `diagonal(k)` per offset
    that holds a stored entry, which sums onto +0.0 as ``toarray()`` does,
    so dense and sparse forms of one matrix give the same layout.
    """
    A = sp.csr_array(M, dtype=complex) if sp.issparse(M) else np.ascontiguousarray(M, dtype="<c16")
    n = A.shape[0] if A.ndim == 2 else -1
    if A.shape != (n, n):
        raise ValueError("matrix must be square")
    if sp.issparse(A):
        rows = np.repeat(np.arange(n), np.diff(A.indptr))
        offsets = np.unique(A.indices - rows).tolist()
        diagonals = [A.diagonal(k) for k in offsets]
    else:
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
    N - |k| complex128 entries in row order, all little-endian."""
    n, offsets, diagonals = _banded_layout(M)
    if flags is None:
        flags = NCLQ_FLAG_HERMITIAN if _is_hermitian(M) else 0
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
    n, offsets, diagonals = _banded_layout(M)
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
    """Write X, Y, Z under out_dir from their banded form; returns the created paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for label, M in zip("XYZ", coords.banded):
        if "binary" in formats:
            p = out / f"coords_{label}.nclq"
            write_matrix_binary(p, M)
            written.append(p)
        if "json" in formats:
            p = out / f"coords_{label}.json"
            write_matrix_json(p, M)
            written.append(p)
    return written
