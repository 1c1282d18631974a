"""Discretization grid, the function-to-matrix map, and its diagnostics.

A band-limited function f becomes the N x N matrix with entry
f_{n-m}(z(n, m)) at position (n, m), where z(n, m) is the midpoint grid
value.  Mode j fills one diagonal, so the matrix is stored banded (sparse)
and made dense only where a caller needs it.  Real-valued functions map to
hermitian matrices, products map to matrix products up to O(1/N), and the
scaled commutator approaches the Poisson bracket.  The module also provides
the normalized trace, the product/bracket defect norms (spectral norms from
a banded eigenvalue solve), the inverse read-off of a matrix into mode
samples, and matrix export in a small binary container and JSON.
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

    M^H M is hermitian with bandwidth at most the sum of the lower and upper
    bandwidths of M, so its largest eigenvalue comes from one banded solve
    through `eigvals_banded`, with no dense SVD: LAPACK ?sbevx when every
    stored entry of M^H M is real (as for purely real or purely imaginary M),
    ?hbevx otherwise.  An all-zero M gives exactly 0.0.
    """
    if not np.any(M.data):
        return 0.0
    A = (M.conj().T @ M).tocoo()
    data = A.data if np.any(A.data.imag) else A.data.real
    n = A.shape[0]
    low = A.row >= A.col
    offset = A.row[low] - A.col[low]
    band = np.zeros((offset.max() + 1, n), dtype=data.dtype)
    band[offset, A.col[low]] = data[low]  # lower storage: band[k, j] = A[j + k, j]
    lam = sla.eigvals_banded(band, lower=True, select="i", select_range=(n - 1, n - 1))[0]
    return float(np.sqrt(max(lam, 0.0)))


@dataclass(eq=False)
class CoordinateMatrices:
    """Quantized embedding coordinates X, Y, Z on a common grid.

    ``banded`` holds (X, Y, Z) as the CSR matrices of `quantize_banded`; the
    attributes X, Y and Z are their dense forms, made on first use by the
    dense operator paths.
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
# matrix export: binary container and JSON

NCLQ_MAGIC = b"NCLQ"
NCLQ_VERSION = 1
NCLQ_FLAG_HERMITIAN = 1
_HEADER = struct.Struct("<4sIII16x")  # magic, version, N, flags, reserved -> 32 bytes


def _is_hermitian(M) -> bool:
    """Entrywise hermiticity to 1e-12 relative; M dense or sparse."""
    return bool(abs(M - M.conj().T).max() <= 1e-12 * max(1.0, abs(M).max()))


def write_matrix_binary(path, M: np.ndarray, flags: int | None = None) -> None:
    """Dense binary dump: 32-byte header then row-major complex128 pairs."""
    M = np.ascontiguousarray(np.asarray(M, dtype="<c16"))
    n = M.shape[0]
    if M.shape != (n, n):
        raise ValueError("matrix must be square")
    if flags is None:
        flags = NCLQ_FLAG_HERMITIAN if _is_hermitian(M) else 0
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(NCLQ_MAGIC, NCLQ_VERSION, n, flags))
        fh.write(M.tobytes())


def read_matrix_binary(path) -> tuple[np.ndarray, int]:
    """Read a binary dump back; returns (matrix, flags)."""
    raw = Path(path).read_bytes()
    magic, version, n, flags = _HEADER.unpack_from(raw)
    if magic != NCLQ_MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    if version != NCLQ_VERSION:
        raise ValueError(f"unsupported version {version}")
    M = np.frombuffer(raw[_HEADER.size :], dtype="<c16", count=n * n).reshape(n, n)
    return M.astype(complex), flags


def _stored_entries(M):
    """(rows, cols, values) of the entries of M that are not written "[0.0, 0.0]".

    Sparse M: the stored entries, valued as in M.toarray() (duplicates summed
    onto +0, so a stored -0.0 reads 0.0).  Dense M: every entry with a
    non-zero, non-finite or negative-zero part.
    """
    if sp.issparse(M):
        A = M.tocoo()
        A.sum_duplicates()
        return A.row, A.col, A.data + 0.0
    pairs = M.view(np.float64).reshape(*M.shape, 2)
    rows, cols = np.nonzero(((pairs != 0.0) | np.signbit(pairs)).any(axis=2))
    return rows, cols, M[rows, cols]


def write_matrix_json(path, M) -> None:
    """Rows of [real, imag] pairs, for a dense or sparse matrix.

    The text is that of json.dumps(pairs.tolist()) for the dense [real, imag]
    array, but only the stored entries are formatted; every other cell is
    the shared string "[0.0, 0.0]".
    """
    if not sp.issparse(M):
        M = np.ascontiguousarray(M, dtype=complex)
    rows, cols, vals = _stored_entries(M)
    # one encode of all stored parts gives the encoder's own float text
    # (repr, NaN, Infinity, -Infinity)
    parts = json.dumps(np.column_stack([vals.real, vals.imag]).ravel().tolist())[1:-1].split(", ")
    n_rows, n_cols = M.shape
    cells = [["[0.0, 0.0]"] * n_cols for _ in range(n_rows)]
    for i, j, re, im in zip(rows.tolist(), cols.tolist(), parts[::2], parts[1::2]):
        cells[i][j] = f"[{re}, {im}]"
    text = ", ".join("[" + ", ".join(row) + "]" for row in cells)
    Path(path).write_text("[" + text + "]")


def read_matrix_json(path) -> np.ndarray:
    """Read a JSON dump back as an n x n complex matrix."""
    pairs = np.asarray(json.loads(Path(path).read_text()), dtype=float)
    if pairs.ndim != 3 or pairs.shape[1:] != (len(pairs), 2):
        raise ValueError(f"expected n x n [real, imag] pairs, got shape {pairs.shape}")
    return pairs.view(complex)[..., 0]


def dump_coordinate_matrices(coords: CoordinateMatrices, out_dir, formats=("binary", "json")) -> list:
    """Write X, Y, Z under out_dir from their banded form; returns the created paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for label, M in zip("XYZ", coords.banded):
        if "binary" in formats:
            p = out / f"coords_{label}.nclq"
            write_matrix_binary(p, M.toarray(), NCLQ_FLAG_HERMITIAN if _is_hermitian(M) else 0)
            written.append(p)
        if "json" in formats:
            p = out / f"coords_{label}.json"
            write_matrix_json(p, M)
            written.append(p)
    return written
