"""The commutator Laplacian on matrices and its spectrum.

Assembles the quantized area density gamma = sqrt(-sum_{i>j}([X_i,X_j]/hbar)^2),
its inverse, and the operator

    L(F) = -(1/hbar^2) sum_i gamma^{-1} [X_i, gamma^{-1} [X_i, F]]

acting on N x N matrices.  gamma is decomposed once and held as eigenpairs
that gamma^{-1} shares.  gamma is positive definite, so gamma^{-1} is its
exact inverse; a gamma with min/max below GAMMA_MIN_RATIO is refused when
the operator set is built.  X, Y and Z arrive as offset -> diagonal maps
(``coords.diagonals``, from `quantization.quantize_diagonals`), and
S = gamma^2 is summed on them with the banded kernel of `quantization`
(`_banded_product`, `_banded_commutator`); on a surface of revolution
gamma is diagonal and no N x N array is formed.  Two spectrum strategies
are provided:

- dense (any surface, N <= DENSE_CAP): L = G K with G = gamma^{-1} and K
  self-adjoint, so H = G^{1/2} K G^{1/2} is symmetric and similar to L: one
  real `eigh` per parity sector of F[n, m] (n - m even or odd), which H keeps
  apart.  Each sector is assembled directly in real arithmetic from Kronecker
  products of the quarter-size parity blocks of real factors; the factors,
  not H, are checked for being real or imaginary and of one offset parity.
- blocks (revolution surfaces, large N): gamma is diagonal, so L maps each
  matrix diagonal (Fourier offset) to itself by a closed-form tridiagonal
  matrix that a diagonal similarity makes symmetric (Parlett, The Symmetric
  Eigenvalue Problem, ch. 7).  A cutoff tau is found from Sturm counts
  alone (LAPACK ?stebz by value range, stopped before it bisects), so that
  the blocks hold little more than `count` levels with |lambda| < tau; one
  ?stebz call per block then bisects exactly those, and the `count`
  closest to zero are kept.  Eigenvectors are solved for the kept levels
  only.  O(dim) work per count and per bisected level.  The range check on
  blocks +-(K+1) bisects nothing: it is one LDL^T factorization per block
  (a definiteness test, Parlett ch. 3).

Sparse arguments of `apply_laplacian` (the residual check of the blocks
strategy) are evaluated on stored diagonals with the same kernel: every
product of two banded matrices is a sum of shifted elementwise products of
their diagonals.  The residual of a block eigenmatrix is taken on the DIA
rows that come back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import (
    ConfigError,
    ConsistencyError,
    DegenerateMetricError,
    DenseSizeError,
    NotRevolutionSurfaceError,
    SolverConvergenceError,
)
from .quantization import (
    CoordinateMatrices,
    QuantizationGrid,
    _accumulate,
    _banded_commutator,
    _banded_product,
    _shift,
    build_grid,
    coordinate_matrices,
    stored_diagonals,
)
from .reference_oracle import cluster_multiplicities, reference_for
from .surface import SurfaceDescriptor

#: largest N of the dense strategy: each real parity sector is at most
#: N^2/2 = 3200 square, about 82 MB in float64
DENSE_CAP = 80

#: relative off-diagonal mass allowed in the commutator-square sum of a
#: surface of revolution, whose gamma is read off the diagonal
GAMMA_DIAGONAL_TOL = 1e-10

#: smallest eigenvalue of gamma, relative to its largest, that is inverted;
#: the grids tested (aspect ratios 0.2 to 20, N up to 32000) stay above 1.2e-5
GAMMA_MIN_RATIO = 1e-12

#: narrowing steps of the level cutoff in `_closest_levels`: each recounts at
#: most the 2K+1 blocks, about 35 us per block at dim 1000, against about
#: 0.3 ms for every level bisected beyond count + 1
CUTOFF_STEPS = 6

#: a ?stebz tolerance so coarse that the bisection stops at the Sturm count
STURM_COUNT_ABSTOL = np.finfo(float).max


def _check_dense_size(N: int) -> None:
    if N > DENSE_CAP:
        raise DenseSizeError(
            f"dense superoperator needs N <= {DENSE_CAP} (got {N}); "
            "use the blocks strategy on surfaces of revolution"
        )


def build_gamma(coords: CoordinateMatrices, hbar: float):
    """Eigenpairs (w, V) of gamma, the principal square root of
    S = -([X,Y]^2 + [Y,Z]^2 + [Z,X]^2)/hbar^2: gamma = V diag(w) V^H.

    S is summed on stored diagonals (``coords.diagonals``,
    `_banded_commutator`, `_banded_product`), and made dense only for the
    triaxial decomposition.  It must be hermitian positive semidefinite up
    to rounding; eigenvalues of S below -1e-10*||S|| signal a wrong hbar or
    broken coordinates.  On a surface of revolution S is diagonal: w is the
    entrywise root of its diagonal and V is None (gamma = diag(w));
    off-diagonal mass above GAMMA_DIAGONAL_TOL raises
    NotRevolutionSurfaceError.  Otherwise S is decomposed densely, which only
    the dense strategy can use: above N = DENSE_CAP DenseSizeError is raised
    first.
    """
    N = coords.grid.N
    X = coords.diagonals
    S = {}
    for A, B in ((X[0], X[1]), (X[1], X[2]), (X[2], X[0])):
        C = {k: d * (1 / hbar) for k, d in _banded_commutator(A, B, N).items()}
        _accumulate(S, _banded_product(C, C, N))
    S = {k: -d for k, d in S.items()}
    scale = max(max(abs(d).max() for d in S.values()), 1e-300)
    # diagonal k of S^H is the conjugate of diagonal -k, shifted by k
    dev = max(abs(d - np.conj(_shift(S.get(-k, 0 * d), k))).max() for k, d in S.items())
    if dev > 1e-12 * scale:
        raise ConsistencyError(f"commutator square sum deviates from hermitian by {dev:.2e}")
    if coords.surface.revolution:
        w = np.real(S[0])
        off_mass = max((abs(d).max() for k, d in S.items() if k != 0), default=0.0)
        if off_mass > GAMMA_DIAGONAL_TOL * scale:
            raise NotRevolutionSurfaceError(
                f"commutator square sum carries off-diagonal mass {off_mass:.2e} "
                f"(tolerance {GAMMA_DIAGONAL_TOL:.0e} x {scale:.2e}); "
                "the metric is theta-dependent"
            )
        V = None
    else:
        _check_dense_size(N)
        S = sp.dia_array((np.array(list(S.values())), list(S)), shape=(N, N)).toarray()
        w, V = _eigh(0.5 * (S + S.conj().T))
    wmax = max(w.max(), 0.0)
    if w.min() < -1e-10 * max(wmax, 1e-300):
        raise ConsistencyError(
            f"area-density square has eigenvalue {w.min():.3e} below tolerance "
            f"(norm {wmax:.3e}); check hbar and the coordinate matrices"
        )
    return np.sqrt(np.clip(w, 0.0, None)), V


def _eigh(M: np.ndarray):
    """Eigenpairs (w, V) of hermitian M, with one `eigh` per index-parity
    class when M has no odd offsets, so that V and every `_hermitian(., V)`
    keep exact zeros there."""
    if M[::2, 1::2].any():
        return np.linalg.eigh(M)
    w, V = np.empty(len(M)), np.zeros_like(M)
    for p in (0, 1):
        w[p::2], V[p::2, p::2] = np.linalg.eigh(M[p::2, p::2])
    return w, V


def _hermitian(w: np.ndarray, V) -> np.ndarray:
    """V diag(w) V^H, or diag(w) when V is None (a diagonal eigenbasis)."""
    if V is None:
        return np.diag(w)
    M = (V * w) @ V.conj().T
    return 0.5 * (M + M.conj().T)


def gamma_inverse(w: np.ndarray) -> np.ndarray:
    """Eigenvalues 1/w of gamma^{-1} from the eigenvalues w of gamma (the
    eigenvectors are shared).  A gamma with no positive eigenvalue, or with
    min(w) below GAMMA_MIN_RATIO * max(w), raises DegenerateMetricError."""
    wmax = w.max()
    if wmax <= 0.0:
        raise DegenerateMetricError("quantized area density has no positive eigenvalues")
    if w.min() < GAMMA_MIN_RATIO * wmax:
        raise DegenerateMetricError(
            f"quantized area density is near-singular: min/max eigenvalue "
            f"{w.min() / wmax:.2e} below {GAMMA_MIN_RATIO:.0e}"
        )
    return 1.0 / w


@dataclass
class QuantizedOperatorSet:
    """Everything needed to apply the commutator Laplacian.

    gamma = V diag(gamma_eigenvalues) V^H and gamma^{-1} =
    V diag(gamma_inv_eigenvalues) V^H with V = ``gamma_eigenvectors``, which
    is None exactly on a surface of revolution (gamma diagonal, as
    `build_gamma` checked).  ``gamma_inv_eigenvalues`` is 1/w from
    `gamma_inverse`, which refuses a near-singular gamma at construction;
    ``hbar`` and ``N`` are the grid's.  ``gamma`` and ``gamma_inv`` are the
    dense forms, made on first use by the dense paths.
    """

    coords: CoordinateMatrices
    gamma_eigenvalues: np.ndarray
    gamma_eigenvectors: np.ndarray | None

    def __post_init__(self):
        self.gamma_inv_eigenvalues  # refuse a near-singular gamma now, not at first use

    @property
    def N(self) -> int:
        return self.coords.grid.N

    @property
    def hbar(self) -> float:
        return self.coords.grid.hbar

    @cached_property
    def gamma_inv_eigenvalues(self) -> np.ndarray:
        return gamma_inverse(self.gamma_eigenvalues)

    @cached_property
    def gamma(self) -> np.ndarray:
        return _hermitian(self.gamma_eigenvalues, self.gamma_eigenvectors)

    @cached_property
    def gamma_inv(self) -> np.ndarray:
        return _hermitian(self.gamma_inv_eigenvalues, self.gamma_eigenvectors)

    @cached_property
    def diagonals(self) -> tuple:
        """(X, G): the diagonals of X, Y and Z (``coords.diagonals``, a map
        offset k -> N-vector for each), and those of G = gamma^{-1}
        (`stored_diagonals`).  G is the single offset 0 when diagonal, else
        every nonzero diagonal of its dense form."""
        V = self.gamma_eigenvectors
        if V is None:
            return self.coords.diagonals, {0: self.gamma_inv_eigenvalues.astype(complex)}
        return self.coords.diagonals, stored_diagonals(self.gamma_inv, self.N)


def build_operator_set(surface: SurfaceDescriptor, grid: QuantizationGrid) -> QuantizedOperatorSet:
    """Quantize the surface coordinates and decompose gamma and its inverse."""
    coords = coordinate_matrices(surface, grid)
    return QuantizedOperatorSet(coords, *build_gamma(coords, grid.hbar))


def apply_laplacian(ops: QuantizedOperatorSet, F):
    """Apply L(F) = -(1/hbar^2) sum_i gamma^{-1}[X_i, gamma^{-1}[X_i, F]].

    Accepts dense arrays or scipy sparse matrices and returns the same kind.
    A sparse F is read by offset and every product is taken on stored
    diagonals (`_banded_product`), with the diagonals of X, Y, Z and
    gamma^{-1} from ``ops.diagonals``; the result is rebuilt in F's sparse
    format.  The closed-form blocks of `_offset_block` are not used, so the
    check stays independent of the solve it verifies.
    """
    if sp.issparse(F):
        return _apply_banded(ops, F)
    F = np.asarray(F, dtype=complex)
    mats = (ops.coords.X, ops.coords.Y, ops.coords.Z)
    G = ops.gamma_inv
    out = None
    for Xi in mats:
        inner = G @ (Xi @ F - F @ Xi)
        term = G @ (Xi @ inner - inner @ Xi)
        out = term if out is None else out + term
    return -out / ops.hbar**2


def _apply_banded(ops: QuantizedOperatorSet, F):
    """`apply_laplacian` of a sparse F, on stored diagonals."""
    N = ops.N
    X, G = ops.diagonals
    D = stored_diagonals(F, N)
    out = {}
    for Xi in X:
        inner = _banded_product(G, _banded_commutator(Xi, D, N), N)
        _accumulate(out, _banded_product(G, _banded_commutator(Xi, inner, N), N))
    offsets = sorted(out)
    data = np.array([out[k] for k in offsets]).reshape(len(offsets), N) / -ops.hbar**2
    kind = sp.dia_array if isinstance(F, sp.sparray) else sp.dia_matrix
    return kind((data, offsets), shape=F.shape).asformat(F.format)


def _kron_terms(ops: QuantizedOperatorSet, root=None) -> list:
    """The Kronecker expansion of the Laplacian: L (H with ``root``) is
    -(1/hbar^2) times the sum of kron(P, Q) over the returned pairs (P, Q).

    With vec(A F B) = kron(A, B^T) vec(F), G = gamma^{-1} and A_i = G X_i,
    each term G[X_i, G[X_i, F]] expands to
    kron(A_i A_i, I) - kron(A_i G + G A_i, X_i^T) + kron(G G, X_i^T X_i^T);
    with root = G^{1/2} and A_i = root X_i root the sum is root K root.
    """
    G = ops.gamma_inv
    mats = (ops.coords.X, ops.coords.Y, ops.coords.Z)
    A = [G @ Xi if root is None else root @ Xi @ root for Xi in mats]
    return [
        (sum(Ai @ Ai for Ai in A), np.eye(ops.N)),
        *((-(Ai @ G + G @ Ai), Xi.T) for Ai, Xi in zip(A, mats)),
        (G @ G, sum(Xi.T @ Xi.T for Xi in mats)),
    ]


def _real_factors(terms: list, N: int) -> list:
    """Each pair (P, Q) as (P~, Q~, q): real factors with kron(P~, Q~) =
    kron(P, Q) and the one offset parity q that P and Q share.

    A pair must be both real or both imaginary (kron(iP~, iQ~) =
    -kron(P~, Q~)) and hold exact zeros off its offset parity; then every
    term maps each parity sector of F[n, m] (n + m even or odd) to itself in
    real arithmetic, and so does their sum.  Anything else raises
    ConsistencyError.
    """
    n = np.arange(N)
    odd = np.add.outer(n, n) % 2 == 1
    factors = []
    for P, Q in terms:
        imag = P.imag.any() or Q.imag.any()
        parities = [q for q, at in ((0, ~odd), (1, odd)) if P[at].any() or Q[at].any()]
        if len(parities) > 1 or imag and (P.real.any() or Q.real.any()):
            raise ConsistencyError(
                "a Kronecker factor of the operator is complex or couples the parity sectors"
            )
        pair = (-P.imag, Q.imag) if imag else (P.real, Q.real)
        factors.append((*pair, parities[0] if parities else 0))
    return factors


def _sector_index(N: int, parity: int) -> np.ndarray:
    """Row-major flat indices n*N + m of the entries F[n, m] with n + m = parity
    (mod 2), in sector order: n even first, then n odd, each row-major."""
    n = np.arange(N)
    return np.concatenate(
        [(N * n[a::2, None] + n[b::2]).ravel() for a, b in ((0, parity), (1, 1 - parity))]
    )


def assemble_dense_superoperator(
    ops: QuantizedOperatorSet, root=None, parity: int | None = None
) -> np.ndarray:
    """N^2 x N^2 matrix of the Laplacian in row-major vectorization (the
    small-N oracle): column j is the image of the j-th standard basis matrix.
    Refused with DenseSizeError above N = DENSE_CAP.  With ``parity`` None the
    oracle forms a complex N^2 x N^2 array, about 0.65 GB at N = 80.

    The matrix is the sum of the Kronecker products of `_kron_terms`: N x N
    products and five Kronecker products in all, O(N^4) work.  With root =
    G^{1/2} it is H of `_dense_candidates`.

    With ``parity`` = p in (0, 1) only the real restriction to the sector
    F[n, m], n + m = p (mod 2), is formed, with rows and columns in the order
    of `_sector_index`: the factors are checked and made real by
    `_real_factors`, and the sector is a 2 x 2 arrangement of blocks, each a
    sum of kron(P~[a::2, c::2], Q~[b::2, d::2]) over the factors whose offset
    parity is a - c.  No complex or N^2 x N^2 array is formed.
    """
    N = ops.N
    _check_dense_size(N)
    if parity not in (None, 0, 1):
        raise ValueError(f"parity must be 0, 1 or None, got {parity!r}")
    terms = _kron_terms(ops, root)
    if parity is None:
        (P, Q), *rest = terms
        total = np.kron(P, Q)
        for P, Q in rest:
            total += np.kron(P, Q)
        return -total / ops.hbar**2
    factors = _real_factors(terms, N)
    groups = ((0, parity), (1, 1 - parity))
    edges = np.cumsum([0] + [len(range(a, N, 2)) * len(range(b, N, 2)) for a, b in groups])
    H = np.zeros((edges[-1], edges[-1]))
    for (a, b), r0, r1 in zip(groups, edges, edges[1:]):
        for (c, d), c0, c1 in zip(groups, edges, edges[1:]):
            block = H[r0:r1, c0:c1]
            for P, Q, q in factors:
                if (a - c) % 2 == q:
                    block += np.kron(P[a::2, c::2], Q[b::2, d::2])
    H *= -1.0 / ops.hbar**2
    return H


@dataclass
class OffsetBlock:
    """Restriction of the Laplacian to one matrix diagonal offset.

    The offset counts columns minus rows (numpy diagonal convention); with
    the entry convention T(f)[n, m] = f_{n-m}(...), the offset-k diagonal
    carries azimuthal mode -k.  Offsets +-k appear as separate blocks whose
    low eigenvalues approach each other only in the large-N limit.  The
    block is tridiagonal: ``diag``, ``upper`` (entries (j, j+1)) and
    ``lower`` (entries (j+1, j)).
    """

    offset: int
    diag: np.ndarray
    upper: np.ndarray
    lower: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.diag)

    @property
    def operator(self) -> np.ndarray:
        """Dense view of the block (small-size oracles)."""
        return np.diag(self.diag) + np.diag(self.upper, 1) + np.diag(self.lower, -1)

    @cached_property
    def symmetric(self) -> tuple:
        """(off, scale): the off-diagonal of the symmetric tridiagonal matrix
        D^{-1} B D, with D_{j+1}/D_j = sqrt(lower_j/upper_j), and D's diagonal.
        Eigenvectors of B are D times those of the symmetric matrix."""
        if np.any(self.upper * self.lower <= 0.0):
            raise ConsistencyError(
                f"offset-{self.offset} block has a non-positive off-diagonal product; "
                "it is not similar to a symmetric tridiagonal matrix"
            )
        ratio = np.sqrt(self.lower / self.upper)
        return self.upper * ratio, np.concatenate(([1.0], np.cumprod(ratio)))

    def level(self, j: int) -> float:
        """The j-th eigenvalue counted from 0 downwards (j = 0 is the closest
        to 0), bisected alone by index with no eigenvector: O(dim) work.
        Only the ConfigError of `_check_block_range` uses it; the spectrum
        bisects by value range (`_closest_levels`)."""
        i = self.dim - 1 - j
        return float(
            sla.eigh_tridiagonal(
                self.diag, self.symmetric[0], eigvals_only=True, select="i", select_range=(i, i)
            )[0]
        )

    def vectors(self, values) -> np.ndarray:
        """Eigenvectors (rows) for eigenvalues already bisected
        (`_levels_within`), by inverse iteration (LAPACK ?stein), with no
        second bisection.  The symmetric form is one unreduced block:
        `symmetric` refuses a zero off-diagonal product."""
        off, scale = self.symmetric
        order = np.argsort(values)
        n = self.dim
        stein = sla.get_lapack_funcs("stein", (self.diag, off))
        Y, info = stein(
            self.diag,
            off if n > 1 else np.zeros(1),  # the wrapper wants e non-empty
            np.asarray(values, dtype=float)[order],
            np.ones(n, dtype=np.int32),
            np.full(n, n, dtype=np.int32),
        )
        if info != 0:
            raise SolverConvergenceError(
                f"inverse iteration on the offset-{self.offset} block failed (info={info})"
            )
        out = np.empty((len(order), n))
        out[order] = (scale[:, None] * Y).T
        return out

    def lowest(self, take: int):
        """The `take` eigenvalues closest to 0, descending, and their vectors (rows).

        The Laplacian is self-adjoint and negative semidefinite in the inner
        product weighted by gamma, so these are the largest eigenvalues.  One
        `eigh_tridiagonal` call bisects the `take` top levels of the
        symmetric form (`symmetric`) and solves their eigenvectors; take
        above dim returns all dim levels.
        """
        if take < 1:
            raise ValueError(f"take must be at least 1, got take={take}")
        off, scale = self.symmetric
        select = (self.dim - min(take, self.dim), self.dim - 1)
        w, Y = sla.eigh_tridiagonal(self.diag, off, select="i", select_range=select)
        return w[::-1], (scale[:, None] * Y).T[::-1]


def _offset_block(ops: QuantizedOperatorSet, k: int) -> OffsetBlock:
    """Closed-form restriction of L to offset k for tridiagonal X_i, diagonal gamma.

    With g = diag(gamma^{-1}), row n of the block (entry (n, m = n + k) of the
    matrix) reads as below, summed over X_i in (X, Y, Z), with c = diag(X_i)
    and q_n = X_i[n, n+1] X_i[n+1, n] (zero outside 0 <= n < N-1):

        diag  = -g_n/hbar^2 [g_n (c_n - c_m)^2 + g_{n+1} q_n + g_{n-1} q_{n-1}
                             + g_n (q_m + q_{m-1})]
        upper = g_n (g_n + g_{n+1})/hbar^2 X_i[n, n+1] X_i[m+1, m]
        lower = g_{n+1} (g_n + g_{n+1})/hbar^2 X_i[n+1, n] X_i[m, m+1]
    """
    N = ops.N
    M = N - abs(k)
    n = max(0, -k) + np.arange(M)
    m = n + k
    g = ops.gamma_inv_eigenvalues
    gp = np.concatenate(([0.0], g, [0.0]))  # gp[j + 1] = g_j, zero outside
    diag_sum = np.zeros(M)
    qp = np.zeros(N + 1)  # qp[j + 1] = q_j, zero outside
    upper = np.zeros(M - 1, dtype=complex)
    lower = np.zeros(M - 1, dtype=complex)
    zero = np.zeros(N, dtype=complex)
    for X in ops.coords.diagonals:  # entry c of diagonal k is X[c - k, c]
        c = np.real(X.get(0, zero))
        up, lo = X.get(1, zero)[1:], X.get(-1, zero)[:-1]
        diag_sum += (c[n] - c[m]) ** 2
        qp[1:-1] += np.real(up * lo)
        upper += up[n[:-1]] * lo[m[:-1]]
        lower += lo[n[:-1]] * up[m[:-1]]
    gn, h2 = g[n], ops.hbar**2
    diag = gn * diag_sum + gp[n + 2] * qp[n + 1] + gp[n] * qp[n] + gn * (qp[m + 1] + qp[m])
    pair = gn[:-1] + gn[1:]
    return OffsetBlock(
        k, -gn * diag / h2, gn[:-1] * pair * upper.real / h2, gn[1:] * pair * lower.real / h2
    )


def _embed_offset(v: np.ndarray, k: int, N: int):
    """Sparse N x N matrix (DIA format) with vector v along diagonal offset k;
    its one data row is N long, zero where column c holds no entry."""
    row = np.zeros((1, N), dtype=complex)
    row[0, max(0, k) : N + min(0, k)] = v
    return sp.dia_matrix((row, [k]), shape=(N, N))


def block_decompose(ops: QuantizedOperatorSet, max_offset: int) -> list[OffsetBlock]:
    """Restrict the Laplacian to matrix diagonals (offsets -K..K).

    Valid when the metric is theta-independent: gamma^{-1} must be diagonal.
    Each block is written in closed form from the diagonals of gamma^{-1}
    and the three diagonals of X, Y and Z; `spectrum` proves every returned
    eigenpair through the full operator.

    The blocks at +k and -k are distinct: the operator weights the inner
    commutator by gamma^{-1} from the left, so the two restrictions are
    different matrices whose low eigenvalues agree only up to the
    discretization error.
    """
    if ops.gamma_eigenvectors is not None:
        raise NotRevolutionSurfaceError(
            "block decomposition requires equal equatorial axes: gamma is not diagonal, "
            "the metric is theta-dependent"
        )
    N = ops.N
    if not 0 <= max_offset < N:
        raise ValueError(f"need 0 <= K < N, got K={max_offset}")
    offsets = [0] + [s * k for k in range(1, max_offset + 1) for s in (1, -1)]
    return [_offset_block(ops, k) for k in offsets]


@dataclass
class SpectrumReport:
    """Eigenvalues of the commutator Laplacian with diagnostics.

    Entries are sorted by ascending absolute value.  ``blocks[i]`` names the
    offset block an eigenvalue came from (None off the blocks strategy),
    ``cluster_index[i]`` points into ``clusters`` (mean, multiplicity) pairs.
    ``diagnostics`` (blocks strategy only) records the work done; it goes
    into the JSON report, not into the CSV or ``config``.
    """

    eigenvalues: list
    residuals: list
    blocks: list
    cluster_index: list
    clusters: list
    strategy: str
    solver_tolerance: float
    config: dict
    diagnostics: dict | None = None

    def to_json_dict(self) -> dict:
        out = {
            "surface": self.config.get("surface"),
            "N": self.config.get("N"),
            "beta": self.config.get("beta"),
            "hbar": self.config.get("hbar"),
            "strategy": self.strategy,
            "eigenvalues": [
                {"value": v, "residual": r, "block": b, "cluster": c}
                for v, r, b, c in zip(
                    self.eigenvalues, self.residuals, self.blocks, self.cluster_index
                )
            ],
            "clusters": [{"mean": m, "multiplicity": mult} for m, mult in self.clusters],
            "solver_tolerance": self.solver_tolerance,
            "config": dict(sorted(self.config.items())),
        }
        if self.diagnostics is not None:
            out["diagnostics"] = self.diagnostics
        return out

    def to_csv_rows(self) -> list:
        """The header, then one unformatted row per eigenvalue."""
        rows = zip(self.eigenvalues, self.residuals, self.blocks, self.cluster_index)
        return [("value", "residual", "block", "cluster"), *rows]


def resolve_strategy(strategy: str, revolution: bool) -> str:
    """The strategy `auto` stands for: blocks on a surface of revolution, else
    dense; any other name is returned as it is."""
    if strategy != "auto":
        return strategy
    return "blocks" if revolution else "dense"


def spectrum(
    ops: QuantizedOperatorSet,
    strategy: str = "auto",
    count: int = 9,
    block_range: int | None = None,
    cluster_gap: float | None = None,
) -> SpectrumReport:
    """The `count` eigenvalues of smallest absolute value, with residuals.

    Strategies: dense (any surface, N <= DENSE_CAP, else DenseSizeError; one
    real symmetric solve per parity sector) and blocks (revolution surfaces,
    offsets k in [-K, K]; Sturm counts find a cutoff tau below which the
    blocks hold about `count` levels, one bisection per block over
    (-tau, tau) solves those, `_closest_levels`, and inverse iteration gives
    the kept levels' eigenvectors); auto picks
    blocks on a surface of revolution, else dense.  Eigenvalues are real.
    Residuals go through the full operator; one over the tolerance
    1e-8*(1 + max |lambda| over the kept values), non-finite or of a zero
    eigenmatrix raises SolverConvergenceError.  Blocks +-(K+1) must lie
    beyond the kept eigenvalues by the default cluster gap, or ConfigError
    asks for a wider K (at K = N - 1 the blocks hold all N^2 eigenvalues,
    and the error says so); that check factorizes and bisects nothing.  The
    blocks strategy reports ``diagnostics = {"levels_solved": n,
    "sturm_counts": c, "level_bound": tau, "residual_margin": r}``: the
    levels bisected to full precision, the ?stebz calls that only counted,
    the cutoff, and the worst residual over the tolerance, in the JSON
    report only.
    """
    strategy = resolve_strategy(strategy, revolution=ops.gamma_eigenvectors is None)
    N = ops.N
    if count < 1:
        raise ConfigError("count must be positive")
    if strategy == "dense":
        candidates = _dense_candidates(ops, count)
        available = len(candidates)
    elif strategy == "blocks":
        K = block_range if block_range is not None else min(N - 1, max(3, int(math.isqrt(count)) + 1))
        blocks = block_decompose(ops, K)
        available = sum(b.dim for b in blocks)
    else:
        raise ConfigError(f"unknown strategy {strategy!r}")

    if count > available:
        hint = ""
        if strategy == "blocks":
            hint = (
                f"; the blocks at K = N - 1 hold all N^2 = {N * N} eigenvalues"
                if K == N - 1
                else "; widen the block range K"
            )
        raise ConfigError(f"requested {count} eigenvalues, only {available} available{hint}")
    if strategy == "blocks":
        levels, diagnostics = _closest_levels(blocks, count)
        candidates = [
            {"value": lam, "block": b.offset, "vec": v, "kind": "block"}
            for b, values in zip(blocks, levels)
            if values
            for lam, v in zip(values, b.vectors(values))
        ]
    candidates.sort(key=lambda c: (abs(c["value"]), c["value"], c.get("block") or 0))
    kept = candidates[:count]
    if strategy == "blocks" and K + 1 < N:
        _check_block_range(ops, K, max(abs(c["value"]) for c in kept))

    values = [c["value"] for c in kept]
    residuals = [_full_residual(ops, c) for c in kept]

    gap = cluster_gap if cluster_gap is not None else 10.0 * ops.hbar
    order = sorted(range(len(values)), key=lambda i: values[i])
    clusters = cluster_multiplicities([values[i] for i in order], gap)
    cluster_of = _assign_clusters(values, order, clusters)

    tol = 1e-8 * (1.0 + max(abs(v) for v in values))
    bad = [i for i, r in enumerate(residuals) if not r <= tol]
    if bad:
        worst = max(residuals[i] for i in bad)
        raise SolverConvergenceError(
            f"{len(bad)} residuals exceed the solver tolerance {tol:.2e} (max {worst:.2e})"
        )

    grid = ops.coords.grid
    surf = ops.coords.surface
    config = {
        "surface": surf.name,
        "semi_axes": list(surf.semi_axes) if surf.semi_axes else None,
        "N": N,
        "beta": grid.beta,
        "hbar": grid.hbar,
        "grid_offset": grid.grid_offset,
        "strategy": strategy,
        "count": count,
        "block_range": block_range,
        "cluster_gap": gap,
        "analytic_derivatives": surf.has_analytic_derivatives,
    }
    return SpectrumReport(
        eigenvalues=values,
        residuals=residuals,
        blocks=[c.get("block") for c in kept],
        cluster_index=cluster_of,
        clusters=clusters,
        strategy=strategy,
        solver_tolerance=tol,
        config=config,
        diagnostics=(
            {**diagnostics, "residual_margin": max(residuals) / tol}
            if strategy == "blocks"
            else None
        ),
    )


def _assign_clusters(values, order, clusters) -> list:
    # walk the ascending ordering and hand out cluster ids by multiplicity
    cluster_of = [0] * len(values)
    pos = 0
    for ci, (_, mult) in enumerate(clusters):
        for _ in range(mult):
            cluster_of[order[pos]] = ci
            pos += 1
    return cluster_of


def _dense_candidates(ops: QuantizedOperatorSet, count: int) -> list:
    """The `count` eigenpairs of L closest to 0.  L = G K with K self-adjoint, so
    H = (R (x) I) K (R (x) I), R = G^{1/2}, is symmetric with L's eigenvalues and
    eigenmatrices F = R Y; its largest ones per parity sector are the ones wanted.
    Each real sector of H is assembled on its own and its eigenvectors are
    scattered back through `_sector_index`."""
    N = ops.N
    root = _hermitian(1.0 / np.sqrt(ops.gamma_eigenvalues), ops.gamma_eigenvectors)
    found = []
    for p in (0, 1):
        H = assemble_dense_superoperator(ops, root=root, parity=p)
        k = min(count, len(H))
        w, Y = sla.eigh(H, subset_by_index=[len(H) - k, len(H) - 1])
        E = np.zeros((N * N, k))
        E[_sector_index(N, p)] = Y
        found += [(lam, root @ e.reshape(N, N)) for lam, e in zip(w, E.T)]
    top, tol = max(f[0] for f in found), 1e-8 * (1.0 + max(abs(f[0]) for f in found))
    if top > tol:
        raise ConsistencyError(
            f"eigenvalue {top:.3e} exceeds the solver tolerance {tol:.2e}; "
            "the operator is not negative semidefinite"
        )
    return [
        {"value": float(lam), "block": None, "vec": F.reshape(-1), "kind": "dense"}
        for lam, F in sorted(found, key=lambda f: abs(f[0]))[:count]
    ]


def _levels_within(block: OffsetBlock, tau: float, stebz, abstol: float):
    """(m, values): the m levels of the block with |lambda| < tau, ascending.

    One LAPACK ?stebz call over the value range (-tau, tau^-], tau^- the
    largest double below tau: it counts the range by Sturm sequences, then
    bisects every level in it until its bracket is narrower than ``abstol``
    (0: ulp * ||T||, as `level` bisects).  With ``abstol`` = STURM_COUNT_ABSTOL
    the bisection stops at once, so m is the exact count and the values mean
    nothing (Barth, Martin & Wilkinson, Numer. Math. 9 (1967); Parlett, The
    Symmetric Eigenvalue Problem, ch. 3).  A dim-1 block is read off."""
    if block.dim == 1:
        d = block.diag
        return (1, d) if abs(d[0]) < tau else (0, d[:0])
    m, w, _, _, info = stebz(
        block.diag, block.symmetric[0], 1, -tau, np.nextafter(tau, -np.inf), 0, 0, abstol, "E"
    )
    if info != 0:
        raise SolverConvergenceError(
            f"bisection on the offset-{block.offset} block failed (info={info})"
        )
    return m, w[:m]


def _closest_levels(blocks: list, count: int) -> tuple:
    """Each block's share of the `count` eigenvalues closest to 0 over all
    blocks (a list of values per block, descending), and the diagnostics
    ``levels_solved`` (levels bisected to full precision), ``sturm_counts``
    (?stebz calls that only count) and ``level_bound`` (the cutoff tau).

    Count first, then bisect what is kept (`_levels_within`).  A cutoff tau
    is searched with Sturm counts only: it grows from a first guess until
    the blocks hold at least `count` levels with |lambda| < tau (the caller
    asks for no more than they hold), then narrows on the counts until they
    sum to at most count + 1, or CUTOFF_STEPS steps have run.  Counts are
    monotone in tau, so a block whose count is equal at both ends of the
    bracket is not counted again.  Each block with a level below tau is
    then bisected once over (-tau, tau^-], and the `count` levels first in
    the kept spectrum's order (|lambda|, lambda, offset) are kept.  This is
    the exhaustive selection: every level outside the range has |lambda| >=
    tau, and every level inside |lambda| < tau.  The bisection starts from
    the range, so a value's last bits depend on tau: two block ranges K that
    end at different cutoffs agree to about ulp * ||T||, not bit for bit.
    """
    stebz = sla.get_lapack_funcs("stebz", (blocks[0].diag,))
    # every level lies within the Gershgorin bound, so all are below the cap
    bound = max(
        np.abs(b.diag).max() + 2.0 * np.abs(b.symmetric[0]).max(initial=0.0) for b in blocks
    )
    cap = 2.0 * float(bound) + np.finfo(float).tiny
    lo, hi, c_lo, c_hi = 0.0, cap, [0] * len(blocks), [b.dim for b in blocks]
    # first guess: 1.5 times the tau at which the one-dimensional Weyl law,
    # #{|lambda| < tau} ~ sum_j sqrt(tau / |e_j|) / pi for a tridiagonal
    # block with off-diagonal e, puts sqrt(count) levels in block 0 (the
    # sphere holds L + 1 of its (L + 1)^2 lowest levels there)
    e = np.abs(blocks[0].symmetric[0])
    tau = min(1.5 * (math.pi * math.sqrt(count) / np.sum(e**-0.5)) ** 2, cap) if len(e) else cap
    counted = steps = 0
    while sum(c_hi) > count + 1 and steps < CUTOFF_STEPS:
        c = []
        for b, low, high in zip(blocks, c_lo, c_hi):
            if low != high:
                low = _levels_within(b, tau, stebz, STURM_COUNT_ABSTOL)[0]
                counted += b.dim > 1
            c.append(low)
        if sum(c) >= count:
            hi, c_hi = tau, c
        else:
            lo, c_lo = tau, c
        if hi == cap and 0.0 < 4.0 * tau < cap:
            tau *= 4.0
        else:
            # the next tau interpolates the summed count to `count`
            steps += 1
            f = (count - sum(c_lo)) / (sum(c_hi) - sum(c_lo))
            tau = lo + min(max(f, 0.1), 0.9) * (hi - lo)
    found = []
    for i, (b, c) in enumerate(zip(blocks, c_hi)):
        if c:
            values = _levels_within(b, hi, stebz, 0.0)[1].tolist()
            found += [(abs(lam), lam, b.offset, i) for lam in values]
    levels = [[] for _ in blocks]
    for _, lam, _, i in sorted(found)[:count]:
        levels[i].append(lam)
    return levels, {"levels_solved": len(found), "sturm_counts": counted, "level_bound": float(hi)}


def _negative_definite_below(block: OffsetBlock, tau: float) -> bool:
    """Whether every eigenvalue of the block lies below -tau: whether
    -T - tau I, T the symmetric form (`OffsetBlock.symmetric`), is positive
    definite.  One LDL^T factorization (LAPACK ?pttrf), O(dim), with no
    eigenvalue: by Sylvester's law of inertia it succeeds exactly when no
    pivot is non-positive (Parlett, The Symmetric Eigenvalue Problem,
    ch. 3)."""
    off = block.symmetric[0]
    d = -block.diag - tau
    pttrf = sla.get_lapack_funcs("pttrf", (d, off))
    return pttrf(d, -off if block.dim > 1 else np.zeros(1))[2] == 0  # the wrapper wants e non-empty


def _check_block_range(ops: QuantizedOperatorSet, K: int, largest_kept: float) -> None:
    """Blocks +-(K+1) must not reach the kept spectrum within the default
    cluster gap: each must be negative definite below -(largest_kept + gap)
    (`_negative_definite_below`).  Their top levels are bisected only to
    word the ConfigError."""
    margin = 10.0 * ops.hbar
    outer = [_offset_block(ops, k) for k in (K + 1, -K - 1)]
    if not all(_negative_definite_below(b, largest_kept + margin) for b in outer):
        nearest = min(abs(b.level(0)) for b in outer)
        raise ConfigError(
            f"blocks +-{K + 1} have an eigenvalue of magnitude {nearest:.6g}, within {margin:.3g} "
            f"of the largest kept {largest_kept:.6g}; widen the block range K"
        )


def _full_residual(ops: QuantizedOperatorSet, cand: dict) -> float:
    """||L(F) - lambda F||_F / ||F||_F through the full operator; inf when F = 0.

    A block eigenmatrix lies on one diagonal: L(F) comes back in DIA form
    and lambda F is taken off its row at that offset.  The norm runs over
    the nonzero entries in row-major order, as the CSR form of the residual
    stores them, so it sums in the same order and gives the same value."""
    lam = cand["value"]
    norm = np.linalg.norm(cand["vec"])
    if not norm > 0:
        return math.inf
    if cand["kind"] == "block":
        N, k = ops.N, cand["block"]
        F = _embed_offset(cand["vec"], k, N)
        LF = apply_laplacian(ops, F)
        offsets = LF.offsets.tolist()
        LF.data[offsets.index(k)] -= lam * F.data[0]
        entries = np.zeros((N, len(offsets)), dtype=complex)  # entries[r, j] = R[r, r + offsets[j]]
        for j, off in enumerate(offsets):
            lo, hi = max(0, -off), N - max(0, off)
            entries[lo:hi, j] = LF.data[j, lo + off : hi + off]
        return float(np.linalg.norm(entries[entries != 0]) / norm)
    F = np.asarray(cand["vec"]).reshape(ops.N, ops.N)
    resid = apply_laplacian(ops, F) - lam * F
    return float(np.linalg.norm(resid) / norm)


def convergence_study(
    surface: SurfaceDescriptor,
    N_list,
    count: int,
    reference=None,
    beta: float = 1.0,
    grid_offset: str = "paper",
    strategy: str = "auto",
    block_range: int | None = None,
) -> list:
    """Cluster-level eigenvalue errors against a classical reference.

    The sizes must be distinct.  Returns one row per (N, cluster): dict with
    keys N, hbar, cluster, lambda, reference, abs_error, fitted_order, in
    that order, ascending in N.  The reference defaults to
    ``reference_for(surface, count)``: the analytic spectrum on the unit
    sphere and the spectral Galerkin solve (error estimate below 1e-9
    relative) on other surfaces of revolution, so the errors are the nc
    operator's; there is none on a triaxial surface.  A ClassicalSpectrum
    can be passed explicitly.
    """
    N_list = sorted(int(n) for n in N_list)
    if len(N_list) < 2:
        raise ConfigError("convergence study needs at least two values of N")
    if len(set(N_list)) < len(N_list):
        raise ConfigError(f"convergence study sizes must be distinct, got {N_list}")
    if reference is None:
        reference = reference_for(surface, count)
        if reference is None:
            raise ConfigError("no classical reference available for this surface")

    a, b = surface.z_interval
    runs = []
    for N in N_list:
        grid = build_grid(N, a, b, beta, grid_offset)
        ops = build_operator_set(surface, grid)
        rep = spectrum(ops, strategy=strategy, count=count, block_range=block_range)
        runs.append((N, grid.hbar, rep))

    # cluster the reference with the finest run's gap so levels line up
    ref_values = reference.cluster_means(count, 10.0 * runs[-1][1])

    rows = []
    n_clusters = min(len(ref_values), min(len(r[2].clusters) for r in runs))
    prev_err = {}
    for idx, (N, hbar, rep) in enumerate(runs):
        means = sorted((m for m, _ in rep.clusters), key=abs)
        for ci in range(n_clusters):
            lam = means[ci]
            ref = ref_values[ci]
            err = abs(lam - ref)
            order = None
            if idx > 0 and ci in prev_err and err > 0 and prev_err[ci][1] > 0:
                n_prev = prev_err[ci][0]
                order = math.log(prev_err[ci][1] / err) / math.log(N / n_prev)
            rows.append(
                {
                    "N": N,
                    "hbar": hbar,
                    "cluster": ci,
                    "lambda": lam,
                    "reference": ref,
                    "abs_error": err,
                    "fitted_order": order,
                }
            )
            prev_err[ci] = (N, err)
    return rows
