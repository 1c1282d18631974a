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
gamma is diagonal and no N x N array is formed.

`spectrum` is one pipeline: validate, hand the solve to one strategy, then
check every eigenpair through the full operator (`_full_residual`), gate
the residuals, group the values into clusters and write the report.  A
strategy returns exactly `count` pairs (lambda, block, F) in report order
(|lambda|, lambda, offset), with F in the kind `apply_laplacian` takes,
and a diagnostics dict:

- banded (`_banded_pairs`; the triaxial path, N <= BANDED_CAP): L = G K
  with G = gamma^{-1} and K self-adjoint, so H = G^{1/2} K G^{1/2} is
  symmetric, similar to L, and keeps the parity sectors of F[n, m] apart.
  With rows ordered m-major each real sector is a band of half-bandwidth
  about 3N/2 (`_sector_band`, O(N^3) from checked real Kronecker factors);
  shift-invert Lanczos on its banded Cholesky factor finds the levels
  closest to 0.  F is the N x N eigenmatrix.
- dense (`_dense_pairs`; any surface, N <= DENSE_CAP): the oracle, one
  exact `eigh` of each sector band densified.
- blocks (`_block_pairs`; revolution surfaces, large N): gamma is diagonal,
  so L maps each matrix diagonal (Fourier offset) to itself by a
  closed-form tridiagonal matrix that a diagonal similarity makes symmetric
  (Parlett, The Symmetric Eigenvalue Problem, ch. 7).  A cutoff tau is
  found from Sturm counts alone (LAPACK ?stebz by value range, stopped
  before it bisects), so that the blocks hold little more than `count`
  levels with |lambda| < tau; one ?stebz call per block then bisects
  exactly those, and the `count` closest to zero are kept.  Eigenvectors
  are solved for the kept levels only.  O(dim) work per count and per
  bisected level.  The range check on blocks +-(K+1) is the same ?stebz
  call over the levels above -(largest kept + gap): it bisects none unless
  the check fails.  F is the map {k: padded diagonal}.

`apply_laplacian` of an offset -> diagonal map runs on the same banded
kernel: every product of two banded matrices is a sum of shifted
elementwise products of their diagonals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla

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
    _adjoint,
    _banded_commutator,
    _banded_product,
    _dense,
    build_grid,
    coordinate_matrices,
    stored_diagonals,
)
from .reference_oracle import cluster_multiplicities, reference_for
from .surface import SurfaceDescriptor

#: largest N of the dense oracle: each real parity sector is densified to at
#: most N^2/2 = 3200 square, about 82 MB in float64
DENSE_CAP = 80

#: largest N of the banded strategy: a sector band holds about 6 N^3 bytes,
#: 0.4 GB at N = 400 (a 0.73 GB peak), and its solve takes O(N^4) work
BANDED_CAP = 400

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


def check_size(strategy: str, N: int) -> None:
    """Refuse dense above DENSE_CAP (DenseSizeError), banded above BANDED_CAP."""
    if strategy == "dense" and N > DENSE_CAP:
        raise DenseSizeError(
            f"dense superoperator needs N <= {DENSE_CAP} (got {N}); "
            "use the banded strategy, or blocks on surfaces of revolution"
        )
    if strategy == "banded" and N > BANDED_CAP:
        raise ConfigError(f"the banded strategy needs N <= {BANDED_CAP} (got {N})")


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
    NotRevolutionSurfaceError.  Otherwise S is decomposed densely.
    """
    N = coords.grid.N
    X = coords.diagonals
    S = {}
    for A, B in ((X[0], X[1]), (X[1], X[2]), (X[2], X[0])):
        C = {k: d * (1 / hbar) for k, d in _banded_commutator(A, B, N).items()}
        _accumulate(S, _banded_product(C, C, N))
    S = {k: -d for k, d in S.items()}
    scale = max(max(abs(d).max() for d in S.values()), 1e-300)
    adjoint = _adjoint(S)
    dev = max(abs(d - adjoint.get(k, 0.0)).max() for k, d in S.items())
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
        S = _dense(S, N)
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
        """(X, G): the offset -> diagonal maps of X, Y and Z
        (``coords.diagonals``) and of G = gamma^{-1}.  G is the single
        offset 0 when diagonal, else every nonzero diagonal of its dense
        form (`stored_diagonals`)."""
        V = self.gamma_eigenvectors
        if V is None:
            return self.coords.diagonals, {0: self.gamma_inv_eigenvalues.astype(complex)}
        return self.coords.diagonals, stored_diagonals(self.gamma_inv)


def build_operator_set(surface: SurfaceDescriptor, grid: QuantizationGrid) -> QuantizedOperatorSet:
    """Quantize the surface coordinates and decompose gamma and its inverse."""
    coords = coordinate_matrices(surface, grid)
    return QuantizedOperatorSet(coords, *build_gamma(coords, grid.hbar))


def apply_laplacian(ops: QuantizedOperatorSet, F):
    """Apply L(F) = -(1/hbar^2) sum_i gamma^{-1}[X_i, gamma^{-1}[X_i, F]].

    Accepts a dense array or an offset -> diagonal map (DIA layout, N-vectors
    zero outside the matrix) and returns the same kind.  On a map every
    product is taken on diagonals (`_banded_product`), with the diagonals of
    X, Y, Z and gamma^{-1} from ``ops.diagonals``; the result holds its
    offsets in ascending order.  The closed-form blocks of `_offset_block`
    are not used, so the check stays independent of the solve it verifies.
    """
    if isinstance(F, dict):
        N = ops.N
        X, G = ops.diagonals
        out = {}
        for Xi in X:
            inner = _banded_product(G, _banded_commutator(Xi, F, N), N)
            _accumulate(out, _banded_product(G, _banded_commutator(Xi, inner, N), N))
        return {k: out[k] / -ops.hbar**2 for k in sorted(out)}
    F = np.asarray(F, dtype=complex)
    mats = (ops.coords.X, ops.coords.Y, ops.coords.Z)
    G = ops.gamma_inv
    out = None
    for Xi in mats:
        inner = G @ (Xi @ F - F @ Xi)
        term = G @ (Xi @ inner - inner @ Xi)
        out = term if out is None else out + term
    return -out / ops.hbar**2


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


def _sector_band(ops: QuantizedOperatorSet, root: np.ndarray, parity: int) -> tuple:
    """(band, rows): parity sector F[n, m], n + m = ``parity`` (mod 2), of
    H = (root (x) I) K (root (x) I) in LAPACK lower band storage,
    band[i - j, j] = H[i, j] for 0 <= i - j <= kd, and the row-major flat
    index n*N + m of each row.

    Rows run m-major (m outer, n inner), so the Q factors of `_kron_terms`,
    which act on m, set the band: they are read by their diagonals and may
    reach offsets |m - m'| <= 2 only (ConsistencyError otherwise), and kd is
    three row groups less one, (3N + 1)//2 - 1.  The factors are made real
    and checked by `_real_factors`; the block of rows m and columns m - d is
    the sum of Q~[m, m - d] P~[n, n'] over the factors of offset parity d.
    O(N^3) work and storage; neither the N^2 x N^2 operator nor a dense
    sector is formed.
    """
    N = ops.N
    factors = _real_factors(_kron_terms(ops, root), N)
    if any(np.triu(Q, 3).any() or np.tril(Q, -3).any() for _, Q, _ in factors):
        raise ConsistencyError("a Kronecker factor on the column index reaches beyond offset 2")
    n_of = [np.arange((parity - m) % 2, N, 2) for m in range(N)]
    start = np.cumsum([0] + [len(n) for n in n_of])
    rows = np.concatenate([N * n + m for m, n in enumerate(n_of)])
    kd = max(start[m + 1] - start[max(m - 2, 0)] for m in range(N)) - 1
    band = np.zeros((kd + 1, start[-1]), order="F")  # LAPACK's order: factored in place
    for d in range(min(3, N)):  # the blocks of rows m and columns m - d
        terms = [(P, Q) for P, Q, q in factors if q == d % 2]
        for c in (0, 1) if terms else ():  # rows m = c (mod 2)
            m = np.arange(d + (c - d) % 2, N, 2)
            a, b = (parity - c) % 2, (parity - c + d) % 2  # the parities of n and n'
            sub = np.array([P[a::2, b::2] for P, _ in terms])
            alpha, beta = np.indices(sub.shape[1:]).reshape(2, -1)  # the entries of a block
            kept = alpha >= beta if d == 0 else slice(None)  # of a diagonal block, the lower triangle
            alpha, beta = alpha[kept], beta[kept]
            coef = np.array([np.diagonal(Q, -d)[m - d] for _, Q in terms])
            i = (start[m] - start[m - d])[:, None] + (alpha - beta)
            j = start[m - d][:, None] + beta
            band[i, j] = np.tensordot(coef, sub[:, alpha, beta], axes=(0, 0))
    band *= -1.0 / ops.hbar**2
    return band, rows


def assemble_dense_superoperator(ops: QuantizedOperatorSet, band=None) -> np.ndarray:
    """N^2 x N^2 complex matrix of the Laplacian in row-major vectorization
    (the small-N oracle): column j is the image of the j-th standard basis
    matrix.  Refused with DenseSizeError above N = DENSE_CAP; about 0.65 GB
    at N = 80.  It is the sum of the Kronecker products of `_kron_terms`:
    N x N products and five Kronecker products in all, O(N^4) work.  Given
    a sector's ``band`` (`_sector_band`), the symmetric matrix it stores.
    """
    if band is not None:
        dim = band.shape[1]
        H = np.zeros((dim, dim))
        for r, diagonal in enumerate(band):
            i = np.arange(dim - r)
            H[i + r, i] = H[i, i + r] = diagonal[: dim - r]
        return H
    check_size("dense", ops.N)
    (P, Q), *rest = _kron_terms(ops)
    total = np.kron(P, Q)
    for P, Q in rest:
        total += np.kron(P, Q)
    return -total / ops.hbar**2


@dataclass
class OffsetBlock:
    """Restriction of the Laplacian to one matrix diagonal offset.

    The offset counts columns minus rows (numpy diagonal convention); with
    the entry convention T(f)[n, m] = f_{n-m}(...), the offset-k diagonal
    carries azimuthal mode -k.  Offsets +-k appear as separate blocks whose
    low eigenvalues approach each other only in the large-N limit.  The
    block B is tridiagonal and held as the symmetric tridiagonal matrix
    T = D^{-1} B D (``diag``, ``off``) and D's diagonal ``scale``:
    B = diag(scale) T diag(1/scale), and eigenvectors of B are D times
    those of T.
    """

    offset: int
    diag: np.ndarray
    off: np.ndarray
    scale: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.diag)

    def vectors(self, values) -> np.ndarray:
        """Eigenvectors (rows) for eigenvalues already bisected
        (`_levels_within`), by inverse iteration (LAPACK ?stein), with no
        second bisection.  T is one unreduced block: `_offset_block`
        refuses a zero off-diagonal product."""
        order = np.argsort(values)
        n = self.dim
        stein = sla.get_lapack_funcs("stein", (self.diag, self.off))
        Y, info = stein(
            self.diag,
            self.off if n > 1 else np.zeros(1),  # the wrapper wants e non-empty
            np.asarray(values, dtype=float)[order],
            np.ones(n, dtype=np.int32),
            np.full(n, n, dtype=np.int32),
        )
        if info != 0:
            raise SolverConvergenceError(
                f"inverse iteration on the offset-{self.offset} block failed (info={info})"
            )
        out = np.empty((len(order), n))
        out[order] = (self.scale[:, None] * Y).T
        return out


def _offset_block(ops: QuantizedOperatorSet, k: int) -> OffsetBlock:
    """Closed-form restriction of L to offset k for tridiagonal X_i, diagonal gamma.

    With g = diag(gamma^{-1}), row n of the block B (entry (n, m = n + k) of
    the matrix) reads as below, summed over X_i in (X, Y, Z), with
    c = diag(X_i) and q_n = X_i[n, n+1] X_i[n+1, n] (zero outside
    0 <= n < N-1):

        diag  = -g_n/hbar^2 [g_n (c_n - c_m)^2 + g_{n+1} q_n + g_{n-1} q_{n-1}
                             + g_n (q_m + q_{m-1})]
        upper = g_n (g_n + g_{n+1})/hbar^2 X_i[n, n+1] X_i[m+1, m]
        lower = g_{n+1} (g_n + g_{n+1})/hbar^2 X_i[n+1, n] X_i[m, m+1]

    B is returned as its symmetric form, with D_{j+1}/D_j =
    sqrt(lower_j/upper_j); a non-positive product upper_j lower_j raises
    ConsistencyError.
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
    upper = gn[:-1] * pair * upper.real / h2
    lower = gn[1:] * pair * lower.real / h2
    if np.any(upper * lower <= 0.0):
        raise ConsistencyError(
            f"offset-{k} block has a non-positive off-diagonal product; "
            "it is not similar to a symmetric tridiagonal matrix"
        )
    ratio = np.sqrt(lower / upper)
    scale = np.concatenate(([1.0], np.cumprod(ratio)))
    return OffsetBlock(k, -gn * diag / h2, upper * ratio, scale)


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
    ``diagnostics`` records the work done and the worst residual over the
    tolerance; it goes into the JSON report, not into the CSV or ``config``.
    """

    eigenvalues: list
    residuals: list
    blocks: list
    cluster_index: list
    clusters: list
    strategy: str
    solver_tolerance: float
    config: dict
    diagnostics: dict

    def to_json_dict(self) -> dict:
        return {
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
            "diagnostics": self.diagnostics,
        }

    def to_csv_rows(self) -> list:
        """The header, then one unformatted row per eigenvalue."""
        rows = zip(self.eigenvalues, self.residuals, self.blocks, self.cluster_index)
        return [("value", "residual", "block", "cluster"), *rows]


def default_cluster_gap(ops: QuantizedOperatorSet) -> float:
    """10*hbar*(2/(b - a))/L^2, with [a, b] the grid's z interval and L the
    largest semi-axis (1 when the surface has none).  The low levels of an
    ellipsoid are set by its longest axis, so this is 10 hbar in the units
    where that axis is 1; it scales as 1/size^2 under a uniform scaling,
    and where 2/(b - a) and L are 1 it is 10*hbar bit for bit."""
    grid = ops.coords.grid
    axes = ops.coords.surface.semi_axes
    L = max(axes) if axes else 1.0
    return 10.0 * grid.hbar * (2.0 / (grid.b - grid.a)) / L**2


def resolve_strategy(strategy: str, revolution: bool) -> str:
    """The strategy `auto` stands for: blocks on a surface of revolution, else
    banded; any other name is returned as it is."""
    if strategy != "auto":
        return strategy
    return "blocks" if revolution else "banded"


def spectrum(
    ops: QuantizedOperatorSet,
    strategy: str = "auto",
    count: int = 9,
    block_range: int | None = None,
    cluster_gap: float | None = None,
) -> SpectrumReport:
    """The `count` eigenvalues of smallest absolute value, with residuals.

    `count` below 1, or a `cluster_gap` that is not finite and >= 0, raises
    ConfigError.  `auto` resolves by `resolve_strategy`; an N the strategy
    refuses (`check_size`) and a `count` above the N^2 eigenvalues are
    refused before any assembly.  The strategy's solver (`_banded_pairs`,
    `_dense_pairs`, `_block_pairs` with the block range K; any other name
    raises ConfigError) returns the `count` eigenpairs in report order.
    Every residual goes through the full operator (`_full_residual`); one
    over the tolerance 1e-8*(1 + max |lambda| over the kept values),
    non-finite or of a zero eigenmatrix raises SolverConvergenceError.  The
    values are grouped into clusters `cluster_gap` apart (default
    `default_cluster_gap`).  The report's ``diagnostics`` are the solver's
    plus ``residual_margin``, the worst residual over the tolerance.
    """
    strategy = resolve_strategy(strategy, revolution=ops.gamma_eigenvectors is None)
    if count < 1:
        raise ConfigError("count must be positive")
    if cluster_gap is not None and not (math.isfinite(cluster_gap) and cluster_gap >= 0):
        raise ConfigError(f"cluster gap must be finite and nonnegative, got {cluster_gap!r}")
    check_size(strategy, ops.N)
    if count > ops.N**2:
        hint = f"; the blocks at K = N - 1 hold all N^2 = {ops.N**2} eigenvalues"
        hint = hint if strategy == "blocks" else ""
        raise ConfigError(f"requested {count} eigenvalues, only {ops.N**2} available{hint}")
    if strategy == "dense":
        pairs, diagnostics = _dense_pairs(ops, count)
    elif strategy == "banded":
        pairs, diagnostics = _banded_pairs(ops, count)
    elif strategy == "blocks":
        pairs, diagnostics = _block_pairs(ops, count, block_range)
    else:
        raise ConfigError(f"unknown strategy {strategy!r}")

    values = [lam for lam, _, _ in pairs]
    residuals = [_full_residual(ops, lam, F) for lam, _, F in pairs]
    tol = 1e-8 * (1.0 + max(abs(v) for v in values))
    bad = [r for r in residuals if not r <= tol]
    if bad:
        raise SolverConvergenceError(
            f"{len(bad)} residuals exceed the solver tolerance {tol:.2e} (max {max(bad):.2e})"
        )

    gap = cluster_gap if cluster_gap is not None else default_cluster_gap(ops)
    order = sorted(range(len(values)), key=lambda i: values[i])
    clusters = cluster_multiplicities([values[i] for i in order], gap)

    grid = ops.coords.grid
    surf = ops.coords.surface
    config = {
        "surface": surf.name,
        "semi_axes": list(surf.semi_axes) if surf.semi_axes else None,
        "N": ops.N,
        "beta": grid.beta,
        "hbar": grid.hbar,
        "grid_offset": grid.grid_offset,
        "strategy": strategy,
        "count": count,
        "block_range": block_range,
        "cluster_gap": gap,
    }
    return SpectrumReport(
        eigenvalues=values,
        residuals=residuals,
        blocks=[block for _, block, _ in pairs],
        cluster_index=_assign_clusters(values, order, clusters),
        clusters=clusters,
        strategy=strategy,
        solver_tolerance=tol,
        config=config,
        diagnostics={**diagnostics, "residual_margin": max(residuals) / tol},
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


def _report_order(pair: tuple) -> tuple:
    """Sort key of an eigenpair (lambda, block, F): |lambda|, lambda, offset."""
    lam, block, _ = pair
    return abs(lam), lam, block or 0


def _sector_pairs(ops: QuantizedOperatorSet, count: int, solve) -> tuple:
    """The `count` eigenpairs (lambda, None, F) of L closest to 0 in report
    order, and ``sector_dims``.  ``solve(band, k)`` gives the k largest
    eigenpairs (w, Y) of a real parity sector of H = (R (x) I) K (R (x) I),
    R = G^{1/2}, from its `_sector_band`; F = R Y is scattered back through
    the band's rows.  A level above the solver tolerance: ConsistencyError."""
    N = ops.N
    root = _hermitian(1.0 / np.sqrt(ops.gamma_eigenvalues), ops.gamma_eigenvectors)
    found, dims = [], []
    for p in (0, 1):
        band, rows = _sector_band(ops, root, p)
        dims.append(len(rows))
        w, Y = solve(band, min(count, len(rows)))
        del band  # one O(N^3) band at a time
        E = np.zeros((N * N, len(w)))
        E[rows] = Y
        found += [(float(lam), None, root @ e.reshape(N, N)) for lam, e in zip(w, E.T)]
    top, tol = max(f[0] for f in found), 1e-8 * (1.0 + max(abs(f[0]) for f in found))
    if top > tol:
        raise ConsistencyError(
            f"eigenvalue {top:.3e} exceeds the solver tolerance {tol:.2e}; "
            "the operator is not negative semidefinite"
        )
    return sorted(found, key=_report_order)[:count], {"sector_dims": dims}


def _band_eigh(ops: QuantizedOperatorSet, band: np.ndarray, k: int) -> tuple:
    """The k largest eigenpairs of the densified band, by one exact `eigh`."""
    H = assemble_dense_superoperator(ops, band)
    return sla.eigh(H, subset_by_index=[len(H) - k, len(H) - 1])


def _dense_pairs(ops: QuantizedOperatorSet, count: int) -> tuple:
    """`_sector_pairs` by `_band_eigh` (the oracle), plus ``eigh_calls``."""
    pairs, diagnostics = _sector_pairs(ops, count, lambda band, k: _band_eigh(ops, band, k))
    return pairs, {**diagnostics, "eigh_calls": len(diagnostics["sector_dims"])}


def _banded_pairs(ops: QuantizedOperatorSet, count: int) -> tuple:
    """`_sector_pairs` with each sector solved by shift-invert Lanczos on its
    band (Ericsson & Ruhe, Math. Comp. 35 (1980); ARPACK `eigsh`).

    With sigma = `default_cluster_gap` > 0, sigma I - H is factored once by
    banded Cholesky (LAPACK ?pbtrf); a failure means H has a level at or
    above sigma and raises the dense path's ConsistencyError.  The `count`
    largest theta of (sigma I - H)^{-1} give lambda = sigma - 1/theta, the
    levels closest to 0.  ``tol=0`` and a fixed start vector make identical
    runs give identical bytes; ArpackNoConvergence raises
    SolverConvergenceError.  A sector too small for ARPACK (k >= dim - 1) is
    solved by `_band_eigh`.  The diagnostics add ``half_bandwidth``,
    ``shift`` (sigma) and ``solves`` (applications of the inverse).
    O(N^4) work and O(N^3) memory.
    """
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    sigma = default_cluster_gap(ops)
    counts = {"half_bandwidth": 0, "shift": sigma, "solves": 0}

    def solve(band, k):
        counts["half_bandwidth"] = len(band) - 1  # the same for both sectors
        dim = band.shape[1]
        if k >= dim - 1:
            return _band_eigh(ops, band, k)
        band *= -1.0
        band[0] += sigma
        try:
            factor = (sla.cholesky_banded(band, overwrite_ab=True, lower=True), True)
        except np.linalg.LinAlgError:
            raise ConsistencyError(
                f"sigma I - H is not positive definite at the shift {sigma:.3e}; "
                "the operator is not negative semidefinite"
            ) from None

        def inverse(x):
            counts["solves"] += 1
            return sla.cho_solve_banded(factor, x, check_finite=False)

        op = LinearOperator((dim, dim), matvec=inverse, dtype=float)
        v0 = np.random.default_rng(0).standard_normal(dim)
        try:
            theta, Y = eigsh(op, k, which="LM", tol=0, v0=v0)
        except ArpackNoConvergence as exc:
            raise SolverConvergenceError(f"Lanczos on a parity sector: {exc}") from None
        return sigma - 1.0 / theta, Y

    pairs, diagnostics = _sector_pairs(ops, count, solve)
    return pairs, {**diagnostics, **counts}


def _block_pairs(ops: QuantizedOperatorSet, count: int, block_range: int | None) -> tuple:
    """The `count` eigenpairs (lambda, offset, F) of L closest to 0 over the
    blocks of offsets -K..K, K = `block_range` (default min(N - 1, max(3,
    isqrt(count) + 1))), in report order, with F the map {offset: padded
    diagonal}, and the diagnostics of `_closest_levels`.  A `count` above
    the levels the blocks hold raises ConfigError, which asks for a wider K;
    so does `_check_block_range` when blocks +-(K+1) reach the kept
    values."""
    N = ops.N
    K = block_range if block_range is not None else min(N - 1, max(3, int(math.isqrt(count)) + 1))
    blocks = block_decompose(ops, K)
    available = sum(b.dim for b in blocks)
    if count > available:
        raise ConfigError(
            f"requested {count} eigenvalues, only {available} available; widen the block range K"
        )
    levels, diagnostics = _closest_levels(blocks, count)
    pairs = []
    for b, values in zip(blocks, levels):
        for lam, row in zip(values, b.vectors(values) if values else ()):
            F = np.zeros(N, dtype=complex)
            F[max(0, b.offset) : N + min(0, b.offset)] = row
            pairs.append((lam, b.offset, {b.offset: F}))
    pairs.sort(key=_report_order)
    if K + 1 < N:
        _check_block_range(ops, K, max(abs(lam) for lam, _, _ in pairs))
    return pairs, diagnostics


def _levels_within(block: OffsetBlock, lo: float, hi: float, stebz, abstol: float):
    """(m, values): the m levels of the block in (lo, hi], ascending.

    One LAPACK ?stebz call over that value range (hi may be inf): it counts
    the range by Sturm sequences, then bisects every level in it until its
    bracket is narrower than ``abstol`` (0: ulp * ||T||).  With ``abstol`` =
    STURM_COUNT_ABSTOL the bisection stops at once, so m is the exact count
    and the values mean nothing (Barth, Martin & Wilkinson, Numer. Math. 9
    (1967); Parlett, The Symmetric Eigenvalue Problem, ch. 3).  A dim-1
    block is read off."""
    if block.dim == 1:
        d = block.diag
        return (1, d) if lo < d[0] <= hi else (0, d[:0])
    m, w, _, _, info = stebz(block.diag, block.off, 1, lo, hi, 0, 0, abstol, "E")
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
    then bisected once over (-tau, tau^-], tau^- the largest double below
    tau, and the `count` levels first in the kept spectrum's order
    (|lambda|, lambda, offset) are kept.  This is the exhaustive selection:
    every level outside the range has |lambda| >= tau, and every level
    inside |lambda| < tau.  The bisection starts from the range, so a
    value's last bits depend on tau: two block ranges K that end at
    different cutoffs agree to about ulp * ||T||, not bit for bit.
    """
    stebz = sla.get_lapack_funcs("stebz", (blocks[0].diag,))
    # every level lies within the Gershgorin bound, so all are below the cap
    bound = max(np.abs(b.diag).max() + 2.0 * np.abs(b.off).max(initial=0.0) for b in blocks)
    cap = 2.0 * float(bound) + np.finfo(float).tiny
    lo, hi, c_lo, c_hi = 0.0, cap, [0] * len(blocks), [b.dim for b in blocks]
    # first guess: 1.5 times the tau at which the one-dimensional Weyl law,
    # #{|lambda| < tau} ~ sum_j sqrt(tau / |e_j|) / pi for a tridiagonal
    # block with off-diagonal e, puts sqrt(count) levels in block 0 (the
    # sphere holds L + 1 of its (L + 1)^2 lowest levels there)
    e = np.abs(blocks[0].off)
    tau = min(1.5 * (math.pi * math.sqrt(count) / np.sum(e**-0.5)) ** 2, cap) if len(e) else cap
    counted = steps = 0
    while sum(c_hi) > count + 1 and steps < CUTOFF_STEPS:
        c, below = [], np.nextafter(tau, -np.inf)
        for b, low, high in zip(blocks, c_lo, c_hi):
            if low != high:
                low = _levels_within(b, -tau, below, stebz, STURM_COUNT_ABSTOL)[0]
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
            values = _levels_within(b, -hi, np.nextafter(hi, -np.inf), stebz, 0.0)[1].tolist()
            found += [(abs(lam), lam, b.offset, i) for lam in values]
    levels = [[] for _ in blocks]
    for _, lam, _, i in sorted(found)[:count]:
        levels[i].append(lam)
    return levels, {"levels_solved": len(found), "sturm_counts": counted, "level_bound": float(hi)}


def _check_block_range(ops: QuantizedOperatorSet, K: int, largest_kept: float) -> None:
    """Blocks +-(K+1) must not reach the kept spectrum within the default
    cluster gap: neither may hold a level above -(largest_kept + gap).  One
    ?stebz call per block over that range (`_levels_within`) counts it and
    bisects only the levels it finds, which word the ConfigError."""
    margin = default_cluster_gap(ops)
    outer = [_offset_block(ops, k) for k in (K + 1, -K - 1)]
    stebz = sla.get_lapack_funcs("stebz", (outer[0].diag,))
    found = np.concatenate(
        [_levels_within(b, -(largest_kept + margin), np.inf, stebz, 0.0)[1] for b in outer]
    )
    if len(found):
        nearest = np.abs(found).min()
        raise ConfigError(
            f"blocks +-{K + 1} have an eigenvalue of magnitude {nearest:.6g}, below the largest "
            f"kept magnitude {largest_kept:.6g} plus the cluster gap {margin:.3g}; "
            "widen the block range K"
        )


def _full_residual(ops: QuantizedOperatorSet, lam: float, F) -> float:
    """||L(F) - lambda F||_F / ||F||_F through the full operator; inf when F = 0.

    F is a dense eigenmatrix or a block eigenmatrix, which lies on one
    diagonal and is passed as the map {k: its padded diagonal}: lambda F is
    then taken off diagonal k of L(F), the residual norm runs over the
    diagonals that come back, and ||F|| over the diagonal's own N - |k|
    entries, real as the block solve returns them."""
    if isinstance(F, dict):
        ((k, v),) = F.items()
        norm = np.linalg.norm(v[max(0, k) : ops.N + min(0, k)].real)
        if not norm > 0:
            return math.inf
        R = apply_laplacian(ops, F)
        R[k] = R[k] - lam * v
        return float(np.linalg.norm(np.array(list(R.values()))) / norm)
    norm = np.linalg.norm(F)
    if not norm > 0:
        return math.inf
    return float(np.linalg.norm(apply_laplacian(ops, F) - lam * F) / norm)


def convergence_study(
    surface: SurfaceDescriptor,
    N_list,
    count: int,
    grid_offset: str = "paper",
    strategy: str = "auto",
    block_range: int | None = None,
) -> list:
    """Cluster-level eigenvalue errors against a classical reference.

    The grids run at beta = 1 and the sizes must be distinct.  Returns one
    row per (N, cluster): dict with keys N, hbar, cluster, lambda,
    reference, abs_error, fitted_order, in that order, ascending in N.  The reference is
    ``reference_for(surface, count)``: the analytic spectrum on the unit
    sphere and the spectral Galerkin solve (error estimate below 1e-9
    relative) on other surfaces of revolution, so the errors are the nc
    operator's; there is none on a triaxial surface.
    """
    N_list = sorted(int(n) for n in N_list)
    if len(N_list) < 2:
        raise ConfigError("convergence study needs at least two values of N")
    if len(set(N_list)) < len(N_list):
        raise ConfigError(f"convergence study sizes must be distinct, got {N_list}")
    reference = reference_for(surface, count)
    if reference is None:
        raise ConfigError("no classical reference available for this surface")

    a, b = surface.z_interval
    runs = []
    for N in N_list:
        grid = build_grid(N, a, b, 1.0, grid_offset)
        ops = build_operator_set(surface, grid)
        rep = spectrum(ops, strategy=strategy, count=count, block_range=block_range)
        runs.append((N, grid.hbar, rep))

    # cluster the reference with the finest run's gap so levels line up
    ref_values = reference.cluster_means(count, runs[-1][2].config["cluster_gap"])

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
