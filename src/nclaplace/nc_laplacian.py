"""The commutator Laplacian on matrices and its spectrum.

Assembles the quantized area density gamma = sqrt(-sum_{i>j}([X_i,X_j]/hbar)^2),
its regularized inverse, and the operator

    L(F) = -(1/hbar^2) sum_i gamma^{-1} [X_i, gamma^{-1} [X_i, F]]

acting on N x N matrices.  Three spectrum strategies are provided:

- dense (small N, any surface): L = G K with G = gamma^{-1} and K self-adjoint,
  so H = G^{1/2} K G^{1/2} is symmetric and similar to L: one real `eigh` per
  parity sector of F[n, m] (n - m even or odd), which H keeps apart.
- blocks (revolution surfaces, large N): gamma is diagonal, so L maps each
  matrix diagonal (Fourier offset) to itself by a closed-form tridiagonal
  matrix that a diagonal similarity makes symmetric (Parlett, The Symmetric
  Eigenvalue Problem, sec. 7): one `eigh_tridiagonal` per block, O(N) work.
- iterative (theta-dependent metrics at moderate N): matrix-free shift-invert.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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
    build_grid,
    coordinate_matrices,
    sparsify,
)
from .reference_oracle import cluster_multiplicities, reference_for
from .surface import SurfaceDescriptor

DENSE_CAP = 40

#: relative off-diagonal mass allowed in the commutator-square sum of a
#: surface of revolution, whose gamma is read off the diagonal
GAMMA_DIAGONAL_TOL = 1e-10


def build_gamma(coords: CoordinateMatrices, hbar: float) -> np.ndarray:
    """Principal square root of S = -([X,Y]^2 + [Y,Z]^2 + [Z,X]^2)/hbar^2.

    S must be hermitian positive semidefinite up to rounding; eigenvalues of S
    below -1e-10*||S|| signal a wrong hbar or broken coordinates.  On a
    surface of revolution S is diagonal and gamma is the entrywise root of
    its diagonal; off-diagonal mass above GAMMA_DIAGONAL_TOL raises
    NotRevolutionSurfaceError.
    """
    mats = coords.banded
    S = None
    for A, B in ((mats[0], mats[1]), (mats[1], mats[2]), (mats[2], mats[0])):
        C = (A @ B - B @ A) / hbar
        term = C @ C
        S = term if S is None else S + term
    S = -S
    dev = abs(S - S.conj().T).max()
    scale = max(abs(S).max(), 1e-300)
    if dev > 1e-12 * scale:
        raise ConsistencyError(f"commutator square sum deviates from hermitian by {dev:.2e}")
    if coords.surface.revolution:
        w = np.real(S.diagonal())
        off_mass = abs(S - sp.diags(S.diagonal())).max()
        if off_mass > GAMMA_DIAGONAL_TOL * scale:
            raise NotRevolutionSurfaceError(
                f"commutator square sum carries off-diagonal mass {off_mass:.2e} "
                f"(tolerance {GAMMA_DIAGONAL_TOL:.0e} x {scale:.2e}); "
                "the metric is theta-dependent"
            )
        V = None
    else:
        S = S.toarray()
        w, V = _eigh(0.5 * (S + S.conj().T))
    wmax = max(w.max(), 0.0)
    if w.min() < -1e-10 * max(wmax, 1e-300):
        raise ConsistencyError(
            f"area-density square has eigenvalue {w.min():.3e} below tolerance "
            f"(norm {wmax:.3e}); check hbar and the coordinate matrices"
        )
    return _hermitian(np.sqrt(np.clip(w, 0.0, None)), V)


def _is_diagonal(M: np.ndarray) -> bool:
    return np.count_nonzero(M) == np.count_nonzero(np.diagonal(M))


def _eigh(M: np.ndarray):
    """Eigenpairs (w, V) of hermitian M (V None if M is diagonal), with one
    `eigh` per index-parity class when M has no odd offsets, so that V and
    every `_hermitian(., V)` keep exact zeros there."""
    if _is_diagonal(M):
        return np.real(np.diagonal(M)), None
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


def gamma_inverse(gamma: np.ndarray, epsilon: float, return_truncated: bool = False):
    """Pseudo-inverse through the eigenbasis of gamma.

    Eigenvalues at or above epsilon*max eigenvalue are inverted, the rest
    zeroed.  With everything below threshold the metric is degenerate.  A
    diagonal gamma is its own eigenbasis and is inverted entrywise.
    """
    w, V = _eigh(np.asarray(gamma))
    wmax = w.max()
    if wmax <= 0.0:
        raise DegenerateMetricError("quantized area density has no positive eigenvalues")
    keep = w >= epsilon * wmax
    if not keep.any():
        raise DegenerateMetricError("all eigenvalues below the regularization threshold")
    winv = np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0)
    inv = _hermitian(winv, V)
    truncated = int((~keep).sum())
    return (inv, truncated) if return_truncated else inv


@dataclass
class QuantizedOperatorSet:
    """Everything needed to apply the commutator Laplacian."""

    coords: CoordinateMatrices
    gamma: np.ndarray
    gamma_inv: np.ndarray
    hbar: float
    regularization_epsilon: float
    surface_is_revolution: bool
    gamma_truncated_modes: int = 0
    _sparse: tuple | None = field(default=None, repr=False)

    @property
    def N(self) -> int:
        return self.coords.grid.N

    def sparse_ops(self):
        if self._sparse is None:
            self._sparse = (*self.coords.banded, sparsify(self.gamma_inv))
        return self._sparse


def build_operator_set(
    surface: SurfaceDescriptor,
    grid: QuantizationGrid,
    epsilon: float = 1e-12,
) -> QuantizedOperatorSet:
    """Quantize the surface coordinates and assemble gamma and its inverse."""
    coords = coordinate_matrices(surface, grid)
    gamma = build_gamma(coords, grid.hbar)
    inv, truncated = gamma_inverse(gamma, epsilon, return_truncated=True)
    return QuantizedOperatorSet(
        coords=coords,
        gamma=gamma,
        gamma_inv=inv,
        hbar=grid.hbar,
        regularization_epsilon=epsilon,
        surface_is_revolution=surface.revolution,
        gamma_truncated_modes=truncated,
    )


def apply_laplacian(ops: QuantizedOperatorSet, F):
    """Apply L(F) = -(1/hbar^2) sum_i gamma^{-1}[X_i, gamma^{-1}[X_i, F]].

    Accepts dense arrays or scipy sparse matrices and returns the same kind.
    """
    if sp.issparse(F):
        X, Y, Z, G = ops.sparse_ops()
        mats = (X, Y, Z)
    else:
        F = np.asarray(F, dtype=complex)
        mats = (ops.coords.X, ops.coords.Y, ops.coords.Z)
        G = ops.gamma_inv
    out = None
    for Xi in mats:
        inner = G @ (Xi @ F - F @ Xi)
        term = G @ (Xi @ inner - inner @ Xi)
        out = term if out is None else out + term
    return -out / ops.hbar**2


def assemble_dense_superoperator(ops: QuantizedOperatorSet, cap: int = DENSE_CAP, root=None) -> np.ndarray:
    """N^2 x N^2 matrix of the Laplacian in row-major vectorization (the
    small-N oracle): column j is the image of the j-th standard basis matrix.
    Refused above the cap; use blocks (revolution) or iterative instead.

    With vec(A F B) = kron(A, B^T) vec(F), G = gamma^{-1} and A_i = G X_i,
    each term G[X_i, G[X_i, F]] expands to
    kron(A_i A_i, I) - kron(A_i G + G A_i, X_i^T) + kron(G G, X_i^T X_i^T):
    N x N products and five Kronecker products in all, O(N^4) work.  With
    root = G^{1/2} and A_i = root X_i root it is H of `_dense_candidates`.
    """
    N = ops.N
    if N > cap:
        raise DenseSizeError(
            f"dense superoperator needs N <= {cap} (got {N}); "
            "use the blocks strategy on revolution surfaces or iterative otherwise"
        )
    G = ops.gamma_inv
    mats = (ops.coords.X, ops.coords.Y, ops.coords.Z)
    A = [G @ Xi if root is None else root @ Xi @ root for Xi in mats]
    total = np.kron(sum(Ai @ Ai for Ai in A), np.eye(N))
    for Ai, Xi in zip(A, mats):
        total -= np.kron(Ai @ G + G @ Ai, Xi.T)
    total += np.kron(G @ G, sum(Xi.T @ Xi.T for Xi in mats))
    return -total / ops.hbar**2


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

    def lowest(self, take: int):
        """The `take` eigenvalues closest to 0, descending, and their vectors (rows).

        The Laplacian is self-adjoint and negative semidefinite in the inner
        product weighted by gamma, so these are the largest eigenvalues.  The
        similarity D^{-1} B D with D_{j+1}/D_j = sqrt(lower_j/upper_j) makes
        the block symmetric; eigenvectors of B are D times those of the
        symmetric matrix.
        """
        if np.any(self.upper * self.lower <= 0.0):
            raise ConsistencyError(
                f"offset-{self.offset} block has a non-positive off-diagonal product "
                "(a gamma mode truncated by a large epsilon decouples the block)"
            )
        ratio = np.sqrt(self.lower / self.upper)
        select = (self.dim - min(take, self.dim), self.dim - 1)
        w, Y = sla.eigh_tridiagonal(self.diag, self.upper * ratio, select="i", select_range=select)
        scale = np.concatenate(([1.0], np.cumprod(ratio)))
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
    g = np.real(np.diagonal(ops.gamma_inv))
    gp = np.concatenate(([0.0], g, [0.0]))  # gp[j + 1] = g_j, zero outside
    diag_sum = np.zeros(M)
    qp = np.zeros(N + 1)  # qp[j + 1] = q_j, zero outside
    upper = np.zeros(M - 1, dtype=complex)
    lower = np.zeros(M - 1, dtype=complex)
    for X in ops.coords.banded:
        c = np.real(X.diagonal())
        up, lo = X.diagonal(1), X.diagonal(-1)
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
    """Sparse N x N matrix with vector v along diagonal offset k."""
    return sp.diags(np.asarray(v, dtype=complex), k, shape=(N, N), format="csr")


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
    if not ops.surface_is_revolution:
        raise NotRevolutionSurfaceError("block decomposition requires equal equatorial axes")
    if not _is_diagonal(ops.gamma_inv):
        raise NotRevolutionSurfaceError(
            "gamma^{-1} carries off-diagonal mass; the metric is theta-dependent"
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
    """

    eigenvalues: list
    residuals: list
    blocks: list
    flagged: list
    cluster_index: list
    clusters: list
    strategy: str
    imaginary_leakage: float
    solver_tolerance: float
    config: dict

    def to_json_dict(self) -> dict:
        return {
            "surface": self.config.get("surface"),
            "N": self.config.get("N"),
            "beta": self.config.get("beta"),
            "hbar": self.config.get("hbar"),
            "strategy": self.strategy,
            "eigenvalues": [
                {
                    "value": v,
                    "residual": r,
                    "block": b,
                    "cluster": c,
                    "flagged": fl,
                }
                for v, r, b, c, fl in zip(
                    self.eigenvalues, self.residuals, self.blocks, self.flagged, self.cluster_index
                )
            ],
            "clusters": [{"mean": m, "multiplicity": mult} for m, mult in self.clusters],
            "imaginary_leakage": self.imaginary_leakage,
            "solver_tolerance": self.solver_tolerance,
            "config": dict(sorted(self.config.items())),
        }

    def to_csv_rows(self) -> list:
        rows = [["value", "residual", "block", "cluster"]]
        for v, r, b, c in zip(self.eigenvalues, self.residuals, self.blocks, self.cluster_index):
            rows.append(
                ["%.15g" % v, "%.15g" % r, "" if b is None else str(b), str(c)]
            )
        return rows

    def save(self, out_dir, stem: str, formats=("json", "csv")) -> list:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        written = []
        if "json" in formats:
            p = out / f"{stem}.json"
            p.write_text(json.dumps(self.to_json_dict(), indent=2, sort_keys=False) + "\n")
            written.append(p)
        if "csv" in formats:
            p = out / f"{stem}.csv"
            with open(p, "w", newline="") as fh:
                for key in sorted(self.config):
                    fh.write(f"# {key} = {self.config[key]}\n")
                writer = csv.writer(fh)
                writer.writerows(self.to_csv_rows())
            written.append(p)
        return written


def _select_strategy(ops: QuantizedOperatorSet, strategy: str) -> str:
    if strategy != "auto":
        return strategy
    if ops.surface_is_revolution:
        return "blocks"
    return "dense" if ops.N <= DENSE_CAP else "iterative"


def spectrum(
    ops: QuantizedOperatorSet,
    strategy: str = "auto",
    count: int = 9,
    block_range: int | None = None,
    cluster_gap: float | None = None,
) -> SpectrumReport:
    """The `count` eigenvalues of smallest absolute value, with residuals.

    Strategies: dense (any surface, N <= cap; one real symmetric solve per
    parity sector), blocks (revolution surfaces; one symmetric tridiagonal
    solve per offset k in [-K, K]), iterative (shift-invert around zero).
    Residuals go through the full operator; one over tolerance, non-finite
    or of a zero eigenmatrix fails the run (iterative: flags it).  Dense and
    block eigenvalues are real; blocks +-(K+1) must lie beyond the kept
    eigenvalues by the default cluster gap, or ConfigError asks for a wider
    K.  Iterative eigenvalues with imaginary part over 1e-8*(1 + |Re|) are
    flagged; real parts are reported, the largest imaginary part recorded.
    """
    strategy = _select_strategy(ops, strategy)
    N = ops.N
    if count < 1:
        raise ConfigError("count must be positive")
    if strategy == "dense":
        candidates = _dense_candidates(ops, count)
    elif strategy == "blocks":
        K = block_range if block_range is not None else min(N - 1, max(3, int(math.isqrt(count)) + 1))
        candidates = [
            {"value": float(lam), "imag": 0.0, "block": b.offset, "vec": v, "kind": "block"}
            for b in block_decompose(ops, K)
            for lam, v in zip(*b.lowest(count))
        ]
    elif strategy == "iterative":
        candidates = _iterative_candidates(ops, count)
    else:
        raise ConfigError(f"unknown strategy {strategy!r}")

    partial = False
    available = len(candidates)
    if count > available:
        if strategy == "iterative" and available > 0:
            partial = True
            count = available
        else:
            hint = "; widen the block range K" if strategy == "blocks" else ""
            raise ConfigError(
                f"requested {count} eigenvalues, only {available} available{hint}"
            )
    candidates.sort(key=lambda c: (abs(c["value"]), c["value"], c.get("block") or 0))
    kept = candidates[:count]
    if strategy == "blocks" and K + 1 < N:
        _check_block_range(ops, K, max(abs(c["value"]) for c in kept))

    values = [c["value"] for c in kept]
    residuals = [_full_residual(ops, c) for c in kept]
    flags = [bool(abs(c["imag"]) > 1e-8 * (1.0 + abs(c["value"]))) for c in kept]
    imag_leak = max((abs(c["imag"]) for c in kept), default=0.0)

    gap = cluster_gap if cluster_gap is not None else 10.0 * ops.hbar
    order = sorted(range(len(values)), key=lambda i: values[i])
    clusters = cluster_multiplicities([values[i] for i in order], gap)
    cluster_of = _assign_clusters(values, order, clusters)

    scale = max((abs(c["value"]) for c in candidates), default=1.0)
    tol = 1e-8 * (1.0 + scale)
    bad = [i for i, r in enumerate(residuals) if not r <= tol]
    if bad:
        if strategy == "iterative":
            # converged subset only: flag the rest instead of failing outright
            partial = True
            for i in bad:
                flags[i] = True
        else:
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
        "epsilon": ops.regularization_epsilon,
        "strategy": strategy,
        "count": count,
        "block_range": block_range,
        "cluster_gap": gap,
        "gamma_truncated_modes": ops.gamma_truncated_modes,
        "partial": partial,
        "analytic_derivatives": surf.has_analytic_derivatives,
    }
    return SpectrumReport(
        eigenvalues=values,
        residuals=residuals,
        blocks=[c.get("block") for c in kept],
        flagged=flags,
        cluster_index=cluster_of,
        clusters=clusters,
        strategy=strategy,
        imaginary_leakage=imag_leak,
        solver_tolerance=tol,
        config=config,
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
    eigenmatrices F = R Y; its largest ones per parity sector are the ones wanted."""
    N = ops.N
    if ops.gamma_truncated_modes:
        raise ConsistencyError(
            f"epsilon truncated {ops.gamma_truncated_modes} gamma modes; the dense solve needs "
            "an invertible gamma (lower --epsilon)"
        )
    w, V = _eigh(ops.gamma)  # the eigenpairs gamma_inverse inverted
    root = _hermitian(1.0 / np.sqrt(w), V)
    H = assemble_dense_superoperator(ops, root=root)
    parity = np.add.outer(np.arange(N), np.arange(N)).reshape(-1) % 2
    if H.imag.any() or H.real[parity[:, None] != parity].any():
        raise ConsistencyError("the symmetrized operator is complex or couples the parity sectors")
    found = []
    for idx in (np.flatnonzero(parity == 0), np.flatnonzero(parity == 1)):
        k = min(count, len(idx))
        w, Y = sla.eigh(H.real[np.ix_(idx, idx)], subset_by_index=[len(idx) - k, len(idx) - 1])
        E = np.zeros((N * N, k))
        E[idx] = Y
        found += [(lam, root @ e.reshape(N, N)) for lam, e in zip(w, E.T)]
    top, tol = max(f[0] for f in found), 1e-8 * (1.0 + max(abs(f[0]) for f in found))
    if top > tol:
        raise ConsistencyError(
            f"eigenvalue {top:.3e} exceeds the solver tolerance {tol:.2e}; "
            "the operator is not negative semidefinite"
        )
    return [
        {"value": float(lam), "imag": 0.0, "block": None, "vec": F.reshape(-1), "kind": "dense"}
        for lam, F in sorted(found, key=lambda f: abs(f[0]))[:count]
    ]


def _check_block_range(ops: QuantizedOperatorSet, K: int, largest_kept: float) -> None:
    """Blocks +-(K+1) must not reach the kept spectrum within the default cluster gap."""
    margin = 10.0 * ops.hbar
    nearest = min(abs(_offset_block(ops, k).lowest(1)[0][0]) for k in (K + 1, -K - 1))
    if nearest < largest_kept + margin:
        raise ConfigError(
            f"blocks +-{K + 1} have an eigenvalue of magnitude {nearest:.6g}, within {margin:.3g} "
            f"of the largest kept {largest_kept:.6g}; widen the block range K"
        )


def _iterative_candidates(ops: QuantizedOperatorSet, count: int, sigma: float = 0.5) -> list:
    N = ops.N
    dim = N * N
    if count > dim - 2:
        raise ConfigError(f"iterative strategy needs count <= {dim - 2}")

    def matvec(x):
        F = x.reshape(N, N)
        return np.asarray(apply_laplacian(ops, F)).reshape(-1)

    op = spla.LinearOperator((dim, dim), matvec=matvec, dtype=complex)

    def solve_shifted(b):
        x, info = spla.lgmres(
            spla.LinearOperator(
                (dim, dim), matvec=lambda v: matvec(v) - sigma * v, dtype=complex
            ),
            b,
            rtol=1e-11,
            atol=0.0,
            maxiter=400,
        )
        if info != 0:
            raise SolverConvergenceError(f"inner shifted solve stalled (info={info})")
        return x

    opinv = spla.LinearOperator((dim, dim), matvec=solve_shifted, dtype=complex)
    # a seeded start vector: identical configurations give identical output
    v0 = np.random.default_rng(0).standard_normal(dim).astype(complex)
    try:
        w, V = spla.eigs(op, k=count, sigma=sigma, OPinv=opinv, which="LM", tol=1e-10, v0=v0)
    except spla.ArpackNoConvergence as exc:
        w, V = exc.eigenvalues, exc.eigenvectors
        if w is None or len(w) == 0:
            raise SolverConvergenceError("iterative solve produced no converged eigenpairs")
    return [
        {"value": w[i].real, "imag": w[i].imag, "block": None, "vec": V[:, i], "kind": "dense"}
        for i in range(len(w))
    ]


def _full_residual(ops: QuantizedOperatorSet, cand: dict) -> float:
    """||L(F) - lambda F||_F / ||F||_F through the full operator; inf when F = 0."""
    lam = cand["value"]
    norm = np.linalg.norm(cand["vec"])
    if not norm > 0:
        return math.inf
    if cand["kind"] == "block":
        F = _embed_offset(cand["vec"], cand["block"], ops.N)
        resid = apply_laplacian(ops, F) - lam * F
        return float(spla.norm(resid) / norm)
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
    epsilon: float = 1e-12,
) -> list:
    """Cluster-level eigenvalue errors against a classical reference.

    Returns one row per (N, cluster): dict with keys N, hbar, cluster,
    lambda, reference, abs_error, fitted_order.  The reference defaults to
    ``reference_for(surface, count)``; a ClassicalSpectrum can be passed
    explicitly.
    """
    N_list = sorted(int(n) for n in N_list)
    if len(N_list) < 2:
        raise ConfigError("convergence study needs at least two values of N")
    if reference is None:
        reference = reference_for(surface, count)
        if reference is None:
            raise ConfigError("no classical reference available for this surface")

    a, b = surface.z_interval
    runs = []
    for N in N_list:
        grid = build_grid(N, a, b, beta, grid_offset)
        ops = build_operator_set(surface, grid, epsilon)
        rep = spectrum(ops, strategy=strategy, count=count, block_range=block_range)
        runs.append((N, grid.hbar, rep))

    # cluster the reference with the finest run's gap so levels line up
    gap_finest = 10.0 * runs[-1][1]
    ref_expanded = sorted(sorted(reference.expanded(), key=abs)[:count])
    ref_clusters = cluster_multiplicities(ref_expanded, gap_finest)
    ref_values = sorted((m for m, _ in ref_clusters), key=abs)

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
