"""Workloads: inputs drawn from a seed, the CLI calls of one operation, and
the check of each result against a reference that does not share its code
path.

Every operation is one or more in-process ``nclaplace.cli.main`` calls, so
each call resolves its own surface descriptor: the area cache on a
descriptor never carries over from one operation to the next.

The seed draws from narrow families chosen so that the work of an operation
does not depend on the draw:
- spheroid(1, c) with c in [1.5, 2.5]: N, count and K are fixed, so the
  blocks path does the same work for every c;
- ellipsoids s * (1, 2, 3) with s in [0.8, 1.25]: adaptive quadrature takes
  the same 70770 area-density evaluations for every s, where changing the
  axis ratios moves it (12 s for 1:2:3, 8 s for 1.1:1.9:3 on one core);
- the order in which the drawn inputs run.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import numpy as np
from scipy import special

from nclaplace import cli
from nclaplace import quantization as qz
from nclaplace import reference_oracle as oracle
from nclaplace import surface as srf

HERE = Path(__file__).resolve().parent

SPHEROID_C = (1.5, 2.5)
ELLIPSOID_SHAPE = (1.0, 2.0, 3.0)
ELLIPSOID_SCALE = (0.8, 1.25)

#: inputs drawn per run; a run uses them in the drawn order, cycling if needed
POOL = 8


class CheckFailed(Exception):
    """The operation returned a result that disagrees with its reference."""


class Partial(Exception):
    """The operation wrote a report marked ``partial: true``."""


def draw(rng, lo: float, hi: float) -> list[float]:
    """POOL values spread over [lo, hi] (one per stratum), in shuffled order."""
    width = (hi - lo) / POOL
    values = [round(lo + width * (k + rng.uniform()), 6) for k in range(POOL)]
    return [values[i] for i in rng.permutation(POOL)]


def axes_arg(scale: float) -> str:
    return ",".join(f"{scale * a:.10g}" for a in ELLIPSOID_SHAPE)


def parse_axes(arg: str) -> tuple:
    return tuple(float(t) for t in arg.split(","))


def run_cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main([str(a) for a in argv])
    return rc, buf.getvalue()


def read_report(out: Path) -> dict:
    (path,) = out.glob("spectrum_*.json")
    report = json.loads(path.read_text())
    if report["config"].get("partial"):
        raise Partial(f"{path.name}: partial report")
    return report


def ellipsoid_area(axes) -> float:
    """Closed-form area from Legendre's incomplete elliptic integrals
    (DLMF 19.33.2); spheroids are the limits m = 0 and m = 1."""
    a, b, c = sorted(axes, reverse=True)
    if a == c:
        return 4.0 * math.pi * a * a
    phi = math.acos(c / a)
    m = a * a * (b * b - c * c) / (b * b * (a * a - c * c))
    s = math.sin(phi)
    elliptic = special.ellipeinc(phi, m) * s * s + special.ellipkinc(phi, m) * math.cos(phi) ** 2
    return 2.0 * math.pi * c * c + 2.0 * math.pi * a * b / s * elliptic


def coordinate_matrices_closed_form(axes, N: int):
    """X, Y, Z on the default paper grid (beta = 1) written from the embedding
    x = a1 w cos t, y = a2 w sin t, z = a3 u with w = sqrt(1 - u^2)."""
    a1, a2, a3 = axes
    hbar = 2.0 / N
    n = np.arange(1, N + 1, dtype=float)
    mid = -1.0 + hbar * (n[:-1] + 0.5)
    w = np.sqrt(np.clip(1.0 - mid * mid, 0.0, None))
    X = np.zeros((N, N), dtype=complex)
    Y = np.zeros((N, N), dtype=complex)
    i = np.arange(N - 1)
    X[i + 1, i] = X[i, i + 1] = 0.5 * a1 * w
    Y[i + 1, i] = -0.5j * a2 * w
    Y[i, i + 1] = 0.5j * a2 * w
    Z = np.diag((a3 * (-1.0 + hbar * n)).astype(complex))
    return {"X": X, "Y": Y, "Z": Z}


class Revolution:
    """spectrum on spheroid(1, c), N=1000, blocks, against the Richardson
    Sturm-Liouville reference within 5 hbar over the six lowest clusters."""

    name = "revolution"
    N, COUNT, K, CLUSTERS, TOL_HBAR = 1000, 12, 3, 6, 5.0
    GRIDS = (2000, 4000, 8000)

    def inputs(self, rng):
        return [{"c": c} for c in draw(rng, *SPHEROID_C)]

    def calls(self, p, out: Path):
        return [["spectrum", "--surface", "spheroid", "--axes", f"1,1,{p['c']}",
                 "--N", self.N, "--count", self.COUNT, "--K", self.K, "--out", out]]

    def reference(self, p):
        ref = oracle.revolution_spectrum_richardson(
            srf.spheroid(1.0, p["c"]), self.COUNT, self.GRIDS, self.COUNT
        )
        return sorted(sorted(ref.expanded(), key=abs)[: self.COUNT])

    def check(self, p, out: Path, stdouts, ref) -> float:
        report = read_report(out)
        gap = report["config"]["cluster_gap"]
        tol = self.TOL_HBAR * report["hbar"]
        want = sorted(oracle.cluster_multiplicities(ref, gap), key=lambda c: abs(c[0]))
        got = sorted(((c["mean"], c["multiplicity"]) for c in report["clusters"]), key=lambda c: abs(c[0]))
        if len(got) < self.CLUSTERS or len(want) < self.CLUSTERS:
            raise CheckFailed(f"fewer than {self.CLUSTERS} clusters: got {len(got)}, reference {len(want)}")
        worst = 0.0
        for (g, gm), (w, wm) in zip(got[: self.CLUSTERS], want[: self.CLUSTERS]):
            if gm != wm:
                raise CheckFailed(f"cluster {g:.6g} has multiplicity {gm}, reference {w:.6g} has {wm}")
            worst = max(worst, abs(g - w))
        if worst > tol:
            raise CheckFailed(f"cluster error {worst:.3e} exceeds 5 hbar = {tol:.3e}")
        return worst / tol


class TriaxialDense:
    """spectrum on ellipsoid s*(1,2,3), N=32, auto strategy (dense), against
    eigenvalues recorded for (1,2,3) scaled by 1/s^2 (the operator is
    homogeneous of degree -2 in the axes), to 1e-9."""

    name = "triaxial_dense"
    N, COUNT, TOL = 32, 9, 1e-9
    RECORDED = HERE / "triaxial_reference.json"

    def inputs(self, rng):
        return [{"axes": axes_arg(s)} for s in draw(rng, *ELLIPSOID_SCALE)]

    def calls(self, p, out: Path):
        return [["spectrum", "--surface", "ellipsoid", "--axes", p["axes"],
                 "--N", self.N, "--count", self.COUNT, "--out", out]]

    def reference(self, p):
        recorded = json.loads(self.RECORDED.read_text())
        if recorded["axes"] != list(ELLIPSOID_SHAPE) or recorded["N"] != self.N:
            raise ValueError(f"{self.RECORDED.name} does not hold N={self.N} on {ELLIPSOID_SHAPE}")
        s = parse_axes(p["axes"])[0] / ELLIPSOID_SHAPE[0]
        return [v / (s * s) for v in recorded["eigenvalues"][: self.COUNT]]

    def check(self, p, out: Path, stdouts, ref) -> float:
        got = sorted(e["value"] for e in read_report(out)["eigenvalues"])
        return compare_sorted(got, sorted(ref), lambda v: self.TOL * max(1.0, abs(v)))


class Classical:
    """trace (area by nested quadrature), axioms (products and SVDs) and
    dump-coords (NCLQ and JSON writers), against closed-form areas and
    closed-form coordinate matrices."""

    name = "classical"
    TRACE_N, AXIOM_N, DUMP_N, TOL = 200, (200, 400, 800), 400, 1e-9

    def inputs(self, rng):
        scales = draw(rng, *ELLIPSOID_SCALE)
        cs = draw(rng, *SPHEROID_C)
        return [{"axes": axes_arg(s), "c": c} for s, c in zip(scales, cs)]

    def calls(self, p, out: Path):
        return [
            ["trace", "--surface", "ellipsoid", "--axes", p["axes"], "--N", self.TRACE_N,
             "--beta", "auto", "--function", "1"],
            ["axioms", "--surface", "spheroid", "--axes", f"1,1,{p['c']}",
             "--N-list", ",".join(map(str, self.AXIOM_N)), "--out", out / "axioms"],
            ["dump-coords", "--surface", "ellipsoid", "--axes", p["axes"], "--N", self.DUMP_N,
             "--out", out / "coords"],
        ]

    def reference(self, p):
        return {
            "area": ellipsoid_area(parse_axes(p["axes"])),
            "spheroid_area": ellipsoid_area((1.0, 1.0, p["c"])),
            "coords": coordinate_matrices_closed_form(parse_axes(p["axes"]), self.DUMP_N),
        }

    def check(self, p, out: Path, stdouts, ref) -> float:
        area = ref["area"]
        values = dict(line.split(" = ") for line in stdouts[0].splitlines())
        errs = [abs(float(values[k]) - area) / area for k in ("quantized_trace", "quadrature_integral")]
        # trace(1) rows: |normalized trace of the identity - area|, and 2*pi*hbar*N = 4*pi at beta = 1
        (table,) = (out / "axioms").glob("axioms_*.csv")
        with open(table) as fh:
            rows = list(csv.reader(line for line in fh if not line.startswith("#")))[1:]
        if len(rows) != 5 * len(self.AXIOM_N):
            raise CheckFailed(f"axioms table has {len(rows)} rows")
        if not all(math.isfinite(float(v)) for r in rows for v in r[2:] if v):
            raise CheckFailed("axioms table has a non-finite entry")
        want = abs(4.0 * math.pi - ref["spheroid_area"])
        errs += [abs(float(r[2]) - want) / ref["spheroid_area"] for r in rows if r[1] == "trace(1)"]
        for label, M in ref["coords"].items():
            check_dump(out / "coords", label, M)
        worst = max(errs) / self.TOL
        if worst > 1.0:
            raise CheckFailed(f"area relative error {max(errs):.3e} exceeds {self.TOL:g}")
        return worst


def check_dump(directory: Path, label: str, want: np.ndarray) -> None:
    """NCLQ file re-encodes to the same bytes, matches the JSON dump exactly,
    and matches the closed-form matrix to rounding."""
    path = directory / f"coords_{label}.nclq"
    raw = path.read_bytes()
    M, flags = qz.read_matrix_binary(path)
    again = directory / f"coords_{label}.again.nclq"
    qz.write_matrix_binary(again, M, flags)
    if again.read_bytes() != raw:
        raise CheckFailed(f"{path.name}: NCLQ round trip is not byte-exact")
    if not np.array_equal(qz.read_matrix_json(directory / f"coords_{label}.json"), M):
        raise CheckFailed(f"coords_{label}.json differs from {path.name}")
    err = np.abs(M - want).max()
    if err > 1e-14 * np.abs(want).max():
        raise CheckFailed(f"{path.name} differs from the closed form by {err:.3e}")


def compare_sorted(got, want, tol) -> float:
    """Worst |got - want| over tolerance, for two ascending eigenvalue lists."""
    if len(got) != len(want):
        raise CheckFailed(f"{len(got)} eigenvalues, reference has {len(want)}")
    worst = max(abs(g - w) / tol(w) for g, w in zip(got, want))
    if worst > 1.0:
        raise CheckFailed(f"eigenvalue error is {worst:.3g} x tolerance")
    return worst


WORKLOADS = {w.name: w for w in (Revolution(), TriaxialDense(), Classical())}
