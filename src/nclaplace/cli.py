"""Command-line entry point.

Subcommands: spectrum | converge | axioms | trace | dump-coords.  The
surface flags --surface/--axes/--radius go through the same parser as a
surface config file (``surface.surface_from_spec``), so a flag that does not
apply to the surface kind is an error, not ignored.  Reports are written as
JSON and/or CSV with the fully resolved configuration embedded; identical
configurations produce byte-identical CSV output.  Exit codes: 0 success,
1 configuration error, 2 solver non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import sys
from pathlib import Path

from . import nc_laplacian as ncl
from . import quantization as qz
from . import reference_oracle as oracle
from . import surface as srf
from .errors import ConfigError, NCLaplaceError, SolverConvergenceError

#: functions accepted by the trace command, built from the surface coordinates
TRACE_FUNCTIONS = ("1", "z", "z2", "x2", "xy")


def _fmt(x) -> str:
    return "%.15g" % float(x)


def _add_surface_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--surface", default="sphere",
                   help="sphere | ellipsoid | spheroid, or a path to a config file")
    p.add_argument("--axes", default=None,
                   help="comma-separated semi-axes, e.g. 1,1,2 (ellipsoid/spheroid only)")
    p.add_argument("--radius", type=float, default=None,
                   help="sphere radius (sphere only; default 1)")


def _add_grid_args(p: argparse.ArgumentParser, size: bool = True, epsilon: bool = False) -> None:
    """Grid flags; --N and --epsilon only on the subcommands that read them."""
    if size:
        p.add_argument("--N", type=int, default=100, help="matrix size")
    p.add_argument("--beta", default="1",
                   help="grid scale parameter: a float, or 'auto' for area/(2*pi*(b-a))")
    p.add_argument("--grid-offset", choices=qz.GRID_OFFSETS, default="paper")
    if epsilon:
        p.add_argument("--epsilon", type=float, default=1e-12,
                       help="relative threshold for the regularized inverse of gamma")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nclaplace",
        description="Spectra of the commutator Laplacian on axisymmetric surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # no abbreviations: a flag a subcommand does not take (--N on axioms) must
    # not silently become a prefix of one it does (--N-list)
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add_parser("spectrum", help="compute the low spectrum and write a report")
    _add_surface_args(p)
    _add_grid_args(p, epsilon=True)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--format", choices=("json", "csv", "both"), default="both")
    p.add_argument("--strategy", choices=("auto", "dense", "blocks"), default="auto")
    p.add_argument("--count", type=int, default=9)
    p.add_argument("--K", type=int, default=None, help="block offset range (blocks strategy)")
    p.add_argument("--gap", type=float, default=None, help="cluster gap (default 10*hbar)")
    p.add_argument("--dump-coords", default=None, metavar="PATH",
                   help="also write the coordinate matrices under PATH")
    p.set_defaults(func=cmd_spectrum)

    p = add_parser("converge", help="eigenvalue errors against a classical reference")
    _add_surface_args(p)
    _add_grid_args(p, size=False, epsilon=True)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--N-list", dest="N_list", default=None,
                   help="comma-separated matrix sizes (at least two)")
    p.add_argument("--strategy", choices=("auto", "dense", "blocks"), default="auto")
    p.add_argument("--count", type=int, default=9)
    p.add_argument("--K", type=int, default=None)
    p.set_defaults(func=cmd_converge)

    p = add_parser("axioms", help="product/bracket defect table over coordinate pairs")
    _add_surface_args(p)
    _add_grid_args(p, size=False)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--N-list", dest="N_list", default="50,100,200")
    p.set_defaults(func=cmd_axioms)

    p = add_parser("trace", help="normalized trace of a built-in function vs quadrature")
    _add_surface_args(p)
    _add_grid_args(p)
    p.add_argument("--function", choices=TRACE_FUNCTIONS, default="1")
    p.set_defaults(func=cmd_trace)

    p = add_parser("dump-coords", help="write the quantized coordinate matrices")
    _add_surface_args(p)
    _add_grid_args(p)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--format", choices=("binary", "json", "both"), default="both")
    p.set_defaults(func=cmd_dump_coords)
    return parser


def resolve_surface(args) -> srf.SurfaceDescriptor:
    """The surface named by --surface: a built-in kind, or a config file path."""
    flags = {"semi_axes": args.axes, "radius": args.radius}
    spec = {key: value for key, value in flags.items() if value is not None}
    if args.surface in srf.SURFACE_KEYS:
        return srf.surface_from_spec({"kind": args.surface, **spec})
    if spec:
        raise ConfigError("--axes and --radius do not apply to a surface config file")
    return srf.load_surface_config(args.surface)


def resolve_beta(args, surf: srf.SurfaceDescriptor) -> float:
    if str(args.beta).lower() == "auto":
        return qz.default_beta(surf)
    try:
        beta = float(args.beta)
    except ValueError as exc:
        raise ConfigError(f"--beta must be a float or 'auto', got {args.beta!r}") from exc
    if beta <= 0:
        raise ConfigError("--beta must be positive")
    return beta


def _build_ops(args, surf):
    a, b = surf.z_interval
    beta = resolve_beta(args, surf)
    grid = qz.build_grid(args.N, a, b, beta, args.grid_offset)
    ops = ncl.build_operator_set(surf, grid, args.epsilon)
    return grid, ops


def _surface_tag(surf) -> str:
    return surf.name.replace("(", "_").replace(")", "").replace(",", "-")


def cmd_spectrum(args) -> int:
    surf = resolve_surface(args)
    grid, ops = _build_ops(args, surf)
    report = ncl.spectrum(
        ops,
        strategy=args.strategy,
        count=args.count,
        block_range=args.K,
        cluster_gap=args.gap,
    )
    formats = ("json", "csv") if args.format == "both" else (args.format,)
    stem = f"spectrum_{_surface_tag(surf)}_N{args.N}"
    written = report.save(args.out, stem, formats)
    if args.dump_coords:
        written += qz.dump_coordinate_matrices(ops.coords, args.dump_coords)

    ref = oracle.reference_for(surf, args.count)
    ref_values = None
    if ref is not None:
        expanded = sorted(sorted(ref.expanded(), key=abs)[: args.count])
        ref_values = sorted(
            (m for m, _ in oracle.cluster_multiplicities(expanded, report.config["cluster_gap"])),
            key=abs,
        )
    print(f"strategy={report.strategy}  N={args.N}  hbar={_fmt(grid.hbar)}")
    print("cluster  mean                multiplicity  oracle_delta")
    for ci, (mean, mult) in enumerate(sorted(report.clusters, key=lambda c: abs(c[0]))):
        delta = ""
        if ref_values is not None and ci < len(ref_values):
            delta = _fmt(abs(mean - ref_values[ci]))
        print(f"{ci:>7d}  {_fmt(mean):<18s}  {mult:>12d}  {delta}")
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_converge(args) -> int:
    surf = resolve_surface(args)
    if not args.N_list:
        raise ConfigError("--N-list is required (comma-separated, at least two sizes)")
    N_list = [int(t) for t in args.N_list.split(",") if t.strip()]
    if len(N_list) < 2:
        raise ConfigError("--N-list needs at least two values of N")
    beta = resolve_beta(args, surf)
    rows = ncl.convergence_study(
        surf,
        N_list,
        args.count,
        beta=beta,
        grid_offset=args.grid_offset,
        strategy=args.strategy,
        block_range=args.K,
        epsilon=args.epsilon,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    table = out / f"converge_{_surface_tag(surf)}.csv"
    with open(table, "w", newline="") as fh:
        fh.write(f"# surface = {surf.name}\n")
        fh.write(f"# beta = {_fmt(beta)}\n")
        fh.write(f"# grid_offset = {args.grid_offset}\n")
        writer = csv.writer(fh)
        writer.writerow(["N", "hbar", "cluster", "lambda", "reference", "abs_error", "fitted_order"])
        for row in rows:
            writer.writerow(
                [
                    row["N"],
                    _fmt(row["hbar"]),
                    row["cluster"],
                    _fmt(row["lambda"]),
                    _fmt(row["reference"]),
                    _fmt(row["abs_error"]),
                    "" if row["fitted_order"] is None else _fmt(row["fitted_order"]),
                ]
            )
    print(f"wrote {table}")
    clusters = sorted({r["cluster"] for r in rows})
    for ci in clusters:
        data = out / f"converge_{_surface_tag(surf)}_cluster{ci}.dat"
        with open(data, "w") as fh:
            fh.write("# gnuplot data: N  abs_error\n")
            fh.write(f"# surface = {surf.name}, cluster = {ci}\n")
            for row in rows:
                if row["cluster"] == ci:
                    fh.write(f"{row['N']} {_fmt(row['abs_error'])}\n")
        print(f"wrote {data}")
    return 0


def cmd_axioms(args) -> int:
    surf = resolve_surface(args)
    beta = resolve_beta(args, surf)
    a, b = surf.z_interval
    N_list = [int(t) for t in args.N_list.split(",") if t.strip()]
    if not N_list:
        raise ConfigError("--N-list needs at least one value of N")
    coords = dict(zip("xyz", surf.coordinates))
    pairs = ("x,y", "y,z", "z,x", "z,z")
    one = _builtin_function(surf, "1")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    table = out / f"axioms_{_surface_tag(surf)}.csv"
    area = srf.surface_area(surf)
    with open(table, "w", newline="") as fh:
        fh.write(f"# surface = {surf.name}\n")
        fh.write(f"# beta = {_fmt(beta)}\n")
        fh.write(f"# grid_offset = {args.grid_offset}\n")
        writer = csv.writer(fh)
        writer.writerow(["N", "pair", "product_defect", "bracket_defect", "norm_bound"])
        for N in N_list:
            grid = qz.build_grid(N, a, b, beta, args.grid_offset)
            # each coordinate quantized once; operator norm over the uniform bound
            mats = {c: qz.quantize_banded(f, grid) for c, f in coords.items()}
            ratio = {
                c: qz.spectral_norm(mats[c]) / qz.norm_bound(f, grid) for c, f in coords.items()
            }
            for label in pairs:
                names = label.split(",")
                f, g = (coords[c] for c in names)
                defects = qz.axiom_defects(f, g, grid, *(mats[c] for c in names))
                bound = max(ratio[c] for c in names)
                writer.writerow(
                    [N, label, _fmt(defects.product_defect), _fmt(defects.bracket_defect), _fmt(bound)]
                )
            trace_err = abs(qz.trace_functional(qz.quantize_banded(one, grid), grid) - area)
            writer.writerow([N, "trace(1)", _fmt(trace_err), "", ""])
    print(f"wrote {table}")
    return 0


def _builtin_function(surf, name: str):
    x, y, z = surf.coordinates
    if name == "1":
        # constants are defined on the whole axis: the normalized trace of the
        # identity works even when beta pushes the grid past the surface interval
        return srf.BandLimitedFunction({0: srf.constant_profile(1.0)}, (-math.inf, math.inf))
    if name == "z":
        return z
    if name == "z2":
        return srf.pointwise_product(z, z)
    if name == "x2":
        return srf.pointwise_product(x, x)
    if name == "xy":
        return srf.pointwise_product(x, y)
    raise ConfigError(f"unknown function {name!r}; choose from {TRACE_FUNCTIONS}")


def cmd_trace(args) -> int:
    surf = resolve_surface(args)
    beta = resolve_beta(args, surf)
    a, b = surf.z_interval
    grid = qz.build_grid(args.N, a, b, beta, args.grid_offset)
    f = _builtin_function(surf, args.function)
    t = qz.trace_functional(qz.quantize_banded(f, grid), grid)
    integral = srf.surface_integral(surf, f)
    print(f"function = {args.function}")
    print(f"quantized_trace = {_fmt(t)}")
    print(f"quadrature_integral = {_fmt(integral)}")
    print(f"abs_error = {_fmt(abs(t - integral))}")
    return 0


def cmd_dump_coords(args) -> int:
    surf = resolve_surface(args)
    beta = resolve_beta(args, surf)
    a, b = surf.z_interval
    grid = qz.build_grid(args.N, a, b, beta, args.grid_offset)
    coords = qz.coordinate_matrices(surf, grid)
    formats = ("binary", "json") if args.format == "both" else (args.format,)
    for path in qz.dump_coordinate_matrices(coords, args.out, formats):
        print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except SolverConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NCLaplaceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
