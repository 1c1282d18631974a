"""Command-line entry point.

Subcommands: spectrum | converge | axioms | trace | dump-coords.  The
surface flags --surface/--axes/--radius go through the same parser as a
surface config file (``surface.surface_from_spec``), so a flag that does not
apply to the surface kind is an error, not ignored.  spectrum, converge and
axioms write their tables through one writer, `write_report`: a CSV that
opens with the resolved configuration as sorted ``# key = value`` lines
(spectrum also writes the JSON report), so identical configurations produce
byte-identical CSV output.  dump-coords writes the coordinate matrices.
Exit codes: 0 success, 1 configuration or file error, 2 solver
non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from pathlib import Path

from . import nc_laplacian as ncl
from . import quantization as qz
from . import reference_oracle as oracle
from . import surface as srf
from .errors import (
    ConfigError,
    DomainError,
    NCLaplaceError,
    ResolutionError,
    SolverConvergenceError,
)

#: functions accepted by the trace command, built from the surface coordinates
TRACE_FUNCTIONS = ("1", "z", "z2", "x2", "xy")


def _fmt(value) -> str:
    """One rule for printed numbers and report cells."""
    if isinstance(value, float):
        return "%.15g" % value
    return "" if value is None else str(value)


def write_report(out_dir, stem: str, config: dict, rows, payload=None, formats=("csv",)) -> list:
    """Write ``<stem>.json`` from `payload` when "json" is in `formats`, and
    ``<stem>.csv`` when "csv" is: the sorted ``# key = value`` lines of
    `config`, then `rows` (header first), each cell a float as %.15g, None
    as empty, anything else as str.  Returns the paths written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if "json" in formats:
        path = out / f"{stem}.json"
        path.write_text(json.dumps(payload, indent=2) + "\n")
        written.append(path)
    if "csv" in formats:
        path = out / f"{stem}.csv"
        with open(path, "w", newline="") as fh:
            fh.writelines(f"# {key} = {config[key]}\n" for key in sorted(config))
            csv.writer(fh).writerows([_fmt(v) for v in row] for row in rows)
        written.append(path)
    return written


def _size_list(text: str) -> list:
    try:
        sizes = [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        sizes = []
    if not sizes:
        raise argparse.ArgumentTypeError(f"expected comma-separated matrix sizes, got {text!r}")
    return sizes


def _add_surface_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--surface", default="sphere",
                   help="sphere | ellipsoid | spheroid, or a path to a config file")
    p.add_argument("--axes", default=None,
                   help="comma-separated semi-axes, e.g. 1,1,2 (ellipsoid/spheroid only)")
    p.add_argument("--radius", type=float, default=None,
                   help="sphere radius (sphere only; default 1)")


def _add_grid_args(p: argparse.ArgumentParser, size: bool = True) -> None:
    """Grid flags; --N only on the subcommands that read it."""
    if size:
        p.add_argument("--N", type=int, default=100, help="matrix size")
    p.add_argument("--beta", default="1",
                   help="grid scale parameter: a float, or 'auto' for area/(2*pi*(b-a)); "
                        "the grid fits the surface only for beta <= 1 (paper offset)")
    p.add_argument("--grid-offset", choices=qz.GRID_OFFSETS, default="paper")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  Each subcommand stores
    the name of its handler, which `main` looks up when it runs, so a
    handler replaced after the first call is still the one called."""
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
    _add_grid_args(p)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--format", choices=("json", "csv", "both"), default="both")
    p.add_argument("--strategy", choices=("auto", "dense", "blocks"), default="auto")
    p.add_argument("--count", type=int, default=9)
    p.add_argument("--K", type=int, default=None, help="block offset range (blocks strategy)")
    p.add_argument("--gap", type=float, default=None, help="cluster gap (default 10*hbar)")
    p.add_argument("--dump-coords", default=None, metavar="PATH",
                   help="also write the coordinate matrices under PATH")
    p.set_defaults(func="cmd_spectrum")

    p = add_parser("converge", help="eigenvalue errors against a classical reference")
    _add_surface_args(p)
    _add_grid_args(p, size=False)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--N-list", dest="N_list", type=_size_list, required=True,
                   help="comma-separated matrix sizes (at least two)")
    p.add_argument("--strategy", choices=("auto", "dense", "blocks"), default="auto")
    p.add_argument("--count", type=int, default=9)
    p.add_argument("--K", type=int, default=None)
    p.set_defaults(func="cmd_converge")

    p = add_parser("axioms", help="product/bracket defect table over coordinate pairs")
    _add_surface_args(p)
    _add_grid_args(p, size=False)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--N-list", dest="N_list", type=_size_list, default="50,100,200",
                   help="comma-separated matrix sizes")
    p.set_defaults(func="cmd_axioms")

    p = add_parser("trace", help="normalized trace of a built-in function vs quadrature")
    _add_surface_args(p)
    _add_grid_args(p)
    p.add_argument("--function", choices=TRACE_FUNCTIONS, default="1")
    p.set_defaults(func="cmd_trace")

    p = add_parser("dump-coords", help="write the quantized coordinate matrices")
    _add_surface_args(p)
    _add_grid_args(p)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--format", choices=("binary", "json", "both"), default="both")
    p.set_defaults(func="cmd_dump_coords")
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


def _grid(args, surf: srf.SurfaceDescriptor, N: int, fitted: bool = True) -> qz.QuantizationGrid:
    """The grid of --N/--beta/--grid-offset.  With `fitted`, a grid whose
    nodes leave the surface interval, where the coordinates cannot be
    quantized, is refused with a ConfigError that names --beta."""
    a, b = surf.z_interval
    beta = resolve_beta(args, surf)
    grid = qz.build_grid(N, a, b, beta, args.grid_offset)
    if fitted:
        nodes = grid.nodes()
        try:
            surf.coordinates[2].check_domain(nodes)
        except DomainError:
            largest = beta * (b - a) / (nodes[-1] - a)
            raise ConfigError(
                f"--beta {beta:.6g} puts the N = {N} grid on z in [{nodes[0]:g}, {nodes[-1]:g}], "
                f"past the surface interval [{a:g}, {b:g}]; the grid fits only for smaller "
                f"beta (beta <= {largest:.6g})"
            ) from None
    return grid


def _grid_config(args, surf: srf.SurfaceDescriptor) -> dict:
    """The configuration keys converge and axioms share with spectrum."""
    return {
        "surface": surf.name,
        "semi_axes": list(surf.semi_axes) if surf.semi_axes else None,
        "beta": resolve_beta(args, surf),
        "grid_offset": args.grid_offset,
        "N_list": args.N_list,
    }


def _surface_tag(surf) -> str:
    return surf.name.replace("(", "_").replace(")", "").replace(",", "-")


def cmd_spectrum(args) -> int:
    surf = resolve_surface(args)
    grid = _grid(args, surf, args.N)
    ops = ncl.build_operator_set(surf, grid)
    report = ncl.spectrum(
        ops,
        strategy=args.strategy,
        count=args.count,
        block_range=args.K,
        cluster_gap=args.gap,
    )
    formats = ("json", "csv") if args.format == "both" else (args.format,)
    stem = f"spectrum_{_surface_tag(surf)}_N{args.N}"
    written = write_report(
        args.out, stem, report.config, report.to_csv_rows(), report.to_json_dict(), formats
    )
    if args.dump_coords:
        written += qz.dump_coordinate_matrices(ops.coords, args.dump_coords)

    try:
        ref = oracle.reference_for(surf, args.count)
    except ResolutionError:  # the solve stands; only the printed deltas are lost
        ref, oracle_line = None, "oracle=unresolved"
    else:
        oracle_line = "oracle=none" if ref is None else (
            f"oracle={ref.entries[0].source}  "
            f"max_error_estimate={_fmt(float(ref.metadata.get('max_error_estimate', 0.0)))}"
        )
    ref_values = [] if ref is None else ref.cluster_means(args.count, report.config["cluster_gap"])
    print(f"strategy={report.strategy}  N={args.N}  hbar={_fmt(grid.hbar)}")
    print(oracle_line)
    print("cluster  mean                multiplicity  oracle_delta")
    for ci, (mean, mult) in enumerate(sorted(report.clusters, key=lambda c: abs(c[0]))):
        delta = _fmt(abs(mean - ref_values[ci])) if ci < len(ref_values) else ""
        print(f"{ci:>7d}  {_fmt(mean):<18s}  {mult:>12d}  {delta}")
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_converge(args) -> int:
    surf = resolve_surface(args)
    for N in args.N_list:  # refuse a grid that leaves the surface before any solve
        _grid(args, surf, N)
    config = {
        **_grid_config(args, surf),
        "strategy": ncl.resolve_strategy(args.strategy, surf.revolution),
        "count": args.count,
        "block_range": args.K,
    }
    rows = ncl.convergence_study(
        surf, args.N_list, args.count, beta=config["beta"], grid_offset=args.grid_offset,
        strategy=args.strategy, block_range=args.K,
    )
    table = [list(rows[0])] + [list(row.values()) for row in rows]
    for path in write_report(args.out, f"converge_{_surface_tag(surf)}", config, table):
        print(f"wrote {path}")
    return 0


def cmd_axioms(args) -> int:
    surf = resolve_surface(args)
    config = _grid_config(args, surf)
    coords = dict(zip("xyz", surf.coordinates))
    one = _builtin_function(surf, "1")
    area = srf.surface_area(surf)
    rows = [["N", "pair", "product_defect", "bracket_defect", "norm_bound"]]
    for N in args.N_list:
        grid = _grid(args, surf, N)
        # each coordinate quantized once; operator norm over the uniform bound
        mats = {c: qz.quantize_diagonals(f, grid) for c, f in coords.items()}
        ratio = {c: qz.spectral_norm(mats[c], N) / qz.norm_bound(f, grid) for c, f in coords.items()}
        for label in ("x,y", "y,z", "z,x", "z,z"):
            names = label.split(",")
            f, g = (coords[c] for c in names)
            defects = qz.axiom_defects(f, g, grid, *(mats[c] for c in names))
            bound = max(ratio[c] for c in names)
            rows.append([N, label, defects.product_defect, defects.bracket_defect, bound])
        trace_err = abs(qz.trace_functional(qz.quantize_diagonals(one, grid), grid) - area)
        rows.append([N, "trace(1)", trace_err, None, None])
    for path in write_report(args.out, f"axioms_{_surface_tag(surf)}", config, rows):
        print(f"wrote {path}")
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
    # the constant is defined past the surface interval (`_builtin_function`)
    grid = _grid(args, surf, args.N, fitted=args.function != "1")
    f = _builtin_function(surf, args.function)
    t = qz.trace_functional(qz.quantize_diagonals(f, grid), grid)
    # the integral of 1 is the area, cached on the surface (`--beta auto` needs it too)
    integral = srf.surface_area(surf) if args.function == "1" else srf.surface_integral(surf, f)
    print(f"function = {args.function}")
    print(f"quantized_trace = {_fmt(t)}")
    print(f"quadrature_integral = {_fmt(integral)}")
    print(f"abs_error = {_fmt(abs(t - integral))}")
    return 0


def cmd_dump_coords(args) -> int:
    surf = resolve_surface(args)
    coords = qz.coordinate_matrices(surf, _grid(args, surf, args.N))
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
        return globals()[args.func](args)
    except SolverConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NCLaplaceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
