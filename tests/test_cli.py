import csv
import json
import math
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import nclaplace as nc
from nclaplace import cli, nc_laplacian
from nclaplace import quantization as qz
from nclaplace.cli import main
from nclaplace.quantization import (
    norm_bound,
    read_matrix_binary,
    read_matrix_json,
    write_matrix_binary,
    write_matrix_json,
)


def test_spectrum_small_sphere_contains_kernel(tmp_path, capsys):
    code = main(
        [
            "spectrum",
            "--surface", "sphere",
            "--N", "2",
            "--strategy", "dense",
            "--count", "4",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    payload = json.loads((tmp_path / "spectrum_sphere_N2.json").read_text())
    values = [e["value"] for e in payload["eigenvalues"]]
    assert min(abs(v) for v in values) < 1e-12
    # the resolved configuration travels with the report
    assert payload["config"]["beta"] == 1.0
    assert payload["config"]["grid_offset"] == "paper"
    # gamma^{-1} is the exact inverse: no regularization setting to record
    assert not {"epsilon", "gamma_truncated_modes"} & set(payload["config"])


def test_spectrum_blocks_summary_has_oracle_deltas(tmp_path, capsys):
    code = main(
        [
            "spectrum",
            "--surface", "sphere",
            "--N", "80",
            "--strategy", "blocks",
            "--count", "9",
            "--K", "2",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "strategy=blocks" in out
    assert "oracle_delta" in out
    assert "oracle=analytic  max_error_estimate=0\n" in out
    payload = json.loads((tmp_path / "spectrum_sphere_N80.json").read_text())
    mults = sorted(c["multiplicity"] for c in payload["clusters"])
    assert mults == [1, 3, 5]
    assert payload["config"]["cluster_gap"] == pytest.approx(10 * 2 / 80)


@pytest.mark.parametrize(
    "flags, source",
    [(["--surface", "spheroid", "--axes", "1,2"], "galerkin"),
     (["--surface", "ellipsoid", "--axes", "1,2,3"], "none")],
)
def test_spectrum_summary_names_the_oracle(tmp_path, capsys, flags, source):
    assert main(["spectrum", *flags, "--N", "12", "--count", "4", "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    oracle_line = [l for l in lines if l.startswith("oracle=")]
    if source == "none":
        assert oracle_line == ["oracle=none"]
        return
    fields = dict(f.split("=") for f in oracle_line[0].split())
    assert fields["oracle"] == source
    want = nc.reference_for(nc.spheroid(1, 2), 4).metadata["max_error_estimate"]
    assert float(fields["max_error_estimate"]) == pytest.approx(want, rel=1e-12)
    assert 0 < want <= 1e-9


def test_unresolved_oracle_does_not_fail_the_solve(tmp_path, capsys, monkeypatch):
    # spheroid(1,10) needs 48 Legendre functions per mode; allow only 24
    monkeypatch.setattr(nc.reference_oracle, "GALERKIN_MAX_DEGREE", 24)
    argv = ["spectrum", "--surface", "spheroid", "--axes", "1,10", "--N", "12", "--count", "12"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "oracle=unresolved" in lines
    header = lines.index("cluster  mean                multiplicity  oracle_delta")
    assert all(len(line.split()) == 3 for line in lines[header + 1 :] if not line.startswith("wrote"))
    assert len(list(tmp_path.glob("spectrum_*"))) == 2


def test_spectrum_gap_flag_overrides_clustering(tmp_path):
    code = main(
        [
            "spectrum",
            "--surface", "sphere",
            "--N", "40",
            "--strategy", "blocks",
            "--count", "9",
            "--K", "2",
            "--gap", "100",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    payload = json.loads((tmp_path / "spectrum_sphere_N40.json").read_text())
    assert payload["config"]["cluster_gap"] == 100.0
    assert len(payload["clusters"]) == 1  # everything merges under a huge gap


@pytest.mark.parametrize("gap", ["-1", "nan", "inf", "-inf"])
def test_spectrum_refuses_a_gap_that_is_not_finite_and_nonnegative(gap, tmp_path, capsys):
    argv = ["spectrum", "--N", "12", "--count", "4", f"--gap={gap}", "--out", str(tmp_path)]
    assert main(argv) == 1
    assert "cluster gap must be finite and nonnegative" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_spectrum_accepts_a_zero_gap(tmp_path):
    argv = ["spectrum", "--N", "12", "--count", "4", "--gap", "0", "--out", str(tmp_path)]
    assert main(argv) == 0
    payload = json.loads((tmp_path / "spectrum_sphere_N12.json").read_text())
    assert payload["config"]["cluster_gap"] == 0.0


@pytest.mark.parametrize("command", ["spectrum", "dump-coords"])
@pytest.mark.parametrize(
    "flags, key",
    [(["--radius", "1e200"], "radius"), (["--radius", "1e-200"], "radius"),
     (["--surface", "ellipsoid", "--axes", "1e200,1e200,1e200"], "semi_axes"),
     (["--surface", "ellipsoid", "--axes", "1e-200,1,1"], "semi_axes")],
    ids=["huge-radius", "tiny-radius", "huge-axes", "tiny-axis"],
)
def test_sizes_outside_the_range_exit_one_and_write_nothing(command, flags, key, tmp_path, capsys):
    assert main([command, *flags, "--N", "8", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be a finite positive number in [1e-50, 1e+50]")
    assert not list(tmp_path.iterdir())


def test_narrow_block_range_is_config_error(tmp_path, capsys):
    # K=1 leaves out blocks +-2, which hold two members of the l=2 cluster
    code = main(
        [
            "spectrum",
            "--surface", "sphere",
            "--N", "100",
            "--count", "9",
            "--K", "1",
            "--out", str(tmp_path),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "below the largest kept magnitude" in err and "widen the block range K" in err
    assert not list(tmp_path.glob("spectrum_*"))


def test_spectrum_dense_report_is_deterministic(tmp_path):
    args = [
        "spectrum",
        "--surface", "ellipsoid",
        "--axes", "1,2,3",
        "--N", "8",
        "--strategy", "dense",
    ]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    payload = json.loads((tmp_path / "a" / "spectrum_ellipsoid_1-2-3_N8.json").read_text())
    assert payload["strategy"] == "dense"
    assert len(payload["eigenvalues"]) == 9
    a = (tmp_path / "a" / "spectrum_ellipsoid_1-2-3_N8.csv").read_bytes()
    b = (tmp_path / "b" / "spectrum_ellipsoid_1-2-3_N8.csv").read_bytes()
    assert a == b
    assert b"# partial" not in a


def test_spectrum_banded_report_is_deterministic(tmp_path):
    # auto picks banded on a triaxial surface; its counters go into the JSON
    # report only, and two runs write the same CSV bytes
    args = ["spectrum", "--surface", "ellipsoid", "--axes", "1,2,3", "--N", "16"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    payload = json.loads((tmp_path / "a" / "spectrum_ellipsoid_1-2-3_N16.json").read_text())
    assert payload["strategy"] == "banded"
    diagnostics = payload["diagnostics"]
    assert set(diagnostics) == {"sector_dims", "half_bandwidth", "shift", "solves", "residual_margin"}
    assert diagnostics["sector_dims"] == [128, 128] and diagnostics["solves"] > 0
    a = (tmp_path / "a" / "spectrum_ellipsoid_1-2-3_N16.csv").read_bytes()
    assert a == (tmp_path / "b" / "spectrum_ellipsoid_1-2-3_N16.csv").read_bytes()
    for key in diagnostics:
        assert key.encode() not in a


def test_triaxial_above_dense_cap_exits_one(tmp_path, capsys):
    args = ["spectrum", "--surface", "ellipsoid", "--axes", "1,2,3", "--N", "81",
            "--strategy", "dense", "--out", str(tmp_path)]
    assert main(args) == 1
    assert "N <= 80" in capsys.readouterr().err
    assert not list(tmp_path.glob("spectrum_*"))


@pytest.mark.parametrize("command", ["spectrum", "converge"])
def test_iterative_strategy_is_rejected(command, tmp_path, capsys):
    args = [command, "--strategy", "iterative", "--out", str(tmp_path)]
    assert main(args) == 1
    assert "invalid choice: 'iterative'" in capsys.readouterr().err


def test_triaxial_dense_succeeds_blocks_fails(tmp_path, capsys):
    base = [
        "spectrum",
        "--surface", "ellipsoid",
        "--axes", "1,2,3",
        "--N", "30",
        "--count", "5",
        "--out", str(tmp_path),
    ]
    assert main(base + ["--strategy", "dense"]) == 0
    code = main(base + ["--strategy", "blocks"])
    assert code == 1
    err = capsys.readouterr().err
    assert "equatorial" in err or "offset" in err or "theta" in err


def test_triaxial_far_above_dense_cap_is_refused_before_gamma(tmp_path, capsys, monkeypatch):
    # the refusal costs what N = 81 costs: the dense N x N decomposition of
    # the commutator-square sum is never started; auto (banded) has its own cap
    def no_eigh(M):
        raise AssertionError(f"gamma decomposed at size {len(M)}")

    monkeypatch.setattr(nc_laplacian, "_eigh", no_eigh)
    args = ["spectrum", "--surface", "ellipsoid", "--axes", "1,2,3", "--N", "2000",
            "--out", str(tmp_path)]
    assert main(args + ["--strategy", "dense"]) == 1
    assert "N <= 80" in capsys.readouterr().err
    assert main(args) == 1
    assert f"N <= {nc_laplacian.BANDED_CAP} " in capsys.readouterr().err
    assert not list(tmp_path.glob("spectrum_*"))


def test_zero_eigenmatrix_exits_two(tmp_path, capsys, monkeypatch):
    original = nc_laplacian._dense_pairs

    def zeroed(ops, count):
        pairs, diagnostics = original(ops, count)
        lam, block, F = pairs[0]
        pairs[0] = (lam, block, np.zeros_like(F))
        return pairs, diagnostics

    monkeypatch.setattr(nc_laplacian, "_dense_pairs", zeroed)
    args = ["spectrum", "--surface", "ellipsoid", "--axes", "1,2,3", "--N", "8",
            "--strategy", "dense", "--out", str(tmp_path)]
    assert main(args) == 2
    assert "residuals exceed the solver tolerance" in capsys.readouterr().err


def test_block_eigenmatrix_failing_the_gate_exits_two(tmp_path, capsys, monkeypatch):
    original = nc_laplacian.OffsetBlock.vectors

    def zeroed(self, values):
        return np.zeros_like(original(self, values))

    monkeypatch.setattr(nc_laplacian.OffsetBlock, "vectors", zeroed)
    args = ["spectrum", "--surface", "spheroid", "--axes", "1,2", "--N", "40", "--count", "4",
            "--K", "2", "--out", str(tmp_path)]
    assert main(args) == 2
    assert "residuals exceed the solver tolerance" in capsys.readouterr().err
    assert not list(tmp_path.glob("spectrum_*"))


def test_failed_bisection_exits_two(tmp_path, capsys, monkeypatch):
    get_lapack_funcs = sla.get_lapack_funcs

    def failing(names, *args, **kwargs):
        func = get_lapack_funcs(names, *args, **kwargs)
        if names != "stebz":
            return func
        return lambda *a: (*func(*a)[:4], 2)

    monkeypatch.setattr(sla, "get_lapack_funcs", failing)
    args = ["spectrum", "--surface", "spheroid", "--axes", "1,2", "--N", "40", "--count", "4",
            "--K", "2", "--out", str(tmp_path)]
    assert main(args) == 2
    assert "bisection on the offset-0 block failed (info=2)" in capsys.readouterr().err
    assert not list(tmp_path.glob("spectrum_*"))


def test_one_process_runs_commands_in_turn(tmp_path, capsys, monkeypatch):
    # the parser is built once per process: parsing leaves no state behind
    spectrum = ["spectrum", "--surface", "spheroid", "--axes", "1,2", "--N", "40",
                "--count", "4", "--K", "2", "--out", str(tmp_path / "a")]
    assert main(spectrum) == 0
    first = (tmp_path / "a" / "spectrum_spheroid_1-2_N40.csv").read_text()
    assert "strategy=blocks" in capsys.readouterr().out
    assert main(["axioms", "--N-list", "8,12", "--out", str(tmp_path / "b")]) == 0
    rows = list(csv.reader(l for l in (tmp_path / "b" / "axioms_sphere.csv").open() if l[0] != "#"))
    assert [r[0] for r in rows[1:]] == ["8"] * 5 + ["12"] * 5
    assert "wrote" in capsys.readouterr().out
    assert main(["spectrum", "--no-such-flag"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    spectrum[-1] = str(tmp_path / "c")
    assert main(spectrum) == 0
    assert (tmp_path / "c" / "spectrum_spheroid_1-2_N40.csv").read_text() == first
    assert "strategy=blocks" in capsys.readouterr().out
    # a handler replaced after the parser was built is the one that runs
    monkeypatch.setattr(cli, "cmd_spectrum", lambda args: 7)
    assert main(spectrum) == 7


def test_spectrum_csv_deterministic(tmp_path):
    # every command that writes a CSV table goes through the same writer
    runs = [
        (["spectrum", "--surface", "sphere", "--N", "24", "--strategy", "blocks",
          "--count", "6", "--K", "2"], "spectrum_sphere_N24.csv"),
        (["converge", "--surface", "sphere", "--N-list", "50,100", "--count", "4", "--K", "1"],
         "converge_sphere.csv"),
        (["axioms", "--surface", "sphere", "--N-list", "50,100"], "axioms_sphere.csv"),
    ]
    for args, name in runs:
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name


def test_converge_requires_two_sizes(tmp_path, capsys):
    code = main(
        ["converge", "--surface", "sphere", "--N-list", "100", "--out", str(tmp_path)]
    )
    assert code == 1
    assert "two" in capsys.readouterr().err


def test_converge_sphere_table(tmp_path):
    code = main(
        [
            "converge",
            "--surface", "sphere",
            "--N-list", "50,100",
            "--count", "4",
            "--K", "1",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    table = (tmp_path / "converge_sphere.csv").read_text().splitlines()
    header = [l for l in table if l.startswith("N,")][0]
    assert header == "N,hbar,cluster,lambda,reference,abs_error,fitted_order"
    rows = [l.split(",") for l in table if l and l[0].isdigit()]
    errs = {(r[0], r[2]): float(r[5]) for r in rows}
    assert errs[("100", "1")] < errs[("50", "1")]
    config = dict(l[2:].split(" = ") for l in table if l.startswith("#"))
    assert config["count"] == "4"
    assert config["block_range"] == "1"
    assert config["strategy"] == "blocks"  # resolved, as in the spectrum CSV
    assert "epsilon" not in config
    assert config["N_list"] == "[50, 100]"
    assert not list(tmp_path.glob("*.dat"))


def test_converge_repeated_sizes_is_config_error(tmp_path, capsys):
    argv = ["converge", "--surface", "sphere", "--N-list", "50,50,100", "--count", "4", "--K", "1"]
    assert main([*argv, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "distinct" in err
    assert not list(tmp_path.glob("converge_*.csv"))


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--surface", "sphere", "--N", "4", "--strategy", "dense", "--count", "2"],
        ["dump-coords", "--surface", "sphere", "--N", "4"],
    ],
    ids=lambda argv: argv[0],
)
def test_out_naming_a_file_exits_one(argv, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main([*argv, "--out", str(taken)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(taken) in err


def test_converge_spheroid_uses_separated_reference(tmp_path):
    code = main(
        [
            "converge",
            "--surface", "spheroid",
            "--axes", "1,2",
            "--N-list", "60,120",
            "--count", "4",
            "--K", "2",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    import csv

    lines = [
        l for l in (tmp_path / "converge_spheroid_1-2.csv").read_text().splitlines()
        if not l.startswith("#")
    ]
    rows = list(csv.reader(lines))[1:]
    refs = {r[2]: float(r[4]) for r in rows}
    assert refs["1"] == pytest.approx(-0.7287949, abs=1e-3)


def test_axioms_table(tmp_path):
    code = main(
        [
            "axioms",
            "--surface", "sphere",
            "--N-list", "50,100",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    import csv

    lines = (tmp_path / "axioms_sphere.csv").read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    rows = list(csv.reader(data))
    assert rows[0] == ["N", "pair", "product_defect", "bracket_defect", "norm_bound"]
    body = rows[1:]
    zz = [r for r in body if r[1] == "z,z"]
    assert zz and all(float(r[2]) == 0.0 for r in zz)
    trace_rows = [r for r in body if r[1] == "trace(1)"]
    assert trace_rows and all(float(r[2]) < 1e-10 for r in trace_rows)
    bounds = [float(r[4]) for r in body if r[4]]
    assert all(b <= 1.0 + 1e-12 for b in bounds)


def test_axioms_quantizes_each_matrix_once(tmp_path, monkeypatch):
    # per N: x, y, z, and fg and {f, g} for each of the 4 pairs, and the constant 1
    calls = []
    original = qz.quantize_diagonals

    def counting(f, grid):
        calls.append(grid.N)
        return original(f, grid)

    monkeypatch.setattr(qz, "quantize_diagonals", counting)
    argv = ["axioms", "--surface", "ellipsoid", "--axes", "1,2,3", "--N-list", "200,400,800"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert sorted(calls) == [200] * 12 + [400] * 12 + [800] * 12


def test_axioms_empty_size_list_is_config_error(tmp_path, capsys):
    code = main(["axioms", "--surface", "sphere", "--N-list", ",", "--out", str(tmp_path)])
    assert code == 1
    assert "--N-list" in capsys.readouterr().err
    assert not list(tmp_path.glob("axioms_*.csv"))


@pytest.mark.parametrize("offset", ["paper", "symmetric"])
@pytest.mark.parametrize(
    "flags, surf",
    [
        (["--surface", "sphere"], nc.sphere()),
        (["--surface", "spheroid", "--axes", "1,2"], nc.spheroid(1.0, 2.0)),
    ],
    ids=["sphere", "spheroid-1-2"],
)
def test_axioms_table_matches_dense_svd(tmp_path, flags, surf, offset):
    argv = ["axioms", *flags, "--grid-offset", offset, "--N-list", "50,100"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    import csv

    (table,) = tmp_path.glob("axioms_*.csv")
    lines = [l for l in table.read_text().splitlines() if not l.startswith("#")]
    got = {(r[0], r[1]): r[2:] for r in list(csv.reader(lines))[1:]}

    # reference: dense products and full SVDs
    sigma = lambda M: np.linalg.svd(M, compute_uv=False)[0]
    a, b = surf.z_interval
    fun = dict(zip("xyz", surf.coordinates))
    for N in (50, 100):
        grid = nc.build_grid(N, a, b, 1.0, offset)
        T = {c: nc.quantize(f, grid) for c, f in fun.items()}
        ratio = {c: sigma(T[c]) / norm_bound(f, grid) for c, f in fun.items()}
        for label in ("x,y", "y,z", "z,x", "z,z"):
            f, g = label.split(",")
            P = T[f] @ T[g] - nc.quantize(nc.pointwise_product(fun[f], fun[g]), grid)
            B = (T[f] @ T[g] - T[g] @ T[f]) / (1j * grid.hbar) - nc.quantize(
                nc.bracket_function(fun[f], fun[g]), grid
            )
            want = (sigma(P), sigma(B), max(ratio[f], ratio[g]))
            row = [float(v) for v in got[(str(N), label)]]
            for w, v in zip(want, row):
                assert v == pytest.approx(w, rel=1e-12, abs=1e-14), (N, label)


def _complex_band_norm(M, N):
    """sqrt(lambda_max(M^H M)) from a complex hermitian band (LAPACK ?hbevx),
    for M an offset -> diagonal map of an N x N matrix."""
    offsets = sorted(M)
    M = sp.dia_matrix((np.array([M[k] for k in offsets]), offsets), shape=(N, N)).tocsr()
    A = (M.conj().T @ M).tocoo()
    n = A.shape[0]
    low = A.row >= A.col
    offset = A.row[low] - A.col[low]
    band = np.zeros((offset.max() + 1, n), dtype=complex)
    band[offset, A.col[low]] = A.data[low]
    lam = sla.eigvals_banded(band, lower=True, select="i", select_range=(n - 1, n - 1))[0]
    return float(np.sqrt(max(lam, 0.0)))


@pytest.mark.parametrize("flags", [["spheroid", "--axes", "1,1,2"], ["ellipsoid", "--axes", "1,2,3"]])
def test_axioms_real_band_matches_complex_band(tmp_path, monkeypatch, flags):
    argv = ["axioms", "--surface", *flags, "--N-list", "200,400,800"]

    def rows(out):
        assert main([*argv, "--out", str(out)]) == 0
        (table,) = out.glob("axioms_*.csv")
        return table.read_text().splitlines()

    real = rows(tmp_path / "real")
    calls = []

    def complex_norm(M, N):
        calls.append(N)
        return _complex_band_norm(M, N) if any(np.any(d) for d in M.values()) else 0.0

    monkeypatch.setattr(qz, "spectral_norm", complex_norm)
    hermitian = rows(tmp_path / "complex")
    # every norm of the table went through the substitute: per N, the three
    # coordinates and the two defects of each of the four pairs
    assert sorted(calls) == [200] * 11 + [400] * 11 + [800] * 11
    real, hermitian = ([l for l in t if not l.startswith("#")] for t in (real, hermitian))
    assert len(real) == len(hermitian) == 1 + 3 * 5
    assert real[0] == hermitian[0]
    for got, want in zip(csv.reader(real[1:]), csv.reader(hermitian[1:])):
        assert got[:2] == want[:2]
        if got[1] in ("z,z", "trace(1)"):
            assert got == want
        else:
            for g, w in zip(got[2:], want[2:]):
                assert float(g) == pytest.approx(float(w), rel=1e-14, abs=0), got


def test_trace_identity_function(capsys):
    assert main(["trace", "--surface", "sphere", "--N", "64", "--beta", "auto", "--function", "1"]) == 0
    out = capsys.readouterr().out
    err = float([l for l in out.splitlines() if l.startswith("abs_error")][0].split("=")[1])
    assert err < 1e-10


def test_trace_of_one_integrates_once(capsys, monkeypatch):
    # --beta auto needs the area, and the integral of 1 is that same area
    calls = []
    surface_integral = nc.surface.surface_integral

    def counting(*args, **kwargs):
        calls.append(args)
        return surface_integral(*args, **kwargs)

    monkeypatch.setattr(nc.surface, "surface_integral", counting)
    argv = ["trace", "--surface", "ellipsoid", "--axes", "1.1,2.2,3.3", "--N", "40",
            "--beta", "auto", "--function", "1"]
    assert main(argv) == 0
    assert len(calls) == 1
    lines = dict(l.split(" = ") for l in capsys.readouterr().out.splitlines())
    assert lines["quadrature_integral"] == cli._fmt(surface_integral(*calls[0]))


def test_trace_odd_function_reports_finite_sum(capsys):
    assert main(["trace", "--surface", "sphere", "--N", "40", "--function", "z"]) == 0
    out = capsys.readouterr().out
    lines = dict(l.split(" = ") for l in out.splitlines() if " = " in l)
    grid = nc.build_grid(40, -1, 1, 1)
    expected = 2 * math.pi * grid.hbar * grid.nodes().sum()
    assert float(lines["quantized_trace"]) == pytest.approx(expected, abs=1e-12)
    assert float(lines["quadrature_integral"]) == pytest.approx(0.0, abs=1e-9)


def test_trace_square_error_halves(capsys):
    errs = []
    for N in (100, 200):
        assert main(["trace", "--surface", "sphere", "--N", str(N), "--function", "z2"]) == 0
        out = capsys.readouterr().out
        errs.append(
            float([l for l in out.splitlines() if l.startswith("abs_error")][0].split("=")[1])
        )
    assert errs[0] / errs[1] >= 1.9


def test_trace_xy_vanishes_on_triaxial_without_warning(capsys):
    # the exact integral is 0: the rule stops on its absolute floor
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["trace", "--surface", "ellipsoid", "--axes", "1,2,3", "--N", "40",
                     "--function", "xy"])
    assert code == 0
    lines = dict(l.split(" = ") for l in capsys.readouterr().out.splitlines() if " = " in l)
    assert abs(float(lines["quadrature_integral"])) <= 1e-12


def test_unknown_trace_function_is_usage_error(capsys):
    assert main(["trace", "--surface", "sphere", "--function", "cube"]) == 1


def test_dump_coords_roundtrip(tmp_path, unit_sphere):
    code = main(
        ["dump-coords", "--surface", "sphere", "--N", "6", "--out", str(tmp_path)]
    )
    assert code == 0
    grid = nc.build_grid(6, -1, 1, 1)
    X = nc.quantize(unit_sphere.coord_x, grid)
    M, flags = read_matrix_binary(tmp_path / "coords_X.nclq")
    np.testing.assert_array_equal(M, X)
    assert flags == 1
    np.testing.assert_array_equal(read_matrix_json(tmp_path / "coords_X.json"), X)


def test_coordinate_dumps_re_encode_byte_for_byte(tmp_path):
    assert main(["dump-coords", "--surface", "ellipsoid", "--axes", "1,2,3", "--N", "9",
                 "--out", str(tmp_path / "dump")]) == 0
    assert main(["dump-coords", "--surface", "sphere", "--N", "4", "--out", str(tmp_path / "sphere")]) == 0
    files = sorted(tmp_path.glob("*/coords_*"))
    assert len(files) == 12
    for path in files:
        again = tmp_path / f"again{path.suffix}"
        if path.suffix == ".nclq":
            write_matrix_binary(again, *read_matrix_binary(path))
        else:
            write_matrix_json(again, read_matrix_json(path))
        assert again.read_bytes() == path.read_bytes(), path


def test_dump_coords_stays_banded_at_large_N(tmp_path, unit_sphere):
    # dense dumps would take 16 N^2 bytes per coordinate and format: 768 MB in binary alone
    assert main(["dump-coords", "--surface", "sphere", "--N", "4000", "--out", str(tmp_path)]) == 0
    assert sum(p.stat().st_size for p in tmp_path.iterdir()) < 1_000_000
    grid = nc.build_grid(4000, -1, 1, 1)
    for label, f in zip("XYZ", unit_sphere.coordinates):
        want = nc.quantize(f, grid)
        assert np.array_equal(read_matrix_binary(tmp_path / f"coords_{label}.nclq")[0], want)
        assert np.array_equal(read_matrix_json(tmp_path / f"coords_{label}.json"), want)


def test_surface_config_file(tmp_path):
    cfg = tmp_path / "surf.cfg"
    cfg.write_text("kind = spheroid\nsemi_axes = 1, 1, 2\n")
    code = main(
        [
            "spectrum",
            "--surface", str(cfg),
            "--N", "20",
            "--strategy", "blocks",
            "--count", "4",
            "--K", "1",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    written = list(tmp_path.glob("spectrum_spheroid*"))
    assert written


@pytest.mark.parametrize(
    "flags, key",
    [
        (["--surface", "ellipsoid", "--axes", "1,1,2", "--radius", "5"], "radius"),
        (["--surface", "sphere", "--axes", "1,2,3"], "semi_axes"),
        (["--surface", "ellipsoid", "--axes", "nan,1,2"], "semi_axes"),
        (["--surface", "sphere", "--radius", "inf"], "radius"),
        (["--surface", "spheroid", "--axes", "1,0"], "semi_axes"),
        (["--surface", "torus"], "torus"),
    ],
    ids=["radius-on-ellipsoid", "axes-on-sphere", "nan-axis", "inf-radius", "zero-axis",
         "unknown-kind"],
)
def test_invalid_surface_flags_are_config_errors(flags, key, capsys):
    assert main(["trace", *flags, "--N", "8"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err


def test_surface_config_file_rejects_surface_flags(tmp_path, capsys):
    cfg = tmp_path / "surf.cfg"
    cfg.write_text("kind = spheroid\nsemi_axes = 1, 1, 2\n")
    assert main(["trace", "--surface", str(cfg), "--N", "8", "--axes", "1,1,3"]) == 1
    assert "--axes" in capsys.readouterr().err


def test_directory_as_surface_is_config_error(tmp_path, capsys):
    assert main(["spectrum", "--surface", str(tmp_path), "--N", "8", "--out", str(tmp_path)]) == 1
    assert "regular config file" in capsys.readouterr().err


def test_beta_auto_equals_one_for_sphere(tmp_path):
    # on the sphere --beta auto is the default grid, to the area quadrature's accuracy
    matrices = []
    for beta in ("auto", "1"):
        out = tmp_path / beta
        assert main(["dump-coords", "--surface", "sphere", "--N", "16", "--beta", beta,
                     "--format", "binary", "--out", str(out)]) == 0
        matrices.append([read_matrix_binary(out / f"coords_{c}.nclq")[0] for c in "XYZ"])
    np.testing.assert_allclose(matrices[0], matrices[1], atol=1e-9)


@pytest.mark.parametrize("command", ["spectrum", "converge"])
def test_flat_spheroid_spectrum_runs_on_the_whole_surface(tmp_path, capsys, command):
    # --beta auto is area / (2 pi (b - a)) = 0.515 here, and a grid at that
    # beta ends at z = 0.03: half the spheroid, with no error.  The
    # eigenvalue commands take no --beta and run at beta = 1, where the
    # grid spans [-1, 1].
    assert qz.default_beta(nc.spheroid(1, 0.1)) < 0.52
    sizes = ["--N-list", "20,40"] if command == "converge" else ["--N", "40"]
    argv = [command, "--surface", "spheroid", "--axes", "1,1,0.1", *sizes, "--count", "4"]
    for beta in ("auto", "0.5", "1"):
        assert main([*argv, "--beta", beta, "--out", str(tmp_path / "beta")]) == 1
        assert "unrecognized arguments: --beta" in capsys.readouterr().err
    assert not (tmp_path / "beta").exists()
    assert main([*argv, "--out", str(tmp_path)]) == 0
    (table,) = tmp_path.glob("*.csv")
    assert "# beta = 1.0\n" in table.read_text()


@pytest.mark.parametrize("command", ["axioms", "dump-coords"])
def test_beta_past_the_surface_names_beta(tmp_path, capsys, command):
    sizes = ["--N-list", "50,100"] if command == "axioms" else ["--N", "100"]
    argv = [command, "--surface", "spheroid", "--axes", "1,2", "--beta", "auto", *sizes]
    assert main([*argv, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    beta = qz.default_beta(nc.spheroid(1, 2))
    assert f"--beta {beta:.6g} " in err and beta > 1.7
    assert "[-1, 1]" in err
    assert "fits only for smaller beta (beta <= 1)" in err
    assert not list(tmp_path.iterdir())


def test_bad_beta_is_config_error(capsys):
    assert main(["trace", "--surface", "sphere", "--beta", "fast"]) == 1
    assert "--beta must be a float or 'auto'" in capsys.readouterr().err
    assert main(["trace", "--surface", "sphere", "--beta", "-2"]) == 1
    assert "--beta must be positive" in capsys.readouterr().err


def test_help_exits_zero():
    assert main(["--help"]) == 0
    assert main(["spectrum", "--help"]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["converge", "--N-list", "50,100", "--N", "100"],
        ["converge", "--N-list", "50,100", "--format", "json"],
        ["converge", "--N-list", "50,100", "--epsilon", "1e-12"],
        ["spectrum", "--N", "4", "--epsilon", "1e-12"],
        ["axioms", "--N", "100"],
        ["axioms", "--epsilon", "1e-12"],
        ["axioms", "--format", "csv"],
        ["trace", "--epsilon", "1e-12"],
        ["dump-coords", "--epsilon", "1e-12"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_flags_a_subcommand_does_not_read_are_rejected(argv, tmp_path, capsys):
    out = [] if argv[0] == "trace" else ["--out", str(tmp_path)]
    assert main([*argv, *out]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_commands_import_no_scipy_sparse(tmp_path):
    # every matrix is an offset -> diagonal map or a dense array, so no
    # command loads scipy.sparse
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(nc.__file__).resolve().parent.parent
    script = f"""
import sys
from nclaplace.cli import main
out = {str(tmp_path)!r}
for argv in (
    ["spectrum", "--surface", "spheroid", "--axes", "1,2", "--N", "60", "--strategy", "blocks", "--out", out],
    ["spectrum", "--surface", "ellipsoid", "--axes", "1,2,3", "--N", "12", "--strategy", "dense", "--out", out],
    ["axioms", "--surface", "ellipsoid", "--axes", "1,2,3", "--N-list", "20,40", "--out", out],
    ["trace", "--surface", "spheroid", "--axes", "1,2", "--function", "z2", "--N", "40"],
    ["dump-coords", "--N", "16", "--out", out],
):
    assert main(argv) == 0, argv
assert "scipy.sparse" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy.sparse"))
"""
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
