"""Fast self-test of the benchmark harness at tiny N (a few seconds).

    python3 perfbench/selftest.py

Each check is run twice: against its true reference, where it must pass,
and against a wrong one, where it must fail.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import nclaplace as nc  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402


def run_calls(workload, p, out: Path) -> list[str]:
    stdouts = []
    for argv in workload.calls(p, out):
        rc, text = wl.run_cli(argv)
        if rc != 0:
            raise RuntimeError(f"{argv[0]} exited with {rc}")
        stdouts.append(text)
    return stdouts


class HarnessSelfTest(unittest.TestCase):
    def setUp(self):
        (HERE / "_work").mkdir(exist_ok=True)
        self.out = Path(tempfile.mkdtemp(prefix="selftest-", dir=HERE / "_work"))

    def tearDown(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def test_revolution_check(self):
        w = wl.Revolution()
        w.N, w.GRIDS = 80, (400, 800, 1600)
        p = {"c": 1.8}
        stdouts = run_calls(w, p, self.out)
        ref = w.reference(p)
        self.assertLessEqual(w.check(p, self.out, stdouts, ref), 1.0)
        shift = 2 * w.TOL_HBAR * 2.0 / w.N
        with self.assertRaises(wl.CheckFailed):
            w.check(p, self.out, stdouts, [v - shift for v in ref])

    def test_triaxial_check_and_scaling_law(self):
        w = wl.TriaxialDense()
        w.N, w.COUNT = 6, 8
        p = {"axes": wl.axes_arg(1.1)}
        stdouts = run_calls(w, p, self.out)
        ops = nc.build_operator_set(nc.ellipsoid(*wl.ELLIPSOID_SHAPE), nc.build_grid(w.N, -1.0, 1.0, 1.0))
        ref = [v / 1.1**2 for v in nc.spectrum(ops, strategy="dense", count=w.COUNT).eigenvalues]
        self.assertLessEqual(w.check(p, self.out, stdouts, ref), 1.0)
        wrong = sorted(ref)
        wrong[-1] += 1e-8
        with self.assertRaises(wl.CheckFailed):
            w.check(p, self.out, stdouts, wrong)

    def test_partial_report_is_a_failure(self):
        (self.out / "spectrum_x.json").write_text(json.dumps({"config": {"partial": True}}))
        with self.assertRaises(wl.Partial):
            wl.read_report(self.out)

    def test_classical_checks(self):
        w = wl.Classical()
        w.TRACE_N, w.AXIOM_N, w.DUMP_N = 20, (10, 20, 40), 12
        # equal equatorial axes keep the area quadrature one-dimensional and fast
        p = {"axes": "1,1,2", "c": 1.7}
        stdouts = run_calls(w, p, self.out)
        ref = w.reference(p)
        self.assertLessEqual(w.check(p, self.out, stdouts, ref), 1.0)
        with self.assertRaises(wl.CheckFailed):
            w.check(p, self.out, stdouts, {**ref, "area": ref["area"] * (1 + 1e-8)})
        with self.assertRaises(wl.CheckFailed):
            w.check(p, self.out, stdouts, {**ref, "spheroid_area": ref["spheroid_area"] * (1 + 1e-8)})
        wrong = {k: v.copy() for k, v in ref["coords"].items()}
        wrong["Z"][0, 0] += 1e-9
        with self.assertRaises(wl.CheckFailed):
            w.check(p, self.out, stdouts, {**ref, "coords": wrong})
        nclq = self.out / "coords" / "coords_X.nclq"
        raw = bytearray(nclq.read_bytes())
        raw[20] ^= 1  # a reserved header byte: the reader ignores it, the writer zeroes it
        nclq.write_bytes(bytes(raw))
        with self.assertRaisesRegex(wl.CheckFailed, "byte-exact"):
            w.check(p, self.out, stdouts, ref)

    def test_closed_form_area(self):
        self.assertAlmostEqual(wl.ellipsoid_area((2.0, 2.0, 2.0)), 16 * math.pi, places=12)
        for axes in ((1.0, 1.0, 2.0), (1.0, 1.0, 0.5)):
            quad = nc.surface_area(nc.spheroid(axes[0], axes[2]))
            self.assertLess(abs(wl.ellipsoid_area(axes) - quad) / quad, 1e-9)

    def test_tracing_accounts_for_the_operation(self):
        tracer = tracing.instrument(tracing.Tracer())
        original = tracer._patched[0][2]
        try:
            tracer.begin_op(0)
            ops = nc.build_operator_set(nc.ellipsoid(1, 2, 3), nc.build_grid(6, -1.0, 1.0, 1.0))
            nc.spectrum(ops, strategy="dense", count=4)
        finally:
            tracer.restore()
        self.assertIs(getattr(sys.modules["nclaplace.surface"], "surface_area"), original)
        names = {s.name for s in tracer.spans}
        self.assertIn("nc_laplacian.assemble_dense_superoperator", names)
        self.assertIn("nc_laplacian.apply_laplacian.residual_check", names)
        roots = [s for s in tracer.spans if s.parent is None]
        total = sum(s.end - s.start for s in roots)
        self.assertAlmostEqual(sum(tracing.self_times(tracer.spans)), total, places=9)

    def test_failed_operation_makes_the_run_incorrect(self):
        ops = [
            {"seconds": 1.0, "error": None, "ref_err": 0.1},
            {"seconds": 0.2, "error": "exit code 2 from spectrum"},
        ]
        got = worker.outcome(ops)
        self.assertEqual((got["attempted"], got["failed"], got["correct"]), (2, 1, False))
        self.assertEqual(got["op_seconds"], [1.0])
        self.assertTrue(worker.outcome(ops[:1])["correct"])

if __name__ == "__main__":
    unittest.main()
