"""Record the dense spectrum of ellipsoid(1,2,3) at N=32 that the
triaxial_dense workload checks against.

    python3 perfbench/record_triaxial.py

Run it only to re-record on purpose: the file pins the answer of the commit
it was recorded at, and a later change that moves these eigenvalues by more
than 1e-9 fails the benchmark's check.
"""

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import nclaplace as nc  # noqa: E402
from workloads import ELLIPSOID_SHAPE, TriaxialDense  # noqa: E402


def main() -> None:
    w = TriaxialDense()
    grid = nc.build_grid(w.N, -1.0, 1.0, 1.0)
    ops = nc.build_operator_set(nc.ellipsoid(*ELLIPSOID_SHAPE), grid)
    report = nc.spectrum(ops, strategy="dense", count=w.COUNT)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
    payload = {
        "axes": list(ELLIPSOID_SHAPE),
        "N": w.N,
        "strategy": "dense",
        "recorded_at_commit": commit or None,
        "eigenvalues": sorted(report.eigenvalues),
    }
    w.RECORDED.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {w.RECORDED}")


if __name__ == "__main__":
    main()
