"""One benchmark process, started by run.py.

It sets up (imports, BLAS start-up, drawing the inputs from the seed), prints
READY, runs operations for the given seconds, checks every result outside the
timed region and prints one JSON line.  With --setup-only it exits after
READY, so the parent can time set-up more than once per run.
"""

from __future__ import annotations

import argparse
import collections
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

#: metrics reported as the worst value over the run; the rest are per-operation means
WORST = ("nc_laplacian.residual_margin", "ref_err")


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=sorted(wl.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


#: operations every run makes, however long they take, so that op_s is a median
MIN_OPS = 2


def run_operations(workload, inputs, seconds: float, workdir: Path, tracer):
    """Closed loop, one operation at a time.  After MIN_OPS operations, starts
    another only while the run, extended by the median operation so far,
    fits in `seconds`."""
    ops = []
    start = time.perf_counter()
    while True:
        i = len(ops)
        p = inputs[i % len(inputs)]
        out = workdir / f"op{i}"
        gc.collect()
        if tracer is not None:
            tracer.begin_op(i)
        stdouts, error = [], None
        t0 = time.perf_counter()
        try:
            for argv in workload.calls(p, out):
                rc, text = wl.run_cli(argv)
                stdouts.append(text)
                if rc != 0:
                    error = f"exit code {rc} from {argv[0]}"
                    break
        except Exception as exc:  # an operation that raises is a failed operation, not a failed run
            error = f"raised {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        ops.append({"i": i, "params": p, "seconds": t1 - t0, "error": error, "stdouts": stdouts, "out": out})
        if len(ops) >= MIN_OPS and t1 - start + statistics.median(o["seconds"] for o in ops) > seconds:
            return ops


def check_operations(workload, ops) -> None:
    """Sets each operation's ref_err, or its error if the check fails."""
    refs = {}
    for op in ops:
        out = op["out"]
        op["bytes_written"] = sum(f.stat().st_size for f in out.rglob("*") if f.is_file()) if out.exists() else 0
        if op["error"] is None:
            key = json.dumps(op["params"], sort_keys=True)
            if key not in refs:
                refs[key] = workload.reference(op["params"])
            try:
                op["ref_err"] = workload.check(op["params"], out, op["stdouts"], refs[key])
            except wl.Partial as exc:
                op["error"] = f"partial: {exc}"
            except (wl.CheckFailed, OSError, ValueError, KeyError) as exc:
                op["error"] = f"wrong result: {exc}"
        shutil.rmtree(out, ignore_errors=True)


def per_layer(tracer: tracing.Tracer, ops) -> tuple[dict, list]:
    """Per-layer metrics from the spans and counters of each operation: the
    worst value over the run for WORST, the median for trace.op_s and the
    per-operation mean for the rest."""
    per_op = {op["i"]: collections.Counter(tracer.counts.get(op["i"], {})) for op in ops}
    covered = collections.Counter()
    for span, own in zip(tracer.spans, tracing.self_times(tracer.spans)):
        agg = per_op[span.op]
        took = span.end - span.start
        agg[f"{span.name.split('.')[0]}.self_s"] += own
        if span.parent is None:
            covered[span.op] += took
        agg[f"{span.name}.calls"] += 1
        agg[f"{span.name}.s"] += took
        agg[f"{span.name}.self_s"] += own
        if span.name.startswith("nc_laplacian.apply_laplacian."):
            agg["nc_laplacian.apply_laplacian.calls"] += 1
            agg["nc_laplacian.apply_laplacian.s"] += took
    for op in ops:
        agg = per_op[op["i"]]
        agg["bench.self_s"] = op["seconds"] - covered[op["i"]]
        agg["cli.report_bytes"] = op["bytes_written"]
        agg["trace.op_s"] = op["seconds"]
        agg["ref_err"] = op.get("ref_err", 0.0)
    values = {}
    for name in set().union(*per_op.values()):
        column = [per_op[op["i"]].get(name, 0.0) for op in ops]
        if name in WORST:
            values[name] = max(column)
        elif name == "trace.op_s":
            values[name] = statistics.median(column)
        else:
            values[name] = sum(column) / len(column)
    return values, [dict(per_op[op["i"]]) for op in ops]


def outcome(ops) -> dict:
    """Counts and times of a checked run.  Only operations that passed their
    check are timed; one that raised, exited non-zero, wrote a partial report
    or failed its check is a failure and makes the run incorrect."""
    failed = sum(op["error"] is not None for op in ops)
    return {
        "attempted": len(ops),
        "failed": failed,
        "correct": failed == 0,
        "op_seconds": [op["seconds"] for op in ops if op["error"] is None],
        "ref_err": [op["ref_err"] for op in ops if op["error"] is None],
    }


def blas_threads():
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getattr(lib, fn).restype = ctypes.c_int
                return getattr(lib, fn)()
    return None


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nclaplace").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "NCLAPLACE_THREADS": os.environ.get("NCLAPLACE_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = wl.WORKLOADS[args.workload]
    a = np.ones((256, 256))
    a @ a  # starts the BLAS threads
    inputs = workload.inputs(np.random.default_rng(args.seed))
    print("READY", flush=True)
    if args.setup_only:
        return 0

    workdir = ROOT / "perfbench" / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = tracing.instrument(tracing.Tracer()) if args.trace else None
    try:
        ops = run_operations(workload, inputs, args.seconds, workdir, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    check_operations(workload, ops)
    shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **outcome(ops),
        "operations": [{"params": op["params"], "seconds": op["seconds"], "error": op["error"]} for op in ops],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine(),
    }
    if tracer is not None:
        result["per_layer"], result["per_op"] = per_layer(tracer, ops)
        spans = ROOT / "perfbench" / "results" / f"{args.workload}-seed{args.seed}.spans.jsonl"
        tracer.write(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
