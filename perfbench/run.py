"""nclaplace benchmark: time to a verified spectrum.

    python3 perfbench/run.py --workload revolution --seed 1 --seconds 20 --trace 0

Run from a checkout that holds src/nclaplace; nothing needs building.  The
workload runs in one worker process (worker.py), which times a closed loop of
operations (one operation = one verified result: a CLI call or a short fixed
sequence of them) and checks every result after the timed loop.  Set-up time
is measured from spawning a process to its READY line, once for the worker
and once for each of SETUP_PROBES extra processes that only set up; the
median is reported.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are op_s (median
seconds per operation that passed its check), setup_s and peak_rss_mb (the
worker's peak RSS). With --trace 1 they are the per-layer metrics
BENCHMARK.json lists, from spans the benchmark records around the package's
public functions. The lines before it give quartiles, sample counts, failures,
the check margin (ref_err: worst |result - reference| over the check's
tolerance) and the machine. The full result is also written to
perfbench/results/.

BLAS threads are capped at the number of usable cores; NCLAPLACE_THREADS is
removed from the worker's environment so the default solve path runs.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4
#: the whole run, set-up probes included, is killed after this many seconds
DEADLINE_S = 170.0


def benchmark_spec() -> dict:
    """BENCHMARK.json: the workloads and the names and units of the metrics."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict:
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    env.pop("NCLAPLACE_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = env.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            env[var] = str(nproc)
    return env


class Worker:
    """A worker process; `ready_s` is the time from spawn to its READY line."""

    def __init__(self, args, env, deadline: float, setup_only: bool, spawned: list):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if setup_only:
            cmd.append("--setup-only")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
        spawned.append(self.proc)
        self.timer = threading.Timer(max(deadline - time.monotonic(), 0.0), self.proc.kill)
        self.timer.daemon = True
        self.timer.start()
        line = self.proc.stdout.readline()
        self.ready_s = time.perf_counter() - t0
        if line.strip() != "READY":
            self.finish()
            raise RuntimeError(f"worker did not set up (exit code {self.proc.returncode})")

    def finish(self) -> str:
        try:
            out = self.proc.stdout.read()
            self.proc.wait()
        finally:
            self.timer.cancel()
        return out


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(result) -> list[str]:
    """Human-readable lines for one run's result (as written to results/)."""
    times = result["op_seconds"]
    q1, med, q3 = quartiles(times)
    s1, smed, s3 = quartiles(result["setup_seconds"])
    errs = result["ref_err"]
    lines = [
        f"workload={result['workload']} seed={result['seed']} seconds={result['seconds']} trace={result['trace']}",
        f"op_s median={med:.4f} q1={q1:.4f} q3={q3:.4f} n={len(times)} s (verified operations only)",
        f"setup_s median={smed:.4f} q1={s1:.4f} q3={s3:.4f} n={len(result['setup_seconds'])} s",
        f"peak_rss_mb {result['peak_rss_mb']:.1f} MB",
        f"fail_ratio {result['failed']}/{result['attempted']} = {result['failed'] / result['attempted']:.4f}",
        f"ref_err worst={max(errs):.4g} n={len(errs)}" if errs else "ref_err n=0",
    ]
    lines += [f"failure: {op['error']}" for op in result["operations"] if op["error"]]
    lines.append("machine " + json.dumps(result["machine"], sort_keys=True))
    return lines


def main(argv=None) -> int:
    spec = benchmark_spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "nclaplace" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'nclaplace'} not found; run from an nclaplace checkout", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    deadline = time.monotonic() + DEADLINE_S
    env = child_env()
    setup, spawned = [], []
    try:
        for _ in range(SETUP_PROBES):
            probe = Worker(args, env, deadline, True, spawned)
            probe.finish()
            setup.append(probe.ready_s)
        worker = Worker(args, env, deadline, False, spawned)
        setup.append(worker.ready_s)
        out = worker.finish()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for proc in spawned:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if worker.proc.returncode != 0 or not out.strip():
        print(f"error: worker exited with code {worker.proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_seconds"] = setup
    result["machine"]["NCLAPLACE_THREADS_at_start"] = os.environ.get("NCLAPLACE_THREADS")
    if not result["op_seconds"]:
        for line in summary(result):
            print(line, file=sys.stderr)
        print("error: no operation passed its check", file=sys.stderr)
        return 1

    if args.trace:
        # a span that never ran in this workload reads as 0
        measured = {m["name"]: result["per_layer"].get(m["name"], 0.0) for m in spec["per_layer"]}
        kind = "per_layer"
    else:
        measured = {
            "op_s": statistics.median(result["op_seconds"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        kind = "end_to_end"
    values = {m["name"]: (measured[m["name"]], m["unit"]) for m in spec[kind]}
    record = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()},
    }
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, **record}, indent=1) + "\n"
    )
    for line in summary(result):
        print(line)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
