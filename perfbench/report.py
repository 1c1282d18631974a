"""Run every workload untraced and traced and print the results.

    python3 perfbench/report.py [--seed 1] [--seconds 20] [--workloads revolution,classical]

For each workload: run.py's summary of the untraced run (op_s with quartiles
and sample count, setup_s, peak_rss_mb, fail_ratio, ref_err, failures and
the machine); then, from the traced run, each layer's self time per
operation and its share, the largest single spans by self time, and the
tracing overhead (traced op_s minus untraced op_s).  The layers' self times
add up to the traced operation time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import benchmark_spec, summary  # noqa: E402


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} failed:\n{proc.stderr}")
    return json.loads((HERE / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def traced_lines(plain: dict, traced: dict) -> list[str]:
    per_op = traced["per_op"]
    mean = lambda key: sum(o.get(key, 0.0) for o in per_op) / len(per_op)
    op_mean = mean("trace.op_s")
    overhead = statistics.median(traced["op_seconds"]) - statistics.median(plain["op_seconds"])
    lines = [f"{traced['workload']} traced: op_s median {statistics.median(traced['op_seconds']):.3f} s "
             f"over {len(per_op)} ops, tracing overhead {overhead:+.3f} s (traced op_s - untraced op_s)"]
    keys = set().union(*per_op)
    layers = {k: mean(k) for k in keys if k.endswith(".self_s") and k.count(".") == 1}
    for layer, s in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<26}{s:>10.4f} s {100 * s / op_mean:6.1f}%")
    lines.append(f"  {'sum of layers':<26}{sum(layers.values()):>10.4f} s of {op_mean:.4f} s per traced op")
    spans = {k: mean(k) for k in keys if k.endswith(".self_s") and k.count(".") > 1}
    for k, s in sorted(spans.items(), key=lambda kv: -kv[1])[:5]:
        lines.append(f"  {k:<46}{s:>10.4f} s {100 * s / op_mean:6.1f}%")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--workloads", default=",".join(w["name"] for w in benchmark_spec()["workloads"]))
    args = p.parse_args(argv)
    for w in args.workloads.split(","):
        plain = run(w, args.seed, args.seconds, 0)
        print("\n".join(summary(plain)))
        print("\n".join(traced_lines(plain, run(w, args.seed, args.seconds, 1))))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
