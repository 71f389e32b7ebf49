#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py --workloads dist-trace tree-deep \\
        --seeds 1 2 3 4 5 --seconds 20 [--trace 0|1] [--out FILE]

Each run is a separate ``perfbench/run.py`` process, one after the other.
For every workload and metric it prints the median, the first and third
quartile (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median.  ``--out`` writes
the same summary, with every raw result, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=HERE.parent)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("digest "))
    return json.loads(lines[-1]), digest


def summarise(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "spread": spread}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    summary = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result, digest = run_once(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, "digest": digest, **result})
            values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            metrics[name] = summarise([r["metrics"][name]["value"] for r in runs])
            metrics[name]["unit"] = runs[0]["metrics"][name]["unit"]
            m = metrics[name]
            print(f"  {workload} {name}: median {m['median']:.5g} q1 {m['q1']:.5g} "
                  f"q3 {m['q3']:.5g} spread {m['spread']:.3f}", flush=True)
        summary[workload] = {"metrics": metrics, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
