"""Run the benchmark over several seeds and print every metric with its spread.

usage: python3 perfbench/report.py [--seeds K] [--first-seed S] [--trace 0|1]
                                   [--workload NAME ...] [--seconds S]

Each run is a fresh ``perfbench/run.py`` process, one after another. For
every workload the table lists each metric of BENCHMARK.json with its unit,
the median over the seeds and the quartile spread (Q3 - Q1) / median, which
must stay within the metric's bound for the benchmark to be usable; the
per-command figures (simulate_p90_ms, scan_points_per_s, failed_ops_ratio,
...) follow. The exit code is 1 if any run was incorrect or failed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        results, details = [], []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed)]
            cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            results.append(result)
            details.append(json.loads(lines[-2])["detail"])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed, "
                      f"correct={result['correct']}\n{proc.stderr}", file=sys.stderr)
                ok = False
        if not results:
            continue
        print(f"\n{workload}: {len(results)} runs of {args.seconds} s, seeds from {args.first_seed}")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            print(_row(m["name"], m["unit"], values, m.get("bound")))
        for name in details[0]:
            values = [d[name]["value"] for d in details if name in d]
            print(_row("  " + name, details[0][name]["unit"], values, None))
    return 0 if ok else 1


def _row(name: str, unit: str, values: list, bound) -> str:
    median = statistics.median(values)
    line = f"  {name:42s} {unit:6s} median {median:14.6g}"
    if len(values) >= 2 and median:
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(median)
        line += f"   spread {spread:7.2%}"
        if bound is not None:
            verdict = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            line += f"   bound {bound:.0%} ({verdict})"
    return line


if __name__ == "__main__":
    sys.exit(main())
