"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py [--workloads curve,verify] [--seeds 1-10]

Runs the benchmark command of ``BENCHMARK.json`` once per (workload, seed),
one run at a time, and prints for every end-to-end metric the median of the
runs' values and the distance between their first and third quartiles as a
share of that median, next to the metric's bound.  Raw values are written to
``.perfbench-work/spread.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    raw: dict[str, dict[str, list[float]]] = {}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in seed_range(args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            for name in bounds:
                values[name].append(line["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v[-1]:.4f}" for k, v in values.items())
                + f"; failed {line['failed']}/{line['attempted']}", flush=True)
        raw[workload] = values
        for name, vals in values.items():
            s = spread(vals)
            within = s <= bounds[name] / 3
            ok &= within or name == "setup_s"
            print(f"  {workload:<8} {name:<12} median {statistics.median(vals):9.4f}  "
                  f"spread {100 * s:5.2f}%  bound {100 * bounds[name]:.0f}%  "
                  f"{'ok' if within else 'WIDE'}", flush=True)
    out = ROOT / ".perfbench-work"
    out.mkdir(exist_ok=True)
    (out / "spread.json").write_text(json.dumps(raw, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
