"""Run the benchmark over several seeds and write a BENCH_*.json summary.

    python3 perfbench/collect.py --runs 10 --out perfbench/BENCH_baseline.json

For each workload this makes ``--runs`` untraced runs, one per seed, and
one traced run, each as its own ``run.py`` process. The summary holds
every run's end-to-end values, their median and quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread
(Q3 - Q1) / median, the traced run's per-layer values and the host's run
record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    seconds = bench["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    summary = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        row = {
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "wall_s": [r["wall_s"] for r in runs],
            "end_to_end": {
                m["name"]: {"unit": m["unit"], **summarize([r["metrics"][m["name"]]["value"] for r in runs])}
                for m in bench["end_to_end"]
            },
        }
        traced = run_once(workload, seeds[0], seconds, 1)
        row["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        row["traced_attempted"] = traced["attempted"]
        row["traced_failed"] = traced["failed"]
        row["traced_correct"] = traced["correct"]
        row["traced_wall_s"] = traced["wall_s"]
        summary["workloads"][workload] = row
        spreads = {k: round(v["spread"], 4) for k, v in row["end_to_end"].items()}
        print(workload, "correct" if row["correct"] else "INCORRECT", spreads, flush=True)
    records = sorted((HERE / "out").glob("record-*.json"))
    if records:
        summary["host"] = json.loads(records[-1].read_text())["host"]
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
