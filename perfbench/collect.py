"""Repeat benchmark runs over several seeds and write a BENCH_*.json file.

    python3 perfbench/collect.py --seeds 10 --out perfbench/BENCH_baseline.json

Runs `run.py` once per seed 1..N and workload listed in BENCHMARK.json,
seed-major so that slow spells of the host spread over all workloads, then
one traced run per workload. For every end-to-end metric it reports the
median, the quartiles and the spread (q3 - q1) / median over the seeds,
next to the metric's bound from BENCHMARK.json, and flags as WIDE every
spread that is not below a third of its bound; it exits 1 if any is.
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


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(environment line, result line) of one run; the run's duration is
    added to the environment line's detail as `run_s`."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[-2])
    env["detail"]["run_s"] = time.perf_counter() - start
    return env, json.loads(lines[-1])


def summarize(values: list, bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10, help="runs per workload")
    parser.add_argument("--out", help="write the collected results to this JSON file")
    args = parser.parse_args()

    seeds = list(range(1, args.seeds + 1))
    runs = {w: [] for w in names}
    env = None
    for seed in seeds:
        for w in names:
            env, res = run_once(w, seed, spec["run_seconds"], 0)
            runs[w].append({"seed": seed, **res, "detail": env["detail"]})
            values = {k: round(m["value"], 4) for k, m in res["metrics"].items()}
            print(f"{w} seed={seed} failed={res['failed']}/{res['attempted']} "
                  f"run={env['detail']['run_s']:.1f}s {values}", flush=True)

    report = {"environment": {k: v for k, v in env["environment"].items()
                              if k not in ("workload", "seed")},
              "run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    steady = True
    for w in names:
        summary = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs[w]]
            summary[metric["name"]] = s = summarize(values, metric["bound"])
            flag = "ok" if s["spread"] < s["bound"] / 3 else "WIDE"
            steady &= flag == "ok"
            print(f"{w:16s} {metric['name']:12s} median={s['median']:.4f} "
                  f"spread={s['spread']:.4f} bound={s['bound']} {flag}")
        entry = {"fail_rate": sum(r["failed"] for r in runs[w]) / sum(r["attempted"] for r in runs[w]),
                 "summary": summary, "runs": runs[w]}
        traced_env, traced = run_once(w, seeds[0], spec["run_seconds"], 1)
        entry["traced"] = {"seed": seeds[0], **traced, "detail": traced_env["detail"]}
        report["workloads"][w] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
