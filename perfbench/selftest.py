"""Self-test of the benchmark harness at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

For each workload it makes one untraced and one traced run and requires
that every metric listed in BENCHMARK.json is reported with its unit,
that all outputs pass their checks, that no span has a negative self
time, and that the span self times add up to the traced pass wall time.
It also requires the benchmark to refuse to run when ULTRATREE_MAX_N is
set. Exits 1 on the first unmet requirement.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads


class Unmet(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise Unmet(message)


def declared(section: str) -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def check_result(res: dict, units: dict, label: str) -> None:
    require(res["correct"] and res["failed"] == 0,
            f"{label}: failed operations {res['detail']['errors']}")
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    require(got == units, f"{label}: metrics {sorted(got)} differ from {sorted(units)}")
    require(all(isinstance(m["value"], (int, float)) for m in res["metrics"].values()),
            f"{label}: a metric value is not a number")


def check_spans(ops: list, label: str) -> None:
    tracer, wall, errors = run.traced_pass(ops)
    require(not errors, f"{label}: traced pass failed {errors}")
    own = tracer.self_times()
    worst = min(own)
    require(worst >= -1e-9, f"{label}: negative self time {worst}")
    require(math.isclose(sum(own), wall, rel_tol=1e-9, abs_tol=1e-9),
            f"{label}: self times sum to {sum(own)}, traced pass took {wall}")
    require(any(name != "harness.pass" for name in tracer.names),
            f"{label}: no module spans were recorded")


def check_refusal() -> None:
    env = dict(os.environ, ULTRATREE_MAX_N="5")
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", "tree-scale",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        env=env, capture_output=True, text=True, timeout=60)
    require(proc.returncode != 0 and not proc.stdout,
            "the benchmark ran although ULTRATREE_MAX_N was set")


def main() -> int:
    run.load_program()
    end_to_end, per_layer = declared("end_to_end"), declared("per_layer")
    require(set(end_to_end) == set(run.END_TO_END_UNITS), "end_to_end list out of date")
    require(set(per_layer) == set(run.PER_LAYER_UNITS), "per_layer list out of date")
    base = run.ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    try:
        for name in workloads.WORKLOADS:
            workdir = base / name
            workdir.mkdir(parents=True)
            check_result(run.measure(name, 7, 0.1, workloads.TINY, workdir),
                         end_to_end, f"{name} untraced")
            check_result(run.measure_traced(name, 7, workloads.TINY, workdir),
                         per_layer, f"{name} traced")
            generate, operations = workloads.WORKLOADS[name]
            ctx = run.make_context(workdir, 7, workloads.TINY)
            generate(ctx)
            check_spans(operations(ctx), name)
            print(f"ok {name}")
        check_refusal()
        print("ok refuses ULTRATREE_MAX_N")
    except Unmet as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(base, ignore_errors=True)
        if base.parent.is_dir() and not any(base.parent.iterdir()):
            base.parent.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
