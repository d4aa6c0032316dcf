"""Benchmark of the ultratree CLI, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tree-scale --seed 1 --seconds 60 --trace 0

A run writes the workload's seeded inputs (set-up, done five times, the
median is `setup_s`) and then drives the CLI in a closed loop with one
client: one `python -m ultratree.cli` subprocess at a time, the next one
spawned only after the previous one exited. It repeats whole passes over
the workload's operation list, at least one, as long as another pass is
expected to end within `--seconds` of the start of set-up, and reports
the mean pass. Every output is checked; a wrong exit code or a failed
check counts as a failed operation.

The host's CPU speed drifts by tens of percent over minutes, so between
the set-ups and between the operations the run also times a fixed
calibration program that does not use ultratree, for half as long as
the measured steps took. The reported times (`setup_s`, `norm_wall_s`,
`norm_items_per_s`) are scaled by REF_UNIT_S over the mean calibration
time among the set-ups or among the passes: they read as seconds on a
host where the calibration program takes REF_UNIT_S. The raw times are
in the detail line.

With `--trace 1` the run instead makes one subprocess pass (for the
`--jobs` speed-up), measures CLI start-up, and then calls
`ultratree.cli.main(argv)` in process for every `--jobs 1` operation:
once to warm up, once plainly, and once with spans around each module's
public functions. It reports per-layer metrics and the tracing overhead.

The last line of stdout is the result JSON; the line before it records
the environment (nproc, Python, ultratree version, commit, seed).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS = 5            # set-ups per run; setup_s is their median
STARTUP_RUNS = 5      # trivial `validate` runs for cli.startup_s
OP_TIMEOUT_S = 120    # a hung operation is killed and counted as failed
CAL_SHARE = 0.5       # calibration time, as a share of the measured time
REF_UNIT_S = 0.15     # a calibration unit's time at the reference host speed

END_TO_END_UNITS = {
    "setup_s": "s", "norm_wall_s": "s", "norm_items_per_s": "1/s", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "cli.startup_s": "s", "cli.self_s": "s",
    "formats.parse_s": "s", "formats.bytes_in": "B",
    "formats.write_s": "s", "formats.bytes_out": "B",
    "metric.validate_s": "s", "metric.validate_triples": "count",
    "metric.balls_s": "s", "metric.balls_calls": "count",
    "metric.balls_found": "count", "metric.ball_calls": "count",
    "metric.spheres_s": "s", "metric.sphere_calls": "count",
    "metric.spheres_found": "count", "metric.center_s": "s",
    "metric.diametrical_s": "s", "metric.weak_similarity_s": "s",
    "metric.restrict_s": "s", "metric.calls": "count", "metric.us_per_call": "us",
    "tree.validate_s": "s", "tree.index_build_s": "s",
    "tree.distance_matrix_s": "s", "tree.pairs": "count", "tree.canonical_s": "s",
    "padic.sample_s": "s", "padic.distances": "count",
    "explorer.enumerate_s": "s", "explorer.classes": "count",
    "explorer.to_space_s": "s", "explorer.to_space_calls": "count",
    "explorer.spaces_per_class": "ratio",
    "explorer.is_ut_s": "s", "explorer.is_ut_calls": "count",
    "explorer.is_ut_found_ratio": "ratio",
    "explorer.suite_s": "s", "explorer.campaign_self_s": "s",
    "explorer.pool_speedup": "ratio",
    "trace.traced_pass_s": "s", "trace.untraced_pass_s": "s",
    "trace.overhead_s": "s", "trace.spans": "count",
}

TINY_TREE = '{"vertices": ["a", "b"], "labels": {"a": "1", "b": "0"}, "edges": [["a", "b"]]}\n'


class Failure(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list, workdir: Path, env: dict) -> tuple[int, str, float, int]:
    """Run `python -m ultratree.cli argv`; (exit code, stdout, wall s, max RSS KiB).

    The child is reaped with os.wait4, so the RSS is this child's own.
    """
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "ultratree.cli", *argv],
                                cwd=workdir, env=env, stdout=out, stderr=err)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out_path.read_text(encoding="utf-8"), wall, usage.ru_maxrss


# One calibration unit: a Python process that imports what the CLI imports
# from the standard library and enumerates the balls of a 40-point matrix
# of exact fractions. It shares the CLI's mix of process start-up and small
# pure-Python objects, but runs no ultratree code.
CAL_SOURCE = """
import argparse, collections, dataclasses, itertools, json, math, random
from fractions import Fraction
rng = random.Random(7)
pts = [Fraction(rng.randrange(1, 50), rng.randrange(1, 9)) for _ in range(40)]
m = {(i, j): (max(a, b) if i != j else Fraction(0))
     for i, a in enumerate(pts) for j, b in enumerate(pts)}
balls = set()
for i in range(40):
    for r in sorted({m[i, j] for j in range(40)}):
        balls.add(frozenset(j for j in range(40) if m[i, j] <= r))
print(json.dumps(sorted(len(b) for b in balls)))
"""


class Calibration:
    """Calibration units run between the measured steps.

    After each step of `seconds`, units run until they have taken
    CAL_SHARE of the measured time so far, so they sample the host
    evenly over the run.
    """

    def __init__(self):
        self.units: list[float] = []
        self.debt = 0.0

    def after(self, seconds: float) -> None:
        self.debt += CAL_SHARE * seconds
        while self.debt > 0:
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", CAL_SOURCE],
                           stdout=subprocess.DEVNULL, check=True, timeout=OP_TIMEOUT_S)
            self.units.append(time.perf_counter() - start)
            self.debt -= self.units[-1]

    def scale(self, first: int = 0) -> float:
        """REF_UNIT_S over the mean unit time from unit `first` on: turns
        raw times into reference-speed times. The mean, not the median,
        because the host flips between a fast and a slow state and the
        median of such samples jumps between the two."""
        return REF_UNIT_S / statistics.fmean(self.units[first:])


def make_context(workdir: Path, seed: int, sizes: dict) -> workloads.Context:
    env = child_env()

    def cli(argv, stdout_path):
        rc, out, _, _ = spawn(argv, workdir, env)
        if rc != 0:
            raise Failure(f"set-up step {argv[0]} exited {rc}")
        if stdout_path:
            Path(stdout_path).write_text(out, encoding="utf-8")

    return workloads.Context(workdir, seed, sizes, cli)


def label(op: workloads.Op) -> str:
    """The operation's argv with input paths shortened to file names."""
    return " ".join(Path(a).name if os.sep in a else a for a in op.argv)[:80]


def check_op(op: workloads.Op, rc: int, out: str, outputs: list) -> tuple[str | None, int]:
    """(failure reason or None, items done) for one finished operation."""
    try:
        error = op.check(rc, out)
        if error is None and op.same_as is not None and out != outputs[op.same_as]:
            error = f"stdout differs from operation {op.same_as} (--jobs {op.jobs})"
        return error, (op.items(out) if error is None else 0)
    except Exception as exc:  # a check that cannot read the output fails the op
        return f"unreadable output: {exc!r}", 0


def subprocess_pass(ops: list, ctx: workloads.Context, cal: Calibration | None = None) -> dict:
    """One pass over `ops`; with `cal`, calibration runs after each operation."""
    env = child_env()
    walls, rss, outputs, errors, items = [], [], [], [], 0
    first = len(cal.units) if cal else 0
    for i, op in enumerate(ops):
        rc, out, wall, maxrss = spawn(op.argv, ctx.workdir, env)
        if cal:
            cal.after(wall)
        walls.append(wall)
        rss.append(maxrss)
        outputs.append(out)
        error, done = check_op(op, rc, out, outputs)
        items += done
        if error:
            errors.append(f"{label(op)}: {error}")
    scale = cal.scale(first) if cal else None
    return {"wall": sum(walls), "op_walls": walls, "rss_kib": max(rss),
            "items": items, "errors": errors, "scale": scale}


def inprocess_pass(ops: list, tracer: spans.Tracer | None = None) -> tuple[float, list]:
    """Call ultratree.cli.main in process for every --jobs 1 operation.

    Returns the pass wall time and the failure reasons; outputs are
    checked after the timed part.
    """
    import ultratree.cli

    local = [op for op in ops if op.jobs == 1]
    results = []
    root = tracer.open("harness.pass") if tracer else None
    start = time.perf_counter()
    for op in local:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = ultratree.cli.main(list(op.argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # keep the pass going; the op counts as failed
                rc = -1
                out.write(traceback.format_exc())
        results.append((rc, out.getvalue()))
    wall = time.perf_counter() - start
    if tracer:
        tracer.close(root)
        wall = tracer.ends[root] - tracer.starts[root]
    errors = []
    for op, (rc, out) in zip(local, results):
        error, _ = check_op(op, rc, out, [])
        if error:
            errors.append(f"in process {label(op)}: {error}")
    return wall, errors


def traced_pass(ops: list) -> tuple[spans.Tracer, float, list]:
    import ultratree

    tracer = spans.Tracer()
    with spans.instrument(ultratree, tracer):
        wall, errors = inprocess_pass(ops, tracer)
    return tracer, wall, errors


def measure(workload: str, seed: int, seconds: float, sizes: dict, workdir: Path) -> dict:
    generate, operations = workloads.WORKLOADS[workload]
    ctx = make_context(workdir, seed, sizes)
    start = time.perf_counter()  # set-up counts against the run's budget
    setup_times, setup_cal = [], Calibration()
    for _ in range(SETUPS):
        setup_start = time.perf_counter()
        generate(ctx)
        setup_times.append(time.perf_counter() - setup_start)
        setup_cal.after(setup_times[-1])
    ops = operations(ctx)
    cal = Calibration()
    passes = [subprocess_pass(ops, ctx, cal)]
    # start another pass only if it should end within the budget
    while time.perf_counter() - start + (1 + CAL_SHARE) * passes[-1]["wall"] <= seconds:
        passes.append(subprocess_pass(ops, ctx, cal))
    errors = [e for p in passes for e in p["errors"]]
    # The mean pass, not the median one: the host scale is a mean over the
    # same stretch of time, and the two must average the host's states alike.
    wall = statistics.fmean(p["wall"] for p in passes)
    items = statistics.median(p["items"] for p in passes)
    scale, setup_scale = cal.scale(), setup_cal.scale()
    metrics = {
        "setup_s": statistics.median(setup_times) * setup_scale,
        "norm_wall_s": wall * scale,
        "norm_items_per_s": items / (wall * scale),
        "peak_rss_mb": statistics.median(p["rss_kib"] for p in passes) / 1024,
    }
    attempted = len(ops) * len(passes)
    detail = {
        "passes": len(passes),
        "wall_s": wall,
        "items_per_s": items / wall,
        "host_scale": scale,
        "setup_host_scale": setup_scale,
        "calibration_units": len(cal.units) + len(setup_cal.units),
        "calibration_s": sum(cal.units) + sum(setup_cal.units),
        "pass_walls_s": [p["wall"] for p in passes],
        "pass_host_scales": [p["scale"] for p in passes],
        "op_mean_s": {label(op): statistics.fmean(p["op_walls"][i] for p in passes)
                      for i, op in enumerate(ops)},
        "setup_times_s": setup_times,
        "fail_rate": len(errors) / attempted,
    }
    return result(metrics, END_TO_END_UNITS, attempted, errors, detail)


def measure_traced(workload: str, seed: int, sizes: dict, workdir: Path) -> dict:
    generate, operations = workloads.WORKLOADS[workload]
    ctx = make_context(workdir, seed, sizes)
    generate(ctx)
    ops = operations(ctx)

    sub = subprocess_pass(ops, ctx)
    speedup = 0.0
    for i, op in enumerate(ops):
        if op.jobs > 1 and op.same_as is not None:
            speedup = sub["op_walls"][op.same_as] / sub["op_walls"][i]

    tiny = workdir / "tiny.json"
    tiny.write_text(TINY_TREE, encoding="utf-8")
    env = child_env()
    startup = statistics.median(
        spawn(["validate", str(tiny)], workdir, env)[2] for _ in range(STARTUP_RUNS))

    # the first in-process pass pays one-time costs; it is checked, not timed
    _, warm_errors = inprocess_pass(ops)
    plain_wall, plain_errors = inprocess_pass(ops)
    tracer, traced_wall, traced_errors = traced_pass(ops)

    metrics = {"cli.startup_s": startup, **spans.layer_metrics(tracer),
               "explorer.pool_speedup": speedup,
               "trace.traced_pass_s": traced_wall,
               "trace.untraced_pass_s": plain_wall,
               "trace.overhead_s": traced_wall - plain_wall,
               "trace.spans": len(tracer.names)}
    errors = sub["errors"] + warm_errors + plain_errors + traced_errors
    local = sum(op.jobs == 1 for op in ops)
    attempted = len(ops) + 3 * local
    return result(metrics, PER_LAYER_UNITS, attempted, errors, {"fail_rate": len(errors) / attempted})


def result(values: dict, units: dict, attempted: int, errors: list, detail: dict) -> dict:
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        "detail": {**detail, "errors": errors[:10]},
    }


def environment(seed: int, workload: str) -> dict:
    import ultratree

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "ultratree_version": ultratree.__version__,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.is_file():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def load_program():
    """Import ultratree from this checkout's src/, never from elsewhere."""
    if not (SRC / "ultratree" / "cli.py").is_file():
        raise Failure(f"no ultratree sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ultratree

    if Path(ultratree.__file__).resolve().parent != (SRC / "ultratree").resolve():
        raise Failure(f"imported ultratree from {ultratree.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if "ULTRATREE_MAX_N" in os.environ:
        print("error: ULTRATREE_MAX_N is set; it lowers capacity fences and "
              "changes the work measured, so the benchmark refuses to run",
              file=sys.stderr)
        return 2
    try:
        load_program()
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            res = measure_traced(args.workload, args.seed, workloads.FULL, workdir)
        else:
            res = measure(args.workload, args.seed, args.seconds, workloads.FULL, workdir)
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    for error in res["detail"]["errors"]:
        print(f"failed: {error}", file=sys.stderr)
    print(json.dumps({"environment": environment(args.seed, args.workload),
                      "detail": res.pop("detail")}))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
