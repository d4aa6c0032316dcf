"""CLI output pinned byte for byte against files in tests/golden/.

The inputs are a seeded 40-vertex tree drawn from the benchmark's
tree-scale label pool (1..15 plus the top label 16 four times), its
distance-matrix CSV, and the 3-adic sample of 1..30. The expected
outputs were written by the CLI before the integer-rank core replaced
the Fraction-matrix one; regenerate them only for a deliberate output
change, with

    PYTHONPATH=src python tests/test_golden.py

``enumerate-con3-10.out``, ``enumerate-con3-11.out``,
``enumerate-hol-11.out`` and ``enumerate-closed-balls-11.out`` are not
among those cases: time and memory gates run them in a child process.
Regenerate each with its n and check, as

    PYTHONPATH=src python -m ultratree.cli enumerate --n 10 --check con3 \
        > tests/golden/enumerate-con3-10.out
"""

from __future__ import annotations

import contextlib
import io
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from test_tree_verbs import measured
from ultratree.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
TREE = str(GOLDEN / "tree40.json")
MATRIX = str(GOLDEN / "tree40.csv")
PADIC = str(GOLDEN / "padic3.csv")

# name -> (argv, expected exit code); the output file is golden/<name>.out
CASES = {
    "distances": (["distances", TREE], 0),
    "canonical": (["canonical", TREE], 0),
    "center-tree": (["center", TREE], 0),
    "center-matrix": (["center", MATRIX], 0),
    "center-padic": (["center", PADIC], 0),
    "diametrical-tree": (["diametrical", TREE, "--dot", "{dot}"], 0),
    "diametrical-padic": (["diametrical", PADIC, "--dot", "{dot}"], 0),
    "spheres-tree": (["spheres", TREE], 0),
    "spheres-padic": (["spheres", PADIC], 0),
    "check-tree": (["check", TREE], 0),
    "check-matrix": (["check", MATRIX], 0),
    "check-padic": (["check", PADIC], 0),
    "padic": (["padic", "--p", "3", "--sample", ",".join(map(str, range(1, 31)))], 0),
    "is-ut-matrix": (["is-ut", MATRIX], 0),
    "is-ut-padic": (["is-ut", PADIC], 0),
    "enumerate-suite-6": (["enumerate", "--n", "6", "--check", "suite"], 0),
    "enumerate-con3-6": (["enumerate", "--n", "6", "--check", "con3"], 0),
    "enumerate-hol-3": (["enumerate", "--n", "3", "--check", "hol"], 0),
    "enumerate-closed-balls-6": (["enumerate", "--n", "6", "--check", "closed-balls"], 0),
}

# the campaign reports must not depend on the number of workers
JOBS_CASES = ["enumerate-suite-6", "enumerate-con3-6", "enumerate-hol-3", "enumerate-closed-balls-6"]


def run_case(name: str, dot_path: Path) -> tuple[int, str, str]:
    """Run one case; returns (exit code, stdout, DOT file text or '')."""
    argv = [arg.replace("{dot}", str(dot_path)) for arg in CASES[name][0]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    dot = dot_path.read_bytes().decode() if dot_path.exists() else ""
    return code, out.getvalue(), dot


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    code, out, dot = run_case(name, tmp_path / "g.dot")
    assert code == CASES[name][1]
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()
    dot_file = GOLDEN / f"{name}.dot"
    if dot_file.exists():
        assert dot.encode() == dot_file.read_bytes()


@pytest.mark.parametrize("name", JOBS_CASES)
def test_campaign_output_independent_of_jobs(name, capsys):
    argv, expected = CASES[name]
    assert main(argv + ["--jobs", "2"]) == expected
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()


# A child's environment. It holds no PYTHONUNBUFFERED, so a stdout that is
# not a terminal is block-buffered: bytes the process did not flush before
# it ended would be missing.
ENV = {"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"), "PATH": ""}


def cli_process(argv: list, cwd=None) -> subprocess.CompletedProcess:
    """Run ``python -m ultratree.cli argv`` in a child process, as the
    installed command runs it; usage text wrapped at 80 columns."""
    return subprocess.run(
        [sys.executable, "-B", "-m", "ultratree.cli", *argv],
        capture_output=True, cwd=cwd, env={**ENV, "COLUMNS": "80"}, timeout=60,
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_process_writes_golden_bytes(name, tmp_path):
    argv, expected = CASES[name]
    dot_path = tmp_path / "g.dot"
    proc = cli_process([arg.replace("{dot}", str(dot_path)) for arg in argv])
    assert (proc.returncode, proc.stderr) == (expected, b"")
    assert proc.stdout == (GOLDEN / f"{name}.out").read_bytes()
    dot_file = GOLDEN / f"{name}.dot"
    if dot_file.exists():
        assert dot_path.read_bytes() == dot_file.read_bytes()


# the cases of each nonzero exit code: a file that cannot be read, a usage
# error (argparse's own exit) and the capacity fences, 11 for the campaigns
# that fold each class and 10 for the theorem suite
ERROR_CASES = {
    1: [(["center", "missing.json"],
         b"error: [Errno 2] No such file or directory: 'missing.json'\n")],
    2: [(["enumerate", "--n", "0", "--check", "con3"],
         b"usage: ultratree [-h]\n"
         b"                 {validate,distances,canonical,center,diametrical,spheres,check,enumerate,padic,dplus,is-ut,random-tree}\n"
         b"                 ...\n"
         b"ultratree: error: argument --n: must be at least 1, got 0\n")],
    3: [(["enumerate", "--n", "12", "--check", "con3"],
         b"error: class enumeration: n=12 exceeds the capacity fence 11\n"),
        (["enumerate", "--n", "11", "--check", "suite"],
         b"error: class enumeration: n=11 exceeds the capacity fence 10\n")],
}


@pytest.mark.parametrize("code", sorted(ERROR_CASES))
def test_process_error_bytes_and_exit_code(code, tmp_path):
    for argv, stderr in ERROR_CASES[code]:
        proc = cli_process(argv, cwd=tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, b"", stderr)


class TestHardExit:
    """A process that ends with ``os._exit`` after its output is flushed
    must leave the same files, processes and errors as a normal exit."""

    @pytest.mark.parametrize("name", ["distances", "enumerate-suite-6", "padic"])
    def test_output_file_equals_stdout_form(self, name, tmp_path):
        out = tmp_path / "out"
        proc = cli_process(CASES[name][0] + ["-o", str(out)])
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        assert out.read_bytes() == (GOLDEN / f"{name}.out").read_bytes()

    def test_pool_workers_end_before_the_process(self):
        # the workers share the CLI's new process group; once the CLI is
        # reaped, a worker still alive (or unreaped) would be found in it
        argv = CASES["enumerate-suite-6"][0] + ["--jobs", "2"]
        proc = subprocess.Popen(
            [sys.executable, "-B", "-m", "ultratree.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ENV, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=60)  # a live worker keeps the pipes open
            assert (proc.returncode, err) == (0, b"")
            assert out == (GOLDEN / "enumerate-suite-6.out").read_bytes()
            with pytest.raises(ProcessLookupError):
                os.killpg(proc.pid, 0)
        finally:  # no worker outlives a failed test
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()

    def test_stdout_closed_at_start_exits_zero(self):
        # with descriptor 1 closed the interpreter sets sys.stdout to None
        # and print writes nothing; the exit path must not trip over it
        proc = subprocess.run(
            [sys.executable, "-B", "-m", "ultratree.cli", "validate", TREE],
            stderr=subprocess.PIPE, env=ENV, timeout=60, preexec_fn=lambda: os.close(1),
        )
        assert (proc.returncode, proc.stderr) == (0, b"")

    @staticmethod
    def closed_reader(name: str, env: dict) -> subprocess.CompletedProcess:
        """Run a case with a stdout whose reader has already closed it."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            return subprocess.run(
                [sys.executable, "-B", "-m", "ultratree.cli", *CASES[name][0]],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)

    # outputs of 17, 485 and 4 877 bytes: a buffered stdout whose flush fails
    # keeps the small ones for the next flush, but drops those of distances.out
    CLOSED_READER_CASES = ["center-padic", "enumerate-hol-3", "distances"]

    @pytest.mark.parametrize("name", CLOSED_READER_CASES)
    def test_closed_reader_unbuffered_is_an_error_line(self, name):
        # each write reaches the pipe inside the verb, which reports it
        proc = self.closed_reader(name, {**ENV, "PYTHONUNBUFFERED": "1"})
        assert (proc.returncode, proc.stderr) == (1, b"error: [Errno 32] Broken pipe\n")

    @pytest.mark.parametrize("name", CLOSED_READER_CASES)
    def test_closed_reader_buffered_is_a_failed_final_flush(self, name):
        # the bytes wait in the buffer until the last flush fails: reported
        # once, as the unbuffered write is, with the same exit code
        proc = self.closed_reader(name, ENV)
        assert (proc.returncode, proc.stderr) == (1, b"error: [Errno 32] Broken pipe\n")


# Nothing in the package may depend on string hashing: every case runs in
# a child process under two hash seeds and must write its golden bytes.
# `enumerate-hol-3` is the one case whose path goes through weak_similarity.
@pytest.mark.parametrize("seed", ["0", "12345"])
def test_output_independent_of_hash_seed(seed, tmp_path):
    env = {**ENV, "PYTHONHASHSEED": seed}
    dot_path = tmp_path / "g.dot"
    for name, (argv, expected) in CASES.items():
        proc = subprocess.run(
            [sys.executable, "-B", "-m", "ultratree.cli",
             *(arg.replace("{dot}", str(dot_path)) for arg in argv)],
            capture_output=True, env=env, timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (expected, b""), name
        assert proc.stdout == (GOLDEN / f"{name}.out").read_bytes(), name
        dot_file = GOLDEN / f"{name}.dot"
        if dot_file.exists():
            assert dot_path.read_bytes() == dot_file.read_bytes(), name


def test_con3_on_ten_points_within_40_mb():
    # 165 874 classes. On 2 cores (CPython 3.11) the walk that sorted every
    # forest by nested keys took 3.6 s and 75 MB; building the forests in
    # order took 1.4 s and 61 MB, folding each class off its root's
    # children, with no root interned, 0.9 s and 27 MB, and folding over
    # forest states takes 0.1 s and 18 MB. The peak is read by a small
    # starter process, since a child of pytest starts from pytest's own peak.
    code, lines, _, rss = measured(["enumerate", "--n", "10", "--check", "con3"])
    assert code == 0
    assert b"".join(lines) == (GOLDEN / "enumerate-con3-10.out").read_bytes()
    assert rss <= 40 * 1024


@pytest.mark.parametrize("check", ["con3", "hol"])
def test_fold_campaign_on_eleven_points_within_1_s_and_40_mb(check):
    # 1 484 344 classes. Walking every class took 6.5-7.6 s and 103 MB on
    # 2 cores (CPython 3.11), and interning every root 13.3-16.1 s and
    # 378-403 MB; folding over the walk's 264 forest states takes about
    # 0.2 s and 19 MB, start-up included
    start = time.perf_counter()
    code, lines, _, rss = measured(["enumerate", "--n", "11", "--check", check])
    wall = time.perf_counter() - start
    assert code == 0
    assert b"".join(lines) == (GOLDEN / f"enumerate-{check}-11.out").read_bytes()
    assert wall <= 1.0
    assert rss <= 40 * 1024


def test_closed_balls_on_eleven_points_within_40_mb():
    # 33 508 of the 1 484 344 classes are realizable. Walking every class
    # and skipping the others peaked at 91 MB on 2 cores (CPython 3.11);
    # the walk of the realizable classes alone peaks near 20 MB
    code, lines, _, rss = measured(["enumerate", "--n", "11", "--check", "closed-balls"])
    assert code == 0
    assert b"".join(lines) == (GOLDEN / "enumerate-closed-balls-11.out").read_bytes()
    assert rss <= 40 * 1024


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            dot_path = Path(tmp) / f"{case}.dot"
            code, out, dot = run_case(case, dot_path)
            if code != CASES[case][1]:
                sys.exit(f"{case}: exit code {code}, expected {CASES[case][1]}")
            (GOLDEN / f"{case}.out").write_bytes(out.encode())
            if dot:
                (GOLDEN / f"{case}.dot").write_bytes(dot.encode())
            print(f"wrote {case}")
