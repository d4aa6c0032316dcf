"""CLI output pinned byte for byte against files in tests/golden/.

The inputs are a seeded 40-vertex tree drawn from the benchmark's
tree-scale label pool (1..15 plus the top label 16 four times), its
distance-matrix CSV, and the 3-adic sample of 1..30. The expected
outputs were written by the CLI before the integer-rank core replaced
the Fraction-matrix one; regenerate them only for a deliberate output
change, with

    PYTHONPATH=src python tests/test_golden.py

``enumerate-con3-10.out`` is not among those cases: a memory gate runs
it in a child process. Regenerate it with

    PYTHONPATH=src python -m ultratree.cli enumerate --n 10 --check con3 \
        > tests/golden/enumerate-con3-10.out
"""

from __future__ import annotations

import contextlib
import io
import subprocess
import sys
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


# Nothing in the package may depend on string hashing: each of these runs
# in a child process under two hash seeds and must print its golden bytes.
HASH_SEED_CASES = ["center-tree", "check-padic", "is-ut-matrix", "enumerate-suite-6"]


@pytest.mark.parametrize("seed", ["0", "12345"])
def test_output_independent_of_hash_seed(seed):
    env = {"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
           "PYTHONHASHSEED": seed, "PATH": ""}
    for name in HASH_SEED_CASES:
        argv, expected = CASES[name]
        proc = subprocess.run(
            [sys.executable, "-B", "-m", "ultratree.cli", *argv],
            capture_output=True, env=env, timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (expected, b"")
        assert proc.stdout == (GOLDEN / f"{name}.out").read_bytes()


def test_con3_on_ten_points_within_66_mb():
    # 165 874 classes. On 2 cores (CPython 3.11) the walk that sorted every
    # forest by nested keys took 3.6 s and 75 MB; building the forests in
    # order takes 1.4 s and 61 MB. The peak is read by a small starter
    # process, since a child of pytest starts from pytest's own peak.
    code, lines, _, rss = measured(["enumerate", "--n", "10", "--check", "con3"])
    assert code == 0
    assert b"".join(lines) == (GOLDEN / "enumerate-con3-10.out").read_bytes()
    assert rss <= 66 * 1024


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
