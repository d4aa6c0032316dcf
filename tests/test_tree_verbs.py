"""`center` and `diametrical` on a tree JSON read Kruskal's merge order.

Neither verb builds the n x n matrix of a tree: the center comes from the
runs of the merge order, the diametrical parts from its top gaps, and
the edge list is written row by row. The matrix path (the same verbs on
the tree's `distances` CSV) is the oracle, byte for byte; it also pins
`spheres`, with and without `--subsets`, and `check`, which the CSV
takes with `--ut`.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ultratree import (
    center_of_distances,
    diameter,
    diametrical_graph,
    distance_matrix,
    formats,
    mergeorder,
    metric,
    multipartite_parts,
    random_labeled_tree,
    tree,
    treemetric,
    validate_tree,
)
from ultratree.cli import main
from ultratree.errors import DegenerateLabeling

SRC = str(Path(__file__).resolve().parent.parent / "src")
# the verbs that read a tree JSON's merge order and build no matrix
MERGE_ORDER_VERBS = (["center"], ["diametrical"], ["diametrical", "--dot", "{dot}"])
# every verb whose bytes on a tree JSON are those on its matrix CSV
VERBS = (*MERGE_ORDER_VERBS, ["spheres"], ["spheres", "--subsets"], ["check"])
# what a verb adds on the matrix CSV: a tree JSON is tree-generated by its form
CSV_FLAGS = {"check": ["--ut"]}
# the benchmark's tree-scale pool: 1..15, and the top label 16 four times
TREE_POOL = [*range(1, 16), 16, 16, 16, 16]


def labeled(labels, edges) -> tree.LabeledTree:
    names = [f"v{i + 1}" for i in range(len(labels))]
    return validate_tree(
        names,
        [(names[i], names[j]) for i, j in edges],
        {name: lab for name, lab in zip(names, labels)},
    )


def prufer_tree(labels, seq) -> tree.LabeledTree:
    n = len(labels)
    edges = [(0, 1)] if n == 2 else treemetric._prufer_to_edges(seq, n) if n > 2 else []
    return labeled(labels, edges)


def run(argv, workdir: Path):
    """One CLI run: (exit code, stdout, stderr, DOT file bytes or None)."""
    dot = workdir / "g.dot"
    if dot.exists():
        dot.unlink()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(dot) if arg == "{dot}" else arg for arg in argv])
    return code, out.getvalue(), err.getvalue(), dot.read_bytes() if dot.exists() else None


def assert_tree_matches_matrix(t: tree.LabeledTree, workdir: Path) -> None:
    """Each verb gives the same bytes on the tree JSON and on its matrix CSV
    (``check`` on the CSV with ``--ut``); a degenerate labeling exits 1
    naming the edge, for every verb."""
    json_path = workdir / "t.json"
    json_path.write_text(formats.tree_json_string(t), encoding="utf-8")
    bad = treemetric.degenerate_edge(t)
    if bad is not None:
        for verb, *rest in VERBS:
            got = run([verb, str(json_path), *rest], workdir)
            assert got == (1, "", f"error: {DegenerateLabeling(bad)}\n", None)
        return
    csv_path = workdir / "t.csv"
    csv_path.write_text(formats.matrix_csv_string(distance_matrix(t)), encoding="utf-8")
    for verb, *rest in VERBS:
        expected = run([verb, str(csv_path), *rest, *CSV_FLAGS.get(verb, [])], workdir)
        assert expected[0] == 0
        assert run([verb, str(json_path), *rest], workdir) == expected


def index_parts(space) -> list[list[int]]:
    graph = diametrical_graph(space)
    return [list(map(space.index_of, part)) for part in multipartite_parts(graph).parts]


class TestAgainstTheMatrix:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_tiny_tree_through_the_cli(self, n, tmp_path):
        for seq in itertools.product(range(n), repeat=max(n - 2, 0)):
            for labels in itertools.product(range(3), repeat=n):
                assert_tree_matches_matrix(prufer_tree(labels, seq), tmp_path)

    def test_every_four_vertex_tree(self):
        # the merge-order center and parts against the matrix ones
        for seq in itertools.product(range(4), repeat=2):
            for labels in itertools.product(range(4), repeat=4):
                t = prufer_tree(labels, seq)
                if treemetric.degenerate_edge(t) is not None:
                    with pytest.raises(DegenerateLabeling):
                        treemetric._gap_form(t)
                    continue
                space = distance_matrix(t)
                order, gaps, values = treemetric._gap_form(t)
                assert mergeorder._center_from_gaps(gaps, values) == center_of_distances(space)
                assert mergeorder._diametrical_parts(order, gaps, values) == index_parts(space)
                assert values[-1] == diameter(space)

    @pytest.mark.parametrize(
        "labels, edges",
        [
            ([5], []),  # one point: no parts line, no star
            ([0], []),
            ([0, 3], [(0, 1)]),
            ([3, 1, 1, 1, 1], [(0, 1), (0, 2), (0, 3), (0, 4)]),  # top label on the hub
            ([1, 1, 1, 3], [(0, 1), (1, 2), (2, 3)]),  # top label on one leaf
            ([1, 3, 1, 2, 1], [(0, 1), (1, 2), (1, 3), (3, 4)]),  # top label inside
            ([2, 2, 2, 2], [(0, 1), (1, 2), (2, 3)]),  # equidistant
            ([0, 2, 0, 2, 0], [(0, 1), (1, 2), (2, 3), (3, 4)]),  # equidistant, zeros
            ([1, 2, 1, 2, 1, 2], [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),  # tied labels
            (["1/2", "1/3", 0, "1/2"], [(0, 1), (1, 2), (1, 3)]),
            ([0, 0], [(0, 1)]),  # degenerate
            ([1, 0, 0, 2], [(0, 1), (1, 2), (2, 3)]),  # degenerate inside
        ],
    )
    def test_chosen_trees(self, labels, edges, tmp_path):
        assert_tree_matches_matrix(labeled(labels, edges), tmp_path)

    @given(
        st.lists(st.integers(0, 5), min_size=1, max_size=14).flatmap(
            lambda labels: st.tuples(
                st.just(labels),
                st.lists(
                    st.integers(0, len(labels) - 1),
                    min_size=max(len(labels) - 2, 0),
                    max_size=max(len(labels) - 2, 0),
                ),
            )
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_random_trees(self, drawn):
        labels, seq = drawn
        with tempfile.TemporaryDirectory() as workdir:
            assert_tree_matches_matrix(prufer_tree(labels, seq), Path(workdir))


class TestNoMatrix:
    def test_tree_verbs_build_no_matrix(self, tmp_path, monkeypatch):
        calls = []

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            treemetric, "distance_matrix", counting("distance_matrix", treemetric.distance_matrix)
        )
        monkeypatch.setattr(
            metric, "_ranks_from_gaps", counting("_ranks_from_gaps", metric._ranks_from_gaps)
        )
        t = random_labeled_tree(30, TREE_POOL, seed=3)
        path = tmp_path / "t.json"
        path.write_text(formats.tree_json_string(t), encoding="utf-8")
        for verb, *rest in MERGE_ORDER_VERBS:
            assert run([verb, str(path), *rest], tmp_path)[0] == 0
        assert calls == []
        # the counters see the matrix where one is built
        assert run(["distances", str(path)], tmp_path)[0] == 0
        assert calls == ["distance_matrix", "_ranks_from_gaps"]


class CountingWrites(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


class TestStreaming:
    def test_redirected_stdout_gets_every_row_in_one_write_each(self, tmp_path):
        # 30 equidistant points: 435 edges over 29 rows
        t = labeled([1] * 30, [(i, i + 1) for i in range(29)])
        path = tmp_path / "t.json"
        path.write_text(formats.tree_json_string(t), encoding="utf-8")
        out = CountingWrites()
        with contextlib.redirect_stdout(out):
            assert main(["diametrical", str(path)]) == 0
        text = out.getvalue()
        assert text.startswith("diameter: 1\nedges (435): v1-v2, v1-v3, ")
        assert text.count("-") == 435
        assert text.endswith("v29-v30\nparts: " + " | ".join(f"{{v{i}}}" for i in range(1, 31))
                             + "\nstar center: v1\n")
        assert out.writes < 30 + 10


# A child's ru_maxrss starts from the peak of the process it was forked
# from, so the CLI is started by a small interpreter, not by pytest, whose
# own RSS is far above the limit. The starter passes the CLI's stdout
# through and reports its exit code and peak RSS (KiB) on stderr.
STARTER = """import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:])
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, file=sys.stderr)
"""


def measured(argv: list) -> tuple[int, list[bytes], int, int]:
    """Run the CLI in a child; (exit code, the output lines, each cut after
    its first 64 KiB or so, the number of '-' in the whole output, the
    child's peak RSS in KiB). The output is read in pieces, never whole."""
    env = {**os.environ, "PYTHONPATH": SRC}
    cli = [sys.executable, "-B", "-m", "ultratree.cli", *argv]  # no bytecode left in src/
    with subprocess.Popen(
        [sys.executable, "-c", STARTER, *cli], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        lines, dashes, starts = [], 0, True
        for piece in iter(functools.partial(proc.stdout.readline, 1 << 16), b""):
            dashes += piece.count(b"-")
            if starts:
                lines.append(piece)
            elif len(lines[-1]) < 1 << 16:  # only the head of a long line is kept
                lines[-1] += piece
            starts = piece.endswith(b"\n")
        code, rss = map(int, proc.stderr.read().split()[-2:])
    assert proc.returncode == 0
    return code, lines, dashes, rss


class TestMemory:
    """A 3 000-vertex tree: through the matrix `center` peaked at about
    170 MB and `diametrical` at about 800 MB; the merge order needs little
    more than start-up does."""

    LIMIT_KIB = 60 * 1024

    @pytest.fixture(scope="class")
    def big_tree(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("big") / "t3000.json"
        t = random_labeled_tree(3000, TREE_POOL, seed=11)
        path.write_text(formats.tree_json_string(t), encoding="utf-8")
        return path

    def test_diametrical(self, big_tree):
        code, lines, dashes, rss = measured(["diametrical", str(big_tree)])
        assert code == 0 and rss < self.LIMIT_KIB
        assert lines[0] == b"diameter: 16\n"
        edges = int(re.match(rb"edges \((\d+)\): ", lines[1])[1])
        parts = lines[2].decode().removeprefix("parts: ").rstrip("\n").split(" | ")
        sizes = [len(part.split(",")) for part in parts]
        assert sum(sizes) == 3000
        assert edges == dashes == 3000 * 2999 // 2 - sum(s * (s - 1) // 2 for s in sizes)
        assert lines[3].startswith(b"star center: ") and len(lines) == 4

    def test_center(self, big_tree):
        code, lines, _, rss = measured(["center", str(big_tree)])
        assert code == 0 and rss < self.LIMIT_KIB
        assert lines[-1] == b"{0, 16}\n"


class TestHundredThousandVertices:
    """`center` on a 10⁵-vertex tree JSON reads the merge order with no
    matrix: one run on 2 cores (CPython 3.11) took 1.7 s and 111 MB, most
    of it the JSON read. The gate allows 10 s and 200 MB."""

    def test_center(self, tmp_path):
        path = tmp_path / "t100000.json"
        t = random_labeled_tree(100_000, TREE_POOL, seed=11)
        path.write_text(formats.tree_json_string(t), encoding="utf-8")
        del t
        start = time.perf_counter()
        code, lines, _, rss = measured(["center", str(path)])
        wall = time.perf_counter() - start
        assert code == 0 and lines == [b"{0, 16}\n"]
        assert rss < 200 * 1024
        assert wall < 10
