"""The workloads: seeded inputs and the CLI operations run on them.

Each workload has a `generate` step, timed as set-up, that writes its
seeded input files (mostly through the `ultratree` CLI itself), and an
`operations` step, untimed, that lists the CLI invocations of one pass
together with the check each output must pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable, Optional

import checks

# Sizes of one pass. TINY serves the harness self-test only. Every operation
# stays near a second or below (con3 at n = 8, not 9; suite and closed-balls
# at n = 5, not 6; a tree of 400 vertices, not 1000): the calibration that
# runs between operations tracks the host's speed only as finely as the
# operations are short.
FULL = dict(matrix_n=60, con3_n=8, suite_n=5, closed_n=5, hol_n=7, isut_n=6, tree_n=400)
TINY = dict(matrix_n=12, con3_n=5, suite_n=4, closed_n=4, hol_n=4, isut_n=4, tree_n=40)

# Weak-similarity classes per n, and those realizable by a labeled tree.
CLASSES = {4: 6, 5: 20, 6: 90, 7: 468, 8: 2910, 9: 20644}
REALIZABLE = {4: 4, 5: 10, 6: 28}


@dataclass
class Op:
    """One CLI invocation of a pass.

    `items` turns stdout into the work done; `same_as` names an earlier
    operation of the pass whose stdout must be byte-identical to this one's.
    """

    argv: list
    check: Callable[[int, str], Optional[str]]
    items: Callable[[str], int]
    jobs: int = 1
    same_as: Optional[int] = None


class Context:
    """Where a workload's files live, its seed and sizes, and a CLI runner."""

    def __init__(self, workdir: Path, seed: int, sizes: dict, cli):
        self.workdir = workdir
        self.seed = seed
        self.sizes = sizes
        self.cli = cli  # cli(argv, stdout_path) -> None, raises on failure

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def rng(self, salt: str) -> random.Random:
        return random.Random(f"{self.seed}:{salt}")

    def tree_seed(self, salt: str) -> str:
        return str(self.rng(salt).randrange(2**32))


def _pool(values) -> str:
    return ",".join(str(v) for v in values)


def _pairs(n: int) -> Callable[[str], int]:
    return lambda out: comb(n, 2)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _read_matrix(path: str) -> tuple[list[str], list[list[Fraction]]]:
    rows = [line.split(",") for line in _read(path).splitlines() if line]
    return [c.strip() for c in rows[0]], [[Fraction(c) for c in row] for row in rows[1:]]


def _sample_pairs(rng: random.Random, n: int, k: int) -> list[tuple[int, int]]:
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(k)]


# --- class-campaigns ------------------------------------------------------------
# Enumeration campaigns plus is-ut on seeded small class matrices, two of
# them tree-generated and two whose top split has no singleton block.

def _unrealizable_matrix(rng: random.Random, n: int) -> list[list[int]]:
    """An ultrametric whose root splits into blocks of >= 2 points only.

    A labeled tree on the points themselves puts its top label on a vertex
    that is then at the diameter from every other point, i.e. a singleton
    block of the top split; without one the matrix is not realizable.
    """
    order = list(range(n))
    rng.shuffle(order)
    blocks = [[order.pop(), order.pop()] for _ in range(rng.randint(2, n // 2))]
    for p in order:
        rng.choice(blocks).append(p)
    matrix = [[0] * n for _ in range(n)]

    def fill(block: list[int], cap: int) -> None:
        if len(block) < 2:
            return
        # a block of s points needs at most s - 1 levels below `level`
        level = rng.randint(len(block) - 1, cap)
        groups = [[p] for p in block[:2]]
        for p in block[2:]:
            if rng.random() < 0.5:
                groups.append([p])
            else:
                rng.choice(groups).append(p)
        for gi, a in enumerate(groups):
            for b in groups[gi + 1:]:
                for x in a:
                    for y in b:
                        matrix[x][y] = matrix[y][x] = level
        for g in groups:
            fill(g, level - 1)

    top = rng.randint(n, 2 * n)
    for bi, a in enumerate(blocks):
        for b in blocks[bi + 1:]:
            for x in a:
                for y in b:
                    matrix[x][y] = matrix[y][x] = top
        fill(a, top - 1)
    return matrix


def generate_classes(ctx: Context) -> None:
    n = ctx.sizes["isut_n"]
    for k in (1, 2):
        tree = ctx.path(f"real{k}.json")
        ctx.cli(["random-tree", "--n", str(n), "--seed", ctx.tree_seed(f"real{k}"),
                 "--pool", "0,1,2,3"], tree)
        ctx.cli(["distances", tree, "-o", ctx.path(f"real{k}.csv")], None)
        matrix = _unrealizable_matrix(ctx.rng(f"unreal{k}"), n)
        lines = [",".join(f"p{i + 1}" for i in range(n))]
        lines += [",".join(str(d) for d in row) for row in matrix]
        with open(ctx.path(f"unreal{k}.csv"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def operations_classes(ctx: Context) -> list[Op]:
    s = ctx.sizes
    con3 = ["enumerate", "--n", str(s["con3_n"]), "--check", "con3"]
    bound = s["con3_n"].bit_length()  # 1 + floor(log2 n)
    con3_check = checks.report(CLASSES[s["con3_n"]], max_center_size=bound, bound=bound)
    classes = checks.report_classes
    ops = [
        Op(con3, con3_check, classes),
        Op(con3 + ["--jobs", "2"], con3_check, classes, jobs=2, same_as=0),
        Op(["enumerate", "--n", str(s["suite_n"]), "--check", "suite"],
           checks.report(CLASSES[s["suite_n"]], verdict="PASS"), classes),
        Op(["enumerate", "--n", str(s["closed_n"]), "--check", "closed-balls"],
           checks.report(REALIZABLE[s["closed_n"]], failures=0), classes),
        Op(["enumerate", "--n", str(s["hol_n"]), "--check", "hol"],
           checks.report(CLASSES[s["hol_n"]], satisfying_classes=0), classes),
    ]
    no_items = lambda out: 0  # noqa: E731 - is-ut reports no classes_checked
    for k in (1, 2):
        real = ctx.path(f"real{k}.csv")
        ops.append(Op(["is-ut", real], checks.is_ut_certificate(*_read_matrix(real)), no_items))
        ops.append(Op(["is-ut", ctx.path(f"unreal{k}.csv")], checks.is_ut_none, no_items))
    return ops


# --- tree-scale -------------------------------------------------------------------
# One large tree JSON: the tree layer and the writers, no enumeration. One
# `check` on the 32-label matrix CSV and one `padic` sample ride along, so
# that parsing, validation and padic are measured on a listed workload.

def _padic_op(ctx: Context, rng: random.Random) -> Op:
    n = ctx.sizes["matrix_n"]
    sample = list(range(1, n + 1))
    check = checks.matrix_matches(
        [str(v) for v in sample], _sample_pairs(rng, n, 200),
        lambda i, j: checks.padic_distance(sample[i], sample[j], 3))
    return Op(["padic", "--p", "3", "--sample", _pool(sample)],
              checks.stdout_matrix(check), _pairs(n))


# 16 labels, the top one drawn 4 times as often as each other: about a fifth
# of the vertices carry it, so nearly all pairs are diametrical and the
# `diametrical` edge list, which sets the peak RSS, has about the same size
# for every seed (with a uniform pool it ranged over 0.2 of its median).
TREE_POOL = _pool([*range(1, 16), 16, 16, 16, 16])


def generate_tree(ctx: Context) -> None:
    ctx.cli(["random-tree", "--n", str(ctx.sizes["tree_n"]), "--seed", ctx.tree_seed("tree"),
             "--pool", TREE_POOL], ctx.path("tree.json"))
    # `m32.csv`: the distance matrix of a smaller tree with a 32-label pool
    m32 = ctx.path("m32.json")
    ctx.cli(["random-tree", "--n", str(ctx.sizes["matrix_n"]), "--seed", ctx.tree_seed("m32"),
             "--pool", _pool(range(1, 33))], m32)
    ctx.cli(["distances", m32, "-o", ctx.path("m32.csv")], None)


def operations_tree(ctx: Context) -> list[Op]:
    path = ctx.path("tree.json")
    tree = checks.Tree(_read(path))
    n = tree.n
    items = _pairs(n)
    rng = ctx.rng("tree-samples")
    rows = {i: tree.row(i) for i in (rng.randrange(n) for _ in range(8))}
    dist_csv = ctx.path("distances.csv")
    dist_check = checks.matrix_matches(
        tree.vertices, [(i, j) for i in rows for j in range(n)], lambda i, j: rows[i][j])
    return [
        Op(["validate", path], checks.validate_ok, items),
        Op(["distances", path, "-o", dist_csv], checks.file_matrix(dist_csv, dist_check), items),
        Op(["canonical", path], checks.canonical_matches(tree), items),
        Op(["center", path], checks.center_is({Fraction(0), max(tree.labels)}), items),
        Op(["diametrical", path], checks.diametrical_matches(tree), items),
        Op(["check", ctx.path("m32.csv")], checks.suite_passes, _pairs(ctx.sizes["matrix_n"])),
        _padic_op(ctx, rng),
    ]


WORKLOADS = {
    "class-campaigns": (generate_classes, operations_classes),
    "tree-scale": (generate_tree, operations_tree),
}
