"""Output checks and the benchmark's own reference computations.

Each check takes an operation's exit code and stdout and returns None when
the output is right, else a one-line reason. Checks read values, not byte
layout: they pull verdict words, numbers and JSON fields out of the text,
so a change of report "schema" or of spacing is not counted as a failure.
The reference computations (path maxima, p-adic valuations) are written
here independently of ultratree.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import comb

_RATIONAL = re.compile(r"-?\d+(?:/\d+)?")


class Tree:
    """A labeled tree read straight from the tree JSON file."""

    def __init__(self, text: str):
        data = json.loads(text)
        self.vertices = list(data["vertices"])
        self.index = {v: i for i, v in enumerate(self.vertices)}
        self.labels = [Fraction(str(data["labels"][v])) for v in self.vertices]
        self.edges = [(self.index[a], self.index[b]) for a, b in data["edges"]]
        self.adj = [[] for _ in self.vertices]
        for a, b in self.edges:
            self.adj[a].append(b)
            self.adj[b].append(a)

    @property
    def n(self) -> int:
        return len(self.vertices)

    def row(self, source: int) -> list[Fraction]:
        """Distances from one vertex: the largest label on each path."""
        best: list = [None] * self.n
        best[source] = self.labels[source]
        stack = [source]
        while stack:
            u = stack.pop()
            for w in self.adj[u]:
                if best[w] is None:
                    best[w] = max(best[u], self.labels[w])
                    stack.append(w)
        best[source] = Fraction(0)
        return best

    def diametrical_edges(self) -> int:
        """Pairs at the diameter: all pairs minus those inside one component
        of the forest left after deleting the vertices with the top label."""
        top = max(self.labels)
        seen = [lab == top for lab in self.labels]
        inside = 0
        for start in range(self.n):
            if seen[start]:
                continue
            seen[start] = True
            stack, size = [start], 0
            while stack:
                u = stack.pop()
                size += 1
                for w in self.adj[u]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            inside += comb(size, 2)
        return comb(self.n, 2) - inside


def padic_distance(a: int, b: int, p: int) -> Fraction:
    if a == b:
        return Fraction(0)
    diff, v = abs(a - b), 0
    while diff % p == 0:
        diff //= p
        v += 1
    return Fraction(1, p**v)


def rationals(text: str) -> list[Fraction]:
    return [Fraction(tok) for tok in _RATIONAL.findall(text)]


def _csv_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines() if line]


# --- checks -------------------------------------------------------------------


def suite_passes(rc: int, out: str):
    lines = [line.split() for line in out.splitlines() if line.strip()]
    if rc != 0 or not lines:
        return f"exit code {rc}, {len(lines)} result lines"
    bad = [words for words in lines if words[0] not in ("PASS", "CONSISTENT")]
    return f"not passed: {' '.join(bad[0])}" if bad else None


def center_is(values: set[Fraction]):
    def check(rc: int, out: str):
        got = set(rationals(out))
        return None if rc == 0 and got == values else f"center {sorted(got)}"
    return check


def diametrical_matches(tree: Tree):
    edges, top = tree.diametrical_edges(), max(tree.labels)

    def check(rc: int, out: str):
        m_edges = re.search(r"edges\s*\((\d+)\)", out)
        m_diam = re.search(r"diameter:\s*(\S+)", out)
        if rc != 0 or not m_edges or not m_diam:
            return f"exit code {rc} or missing diameter/edge count"
        if int(m_edges.group(1)) != edges or Fraction(m_diam.group(1)) != top:
            return f"edges {m_edges.group(1)} (want {edges}), diameter {m_diam.group(1)}"
        return None

    return check


def matrix_matches(names: list[str], pairs: list[tuple[int, int]], dist):
    """Header is `names`; sampled entries (i, j) equal dist(i, j)."""
    def check_text(text: str):
        rows = _csv_rows(text)
        if [c.strip() for c in rows[0]] != names or len(rows) != len(names) + 1:
            return "matrix header or shape differs"
        for i, j in pairs:
            if Fraction(rows[i + 1][j]) != dist(i, j):
                return f"entry ({names[i]}, {names[j]}) = {rows[i + 1][j]}"
        return None
    return check_text


def stdout_matrix(check_text):
    def check(rc: int, out: str):
        return f"exit code {rc}" if rc != 0 else check_text(out)
    return check


def file_matrix(path: str, check_text):
    def check(rc: int, out: str):
        if rc != 0:
            return f"exit code {rc}"
        with open(path, encoding="utf-8") as fh:
            return check_text(fh.read())
    return check


def validate_ok(rc: int, out: str):
    return None if rc == 0 and out.startswith("OK") else f"exit code {rc}: {out[:60]!r}"


def canonical_matches(tree: Tree):
    """Same vertices and edges; each label kept or lowered to 0, top kept."""
    def check(rc: int, out: str):
        if rc != 0:
            return f"exit code {rc}"
        canon = Tree(out)
        if canon.vertices != tree.vertices or canon.edges != tree.edges:
            return "canonical tree changed vertices or edges"
        if any(new not in (old, 0) for old, new in zip(tree.labels, canon.labels)):
            return "canonical label is neither the original nor 0"
        if max(canon.labels) != max(tree.labels):
            return "canonical labeling lost the top label"
        return None
    return check


def report(expect_classes: int, **fields):
    """A campaign report with `classes_checked == expect_classes` in which
    every result that carries a given field (by name) has the given value,
    and at least one result carries it."""
    def check(rc: int, out: str):
        try:
            data = json.loads(out)
        except json.JSONDecodeError:
            return f"exit code {rc}, report is not JSON"
        if rc != 0 or data.get("classes_checked") != expect_classes:
            return f"exit code {rc}, classes_checked {data.get('classes_checked')}"
        results = data.get("results", {}).values()
        for key, want in fields.items():
            found = [res[key] for res in results if key in res]
            if not found or any(value != want for value in found):
                return f"report field {key} = {found}, expected {want}"
        return None
    return check


def report_classes(out: str) -> int:
    return json.loads(out)["classes_checked"]


def is_ut_certificate(names: list[str], matrix: list[list[Fraction]]):
    """The printed tree has the matrix's points and reproduces it."""
    def check(rc: int, out: str):
        if rc != 0 or out.strip() == "none":
            return f"exit code {rc}, no certificate for a realizable matrix"
        cert = Tree(out)
        if sorted(cert.vertices) != sorted(names) or len(cert.edges) != len(names) - 1:
            return "certificate is not a tree on the matrix's points"
        for i, p in enumerate(names):
            row = cert.row(cert.index[p])
            if any(row[cert.index[q]] != matrix[i][j] for j, q in enumerate(names)):
                return f"certificate distances from {p} differ from the matrix"
        return None
    return check


def is_ut_none(rc: int, out: str):
    return None if rc == 0 and out.strip() == "none" else f"exit code {rc}: {out[:40]!r}"
