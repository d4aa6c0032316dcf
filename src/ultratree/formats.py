"""External file formats: tree JSON, matrix CSV, DOT export.

All rationals cross the boundary as exact "p/q" strings; decimal notation
is rejected on input. Writers are byte-deterministic for fixed inputs.
"""

from __future__ import annotations

import io
import json
import re
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from .errors import FormatError
from .metric import FiniteUltrametricSpace, MultipartiteDecomposition, StarCertificate
from .rationals import format_rational, parse_rational

if TYPE_CHECKING:  # each layer is loaded by the function that uses it
    from .rankrows import DiametricalGraph
    from .tree import LabeledTree


# --- labeled trees ------------------------------------------------------------

def _unique_keys(pairs: list) -> dict:
    """A JSON object, refused when it repeats a key: ``json`` would keep
    the last value and drop the others without a word."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set = set()
        for key, _ in pairs:
            if key in seen:
                raise FormatError(f"duplicate JSON key {key!r}")
            seen.add(key)
    return obj


def parse_tree_json(text: str) -> LabeledTree:
    """Parse {"vertices": [...], "labels": {...}, "edges": [[a,b], ...]}.

    Checks the JSON shapes only; :func:`~ultratree.tree.validate_tree`
    reads the labels as decoded. A key repeated in any object, even one
    the parser ignores, is refused.
    """
    from .tree import validate_tree

    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:  # also too-long ints, deep nesting
        raise FormatError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise FormatError("tree file must hold a JSON object")
    try:
        vertices, labels, edges = data["vertices"], data["labels"], data["edges"]
    except KeyError as exc:
        raise FormatError(f"tree file is missing the {exc.args[0]!r} field") from None
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise FormatError("'vertices' must be an array of strings")
    if not isinstance(labels, dict):
        raise FormatError("'labels' must be an object mapping vertex to rational string")
    if not isinstance(edges, list) or not all(isinstance(e, list) for e in edges):
        raise FormatError("'edges' must be an array of 2-element vertex arrays")
    for edge in edges:
        if not all(isinstance(v, str) for v in edge):
            raise FormatError(f"edge {edge!r} must name its endpoints by vertex strings")
    return validate_tree(vertices, edges, labels)


def tree_json_string(tree: LabeledTree) -> str:
    data = {
        "vertices": list(tree.vertices),
        "labels": {
            v: format_rational(lab) for v, lab in zip(tree.vertices, tree.labels)
        },
        "edges": [[tree.vertices[i], tree.vertices[j]] for i, j in tree.edges],
    }
    return json.dumps(data, indent=2) + "\n"


def read_tree_file(path: str) -> LabeledTree:
    # utf-8-sig drops the byte-order mark some editors write first
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_tree_json(fh.read())


# --- distance matrices ----------------------------------------------------------

def parse_matrix_csv(text: str) -> FiniteUltrametricSpace:
    """Parse a matrix CSV: header of point names, then rows of rationals.

    Rows are converted as they are read, so no cell string outlives its
    row. A CSV error comes first, then an empty file, then the row count,
    then the first row with a wrong length or a cell that is no rational.
    """
    # `csv` and validation are loaded by the verbs that read or write a
    # matrix CSV only, not by those that read a tree
    import csv

    from .hierarchy import validate_ultrametric

    # the lines as a file gives them, so that a bare "\r" stays inside one for csv
    # to refuse; a StringIO would hold the text again at four bytes a character
    lines = (m[0] for m in re.finditer(r"[^\n]*\n|[^\n]+", text))
    rows = (row for row in csv.reader(lines) if row)
    parsed: dict[str, Fraction] = {}  # each distinct cell text is parsed once
    matrix = []
    fault: Optional[FormatError] = None
    count = 0
    try:
        header = next(rows, None)
        if header is None:
            raise FormatError("matrix CSV is empty")
        points = [cell.strip() for cell in header]
        n = len(points)
        for count, row in enumerate(rows, 1):
            if fault:
                continue  # the rows after a fault are still counted and read
            try:
                if len(row) != n:
                    raise FormatError(f"row has {len(row)} entries, expected {n}")
                for cell in row:
                    if cell not in parsed:
                        parsed[cell] = parse_rational(cell)
            except FormatError as exc:
                fault = exc
            else:
                matrix.append(tuple(map(parsed.__getitem__, row)))
    except csv.Error as exc:
        raise FormatError(f"invalid CSV: {exc}") from None
    if count != n:
        raise FormatError(f"expected {n} matrix rows after the header, got {count}")
    if fault:
        raise fault
    return validate_ultrametric(points, matrix)


def matrix_csv_string(space: FiniteUltrametricSpace) -> str:
    import csv

    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(space.points)
    # each distinct value is formatted once; rationals never need CSV quoting
    texts = [format_rational(v) for v in space.values]
    for row in space.ranks:
        out.write(",".join(map(texts.__getitem__, row)))
        out.write("\n")
    return out.getvalue()


def read_matrix_file(path: str) -> FiniteUltrametricSpace:
    # utf-8-sig drops the byte-order mark spreadsheets write first, which
    # would otherwise become part of the first point's name
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        return parse_matrix_csv(fh.read())


# --- DOT export ------------------------------------------------------------------

def diametrical_dot_string(
    graph: DiametricalGraph,
    parts: Optional[MultipartiteDecomposition] = None,
    star: Optional[StarCertificate] = None,
) -> str:
    """Render the diametrical graph; parts share a fill color, the star
    center (when present) is drawn with a double border."""
    index = {p: i for i, p in enumerate(graph.points)}
    rows = ((index[u], (index[v],)) for u, v in graph.edges)
    return "".join(diametrical_dot_chunks(graph.points, parts, star, rows))


def diametrical_dot_chunks(
    points: Sequence[str],
    parts: Optional[MultipartiteDecomposition],
    star: Optional[StarCertificate],
    rows: Iterable[tuple[int, Sequence[int]]],
) -> Iterator[str]:
    """:func:`diametrical_dot_string` in pieces, for writing as it goes:
    the nodes first, then one piece per item of ``rows``, which pairs a
    point's index with the indices of its later neighbours."""
    part_of: dict[str, int] = {}
    if parts is not None:
        for k, part in enumerate(parts.parts):
            for p in part:
                part_of[p] = k + 1
    quoted = [json.dumps(p) for p in points]
    lines = ["graph diametrical {", "  node [style=filled colorscheme=set19];"]
    for p, q in zip(points, quoted):
        attrs = [f"fillcolor={part_of.get(p, 9)}"]
        if star is not None and star.center == p:
            attrs.append("shape=doublecircle")
            attrs.append('xlabel="star center"')
        lines.append(f"  {q} [{' '.join(attrs)}];")
    yield "\n".join(lines) + "\n"
    for i, later in rows:
        if later:
            head = f"  {quoted[i]} -- "
            yield head + (";\n" + head).join(map(quoted.__getitem__, later)) + ";\n"
    yield "}\n"
