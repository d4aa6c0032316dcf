import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ultratree import diametrical_graph, multipartite_parts, spanning_star, validate_tree
from ultratree.errors import FormatError, NonpositiveOffDiagonal, NotSymmetric, UltratreeError
from ultratree.formats import (
    diametrical_dot_string,
    matrix_csv_string,
    parse_matrix_csv,
    parse_tree_json,
    tree_json_string,
)
from ultratree.rationals import format_rational, parse_rational

F = Fraction


class TestRationals:
    @pytest.mark.parametrize(
        "text,value",
        [("3", F(3)), ("-7", F(-7)), ("5/2", F(5, 2)), ("-9/12", F(-3, 4)), ("0", F(0))],
    )
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("bad", ["0.5", "1e3", "1/0", "1/-2", "", "a/b", "1.0", "nan"])
    def test_reject(self, bad):
        with pytest.raises(FormatError):
            parse_rational(bad)

    @pytest.mark.parametrize("bad", ["\u0663", "\uff17/2", "1/\u0662", "\u0661\u0660", "\U0001d7d9"])
    def test_reject_digits_outside_ascii(self, bad):
        # Arabic-Indic, fullwidth and mathematical digits read as numbers
        # under a Unicode-aware \d; the text form is ASCII only
        with pytest.raises(FormatError) as err:
            parse_rational(bad)
        assert repr(bad) in str(err.value)

    def test_format_roundtrip(self):
        for value in (F(3), F(-7, 3), F(0), F(10, 4)):
            assert parse_rational(format_rational(value)) == value
        assert format_rational(F(6, 3)) == "2"  # integers drop the /1


class TestTreeJson:
    def test_roundtrip(self, path_tree):
        text = tree_json_string(path_tree)
        again = parse_tree_json(text)
        assert again == path_tree

    def test_decimal_label_rejected(self):
        with pytest.raises(FormatError):
            parse_tree_json(
                '{"vertices": ["a"], "labels": {"a": 0.5}, "edges": []}'
            )
        with pytest.raises(FormatError):
            parse_tree_json(
                '{"vertices": ["a"], "labels": {"a": "0.5"}, "edges": []}'
            )

    def test_integer_labels_accepted(self):
        t = parse_tree_json('{"vertices": ["a"], "labels": {"a": 3}, "edges": []}')
        assert t.labels == (3,)

    def test_missing_field(self):
        with pytest.raises(FormatError):
            parse_tree_json('{"vertices": ["a"], "labels": {"a": "1"}}')

    def test_malformed_json(self):
        with pytest.raises(FormatError):
            parse_tree_json("{nope")

    @pytest.mark.parametrize("edge", ["[1, 2]", '["1", 2]', '[null, "2"]', '[["1"], "2"]'])
    def test_non_string_edge_endpoint_rejected(self, edge):
        # str() would turn 1 and 2 into the vertex names "1" and "2"
        text = (
            '{"vertices": ["1", "2"], "labels": {"1": "1", "2": "1"}, '
            '"edges": [' + edge + "]}"
        )
        with pytest.raises(FormatError) as err:
            parse_tree_json(text)
        assert repr(json.loads(edge)) in str(err.value)

    def test_duplicated_label_key_rejected(self):
        # json keeps the last value: "a" would silently get the label 5
        text = (
            '{"vertices": ["a", "b"], "labels": {"a": "1", "b": "1", "a": "5"}, '
            '"edges": [["a", "b"]]}'
        )
        with pytest.raises(FormatError, match="duplicate JSON key 'a'"):
            parse_tree_json(text)

    def test_duplicated_field_rejected(self):
        # a second edge list replaced the first, and the error then blamed
        # connectivity
        text = (
            '{"vertices": ["a", "b"], "labels": {"a": "1", "b": "1"}, '
            '"edges": [["a", "b"]], "edges": []}'
        )
        with pytest.raises(FormatError, match="duplicate JSON key 'edges'"):
            parse_tree_json(text)

    def test_duplicated_key_in_an_ignored_field_rejected(self):
        text = (
            '{"vertices": ["a"], "labels": {"a": "1"}, "edges": [], '
            '"meta": {"notes": [{"x": 1, "x": 2}]}}'
        )
        with pytest.raises(FormatError, match="duplicate JSON key 'x'"):
            parse_tree_json(text)
        # the same field without the repeat is ignored, as before
        assert parse_tree_json(text.replace('"x": 2', '"y": 2')).vertices == ("a",)

    def test_validate_tree_still_names_endpoints_by_str(self):
        # the library entry point keeps converting endpoints with str()
        tree = validate_tree(["1", "2"], [(1, 2)], {"1": 1, "2": 1})
        assert tree.edges == ((0, 1),)


class TestMatrixCsv:
    def test_roundtrip(self, path_space):
        text = matrix_csv_string(path_space)
        again = parse_matrix_csv(text)
        assert again == path_space

    def test_fractional_entries(self):
        text = "a,b\n0,1/2\n1/2,0\n"
        space = parse_matrix_csv(text)
        assert space.distance("a", "b") == F(1, 2)
        assert matrix_csv_string(space) == text

    def test_asymmetric_rejected(self):
        with pytest.raises(NotSymmetric):
            parse_matrix_csv("a,b\n0,1\n2,0\n")

    def test_decimal_rejected(self):
        with pytest.raises(FormatError):
            parse_matrix_csv("a,b\n0,0.5\n0.5,0\n")

    def test_wrong_row_count(self):
        with pytest.raises(FormatError):
            parse_matrix_csv("a,b\n0,1\n")

    def test_negative_entry_rejected(self):
        with pytest.raises(NonpositiveOffDiagonal):
            parse_matrix_csv("a,b\n0,-1\n-1,0\n")

    def test_spellings_of_one_value_share_a_rank(self):
        space = parse_matrix_csv("a,b,c\n0,1/2,1\n2/4,0,1\n1,+1,0\n")
        assert space.values == (0, F(1, 2), 1)
        assert matrix_csv_string(space) == "a,b,c\n0,1/2,1\n1/2,0,1\n1,1,0\n"

    @pytest.mark.parametrize(
        "text,message",
        [
            ("", "matrix CSV is empty"),
            ("\n\n", "matrix CSV is empty"),
            # a short row and a missing row: the row count is reported
            ("a,b,c\n0,1\n1,0,1\n", "expected 3 matrix rows after the header, got 2"),
            ("a,b\n0,x\n1,0\n1,0\n", "expected 2 matrix rows after the header, got 3"),
            # otherwise the first fault in file order
            ("a,b\n0,x\n1\n", "not an exact rational: 'x'"),
            ("a,b\n0\n1,x\n", "row has 1 entries, expected 2"),
            # a CSV error after another fault still comes first
            ("a,b\n0\n1,0\r1\n", "invalid CSV"),
            ("a,b\n0,x\n1,0\r1\n", "invalid CSV"),
        ],
    )
    def test_fault_precedence(self, text, message):
        with pytest.raises(FormatError) as err:
            parse_matrix_csv(text)
        assert str(err.value).startswith(message)

    def test_parse_holds_no_cell_strings(self):
        # each row is converted as it is read: a 500-point CSV (0.75 MB)
        # peaks near 5 MB under tracemalloc, where holding every cell
        # string peaked at 20 MB
        import tracemalloc

        from ultratree import distance_matrix, random_labeled_tree

        pool = list(range(1, 16)) + [16] * 4
        space = distance_matrix(random_labeled_tree(500, pool, seed=1))
        text = matrix_csv_string(space)
        tracemalloc.start()
        try:
            parsed = parse_matrix_csv(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed == space
        assert peak <= 10 * 2**20

    def test_read_holds_no_second_copy_of_the_text(self, monkeypatch):
        # a 1 000-point CSV (3 MB): through a StringIO, which holds four
        # bytes a character, reading peaked at 19.3 MB under tracemalloc;
        # line by line it peaks at the 7.9 MB of the rows themselves
        import tracemalloc

        from ultratree import distance_matrix, hierarchy, random_labeled_tree

        pool = list(range(1, 16)) + [16] * 4
        space = distance_matrix(random_labeled_tree(1000, pool, seed=1))
        text = matrix_csv_string(space)
        peaks = []
        real = hierarchy.validate_ultrametric

        def validate(*args):  # the peak of the reading; validation runs untraced
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            return real(*args)

        monkeypatch.setattr(hierarchy, "validate_ultrametric", validate)
        tracemalloc.start()
        try:
            parsed = parse_matrix_csv(text)
        finally:
            tracemalloc.stop()
        assert parsed == space
        assert len(text) > 3 * 10**6 and peaks[0] <= 10 * 2**20


class TestDotExport:
    def test_contents(self, path_space):
        graph = diametrical_graph(path_space)
        parts = multipartite_parts(graph)
        star = spanning_star(graph)
        dot = diametrical_dot_string(graph, parts, star)
        assert dot.startswith("graph diametrical {")
        assert dot.count(" -- ") == 5
        assert '"x1" -- "x2";' in dot
        assert "doublecircle" in dot and "star center" in dot
        # the close pair shares one fill color, distinct from the others
        assert dot.count("fillcolor=3") == 2

    def test_deterministic(self, path_space):
        graph = diametrical_graph(path_space)
        parts = multipartite_parts(graph)
        star = spanning_star(graph)
        assert diametrical_dot_string(graph, parts, star) == diametrical_dot_string(
            graph, parts, star
        )


# --- parser fuzzing ---------------------------------------------------------------

VALID_CSV = "a,b,c,d\n0,2,2,2\n2,0,2,2\n2,2,0,1/2\n2,2,1/2,0\n"
VALID_JSON = (
    '{"vertices": ["x1", "x2", "x3", "x4"], '
    '"labels": {"x1": "2", "x2": "2", "x3": "1", "x4": "5/2"}, '
    '"edges": [["x1", "x2"], ["x2", "x3"], ["x3", "x4"]]}'
)
NUMERIC_JSON = (
    '{"vertices": ["1", "2", "3"], "labels": {"1": "2", "2": "1", "3": "1"}, '
    '"edges": [["1", "2"], ["2", "3"]]}'
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
CSV_ALPHABET = st.sampled_from(list("abx01239/-+,. \n\r\"'") + ["\x00", "é", "٣"])
JSON_ALPHABET = st.sampled_from(list('{}[]":,. \n0123/-abx') + ["vertices", "labels", "edges"])


def roundtrips_or_rejects(parse, write, text):
    """Either an UltratreeError, or the writer's text parses back to the same value."""
    try:
        value = parse(text)
    except UltratreeError:
        return
    written = write(value)
    assert parse(written) == value
    assert write(parse(written)) == written


@st.composite
def mutated(draw, base, alphabet):
    """A valid file with a few spans deleted, replaced or inserted."""
    text = base
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 3))
        insert = "".join(draw(st.lists(alphabet, max_size=4)))
        text = text[:pos] + insert + text[pos + cut:]
    return text


FUZZ = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestParserFuzz:
    @given(st.text(max_size=120))
    @FUZZ
    def test_matrix_csv_arbitrary_text(self, text):
        roundtrips_or_rejects(parse_matrix_csv, matrix_csv_string, text)

    @given(st.text(CSV_ALPHABET, max_size=60))
    @FUZZ
    def test_matrix_csv_csv_like_text(self, text):
        roundtrips_or_rejects(parse_matrix_csv, matrix_csv_string, text)

    @given(mutated(VALID_CSV, CSV_ALPHABET))
    @FUZZ
    def test_matrix_csv_mutated(self, text):
        roundtrips_or_rejects(parse_matrix_csv, matrix_csv_string, text)

    @given(st.text(max_size=120))
    @FUZZ
    def test_tree_json_arbitrary_text(self, text):
        roundtrips_or_rejects(parse_tree_json, tree_json_string, text)

    @given(mutated(VALID_JSON, JSON_ALPHABET))
    @FUZZ
    def test_tree_json_mutated(self, text):
        roundtrips_or_rejects(parse_tree_json, tree_json_string, text)

    @given(JSON_VALUES, st.sampled_from(["vertices", "labels", "edges"]))
    @FUZZ
    def test_tree_json_field_of_any_shape(self, value, field):
        data = json.loads(VALID_JSON)
        data[field] = value
        roundtrips_or_rejects(parse_tree_json, tree_json_string, json.dumps(data))

    @given(st.integers(0, 1), st.integers(0, 1), st.integers(1, 3) | JSON_VALUES)
    @FUZZ
    def test_tree_json_edge_endpoint_of_any_type(self, edge, end, value):
        # vertex names that read as numbers: an int endpoint must not pass for one
        data = json.loads(NUMERIC_JSON)
        data["edges"][edge][end] = value
        text = json.dumps(data)
        if isinstance(value, str):
            roundtrips_or_rejects(parse_tree_json, tree_json_string, text)
        else:
            with pytest.raises(FormatError, match="edge"):
                parse_tree_json(text)

    @pytest.mark.parametrize(
        "text",
        [
            "a,b\n0," + "9" * 5000 + "\n" + "9" * 5000 + ",0\n",  # beyond int() digit limit
            "a,b\r0,1\r1,0\r",  # bare carriage returns
        ],
    )
    def test_matrix_csv_defects_found_by_fuzzing(self, text):
        with pytest.raises(FormatError):
            parse_matrix_csv(text)

    @pytest.mark.parametrize(
        "text",
        [
            "[" * 100_000 + "]" * 100_000,  # nesting deeper than the decoder recurses
            '{"vertices": ["a"], "labels": {"a": ' + "9" * 5000 + '}, "edges": []}',
            '{"vertices": ["a"], "labels": {"a": "1"}, "edges": [1]}',
        ],
    )
    def test_tree_json_defects_found_by_fuzzing(self, text):
        with pytest.raises(FormatError):
            parse_tree_json(text)
