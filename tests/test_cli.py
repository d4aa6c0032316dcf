import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

from ultratree.cli import _VERBS, build_parser, main
from ultratree.formats import parse_matrix_csv, parse_tree_json

PATH_TREE_JSON = """{
  "vertices": ["x1", "x2", "x3", "x4"],
  "labels": {"x1": "2", "x2": "2", "x3": "1", "x4": "1"},
  "edges": [["x1", "x2"], ["x2", "x3"], ["x3", "x4"]]
}
"""


@pytest.fixture
def tree_file(tmp_path):
    path = tmp_path / "path.json"
    path.write_text(PATH_TREE_JSON)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicVerbs:
    def test_validate(self, capsys, tree_file):
        code, out, _ = run(capsys, "validate", tree_file)
        assert code == 0
        assert "4 vertices" in out and "non-degenerate" in out

    def test_validate_bad_tree_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"vertices": ["a","b","c"], "labels": {"a":"1","b":"1","c":"1"},'
            ' "edges": [["a","b"],["b","c"],["c","a"]]}'
        )
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 1 and "cycle" in err

    def test_center(self, capsys, tree_file):
        code, out, _ = run(capsys, "center", tree_file)
        assert code == 0 and out.strip() == "{0, 2}"

    def test_distances_roundtrip(self, capsys, tree_file, tmp_path):
        from ultratree import distance_matrix

        out_csv = tmp_path / "m.csv"
        code, _, _ = run(capsys, "distances", tree_file, "-o", str(out_csv))
        assert code == 0
        reingested = parse_matrix_csv(out_csv.read_text())
        in_memory = distance_matrix(parse_tree_json(PATH_TREE_JSON))
        assert reingested == in_memory
        code, out, _ = run(capsys, "center", str(out_csv))
        assert code == 0 and out.strip() == "{0, 2}"

    def test_canonical(self, capsys, tmp_path):
        src = tmp_path / "two.json"
        src.write_text(
            '{"vertices": ["a","b"], "labels": {"a":"3","b":"2"}, "edges": [["a","b"]]}'
        )
        code, out, _ = run(capsys, "canonical", str(src))
        assert code == 0
        tree = parse_tree_json(out)
        assert tree.labels == (3, 0)

    def test_diametrical_with_dot(self, capsys, tree_file, tmp_path):
        dot_path = tmp_path / "g.dot"
        code, out, _ = run(capsys, "diametrical", tree_file, "--dot", str(dot_path))
        assert code == 0
        assert "edges (5)" in out
        assert "star center: x1" in out
        assert "parts: {x1} | {x2} | {x3,x4}" in out
        dot = dot_path.read_text()
        assert dot.count(" -- ") == 5 and "star center" in dot

    def test_spheres(self, capsys, tree_file):
        code, out, _ = run(capsys, "spheres", tree_file, "--subsets")
        assert code == 0
        assert "{x3,x4}  center=x3 radius=1" in out
        assert "all non-empty subsets are centered spheres: no" in out

    def test_spheres_subsets_answers_past_twenty_points(self, capsys, monkeypatch):
        # no fence: the 30-point golden sample gets its spheres and then the
        # answer, which only compares their count with 2^n - 1; a lowered
        # ULTRATREE_MAX_N changes nothing
        golden = Path(__file__).resolve().parent / "golden"
        padic = str(golden / "padic3.csv")
        spheres = (golden / "spheres-padic.out").read_text()
        answer = spheres + "all non-empty subsets are centered spheres: no\n"
        assert run(capsys, "spheres", padic, "--subsets") == (0, answer, "")
        monkeypatch.setenv("ULTRATREE_MAX_N", "2")
        assert run(capsys, "spheres", padic, "--subsets") == (0, answer, "")

    def test_spheres_subsets_enumerates_once(self, capsys, tree_file, monkeypatch):
        from ultratree import rankrows

        calls = []
        real = rankrows.enumerate_centered_spheres

        def counted(space):
            calls.append(space.n)
            return real(space)

        monkeypatch.setattr(rankrows, "enumerate_centered_spheres", counted)
        code, out, _ = run(capsys, "spheres", tree_file, "--subsets")
        assert code == 0 and "subsets are centered spheres: no" in out
        assert calls == [4]

    def test_check_tree_passes(self, capsys, tree_file):
        code, out, _ = run(capsys, "check", tree_file)
        assert code == 0
        assert "PASS ut-center-dichotomy" in out

    def test_duplicate_point_names_rejected(self, capsys, tmp_path):
        csv_path = tmp_path / "m.csv"
        csv_path.write_text("a,a,b\n0,1,2\n1,0,2\n2,2,0\n")
        code, _, err = run(capsys, "center", str(csv_path))
        assert code == 1 and "'a'" in err

    def test_label_key_naming_no_vertex_rejected(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"vertices": ["a","b"], "labels": {"a":"1","b":"1","zz":"-3"},'
            ' "edges": [["a","b"]]}'
        )
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 1 and "'zz'" in err

    def test_non_string_edge_endpoint_rejected(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"vertices": ["1","2"], "labels": {"1":"1","2":"1"}, "edges": [[1, 2]]}'
        )
        code, out, err = run(capsys, "validate", str(bad))
        assert code == 1 and out == ""
        assert "[1, 2]" in err

    def test_check_matrix_without_ut_flag(self, capsys, tmp_path):
        csv_path = tmp_path / "m.csv"
        csv_path.write_text("a,b\n0,1\n1,0\n")
        code, out, _ = run(capsys, "check", str(csv_path))
        assert code == 0
        assert "ut-center-dichotomy" not in out


class TestCampaignVerbs:
    def test_enumerate_hol(self, capsys, tmp_path):
        out_path = tmp_path / "r.json"
        code, _, _ = run(capsys, "enumerate", "--n", "3", "--check", "hol", "-o", str(out_path))
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["schema"] == 1
        assert report["verdict"] == "CONSISTENT"
        assert report["results"]["all-subsets-spheres"]["satisfying_classes"] == 1
        # the witness replays: its matrix parses back into a valid space
        witness_space = parse_matrix_csv(report["witnesses"][0]["matrix_csv"])
        assert witness_space.n == 3

    def test_enumerate_hol_runs_to_the_enumeration_fence(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "9", "--check", "hol")
        assert code == 0
        report = json.loads(out)
        assert report["classes_checked"] == 20644
        assert report["verdict"] == "CONSISTENT"

    def test_enumerate_con3(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "4", "--check", "con3")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["center-size-bound"]["max_center_size"] == 3

    def test_enumerate_fence_exit_code(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "99", "--check", "con3")
        assert code == 3 and "fence" in err

    # the campaigns that fold each class off its root's children run to
    # n = 11; the theorem suite stops at 10
    @pytest.mark.parametrize(
        "check,fence", [("con3", 11), ("hol", 11), ("closed-balls", 11), ("suite", 10)]
    )
    def test_each_campaign_has_its_fence(self, capsys, monkeypatch, check, fence):
        code, out, err = run(capsys, "enumerate", "--n", str(fence + 1), "--check", check)
        assert (code, out) == (3, "")
        message = f"class enumeration: n={fence + 1} exceeds the capacity fence {fence}"
        assert err == f"error: {message}\n"
        monkeypatch.setenv("ULTRATREE_MAX_N", "4")
        code, _, err = run(capsys, "enumerate", "--n", "5", "--check", check)
        assert (code, err) == (3, "error: class enumeration: n=5 exceeds the capacity fence 4\n")

    # at n = 1 the class root is the leaf, with no children to fold from
    ONE_POINT = {
        "con3": {
            "verdict": "CONSISTENT",
            "results": {
                "center-size-bound": {
                    "bound": 1, "bound_attained": True, "max_center_size": 1,
                    "verdict": "CONSISTENT",
                }
            },
            "witnesses": [
                {"label": "L", "matrix_csv": "x1\n0\n", "note": "center size 1 (bound 1)"}
            ],
        },
        "closed-balls": {
            "verdict": "CONSISTENT",
            "results": {
                "closed-balls-are-spheres": {
                    "failures": 0, "status": "search evidence", "verdict": "CONSISTENT",
                },
                "open-balls-are-spheres": {"failures": 0, "verdict": "PASS"},
            },
            "witnesses": [],
        },
        "suite": {
            "verdict": "PASS",
            "results": {"theorem-suite": {"failing_classes": 0, "verdict": "PASS"}},
            "witnesses": [],
        },
    }

    @pytest.mark.parametrize("check", list(ONE_POINT))
    def test_enumerate_one_point(self, capsys, check):
        code, out, _ = run(capsys, "enumerate", "--n", "1", "--check", check)
        assert code == 0
        expected = {"schema": 1, "check": check, "n": 1, "classes_checked": 1}
        assert json.loads(out) == {**expected, **self.ONE_POINT[check]}

    def test_env_var_lowers_fence(self, capsys, monkeypatch):
        monkeypatch.setenv("ULTRATREE_MAX_N", "2")
        code, _, _ = run(capsys, "enumerate", "--n", "3", "--check", "con3")
        assert code == 3

    # int() also read other scripts' digits, "_" separators and spaces
    @pytest.mark.parametrize("value", ["banana", "-5", "\u0663", "1_0", " 8 "])
    def test_env_var_must_be_a_positive_integer(self, capsys, monkeypatch, value):
        monkeypatch.setenv("ULTRATREE_MAX_N", value)
        code, _, err = run(capsys, "enumerate", "--n", "1", "--check", "con3")
        assert code == 1
        assert err == f"error: ULTRATREE_MAX_N must be an integer >= 1, got {value!r}\n"

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["enumerate", "--n", "{}", "--check", "con3"], "--n"),
            (["enumerate", "--n", "3", "--check", "con3", "--jobs", "{}"], "--jobs"),
            (["random-tree", "--n", "3", "--seed", "{}", "--pool", "1"], "--seed"),
            (["padic", "--p", "{}", "--sample", "0,1"], "--p"),
        ],
        ids=["n", "jobs", "seed", "p"],
    )
    @pytest.mark.parametrize(
        "value",
        ["\u0663", "1_0", " 8 ", "banana", "9" * 5000],
        ids=["other-script-digit", "separator", "spaces", "word", "too-long"],
    )
    def test_integer_flags_take_ascii_digits_only(self, capsys, argv, flag, value):
        # int() read "\u0663" as 3, "1_0" as 10 and " 8 " as 8
        with pytest.raises(SystemExit) as exit_:
            main([value if arg == "{}" else arg for arg in argv])
        assert exit_.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: argument {flag}: invalid int value: {value!r}\n")

    def test_a_signed_seed_is_accepted(self, capsys):
        assert run(capsys, "random-tree", "--n", "3", "--seed", "-3", "--pool", "1")[0] == 0
        assert run(capsys, "random-tree", "--n", "3", "--seed", "+3", "--pool", "1")[0] == 0

    def test_jobs_flag_changes_nothing(self, capsys):
        code1, out1, _ = run(capsys, "enumerate", "--n", "4", "--check", "con3")
        code2, out2, _ = run(capsys, "enumerate", "--n", "4", "--check", "con3", "--jobs", "2")
        assert (code1, out1) == (code2, out2)

    def test_enumerate_suite(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "4", "--check", "suite")
        assert code == 0
        assert json.loads(out)["results"]["theorem-suite"]["verdict"] == "PASS"

    def test_enumerate_closed_balls(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "3", "--check", "closed-balls")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["closed-balls-are-spheres"]["verdict"] == "CONSISTENT"

    def test_enumerate_closed_balls_beyond_six_points(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "7", "--check", "closed-balls")
        assert code == 0
        assert json.loads(out)["classes_checked"] == 94


class TestSamplerVerbs:
    def test_padic(self, capsys):
        code, out, _ = run(capsys, "padic", "--p", "2", "--sample", "0,1,2,3")
        assert code == 0
        space = parse_matrix_csv(out)
        assert space.distance("0", "2") == parse_matrix_csv(out).distance("1", "3")

    def test_padic_composite_rejected(self, capsys):
        code, _, err = run(capsys, "padic", "--p", "4", "--sample", "0,1")
        assert code == 1 and "prime" in err

    def test_padic_strong_pseudoprime_to_the_first_twelve_primes_rejected(self, capsys):
        # 399165290221 * 798330580441 passes Miller-Rabin to the bases 2..37
        code, out, err = run(capsys, "padic", "--p", "318665857834031151167461", "--sample", "0,1")
        assert (code, out) == (1, "")
        assert err == "error: 318665857834031151167461 is not a prime number\n"

    @pytest.mark.parametrize("p", ["3317044064679887385961981", "3317044064679887385961983"])
    def test_padic_prime_beyond_the_exact_bound_refused(self, capsys, p):
        # the bound itself is 1287836182261 * 2575672364521, a strong
        # pseudoprime to every base the test tries: no p at or above it
        # is taken, prime or not
        code, out, err = run(capsys, "padic", "--p", p, "--sample", "0,1287836182261")
        assert (code, out) == (3, "")
        assert "3317044064679887385961981" in err and err.count("\n") == 1

    def test_dplus(self, capsys):
        code, out, _ = run(capsys, "dplus", "--sample", "0,1,2,3")
        assert code == 0
        assert parse_matrix_csv(out).distance("1", "3") == 3

    # a verb and the flag by which it takes a rational list
    LIST_FLAGS = [
        (["dplus"], "--sample"),
        (["padic", "--p", "2"], "--sample"),
        (["random-tree", "--n", "3", "--seed", "1"], "--pool"),
    ]

    @pytest.mark.parametrize("verb,flag", LIST_FLAGS)
    @pytest.mark.parametrize(
        "text,error",
        [
            # "1,,2," ran on the sample 1,2 and " ,1" on the pool 1
            ("1,,2,", "empty item 2 in rational list: '1,,2,'"),
            (" ,1", "empty item 1 in rational list: ' ,1'"),
            ("1,2,", "empty item 3 in rational list: '1,2,'"),
            ("1, ", "empty item 2 in rational list: '1, '"),
            ("", "empty rational list: ''"),
            (",", "empty rational list: ','"),
            (" , ", "empty rational list: ' , '"),
        ],
    )
    def test_an_empty_list_item_is_refused(self, capsys, verb, flag, text, error):
        assert run(capsys, *verb, flag, text) == (1, "", f"error: {error}\n")

    def test_is_ut_finds_tree(self, capsys, tree_file, tmp_path):
        out_csv = tmp_path / "m.csv"
        run(capsys, "distances", tree_file, "-o", str(out_csv))
        code, out, _ = run(capsys, "is-ut", str(out_csv))
        assert code == 0
        assert parse_tree_json(out).vertices == ("x1", "x2", "x3", "x4")

    def test_is_ut_none(self, capsys, tmp_path):
        csv_path = tmp_path / "m.csv"
        run(capsys, "padic", "--p", "2", "--sample", "0,1,2,3", "-o", str(csv_path))
        code, out, _ = run(capsys, "is-ut", str(csv_path))
        assert code == 0 and out.strip() == "none"

    def test_is_ut_seven_points_has_no_fence(self, capsys, tmp_path):
        csv_path = tmp_path / "m.csv"
        code, _, _ = run(capsys, "padic", "--p", "2", "--sample", "1,2,3,4,5,6,7", "-o", str(csv_path))
        assert code == 0
        code, out, _ = run(capsys, "is-ut", str(csv_path))
        assert code == 0 and out.strip() == "none"

    def test_random_tree_deterministic(self, capsys):
        args = ("random-tree", "--n", "8", "--seed", "3", "--pool", "0,1,2,3")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0 and out1 == out2
        assert parse_tree_json(out1).n == 8

    def test_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["enumerate", "--n", "3", "--check", "bogus"])
        assert err.value.code == 2

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_a_usage_error(self, capsys, jobs):
        with pytest.raises(SystemExit) as err:
            main(["enumerate", "--n", "3", "--check", "con3", "--jobs", jobs])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--jobs" in captured.err and f"got {jobs}" in captured.err

    @pytest.mark.parametrize(
        "verb",
        [
            ["enumerate", "--check", "con3"],
            ["enumerate", "--check", "suite"],
            ["random-tree", "--seed", "1", "--pool", "0,1"],
        ],
    )
    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_n_below_one_is_a_usage_error(self, capsys, verb, n):
        with pytest.raises(SystemExit) as err:
            main([*verb, "--n", n])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--n" in captured.err and f"got {n}" in captured.err


class TestOneSubparser:
    """``main`` builds the subparser of the verb it runs only. Every usage,
    help and error text is the one the parser of every verb prints."""

    @staticmethod
    def exit_text(capsys, parser, argv):
        with pytest.raises(SystemExit) as exit_:
            parser.parse_args(argv)
        captured = capsys.readouterr()
        return exit_.value.code, captured.out, captured.err

    def test_main_builds_the_named_verb_only(self, monkeypatch, capsys, tree_file):
        from ultratree import cli

        asked = []
        real_build_parser = cli.build_parser

        def recording(verb=None):
            asked.append(verb)
            return real_build_parser(verb)

        monkeypatch.setattr(cli, "build_parser", recording)
        assert main(["validate", tree_file]) == 0
        with pytest.raises(SystemExit):
            main(["enumerate", "--n", "0", "--check", "con3"])
        capsys.readouterr()
        # an --n or --jobs error prints the usage of every verb
        assert asked == ["validate", "enumerate", None]
        [verbs] = [a for a in real_build_parser("validate")._actions if a.dest == "verb"]
        assert list(verbs.choices) == ["validate"]

    @pytest.mark.parametrize("verb", list(_VERBS))
    def test_one_verb_parser_prints_what_every_verb_parser_prints(self, capsys, verb):
        one, every = build_parser(verb), build_parser()
        assert one.format_usage() == every.format_usage()
        for argv in ([verb, "-h"], [verb], [verb, "--bogus"]):
            assert self.exit_text(capsys, one, argv) == self.exit_text(capsys, every, argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "t.json", "extra"],
            ["enumerate", "--n", "3", "--check", "con3", "extra"],
            ["enumerate", "--n", "3", "--check", "bogus"],
            ["enumerate", "--n", "x", "--check", "con3"],
        ],
    )
    def test_errors_after_the_verb_are_unchanged(self, capsys, argv):
        one = self.exit_text(capsys, build_parser(argv[0]), argv)
        assert one == self.exit_text(capsys, build_parser(), argv)
        assert one[0] == 2 and one[2].startswith("usage: ultratree")


class TestNonAsciiDigits:
    @pytest.mark.parametrize("cell", ["\u0663", "\uff17/2"])
    def test_matrix_cell_is_named(self, capsys, tmp_path, cell):
        # "٣" read as 3 under a Unicode-aware \d, and `center` printed {0, 3}
        path = tmp_path / "m.csv"
        path.write_text(f"a,b\n0,{cell}\n{cell},0\n", encoding="utf-8")
        code, out, err = run(capsys, "center", str(path))
        assert code == 1 and out == ""
        assert repr(cell) in err

    def test_tree_label_is_named(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(
            '{"vertices": ["a", "b"], "labels": {"a": "\u0663", "b": "1"}, "edges": [["a", "b"]]}',
            encoding="utf-8",
        )
        code, out, err = run(capsys, "validate", str(path))
        assert code == 1 and out == ""
        assert repr("\u0663") in err


class TestMultiFaultTreeJson:
    """A tree file with several faults is refused for the first one the
    reader meets; the label values come before the vertices and edges."""

    @pytest.mark.parametrize(
        "text, stderr",
        [
            (  # a float label and a repeated vertex
                '{"vertices": ["a", "a", "b"], "labels": {"a": 0.5, "b": "1"},'
                ' "edges": [["a", "b"]]}',
                "error: label for 'a' must be an exact rational string, got 0.5\n",
            ),
            (  # a bad label on a key that names no vertex
                '{"vertices": ["a", "b"], "labels": {"a": "1", "b": "1", "zz": null},'
                ' "edges": [["a", "b"]]}',
                "error: label for 'zz' must be an exact rational string, got None\n",
            ),
            (  # a non-ASCII digit and a cycle
                '{"vertices": ["a", "b", "c"], "labels": {"a": "\u0663", "b": "1", "c": "1"},'
                ' "edges": [["a", "b"], ["b", "c"], ["c", "a"]]}',
                "error: label for 'a': not an exact rational: '\u0663'"
                " (expected 'p/q' or an integer string)\n",
            ),
            (  # a negative label and an unknown edge endpoint
                '{"vertices": ["a", "b"], "labels": {"a": -1, "b": "1"}, "edges": [["a", "c"]]}',
                "error: unknown vertex 'c'\n",
            ),
        ],
    )
    def test_stderr_names_the_first_fault(self, capsys, tmp_path, text, stderr):
        path = tmp_path / "t.json"
        path.write_text(text, encoding="utf-8")
        assert run(capsys, "validate", str(path)) == (1, "", stderr)


class TestByteOrderMark:
    """Spreadsheets start a CSV with a UTF-8 byte-order mark; the readers
    drop it instead of keeping it in the first name."""

    MATRIX_CSV = "a,b,c\n0,2,1\n2,0,2\n1,2,0\n"

    @pytest.mark.parametrize("verb", ["is-ut", "center", "spheres", "check", "diametrical"])
    def test_matrix_csv(self, capsys, tmp_path, verb):
        plain = tmp_path / "plain.csv"
        plain.write_bytes(self.MATRIX_CSV.encode())
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + self.MATRIX_CSV.encode())
        expected = run(capsys, verb, str(plain))
        assert run(capsys, verb, str(marked)) == expected

    @pytest.mark.parametrize("verb", ["validate", "distances", "canonical", "center"])
    def test_tree_json(self, capsys, tmp_path, verb):
        plain = tmp_path / "plain.json"
        plain.write_bytes(PATH_TREE_JSON.encode())
        marked = tmp_path / "marked.json"
        marked.write_bytes(b"\xef\xbb\xbf" + PATH_TREE_JSON.encode())
        expected = run(capsys, verb, str(plain))
        assert expected[0] == 0
        assert run(capsys, verb, str(marked)) == expected


def loaded_modules(argv):
    """Run one CLI command in a fresh interpreter, so that no other test's
    imports count, and list the modules it loaded. ``-B``: the environment
    is replaced, and the command must leave no bytecode in ``src/``."""
    script = (
        "import contextlib, io, sys\n"
        "from ultratree import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-B", "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src, "PATH": ""},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


class TestUnreadableInput:
    """A file the CLI cannot read ends in one ``error:`` line, not a traceback."""

    @pytest.mark.parametrize(
        "verb,name",
        [
            ("center", "missing.json"),  # a tree-JSON verb
            ("center", "missing.csv"),  # a matrix-CSV verb
            ("is-ut", "dir.csv"),  # a directory where a file should be
        ],
    )
    def test_error_line_and_exit_one(self, tmp_path, verb, name):
        (tmp_path / "dir.csv").mkdir()
        path = str(tmp_path / name)
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-B", "-m", "ultratree.cli", verb, path],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src, "PATH": ""},
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert path in proc.stderr


class TestImports:
    def test_validate_loads_no_campaign_code(self, tree_file):
        loaded = loaded_modules(["validate", tree_file])
        assert "ultratree.tree" in loaded
        assert "ultratree.explorer" not in loaded

    def test_random_tree_loads_no_campaign_code(self):
        loaded = loaded_modules(["random-tree", "--n", "12", "--seed", "7", "--pool", "0,1,2,3"])
        assert "ultratree.tree" in loaded
        assert "ultratree.explorer" not in loaded

    def test_con3_starts_no_pool(self):
        # con3 folds in one process whatever --jobs says
        loaded = loaded_modules(["enumerate", "--n", "6", "--check", "con3", "--jobs", "2"])
        assert "ultratree.explorer" in loaded
        assert "multiprocessing" not in loaded

    def test_hol_starts_no_pool(self):
        # hol streams the classes in one process whatever --jobs says
        loaded = loaded_modules(["enumerate", "--n", "6", "--check", "hol", "--jobs", "2"])
        assert "ultratree.explorer" in loaded
        assert "multiprocessing" not in loaded

    # Between them these verbs load every module that defines a record.
    # ``dataclasses`` (with ``inspect``, ``ast`` and ``tokenize`` behind it)
    # would add about 20 ms to each process's start-up.
    def test_validate_loads_no_dataclasses(self, tree_file):
        loaded = loaded_modules(["validate", tree_file])
        assert "dataclasses" not in loaded
        assert "inspect" not in loaded

    def test_suite_campaign_loads_no_dataclasses(self, tree_file):
        loaded = loaded_modules(["enumerate", "--n", "5", "--check", "suite"])
        assert "dataclasses" not in loaded
        assert "inspect" not in loaded
        # with `validate`, every module that defines a record has been loaded
        records = {"ultratree.explorer", "ultratree.metric", "ultratree.padic", "ultratree.tree"}
        assert records <= {*loaded, *loaded_modules(["validate", tree_file])}

    # The ultratree modules each command loads, besides those every command
    # loads (cli, errors, metric, padic, rationals). A process compiles each
    # module it imports when it finds no bytecode, so a verb loads none that
    # it does not run: matrix validation (hierarchy) only where a matrix is
    # read, the merge-order readers (mergeorder) only where they or the
    # rank-row analyses (rankrows) run, the tree layer's metric (treemetric)
    # only where a tree is read or made, the theorem suite (suite) only
    # where it runs, and the canonical dendrogram (dendrogram) nowhere here:
    # a witness's label is read off the enumerator's table, and `hol` loads
    # it only for a satisfying class, which n = 5 has none of.
    COMMANDS = {
        "is-ut {csv}": "formats hierarchy tree",
        "check {csv}": "capacity explorer formats hierarchy mergeorder rankrows suite",
        "check {json}": "capacity explorer formats mergeorder rankrows suite tree treemetric",
        "center {csv}": "formats hierarchy mergeorder",
        "diametrical {csv}": "formats hierarchy mergeorder",
        "spheres {csv}": "formats hierarchy mergeorder rankrows",
        "padic --p 2 --sample 0,1,2": "formats hierarchy",
        "dplus --sample 0,1,2": "formats hierarchy",
        "enumerate --n 5 --check con3": "capacity explorer formats",
        "enumerate --n 5 --check hol": "capacity explorer",
        "enumerate --n 5 --check suite": "capacity explorer mergeorder rankrows suite",
        "enumerate --n 5 --check closed-balls": "capacity explorer mergeorder rankrows",
        "validate {json}": "formats tree treemetric",
        "distances {json}": "formats tree treemetric",
        "canonical {json}": "formats tree treemetric",
        "center {json}": "formats mergeorder tree treemetric",
        "diametrical {json} --dot {dot}": "formats mergeorder tree treemetric",
        "spheres {json}": "formats mergeorder rankrows tree treemetric",
        "random-tree --n 5 --seed 1 --pool 0,1": "formats tree treemetric",
    }

    # The most statements (``ast.stmt`` nodes in the source of every
    # ultratree module loaded) each command may compile: a count that
    # repeats exactly, where start-up time from source does not. Each cap
    # is at most the command's count plus 10; a change that frees
    # statements lowers the caps, and none is ever raised. They were last
    # set when the theorem suite, the canonical dendrogram, the merge-order
    # readers and the tree metric got their own modules, which cut `is-ut`
    # from 1 255 statements to 888, `hol` from 1 042 to 854, `con3` from
    # 1 163 to 1 010, `closed-balls` from 1 258 to 1 138 and the tree-JSON
    # verbs that read no merge order from 1 069 to 1 024. `center` and
    # `diametrical` on a tree JSON compile 1 091 and keep their cap of
    # 1 092; `check` on a tree JSON, uncapped until then, rose from 1 657
    # to 1 707, as it now loads both halves of three of the split modules.
    STATEMENT_CAPS = {
        "is-ut {csv}": 898,
        "check {csv}": 1521,
        "check {json}": 1717,
        "center {csv}": 905,
        "diametrical {csv}": 905,
        "spheres {csv}": 1122,
        "padic --p 2 --sample 0,1,2": 838,
        "dplus --sample 0,1,2": 838,
        "enumerate --n 5 --check con3": 1020,
        "enumerate --n 5 --check hol": 864,
        "enumerate --n 5 --check suite": 1268,
        "enumerate --n 5 --check closed-balls": 1148,
        "validate {json}": 1034,
        "distances {json}": 1034,
        "canonical {json}": 1034,
        "center {json}": 1092,
        "diametrical {json} --dot {dot}": 1092,
        "spheres {json}": 1318,
        "random-tree --n 5 --seed 1 --pool 0,1": 1034,
    }

    def test_every_command_has_a_module_set_and_a_cap(self):
        assert self.COMMANDS.keys() == self.STATEMENT_CAPS.keys()

    def loaded_by(self, tmp_path, tree_file, command):
        csv_file = tmp_path / "m.csv"
        csv_file.write_text("a,b,c\n0,2,1\n2,0,2\n1,2,0\n")
        paths = {"{csv}": str(csv_file), "{json}": tree_file, "{dot}": str(tmp_path / "g.dot")}
        return loaded_modules([paths.get(a, a) for a in command.split()])

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_verb_loads_only_the_modules_it_runs(self, tmp_path, tree_file, command):
        loaded = self.loaded_by(tmp_path, tree_file, command)
        modules = {"cli", "errors", "metric", "padic", "rationals", *self.COMMANDS[command].split()}
        assert {m for m in loaded if m.startswith("ultratree.")} == {
            f"ultratree.{m}" for m in modules
        }

    @pytest.mark.parametrize("command", list(STATEMENT_CAPS))
    def test_verb_compiles_at_most_its_statement_cap(self, tmp_path, tree_file, command):
        loaded = self.loaded_by(tmp_path, tree_file, command)
        package = Path(__file__).resolve().parent.parent / "src" / "ultratree"
        statements = 0
        for name in loaded:
            if name == "ultratree" or name.startswith("ultratree."):
                stem = name.partition(".")[2] or "__init__"
                source = (package / f"{stem}.py").read_text(encoding="utf-8")
                statements += sum(isinstance(node, ast.stmt) for node in ast.walk(ast.parse(source)))
        assert statements <= self.STATEMENT_CAPS[command]

    # `csv` is loaded by the verbs that read or write a matrix CSV only
    @pytest.mark.parametrize("verb", ["validate", "canonical", "center", "diametrical"])
    def test_tree_verb_loads_no_csv(self, tree_file, verb):
        assert "csv" not in loaded_modules([verb, tree_file])
