"""CLI integration: commands, formats and exit codes."""

import io
import os
import subprocess
import sys

import pytest

import rogetsim
from rogetsim import ParseError, load_pairs, load_questions, parse_interchange
from rogetsim.cli import main
from tests.conftest import FIXTURE_PATH, data_path, read_from_pipe


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def run_fixture(*argv):
    return run("--thesaurus", FIXTURE_PATH, *argv)


def test_sim(thesaurus):
    code, out, _ = run_fixture("sim", "feline", "lynx")
    assert code == 0
    assert "14" in out and "Intermediate" in out


def test_sim_tsv():
    code, out, _ = run("--thesaurus", FIXTURE_PATH, "--format", "tsv",
                       "sim", "feline", "lynx")
    assert code == 0
    assert out == "14\t1\tIntermediate\n"


def test_sim_self():
    code, out, _ = run("--thesaurus", FIXTURE_PATH, "--format", "tsv",
                       "sim", "monk", "monk")
    assert code == 0
    assert out.startswith("16\t")


def test_sim_not_found():
    code, out, err = run_fixture("sim", "feline", "zzzz")
    assert code == 1
    assert "not found: zzzz" in err


def test_distance():
    code, out, _ = run("--thesaurus", FIXTURE_PATH, "--format", "tsv",
                       "distance", "feline", "lynx")
    assert code == 0
    assert out == "2\t1\tIntermediate\n"


def test_missing_thesaurus_path():
    code, _, err = run("sim", "feline", "lynx")
    assert code == 2
    assert "thesaurus" in err


def test_thesaurus_env_fallback(monkeypatch):
    monkeypatch.setenv("ROGET_THESAURUS", FIXTURE_PATH)
    code, out, _ = run("--format", "tsv", "sim", "feline", "lynx")
    assert code == 0
    assert out.startswith("14\t")


def test_unreadable_thesaurus():
    code, _, err = run("--thesaurus", "/nonexistent/th.rt", "sim", "a", "b")
    assert code == 2
    assert "/nonexistent/th.rt" in err


def test_paths_ode_poem():
    code, out, _ = run_fixture("paths", "ode", "poem")
    assert code == 0
    assert "ode N. to poem N., length = 2, 2 path(s) of this length" in out


def test_paths_feline_lynx():
    code, out, _ = run_fixture("paths", "feline", "lynx")
    assert code == 0
    assert "feline → cat ← lynx" in out


def test_paths_same_word():
    code, out, _ = run_fixture("paths", "lynx", "lynx")
    assert code == 0
    assert "length = 0" in out


def test_validate():
    code, out, _ = run_fixture("validate")
    assert code == 0
    assert "Heads: 25" in out
    assert "VIOLATION" not in out


def test_solve_fixture_question():
    code, out, _ = run_fixture("solve", data_path("questions_fixture.tsv"))
    assert code == 0
    assert "Roget thinks that ode means poem: CORRECT" in out
    assert "Percent: 100.00" in out


def test_solve_mixed_file():
    code, out, _ = run_fixture("solve", data_path("questions_mixed.tsv"))
    assert code == 0
    assert "Questions not found: 1" in out
    assert "Percent: 62.50" in out
    assert "Questions with ties: 1" in out


def test_solve_nouns_only():
    # zzzz (problem unindexed) and the feline question (choice "inspired"
    # has only an adjective reading) are filtered out, leaving 2 questions
    # worth 1 + 1/2 credit.
    code, out, _ = run_fixture("solve", "--nouns-only",
                               data_path("questions_mixed.tsv"))
    assert code == 0
    assert "Percent: 75.00" in out
    assert "Questions not found: 0" in out


def test_solve_malformed_file(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("ode\tpoem\t1\n")
    code, _, err = run_fixture("solve", str(bad))
    assert code == 2
    assert "line 1" in err


def test_solve_missing_file():
    code, _, err = run_fixture("solve", "/nonexistent/q.tsv")
    assert code == 2
    assert "/nonexistent/q.tsv" in err


def test_bench_linear_fixture():
    code, out, _ = run_fixture("bench", data_path("pairs_fixture.tsv"))
    assert code == 0
    assert out.splitlines()[-1].startswith("Correlation\t1.000\t1.000")


def test_bench_policy_zero(tmp_path):
    pairs = tmp_path / "p.tsv"
    pairs.write_text("scale\t0\t4\nfeline\tlynx\t3.5\nmonk\toracle\t3.0\n"
                     "zzzz\tfeline\t0.5\n")
    code, out, err = run_fixture("bench", "--policy", "zero", str(pairs))
    assert code == 0
    assert "NOT-FOUND" not in out
    code, out, err = run_fixture("bench", "--policy", "skip", str(pairs))
    assert code == 0
    assert "NOT-FOUND" in out
    assert "pairs skipped as not found: 1" in err


def test_bench_constant_scores_undefined(tmp_path):
    pairs = tmp_path / "p.tsv"
    pairs.write_text("scale\t0\t4\nmonk\toracle\t2.0\nglass\tjewel\t2.0\n")
    code, _, err = run_fixture("bench", str(pairs))
    assert code == 1
    assert "correlation undefined" in err


def test_import_excerpt(tmp_path):
    code, out, err = run("import", data_path("gutenberg_excerpt.txt"))
    assert code == 0
    assert out.startswith("C 1 ")
    assert "Heads converted: 5" in err
    # output re-parses and is queryable
    converted = tmp_path / "converted.rt"
    converted.write_text(out)
    code, out2, _ = run("--thesaurus", str(converted), "--format", "tsv",
                        "sim", "existence", "subsistence")
    assert code == 0
    assert out2.startswith("16\t")


def test_import_missing_file():
    code, _, err = run("import", "/nonexistent/roget.txt")
    assert code == 2
    assert "/nonexistent/roget.txt" in err


@pytest.mark.parametrize("ending", ["\r\n", "\r"])
def test_import_reads_every_line_ending(tmp_path, ending):
    with open(data_path("gutenberg_excerpt.txt"), "rb") as handle:
        excerpt = handle.read()
    source = tmp_path / "roget.txt"
    source.write_bytes(excerpt.replace(b"\n", ending.encode()))
    assert run("import", str(source)) == run(
        "import", data_path("gutenberg_excerpt.txt"))


def test_import_non_utf8_file_exact(tmp_path):
    source = tmp_path / "roget.txt"
    source.write_bytes(b"CLASS I\r\n#1. Existence.--N. caf\xe9\n")
    assert run("import", str(source)) == (
        2, "", "error: %s: line 2, column 23: byte 0xe9 is not UTF-8\n"
        % source)


def test_import_empty_file(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code, _, err = run("import", str(empty))
    assert code == 2


def test_outputs_deterministic():
    first = run_fixture("solve", data_path("questions_mixed.tsv"))
    second = run_fixture("solve", data_path("questions_mixed.tsv"))
    assert first == second


# Exact stdout for the distance-0, distance-2 and distance-16 fixture tier
# pairs, per command and format.
JOURNEY = ("journey's end", "terminus")
FELINE = ("feline", "lynx")
NAG = ("nag", "like greased lightning")
NAG_PATH = (
    "  nag → carrier → N. → 273. Carrier → [273] → Motion in general → "
    "Section one : Motion → Class two : Space → T ← Class one : Abstract "
    "relations ← Section two : Time ← Absolute time ← [116] ← 116. "
    "Instantaneity ← ADV. ← instantaneously ← like greased lightning\n")
PINNED_PAIRS = [
    ("text", "sim", JOURNEY, "sim(journey's end, terminus) = 16 "
     "[distance 0, 1 shortest path(s), tier High]\n"),
    ("text", "sim", FELINE, "sim(feline, lynx) = 14 "
     "[distance 2, 1 shortest path(s), tier Intermediate]\n"),
    ("text", "sim", NAG, "sim(nag, like greased lightning) = 0 "
     "[distance 16, 1 shortest path(s), tier Low]\n"),
    ("tsv", "sim", JOURNEY, "16\t1\tHigh\n"),
    ("tsv", "sim", FELINE, "14\t1\tIntermediate\n"),
    ("tsv", "sim", NAG, "0\t1\tLow\n"),
    ("text", "distance", JOURNEY, "distance(journey's end, terminus) = 0 "
     "[1 shortest path(s), tier High]\n"),
    ("text", "distance", FELINE, "distance(feline, lynx) = 2 "
     "[1 shortest path(s), tier Intermediate]\n"),
    ("text", "distance", NAG, "distance(nag, like greased lightning) = 16 "
     "[1 shortest path(s), tier Low]\n"),
    ("tsv", "distance", JOURNEY, "0\t1\tHigh\n"),
    ("tsv", "distance", FELINE, "2\t1\tIntermediate\n"),
    ("tsv", "distance", NAG, "16\t1\tLow\n"),
] + [
    (fmt, "paths", pair, out) for fmt in ("text", "tsv") for pair, out in [
        (JOURNEY, "journey's end N. to terminus N., length = 0, "
                  "1 path(s) of this length\n  journey's end → terminus\n"),
        (FELINE, "feline N. to lynx N., length = 2, 1 path(s) of this "
                 "length\n  feline → cat ← lynx\n"),
        (NAG, "nag N. to like greased lightning ADV., length = 16, "
              "1 path(s) of this length\n" + NAG_PATH),
    ]
]


@pytest.mark.parametrize("fmt,command,pair,expected", PINNED_PAIRS)
def test_pair_commands_exact_output(fmt, command, pair, expected):
    assert run_fixture("--format", fmt, command, *pair) == (0, expected, "")


@pytest.mark.parametrize("fmt", ["text", "tsv"])
@pytest.mark.parametrize("command", ["sim", "distance", "paths"])
def test_pair_commands_not_found_exact(fmt, command):
    assert run_fixture("--format", fmt, command, "feline", "zzzz") == (
        1, "", "error: not found: zzzz\n")


VALIDATE_ROWS = [("Classes", 8), ("Sections", 11), ("Sub-Sections", 15),
                 ("Head Groups", 21), ("Heads", 25), ("POS paragraphs", 30),
                 ("Paragraphs", 37), ("Semicolon groups", 55),
                 ("Entries", 116)]


@pytest.mark.parametrize("fmt,sep", [("text", ": "), ("tsv", "\t")])
def test_validate_exact_output(fmt, sep):
    expected = "".join("%s%s%d\n" % (label, sep, n)
                       for label, n in VALIDATE_ROWS)
    assert run_fixture("--format", fmt, "validate") == (0, expected, "")


def test_validate_repeated_class_ordinal_exact(tmp_path):
    thesaurus = tmp_path / "t.rt"
    thesaurus.write_text("".join(
        "C 1 Class %s\nS 1 s\nU 1 u\nG 1 g\nH %d h\nP N\nQ 1\n; %s\n"
        % (name, number, name) for number, name in ((1, "one"), (2, "two"))))
    rows = ["Classes\t2", "Sections\t2", "Sub-Sections\t2", "Head Groups\t2",
            "Heads\t2", "POS paragraphs\t2", "Paragraphs\t2",
            "Semicolon groups\t2", "Entries\t2",
            "VIOLATION\tnode 9 (class) repeats ordinal 1 under root"]
    assert run("--thesaurus", str(thesaurus), "--format", "tsv",
               "validate") == (1, "".join(row + "\n" for row in rows), "")


def test_solve_tsv_exact():
    assert run_fixture("--format", "tsv", "solve",
                       data_path("questions_mixed.tsv")) == (0, (
        "ode\tpoem\tCORRECT\t1\n"
        "love\tdevotion\tTIE\t0.5\n"
        "zzzz\t\tNOT-FOUND\t0\n"
        "feline\tlynx\tCORRECT\t1\n"
        "Correct\t2\nQuestions with ties\t1\nScore\t2.5\n"
        "Percent\t62.50\nQuestions not found\t1\n"
        "Other words not found\t0\n"), "")


def test_solve_choice_not_found_exact(tmp_path):
    questions = tmp_path / "q.tsv"
    questions.write_text("ode\tpoem\tzzzz\theavy qqqq\tsurprise\t0\n")
    assert run_fixture("solve", str(questions)) == (0, (
        "ode N. to poem N., length = 2, 2 path(s) of this length\n"
        "ode to zzzz: not found\n"
        "ode N. to heavy qqqq N., length = 12, 2 path(s) of this length\n"
        "ode N. to surprise N., length = 12, 4 path(s) of this length\n"
        "→ Roget thinks that ode means poem: CORRECT\n\n"
        "Correct: 1\nQuestions with ties: 0\nScore: 1\nPercent: 100.00\n"
        "Questions not found: 0\nOther words not found: 2\n"), "")


def test_solve_comment_only_file_exact(tmp_path):
    questions = tmp_path / "q.tsv"
    questions.write_text("# only a comment\n")
    assert run_fixture("solve", str(questions)) == (
        1, "", "error: cannot score an empty question list\n")


def test_solve_non_utf8_file_exact(tmp_path):
    questions = tmp_path / "q.tsv"
    questions.write_bytes(b"ode\tpoem\ta\tb\tc\t1\r\nab\xffc\n")
    assert run_fixture("solve", str(questions)) == (
        2, "", "error: %s: line 2, column 3: byte 0xff is not UTF-8\n"
        % questions)


def test_non_utf8_thesaurus_exact(tmp_path, fixture_text):
    thesaurus = tmp_path / "t.rt"
    thesaurus.write_bytes(fixture_text.encode() + b"C 9 caf\xe9\n")
    line = fixture_text.count("\n") + 1
    assert run("--thesaurus", str(thesaurus), "sim", "a", "b") == (
        2, "", "error: failed to load %s: line %d, column 8: byte 0xe9 is "
        "not UTF-8\n" % (thesaurus, line))


def test_pipes_are_read_once(tmp_path, fixture_text):
    questions = read_from_pipe(
        tmp_path / "q", b"ode\tpoem\ta\tb\tc\t1\nab\xffc\n",
        lambda path: run_fixture("solve", path))
    assert questions == (2, "", "error: %s: line 2, column 3: byte 0xff is "
                         "not UTF-8\n" % (tmp_path / "q"))
    thesaurus = read_from_pipe(
        tmp_path / "t", fixture_text.encode() + b"C 9 caf\xe9\n",
        lambda path: run("--thesaurus", path, "sim", "a", "b"))
    assert thesaurus == (2, "", "error: failed to load %s: line %d, column 8: "
                         "byte 0xe9 is not UTF-8\n"
                         % (tmp_path / "t", fixture_text.count("\n") + 1))


@pytest.mark.parametrize("argv,data,error", [
    (["--thesaurus", None, "sim", "a", "b"],
     b"C 1 c\nX foo\nC 2 caf\xe9\n",
     "failed to load %s: line 2, column 1: unknown record keyword 'X'"),
    (["--thesaurus", FIXTURE_PATH, "solve", None],
     b"bad line\nab\xffc\n",
     "%s: line 1, column 1: expected 6 or 7 tab-separated fields, got 1"),
    (["--thesaurus", FIXTURE_PATH, "bench", None],
     b"scale\t0\t4\nfeline\tlynx\nab\xffc\n",
     "%s: line 2, column 1: expected 3 tab-separated fields, got 2"),
], ids=["thesaurus", "questions", "pairs"])
@pytest.mark.parametrize("pipe", [False, True], ids=["file", "pipe"])
def test_an_error_before_a_bad_byte_is_reported(tmp_path, argv, data, error,
                                                pipe):
    path = tmp_path / "input"

    def read(name):
        return run(*[name if arg is None else arg for arg in argv])

    if pipe:
        outcome = read_from_pipe(path, data, read)
    else:
        path.write_bytes(data)
        outcome = read(str(path))
    assert outcome == (2, "", "error: %s\n" % (error % path))


@pytest.mark.parametrize("name,reason", [
    ("", "Is a directory"), ("absent.rt", "No such file or directory")])
def test_unreadable_thesaurus_exact(tmp_path, name, reason):
    path = str(tmp_path / name) if name else str(tmp_path)
    assert run("--thesaurus", path, "sim", "a", "b") == (
        2, "", "error: cannot read %s: %s\n" % (path, reason))


BOM = b"\xef\xbb\xbf"


def test_byte_order_mark_on_a_question_file(tmp_path):
    questions = tmp_path / "q.tsv"
    questions.write_bytes(
        BOM + b"ode\theavy debt\tpoem\tsweet smell\tsurprise\t1\n")
    assert run_fixture("solve", str(questions)) == (0, """\
ode N. to heavy debt N., length = 12, 2 path(s) of this length
ode N. to poem N., length = 2, 2 path(s) of this length
ode N. to sweet smell N., length = 16, 2 path(s) of this length
ode N. to surprise N., length = 12, 4 path(s) of this length
→ Roget thinks that ode means poem: CORRECT

Correct: 1
Questions with ties: 0
Score: 1
Percent: 100.00
Questions not found: 0
Other words not found: 0
""", "")


def test_byte_order_mark_on_a_thesaurus(tmp_path, fixture_text):
    thesaurus = tmp_path / "t.rt"
    thesaurus.write_bytes(BOM + fixture_text.encode())
    assert run("--thesaurus", str(thesaurus), "sim", "feline", "lynx") == (
        0, "sim(feline, lynx) = 14 [distance 2, 1 shortest path(s), tier "
        "Intermediate]\n", "")
    # A bad byte after the mark keeps the line and column it had.
    thesaurus.write_bytes(BOM + b"C 1 caf\xe9\n")
    assert run("--thesaurus", str(thesaurus), "sim", "a", "b") == (
        2, "", "error: failed to load %s: line 1, column 9: byte 0xe9 is "
        "not UTF-8\n" % thesaurus)


def test_byte_order_mark_on_a_pair_file(tmp_path):
    pairs = tmp_path / "p.tsv"
    with open(data_path("pairs_fixture.tsv"), "rb") as handle:
        pairs.write_bytes(BOM + handle.read())
    assert run_fixture("bench", str(pairs)) == (0, """\
pair\thuman\tsystem\ttier
journey's end – terminus\t4.000\t16.000\tHigh
devotion – abnormal affection\t3.500\t14.000\tIntermediate
popular misconception – glaring error\t3.000\t12.000\tIntermediate
individual – lonely\t2.500\t10.000\tLow
finance – apply for a loan\t2.000\t8.000\tLow
life expectancy – herbalize\t1.500\t6.000\tLow
Creirwy (love) – inspired\t1.000\t4.000\tLow
translucid – blind eye\t0.500\t2.000\tLow
nag – like greased lightning\t0.000\t0.000\tLow
Correlation\t1.000\t1.000\t-
""", "")


@pytest.mark.parametrize("name,parse,argv,prefix", [
    ("roget_fixture.rt", parse_interchange,
     ["--thesaurus", None, "sim", "a", "b"], "failed to load "),
    ("questions_fixture.tsv", load_questions,
     ["--thesaurus", FIXTURE_PATH, "solve", None], ""),
    ("pairs_fixture.tsv", load_pairs,
     ["--thesaurus", FIXTURE_PATH, "bench", None], ""),
], ids=["thesaurus", "questions", "pairs"])
def test_a_second_byte_order_mark_is_text(tmp_path, name, parse, argv,
                                          prefix):
    path = tmp_path / name
    with open(data_path(name), "rb") as handle:
        path.write_bytes(BOM + BOM + handle.read())
    with pytest.raises(ParseError) as info:
        parse(path.read_text(encoding="utf-8"))
    assert run(*[str(path) if arg is None else arg for arg in argv]) == (
        2, "", "error: %s%s: %s\n" % (prefix, path, info.value))


def run_process(*argv, **kwargs):
    """``python -m rogetsim.cli`` with ``argv``, importing this rogetsim."""
    src = os.path.dirname(os.path.dirname(rogetsim.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="utf-8")
    env.pop("PYTHONUNBUFFERED", None)  # stdout is block-buffered, as usual
    return subprocess.run([sys.executable, "-m", "rogetsim.cli", *argv],
                          env=env, timeout=120, **kwargs)


@pytest.mark.parametrize("argv,code", [
    (["--format", "tsv", "sim", "feline", "lynx"], 0),
    (["paths", "ode", "poem"], 0),
    (["sim", "feline", "zzzz"], 1),
    (["--thesaurus", "", "sim", "feline", "lynx"], 2),  # "": a directory
    (["sim", "feline"], 2),
], ids=["sim-tsv", "paths", "not-found", "unreadable", "usage"])
def test_the_process_entry_matches_main(tmp_path, capsys, argv, code):
    argv = ["--thesaurus", FIXTURE_PATH] + [
        str(tmp_path) if arg == "" else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    try:
        assert main(argv, out=out, err=err) == code
    except SystemExit as exc:  # argparse's usage error
        assert exc.code == code
    captured = capsys.readouterr()
    done = run_process(*argv, capture_output=True)
    assert (done.returncode, done.stdout.decode(), done.stderr.decode()) == (
        code, out.getvalue() + captured.out, err.getvalue() + captured.err)


# --help ends in argparse's SystemExit, before any command runs.
@pytest.mark.parametrize("argv", [["paths", "feline", "lynx"], ["--help"]],
                         ids=["paths", "help"])
def test_a_closed_stdout_exits_1_quietly(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # before the spawn: every write fails at once
    try:
        done = run_process("--thesaurus", FIXTURE_PATH, *argv,
                           stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, b"")
