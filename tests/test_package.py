"""The package's public names, the modules it imports on first use, and the
benchmark tracer's wrappers around names resolved that way.

Checks that depend on what a process has imported so far run in a fresh
interpreter, which prints its findings as JSON.
"""

import importlib
import io
import json
import os
import subprocess
import sys

import pytest

import rogetsim
from rogetsim.cli import main
from tests.conftest import FIXTURE_PATH, data_path

SRC = os.path.dirname(os.path.dirname(rogetsim.__file__))
TRACING = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "tracing.py")

# The public API, by the module that defines each name.
PUBLIC = {
    "rogetsim.errors": (
        "CorrelationUndefinedError", "GutenbergImportError",
        "InvalidNodeError", "InvalidReferenceError", "ParseError",
        "ReportError", "RogetError", "WordNotFoundError"),
    "rogetsim.interchange": (
        "StructureReport", "build_index", "load", "normalize",
        "parse_interchange", "serialize", "structure_signature",
        "validate_structure"),
    "rogetsim.similarity": (
        "SimilarityTier", "WordDistanceResult", "enumerate_shortest_paths",
        "path_headers", "similarity", "similarity_tier",
        "word_min_distance"),
    "rogetsim.taxonomy": (
        "MAX_DISTANCE", "Level", "PartOfSpeech", "Reference", "TaxonomyNode",
        "Thesaurus"),
    "rogetsim.bench": (
        "OutlierRow", "PairReport", "PairRow", "PairScale", "ScoredPair",
        "evaluate_pairs", "load_pairs", "outlier_report", "pearson"),
    "rogetsim.gutenberg": ("ConversionReport", "import_gutenberg_1911"),
    "rogetsim.solver": (
        "ChoiceEvaluation", "QuestionResult", "SynonymQuestion", "TestReport",
        "answer_question", "evaluate_choice", "filter_noun_only",
        "load_questions", "score_test", "tokenize_choice"),
}
NAMES = sorted(name for names in PUBLIC.values() for name in names)
# Imported by a command or on first use of one of their names, never by
# ``import rogetsim.cli``; the last three only through bench and solver.
COMMAND_MODULES = ("rogetsim.solver", "rogetsim.bench", "rogetsim.gutenberg",
                   "statistics", "fractions", "decimal")


def fresh(code, *args, flags=()):
    """Run ``code`` in a new interpreter that imports this rogetsim, with
    ``args`` as ``sys.argv[1:]``; return the JSON its last line prints."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONIOENCODING="utf-8")
    done = subprocess.run([sys.executable, *flags, "-c", code, *args],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_fifty_public_names():
    assert len(NAMES) == len(set(NAMES)) == 50
    assert sorted(rogetsim.__all__) == NAMES


@pytest.mark.parametrize("module,name", [
    (module, name) for module, names in PUBLIC.items() for name in names])
def test_each_public_name_resolves(module, name):
    expected = getattr(importlib.import_module(module), name)
    assert getattr(rogetsim, name) is expected
    namespace = {}
    exec("from rogetsim import %s" % name, namespace)
    assert namespace[name] is expected


def test_dir_and_star_import_give_every_name_before_first_use():
    found = fresh("""if True:
        import json, sys
        import rogetsim
        listed = dir(rogetsim)
        lazy = [m for m in sys.modules if m in {"rogetsim.solver",
                "rogetsim.bench", "rogetsim.gutenberg"}]
        # The modules are attributes only once imported.
        module = hasattr(rogetsim, "solver")
        namespace = {}
        exec("from rogetsim import *", namespace)
        print(json.dumps([listed, lazy, module, sorted(namespace)]))""")
    listed, lazy, module, star = found
    assert lazy == [] and module is False
    assert set(NAMES) <= set(listed)
    assert listed == sorted(listed)
    assert star == sorted(NAMES + ["__builtins__"])


@pytest.mark.parametrize("name", ["no_such_name", "format_number"])
def test_an_unknown_name_raises_the_standard_error(name):
    # format_number is a name of solver outside the public API.
    with pytest.raises(AttributeError) as info:
        getattr(rogetsim, name)
    assert str(info.value) == "module 'rogetsim' has no attribute %r" % name


def test_similarity_stays_the_function_after_importing_the_commands():
    found = fresh("""if True:
        import json
        import rogetsim, rogetsim.bench, rogetsim.solver, rogetsim.gutenberg
        from rogetsim import similarity
        print(json.dumps([
            rogetsim.similarity is rogetsim.bench.similarity,
            rogetsim.similarity.__qualname__,
            similarity is rogetsim.similarity,
            rogetsim.answer_question is rogetsim.solver.answer_question]))""")
    assert found == [True, "similarity", True, True]


def test_eight_threads_reading_a_name_first_get_one_object():
    found = fresh("""if True:
        import json, sys, threading
        import rogetsim
        sys.setswitchinterval(1e-6)
        barrier = threading.Barrier(8)
        seen = [None] * 8

        def read(i):
            barrier.wait()
            seen[i] = rogetsim.answer_question

        threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        original = sys.modules["rogetsim.solver"].answer_question
        print(json.dumps([any(t.is_alive() for t in threads),
                          all(f is original for f in seen),
                          vars(rogetsim).get("answer_question") is original]))
        """)
    # The thread that imported solver bound its names into the package.
    assert found == [False, True, True]


TRACED = """if True:
    import importlib.util, json, sys
    spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    import rogetsim
    names = ("answer_question", "evaluate_pairs", "word_min_distance")
    if sys.argv[2] == "bound-before":
        rogetsim.answer_question, rogetsim.evaluate_pairs
    bound = [name in vars(rogetsim) for name in names]
    tracer = tracing.Tracer()
    with tracer.installed():
        inside = [getattr(rogetsim, name).__qualname__ for name in names]
        question = rogetsim.SynonymQuestion("ode", ["heavy debt", "poem",
                                            "sweet smell", "surprise"], 1)
        rogetsim.answer_question(rogetsim.load(sys.argv[3]), question)
    owners = [sys.modules["rogetsim." + module]
              for module in ("solver", "bench", "similarity")]
    print(json.dumps({
        "bound": bound, "inside": inside,
        "spans": sorted({span[0] for span in tracer.spans}),
        "after": [getattr(rogetsim, name).__qualname__ for name in names],
        "modules": [getattr(owner, name).__qualname__
                    for owner, name in zip(owners, names)],
        "same": [getattr(rogetsim, name) is getattr(owner, name)
                 for owner, name in zip(owners, names)]}))
    """


@pytest.mark.parametrize("when", ["first-read-inside", "bound-before"])
def test_the_tracer_restores_every_name(when):
    found = fresh(TRACED, TRACING, when, FIXTURE_PATH)
    # word_min_distance is bound at import; the other two only when read
    # before the tracer is installed.
    assert found["bound"] == [when == "bound-before"] * 2 + [True]
    wrapper = "Tracer._span.<locals>.wrapper"
    assert found["inside"] == [wrapper] * 3
    assert {"solver.answer_question", "similarity.word_min_distance",
            "interchange.load"} <= set(found["spans"])
    names = ["answer_question", "evaluate_pairs", "word_min_distance"]
    assert found["after"] == names
    assert found["modules"] == names
    assert found["same"] == [True] * 3


COLD = """if True:
    import io, sys
    import rogetsim.cli
    imported = [m for m in sys.argv[1].split(",") if m in sys.modules]
    import json
    outputs = []
    for argv in json.loads(sys.argv[2]):
        out, err = io.StringIO(), io.StringIO()
        code = rogetsim.cli.main(argv, out=out, err=err)
        outputs.append([code, out.getvalue(), err.getvalue()])
    loaded = [m for m in sys.argv[1].split(",") if m in sys.modules]
    print(json.dumps([imported, outputs, loaded]))
    """
COMMANDS = [
    ["--thesaurus", FIXTURE_PATH, "--format", "tsv", "solve",
     data_path("questions_mixed.tsv")],
    ["--thesaurus", FIXTURE_PATH, "bench", data_path("pairs_fixture.tsv")],
    ["import", data_path("gutenberg_excerpt.txt")],
]


@pytest.mark.parametrize("flags,modules", [
    ((), COMMAND_MODULES),
    # Without site, which may import typing itself.
    (("-S",), COMMAND_MODULES + ("typing",)),
], ids=["site", "no-site"])
def test_a_cold_cli_import_leaves_out_the_command_modules(flags, modules):
    imported, outputs, loaded = fresh(COLD, ",".join(modules),
                                      json.dumps(COMMANDS), flags=flags)
    assert imported == []
    # Each command imports its module when it runs, with main's outputs.
    assert set(COMMAND_MODULES[:3]) <= set(loaded)
    for argv, output in zip(COMMANDS, outputs):
        out, err = io.StringIO(), io.StringIO()
        assert output == [main(argv, out=out, err=err), out.getvalue(),
                          err.getvalue()]
    assert outputs[0][1] == (
        "ode\tpoem\tCORRECT\t1\n"
        "love\tdevotion\tTIE\t0.5\n"
        "zzzz\t\tNOT-FOUND\t0\n"
        "feline\tlynx\tCORRECT\t1\n"
        "Correct\t2\nQuestions with ties\t1\nScore\t2.5\n"
        "Percent\t62.50\nQuestions not found\t1\n"
        "Other words not found\t0\n")
    assert outputs[1][1].splitlines()[-1].startswith(
        "Correlation\t1.000\t1.000")
    assert outputs[2][0] == 0 and "Heads converted: 5" in outputs[2][2]
