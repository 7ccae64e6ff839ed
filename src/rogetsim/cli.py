"""Command-line interface.

Commands: import, validate, distance, sim, paths, solve, bench.  The
thesaurus is given with --thesaurus or the ROGET_THESAURUS environment
variable; there is no implicit default path.  import, solve and bench
import their modules when they run, so the other commands never load them.

Exit codes: 0 success, 1 lookup/answer-domain failures, a validate report
with violations and a closed stdout, 2 input, parse and IO failures.
"""

import argparse
import os
import sys

from .errors import (CorrelationUndefinedError, GutenbergImportError,
                     ParseError, RogetError)
from .interchange import load, utf8_lines, validate_structure
from .similarity import (_pair_header, path_headers, similarity_tier,
                         word_min_distance)
from .taxonomy import MAX_DISTANCE

ENV_THESAURUS = "ROGET_THESAURUS"

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2

# Output line of the sim and distance commands, per command and format.
_PAIR_LINES = {
    ("sim", "text"): "sim({w1}, {w2}) = {sim} [distance {distance}, "
                     "{paths} shortest path(s), tier {tier}]",
    ("sim", "tsv"): "{sim}\t{paths}\t{tier}",
    ("distance", "text"): "distance({w1}, {w2}) = {distance} "
                          "[{paths} shortest path(s), tier {tier}]",
    ("distance", "tsv"): "{distance}\t{paths}\t{tier}",
}


class CommandError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _cannot_read(path, exc):
    return CommandError("cannot read %s: %s" % (path, exc.strerror),
                        EXIT_INPUT)


def _parse_file(path, parse):
    """``parse`` the ``utf8_lines`` of the file at ``path``; input errors
    exit 2, the first in document order."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise _cannot_read(path, exc)
    try:
        return parse(utf8_lines(data))
    except (ParseError, GutenbergImportError) as exc:
        raise CommandError("%s: %s" % (path, exc), EXIT_INPUT)


def _write_rows(out, rows, tsv):
    """Write ``Label: value`` report rows, as ``Label<TAB>value`` in TSV."""
    for row in rows:
        out.write((row.replace(": ", "\t", 1) if tsv else row) + "\n")


def _load_thesaurus(args):
    path = args.thesaurus or os.environ.get(ENV_THESAURUS)
    if not path:
        raise CommandError(
            "no thesaurus given: use --thesaurus or set $%s" % ENV_THESAURUS,
            EXIT_INPUT)
    try:
        args.loaded_thesaurus = load(path)  # kept until os._exit: see run()
        return args.loaded_thesaurus
    except OSError as exc:
        raise _cannot_read(path, exc)
    except ParseError as exc:
        raise CommandError("failed to load %s: %s" % (path, exc), EXIT_INPUT)


def cmd_import(args, out, err):
    from .gutenberg import import_gutenberg_1911
    document, report = _parse_file(args.source, import_gutenberg_1911)
    out.write(document)
    for line in report.lines():
        err.write(line + "\n")
    return EXIT_OK


def cmd_validate(args, out, err):
    report = validate_structure(_load_thesaurus(args))
    _write_rows(out, report.lines(), args.format == "tsv")
    return EXIT_OK if report.ok else EXIT_DOMAIN


def cmd_pair(args, out, err):
    """The sim and distance commands."""
    thesaurus = _load_thesaurus(args)
    result = word_min_distance(thesaurus, args.word1, args.word2)
    value = MAX_DISTANCE - result.min_distance
    out.write(_PAIR_LINES[args.command, args.format].format(
        w1=args.word1, w2=args.word2, sim=value,
        distance=result.min_distance, paths=result.pair_count,
        tier=similarity_tier(value).value) + "\n")
    return EXIT_OK


def cmd_paths(args, out, err):
    thesaurus = _load_thesaurus(args)
    groups = path_headers(thesaurus, args.word1, args.word2)
    for header, paths in groups:
        out.write(header + "\n")
        for path in paths:
            out.write("  %s\n" % path)
    return EXIT_OK


def _choice_line(problem, evaluation):
    if not evaluation.found:
        return "%s to %s: not found" % (problem, evaluation.choice_text)
    ref_p, ref_c = evaluation.best_pair
    return _pair_header(problem, ref_p.pos, evaluation.choice_text, ref_c.pos,
                        evaluation.effective_distance, evaluation.pair_count)


def cmd_solve(args, out, err):
    from . import solver
    thesaurus = _load_thesaurus(args)
    questions = _parse_file(args.questions, solver.load_questions)
    if args.nouns_only:
        questions = solver.filter_noun_only(thesaurus, questions)
    report = solver.score_test(thesaurus, questions)
    tsv = args.format == "tsv"
    for result in report.results:
        q = result.question
        if tsv:
            chosen = "" if result.unanswerable else q.choices[result.chosen_index]
            out.write("%s\t%s\t%s\t%s\n" % (
                q.problem, chosen, result.verdict,
                solver.format_number(result.credit)))
            continue
        if result.unanswerable:
            out.write("Roget cannot find %s: NOT-FOUND\n" % q.problem)
            continue
        for evaluation in result.per_choice:
            out.write("%s\n" % _choice_line(q.problem, evaluation))
        out.write("→ Roget thinks that %s means %s: %s\n"
                  % (q.problem, q.choices[result.chosen_index], result.verdict))
    if not tsv:
        out.write("\n")
    _write_rows(out, report.summary_lines(), tsv)
    return EXIT_OK


def cmd_bench(args, out, err):
    from . import bench
    thesaurus = _load_thesaurus(args)
    scale, pairs = _parse_file(args.pairs, bench.load_pairs)
    try:
        report = bench.evaluate_pairs(thesaurus, pairs, scale,
                                          policy=args.policy)
    except CorrelationUndefinedError as exc:
        raise CommandError("correlation undefined: %s" % exc, EXIT_DOMAIN)
    for line in report.tsv_lines():
        out.write(line + "\n")
    if report.pairs_skipped:
        err.write("pairs skipped as not found: %d\n" % report.pairs_skipped)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="roget",
        description="Edge-counting semantic similarity over a Roget-style "
                    "thesaurus.")
    parser.add_argument("--thesaurus", metavar="PATH",
                        help="interchange file (default: $%s)" % ENV_THESAURUS)
    parser.add_argument("--format", choices=["text", "tsv"], default="text",
                        help="output format of sim, distance, validate and "
                             "solve (default: text); paths always prints "
                             "text, bench TSV and import the document")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("import", help="convert a 1911 Roget's text to "
                                      "interchange format")
    p.add_argument("source", help="path to the plain-text source")
    p.set_defaults(func=cmd_import)

    p = sub.add_parser("validate", help="report structure counts and "
                                        "invariant violations")
    p.set_defaults(func=cmd_validate)

    for name, func, text in (
            ("distance", cmd_pair, "minimum edge distance between two words"),
            ("sim", cmd_pair, "semantic similarity (16 - distance)"),
            ("paths", cmd_paths, "show all shortest paths between two words")):
        p = sub.add_parser(name, help=text)
        p.add_argument("word1")
        p.add_argument("word2")
        p.set_defaults(func=func)

    p = sub.add_parser("solve", help="answer a four-choice synonym "
                                     "question file")
    p.add_argument("questions", help="TSV question file")
    p.add_argument("--nouns-only", action="store_true",
                   help="keep only questions where every word has a noun "
                        "reading")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="evaluate a human-scored pair file")
    p.add_argument("pairs", help="TSV pair file with a scale header")
    p.add_argument("--policy", choices=["skip", "zero"], default="skip",
                   help="handling of pairs with missing words")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None, out=None, err=None):
    return _execute(build_parser().parse_args(argv),
                    out if out is not None else sys.stdout,
                    err if err is not None else sys.stderr)


def _execute(args, out, err):
    try:
        return args.func(args, out, err)
    except CommandError as exc:
        err.write("error: %s\n" % exc)
        return exc.code
    except RogetError as exc:
        err.write("error: %s\n" % exc)
        return EXIT_DOMAIN


def run():
    """Run ``roget`` on the process's arguments, then end the process.

    The entry point of the ``roget`` script and of ``python -m
    rogetsim.cli``.  Once stdout and stderr are flushed the process ends
    with ``os._exit``, so the interpreter is not torn down and the loaded
    thesaurus is never freed: ``args`` keeps it referenced until then
    (``main`` frees it when it returns).  Argparse's exits (``--help``, a
    usage error) end the same way, with their own codes.  A closed stdout
    ends the process with exit 1 and nothing on stderr.
    """
    try:
        try:
            args = build_parser().parse_args()
            code = _execute(args, sys.stdout, sys.stderr)
        except SystemExit as exc:  # argparse's --help and usage errors
            code = exc.code
        sys.stdout.flush()
    except BrokenPipeError:
        code = 1
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
