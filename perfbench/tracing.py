"""In-memory spans and counters around rogetsim's public functions.

The wrappers are installed from benchmark code only: ``Tracer.installed``
replaces each function in every ``rogetsim`` module that holds a reference
to it (``from .similarity import word_min_distance`` copies the name), and
restores the originals on exit.

Layer-boundary calls record a span ``(name, start, end, parent, leaf_s,
info)``; ``parent`` is the index of the enclosing span (-1 at the top),
``leaf_s`` the time spent in counted inner calls and ``info`` a small
per-call value (result length, pair count).  The hot inner calls,
``Thesaurus.reference_distance`` and ``normalize``, only bump counters so
that tracing stays cheap.  Per-layer self times are derived from the
spans by ``layer_metrics``.
"""

import importlib
import json
import sys
import time
from contextlib import contextmanager

# (module, attribute or Class.method, span info from the result or None)
SPANNED = (
    ("rogetsim.interchange", "load", None),
    ("rogetsim.interchange", "parse_interchange", None),
    ("rogetsim.interchange", "build_index", None),
    ("rogetsim.taxonomy", "Thesaurus.lookup", len),
    ("rogetsim.taxonomy", "Thesaurus.render_path", None),
    ("rogetsim.similarity", "similarity", None),
    ("rogetsim.similarity", "word_min_distance", lambda r: r.pair_count),
    ("rogetsim.similarity", "path_headers", None),
    ("rogetsim.similarity", "enumerate_shortest_paths", None),
    ("rogetsim.solver", "answer_question", None),
    ("rogetsim.solver", "evaluate_choice", None),
    ("rogetsim.solver", "score_test", None),
    ("rogetsim.bench", "evaluate_pairs", lambda r: r.pairs_skipped),
)
TIMED_LEAF = ("rogetsim.taxonomy", "Thesaurus.reference_distance")
COUNTED_LEAF = ("rogetsim.interchange", "normalize")


def _short(module, attr):
    return "%s.%s" % (module.split(".")[-1], attr.split(".")[-1])


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = {}
        self._stack = [[-1, 0.0]]    # [span index, leaf seconds] per open span
        self._leaf = [0, 0.0]        # reference_distance calls, seconds
        self._normalize_calls = [0]

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        return self._span(name, fn, None)(*args, **kwargs)

    def _span(self, name, fn, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            parent = stack[-1][0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, frame[1], None)
            if info is not None:
                spans[index] = (name, start, end, parent, frame[1], info(result))
            return result

        return wrapper

    def _timed_leaf(self, fn):
        stack, acc, clock = self._stack, self._leaf, time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - start
            acc[0] += 1
            acc[1] += elapsed
            stack[-1][1] += elapsed
            return result

        return wrapper

    def _counted_leaf(self, fn):
        acc = self._normalize_calls

        def wrapper(*args, **kwargs):
            acc[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap rogetsim's public functions for the duration of the block."""
        plan = [(m, a, self._span(_short(m, a), _resolve(m, a), info))
                for m, a, info in SPANNED]
        plan.append(TIMED_LEAF + (self._timed_leaf(_resolve(*TIMED_LEAF)),))
        plan.append(COUNTED_LEAF + (self._counted_leaf(_resolve(*COUNTED_LEAF)),))
        undo = []
        for module, attr, wrapper in plan:
            undo.extend(_replace(module, attr, wrapper))
        try:
            yield self
        finally:
            for owner, name, original in reversed(undo):
                setattr(owner, name, original)
            self.counters["taxonomy.reference_distance_calls"] = self._leaf[0]
            self.counters["taxonomy.reference_distance_s"] = self._leaf[1]
            self.counters["interchange.normalize_calls"] = self._normalize_calls[0]

    def document(self, **extra):
        doc = {"spans": self.spans, "counters": self.counters}
        doc.update(extra)
        return doc

    def write(self, path, **extra):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.document(**extra), handle)


def _resolve(module, attr):
    owner = importlib.import_module(module)
    if "." in attr:
        cls, attr = attr.split(".")
        return getattr(owner, cls).__dict__[attr]
    return getattr(owner, attr)


def _replace(module, attr, wrapper):
    """Point every reference to the original at the wrapper; return undo list."""
    original = _resolve(module, attr)
    if "." in attr:
        cls_name, name = attr.split(".")
        cls = getattr(importlib.import_module(module), cls_name)
        setattr(cls, name, wrapper)
        return [(cls, name, original)]
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "rogetsim"
                               or mod_name.startswith("rogetsim.")):
            continue
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, wrapper)
                undo.append((mod, name, original))
    return undo


PER_LAYER = (
    ("interchange.parse_s", "s"), ("interchange.build_index_s", "s"),
    ("interchange.normalize_calls", "count"),
    ("cli.import_s", "s"), ("cli.load_s", "s"), ("cli.command_s", "s"),
    ("taxonomy.lookup_calls", "count"), ("taxonomy.lookup_misses", "count"),
    ("taxonomy.lookup_s", "s"),
    ("taxonomy.reference_distance_calls", "count"),
    ("taxonomy.reference_distance_s", "s"),
    ("taxonomy.render_path_calls", "count"), ("taxonomy.render_path_s", "s"),
    ("similarity.word_min_distance_calls", "count"),
    ("similarity.word_min_distance_self_s", "s"),
    ("similarity.ref_pairs_compared", "count"),
    ("similarity.max_ref_pairs_per_call", "count"),
    ("similarity.achieving_pairs_ratio", "ratio"),
    ("solver.answer_question_self_s", "s"),
    ("solver.evaluate_choice_calls", "count"),
    ("solver.lookups_per_question", "count"),
    ("solver.word_min_distance_per_question", "count"),
    ("solver.phrase_fallbacks", "count"),
    ("bench.evaluate_pairs_s", "s"), ("bench.pairs_skipped", "count"),
    ("trace.overhead_ratio", "ratio"),
)


def _tally(doc, acc):
    """Add one process's spans and counters into ``acc``."""
    spans = [tuple(s) for s in doc["spans"]]
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    question = [-1] * len(spans)   # enclosing answer_question span, if any
    duration = [s[2] - s[1] for s in spans]

    def self_time(i):
        return duration[i] - spans[i][4] - sum(duration[c] for c in children[i])

    for i, (name, start, end, parent, leaf, info) in enumerate(spans):
        if parent >= 0:
            question[i] = question[parent]
        if name == "solver.answer_question":
            question[i] = i
            acc["questions"] += 1
            acc["solver.answer_question_self_s"] += self_time(i)
        elif name == "solver.evaluate_choice":
            acc["solver.evaluate_choice_calls"] += 1
            acc["solver.answer_question_self_s"] += self_time(i)
            first = next((c for c in children[i]
                          if spans[c][0] == "taxonomy.lookup"), None)
            if first is not None and spans[first][5] == 0:
                acc["solver.phrase_fallbacks"] += 1
        elif name == "taxonomy.lookup":
            acc["taxonomy.lookup_calls"] += 1
            acc["taxonomy.lookup_s"] += duration[i]
            acc["taxonomy.lookup_misses"] += info == 0
            acc["lookups_in_questions"] += question[i] >= 0
        elif name == "similarity.word_min_distance":
            acc["similarity.word_min_distance_calls"] += 1
            acc["similarity.word_min_distance_self_s"] += self_time(i)
            acc["wmd_in_questions"] += question[i] >= 0
            lengths = [spans[c][5] for c in children[i]
                       if spans[c][0] == "taxonomy.lookup"][:2]
            if info is not None:
                compared = lengths[0] * lengths[1]
                acc["similarity.ref_pairs_compared"] += compared
                acc["similarity.max_ref_pairs_per_call"] = max(
                    acc["similarity.max_ref_pairs_per_call"], compared)
                acc["achieving_pairs"] += info
        elif name == "interchange.parse_interchange":
            acc["interchange.parse_s"] += duration[i]
        elif name == "interchange.build_index":
            acc["interchange.build_index_s"] += duration[i]
        elif name == "taxonomy.render_path":
            acc["taxonomy.render_path_calls"] += 1
            acc["taxonomy.render_path_s"] += duration[i]
        elif name == "bench.evaluate_pairs":
            acc["bench.evaluate_pairs_s"] += duration[i]
            acc["bench.pairs_skipped"] += info or 0
        elif name == "cli.main":
            acc["cli.main_s"] += duration[i]
    for key, value in doc["counters"].items():
        acc[key] += value
    if doc.get("import_s") is not None:
        acc["cli.import_s"] += doc["import_s"]
        acc["cli.load_s"] += sum(duration[i] for i, s in enumerate(spans)
                                 if s[0] == "interchange.load")


def layer_metrics(docs, overhead_ratio):
    """Per-layer metrics, by name, from trace documents of one run."""
    acc = dict.fromkeys(
        [name for name, _ in PER_LAYER]
        + ["questions", "lookups_in_questions", "wmd_in_questions",
           "achieving_pairs", "cli.main_s"], 0)
    for doc in docs:
        _tally(doc, acc)
    acc["cli.command_s"] = acc["cli.main_s"] - acc["cli.load_s"]
    questions = max(acc["questions"], 1)
    acc["solver.lookups_per_question"] = acc["lookups_in_questions"] / questions
    acc["solver.word_min_distance_per_question"] = (
        acc["wmd_in_questions"] / questions)
    acc["similarity.achieving_pairs_ratio"] = (
        acc["achieving_pairs"] / max(acc["similarity.ref_pairs_compared"], 1))
    acc["trace.overhead_ratio"] = overhead_ratio
    return {name: {"value": acc[name], "unit": unit} for name, unit in PER_LAYER}
