"""In-process side of the benchmark: load the thesaurus, then run one workload.

Started by run.py in its own process, so that its peak RSS is rogetsim's
footprint and not the generator's.  Reads ``thesaurus.rt`` and
``ops.json`` (the items and the oracle's expected output for each) from
the run directory and writes ``worker.json`` there: load times and each
item's latency, with the scale factors of the speed probe (``speed.py``),
and the outcome of checking every output, made after each pass, outside
the timed region.  Memory does not
grow with the number of passes.  With ``--trace 1`` it runs one untraced
and one traced pass and writes ``trace-worker.json``.

    python3 perfbench/worker.py --root . --dir RUN_DIR \
        --workload pairs-uniform --seconds 25 --trace 0
"""

import argparse
import json
import os
import statistics
import sys
import time
from array import array

import speed
import tracing

SETUP_LOADS = 3             # rogetsim.load calls untraced; setup_s is their median
SETUP_PROBES = 20           # speed probes before each load and after the last
RECENT_PASSES = 8           # passes whose latencies give each item's median


class Tally:
    """Outputs compared with the expected ones."""

    def __init__(self, items, expected):
        self.items, self.expected = items, expected
        self.attempted, self.failed, self.examples = 0, 0, []

    def check(self, outputs):
        for item, output, wanted in zip(self.items, outputs, self.expected):
            self.attempted += 1
            if output != wanted:
                self.failed += 1
                if len(self.examples) < 10:
                    self.examples.append("%r: got %r, expected %r"
                                         % (item, output, wanted))

    def result(self):
        return {"attempted": self.attempted, "failed": self.failed,
                "examples": self.examples}


def timed_passes(op, items, seconds, tally):
    """Closed loop, one caller: whole passes over ``items`` for ``seconds``.

    At least one pass runs.  The machine-speed probe runs at the start of
    each pass and then between items, at most every ``speed.EVERY_S``;
    each pass's latencies are scaled by the probes taken during it.  Each
    item's latency is its median over the last ``RECENT_PASSES`` passes,
    so that a stall of the machine within a pass does not move it.
    """
    clock = time.perf_counter_ns
    every = int(speed.EVERY_S * 1e9)
    n = len(items)
    recent = [array("q", bytes(8 * n)) for _ in range(RECENT_PASSES)]
    factors = [1.0] * RECENT_PASSES
    passes = 0
    deadline = clock() + int(seconds * 1e9)
    while not passes or clock() < deadline:
        slot = passes % RECENT_PASSES
        latency, outputs, probes = recent[slot], [], [speed.probe()]
        next_probe = clock() + every
        for i, item in enumerate(items):
            t0 = clock()
            out = op(item)
            t1 = clock()
            latency[i] = t1 - t0
            outputs.append(out)
            if t1 >= next_probe:
                probes.append(speed.probe())
                next_probe = clock() + every
        factors[slot] = speed.scale(probes)
        passes += 1
        tally.check(outputs)
    kept = range(min(passes, RECENT_PASSES))
    per_op = [statistics.median(recent[p][i] * factors[p] for p in kept) / 1e9
              for i in range(n)]
    return {"per_op_s": per_op, "operations": n * passes,
            "scale": statistics.median(factors[p] for p in kept)}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--workload", required=True,
                        choices=["setup", "pairs-uniform", "synonym-test"])
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(args.root, "src"))
    import rogetsim

    path = os.path.join(args.dir, "thesaurus.rt")
    # Each load is scaled by the probes just before and just after it.
    setup, gaps = [], []
    thesaurus = None
    for _ in range(1 if args.trace else SETUP_LOADS):
        thesaurus = None            # free the previous copy before timing
        gaps.append([speed.probe() for _ in range(SETUP_PROBES)])
        start = time.perf_counter()
        thesaurus = rogetsim.load(path)
        setup.append(time.perf_counter() - start)
    gaps.append([speed.probe() for _ in range(SETUP_PROBES)])
    result = {"setup_s": setup,
              "setup_scale": [speed.scale(gaps[i] + gaps[i + 1])
                              for i in range(len(setup))]}

    if args.workload != "setup":
        with open(os.path.join(args.dir, "ops.json"), encoding="utf-8") as handle:
            ops = json.load(handle)
        run = run_pairs if args.workload == "pairs-uniform" else run_questions
        result.update(run(rogetsim, thesaurus, path, ops["items"],
                          ops["expected"], args))

    with open(os.path.join(args.dir, "worker.json"), "w",
              encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def run_pairs(rogetsim, thesaurus, path, pairs, expected, args):
    """Outputs are similarities, -1 for WordNotFoundError, or the error."""

    def op(pair):
        try:
            return rogetsim.similarity(thesaurus, pair[0], pair[1])
        except rogetsim.WordNotFoundError:
            return -1
        except Exception as exc:     # a failure, reported with the outputs
            return ["error", repr(exc)]

    if not args.trace:
        tally = Tally(pairs, expected)
        result = timed_passes(op, pairs, args.seconds, tally)
        result.update(tally.result())
        return result

    # evaluate_pairs over the whole list, untraced (median of repeats)
    # and then traced, on a freshly traced load.
    tally = Tally(pairs, expected)
    scored = [rogetsim.ScoredPair(w1, w2, float(i % 5))
              for i, (w1, w2) in enumerate(pairs)]
    scale = rogetsim.PairScale(0.0, 4.0)

    def check(report):
        tally.check([-1 if row.system_similarity is None
                     else row.system_similarity for row in report.rows])

    untraced, deadline = [], time.perf_counter() + args.seconds / 2
    while not untraced or time.perf_counter() < deadline:
        start = time.perf_counter()
        report = rogetsim.evaluate_pairs(thesaurus, scored, scale)
        untraced.append(time.perf_counter() - start)
    check(report)
    tracer = tracing.Tracer()
    with tracer.installed():
        thesaurus = None
        thesaurus = rogetsim.load(path)
        start = time.perf_counter()
        report = rogetsim.evaluate_pairs(thesaurus, scored, scale)
        traced = time.perf_counter() - start
    check(report)
    tracer.write(os.path.join(args.dir, "trace-worker.json"))
    result = {"untraced_s": statistics.median(untraced), "traced_s": traced}
    result.update(tally.result())
    return result


def run_questions(rogetsim, thesaurus, path, questions, expected, args):
    """Outputs are [chosen, verdict, [[distance, pairs], ...]] or the error."""
    prepared = [rogetsim.SynonymQuestion(p, list(c), g) for p, c, g in questions]
    tally = Tally(questions, expected)

    def op(question):
        try:
            r = rogetsim.answer_question(thesaurus, question)
        except Exception as exc:     # a failure, reported with the outputs
            return ["error", repr(exc)]
        return [r.chosen_index, r.verdict,
                [[e.effective_distance, e.pair_count] for e in r.per_choice]]

    if not args.trace:
        result = timed_passes(op, prepared, args.seconds, tally)
        result.update(tally.result())
        return result

    start = time.perf_counter()
    outputs = [op(q) for q in prepared]
    untraced = time.perf_counter() - start
    tally.check(outputs)
    tracer = tracing.Tracer()
    with tracer.installed():
        thesaurus = None
        thesaurus = rogetsim.load(path)
        start = time.perf_counter()
        outputs = [op(q) for q in prepared]
        traced = time.perf_counter() - start
    tally.check(outputs)
    tracer.write(os.path.join(args.dir, "trace-worker.json"))
    result = {"untraced_s": untraced, "traced_s": traced}
    result.update(tally.result())
    return result


if __name__ == "__main__":
    sys.exit(main())
