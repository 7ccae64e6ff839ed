"""Alternating A/B runs of the benchmark on two checkouts of rogetsim.

    python3 scripts/ab.py BASE CHANGE --workload synonym-test --seed 1 \\
        --pairs 10

Runs each checkout's own benchmark command (``command`` in its
``BENCHMARK.json``, ``perfbench/run.py``) in that checkout, once per
pair, with ``--trace 0`` and the run length ``run_seconds`` of this
repository's ``BENCHMARK.json``, the same on both sides.  The side that
goes first alternates from pair to pair, so a machine that speeds up or
slows down during the runs favours neither.  Each run's result is the JSON object on the last line
of its stdout.

For every end-to-end metric of this repository's ``BENCHMARK.json`` it
prints each side's median and quartiles, how many pairs the change won
(by the metric's ``better``; a tie is not a win) and whether the medians
differ by more than the base's interquartile range.  Its last line is a
JSON record of the comparison (``record``).  The exit status is 1 if any
run was incorrect or failed, 0 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values):
    """(first quartile, median, third quartile) of a non-empty list."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def summarize(metrics, base_runs, change_runs):
    """One row per metric of ``metrics`` (BENCHMARK.json's end-to-end
    list): (name, unit, base quartiles, change quartiles, pairs won,
    whether the medians differ by more than the base's IQR).

    ``base_runs[i]`` and ``change_runs[i]`` are pair i's metric values,
    each a dict from metric name to number.
    """
    rows = []
    for metric in metrics:
        name = metric["name"]
        base = [run[name] for run in base_runs]
        change = [run[name] for run in change_runs]
        base_q, change_q = quartiles(base), quartiles(change)
        lower = metric["better"] == "lower"
        wins = sum(c < b if lower else c > b for b, c in zip(base, change))
        rows.append((name, metric["unit"], base_q, change_q, wins,
                     abs(change_q[1] - base_q[1]) > base_q[2] - base_q[0]))
    return rows


def report_lines(rows, pairs):
    """The printed table of ``summarize``'s rows over ``pairs`` pairs."""
    line = "%-12s %-4s %32s %32s %6s %s"
    lines = [line % ("metric", "unit", "base median [q1, q3]",
                     "change median [q1, q3]", "won", "gap > base IQR")]
    for name, unit, base_q, change_q, wins, apart in rows:
        lines.append(line % (
            name, unit, "%.6g [%.6g, %.6g]" % (base_q[1], *base_q[::2]),
            "%.6g [%.6g, %.6g]" % (change_q[1], *change_q[::2]),
            "%d/%d" % (wins, pairs), "yes" if apart else "no"))
    return lines


def record(workload, seed, pairs, runs, rows):
    """The JSON object printed last: the workload, seed and number of pairs,
    every run's metrics per side (``runs``, "base" and "change" to their
    lists of runs, in pair order) and ``summarize``'s rows."""
    return {"workload": workload, "seed": seed, "pairs": pairs, "runs": runs,
            "summary": [{"metric": name, "unit": unit,
                         "base": dict(zip(("q1", "median", "q3"), base_q)),
                         "change": dict(zip(("q1", "median", "q3"),
                                            change_q)),
                         "won": wins, "gap_above_base_iqr": apart}
                        for name, unit, base_q, change_q, wins, apart
                        in rows]}


def run_once(checkout, workload, seed, seconds):
    """The final JSON object of one benchmark run in ``checkout``."""
    with open(os.path.join(checkout, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        command = json.load(handle)["command"]
    # Each side imports only its own sources.
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    done = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="checkout of the base commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        benchmark = json.load(handle)
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    runs = {"base": [], "change": []}
    incorrect = 0
    for pair in range(args.pairs):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for side in order:
            final = run_once(getattr(args, side), args.workload, args.seed,
                             seconds)
            if final is None or not final["correct"] or final["failed"]:
                incorrect += 1
                print("pair %d: %s run incorrect or failed: %r"
                      % (pair + 1, side, final), flush=True)
                continue
            values = {name: m["value"] for name, m in final["metrics"].items()}
            runs[side].append(values)
            print("pair %d: %s %s" % (pair + 1, side, json.dumps(values)),
                  flush=True)
    if incorrect:
        print("%d incorrect or failed runs" % incorrect)
        return 1
    rows = summarize(metrics, runs["base"], runs["change"])
    for line in report_lines(rows, args.pairs):
        print(line)
    print(json.dumps(record(args.workload, args.seed, args.pairs, runs, rows)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
