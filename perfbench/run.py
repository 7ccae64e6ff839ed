"""rogetsim benchmark on a seeded synthetic thesaurus at the 1987 edition's scale.

    python3 perfbench/run.py --workload pairs-uniform --seed 1 --seconds 25 --trace 0

Generates the thesaurus and the workload's inputs from ``--seed``, runs
one closed-loop, single-client workload against ``src/rogetsim`` for
``--seconds`` and checks every result against an oracle that does not
use rogetsim.  Human-readable lines (environment, sizes and the named
metrics with units) come first; the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, the per-layer ones with
``--trace 1``.  Timings are scaled to a reference machine speed by a
probe timed between operations (``speed.py``).  A full record goes to
``perfbench/.work/results/``.

Workloads:
  cli-cold       one cold ``python -m rogetsim.cli --format tsv`` process
                 at a time (sim, distance, paths, and a sim with an absent
                 word that must exit 1) on low-frequency words
  pairs-uniform  ``rogetsim.similarity`` per pair, words uniform over the
                 distinct entries, ~5% absent, ~5% case/space variants
  synonym-test   ``rogetsim.answer_question`` per four-choice question,
                 words weighted by reference frequency

Not benchmarked: ``roget validate`` (it scans every reference for each
group, hours at this scale), ``roget import`` (only a 69-line excerpt is
in the repository) and ``serialize`` (no CLI path).
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import speed
import synth
import tracing
from oracle import MAX_DISTANCE, Oracle, tier

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cli-cold", "pairs-uniform", "synonym-test")
MIN_CLI_PASSES = 2        # passes over the CLI plan; each call reports its median
CLI_PROBES = 10           # speed probes before and after each CLI call
CHILD_TIMEOUT_S = 150
# Tail statistic per workload: max of the 4 CLI calls, p99 of the 50,000
# pairs, p95 of the 200 questions (10 beyond it).
TAIL = {"cli-cold": "max", "pairs-uniform": "p99", "synonym-test": "p95"}
# Noun, unit and factor from seconds of the per-workload named metrics
# (cli_call_p50_s, pair_p99_us, question_p95_ms, ...).
NAMED = {"cli-cold": ("cli_call", "s", 1), "pairs-uniform": ("pair", "us", 1e6),
         "synonym-test": ("question", "ms", 1e3)}
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "ops_per_s": "1/s"}


class Run:
    """One benchmark run: generated inputs, oracle and checked outcomes."""

    def __init__(self, workload, seed, seconds, trace, shape, work):
        self.workload, self.seed, self.seconds, self.trace = (
            workload, seed, seconds, trace)
        self.dir = work
        self.attempted = self.failed = 0
        self.failures = []        # the first few, as messages
        self.model = synth.generate(seed, shape)
        self.oracle = Oracle.from_model(self.model)
        self.thesaurus = self.path("thesaurus.rt")
        write(self.thesaurus, self.model.text)
        self.env = dict(os.environ, PYTHONHASHSEED="0",
                        PYTHONPATH=os.pathsep.join(
                            [os.path.join(ROOT, "src")]
                            + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    def path(self, name):
        return os.path.join(self.dir, name)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    # -- processes ---------------------------------------------------------

    def spawn(self, argv, name):
        """Run argv to completion; return (exit code, seconds, max RSS in MB)."""
        out, err = self.path(name + ".out"), self.path(name + ".err")
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644)]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable] + argv, self.env,
                             file_actions=actions)
        timer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            raise
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
        if os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL:
            raise TimeoutError("%s ran over %d s" % (name, CHILD_TIMEOUT_S))
        return os.waitstatus_to_exitcode(status), elapsed, usage.ru_maxrss / 1024

    def worker(self, workload, seconds):
        code, _, rss = self.spawn(
            [os.path.join(HERE, "worker.py"), "--root", ROOT, "--dir", self.dir,
             "--workload", workload, "--seconds", str(seconds),
             "--trace", str(self.trace)], "worker")
        if code != 0:
            raise RuntimeError("worker exited %d:\n%s"
                               % (code, read(self.path("worker.err"))))
        with open(self.path("worker.json"), encoding="utf-8") as handle:
            return json.load(handle), rss

    def cli(self, command, w1, w2, traced, name):
        argv = ["--thesaurus", self.thesaurus, "--format", "tsv", command, w1, w2]
        if traced:
            argv = [os.path.join(HERE, "launch.py"), ROOT,
                    self.path(name + ".json")] + argv
        else:
            argv = ["-m", "rogetsim.cli"] + argv
        code, elapsed, rss = self.spawn(argv, name)
        stdout = read(self.path(name + ".out"))
        self.check(self.cli_ok(command, w1, w2, code, stdout),
                   "roget %s %r %r: exit %d, %r" % (command, w1, w2, code, stdout))
        return elapsed, rss

    def cli_ok(self, command, w1, w2, code, stdout):
        best = self.oracle.word_distance(w1, w2)
        if best is None:
            return code == 1 and stdout == ""
        distance, pairs = best
        if code != 0:
            return False
        value = MAX_DISTANCE - distance
        if command in ("sim", "distance"):
            shown = value if command == "sim" else distance
            return stdout == "%d\t%d\t%s\n" % (shown, pairs, tier(value))
        lines = stdout.splitlines()
        headers = [line for line in lines if not line.startswith("  ")]
        return (headers == self.oracle.path_headers(w1, w2)
                and len(lines) - len(headers) == pairs)

    # -- workloads ---------------------------------------------------------

    def run_cli(self):
        plan = synth.cli_plan(self.model, self.seed)
        if self.trace:
            untraced = [self.cli(*call, False, "cli")[0] for call in plan]
            traced = [self.cli(*call, True, "trace-cli-%d" % i)[0]
                      for i, call in enumerate(plan)]
            return {"overhead": sum(traced) / sum(untraced),
                    "docs": [self.path("trace-cli-%d.json" % i)
                             for i in range(len(plan))]}
        setup, _ = self.worker("setup", 0)
        passes, factors, rss = [], [], 0
        deadline = time.perf_counter() + self.seconds
        while len(passes) < MIN_CLI_PASSES or time.perf_counter() < deadline:
            calls = []
            for call in plan:
                # Each call is scaled by the probes just before and after it.
                before = [speed.probe() for _ in range(CLI_PROBES)]
                elapsed, peak = self.cli(*call, False, "cli")
                factors.append(speed.scale(
                    before + [speed.probe() for _ in range(CLI_PROBES)]))
                calls.append(elapsed * factors[-1])
                rss = max(rss, peak)
            passes.append(calls)
        return {"setup": setup, "rss": rss, "scale": statistics.median(factors),
                "per_op_s": [statistics.median(c) for c in zip(*passes)],
                "count": len(plan) * len(passes)}

    def run_in_process(self):
        if self.workload == "pairs-uniform":
            items = synth.pair_list(self.model, self.seed)
            expect = self.expected_pair
        else:
            items = synth.question_list(self.model, self.seed)
            expect = self.expected_answer
        write(self.path("ops.json"), json.dumps(
            {"items": items, "expected": [expect(item) for item in items]}))
        result, rss = self.worker(self.workload, self.seconds)
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.failures.extend("%s %s" % (self.workload, example)
                             for example in result["examples"])
        if self.trace:
            return {"overhead": result["traced_s"] / result["untraced_s"],
                    "docs": [self.path("trace-worker.json")]}
        return {"setup": result, "rss": rss, "scale": result["scale"],
                "per_op_s": result["per_op_s"], "count": result["operations"]}

    def expected_pair(self, pair):
        best = self.oracle.word_distance(*pair)
        return -1 if best is None else MAX_DISTANCE - best[0]

    def expected_answer(self, question):
        chosen, verdict, per_choice = self.oracle.answer(*question)
        return [chosen, verdict, [list(c) for c in per_choice]]

    def execute(self):
        outcome = (self.run_cli() if self.workload == "cli-cold"
                   else self.run_in_process())
        if not self.trace:
            return end_to_end(self.workload, outcome)
        docs = []
        for path in outcome["docs"]:
            with open(path, encoding="utf-8") as handle:
                docs.append(json.load(handle))
        return {"per_layer": tracing.layer_metrics(docs, outcome["overhead"])}


def end_to_end(workload, outcome):
    """End-to-end metrics, with timings scaled to the probe's reference speed.

    ``outcome`` holds each operation's scaled median latency in seconds,
    the median of their scale factors, and the load times with the scale
    factor of each.
    """
    setup = outcome["setup"]
    setup_s = statistics.median(
        t * k for t, k in zip(setup["setup_s"], setup["setup_scale"]))
    per_op = outcome["per_op_s"]
    latency = percentiles(per_op)
    tail = TAIL[workload]
    ops_per_s = len(per_op) / sum(per_op)
    noun, unit, factor = NAMED[workload]
    return {"setup_s": setup_s,
            "peak_rss_mb": outcome["rss"],
            "op_p50_ms": latency["p50"] * 1e3,
            "op_tail_ms": latency[tail] * 1e3,
            "ops_per_s": ops_per_s,
            "named": {"%ss_per_s" % noun: (ops_per_s, "1/s"),
                      "%s_p50_%s" % (noun, unit): (latency["p50"] * factor, unit),
                      "%s_%s_%s" % (noun, tail, unit): (latency[tail] * factor,
                                                       unit)},
            "scale": {"setup": statistics.median(setup["setup_scale"]),
                      "run": outcome["scale"]},
            "count": outcome["count"]}


def percentiles(samples):
    """Nearest-rank p50/p95/p99/max of samples in seconds."""
    ordered = sorted(samples)
    n = len(ordered)

    def rank(p):
        return ordered[max(0, -(-p * n // 100) - 1)]

    return {"p50": rank(50), "p95": rank(95), "p99": rank(99),
            "max": ordered[-1], "count": n}


def write(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def environment(seed):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "commit": git_commit(), "seed": seed}


def git_commit():
    """HEAD of the checkout, or "unknown" if it is not a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def benchmark(workload, seed, seconds, trace, shape=synth.FULL, work=None):
    """Run one workload; return (final JSON object, full record)."""
    name = "%s-seed%d-trace%d" % (workload, seed, trace)
    work = work or os.path.join(HERE, ".work")
    run_dir = os.path.join(work, name)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    run = Run(workload, seed, seconds, trace, shape, run_dir)
    outcome = run.execute()
    for leftover in ("thesaurus.rt", "ops.json", "worker.json"):
        if os.path.exists(run.path(leftover)):
            os.remove(run.path(leftover))

    if trace:
        metrics = outcome["per_layer"]
    else:
        metrics = {key: {"value": outcome[key], "unit": unit}
                   for key, unit in END_TO_END_UNITS.items()}
    failed = run.failed
    final = {"correct": failed == 0, "attempted": run.attempted,
             "failed": failed, "metrics": metrics}
    record = {"workload": workload, "environment": environment(seed),
              "sizes": run.model.sizes, "seconds": seconds, "trace": trace,
              "error_rate": failed / max(run.attempted, 1),
              "failures": run.failures[:20], "named": outcome.get("named", {}),
              "scale": outcome.get("scale"), "operations": outcome.get("count"),
              "result": final}
    os.makedirs(os.path.join(work, "results"), exist_ok=True)
    write(os.path.join(work, "results", name + ".json"),
          json.dumps(record, indent=1) + "\n")
    return final, record


def report_lines(record):
    final = record["result"]
    lines = ["environment: " + json.dumps(record["environment"]),
             "sizes: " + json.dumps(record["sizes"])]
    if record["operations"] is not None:
        lines.append("%s: %d operations, --seconds %g, closed loop, one client"
                     % (record["workload"], record["operations"], record["seconds"]))
    if record["scale"] is not None:
        lines.append("timings scaled to a %g ms speed probe: measured x %.4f "
                     "(loads), x %.4f (operations), medians" % (
                         speed.REFERENCE_S * 1e3, record["scale"]["setup"],
                         record["scale"]["run"]))
    for name, (value, unit) in record["named"].items():
        lines.append("  %-24s %14.6g %s" % (name, value, unit))
    for name, metric in final["metrics"].items():
        lines.append("  %-40s %14.6g %s" % (name, metric["value"], metric["unit"]))
    lines.append("  %-24s %14.6g (%d of %d operations)" % (
        "error_rate", record["error_rate"], final["failed"], final["attempted"]))
    lines.extend("  FAILED: " + f for f in record["failures"])
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "rogetsim", "cli.py")):
        sys.stderr.write("error: no rogetsim sources under %s\n"
                         % os.path.join(ROOT, "src"))
        return 2
    # One CPU for this process and every child, so that the speed probe
    # and the operation it scales run on the same CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    final, record = benchmark(args.workload, args.seed, args.seconds, args.trace)
    for line in report_lines(record):
        print(line)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
