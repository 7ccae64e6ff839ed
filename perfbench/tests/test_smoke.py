"""Tiny end-to-end runs of every workload, untraced and traced."""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import rogetsim
import run
import speed
import synth
import tracing
import worker
from conftest import BENCH, FIXTURE, ROOT

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_smoke_run_is_correct(workload, tmp_path):
    final, record = run.benchmark(workload, 2, 0.3, 0, synth.TINY, str(tmp_path))
    assert final["failed"] == 0 and final["correct"]
    assert final["attempted"] >= 1 and record["error_rate"] == 0
    assert [m["name"] for m in SPEC["end_to_end"]] == list(final["metrics"])
    assert all(m["value"] > 0 for m in final["metrics"].values())


# Layers each workload runs; the others must read 0 in its traced run.
EXERCISED = {
    "cli-cold": ("interchange.", "cli.", "taxonomy.", "similarity."),
    "pairs-uniform": ("interchange.", "taxonomy.lookup", "taxonomy.reference",
                      "similarity.", "bench."),
    "synonym-test": ("interchange.", "taxonomy.lookup", "taxonomy.reference",
                     "similarity.", "solver."),
}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_smoke_run_reports_every_layer(workload, tmp_path):
    final, record = run.benchmark(workload, 2, 0.3, 1, synth.TINY, str(tmp_path))
    assert final["failed"] == 0 and record["error_rate"] == 0
    assert [m["name"] for m in SPEC["per_layer"]] == list(final["metrics"])
    for name, metric in final["metrics"].items():
        if name.endswith("_s") or name.endswith("_calls"):
            if name.startswith(EXERCISED[workload]):
                assert metric["value"] > 0, name
            else:
                assert metric["value"] == 0, name


def test_wrong_cli_output_is_a_failure(tmp_path):
    check = run.Run("cli-cold", 2, 0.3, 0, synth.TINY, str(tmp_path))
    w1, w2 = check.model.keys[0], check.model.keys[1]
    distance, pairs = check.oracle.word_distance(w1, w2)
    good = "%d\t%d\t" % (16 - distance, pairs)
    assert check.cli_ok("sim", w1, w2, 0, good + run.tier(16 - distance) + "\n")
    assert not check.cli_ok("sim", w1, w2, 0, good + "Wrong\n")
    assert not check.cli_ok("sim", w1, "absentq", 0, "")
    assert check.cli_ok("sim", w1, "absentq", 1, "")


def test_tracer_counts_reference_pairs_and_restores():
    thesaurus = rogetsim.load(FIXTURE)
    original = rogetsim.Thesaurus.reference_distance
    tracer = tracing.Tracer()
    with tracer.installed():
        rogetsim.similarity(thesaurus, "feline", "lynx")
    assert rogetsim.Thesaurus.reference_distance is original
    m, n = len(thesaurus.lookup("feline")), len(thesaurus.lookup("lynx"))
    layers = tracing.layer_metrics([tracer.document()], 1.0)
    assert layers["similarity.ref_pairs_compared"]["value"] == m * n
    assert layers["taxonomy.reference_distance_calls"]["value"] == m * n
    assert layers["similarity.word_min_distance_calls"]["value"] == 1
    assert layers["taxonomy.lookup_calls"]["value"] == 2


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pairs-uniform",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_timings_are_scaled_to_the_reference_probe(monkeypatch):
    # The probe runs twice as long as the reference: timings halve.
    monkeypatch.setattr(speed, "probe", lambda: 2 * speed.REFERENCE_S)
    tally = worker.Tally([0, 1], [None, None])
    timed = worker.timed_passes(lambda item: time.sleep(0.01), [0, 1], 0.05, tally)
    assert timed["scale"] == 0.5 and tally.failed == 0
    assert all(0.0049 < t < 0.0075 for t in timed["per_op_s"])
    outcome = {"setup": {"setup_s": [2.0, 3.0, 4.0], "setup_scale": [0.5] * 3},
               "rss": 1.0, "scale": 0.5, "per_op_s": [0.001, 0.002], "count": 2}
    metrics = run.end_to_end("synonym-test", outcome)
    assert metrics["setup_s"] == pytest.approx(1.5)
    assert metrics["op_p50_ms"] == pytest.approx(1.0)
    assert metrics["op_tail_ms"] == pytest.approx(2.0)
    assert metrics["ops_per_s"] == pytest.approx(2 / 0.003)
