"""The summary of scripts/ab.py, the alternating A/B benchmark runner."""

import importlib.util
import json
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts",
                      "ab.py")
spec = importlib.util.spec_from_file_location("ab", SCRIPT)
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)

METRICS = [{"name": "op_p50_ms", "unit": "ms", "better": "lower"},
           {"name": "ops_per_s", "unit": "1/s", "better": "higher"}]


def runs(p50s, rates):
    return [{"op_p50_ms": p50, "ops_per_s": rate}
            for p50, rate in zip(p50s, rates)]


def test_the_summary_on_fixed_numbers():
    base = runs([10, 11, 12, 13, 14], [100, 100, 100, 100, 100])
    change = runs([8, 9, 12, 10, 15], [99, 101, 100, 100, 100])
    p50, rate = ab.summarize(METRICS, base, change)
    # The base's quartiles of 10..14 are 10.5, 12 and 13.5 (the
    # "exclusive" method); the change's of 8, 9, 10, 12, 15 are 8.5, 10
    # and 13.5.  Pairs 1, 2 and 4 are lower; pair 3 ties, which is no win.
    assert p50 == ("op_p50_ms", "ms", (10.5, 12, 13.5), (8.5, 10, 13.5), 3,
                   False)
    # Higher is better: only pair 2 wins.  No spread, so a gap of 0 is not
    # more than the IQR of 0.
    assert rate == ("ops_per_s", "1/s", (100, 100, 100), (99.5, 100, 100.5),
                    1, False)


def test_medians_apart_by_more_than_the_base_iqr():
    base = runs([10, 10.2, 10.4, 10.6], [1, 1, 1, 1])
    change = runs([9, 9.1, 9.2, 9.3], [2, 2, 2, 2])
    p50, rate = ab.summarize(METRICS, base, change)
    assert (p50[4], p50[5]) == (4, True)
    assert (rate[4], rate[5]) == (4, True)


def test_one_pair_has_its_value_for_every_quartile():
    (p50, _) = ab.summarize(METRICS, runs([3], [1]), runs([2], [1]))
    assert p50[2:] == ((3, 3, 3), (2, 2, 2), 1, True)


def test_the_report_prints_one_line_per_metric():
    rows = ab.summarize(METRICS, runs([10, 11], [1, 2]), runs([9, 9], [3, 3]))
    lines = ab.report_lines(rows, 2)
    assert len(lines) == 1 + len(METRICS)
    assert lines[1].split()[0] == "op_p50_ms" and "2/2" in lines[1]


def test_fewer_than_one_pair_is_refused():
    with pytest.raises(SystemExit):
        ab.main(["base", "change", "--workload", "synonym-test", "--seed", "1",
                 "--pairs", "0"])


def test_the_record_on_fixed_numbers():
    base = runs([10, 11, 12, 13, 14], [100, 100, 100, 100, 100])
    change = runs([8, 9, 12, 10, 15], [99, 101, 100, 100, 100])
    record = ab.record("synonym-test", 1, 5, {"base": base, "change": change},
                       ab.summarize(METRICS, base, change))
    assert json.loads(json.dumps(record)) == record
    assert record == {
        "workload": "synonym-test", "seed": 1, "pairs": 5,
        "runs": {"base": base, "change": change},
        "summary": [
            {"metric": "op_p50_ms", "unit": "ms",
             "base": {"q1": 10.5, "median": 12, "q3": 13.5},
             "change": {"q1": 8.5, "median": 10, "q3": 13.5},
             "won": 3, "gap_above_base_iqr": False},
            {"metric": "ops_per_s", "unit": "1/s",
             "base": {"q1": 100, "median": 100, "q3": 100},
             "change": {"q1": 99.5, "median": 100, "q3": 100.5},
             "won": 1, "gap_above_base_iqr": False}]}


def test_the_record_is_the_last_line(capsys, monkeypatch):
    # Each base run reads 2 and each change run 1 for every metric.
    with open(os.path.join(ab.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]

    def run_once(checkout, workload, seed, seconds):
        value = {"base": 2, "change": 1}[checkout]
        return {"correct": True, "failed": 0, "metrics": {
            metric["name"]: {"value": value} for metric in metrics}}

    monkeypatch.setattr(ab, "run_once", run_once)
    assert ab.main(["base", "change", "--workload", "cli-cold", "--seed", "1",
                    "--pairs", "2"]) == 0
    record = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (record["workload"], record["seed"], record["pairs"]) == (
        "cli-cold", 1, 2)
    assert record["runs"] == {side: [dict.fromkeys(
        [metric["name"] for metric in metrics], value)] * 2
        for side, value in (("base", 2), ("change", 1))}
    assert [(row["metric"], row["won"]) for row in record["summary"]] == [
        (metric["name"], 2 if metric["better"] == "lower" else 0)
        for metric in metrics]
