"""The summary of scripts/ab.py, the alternating A/B benchmark runner."""

import importlib.util
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
