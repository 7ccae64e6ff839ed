"""Pearson correlation and pair-benchmark reports."""

import io
import math
import random

import pytest

from rogetsim import (CorrelationUndefinedError, PairScale, ParseError,
                      ScoredPair, evaluate_pairs, load_pairs, outlier_report,
                      pearson)
from rogetsim.cli import main
from tests.conftest import FIXTURE_PATH, TIER_PAIRS, data_path


def pearson_oracle(xs, ys):
    """Definitional formula via raw sums of squares (independent path)."""
    n = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    syy = sum(y * y for y in ys)
    sxy = sum(x * y for x, y in zip(xs, ys))
    return ((n * sxy - sx * sy)
            / math.sqrt((n * sxx - sx * sx) * (n * syy - sy * sy)))


def test_pearson_perfect_linear():
    assert abs(pearson([1, 2, 3], [2, 4, 6]) - 1.0) <= 1e-12


def test_pearson_perfect_inverse():
    assert abs(pearson([1, 2, 3], [3, 2, 1]) + 1.0) <= 1e-12


def test_pearson_hand_computed():
    # frozen from the sums-of-squares oracle: 5.5 / sqrt(5 * 8.75) = 0.83
    expected = pearson_oracle([1, 2, 3, 4], [1, 3, 2, 5])
    assert round(expected, 2) == 0.83
    assert abs(pearson([1, 2, 3, 4], [1, 3, 2, 5]) - expected) <= 1e-12


@pytest.mark.parametrize("xs,ys", [
    ([1, 2], [1, 2, 3]),
    ([1], [2]),
    ([1, 1, 1], [1, 2, 3]),
    ([1, 2, 3], [5, 5, 5]),
])
def test_pearson_undefined(xs, ys):
    with pytest.raises(CorrelationUndefinedError):
        pearson(xs, ys)


def test_pearson_matches_oracle_on_random_vectors():
    rng = random.Random(99)
    for _ in range(1000):
        n = rng.randint(2, 100)
        xs = [rng.uniform(-50, 50) for _ in range(n)]
        ys = [rng.uniform(-50, 50) for _ in range(n)]
        try:
            expected = pearson_oracle(xs, ys)
        except ZeroDivisionError:
            continue
        assert abs(pearson(xs, ys) - expected) <= 1e-9


def test_pearson_symmetry_and_affine_invariance():
    rng = random.Random(123)
    for _ in range(200):
        n = rng.randint(2, 40)
        xs = [rng.uniform(-10, 10) for _ in range(n)]
        ys = [rng.uniform(-10, 10) for _ in range(n)]
        try:
            r = pearson(xs, ys)
        except CorrelationUndefinedError:
            continue
        assert abs(pearson(ys, xs) - r) <= 1e-12
        a, b = rng.uniform(0.1, 5.0), rng.uniform(-20, 20)
        assert abs(pearson([a * x + b for x in xs], ys) - r) <= 1e-12


def fixture_pairs():
    # Human scores chosen linear in the known fixture similarities.
    return [ScoredPair(w1, w2, (16 - d) / 4.0) for d, w1, w2 in TIER_PAIRS]


def test_evaluate_pairs_linear_fixture(thesaurus):
    scale = PairScale(0.0, 4.0)
    report = evaluate_pairs(thesaurus, fixture_pairs(), scale)
    assert abs(report.correlation - 1.0) <= 1e-12
    assert report.pairs_skipped == 0
    similarities = [row.system_similarity for row in report.rows]
    assert similarities == [16, 14, 12, 10, 8, 6, 4, 2, 0]
    assert report.rows[0].tier == "High"
    assert report.rows[1].tier == "Intermediate"
    assert report.rows[-1].tier == "Low"


def test_evaluate_pairs_order_independent(thesaurus):
    scale = PairScale(0.0, 4.0)
    pairs = fixture_pairs()
    shuffled = list(reversed(pairs))
    r1 = evaluate_pairs(thesaurus, pairs, scale)
    r2 = evaluate_pairs(thesaurus, shuffled, scale)
    assert abs(r1.correlation - r2.correlation) <= 1e-12


def test_evaluate_pairs_policies(thesaurus):
    scale = PairScale(0.0, 4.0)
    pairs = fixture_pairs() + [ScoredPair("zzzz", "feline", 2.0)]
    skip = evaluate_pairs(thesaurus, pairs, scale, policy="skip")
    assert skip.pairs_skipped == 1
    assert skip.rows[-1].system_similarity is None
    zero = evaluate_pairs(thesaurus, pairs, scale, policy="zero")
    assert zero.pairs_skipped == 0
    assert zero.rows[-1].system_similarity == 0


def test_evaluate_pairs_unknown_policy(thesaurus):
    with pytest.raises(ValueError, match="^unknown policy 'drop'$"):
        evaluate_pairs(thesaurus, fixture_pairs(), PairScale(0.0, 4.0),
                       policy="drop")


def test_evaluate_pairs_all_not_found(thesaurus):
    pairs = [ScoredPair("zzzz", "qqqq", 1.0), ScoredPair("zzzz", "wwww", 2.0)]
    with pytest.raises(CorrelationUndefinedError):
        evaluate_pairs(thesaurus, pairs, PairScale(0.0, 4.0), policy="skip")


def test_evaluate_pairs_empty(thesaurus):
    with pytest.raises(CorrelationUndefinedError):
        evaluate_pairs(thesaurus, [], PairScale(0.0, 4.0))


def test_outlier_report(thesaurus):
    scale = PairScale(0.0, 4.0)
    # glass - jewel: system 12 (same head, noun groups) vs a low human score
    pairs = fixture_pairs() + [ScoredPair("glass", "jewel", 0.5)]
    report = evaluate_pairs(thesaurus, pairs, scale)
    outliers = outlier_report(report, threshold=4.0)
    assert len(outliers) == 1
    assert outliers[0].pair.word1 == "glass"
    assert outliers[0].system_similarity == 12
    assert outliers[0].discrepancy == pytest.approx(10.0)


def test_outlier_report_leaves_out_skipped_pairs(thesaurus):
    # A top human score for a missing word: an outlier under "zero", which
    # scores the pair 0, but not under "skip", which scores it nothing.
    pairs = fixture_pairs() + [ScoredPair("zzzz", "feline", 4.0)]
    scale = PairScale(0.0, 4.0)
    skip = evaluate_pairs(thesaurus, pairs, scale, policy="skip")
    assert outlier_report(skip, threshold=4.0) == []
    zero = evaluate_pairs(thesaurus, pairs, scale, policy="zero")
    assert [row.pair.word1 for row in outlier_report(zero, 4.0)] == ["zzzz"]


def test_outlier_report_empty_when_aligned(thesaurus):
    report = evaluate_pairs(thesaurus, fixture_pairs(), PairScale(0.0, 4.0))
    assert outlier_report(report, threshold=4.0) == []


@pytest.mark.parametrize("low, high", [
    (4.0, 0.0), (1.0, 1.0), (0.0, -0.5)])
def test_pair_scale_refuses_a_high_not_above_low(low, high):
    # PairScale(4.0, 0.0) would invert outlier_report's normalization and
    # PairScale(1.0, 1.0) would divide by zero there.
    with pytest.raises(ValueError, match="^scale high must exceed scale low$"):
        PairScale(low, high)


@pytest.mark.parametrize("low, high", [
    (math.inf, 4.0), (0.0, math.inf), (-math.inf, 4.0), (math.nan, 4.0),
    (0.0, math.nan)])
def test_pair_scale_refuses_a_bound_that_is_not_finite(low, high):
    with pytest.raises(ValueError, match="^scale bounds must be finite"):
        PairScale(low, high)


def test_load_pairs_file():
    with open(data_path("pairs_fixture.tsv"), encoding="utf-8") as source:
        scale, pairs = load_pairs(source.read())
    assert (scale.low, scale.high) == (0.0, 4.0)
    assert len(pairs) == 9
    assert pairs[0].word1 == "journey's end"


@pytest.mark.parametrize("separator", ["\u2028", "\x0c", "\x85"])
def test_load_pairs_string_splits_like_stream(separator):
    text = ("scale\t0\t4\r\nfeline%scat\tlynx\t3.5\rmonk\toracle\t3\n"
            % separator)
    loaded = load_pairs(text)
    assert loaded == load_pairs(io.StringIO(text, newline=None))
    assert [p.word1 for p in loaded[1]] == ["feline%scat" % separator, "monk"]


@pytest.mark.parametrize("text", [
    "feline\tlynx\t3.5\n",                       # missing scale header
    "scale\t0\t4\nfeline\tlynx\n",               # short row
    "scale\t0\t4\nfeline\tlynx\tmany\n",         # non-numeric score
    "scale\t0\t4\nfeline\tlynx\t9.5\n",          # outside declared scale
    "scale\t4\t0\n",                             # inverted scale
    "scale\tlow\t4\n",                           # non-numeric scale
])
def test_load_pairs_rejects_malformed(text):
    with pytest.raises(ParseError):
        load_pairs(text)


@pytest.mark.parametrize("row, message", [
    ("\tlynx\t3", "line 3, column 1: word1 is empty"),
    ("feline\t \t3", "line 3, column 2: word2 is empty"),
    ("\u3000\t\tmany", "line 3, column 1: word1 is empty"),
])
def test_load_pairs_rejects_an_empty_word(row, message, tmp_path):
    # An empty word was kept, then skipped as not found.
    text = "scale\t0\t4\nfeline\tlynx\t3\n%s\n" % row
    with pytest.raises(ParseError) as caught:
        load_pairs(text)
    assert str(caught.value) == message
    path = tmp_path / "pairs.tsv"
    path.write_text(text, encoding="utf-8")
    err = io.StringIO()
    assert main(["--thesaurus", FIXTURE_PATH, "bench", str(path)],
                out=io.StringIO(), err=err) == 2
    assert message in err.getvalue()


def test_load_pairs_rejects_a_stream_that_cannot_be_decoded():
    data = b"scale\t0\t4\nfeline\tlynx\t3\nca\xe9\n"
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") as text:
        with pytest.raises(ParseError, match="^byte 0xe9 is not utf-8$"):
            load_pairs(text)


@pytest.mark.parametrize("text, message", [
    ("scale\t0\tinf\nfeline\tlynx\t3\n",
     "line 1, column 3: scale max 'inf' is not a number"),
    ("scale\t-inf\t4\nfeline\tlynx\t3\n",
     "line 1, column 2: scale min '-inf' is not a number"),
    ("scale\tnan\t4\nfeline\tlynx\t3\n",
     "line 1, column 2: scale min 'nan' is not a number"),
    ("scale\t0\t%s\nfeline\tlynx\t3\n" % ("9" * 400),
     "line 1, column 3: scale max %s is not a finite number" % ("9" * 400)),
])
def test_load_pairs_rejects_a_scale_bound_that_is_not_finite(text, message):
    # Each loaded once: an infinite max mapped every human score to 0.0,
    # an infinite min gave NaN gaps, and a NaN min failed at line 2.  The
    # format writes no inf or nan, and digits past a float's range read as
    # infinity.
    with pytest.raises(ParseError) as caught:
        load_pairs(text)
    assert str(caught.value) == message


@pytest.mark.parametrize("number", ["1e0", " 2 ", "+1", ".5", "1.", "1_0",
                                    "2 ", "\u0661"])
def test_load_pairs_reads_numbers_only_as_the_format_writes_them(number):
    # float() reads each of these; the format writes -?[0-9]+(\.[0-9]+)?.
    with pytest.raises(ParseError) as caught:
        load_pairs("scale\t0\t4\nfeline\tlynx\t%s\n" % number)
    assert str(caught.value) == (
        "line 2, column 3: human score %r is not a number" % number)
    with pytest.raises(ParseError) as caught:
        load_pairs("scale\t%s\t4\n" % number)
    assert str(caught.value) == (
        "line 1, column 2: scale min %r is not a number" % number)


@pytest.mark.parametrize("number, value", [
    ("0", 0.0), ("3", 3.0), ("3.5", 3.5), ("-0.25", -0.25), ("04", 4.0)])
def test_load_pairs_reads_numbers_as_the_format_writes_them(number, value):
    scale, pairs = load_pairs("scale\t-1\t9\nfeline\tlynx\t%s\n" % number)
    assert pairs[0].human_score == value
