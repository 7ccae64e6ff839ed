"""Word-level distance, Eq.-style similarity and shortest-path counts."""

import random
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from rogetsim import (MAX_DISTANCE, SimilarityTier, SynonymQuestion,
                      Thesaurus, WordNotFoundError, taxonomy,
                      answer_question, enumerate_shortest_paths,
                      evaluate_pairs, load_pairs, load_questions,
                      parse_interchange, similarity, similarity_tier,
                      word_min_distance)
from tests.conftest import TIER_PAIRS, data_path


def brute_force_pair_count(thesaurus, w1, w2):
    """Oracle: nested loop over the full Cartesian product."""
    refs1, refs2 = thesaurus.lookup(w1), thesaurus.lookup(w2)
    distances = [thesaurus.reference_distance(a, b)
                 for a in refs1 for b in refs2]
    best = min(distances)
    return best, distances.count(best)


def test_feline_lynx(thesaurus):
    result = word_min_distance(thesaurus, "feline", "lynx")
    assert result.min_distance == 2
    assert result.pair_count == 1
    (r1, r2), = result.achieving_pairs
    assert r1.display == r2.display == "cat 365 N."


def test_ode_poem(thesaurus):
    result = word_min_distance(thesaurus, "ode", "poem")
    assert result.min_distance == 2
    assert result.pair_count == 2


def test_self_distance_zero(thesaurus):
    for word in ("feline", "lynx", "ode", "monk"):
        assert word_min_distance(thesaurus, word, word).min_distance == 0
        assert similarity(thesaurus, word, word) == MAX_DISTANCE


def test_not_found_names_missing_words(thesaurus):
    with pytest.raises(WordNotFoundError) as excinfo:
        word_min_distance(thesaurus, "feline", "zzzz")
    assert excinfo.value.words == ["zzzz"]
    with pytest.raises(WordNotFoundError) as excinfo:
        word_min_distance(thesaurus, "qqqq", "zzzz")
    assert excinfo.value.words == ["qqqq", "zzzz"]
    with pytest.raises(WordNotFoundError) as excinfo:
        word_min_distance(thesaurus, "zzzz", "feline")
    assert excinfo.value.words == ["zzzz"]


@pytest.fixture
def calls(monkeypatch):
    """Counts of Thesaurus.reference_distance, _pairs_within and _key
    calls."""
    counts = Counter()

    def counted(name):
        original = getattr(Thesaurus, name)

        def wrapper(*args):
            counts[name] += 1
            return original(*args)
        return wrapper

    for name in ("reference_distance", "_pairs_within", "_key"):
        monkeypatch.setattr(Thesaurus, name, counted(name))
    return counts


def test_few_pairs_are_measured_one_by_one(thesaurus, calls):
    # One reference_distance call per pair, each reading the two records'
    # keys in place: lookup returns own records, so no _key call is made.
    words = sorted(thesaurus.index)
    products = set()
    for w1 in words:
        for w2 in words:
            pairs = len(thesaurus.lookup(w1)) * len(thesaurus.lookup(w2))
            if pairs > taxonomy._FEW_PAIRS:
                continue
            calls.clear()
            word_min_distance(thesaurus, w1, w2)
            assert calls == {"reference_distance": pairs}
            products.add(pairs)
    assert products == {1, 2, 3, 4, 6}


def test_similarity_never_builds_the_achieving_pairs(thesaurus, calls):
    words = sorted(thesaurus.index)
    for w1 in words:
        for w2 in words:
            similarity(thesaurus, w1, w2)
    assert calls["_pairs_within"] == 0


def test_achieving_pairs_are_built_once(thesaurus, calls):
    result = word_min_distance(thesaurus, "ode", "poem")
    assert calls["_pairs_within"] == 0
    first = result.achieving_pairs
    assert result.achieving_pairs is first and len(first) == 2
    assert calls["_pairs_within"] == 1


def test_achieving_pairs_keep_the_distance_of_the_call(thesaurus):
    expected = word_min_distance(thesaurus, "ode", "poem").achieving_pairs
    result = word_min_distance(thesaurus, "ode", "poem")
    result.min_distance = MAX_DISTANCE
    assert result.achieving_pairs == expected


def test_results_compare_by_their_public_fields(thesaurus):
    result = word_min_distance(thesaurus, "feline", "lynx")
    assert result == word_min_distance(thesaurus, "feline", "lynx")
    assert result != word_min_distance(thesaurus, "ode", "poem")
    assert repr(result) == ("WordDistanceResult(word1='feline', "
                            "word2='lynx', min_distance=2, pair_count=1)")


@pytest.mark.parametrize("distance,w1,w2", TIER_PAIRS)
def test_similarity_complements_distance(thesaurus, distance, w1, w2):
    assert similarity(thesaurus, w1, w2) == MAX_DISTANCE - distance


def test_similarity_symmetric(thesaurus):
    for _, w1, w2 in TIER_PAIRS:
        assert similarity(thesaurus, w1, w2) == similarity(thesaurus, w2, w1)


def test_pair_count_matches_brute_force(thesaurus):
    words = sorted(thesaurus.index)
    for i, w1 in enumerate(words):
        for w2 in words[i:]:
            best, count = brute_force_pair_count(thesaurus, w1, w2)
            result = word_min_distance(thesaurus, w1, w2)
            assert result.min_distance == best
            assert result.pair_count == count
            assert all(thesaurus.reference_distance(a, b) == best
                       for a, b in result.achieving_pairs)


@pytest.mark.parametrize("value,tier", [
    (16, SimilarityTier.HIGH),
    (14, SimilarityTier.INTERMEDIATE),
    (12, SimilarityTier.INTERMEDIATE),
    (10, SimilarityTier.LOW),
    (0, SimilarityTier.LOW),
])
def test_similarity_tier(value, tier):
    assert similarity_tier(value) == tier


def test_similarity_tier_rejects_out_of_range():
    with pytest.raises(ValueError):
        similarity_tier(17)


def test_enumerate_shortest_paths_feline_lynx(thesaurus):
    assert enumerate_shortest_paths(thesaurus, "feline", "lynx") == [
        "feline → cat ← lynx"]


def test_enumerate_shortest_paths_ode_poem(thesaurus):
    paths = enumerate_shortest_paths(thesaurus, "ode", "poem")
    assert len(paths) == 2


def test_enumerate_shortest_paths_self(thesaurus):
    paths = enumerate_shortest_paths(thesaurus, "lynx", "lynx")
    assert len(paths) == len(thesaurus.lookup("lynx"))


def frequent_words_thesaurus():
    """2,000 groups over two classes, with five words of 1,000+ references.

    "alpha" and "beta" sit in random groups of both classes, "gamma" in
    every group of class 1 and "delta" in every group of class 2.
    """
    rng = random.Random(7)
    lines = []
    for c, own in ((1, "gamma"), (2, "delta")):
        lines += ["C %d c" % c, "S 1 s", "U 1 u", "G 1 g"]
        for h in range(1, 11):
            lines.append("H %d h" % (10 * c + h))
            for pos in ("N", "VB"):
                lines.append("P " + pos)
                for q in range(1, 6):
                    lines.append("Q %d" % q)
                    for _ in range(10):
                        words = [w for w in ("alpha", "beta")
                                 if rng.random() < 0.6]
                        lines.append("; " + " | ".join(
                            words + [own, "filler"]))
    return parse_interchange("\n".join(lines) + "\n")


class CountingKeys:
    """Stands in for ``Thesaurus.keys`` and records every read."""

    def __init__(self, keys):
        self.keys, self.reads = keys, 0

    def __getitem__(self, index):
        self.reads += 1
        return self.keys[index]

    def __len__(self):
        return len(self.keys)


def test_word_distance_cost_is_bounded(monkeypatch):
    thesaurus = frequent_words_thesaurus()
    keys = CountingKeys(thesaurus.keys)
    monkeypatch.setattr(thesaurus, "keys", keys)
    distance_calls = []
    monkeypatch.setattr(Thesaurus, "reference_distance",
                        lambda *args: distance_calls.append(args))

    def no_pairs(self, refs1, refs2, distance):
        raise AssertionError("achieving pairs built")
        yield

    monkeypatch.setattr(Thesaurus, "_pairs_within", no_pairs)
    for w1, w2, distance in (("alpha", "beta", 0), ("alpha", "alpha", 0),
                             ("gamma", "delta", 16), ("gamma", "alpha", 0)):
        m, n = len(thesaurus.lookup(w1)), len(thesaurus.lookup(w2))
        assert min(m, n) >= 1000
        keys.reads = 0
        result = word_min_distance(thesaurus, w1, w2)
        assert keys.reads <= m + n
        assert result.min_distance == distance
        assert similarity(thesaurus, w1, w2) == MAX_DISTANCE - distance
        if w1 == w2:
            assert result.pair_count == m
        elif distance == MAX_DISTANCE:
            assert result.pair_count == m * n
    # Distance 0 to all four; "filler" shares every group "alpha" is in.
    question = SynonymQuestion("alpha", ["delta", "beta", "gamma", "filler"],
                               3)
    assert answer_question(thesaurus, question).verdict == "CORRECT"
    assert distance_calls == []


def test_achieving_pairs_of_frequent_words_check_no_reference(monkeypatch):
    # The lists come from ``lookup``, so listing the pairs reads each
    # record's key from its group, with no per-reference ``_key`` check.
    thesaurus = frequent_words_thesaurus()
    key_calls, key = [], Thesaurus._key

    def counted(self, ref):
        key_calls.append(ref)
        return key(self, ref)

    monkeypatch.setattr(Thesaurus, "_key", counted)
    for w1, w2 in (("alpha", "beta"), ("alpha", "alpha"), ("gamma", "alpha")):
        result = word_min_distance(thesaurus, w1, w2)
        key_calls.clear()
        pairs = result.achieving_pairs
        assert key_calls == []
        assert len(pairs) == result.pair_count > 0
        assert {thesaurus.reference_distance(r1, r2)
                for r1, r2 in pairs} == {result.min_distance}


def test_first_reads_of_achieving_pairs_from_two_threads():
    # "a" and "b" have 300 references each, in different classes, so all
    # 90,000 pairs are at distance 16.  A tiny switch interval makes both
    # threads' first reads overlap.
    lines = []
    for c, word in ((1, "a"), (2, "b")):
        lines += ["C %d c" % c, "S 1 s", "U 1 u", "G 1 g", "H %d h" % c,
                  "P N"]
        for q in range(1, 31):
            lines += ["Q %d" % q] + ["; " + word] * 10
    thesaurus = parse_interchange("\n".join(lines) + "\n")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            result = word_min_distance(thesaurus, "a", "b")
            assert result.pair_count == 90_000
            barrier, outcomes = threading.Barrier(2), []

            def read():
                barrier.wait()
                try:
                    outcomes.append(len(result.achieving_pairs))
                except Exception as exc:  # checked in the test's thread
                    outcomes.append(exc)

            threads = [threading.Thread(target=read) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert outcomes == [90_000, 90_000]
    finally:
        sys.setswitchinterval(interval)


def test_first_word_distances_from_several_threads():
    # Eight threads make the first lookups and then the first comparisons
    # of four words of 1,000+ references on a fresh thesaurus, each in its
    # own order and half of them with other spellings, so they fill the
    # per-word caches of records and of keys at once.  A tiny switch
    # interval makes the fills overlap.
    words = ("alpha", "beta", "gamma", "delta")
    pairs = [(w1, w2) for w1 in words for w2 in words]
    serial_thesaurus = frequent_words_thesaurus()
    serial = [(r.min_distance, r.pair_count) for r in (
        word_min_distance(serial_thesaurus, w1, w2) for w1, w2 in pairs)]
    serial_refs = {w: serial_thesaurus.lookup(w) for w in words}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            thesaurus = frequent_words_thesaurus()
            barrier, outcomes, found = threading.Barrier(8), {}, {}

            def compare(turn):
                order = pairs[turn:] + pairs[:turn]
                spellings = list(words[turn % 4:] + words[:turn % 4])
                if turn % 2:
                    order = [(" %s " % w1.upper(), w2.title())
                             for w1, w2 in order]
                    spellings = [" %s " % w.upper() for w in spellings]
                barrier.wait(timeout=60)
                try:
                    found[turn] = {w.strip().lower(): thesaurus.lookup(w)
                                   for w in spellings}
                    results = [word_min_distance(thesaurus, w1, w2)
                               for w1, w2 in order]
                    answers = [(r.min_distance, r.pair_count)
                               for r in results]
                    outcomes[turn] = answers[-turn:] + answers[:-turn]
                except Exception as exc:  # checked in the test's thread
                    outcomes[turn] = exc

            threads = [threading.Thread(target=compare, args=(turn,))
                       for turn in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert outcomes == {turn: serial for turn in range(8)}
            assert sorted(thesaurus._group_keys) == sorted(words)
            # One tuple of records is kept per word, and every thread's
            # first lookup returned its records, equal to the serial ones.
            assert sorted(thesaurus._records) == sorted(words)
            for refs in found.values():
                for word in words:
                    assert refs[word] == serial_refs[word]
                    assert all(a is b for a, b in zip(
                        refs[word], thesaurus._records[word], strict=True))
    finally:
        sys.setswitchinterval(interval)


def test_a_thread_pool_gives_the_serial_answers(thesaurus):
    questions = []
    for name in ("questions_fixture.tsv", "questions_mixed.tsv"):
        with open(data_path(name), encoding="utf-8") as handle:
            questions += load_questions(handle)
    with open(data_path("pairs_fixture.tsv"), encoding="utf-8") as handle:
        scale, pairs = load_pairs(handle)

    def answer(question):
        result = answer_question(thesaurus, question)
        return (result.chosen_index, result.verdict, result.credit,
                [(e.effective_distance, e.pair_count, e.best_pair)
                 for e in result.per_choice])

    def pair(scored):
        result = word_min_distance(thesaurus, scored.word1, scored.word2)
        return (result.min_distance, result.pair_count,
                result.achieving_pairs,
                enumerate_shortest_paths(thesaurus, scored.word1,
                                         scored.word2))

    def bench(_):
        return evaluate_pairs(thesaurus, pairs, scale).tsv_lines()

    jobs = ([(answer, q) for q in questions] + [(pair, p) for p in pairs]
            + [(bench, None)]) * 20
    serial = [job(arg) for job, arg in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(job, arg) for job, arg in jobs]
            assert [f.result(timeout=60) for f in futures] == serial
    finally:
        sys.setswitchinterval(interval)
