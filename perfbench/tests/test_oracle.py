"""The oracle agrees with rogetsim on the fixture and on generated data."""

import random

import pytest

import rogetsim
import synth
from conftest import FIXTURE
from oracle import Oracle


@pytest.fixture(scope="module")
def fixture_pair():
    with open(FIXTURE, encoding="utf-8") as handle:
        text = handle.read()
    return Oracle.from_interchange(text), rogetsim.parse_interchange(text)


@pytest.fixture(scope="module")
def generated():
    model = synth.generate(21, synth.TINY)
    return model, Oracle.from_model(model), rogetsim.parse_interchange(model.text)


def test_fixture_word_distances(fixture_pair):
    oracle, thesaurus = fixture_pair
    words = sorted(thesaurus.index)
    for w1 in words:
        for w2 in words:
            result = rogetsim.word_min_distance(thesaurus, w1, w2)
            assert oracle.word_distance(w1, w2) == (result.min_distance,
                                                   result.pair_count)
    assert oracle.word_distance("feline", "no such word") is None


def test_fixture_path_headers(fixture_pair):
    oracle, thesaurus = fixture_pair
    for w1, w2 in [("feline", "lynx"), ("ode", "poem"), ("nag", "lonely")]:
        expected = [h for h, _ in rogetsim.path_headers(thesaurus, w1, w2)]
        assert oracle.path_headers(w1, w2) == expected


def test_model_and_text_give_the_same_oracle(generated):
    model, oracle, _ = generated
    parsed = Oracle.from_interchange(model.text)
    assert parsed.ancestors == oracle.ancestors
    assert parsed.group_pos == oracle.group_pos
    assert parsed.index == oracle.index


def test_level_counts_match_brute_force(generated):
    model, oracle, _ = generated
    rng = random.Random(1)
    for _ in range(500):
        w1, w2 = rng.choice(model.keys), rng.choice(model.keys)
        distances = [oracle.group_distance(g1, g2)
                     for g1 in oracle.groups(w1) for g2 in oracle.groups(w2)]
        best = min(distances)
        assert oracle.word_distance(w1, w2) == (best, distances.count(best))


def test_generated_pairs_and_questions(generated):
    model, oracle, thesaurus = generated
    for w1, w2 in synth.pair_list(model, 21):
        expected = oracle.word_distance(w1, w2)
        if expected is None:
            with pytest.raises(rogetsim.WordNotFoundError):
                rogetsim.similarity(thesaurus, w1, w2)
        else:
            assert rogetsim.similarity(thesaurus, w1, w2) == 16 - expected[0]
    for problem, choices, gold in synth.question_list(model, 21):
        result = rogetsim.answer_question(
            thesaurus, rogetsim.SynonymQuestion(problem, choices, gold))
        chosen, verdict, per_choice = oracle.answer(problem, choices, gold)
        assert (result.chosen_index, result.verdict) == (chosen, verdict)
        assert [(e.effective_distance, e.pair_count)
                for e in result.per_choice] == per_choice
