"""Synonym question solving, tie-breaking and scoring."""

import io
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rogetsim import (ParseError, ReportError, SynonymQuestion,
                      answer_question, evaluate_choice, filter_noun_only,
                      load, load_questions, score_test, solver, taxonomy,
                      tokenize_choice)
from rogetsim.cli import main
from tests.conftest import FIXTURE_PATH

ODE = SynonymQuestion("ode", ["heavy debt", "poem", "sweet smell", "surprise"],
                      gold_index=1, source_tag="rdwp-938")


@pytest.mark.parametrize("text,tokens", [
    ("rise and fall", ["rise", "fall"]),
    ("to urge", ["urge"]),
    ("be joyous", ["joyous"]),
    ("and to be", []),
    ("  Heavy   Debt ", ["heavy", "debt"]),
])
def test_tokenize_choice(text, tokens):
    assert tokenize_choice(text) == tokens


def test_evaluate_phrase_falls_back_to_best_token(thesaurus):
    evaluation = evaluate_choice(thesaurus, "ode", "heavy debt")
    assert evaluation.effective_distance == 12
    assert evaluation.contributing_token == "heavy"
    assert evaluation.tokens_not_found == []


def test_tied_tokens_add_their_pair_counts(thesaurus):
    # "poetry" (1 pair) and "poem" (2 pairs) are both 2 from "ode"; the
    # first stands for the phrase, with 3 paths, which beats "poem"'s 2.
    evaluation = evaluate_choice(thesaurus, "ode", "poetry and poem")
    assert (evaluation.effective_distance, evaluation.pair_count,
            evaluation.contributing_token) == (2, 3, "poetry")
    result = answer_question(thesaurus, SynonymQuestion(
        "ode", ["poem", "poetry and poem", "heavy", "surprise"], 1))
    assert (result.chosen_index, result.verdict, result.credit) == (
        1, "CORRECT", 1)


def test_evaluate_whole_phrase_hit_takes_precedence(thesaurus):
    evaluation = evaluate_choice(thesaurus, "ode", "sweet smell")
    assert evaluation.effective_distance == 16
    assert evaluation.contributing_token == "sweet smell"


def test_evaluate_all_stop_words(thesaurus):
    evaluation = evaluate_choice(thesaurus, "feline", "and to be")
    assert not evaluation.found
    assert evaluation.tokens_not_found == []


def test_evaluate_unknown_tokens_recorded(thesaurus):
    evaluation = evaluate_choice(thesaurus, "feline", "zzzz qqqq")
    assert not evaluation.found
    assert evaluation.tokens_not_found == ["zzzz", "qqqq"]


def test_ode_question(thesaurus):
    result = answer_question(thesaurus, ODE)
    distances = [ev.effective_distance for ev in result.per_choice]
    assert distances == [12, 2, 16, 12]
    assert result.chosen_index == 1
    assert result.correct
    assert result.credit == 1
    assert result.verdict == "CORRECT"


def test_a_warm_question_normalizes_only_a_text_that_is_not_a_key(
        monkeypatch):
    thesaurus = load(FIXTURE_PATH)
    question = SynonymQuestion("ode", ["heavy", " Poem", "sweet smell",
                                       "surprise"], 1)
    cold = answer_question(thesaurus, question)
    seen = []
    for module in (taxonomy, solver):
        monkeypatch.setattr(module, "normalize",
                            lambda text, fold=module.normalize:
                            seen.append(text) or fold(text))
    warm = answer_question(thesaurus, question)
    # The problem word and the choices that are index keys are read as
    # themselves; " Poem" is normalized once, by the solver.
    assert seen == [" Poem"]
    assert warm == cold
    assert [(ev.effective_distance, ev.pair_count, ev.contributing_token)
            for ev in warm.per_choice] == [
        (12, 2, "heavy"), (2, 2, "poem"), (16, 2, "sweet smell"),
        (12, 4, "surprise")]
    assert (warm.chosen_index, warm.verdict, warm.credit) == (1, "CORRECT", 1)


def test_unanswerable_question(thesaurus):
    result = answer_question(
        thesaurus, SynonymQuestion("zzzz", ["cat", "eye", "monk", "debt"], 0))
    assert result.unanswerable
    assert result.credit == 0
    assert result.verdict == "NOT-FOUND"


@pytest.mark.parametrize("choices,gold,credit", [
    (["devotion", "fondness", "nag", "terminus"], 0, Fraction(1, 2)),
    (["devotion", "fondness", "darling", "nag"], 1, Fraction(1, 3)),
    (["devotion", "abnormal affection", "fondness", "darling"], 3,
     Fraction(1, 4)),
])
def test_tie_partial_credit(thesaurus, choices, gold, credit):
    result = answer_question(thesaurus, SynonymQuestion("love", choices, gold))
    assert result.tie_after_tiebreak
    assert result.credit == credit
    assert result.verdict == "TIE"


def test_tie_without_gold_scores_zero(thesaurus):
    result = answer_question(
        thesaurus,
        SynonymQuestion("love", ["devotion", "fondness", "nag", "terminus"], 3))
    assert result.tie_after_tiebreak
    assert result.credit == 0


def test_path_count_breaks_tie(thesaurus):
    # From ode, both "surprise" and "heavy" sit at distance 12, but
    # surprise has 4 minimizing pairs vs heavy's 2.
    result = answer_question(
        thesaurus, SynonymQuestion("ode", ["heavy", "surprise", "nag", "debt"], 1))
    assert not result.tie_after_tiebreak
    assert result.chosen_index == 1


def test_choice_permutation_invariance(thesaurus):
    rng = random.Random(5)
    base = ODE
    baseline = answer_question(thesaurus, base)
    for _ in range(10):
        order = list(range(4))
        rng.shuffle(order)
        permuted = SynonymQuestion(base.problem,
                                   [base.choices[i] for i in order],
                                   gold_index=order.index(base.gold_index))
        result = answer_question(thesaurus, permuted)
        assert result.correct == baseline.correct
        assert result.credit == baseline.credit


# Texts in no group of the fixture, and tokens for phrases that are not
# indexed as a whole: each of a phrase's tokens is a key, a stop word or an
# absent word.
ABSENT = ["zzzz", "qqqq xxxx", "and to be"]
TOKENS = ["heavy", "debt", "poem", "poetry", "cat", "eye", "love", "nag",
          "surprise", "and", "to", "be", "zzzz"]


@st.composite
def question_texts(draw, keys):
    """An index key, a phrase of TOKENS in any case or an absent text."""
    kind = draw(st.sampled_from(["key", "phrase", "absent"]))
    if kind == "key":
        return draw(st.sampled_from(keys))
    if kind == "absent":
        return draw(st.sampled_from(ABSENT))
    words = draw(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=3))
    return draw(st.sampled_from([str.lower, str.title, str.upper]))(
        " ".join(words))


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_the_answer_is_the_least_distance_then_the_most_pairs(thesaurus,
                                                              data):
    keys = sorted(thesaurus.index)
    texts = question_texts(keys)
    question = SynonymQuestion(data.draw(texts),
                               [data.draw(texts) for _ in range(4)],
                               data.draw(st.integers(0, 3)))
    result = answer_question(thesaurus, question)
    per_choice = result.per_choice
    if thesaurus.lookup(question.problem):
        assert per_choice == [
            evaluate_choice(thesaurus, question.problem, choice, i)
            for i, choice in enumerate(question.choices)]
        # An index key is always found, so a question with one has an answer.
        assert all(ev.found for ev, choice in zip(per_choice, question.choices)
                   if choice in keys)
    else:
        assert not any(ev.found for ev in per_choice)
    found = [ev for ev in per_choice if ev.found]
    if not found:
        assert (result.chosen_index, result.tied_indices,
                result.tie_after_tiebreak, result.correct, result.credit) == (
                    None, [], False, False, 0)
        return
    # Least distance first, then most pairs; ties in choice order.
    least = min(ev.effective_distance for ev in found)
    most = max(ev.pair_count for ev in found
               if ev.effective_distance == least)
    tied = [ev.choice_index for ev in found
            if (ev.effective_distance, ev.pair_count) == (least, most)]
    assert tied == sorted(tied) and [ev.choice_index for ev in per_choice] == [
        0, 1, 2, 3]
    tie = len(tied) > 1
    assert result.chosen_index == tied[0]
    assert result.tie_after_tiebreak == tie
    assert result.tied_indices == (tied if tie else [])
    assert result.correct == (not tie and tied[0] == question.gold_index)
    assert result.credit == Fraction(question.gold_index in tied, len(tied))


def test_score_test(thesaurus):
    questions = [
        ODE,
        SynonymQuestion("love", ["devotion", "fondness", "nag", "terminus"], 0),
        SynonymQuestion("zzzz", ["cat", "eye", "monk", "debt"], 0),
        SynonymQuestion("feline", ["lynx", "debt", "monk", "inspired"], 0),
    ]
    report = score_test(thesaurus, questions)
    assert report.question_count == 4
    assert report.correct_count == 2
    assert report.questions_with_ties == 1
    assert report.score == Fraction(5, 2)
    assert report.percent == Decimal("62.50")
    assert report.questions_not_found == 1
    assert report.other_words_not_found == 0


def test_score_counts_other_words_not_found(thesaurus):
    question = SynonymQuestion("feline", ["lynx", "zzzz qqqq", "zzzz", "monk"],
                               0)
    report = score_test(thesaurus, [question])
    # distinct (question, token) events: zzzz and qqqq counted once each
    assert report.other_words_not_found == 2


def test_score_empty_list_raises(thesaurus):
    with pytest.raises(ReportError):
        score_test(thesaurus, [])


def test_single_correct_question_report(thesaurus):
    report = score_test(thesaurus, [ODE])
    assert report.correct_count == 1
    assert report.score == 1
    assert report.percent == Decimal("100.00")


def test_filter_noun_only_keeps_ode(thesaurus):
    assert filter_noun_only(thesaurus, [ODE]) == [ODE]


def test_filter_noun_only_drops_adjective_gold(thesaurus):
    question = SynonymQuestion("feline", ["inspired", "lynx", "monk", "debt"], 0)
    assert filter_noun_only(thesaurus, [question]) == []
    assert filter_noun_only(thesaurus, []) == []


def test_load_questions_roundtrip():
    text = ("# comment\n"
            "ode\theavy debt\tpoem\tsweet smell\tsurprise\t1\trdwp-938\n"
            "feline\tlynx\tdebt\tmonk\tinspired\t0\n")
    questions = load_questions(text)
    assert len(questions) == 2
    assert questions[0].source_tag == "rdwp-938"
    assert questions[1].choices == ["lynx", "debt", "monk", "inspired"]


def test_a_question_needs_four_choices():
    with pytest.raises(ValueError, match="needs exactly 4 choices$"):
        SynonymQuestion("ode", ["poem", "debt", "surprise"], 0)


@pytest.mark.parametrize("line", [
    "ode\tpoem\t1",
    "ode\ta\tb\tc\td\tfive",
    "ode\ta\tb\tc\td\t7",
])
def test_load_questions_rejects_malformed(line):
    with pytest.raises(ParseError):
        load_questions(line + "\n")


@pytest.mark.parametrize("line, message", [
    ("ode\t\tpoem\tsweet smell\tsurprise\t1",
     "line 2, column 2: choice 1 is empty"),
    (" \tpoem\ta\tb\tc\t0", "line 2, column 1: problem is empty"),
    ("ode\tpoem\ta\t \t\tc\t0", "line 2, column 4: choice 3 is empty"),
    ("ode\tpoem\ta\tb\t\u3000\tfive", "line 2, column 5: choice 4 is empty"),
    ("ode\ta\tb\tc\td\tx",
     "line 2, column 6: gold index 'x' is not an integer"),
    ("ode\ta\tb\tc\td\t5", "line 2, column 6: gold_index must be in 0..3"),
    ("ode\ta\tb\tc\td\t-1", "line 2, column 6: gold_index must be in 0..3"),
])
def test_load_questions_reports_a_bad_field_at_its_column(line, message,
                                                          tmp_path):
    # An empty choice was never found, yet counted among no words not found;
    # an empty problem read as not found.  A bad gold index is named at its
    # own column, whether it is not an integer or out of range.
    text = "ode\tpoem\ta\tb\tc\t0\n%s\n" % line
    with pytest.raises(ParseError) as caught:
        load_questions(text)
    assert str(caught.value) == message
    path = tmp_path / "questions.tsv"
    path.write_text(text, encoding="utf-8")
    err = io.StringIO()
    assert main(["--thesaurus", FIXTURE_PATH, "solve", str(path)],
                out=io.StringIO(), err=err) == 2
    assert message in err.getvalue()


def test_load_questions_rejects_a_stream_that_cannot_be_decoded():
    data = b"ode\tpoem\ta\tb\tc\t1\nca\xe9\n"
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") as text:
        with pytest.raises(ParseError, match="^byte 0xe9 is not utf-8$"):
            load_questions(text)


@pytest.mark.parametrize("separator", ["\u2028", "\x0c", "\x85"])
def test_load_questions_string_splits_like_stream(separator):
    text = ("ode\theavy%sdebt\tpoem\tsweet smell\tsurprise\t1\r\n"
            "feline\tlynx\tdebt\tmonk\tinspired\t0\r" % separator)
    questions = load_questions(text)
    assert questions == load_questions(io.StringIO(text, newline=None))
    assert questions[0].choices[0] == "heavy%sdebt" % separator
    assert len(questions) == 2
