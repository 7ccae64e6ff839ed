"""Four-choice synonym question solver (TOEFL/ESL/RDWP style).

The choice with the shortest semantic distance to the problem word wins;
the most shortest paths breaks ties.  Phrases that are not indexed as a
whole are decomposed into words, ignoring the stop words "and", "to" and
"be", and the best word stands in for the phrase.  Residual ties score
partial credit: 1/2 for two tied choices, 1/3 for three, 1/4 for four.
"""

from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

from .errors import ParseError, ReportError
from .interchange import ascii_number, data_lines, normalize
from .similarity import WordDistanceResult, word_min_distance
from .taxonomy import PartOfSpeech

STOP_WORDS = frozenset({"and", "to", "be"})
# A question's credit by whether the gold choice is among the tied ones and
# how many are tied (none when no choice is found), so no question makes a
# Fraction of its own.
_CREDITS = {(gold_tied, tied): Fraction(gold_tied, max(tied, 1))
            for gold_tied in (0, 1) for tied in range(5)}


@dataclass
class SynonymQuestion:
    problem: str
    choices: list
    gold_index: int
    source_tag: str = ""

    def __post_init__(self):
        if len(self.choices) != 4:
            raise ValueError("a synonym question needs exactly 4 choices")
        if not 0 <= self.gold_index <= 3:
            raise ValueError("gold_index must be in 0..3")


@dataclass
class ChoiceEvaluation:
    choice_index: int
    choice_text: str
    effective_distance: int | None  # None = not found
    pair_count: int = 0
    contributing_token: str | None = None
    tokens_not_found: list = field(default_factory=list)
    # The contributing token's WordDistanceResult, read for best_pair.
    _result: WordDistanceResult | None = field(default=None, repr=False,
                                               compare=False)

    @property
    def found(self):
        return self.effective_distance is not None

    @property
    def best_pair(self):
        """(problem ref, choice ref) at the effective distance, for display.

        The contributing token's first achieving pair; its pairs are built
        only when this is read.
        """
        if self._result is None:
            return None
        return self._result.achieving_pairs[0]


@dataclass
class QuestionResult:
    question: SynonymQuestion
    chosen_index: int | None  # None = unanswerable
    tie_after_tiebreak: bool
    tied_indices: list
    per_choice: list
    correct: bool
    credit: Fraction

    @property
    def unanswerable(self):
        return self.chosen_index is None

    @property
    def verdict(self):
        if self.unanswerable:
            return "NOT-FOUND"
        if self.tie_after_tiebreak:
            return "TIE"
        return "CORRECT" if self.correct else "INCORRECT"


@dataclass
class TestReport:
    question_count: int
    correct_count: int
    questions_with_ties: int
    score: Fraction
    percent: Decimal
    questions_not_found: int
    other_words_not_found: int
    results: list

    def summary_lines(self):
        return [
            "Correct: %d" % self.correct_count,
            "Questions with ties: %d" % self.questions_with_ties,
            "Score: %s" % format_number(self.score),
            "Percent: %s" % self.percent,
            "Questions not found: %d" % self.questions_not_found,
            "Other words not found: %d" % self.other_words_not_found,
        ]


def format_number(value):
    """Fraction to display form: 63 -> '63', 62+1/3 -> '62.33'."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    quantized = (Decimal(value.numerator) / Decimal(value.denominator)
                 ).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)
    return str(quantized).rstrip("0").rstrip(".")


def tokenize_choice(text):
    """Whitespace-split after normalization, dropping 'and', 'to', 'be'."""
    return [t for t in normalize(text).split() if t not in STOP_WORDS]


def _resolve_phrase(thesaurus, text):
    """Yield (token, references) for ``text``.

    An indexed phrase yields itself, normalized, as its one token;
    otherwise each non-stop-word token is yielded with its references,
    which are empty when the token is not indexed.  A text that is an
    index key is its own normalization and is read without ``normalize``;
    any other is normalized once, here, and looked up and split as its key.
    """
    key = text if text in thesaurus.index else normalize(text)
    refs = thesaurus.lookup(key)
    if refs:
        yield key, refs
        return
    for token in key.split():
        if token not in STOP_WORDS:
            yield token, thesaurus.lookup(token)


def evaluate_choice(thesaurus, problem, choice, choice_index=0):
    """Distance of one choice word or phrase from the problem word.

    A whole-phrase index hit takes precedence; otherwise each remaining
    token is evaluated and the shortest token distance stands in for the
    phrase, with pair counts summed over all tokens achieving it.
    """
    effective, count, contributing, kept, not_found = None, 0, None, None, []
    for token, refs in _resolve_phrase(thesaurus, choice):
        if not refs:
            not_found.append(token)
            continue
        result = word_min_distance(thesaurus, problem, token)
        if effective is None or result.min_distance < effective:
            effective, count, contributing, kept = (
                result.min_distance, result.pair_count, token, result)
        elif result.min_distance == effective:
            count += result.pair_count
    return ChoiceEvaluation(choice_index, choice, effective, count,
                            contributing, not_found, kept)


def answer_question(thesaurus, question):
    """Pick the choice with the shortest distance; most paths breaks ties."""
    if thesaurus.lookup(question.problem):
        per_choice = [evaluate_choice(thesaurus, question.problem, choice, i)
                      for i, choice in enumerate(question.choices)]
    else:
        per_choice = [ChoiceEvaluation(choice_index=i, choice_text=c,
                                       effective_distance=None)
                      for i, c in enumerate(question.choices)]
    best, tied = None, []  # the least (distance, -pairs) found, its choices
    for ev in per_choice:
        if ev.effective_distance is not None:
            rank = (ev.effective_distance, -ev.pair_count)
            if not tied or rank < best:
                best, tied = rank, [ev.choice_index]
            elif rank == best:
                tied.append(ev.choice_index)
    # A tie is never correct; the gold choice among the tied earns its share.
    tie = len(tied) > 1
    return QuestionResult(question=question,
                          chosen_index=tied[0] if tied else None,
                          tie_after_tiebreak=tie,
                          tied_indices=tied if tie else [],
                          per_choice=per_choice,
                          correct=tied == [question.gold_index],
                          credit=_CREDITS[question.gold_index in tied,
                                          len(tied)])


def score_test(thesaurus, questions):
    """Answer every question and aggregate the six report fields.

    Unanswerable questions stay in the denominator.  "Other words not
    found" counts distinct (question, token) not-found events among the
    evaluated choice tokens.
    """
    if not questions:
        raise ReportError("cannot score an empty question list")
    results = [answer_question(thesaurus, q) for q in questions]
    score = sum((r.credit for r in results), Fraction(0))
    n = len(questions)
    percent = (Decimal(100) * Decimal(score.numerator)
               / Decimal(score.denominator) / Decimal(n)
               ).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)
    other_not_found = 0
    for result in results:
        seen = set()
        for ev in result.per_choice:
            seen.update(ev.tokens_not_found)
        other_not_found += len(seen)
    return TestReport(
        question_count=n,
        correct_count=sum(1 for r in results if r.correct),
        questions_with_ties=sum(1 for r in results if r.tie_after_tiebreak),
        score=score,
        percent=percent,
        questions_not_found=sum(1 for r in results if r.unanswerable),
        other_words_not_found=other_not_found,
        results=results,
    )


def _has_noun_reference(thesaurus, text):
    return any(r.pos == PartOfSpeech.NOUN
               for _, refs in _resolve_phrase(thesaurus, text) for r in refs)


def filter_noun_only(thesaurus, questions):
    """Keep questions whose problem and every choice have a noun reading.

    For phrase choices one non-stop-word token with a noun reference is
    enough.
    """
    return [q for q in questions
            if _has_noun_reference(thesaurus, q.problem)
            and all(_has_noun_reference(thesaurus, c) for c in q.choices)]


# The question file's word fields, by column.
_WORD_FIELDS = ("problem", "choice 1", "choice 2", "choice 3", "choice 4")


def load_questions(source):
    """Parse the TSV question format.

    One question per line: problem, four choices, gold index 0-3 and an
    optional source tag, tab-separated; '#' lines are comments.  An empty
    or whitespace-only problem or choice is a ParseError at its field.
    """
    questions = []
    for line_no, line in data_lines(source):
        fields = line.split("\t")
        if len(fields) not in (6, 7):
            raise ParseError(
                "expected 6 or 7 tab-separated fields, got %d" % len(fields),
                line=line_no)
        for column, name in enumerate(_WORD_FIELDS, 1):
            if not fields[column - 1].strip():
                raise ParseError("%s is empty" % name, line=line_no,
                                 column=column)
        try:
            gold = ascii_number(int, fields[5])
        except ValueError:
            raise ParseError("gold index %r is not an integer" % fields[5],
                             line=line_no, column=6)
        try:
            question = SynonymQuestion(
                problem=fields[0].strip(),
                choices=[f.strip() for f in fields[1:5]],
                gold_index=gold,
                source_tag=fields[6].strip() if len(fields) == 7 else "")
        except ValueError as exc:  # the gold index is out of range
            raise ParseError(str(exc), line=line_no, column=6)
        questions.append(question)
    return questions
