"""Noun-pair benchmark evaluation: Pearson correlation against human scores.

The pair file declares its human-score scale in a header line, so the
same format serves the 0-4 judgment lists and 0-10 ones.  Words missing
from the thesaurus are handled by an explicit policy: "skip" drops the
pair from the correlation (with a loud count), "zero" scores it 0.
"""

import math
import statistics
from dataclasses import dataclass

from .errors import CorrelationUndefinedError, ParseError, WordNotFoundError
from .interchange import ascii_number, data_lines
from .similarity import similarity, similarity_tier

POLICY_SKIP = "skip"
POLICY_ZERO = "zero"


@dataclass(frozen=True)
class ScoredPair:
    word1: str
    word2: str
    human_score: float


@dataclass(frozen=True)
class PairScale:
    """The human scores' bounds: finite, with ``high`` above ``low``."""

    low: float
    high: float

    def __post_init__(self):
        if not (math.isfinite(self.low) and math.isfinite(self.high)):
            raise ValueError("scale bounds must be finite, got %r and %r"
                             % (self.low, self.high))
        if self.high <= self.low:
            raise ValueError("scale high must exceed scale low")


@dataclass
class PairRow:
    pair: ScoredPair
    system_similarity: int | None  # None = not found under the skip policy
    tier: str | None


@dataclass
class PairReport:
    rows: list
    correlation: float
    pairs_skipped: int
    policy: str
    scale: PairScale

    def tsv_lines(self):
        out = ["pair\thuman\tsystem\ttier"]
        for row in self.rows:
            system = ("NOT-FOUND" if row.system_similarity is None
                      else "%.3f" % row.system_similarity)
            tier = row.tier or "-"
            out.append("%s – %s\t%.3f\t%s\t%s" % (
                row.pair.word1, row.pair.word2, row.pair.human_score,
                system, tier))
        out.append("Correlation\t1.000\t%.3f\t-" % self.correlation)
        return out


def pearson(xs, ys):
    """Pearson product-moment correlation coefficient."""
    try:
        r = statistics.correlation(xs, ys)
    except statistics.StatisticsError as exc:
        raise CorrelationUndefinedError(str(exc)) from None
    return max(-1.0, min(1.0, r))


def evaluate_pairs(thesaurus, pairs, scale, policy=POLICY_SKIP):
    """Score every pair and correlate system similarity with human scores."""
    if not pairs:
        raise CorrelationUndefinedError("no pairs to evaluate")
    if policy not in (POLICY_SKIP, POLICY_ZERO):
        raise ValueError("unknown policy %r" % policy)
    rows = []
    skipped = 0
    for pair in pairs:
        try:
            value = similarity(thesaurus, pair.word1, pair.word2)
        except WordNotFoundError:
            if policy == POLICY_ZERO:
                rows.append(PairRow(pair=pair, system_similarity=0,
                                    tier=similarity_tier(0).value))
            else:
                skipped += 1
                rows.append(PairRow(pair=pair, system_similarity=None,
                                    tier=None))
            continue
        rows.append(PairRow(pair=pair, system_similarity=value,
                            tier=similarity_tier(value).value))
    humans = [r.pair.human_score for r in rows if r.system_similarity is not None]
    systems = [float(r.system_similarity) for r in rows
               if r.system_similarity is not None]
    if not humans:
        raise CorrelationUndefinedError("every pair was skipped as not found")
    correlation = pearson(humans, systems)
    return PairReport(rows=rows, correlation=correlation,
                      pairs_skipped=skipped, policy=policy, scale=scale)


@dataclass
class OutlierRow:
    pair: ScoredPair
    human_normalized: float  # human score mapped onto the 0-16 scale
    system_similarity: int
    discrepancy: float


def outlier_report(report, threshold=4.0):
    """Rows where system similarity strays far from the human judgment.

    The human score is mapped linearly onto the 0-16 similarity scale and
    rows whose absolute gap meets the threshold are returned, largest
    discrepancy first.  This catches both directions: low human score
    with intermediate-or-high system similarity (e.g. glass - jewel) and
    the reverse (e.g. crane - implement, system similarity 0).
    """
    scale = report.scale
    span = scale.high - scale.low
    out = []
    for row in report.rows:
        if row.system_similarity is None:
            continue
        normalized = (row.pair.human_score - scale.low) / span * 16.0
        gap = abs(normalized - row.system_similarity)
        if gap >= threshold:
            out.append(OutlierRow(pair=row.pair, human_normalized=normalized,
                                  system_similarity=row.system_similarity,
                                  discrepancy=gap))
    out.sort(key=lambda r: -r.discrepancy)
    return out


def load_pairs(source):
    """Parse the TSV pair format.

    First line: ``scale<TAB><min><TAB><max>``, finite bounds with max
    above min; then one ``word1<TAB>word2<TAB>human_score`` row per line,
    each score within the bounds, '#' comments.  Each bound and score is
    read only as ``-?[0-9]+(\\.[0-9]+)?`` (see ``ascii_number``), and an
    empty or whitespace-only word is a ParseError at its field.
    Returns (PairScale, [ScoredPair, ...]).
    """
    scale = None
    pairs = []
    for line_no, line in data_lines(source):
        fields = line.split("\t")
        if scale is None:
            if fields[0] != "scale" or len(fields) != 3:
                raise ParseError(
                    "first data line must be 'scale<TAB>min<TAB>max'",
                    line=line_no)
            bounds = []
            for column, name in ((2, "min"), (3, "max")):
                text = fields[column - 1]
                try:
                    bounds.append(ascii_number(float, text))
                except ValueError:
                    raise ParseError("scale %s %r is not a number"
                                     % (name, text), line=line_no,
                                     column=column)
                # Digits enough to overflow a float read as infinity.
                if not math.isfinite(bounds[-1]):
                    raise ParseError("scale %s %s is not a finite number"
                                     % (name, text), line=line_no,
                                     column=column)
            if bounds[1] <= bounds[0]:
                raise ParseError("scale max must exceed scale min",
                                 line=line_no)
            scale = PairScale(*bounds)
            continue
        if len(fields) != 3:
            raise ParseError(
                "expected 3 tab-separated fields, got %d" % len(fields),
                line=line_no)
        for column in (1, 2):
            if not fields[column - 1].strip():
                raise ParseError("word%d is empty" % column, line=line_no,
                                 column=column)
        try:
            score = ascii_number(float, fields[2])
        except ValueError:
            raise ParseError("human score %r is not a number" % fields[2],
                             line=line_no, column=3)
        if not scale.low <= score <= scale.high:
            raise ParseError(
                "human score %s outside declared scale [%s, %s]"
                % (fields[2], scale.low, scale.high), line=line_no, column=3)
        pairs.append(ScoredPair(word1=fields[0].strip(),
                                word2=fields[1].strip(), human_score=score))
    if scale is None:
        raise ParseError("pair file has no scale header", line=1)
    return scale, pairs
