"""Word-level semantic distance and similarity over reference sets.

Given two words, the distance is the minimum reference-to-reference edge
count over the Cartesian product of their reference sets, and

    similarity(w1, w2) = 16 - min distance

All parts of speech are considered; there is no word sense
disambiguation.  The number of minimizing reference pairs doubles as the
shortest-path count used by the synonym solver for tie-breaking: in a
tree each reference pair has exactly one path.

``word_min_distance``, the only entry to the word distance, looks each
word up once and hands the two lists ``lookup`` returned to the
thesaurus's private kernel, which reads only those records.  For words
with s and b >= s references the minimum and the pair count cost
O(s log b), not s*b distance computations (up to 6 pairs are measured
one by one).  Past 6 pairs each word's sorted group keys come from a
per-word cache in the thesaurus, filled from its records on its first
such comparison.  Each key of the word with fewer references is
bisected into the other's, and in the same pass each key as near as the
best so far counts its pairs by two more bisects; the minimizing pairs
themselves are built only when ``achieving_pairs`` is read.
"""

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

from .errors import WordNotFoundError
from .taxonomy import MAX_DISTANCE


class SimilarityTier(Enum):
    HIGH = "High"
    INTERMEDIATE = "Intermediate"
    LOW = "Low"


@dataclass
class WordDistanceResult:
    """Minimum distance between two words and the pairs attaining it.

    ``achieving_pairs`` lists the (Reference, Reference) pairs at the
    minimum, ``pair_count`` of them, in document order; it is built when
    first read.  For it the result keeps, in a private tuple taken when
    the result is made, the thesaurus, the two lists ``lookup`` returned
    to ``word_min_distance`` and the minimum distance, so changing
    ``min_distance`` later does not change the pairs.  The pairs are read
    from those lists unchecked, as they hold only the thesaurus's own
    records.  Each build makes its own iterator of the pairs
    from that tuple, so threads that read it first at the same time do
    not share one.
    """

    word1: str
    word2: str
    min_distance: int
    pair_count: int
    _source: tuple = field(repr=False, compare=False)

    @cached_property
    def achieving_pairs(self):
        thesaurus, refs1, refs2, distance = self._source
        return list(thesaurus._pairs_within(refs1, refs2, distance))


def word_min_distance(thesaurus, w1, w2):
    """Minimum distance between two words and the number of pairs at it.

    Achieving pairs are listed in document order of the references, which
    makes reports reproducible.  Raises WordNotFoundError naming every
    missing word; this is the one place an absent word is refused.
    """
    refs1 = thesaurus.lookup(w1)
    refs2 = thesaurus.lookup(w2)
    if not (refs1 and refs2):
        raise WordNotFoundError(
            [w for w, refs in ((w1, refs1), (w2, refs2)) if not refs])
    distance, count = thesaurus._min_distance(refs1, refs2)
    return WordDistanceResult(w1, w2, distance, count,
                              (thesaurus, refs1, refs2, distance))


def similarity(thesaurus, w1, w2):
    """16 minus the minimum distance; 16 iff some group holds both words."""
    return MAX_DISTANCE - word_min_distance(thesaurus, w1, w2).min_distance


def similarity_tier(value):
    """Tier of a similarity score: 16 high, 12-14 intermediate, else low."""
    if not 0 <= value <= MAX_DISTANCE:
        raise ValueError("similarity must be in [0, 16], got %r" % value)
    if value == MAX_DISTANCE:
        return SimilarityTier.HIGH
    if value >= 12:
        return SimilarityTier.INTERMEDIATE
    return SimilarityTier.LOW


def enumerate_shortest_paths(thesaurus, w1, w2):
    """One rendered tree path per minimizing reference pair."""
    result = word_min_distance(thesaurus, w1, w2)
    return [thesaurus.render_path(r1, r2) for r1, r2 in result.achieving_pairs]


def _pair_header(w1, pos1, w2, pos2, distance, count):
    """``ode N. to poem N., length = 2, 2 path(s) of this length``."""
    return "%s %s to %s %s, length = %d, %d path(s) of this length" % (
        w1, pos1.display, w2, pos2.display, distance, count)


def path_headers(thesaurus, w1, w2):
    """Headers in the printed style ``ode N. to poem N., length = 2, ...``.

    Minimizing pairs are grouped by the POS of the two references; one
    header is produced per grouping, each followed by its rendered paths.
    Returns a list of (header, [path, ...]) in document order.
    """
    result = word_min_distance(thesaurus, w1, w2)
    by_pos = {}
    for r1, r2 in result.achieving_pairs:
        by_pos.setdefault((r1.pos, r2.pos), []).append((r1, r2))
    out = []
    for key, pairs in by_pos.items():
        header = _pair_header(w1, key[0], w2, key[1], result.min_distance,
                              len(pairs))
        out.append((header, [thesaurus.render_path(r1, r2) for r1, r2 in pairs]))
    return out
