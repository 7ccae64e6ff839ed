"""Expected results computed without rogetsim.

The oracle works from ancestor tuples: every semicolon group carries the
nine node ids from the root down to itself, so the distance between two
references is ``2 * (8 - deepest shared level)``.  Word distances use a
level-by-level count instead of the m*n reference loop: going up from
level 8, the first level where the two words' ancestor counts share a
node gives the distance, and the sum of ``c1 * c2`` over the shared nodes
is the number of minimizing reference pairs.

The solver rules (whole-phrase lookup first, then tokens without "and",
"to" and "be"; shortest distance wins, most minimizing pairs breaks ties)
are restated here from the README so that the benchmark can check
``answer_question`` result by result.
"""

from collections import Counter
from functools import lru_cache

LEAF = 8
MAX_DISTANCE = 16
STOP_WORDS = frozenset({"and", "to", "be"})
POS_DISPLAY = {"N": "N.", "VB": "VB.", "ADJ": "ADJ.", "ADV": "ADV."}


def normalize(text):
    return " ".join(text.split()).lower()


def tier(similarity):
    if similarity == MAX_DISTANCE:
        return "High"
    return "Intermediate" if similarity >= 12 else "Low"


class Oracle:
    def __init__(self, ancestors, group_pos, index):
        self.ancestors = ancestors    # group -> 9 node ids, root first
        self.group_pos = group_pos    # group -> POS tag
        self.index = index            # normalized entry -> groups, document order
        self._levels = lru_cache(maxsize=8192)(self._level_counts)

    @classmethod
    def from_model(cls, model):
        return cls(model.ancestors, model.group_pos, model.index)

    @classmethod
    def from_interchange(cls, text):
        """Read ancestor tuples straight from interchange text."""
        chain = [0] * (LEAF + 1)
        levels = {k: i + 1 for i, k in enumerate("CSUGHPQ;")}
        ancestors, group_pos, index = [], [], {}
        pos = None
        next_id = 1
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            keyword, _, payload = line.partition(" ")
            level = levels[keyword]
            chain[level] = next_id
            next_id += 1
            if keyword == "P":
                pos = payload.strip()
            elif keyword == ";":
                group = len(ancestors)
                ancestors.append(tuple(chain))
                group_pos.append(pos)
                for entry in payload.split("|"):
                    index.setdefault(normalize(entry), []).append(group)
        return cls(ancestors, group_pos, index)

    def groups(self, word):
        return self.index.get(normalize(word), ())

    def _level_counts(self, key):
        groups = self.index[key]
        return [Counter(self.ancestors[g][level] for g in groups)
                for level in range(LEAF + 1)]

    def word_distance(self, w1, w2):
        """(min distance, minimizing pair count), or None if a word is absent."""
        k1, k2 = normalize(w1), normalize(w2)
        if k1 not in self.index or k2 not in self.index:
            return None
        c1, c2 = self._levels(k1), self._levels(k2)
        for level in range(LEAF, -1, -1):
            shared = c1[level].keys() & c2[level].keys()
            if shared:
                return (2 * (LEAF - level),
                        sum(c1[level][n] * c2[level][n] for n in shared))
        raise AssertionError("groups without a common root")

    def group_distance(self, g1, g2):
        a1, a2 = self.ancestors[g1], self.ancestors[g2]
        level = LEAF
        while a1[level] != a2[level]:
            level -= 1
        return 2 * (LEAF - level)

    def path_headers(self, w1, w2):
        """``roget paths`` headers: minimizing pairs grouped by POS pair.

        Walks the reference pairs in document order, so it is meant for
        the low-frequency words of the CLI plan.
        """
        best = self.word_distance(w1, w2)
        if best is None:
            return None
        distance = best[0]
        counts = {}
        for g1 in self.groups(w1):
            for g2 in self.groups(w2):
                if self.group_distance(g1, g2) == distance:
                    key = (self.group_pos[g1], self.group_pos[g2])
                    counts[key] = counts.get(key, 0) + 1
        return ["%s %s to %s %s, length = %d, %d path(s) of this length"
                % (w1, POS_DISPLAY[p1], w2, POS_DISPLAY[p2], distance, n)
                for (p1, p2), n in counts.items()]

    def choice(self, problem, choice):
        """(effective distance or None, pair count) for one choice."""
        if normalize(choice) in self.index:
            return self.word_distance(problem, choice)
        best, pairs = None, 0
        for token in normalize(choice).split():
            if token in STOP_WORDS or token not in self.index:
                continue
            distance, count = self.word_distance(problem, token)
            if best is None or distance < best:
                best, pairs = distance, count
            elif distance == best:
                pairs += count
        return (best, pairs) if best is not None else (None, 0)

    def answer(self, problem, choices, gold):
        """(chosen index or None, verdict, per-choice (distance, pairs))."""
        if normalize(problem) not in self.index:
            return None, "NOT-FOUND", [(None, 0)] * len(choices)
        per_choice = [self.choice(problem, c) for c in choices]
        found = [(d, n, i) for i, (d, n) in enumerate(per_choice) if d is not None]
        if not found:
            return None, "NOT-FOUND", per_choice
        best = min(d for d, _, _ in found)
        most = max(n for d, n, _ in found if d == best)
        tied = [i for d, n, i in found if d == best and n == most]
        if len(tied) > 1:
            return tied[0], "TIE", per_choice
        return tied[0], "CORRECT" if tied[0] == gold else "INCORRECT", per_choice
