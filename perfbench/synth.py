"""Seeded synthetic thesaurus and workload inputs at the 1987 edition's scale.

The licensed 1987 Penguin data is not in the repository, so the benchmark
runs on a generated thesaurus of the same shape: 1000 heads, 48k
semicolon groups, 192k references and ~64k distinct entries.  References
per entry follow a Zipf-like tail, capped at ``Shape.cap`` so that no
single word dominates the cost (an uncapped tail reached 15k references
for one word).

Everything here is a pure function of the seed: the same seed gives
byte-identical thesaurus text, pair lists, questions and CLI plans.  The
generator also keeps each semicolon group's ancestor tuple
``(root, class, section, sub-section, head group, head, POS, paragraph,
group)`` in document order, which the oracle uses instead of rogetsim.
"""

import bisect
import itertools
import random
from dataclasses import dataclass, field

from oracle import STOP_WORDS, normalize

POS_TAGS = ("N", "VB", "ADJ", "ADV")
ONSETS = ("b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r",
          "s", "t", "v", "w", "z", "br", "cr", "dr", "gl", "pl", "st", "tr",
          "ch", "sh", "th", "qu", "sp")
VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "ou", "io", "y")
CODAS = ("", "", "", "n", "r", "s", "l", "m", "t", "x", "nd", "rk")
ORDINALS = ("one", "two", "three", "four", "five", "six", "seven", "eight",
            "nine", "ten")


@dataclass(frozen=True)
class Shape:
    """Tree and vocabulary parameters.

    Ranges are inclusive (low, high) counts per parent node; the totals
    from ``heads`` down are spread over the level above.
    """

    classes: int = 8
    sections: tuple = (2, 5)        # per class
    sub_sections: tuple = (2, 4)    # per section
    head_groups: tuple = (2, 5)     # per sub-section
    pos_odds: tuple = (1.0, 0.6, 0.5, 0.3)  # P(POS block) per POS_TAGS
    heads: int = 1000
    paragraphs: int = 12000
    groups: int = 48000
    references: int = 192000
    zipf_scale: float = 21500.0     # refs(rank) = 1 + scale / rank, capped
    cap: int = 220                  # most references any entry may have
    phrase_share: float = 0.1       # entries that are two-token phrases
    capital_share: float = 0.03     # entries printed with a capital letter
    pairs: int = 50000
    questions: int = 200
    cli_calls: int = 4


FULL = Shape()
TINY = Shape(classes=3, sections=(1, 2), sub_sections=(1, 2),
             head_groups=(1, 1), heads=12, paragraphs=60, groups=110,
             references=280, zipf_scale=12.0, cap=8, pairs=300,
             questions=60)


@dataclass
class Model:
    """A generated thesaurus: document text plus the generator's own tables."""

    shape: Shape
    text: str
    ancestors: list          # group index -> 9 node ids, root first
    group_pos: list          # group index -> POS tag
    group_entries: list      # group index -> entry texts as printed
    index: dict              # normalized entry -> group indices, document order
    keys: list               # normalized entries by frequency rank
    weights: list            # references per key, same order as keys
    sizes: dict = field(default_factory=dict)


class _Words:
    """Distinct pronounceable tokens drawn from one RNG."""

    def __init__(self, rng):
        self.rng = rng
        self.used = set(STOP_WORDS)

    def token(self):
        rng = self.rng
        while True:
            word = "".join(rng.choice(ONSETS) + rng.choice(VOWELS)
                           for _ in range(rng.randint(1, 3)))
            word += rng.choice(CODAS)
            if len(word) >= 4 and word not in self.used:
                self.used.add(word)
                return word

    def label(self):
        return self.token().capitalize()


def _span(rng, bounds):
    return rng.randint(bounds[0], bounds[1])


def _spread(rng, total, bins):
    """Split ``total`` items over ``bins`` at random, at least one per bin."""
    if total < bins:
        raise ValueError("cannot spread %d items over %d bins" % (total, bins))
    counts = [1] * bins
    for _ in range(total - bins):
        counts[rng.randrange(bins)] += 1
    return counts


def _reference_counts(shape):
    """Zipf-like references per entry, capped, summing to shape.references."""
    counts = []
    remaining = shape.references
    rank = 1
    while remaining > 0:
        k = min(shape.cap, 1 + int(shape.zipf_scale / rank), remaining)
        counts.append(k)
        remaining -= k
        rank += 1
    return counts


def generate(seed, shape=FULL):
    """Build the thesaurus for ``seed``; see the module docstring."""
    rng = random.Random(seed)
    words = _Words(rng)

    # Upper levels are drawn freely; heads, paragraphs, groups and
    # references have fixed totals spread at random over the level above,
    # so that the thesaurus size, and with it the load time, is the same
    # for every seed.
    skeleton = []         # one (class, section, sub-section, group) per head group
    for c in range(1, shape.classes + 1):
        for s in range(1, _span(rng, shape.sections) + 1):
            for u in range(1, _span(rng, shape.sub_sections) + 1):
                for g in range(1, _span(rng, shape.head_groups) + 1):
                    skeleton.append((c, s, u, g))
    heads_in = _spread(rng, shape.heads, len(skeleton))
    blocks = [[tag for tag, odds in zip(POS_TAGS, shape.pos_odds)
               if rng.random() < odds] for _ in range(shape.heads)]
    paragraphs_in = iter(_spread(rng, shape.paragraphs,
                                 sum(len(tags) for tags in blocks)))
    groups_in = iter(_spread(rng, shape.groups, shape.paragraphs))
    group_sizes = _spread(rng, shape.references, shape.groups)

    # Document order.  Node ids follow the parser's numbering (one id per
    # record, root = 0), so the ancestor tuples are rogetsim's ids too.
    records = []          # (keyword, payload) or (";", group index)
    ancestors, group_pos = [], []
    level_counts = [1] + [0] * 8
    chain = [0] * 9
    head_tags = iter(blocks)
    head_number = 0

    def node(keyword, payload, level):
        records.append((keyword, payload))
        level_counts[level] += 1
        chain[level] = sum(level_counts) - 1

    previous = (0, 0, 0)
    for (c, s, u, g), heads in zip(skeleton, heads_in):
        if c != previous[0]:
            node("C", "%d Class %s : %s" % (c, ORDINALS[(c - 1) % 10],
                                            words.label()), 1)
        if (c, s) != previous[:2]:
            node("S", "%d %s" % (s, words.label()), 2)
        if (c, s, u) != previous:
            node("U", "%d %s" % (u, words.label()), 3)
        previous = (c, s, u)
        node("G", "%d [%d]" % (g, head_number + 1), 4)
        for _ in range(heads):
            head_number += 1
            node("H", "%d %s" % (head_number, words.label()), 5)
            for tag in next(head_tags):
                node("P", tag, 6)
                for q in range(1, next(paragraphs_in) + 1):
                    node("Q", str(q), 7)
                    for _ in range(next(groups_in)):
                        chain[8] = sum(level_counts)
                        records.append((";", len(ancestors)))
                        level_counts[8] += 1
                        ancestors.append(tuple(chain))
                        group_pos.append(tag)

    # Vocabulary: entry rank r gets counts[r] references.  Counts and
    # which ranks are phrases do not depend on the seed (see question_list).
    total = shape.references
    counts = _reference_counts(shape)
    kinds = random.Random("entry-kinds")
    keys, printed = [], []
    for _ in counts:
        if kinds.random() < shape.phrase_share:
            key = "%s %s" % (words.token(), words.token())
        else:
            key = words.token()
        keys.append(key)
        printed.append(key.capitalize() if rng.random() < shape.capital_share
                       else key)

    # Deal the reference slots out to groups, moving a repeated entry to a
    # later slot so that an entry rarely appears twice in one group.
    slots = [rank for rank, k in enumerate(counts) for _ in range(k)]
    rng.shuffle(slots)
    group_entries, index = [], {}
    start = 0
    for g, size in enumerate(group_sizes):
        end = start + size
        seen = set()
        for i in range(start, end):
            tries = 0
            while slots[i] in seen and end < total and tries < 8:
                j = rng.randrange(end, total)
                slots[i], slots[j] = slots[j], slots[i]
                tries += 1
            seen.add(slots[i])
        members = slots[start:end]
        group_entries.append([printed[r] for r in members])
        for r in members:
            index.setdefault(keys[r], []).append(g)
        start = end

    lines = ["# Synthetic Roget-style thesaurus, seed %d" % seed]
    for keyword, payload in records:
        if keyword == ";":
            lines.append("; " + " | ".join(group_entries[payload]))
        else:
            lines.append("%s %s" % (keyword, payload))
    text = "\n".join(lines) + "\n"

    sizes = {
        "nodes_per_level": dict(zip(
            ("root", "class", "section", "sub_section", "head_group", "head",
             "pos_paragraph", "paragraph", "semicolon_group"), level_counts)),
        "references": total,
        "distinct_entries": len(keys),
        "phrase_entries": sum(1 for k in keys if " " in k),
        "top_entry_references": counts[0],
        "reference_cap": shape.cap,
        "entries_with_1_to_3_references": sum(1 for k in counts if k <= 3),
        "text_bytes": len(text.encode("utf-8")),
    }
    return Model(shape=shape, text=text, ancestors=ancestors,
                 group_pos=group_pos, group_entries=group_entries, index=index,
                 keys=keys, weights=counts, sizes=sizes)


def _absent_word(rng, model):
    while True:
        word = "".join(rng.choice(ONSETS) + rng.choice(VOWELS)
                       for _ in range(rng.randint(2, 3))) + "q"
        if word not in model.index:
            return word


def _variant(rng, text):
    """Same index key, different spelling: case or whitespace."""
    kind = rng.randrange(3)
    if kind == 0:
        return text.upper()
    if kind == 1:
        return "  %s " % text.title()
    return "\t" + text.replace(" ", "   ") + "  "


def pair_list(model, seed):
    """``Shape.pairs`` word pairs, each word uniform over distinct entries.

    About 5% of words are absent and about 5% are case or whitespace
    variants of an indexed entry.  Which frequency ranks are drawn comes
    from a fixed stream (see ``question_list``); the seed picks the words.
    """
    mix = random.Random("pair-mix")
    rng = random.Random("pairs-%d" % seed)
    keys = model.keys

    def draw():
        roll, rank = mix.random(), mix.randrange(len(keys))
        if roll < 0.05:
            return _absent_word(rng, model)
        return _variant(rng, keys[rank]) if roll < 0.10 else keys[rank]

    return [(draw(), draw()) for _ in range(model.shape.pairs)]


def question_list(model, seed):
    """Four-choice synonym questions weighted by reference frequency.

    The problem word and three choices are drawn by reference frequency;
    the fourth, the gold answer, is the problem word's rarest mate over
    all of its semicolon groups (or, failing that, in the paragraph of
    its first group).  About
    15% of choices are phrases that are not indexed as a whole, so the
    solver falls back to their tokens; a few tokens and problem words are
    absent.

    A question's cost grows with the product of its words' reference
    counts, so a few pairs of capped words decide the timings.  The
    frequency ranks, phrase templates and absences therefore come from a
    fixed stream, the same for every seed (the reference count of every
    rank is fixed by the shape); the seed picks the thesaurus and so the
    words at those ranks, the planted answers and the choice order.  The
    planted answer is the rarest mate over all groups, not in one group
    drawn by the seed, so that its reference count, too, hardly depends
    on the seed.
    """
    mix = random.Random("question-mix")
    rng = random.Random("questions-%d" % seed)
    keys = model.keys
    cum = list(itertools.accumulate(model.weights))
    single = [r for r, k in enumerate(keys) if " " not in k]
    single_cum = list(itertools.accumulate(model.weights[r] for r in single))
    by_paragraph = {}
    for g, chain in enumerate(model.ancestors):
        by_paragraph.setdefault(chain[7], []).append(g)
    refs = {k: w for k, w in zip(keys, model.weights)}

    def frequent(source):
        return keys[bisect.bisect_right(cum, source.random() * cum[-1])]

    def token(source):
        u = source.random() * single_cum[-1]
        return keys[single[bisect.bisect_right(single_cum, u)]]

    def phrase(source):
        first = _absent_word(rng, model) if source.random() < 0.05 else token(source)
        template = source.randrange(3)
        if template == 0:
            return "%s and %s" % (first, token(source))
        if template == 1:
            return "to %s" % first
        return "be %s %s" % (first, token(source))

    questions = []
    for _ in range(model.shape.questions):
        problem = frequent(mix)
        if mix.random() < 0.02:
            problem = _absent_word(rng, model)
            planted = frequent(mix)
        else:
            groups = model.index[problem]
            mates = [e for g in groups for e in model.group_entries[g]
                     if normalize(e) != problem]
            if not mates:
                for g in by_paragraph[model.ancestors[groups[0]][7]]:
                    mates.extend(e for e in model.group_entries[g]
                                 if normalize(e) != problem)
            planted = (min(mates, key=lambda e: refs[normalize(e)]) if mates
                       else frequent(rng))
        choices = [planted]
        taken = {normalize(problem), normalize(planted)}
        for _ in range(3):
            is_phrase = mix.random() < 0.2
            candidate = phrase(mix) if is_phrase else frequent(mix)
            # Collisions depend on the seed's words: redraw from its stream.
            while normalize(candidate) in taken or normalize(candidate) in (
                    model.index if is_phrase else ()):
                candidate = phrase(rng) if is_phrase else frequent(rng)
            taken.add(normalize(candidate))
            choices.append(candidate)
        rng.shuffle(choices)
        questions.append((problem, choices, choices.index(planted)))
    return questions


def cli_plan(model, seed):
    """Cold CLI calls on low-frequency single words.

    The plan cycles ``sim``, ``distance``, ``paths`` and a ``sim`` whose
    second word is absent (expected exit code 1); the benchmark runs it
    in whole passes.
    """
    rng = random.Random("cli-%d" % seed)
    rare = [k for k, w in zip(model.keys, model.weights)
            if w <= 3 and " " not in k]
    plan = []
    for i in range(model.shape.cli_calls):
        command = ("sim", "distance", "paths", "sim")[i % 4]
        w1, w2 = rng.choice(rare), rng.choice(rare)
        if i % 4 == 3:
            w2 = _absent_word(rng, model)
        plan.append((command, w1, w2))
    return plan
