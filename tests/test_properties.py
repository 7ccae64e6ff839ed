"""Property tests on small generated thesauri."""

import bisect
import dataclasses
import io
import random
import unicodedata
from functools import partial
from operator import attrgetter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rogetsim import (MAX_DISTANCE, GutenbergImportError, InvalidNodeError,
                      Level, ParseError, PartOfSpeech, Reference, RogetError,
                      TaxonomyNode, Thesaurus, evaluate_choice,
                      import_gutenberg_1911, interchange, load_pairs,
                      load_questions, parse_interchange, normalize, serialize,
                      structure_signature, taxonomy, validate_structure,
                      word_min_distance)
from tests.conftest import data_path
from tests.test_interchange import MINIMAL
from tests.test_taxonomy import (bfs_distance, tree_from_parents,
                                 walk_ancestors, walk_lca)

KEYWORDS = "CSUGHPQ;"  # levels 1..8
TEXT = st.text(alphabet="abcé -", min_size=1, max_size=6)
ENTRY = TEXT.map(str.strip).filter(bool)


@st.composite
def thesauri(draw, words=None):
    """A valid interchange document, one to two children per node.

    With ``words``, entries are drawn from that strategy and every group
    also holds its class's own word ("class 1", "class 2"), so words
    repeat across many groups and two classes' words meet only at the root.
    """
    lines, heads, own = [], iter(range(1, 10 ** 6)), []
    entries = ENTRY if words is None else words

    def grow(level):
        for ordinal in range(1, draw(st.integers(1, 2)) + 1):
            keyword = KEYWORDS[level - 1]
            if level == 1:
                own[:] = [] if words is None else ["class %d" % ordinal]
            if keyword == "H":
                lines.append("H %d %s" % (next(heads), draw(TEXT)))
            elif keyword == "P":
                lines.append("P " + draw(st.sampled_from(["N", "ADJ", "VB",
                                                          "ADV"])))
            elif keyword == "Q":
                lines.append("Q %d" % ordinal)
            elif keyword == ";":
                lines.append("; " + " | ".join(
                    draw(st.lists(entries, min_size=1, max_size=3))
                    + own))
            else:
                lines.append("%s %d %s" % (keyword, ordinal, draw(TEXT)))
            if level < 8:
                grow(level + 1)

    grow(1)
    return parse_interchange("\n".join(lines) + "\n")


@st.composite
def shaped_trees(draw):
    """Parents of a tree of any shape and depth, deeper than 9 levels too.

    Node i + 1 hangs under parents[i], as in ``tree_from_parents``.
    """
    return [draw(st.one_of(st.just(i), st.integers(0, i)))
            for i in range(draw(st.integers(0, 40)))]


@settings(deadline=None)
@given(thesauri())
def test_serialize_round_trip(thesaurus):
    reparsed = parse_interchange(serialize(thesaurus))
    assert structure_signature(reparsed) == structure_signature(thesaurus)


@settings(deadline=None)
@given(thesauri(), st.integers(1, 3))
def test_serialize_round_trip_in_small_blocks(thesaurus, block):
    # Groups are split a block at a time; with small blocks the boundaries
    # fall inside paragraphs and between them.
    text = serialize(thesaurus)
    with mock.patch.object(interchange, "_BLOCK", block):
        assert serialize(parse_interchange(text)) == text


# Labels, ordinals and entry texts of every kind a thesaurus can be built
# with, and plain ones.
WIDE_LABELS = st.one_of(st.text(), st.none(), st.integers(), TEXT.map(
    str.strip))
WIDE_ENTRIES = st.one_of(st.text(), ENTRY)


@settings(deadline=None)
@given(thesauri(), st.data())
def test_serialize_raises_or_reads_back(thesaurus, data):
    # A thesaurus built with any labels, ordinals and entry texts either
    # serializes to a text that reads back as it, or raises.  One built
    # with a drawn group emptied of its references raises, naming it.
    placed = [(ref.entry_text, ref.semicolon_group)
              for ref in thesaurus.references]
    emptied = data.draw(st.sampled_from(sorted({g for _, g in placed})))
    with pytest.raises(InvalidNodeError,
                       match="^semicolon group %d has no entries " % emptied):
        serialize(Thesaurus(thesaurus.nodes, tree_references(
            thesaurus.nodes, [(text, group) for text, group in placed
                              if group != emptied])))
    nodes = thesaurus.nodes[:]
    for i in data.draw(st.lists(st.integers(0, len(nodes) - 1), max_size=8)):
        nodes[i] = dataclasses.replace(nodes[i], label=data.draw(WIDE_LABELS),
                                       ordinal=data.draw(st.integers()))
    for i in data.draw(st.lists(st.integers(0, len(placed) - 1), max_size=4)):
        placed[i] = (data.draw(WIDE_ENTRIES), placed[i][1])
    built = Thesaurus(nodes, tree_references(nodes, placed))
    try:
        text = serialize(built)
    except RogetError:
        return
    reparsed = parse_interchange(text)
    assert structure_signature(reparsed) == structure_signature(built)
    assert reparsed.references == built.references


@settings(deadline=None)
@given(thesauri(), st.data())
def test_reference_distance_is_an_ultrametric(thesaurus, data):
    refs = st.sampled_from(thesaurus.references)
    a, b, c = data.draw(refs), data.draw(refs), data.draw(refs)
    d = thesaurus.reference_distance
    assert d(a, b) % 2 == 0 and 0 <= d(a, b) <= 16
    assert d(a, b) == d(b, a)
    assert d(a, c) <= max(d(a, b), d(b, c))
    assert d(a, b) == bfs_distance(thesaurus, a.semicolon_group,
                                   b.semicolon_group)


@settings(deadline=None)
@given(st.one_of(thesauri(), shaped_trees()), st.data())
def test_ancestors_and_lca_match_a_parent_walk(thesaurus, data):
    if isinstance(thesaurus, list):  # shaped_trees: build it from parents
        depths = [0]
        for parent in thesaurus:
            depths.append(depths[parent] + 1)
        if max(depths) > 8:
            with pytest.raises(InvalidNodeError):
                tree_from_parents(thesaurus)
            return
        thesaurus = tree_from_parents(thesaurus)
    node_ids = st.integers(0, len(thesaurus.nodes) - 1)
    b = data.draw(node_ids)
    above_b = data.draw(st.sampled_from(walk_ancestors(thesaurus, b))).id
    for a in (b, above_b, data.draw(node_ids)):
        assert thesaurus.ancestors(a) == walk_ancestors(thesaurus, a)
        for x, y in ((a, b), (b, a)):
            assert (thesaurus.lowest_common_ancestor(x, y)
                    == walk_lca(thesaurus, x, y))


def pair_loop(thesaurus, w1, w2):
    """The m*n loop over reference_distance: (minimum, minimizing pairs)."""
    best, pairs = MAX_DISTANCE + 1, []
    for r1 in thesaurus.lookup(w1):
        for r2 in thesaurus.lookup(w2):
            d = thesaurus.reference_distance(r1, r2)
            if d < best:
                best, pairs = d, []
            if d == best:
                pairs.append((r1, r2))
    return best, pairs


def check_word_distances(thesaurus, few_pairs):
    """Every ordered pair of words, w1 == w2 included, against pair_loop.

    A cut-off of 0 sends every word pair through the key sort, on each
    word's cached keys, 10**6 through per-pair reference_distance.  The
    pairs are checked twice, the second time with every word's keys
    cached, then once more with the arguments of each pair reversed.
    """
    thesaurus._shifted.clear()  # thesauri may be shared between tests
    words = sorted(thesaurus.index)
    expected = {(w1, w2): pair_loop(thesaurus, w1, w2)
                for w1 in words for w2 in words}
    reversed_pairs = [(w2, w1) for w1, w2 in expected]
    for w1, w2 in [*expected, *expected, *reversed_pairs]:
        best, pairs = expected[w1, w2]
        with mock.patch.object(taxonomy, "_FEW_PAIRS", few_pairs):
            result = word_min_distance(thesaurus, w1, w2)
        assert (result.min_distance, result.pair_count) == (best, len(pairs))
        assert [tuple(map(id, p)) for p in result.achieving_pairs] == [
            tuple(map(id, p)) for p in pairs]
        best_pair = evaluate_choice(thesaurus, w1, w2).best_pair
        assert tuple(map(id, best_pair)) == tuple(map(id, pairs[0]))
    # The cache holds each word's shifted keys once, by its index key.
    for word, shifted in thesaurus._shifted.items():
        assert shifted == tuple(thesaurus.keys[ref.semicolon_group] << 1
                                for ref in thesaurus.index[word])
    if few_pairs == 0:
        assert thesaurus._shifted.keys() == thesaurus.index.keys()


@pytest.mark.parametrize("few_pairs", [0, taxonomy._FEW_PAIRS, 10 ** 6])
@settings(deadline=None)
@given(thesauri(words=st.sampled_from(["a", "b", "c"])))
def test_word_distance_equals_the_pair_loop(few_pairs, thesaurus):
    check_word_distances(thesaurus, few_pairs)
    # "class 1" and "class 2" (when drawn) meet only at the root, so every
    # pair of their references attains distance 16.
    if "class 2" in thesaurus.index:
        assert pair_loop(thesaurus, "class 1", "class 2")[0] == MAX_DISTANCE


# Family sizes on both sides of the key's field-width boundaries: 1, and
# 2**k - 1, 2**k and 2**k + 1 for k = 1, 2, 3.
FAMILY_SIZES = (1, 2, 3, 4, 5, 7, 8, 9)


def layered_nodes(family):
    """(nodes, group ids) of a tree made one depth at a time.

    Each node at depth d < 8 gets ``family(d, whether it is the depth's
    last node)`` children; a head's number is its id, and every POS
    paragraph is a noun one.
    """
    nodes = [TaxonomyNode(id=0, level=Level.ROOT, label="T")]
    level_ids = [0]
    for depth in range(Level.SEMICOLON_GROUP):
        below = []
        for parent in level_ids:
            for _ in range(family(depth, parent == level_ids[-1])):
                below.append(len(nodes))
                level = Level(depth + 1)
                nodes.append(TaxonomyNode(
                    id=len(nodes), level=level, label=str(len(nodes)),
                    parent=parent,
                    head_number=len(nodes) if level == Level.HEAD else None,
                    pos=(PartOfSpeech.NOUN if level == Level.POS_PARAGRAPH
                         else None)))
        level_ids = below
    return nodes, level_ids


def tree_references(nodes, placed):
    """A Reference of each (text, group) of ``placed``, in that order, with
    the POS, head number and keyword of its POS paragraph, head and
    paragraph in ``nodes``.

    A paragraph's keyword is its first group's first entry: that of its
    child with the lowest id, in the order given, or "" if it has none.
    """
    first_child, first_entry = {}, {}
    for node in nodes:
        first_child.setdefault(node.parent, node.id)
    for text, group in placed:
        first_entry.setdefault(group, text)
    refs = []
    for text, group in placed:
        paragraph = nodes[group].parent
        pos_paragraph = nodes[nodes[paragraph].parent]
        refs.append(Reference(
            text, group, pos_paragraph.pos,
            nodes[pos_paragraph.parent].head_number,
            first_entry.get(first_child[paragraph], "")))
    return refs


def boundary_tree(turn):
    """A thesaurus whose last node at each depth d < 8 has a family of
    FAMILY_SIZES[(turn + d) % 8] children and every other node one child.

    A head's number is its id, and every POS paragraph is a noun one.
    Each semicolon group holds "a", "b" or "c" in turn; "rare" is in the
    first and last groups and "odd" in the next three, so "rare" and "odd"
    make few pairs and the other words many.
    """
    nodes, level_ids = layered_nodes(
        lambda depth, last: FAMILY_SIZES[
            (turn + depth) % len(FAMILY_SIZES)] if last else 1)
    placed = []
    for i, group in enumerate(level_ids):
        words = ["abc"[i % 3]]
        words += ["rare"] * (i in (0, len(level_ids) - 1))
        words += ["odd"] * (i in (1, 2, 3))
        placed += [(word, group) for word in words]
    return Thesaurus(nodes, tree_references(nodes, placed))


BOUNDARY_TREES = [boundary_tree(turn) for turn in range(len(FAMILY_SIZES))]


@pytest.mark.parametrize("thesaurus", BOUNDARY_TREES)
def test_keys_take_the_widths_of_the_largest_families(thesaurus):
    # Level d's field is as wide as its largest family's size in bits, so
    # keys that packed node ids, or fields of one width, would be longer.
    widths = [0] * (Level.SEMICOLON_GROUP + 1)
    for children in thesaurus.child_ids:
        if children:
            depth = thesaurus.levels[children[0]]
            widths[depth] = max(widths[depth], len(children).bit_length())
    assert max(thesaurus.keys).bit_length() == sum(widths)


@pytest.mark.parametrize("thesaurus", BOUNDARY_TREES)
def test_boundary_trees_match_the_oracles(thesaurus):
    groups = {ref.semicolon_group: ref for ref in thesaurus.references}
    for a, r1 in groups.items():
        for b, r2 in groups.items():
            assert (thesaurus.reference_distance(r1, r2)
                    == bfs_distance(thesaurus, a, b))
    node_ids = range(len(thesaurus.nodes))
    for a in node_ids:
        assert thesaurus.ancestors(a) == walk_ancestors(thesaurus, a)
        for b in node_ids[a % 7::7]:
            assert (thesaurus.lowest_common_ancestor(a, b)
                    == walk_lca(thesaurus, a, b))


@pytest.mark.parametrize("few_pairs", [0, taxonomy._FEW_PAIRS, 10 ** 6])
@pytest.mark.parametrize("thesaurus", BOUNDARY_TREES)
def test_boundary_trees_word_distance_equals_the_pair_loop(few_pairs,
                                                           thesaurus):
    check_word_distances(thesaurus, few_pairs)


# Words of a scattered thesaurus: references per word, and how many groups
# hold the word twice.  "huge" has 20 to 240 times the references of every
# word but "wide".
SCATTERED = {"huge": (240, 0), "wide": (60, 0), "twice": (12, 6),
             "mid": (12, 0), "few": (3, 0), "pair": (2, 1), "one": (1, 0)}


def scattered_thesaurus(seed):
    """A directly built thesaurus whose references are in no key order.

    The tree has three classes and one to three children per node below
    them, and its semicolon groups are numbered in a random order; each
    word of SCATTERED is in that many random groups, and the references are
    shuffled.  A thesaurus keeps its references in group id order, so the
    index lists a word's references in an order its group keys do not sort
    in.
    """
    rng = random.Random(seed)
    nodes, level_ids = layered_nodes(
        lambda depth, last: 3 if depth == 0 else rng.randint(1, 3))
    # The groups are the last nodes; each takes the id of a random one.
    first = level_ids[0]
    renumbered = dict(zip(level_ids, rng.sample(level_ids, len(level_ids))))
    nodes[first:] = sorted(
        (dataclasses.replace(node, id=renumbered[node.id])
         for node in nodes[first:]), key=attrgetter("id"))
    placed = []
    for word, (size, doubled) in SCATTERED.items():
        groups = rng.sample(level_ids, size - doubled)
        placed += [(word, group) for group in groups + groups[:doubled]]
    rng.shuffle(placed)
    return Thesaurus(nodes, tree_references(nodes, placed))


@pytest.mark.parametrize("seed", range(3))
def test_word_distance_on_references_out_of_key_order(seed):
    thesaurus = scattered_thesaurus(seed)
    keys = [thesaurus.keys[ref.semicolon_group]
            for ref in thesaurus.lookup("huge")]
    assert keys != sorted(keys)
    expected = {(w1, w2): pair_loop(thesaurus, w1, w2)
                for w1 in SCATTERED for w2 in SCATTERED}
    # A cut-off of 0 sends every pair through the bisecting kernel, the
    # one-key word's too.
    for few_pairs in (0, taxonomy._FEW_PAIRS):
        with mock.patch.object(taxonomy, "_FEW_PAIRS", few_pairs):
            for (w1, w2), (best, pairs) in expected.items():
                assert thesaurus._min_distance(
                    thesaurus.lookup(w1), thesaurus.lookup(w2)) == (
                        best, len(pairs))
    for word, shifted in thesaurus._shifted.items():
        assert shifted == tuple(sorted(
            thesaurus.keys[ref.semicolon_group] << 1
            for ref in thesaurus.index[word]))
    # A kept word's own key is read without normalizing it again.
    with mock.patch.object(taxonomy, "normalize", side_effect=AssertionError):
        assert thesaurus._word_keys(
            thesaurus.lookup("huge")) is thesaurus._shifted["huge"]


def placed_thesaurus(places):
    """A thesaurus with each word of ``places`` in the groups it lists.

    The tree has two classes and two children per node below them, but
    four paragraphs per POS paragraph and four groups per paragraph; a
    word's places index its 1,024 groups in key order, so groups 0-511 are
    class 1's, 4p to 4p + 3 share paragraph p, and paragraphs 4q to
    4q + 3 share a POS paragraph.  Ranks 1 to 4 fill a field of 3 bits.
    """
    nodes, groups = layered_nodes(
        lambda depth, last: 4 if depth >= Level.POS_PARAGRAPH else 2)
    return Thesaurus(nodes, tree_references(nodes, [
        (word, groups[place])
        for word, word_places in places.items() for place in word_places]))


def counted_min_distance(thesaurus, w1, w2, few_pairs=taxonomy._FEW_PAIRS):
    """_min_distance of two words' lookups and the bisect_left calls it
    made.

    Each call is kept as (its arguments, its result).
    """
    refs1, refs2 = thesaurus.lookup(w1), thesaurus.lookup(w2)
    calls = []

    def bisect_left(*args):
        calls.append((args, bisect.bisect_left(*args)))
        return calls[-1][1]

    # _min_distance reads bisect_left from its module's globals at call
    # time.
    with mock.patch.object(taxonomy, "bisect_left", bisect_left), \
            mock.patch.object(taxonomy, "_FEW_PAIRS", few_pairs):
        result = thesaurus._min_distance(refs1, refs2)
    best, pairs = pair_loop(thesaurus, w1, w2)
    assert result == (best, len(pairs))
    return result, calls


@pytest.mark.parametrize("few_pairs", [taxonomy._FEW_PAIRS, 0, 16])
def test_the_path_is_chosen_by_the_number_of_pairs(few_pairs):
    # Words of 1 to 4 references, sharing some groups and paragraphs, so
    # each ordered pair of them makes 1 to 16 pairs of references.
    thesaurus = placed_thesaurus({"one": [9], "two": [9, 600],
                                  "three": [8, 40, 900],
                                  "four": [2, 77, 600, 1023]})
    words = list(thesaurus.index)
    expected = {(w1, w2): pair_loop(thesaurus, w1, w2)
                for w1 in words for w2 in words}
    measured, measure = [], Thesaurus.reference_distance
    products = set()
    with mock.patch.object(taxonomy, "_FEW_PAIRS", few_pairs), \
            mock.patch.object(Thesaurus, "reference_distance",
                              lambda self, r1, r2: measured.append(r1)
                              or measure(self, r1, r2)):
        for (w1, w2), (best, pairs) in expected.items():
            refs1, refs2 = thesaurus.lookup(w1), thesaurus.lookup(w2)
            measured.clear()
            assert thesaurus._min_distance(refs1, refs2) == (
                best, len(pairs))
            product = len(refs1) * len(refs2)
            assert len(measured) == (product if product <= few_pairs else 0)
            products.add(product)
    assert products == {1, 2, 3, 4, 6, 8, 9, 12, 16}


def search_calls(calls):
    """The search bisects of counted_min_distance's calls: those given a
    ``lo``, as the counting bisects read all of the larger word's keys."""
    return [call for call in calls if len(call[0]) == 4]


def test_only_keys_as_near_as_the_best_so_far_are_bisected_again():
    # "big" is in the first group of the second paragraph (rank 0b010) of
    # the first eight POS paragraphs.  Two of "small"'s five keys share a
    # paragraph with one of them.  Group 8, in the third paragraph (rank
    # 0b011), differs from group 4 only in the paragraph field's lowest
    # bit, one bit above the fields the minimum's pairs share; group 161
    # lies under another POS paragraph and group 1023 in class 2.
    thesaurus = placed_thesaurus({"big": range(4, 128, 16),
                                  "small": [5, 8, 37, 161, 1023]})
    for w1, w2 in (("small", "big"), ("big", "small")):
        result, calls = counted_min_distance(thesaurus, w1, w2)
        # One search bisect per key of "small", two counting ones for
        # each of the two keys at distance 2, the least; the first key is
        # one of them, so no farther key is ever as near as the best.
        assert (result, len(calls)) == ((2, 2), 5 + 2 * 2)
        # Each search starts where the one before it ended.
        searches = search_calls(calls)
        assert len(searches) == 5
        starts = [args[2] for args, _ in searches]
        assert starts == [0] + [found for _, found in searches[:4]]
        assert starts[-1] > 0


def test_a_count_is_dropped_when_a_later_key_is_nearer():
    # Of "small"'s keys, group 8 shares a POS paragraph with "big"'s group
    # 4 (distance 4), so it is counted first; groups 37 and 38 share a
    # paragraph with group 36 (distance 2), so group 8's count is dropped
    # at group 37.  Groups 161 and 1023 are farther than 2.
    thesaurus = placed_thesaurus({"big": range(4, 128, 16),
                                  "small": [8, 37, 38, 161, 1023]})
    # Per key of "small", in key order, as its places are, the distance of
    # its nearest key.
    big = thesaurus.lookup("big")
    nearest = [min(thesaurus.reference_distance(r1, r2) for r2 in big)
               for r1 in thesaurus.lookup("small")]
    assert nearest == [4, 2, 2, 12, 16]
    # One bisect per key, and two per key whose nearest key is at least as
    # near as every earlier key's.
    expected = len(nearest) + 2 * sum(
        distance <= min(nearest[:i], default=MAX_DISTANCE)
        for i, distance in enumerate(nearest))
    assert expected == 5 + 2 * 3
    for w1, w2 in (("small", "big"), ("big", "small")):
        result, calls = counted_min_distance(thesaurus, w1, w2)
        assert (result, len(calls)) == ((2, 2), expected)
        assert len(search_calls(calls)) == 5


def test_keys_of_one_level_are_counted_whatever_their_xors_bit_length():
    # Two keys at distance 4, each sharing a POS paragraph but not a
    # paragraph with its nearest key.  The paragraph ranks 1 and 4 (0b001,
    # 0b100) of groups 0 and 12 differ in the field's top bit, the ranks 2
    # and 3 (0b010, 0b011) of groups 20 and 24 in its lowest; the key with
    # the shorter XOR comes second, and must not drop the first one's count.
    thesaurus = placed_thesaurus({"a": [0, 20], "b": [12, 24]})
    keys = {word: thesaurus._word_keys(thesaurus.lookup(word))
            for word in ("a", "b")}
    (first, second), (near_first, near_second) = keys["a"], keys["b"]
    assert (first ^ near_first).bit_length() > (
        second ^ near_second).bit_length()
    for w1, w2 in (("a", "b"), ("b", "a")):
        result, calls = counted_min_distance(thesaurus, w1, w2, 0)
        assert (result, len(calls)) == ((4, 2), 2 + 2 * 2)


def test_the_minimum_through_the_last_key_before_every_key():
    # In one paragraph the group ranks 1, 2 and 3 are 0b001, 0b010 and
    # 0b011 in the group field: group 0's key precedes both of "big"'s, and is
    # nearer by XOR to big[-1] than to big[0].  The search reads big[-1]
    # at i == 0, so that pair gives the least XOR; both lie at distance 2.
    thesaurus = placed_thesaurus({"one": [0], "big": [1, 2]})
    (k,), big = (thesaurus._word_keys(thesaurus.lookup(word))
                 for word in ("one", "big"))
    assert k < big[0] and k ^ big[-1] < k ^ big[0]
    for w1, w2 in (("one", "big"), ("big", "one")):
        result, calls = counted_min_distance(thesaurus, w1, w2, 0)
        assert (result, len(calls)) == ((2, 2), 1 + 2)


def test_the_kernel_on_words_of_one_key():
    # A one-key word is bisected into another one-key word and compared
    # with that key from both sides; its key always reaches the minimum.
    thesaurus = placed_thesaurus({"one": [5], **{
        "at %d" % place: [place]
        for place in (5, 4, 7, 0, 16, 32, 64, 128, 256, 600)}})
    distances = []
    for word in sorted(thesaurus.index):
        (distance, count), calls = counted_min_distance(
            thesaurus, "one", word, 0)
        assert (count, len(calls)) == (1, 1 + 2)
        distances.append(distance)
    assert sorted(distances) == [0, 0, 2, 2, 4, 6, 8, 10, 12, 14, 16]


def test_every_key_is_counted_at_distance_16():
    thesaurus = placed_thesaurus({"small": [0, 77, 511], "big": [
        512, 600, 601, 800, 802, 1022, 1023]})
    for w1, w2 in (("small", "big"), ("big", "small")):
        result, calls = counted_min_distance(thesaurus, w1, w2)
        assert (result, len(calls)) == ((MAX_DISTANCE, 3 * 7), 3 + 2 * 3)


@pytest.mark.parametrize("seed", range(3))
def test_a_built_thesaurus_keeps_the_references_given(seed):
    # Random groups, and spellings that share an index key, in no group or
    # key order.
    rng = random.Random(seed)
    nodes, groups = layered_nodes(lambda depth, last: rng.randint(1, 2))
    references = tree_references(nodes, [
        (rng.choice(["a", "A", "b", "B b", "c"]), rng.choice(groups))
        for _ in range(80)])
    thesaurus = Thesaurus(nodes, references)
    # Sorted stably by group: each group's references in the order given.
    kept = sorted(references, key=attrgetter("semicolon_group"))
    assert list(thesaurus.references) == kept
    assert list(thesaurus.members) == [
        tuple(r for r in references if r.semicolon_group == node_id)
        for node_id in range(len(nodes))]
    assert list(thesaurus.index.items()) == [
        (key, tuple(r for r in kept if normalize(r.entry_text) == key))
        for key in dict.fromkeys(normalize(r.entry_text) for r in kept)]
    for key in thesaurus.index:
        assert thesaurus.lookup(key) == list(thesaurus.index[key])


# A tree of two children per node: 256 semicolon groups.
CHAIN_NODES, CHAIN_GROUPS = layered_nodes(lambda depth, last: 2)


@st.composite
def spellings(draw):
    """A spelling of one of a few words: any case, extra spaces or a tab
    around and inside it, and its accent composed (NFC) or not (NFD)."""
    word = draw(st.sampled_from(["café", "ice cream", "tea", "Crème brûlée"]))
    word = draw(st.sampled_from([str.lower, str.upper, str.title]))(word)
    word = word.replace(" ", draw(st.sampled_from([" ", "  ", "\t"])))
    word = unicodedata.normalize(draw(st.sampled_from(["NFC", "NFD"])), word)
    pad = st.sampled_from(["", " ", "\t "])
    return draw(pad) + word + draw(pad)


def grouped_by_key(references):
    """A naive index: each normalized entry text's references, in order."""
    grouped = {}
    for ref in references:
        grouped.setdefault(normalize(ref.entry_text), []).append(ref)
    return grouped


def check_index(references):
    """Build a thesaurus of the references and check its index against
    ``grouped_by_key`` of them sorted stably by group, the order the
    thesaurus keeps; return the thesaurus."""
    thesaurus = Thesaurus(CHAIN_NODES, references)
    grouped = grouped_by_key(sorted(references,
                                    key=attrgetter("semicolon_group")))
    assert list(thesaurus.index) == list(grouped)  # first-seen key order
    assert len(thesaurus.index) == len(grouped)
    for key, refs in grouped.items():
        assert key in thesaurus.index
        assert list(thesaurus.index[key]) == refs  # document order
        assert thesaurus.lookup(key) == list(thesaurus.index[key])
    for ref in references:
        assert thesaurus.lookup(ref.entry_text) == grouped[
            normalize(ref.entry_text)]
    return thesaurus


@settings(deadline=None)
@given(st.lists(st.tuples(spellings(), st.sampled_from(CHAIN_GROUPS)),
                max_size=40).map(partial(tree_references, CHAIN_NODES)))
def test_the_index_chains_each_keys_references_in_document_order(
        references):
    check_index(references)


def test_an_index_of_no_references():
    thesaurus = check_index([])
    assert len(thesaurus.index) == 0 and "tea" not in thesaurus.index
    assert thesaurus.lookup("tea") == []
    with pytest.raises(KeyError):
        thesaurus.index["tea"]


def test_a_key_met_through_an_alias_then_as_itself():
    references = tree_references(CHAIN_NODES, list(zip(
        ["Cat", "dog", "cat", " Dog", "CAT", "cat"], CHAIN_GROUPS)))
    seen = []
    with mock.patch.object(taxonomy, "normalize",
                           side_effect=lambda text: seen.append(text)
                           or normalize(text)):
        Thesaurus(CHAIN_NODES, references)
    # Once per distinct text; "cat" is already a key when it is first met.
    assert seen == ["Cat", "dog", " Dog", "CAT"]
    thesaurus = check_index(references)
    assert list(thesaurus.index) == ["cat", "dog"]
    assert [r.entry_text for r in thesaurus.index["cat"]] == [
        "Cat", "cat", "CAT", "cat"]
    assert thesaurus.index._aliases == {"Cat": "cat", " Dog": "dog",
                                        "CAT": "cat"}


def test_the_caches_keep_the_thesauruss_own_strings():
    # A normalized text is a new string each time; the record and key
    # caches are keyed by an index key, an alias or an entry text instead.
    thesaurus = check_index(tree_references(CHAIN_NODES, list(zip(
        ["Cat", "dog", "cat", " Dog", "tea", "TEA"], CHAIN_GROUPS))))
    for text in (" CAT ", "DOG", "Tea", "cat"):
        thesaurus.lookup(text)
        thesaurus._word_keys(thesaurus.lookup(text.upper()))
    held = {id(text) for text in [*thesaurus.index, *thesaurus._columns[0],
                                  *thesaurus.index._aliases.values()]}
    for cache in (thesaurus._records, thesaurus._shifted):
        assert list(cache) == ["cat", "dog", "tea"]
        assert {id(key) for key in cache} <= held


def test_one_key_holding_every_reference():
    references = tree_references(CHAIN_NODES, list(zip(
        ["tea", "TEA", " Tea ", "tea"] * 40, CHAIN_GROUPS * 2)))
    thesaurus = check_index(references)
    assert list(thesaurus.index) == ["tea"]
    assert thesaurus.index["tea"] == tuple(references)


@given(st.text())
def test_normalize_is_idempotent(text):
    # The index and the key cache take a text equal to one of their keys
    # as its own normalization.
    assert normalize(normalize(text)) == normalize(text)


# Any character, with cased letters, whitespace and combining marks drawn
# often, in runs.
WIDE_TEXT = st.text(st.one_of(
    st.characters(), st.sampled_from("aAeEßİΣσςǅ"),
    st.sampled_from(" \t\n\x0b\x1c\x85\xa0\u2000\u2028\u3000"),
    st.characters(categories=["Mn"])), max_size=10)


@st.composite
def respellings(draw, text):
    """``text`` with its case changed, its whitespace runs widened, padding
    around it and its accents composed or decomposed."""
    text = draw(st.sampled_from([str, str.lower, str.upper, str.swapcase,
                                 str.title]))(text)
    text = text.replace(" ", draw(st.sampled_from([" ", "  ", "\t \u3000"])))
    text = unicodedata.normalize(draw(st.sampled_from(["NFC", "NFD"])), text)
    pad = st.sampled_from(["", " ", "\n\xa0"])
    return draw(pad) + text + draw(pad)


@settings(deadline=None)
@given(st.lists(WIDE_TEXT, min_size=1, max_size=6), st.data())
def test_a_text_reads_as_its_normalization(texts, data):
    # lookup reads a text with records kept as its own key, without
    # normalize: that holds because normalize is idempotent, so a key is
    # its own normalization.
    query = data.draw(st.one_of(
        WIDE_TEXT, st.sampled_from(texts).flatmap(respellings)))
    key = normalize(query)
    assert normalize(key) == key
    references = tree_references(CHAIN_NODES, list(zip(texts, CHAIN_GROUPS)))
    # Before any records are kept, each on a thesaurus of its own.
    before = [Thesaurus(CHAIN_NODES, references).lookup(text)
              for text in (query, key)]
    assert before[0] == before[1]
    thesaurus = Thesaurus(CHAIN_NODES, references)
    kept = thesaurus.lookup(data.draw(st.sampled_from([query, key])))
    assert kept == before[0]
    assert kept == list(thesaurus.index.get(key, ()))
    # Once kept, under either form: the kept objects.
    for text in (query, key, query):
        again = thesaurus.lookup(text)
        assert len(again) == len(kept)
        assert all(a is b for a, b in zip(again, kept))


def _lines(name):
    with open(data_path(name), encoding="utf-8") as handle:
        return handle.read().splitlines()


SOURCES = [MINIMAL.splitlines()] + [
    _lines(name) for name in ("roget_fixture.rt", "questions_fixture.tsv",
                              "questions_mixed.tsv", "pairs_fixture.tsv")]


@st.composite
def line_mutations(draw):
    """A fixture or MINIMAL with lines deleted, duplicated, swapped or cut."""
    lines = list(draw(st.sampled_from(SOURCES)))
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
        edit = draw(st.sampled_from(["delete", "duplicate", "swap", "cut"]))
        if edit == "delete":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(j, lines[i])
        elif edit == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        else:  # keywords and numbers sit at the start of a line
            cut = draw(st.integers(0, 3) | st.integers(0, len(lines[i])))
            lines[i] = lines[i][:cut]
    return "\n".join(lines) + "\n"


@settings(deadline=None, max_examples=500)
@given(line_mutations())
def test_parsers_raise_only_parse_error(document):
    for parse in (parse_interchange, load_questions, load_pairs):
        try:
            parse(document)
        except ParseError:
            pass


GUTENBERG_BODY = st.lists(st.sampled_from(
    ["N.", "V.", "Adj.", "Adv.", "Int.", "Phr.", "being,", "entity;",
     "truth &c. 494,", "positiveness &c. adj.;", "ens[Lat],", "so be it!"]),
    max_size=6).map(" ".join)
GUTENBERG_LINES = st.one_of(
    st.builds("CLASS {}".format, st.sampled_from(["I", "II", "IV"])),
    st.just("WORDS EXPRESSING ABSTRACT RELATIONS"),
    st.builds("SECTION {}.{}".format, st.sampled_from(["I", "II", "V"]),
              st.sampled_from(["", " RELATION"])),
    st.builds("{}. {}".format, st.integers(0, 3),
              st.sampled_from(["BEING", "ABSOLUTE RELATION"])),
    st.builds("#{}. {}-- {}".format,
              st.sampled_from(["0", "00", "1", "2", "3", "3a", "12"]),
              st.sampled_from(["Existence.", ""]), GUTENBERG_BODY),
    GUTENBERG_BODY, st.just(""))


@settings(deadline=None, max_examples=300)
@given(st.lists(GUTENBERG_LINES, max_size=15))
def test_an_import_loads_and_reports_its_own_counts(lines):
    try:
        document, report = import_gutenberg_1911("\n".join(lines))
    except GutenbergImportError as exc:
        assert str(exc).endswith(": no heads found")
        return
    # A stream of the same lines ending at "\r" converts alike.
    stream = io.StringIO("\r".join(lines), newline="")
    assert import_gutenberg_1911(stream) == (document, report)
    thesaurus = parse_interchange(document)
    structure = validate_structure(thesaurus)
    assert structure.ok and structure.heads > 0
    assert (structure.classes, structure.sections, structure.sub_sections,
            structure.heads) == (report.classes, report.sections,
                                 report.sub_sections, report.heads_converted)
    # The classes, sections, sub-sections and head groups of one parent
    # have positive ordinals, increasing in document order.
    for children in thesaurus.child_ids:
        if children and thesaurus.levels[children[0]] <= Level.HEAD_GROUP:
            ordinals = [thesaurus.ordinals[child] for child in children]
            assert ordinals == sorted(set(ordinals)) and ordinals[0] > 0
