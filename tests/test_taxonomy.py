"""Tree queries: LCA, edge distance, path rendering."""

import copy
import dataclasses
import gc
import inspect
import pickle
import random
import weakref
from collections import deque
from collections.abc import Mapping

import pytest

from rogetsim import (MAX_DISTANCE, InvalidNodeError, InvalidReferenceError,
                      Level, PartOfSpeech, Reference, TaxonomyNode, Thesaurus,
                      WordNotFoundError, enumerate_shortest_paths, load,
                      parse_interchange, taxonomy, word_min_distance)
from tests.conftest import FIXTURE_PATH, TIER_PAIRS
from tests.test_interchange import MINIMAL  # nodes 0-8, the group is node 8


# Per thesaurus, its adjacency lists, made on its first bfs_distance call.
_ADJACENCY = weakref.WeakKeyDictionary()


def bfs_distance(thesaurus, a, b):
    """Independent oracle: BFS edge count over the explicit edge list.

    The edge list is read from ``thesaurus.nodes`` once per thesaurus.
    """
    adjacency = _ADJACENCY.get(thesaurus)
    if adjacency is None:
        adjacency = _ADJACENCY[thesaurus] = {}
        for node in thesaurus.nodes:
            adjacency.setdefault(node.id, [])
            if node.parent >= 0:
                adjacency[node.id].append(node.parent)
                adjacency.setdefault(node.parent, []).append(node.id)
    seen = {a: 0}
    queue = deque([a])
    while queue:
        current = queue.popleft()
        if current == b:
            return seen[current]
        for neighbor in adjacency[current]:
            if neighbor not in seen:
                seen[neighbor] = seen[current] + 1
                queue.append(neighbor)
    raise AssertionError("tree is disconnected")


def walk_ancestors(thesaurus, node_id):
    """Independent oracle: follow parent links from a node up to the root."""
    chain = [thesaurus.nodes[node_id]]
    while chain[-1].parent >= 0:
        chain.append(thesaurus.nodes[chain[-1].parent])
    return chain


def walk_lca(thesaurus, a, b):
    """Independent oracle: first ancestor of b that is an ancestor of a."""
    above_a = {node.id for node in walk_ancestors(thesaurus, a)}
    return next(node for node in walk_ancestors(thesaurus, b)
                if node.id in above_a)


def tree_from_parents(parents):
    """A directly built Thesaurus whose node i hangs under parents[i - 1].

    A head's number is its id, and every POS paragraph is a noun one.
    """
    nodes = [TaxonomyNode(id=0, level=Level.ROOT, label="T")]
    for child, parent in enumerate(parents, start=1):
        level = Level(min(nodes[parent].level + 1, Level.SEMICOLON_GROUP))
        nodes.append(TaxonomyNode(
            id=child, level=level, label=str(child), parent=parent,
            head_number=child if level == Level.HEAD else None,
            pos=PartOfSpeech.NOUN if level == Level.POS_PARAGRAPH else None))
        nodes[parent].children.append(child)
    return Thesaurus(nodes, [])


def test_lca_identity(thesaurus):
    group = thesaurus.nodes_at_level(Level.SEMICOLON_GROUP)[0]
    assert thesaurus.lowest_common_ancestor(group.id, group.id) == group


def test_lca_same_paragraph(thesaurus):
    ref1 = thesaurus.lookup("devotion")[0]
    ref2 = thesaurus.lookup("abnormal affection")[0]
    lca = thesaurus.lowest_common_ancestor(ref1.semicolon_group,
                                           ref2.semicolon_group)
    assert lca.level == Level.PARAGRAPH


def test_lca_cross_class_is_root(thesaurus):
    ref1 = thesaurus.lookup("nag")[0]
    ref2 = thesaurus.lookup("like greased lightning")[0]
    lca = thesaurus.lowest_common_ancestor(ref1.semicolon_group,
                                           ref2.semicolon_group)
    assert lca == thesaurus.root
    assert lca.label == "T"


def test_lca_unknown_node(thesaurus):
    with pytest.raises(InvalidNodeError):
        thesaurus.lowest_common_ancestor(10 ** 9, 0)


def test_distance_same_reference_is_zero(thesaurus):
    ref = thesaurus.lookup("feline")[0]
    assert thesaurus.reference_distance(ref, ref) == 0


def test_distance_rejects_foreign_reference(thesaurus):
    out_of_range = Reference(entry_text="x", semicolon_group=10 ** 9,
                             pos=thesaurus.references[0].pos, head_number=1,
                             keyword="x")
    # A real group id, but the reference is not one of that group's entries.
    not_a_member = dataclasses.replace(
        thesaurus.lookup("nag")[0], entry_text="zzz",
        semicolon_group=thesaurus.lookup("feline")[0].semicolon_group)
    # A copy of a member whose group is a float: a thesaurus holds none.
    feline = thesaurus.lookup("feline")[0]
    not_an_int = dataclasses.replace(
        feline, semicolon_group=float(feline.semicolon_group))
    # A copy of the last reference at a negative group id, which a sequence
    # indexed by node id would read from its end.
    last = thesaurus.references[-1]
    negative = dataclasses.replace(last, semicolon_group=(
        last.semicolon_group - len(thesaurus.nodes) - 1))
    for stray in (out_of_range, not_a_member, not_an_int, negative):
        with pytest.raises(InvalidReferenceError):
            thesaurus.reference_distance(thesaurus.references[0], stray)
        with pytest.raises(InvalidReferenceError):
            thesaurus.tree_path(stray, thesaurus.references[0])


def test_an_absent_word_is_refused_before_anything_is_kept(fixture_text):
    # word_min_distance refuses an absent word, naming each in the order
    # given, before the kernel runs: only the present word's records, and
    # its keys from one bisected comparison (nine pairs), are kept.
    thesaurus = parse_interchange(fixture_text)
    word_min_distance(thesaurus, "feline", "feline")
    for args, missing in ((("zzz", "feline"), ["zzz"]),
                          (("feline", "zzz"), ["zzz"]),
                          (("qqq", "zzz"), ["qqq", "zzz"])):
        with pytest.raises(WordNotFoundError, match="^not found: %s$"
                           % ", ".join(missing)) as info:
            word_min_distance(thesaurus, *args)
        assert info.value.words == missing
    assert list(thesaurus._records) == ["feline"]
    assert list(thesaurus._group_keys) == ["feline"]


def test_a_lookup_makes_its_words_records_once(fixture_text):
    thesaurus = parse_interchange(fixture_text)
    before = {id(o) for o in gc.get_objects() if type(o) is Reference}
    refs = thesaurus.lookup("Feline")
    made = [o for o in gc.get_objects()
            if type(o) is Reference and id(o) not in before]
    assert len(refs) == 3
    assert sorted(map(id, made)) == sorted(map(id, refs))
    # Later reads return the kept records: a new list of the same objects.
    again = thesaurus.lookup(" feline ")
    assert again is not refs
    for read in (again, thesaurus.index["feline"]):
        assert all(a is b for a, b in zip(read, refs, strict=True))
    assert list(thesaurus._records) == ["feline"]


def test_a_first_comparison_walks_each_words_ids_once(fixture_text,
                                                      monkeypatch):
    thesaurus = parse_interchange(fixture_text)
    walked, walk = [], taxonomy._Index._ids_of
    monkeypatch.setattr(taxonomy._Index, "_ids_of",
                        lambda index, key: walked.append(key)
                        or walk(index, key))
    normalized, fold = [], taxonomy.normalize
    monkeypatch.setattr(taxonomy, "normalize",
                        lambda text: normalized.append(text) or fold(text))
    monkeypatch.setattr(taxonomy, "_FEW_PAIRS", 0)  # every pair bisects
    for expected in (["feline", "lynx"], []):
        normalized.clear()
        word_min_distance(thesaurus, "feline", "lynx")
        assert sorted(walked) == ["feline", "lynx"]
        # Only ``lookup`` normalizes, and only a text with no records kept:
        # each word's keys are found by the index key of its records.
        assert normalized == expected


def test_a_variant_is_normalized_only_by_its_lookup(fixture_text,
                                                   monkeypatch):
    # Nine pairs, so both words' keys are bisected.  Once warm, a case and
    # space variant is normalized once, by its lookup: its keys are found
    # by the index key of the records that lookup returned.
    thesaurus = parse_interchange(fixture_text)
    assert len(thesaurus.lookup("feline")) ** 2 > taxonomy._FEW_PAIRS
    expected = word_min_distance(thesaurus, "feline", "feline")
    word_min_distance(thesaurus, " FELINE ", "feline")
    normalized, fold = [], taxonomy.normalize
    monkeypatch.setattr(taxonomy, "normalize",
                        lambda text: normalized.append(text) or fold(text))
    result = word_min_distance(thesaurus, " FELINE ", "feline")
    assert normalized == [" FELINE "]
    assert (result.min_distance, result.pair_count) == (
        expected.min_distance, expected.pair_count)
    assert list(thesaurus._group_keys) == ["feline"]


def test_a_bisected_comparison_keeps_the_trees_own_keys(fixture_text,
                                                        monkeypatch):
    # Each word's cached keys are the ints of ``keys`` themselves, one per
    # record in the order lookup returns them: no copies, no shifted forms.
    thesaurus = parse_interchange(fixture_text)
    monkeypatch.setattr(taxonomy, "_FEW_PAIRS", 0)  # every pair bisects
    word_min_distance(thesaurus, "feline", "lynx")
    assert list(thesaurus._group_keys) == ["feline", "lynx"]
    for word, group_keys in thesaurus._group_keys.items():
        refs = thesaurus.lookup(word)
        assert len(group_keys) == len(refs)
        assert all(key is thesaurus.keys[ref.semicolon_group]
                   for key, ref in zip(group_keys, refs))


def test_equal_copies_are_measured_without_new_records(fixture_text,
                                                       monkeypatch):
    thesaurus = parse_interchange(fixture_text)
    copies = list(thesaurus.references)  # equal to the kept records
    # Every record is made by taxonomy._made, kept or not.
    made, make = [], taxonomy._made
    monkeypatch.setattr(taxonomy, "_made",
                        lambda columns, ids: made.extend(ids)
                        or make(columns, ids))
    distances = [thesaurus.reference_distance(a, b)
                 for a, b in zip(copies, reversed(copies))]
    assert made == []
    monkeypatch.undo()
    kept = {ref: ref for key in thesaurus.index
            for ref in thesaurus.index[key]}
    assert distances == [thesaurus.reference_distance(kept[a], kept[b])
                         for a, b in zip(copies, reversed(copies))]
    # A copy of the same text and group but another keyword, POS or head
    # is not a member.
    ref = copies[0]
    pos = next(p for p in PartOfSpeech if p is not ref.pos)
    for change in ({"keyword": ref.keyword + "x"}, {"pos": pos},
                   {"head_number": ref.head_number + 1}):
        stray = dataclasses.replace(ref, **change)
        with pytest.raises(InvalidReferenceError):
            thesaurus.reference_distance(ref, stray)


FIELDS = ("entry_text", "semicolon_group", "pos", "head_number", "keyword")
NOT_A_MEMBER = ("reference %r is not a member of its semicolon group in this "
                "thesaurus")


def by_value_checks(monkeypatch):
    """The groups of the references ``_key`` checks by value from now on.

    Each such check of a reference whose text is in its group reads
    ``taxonomy._group_fields`` once; nothing else that ``reference_distance``
    or ``tree_path`` runs reads it.
    """
    checked, read = [], taxonomy._group_fields
    monkeypatch.setattr(taxonomy, "_group_fields",
                        lambda tree, group: checked.append(group)
                        or read(tree, group))
    return checked


def measured(thesaurus, refs):
    """The distance and tree path of each pair of refs and refs reversed."""
    return [(thesaurus.reference_distance(r1, r2), thesaurus.tree_path(r1, r2))
            for r1, r2 in zip(refs, reversed(refs))]


class CountedReads(Mapping):
    """A read-only view of a dict that counts the keys it is asked for."""

    def __init__(self, data):
        self.data, self.reads = data, 0

    def __getitem__(self, key):
        self.reads += 1
        return self.data[key]

    def __iter__(self):
        return iter(self.data)

    def __len__(self):
        return len(self.data)


def count_cache_reads(thesaurus):
    """Put counting views in place of the per-word record cache and the
    alias map; return them."""
    records = CountedReads(thesaurus._records)
    aliases = CountedReads(thesaurus.index._aliases)
    thesaurus._records = thesaurus.index._records = records
    thesaurus.index._aliases = aliases
    return records, aliases


def test_a_thesauruss_own_records_are_members_by_their_mark(fixture_text,
                                                           monkeypatch):
    thesaurus = parse_interchange(fixture_text)
    read = {"lookup": thesaurus.lookup("feline") + thesaurus.lookup("lynx"),
            "index": [*thesaurus.index["cat"], *thesaurus.index["nag"]],
            "references": list(thesaurus.references),
            "members": [ref for members in thesaurus.members
                        for ref in members]}
    checked = by_value_checks(monkeypatch)
    checks = {}
    for source, refs in read.items():
        checked.clear()
        measured(thesaurus, refs)
        checks[source] = len(checked)
    assert checks == dict.fromkeys(read, 0)


def test_other_equal_records_are_checked_by_value(fixture_text, monkeypatch):
    thesaurus = parse_interchange(fixture_text)
    own = list(thesaurus.references)
    copies = {
        "constructed": [Reference(*(getattr(ref, name) for name in FIELDS))
                        for ref in own],
        "replaced": [dataclasses.replace(ref) for ref in own],
        "unpickled": pickle.loads(pickle.dumps(own)),
        "parsed again": list(parse_interchange(fixture_text).references)}
    checked = by_value_checks(monkeypatch)
    expected = measured(thesaurus, own)
    assert checked == []
    for source, refs in copies.items():
        assert refs == own, source
        checked.clear()
        assert measured(thesaurus, refs) == expected, source
        # Two references per query, two queries per pair.
        assert len(checked) == 4 * len(own), source


def test_own_records_and_equal_copies_measure_alike(fixture_text):
    # Each pair's distance is the same whether an argument is an own record
    # or an equal copy, in either order, and with one of each.
    thesaurus = parse_interchange(fixture_text)
    own = list(thesaurus.references)
    copies = {"replaced": [dataclasses.replace(ref) for ref in own],
              "unpickled": pickle.loads(pickle.dumps(own)),
              "copied": [copy.copy(ref) for ref in own],
              "parsed again": list(parse_interchange(fixture_text).references)}
    distance = thesaurus.reference_distance
    for source, refs in copies.items():
        assert refs == own, source
        for (a, b), (c, d) in zip(zip(own, reversed(own)),
                                  zip(refs, reversed(refs))):
            assert {distance(a, b), distance(c, d), distance(d, c),
                    distance(a, d), distance(d, a)} == {distance(b, a)}, source


def test_only_an_argument_not_marked_is_checked_by_value(fixture_text,
                                                        monkeypatch):
    thesaurus = parse_interchange(fixture_text)
    feline, nag = thesaurus.lookup("feline")[0], thesaurus.lookup("nag")[0]
    equal = (dataclasses.replace(nag),
             parse_interchange(fixture_text).lookup("nag")[0])
    # A record whose text is not in its group.
    stray = dataclasses.replace(nag, semicolon_group=feline.semicolon_group)
    checked = by_value_checks(monkeypatch)
    for other in equal:
        for r1, r2 in ((feline, other), (other, feline)):
            checked.clear()
            assert thesaurus.reference_distance(r1, r2) == MAX_DISTANCE
            assert checked == [nag.semicolon_group]
    for r1, r2 in ((feline, stray), (stray, feline)):
        with pytest.raises(InvalidReferenceError) as info:
            thesaurus.reference_distance(r1, r2)
        assert str(info.value) == NOT_A_MEMBER % (stray,)


def test_a_non_member_is_refused_without_reading_a_per_word_cache(
        fixture_text):
    thesaurus = parse_interchange(fixture_text)
    feline, nag = thesaurus.lookup("feline")[0], thesaurus.lookup("nag")[0]
    strays = [
        # Another group's record moved to feline's group.
        dataclasses.replace(nag, semicolon_group=feline.semicolon_group),
        # Another thesaurus's record, at a group of this one.
        parse_interchange(MINIMAL).references[0],
        # A record of another case of a word this thesaurus holds.
        dataclasses.replace(feline, entry_text="Feline")]
    records, aliases = count_cache_reads(thesaurus)
    for stray in strays:
        for query in (thesaurus.reference_distance, thesaurus.tree_path):
            with pytest.raises(InvalidReferenceError) as info:
                query(feline, stray)
            assert str(info.value) == NOT_A_MEMBER % (stray,)
    assert (records.reads, aliases.reads) == (0, 0)


def test_a_records_mark_is_private(fixture_text):
    thesaurus = parse_interchange(fixture_text)
    own = thesaurus.lookup("feline")[0]
    built = Reference(*(getattr(own, name) for name in FIELDS))
    # The mark is its thesaurus's: another parse marks its records with
    # another, and a record made by the constructor carries none.
    assert own._made_by is thesaurus.references[0]._made_by
    assert own._made_by is not parse_interchange(fixture_text).lookup(
        "feline")[0]._made_by
    assert own._made_by is not None and built._made_by is None
    # Neither repr, equality, hashing nor matching reads it, and the
    # constructor and replace do not take it.
    assert (repr(own), hash(own)) == (repr(built), hash(built))
    assert own == built
    assert Reference.__match_args__ == FIELDS
    assert tuple(inspect.signature(Reference).parameters) == FIELDS
    assert tuple(f.name for f in dataclasses.fields(Reference)) == (
        *FIELDS, "_made_by")
    match own:
        case Reference(text, group, pos, head, keyword):
            assert (text, group, pos, head, keyword) == tuple(
                getattr(built, name) for name in FIELDS)
    with pytest.raises(TypeError):
        Reference(*(getattr(own, name) for name in FIELDS),
                  _made_by=own._made_by)
    with pytest.raises(ValueError):
        dataclasses.replace(built, _made_by=own._made_by)


def test_paths_of_words_sharing_many_groups_read_no_per_word_cache():
    # ROADMAP item 7's paths case: "a" and "b" share each of k groups, so
    # their k pairs at distance 0 are all listed and rendered.
    k = 2000
    thesaurus = parse_interchange(MINIMAL.replace("; word\n", "; a | b\n" * k))
    result = word_min_distance(thesaurus, "a", "b")
    pairs = result.achieving_pairs
    assert (result.min_distance, len(pairs)) == (0, k)
    records, aliases = count_cache_reads(thesaurus)
    assert [thesaurus.render_path(r1, r2) for r1, r2 in pairs] == [
        "a → b"] * k
    assert (records.reads, aliases.reads) == (0, 0)


def test_bool_node_ids_are_refused(thesaurus):
    for node_id in (True, False):
        for query in (thesaurus.node, thesaurus.ancestors):
            with pytest.raises(InvalidNodeError,
                               match="^unknown node id: %r$" % node_id):
                query(node_id)
    with pytest.raises(InvalidNodeError, match="^unknown node id: True$"):
        thesaurus.lowest_common_ancestor(True, False)
    nodes = parse_interchange(MINIMAL).nodes[:]
    for position, node_id in ((0, False), (1, True)):
        bad = nodes[:]
        bad[position] = dataclasses.replace(nodes[position], id=node_id)
        with pytest.raises(InvalidNodeError, match="^node %r is at position "
                           "%d, not at its id$" % (node_id, position)):
            Thesaurus(bad, [])


def test_distance_accepts_an_equal_copy(thesaurus, fixture_text):
    copy = parse_interchange(fixture_text).lookup("feline")[0]
    assert copy is not thesaurus.lookup("feline")[0]
    assert thesaurus.reference_distance(copy, thesaurus.lookup("lynx")[0]) == 2


@pytest.mark.parametrize("expected,w1,w2", TIER_PAIRS)
def test_tier_table(thesaurus, expected, w1, w2):
    assert word_min_distance(thesaurus, w1, w2).min_distance == expected


def test_distance_symmetry_all_word_pairs(thesaurus):
    words = sorted(thesaurus.index)
    for i, w1 in enumerate(words):
        for w2 in words[i:]:
            forward = word_min_distance(thesaurus, w1, w2)
            backward = word_min_distance(thesaurus, w2, w1)
            assert forward.min_distance == backward.min_distance
            assert forward.pair_count == backward.pair_count


def test_distance_parity_and_range(thesaurus):
    refs = thesaurus.references
    rng = random.Random(7)
    for _ in range(2000):
        r1, r2 = rng.choice(refs), rng.choice(refs)
        d = thesaurus.reference_distance(r1, r2)
        assert 0 <= d <= 16 and d % 2 == 0


def test_distance_matches_bfs_oracle(thesaurus):
    groups = [n.id for n in thesaurus.nodes_at_level(Level.SEMICOLON_GROUP)]
    refs_by_group = {}
    for ref in thesaurus.references:
        refs_by_group.setdefault(ref.semicolon_group, ref)
    rng = random.Random(42)
    for _ in range(500):
        a, b = rng.choice(groups), rng.choice(groups)
        expected = bfs_distance(thesaurus, a, b)
        actual = thesaurus.reference_distance(refs_by_group[a],
                                              refs_by_group[b])
        assert actual == expected


def test_tree_path_edge_count_matches_distance(thesaurus):
    # For every distance >= 2 the number of connectors equals the edge
    # count; the distance-0 path is just the two entries.
    rng = random.Random(3)
    refs = thesaurus.references
    for _ in range(500):
        r1, r2 = rng.choice(refs), rng.choice(refs)
        d = thesaurus.reference_distance(r1, r2)
        labels, apex = thesaurus.tree_path(r1, r2)
        if d == 0:
            assert labels == [r1.entry_text, r2.entry_text]
        else:
            assert len(labels) - 1 == d
            assert 1 <= apex <= len(labels) - 2


def test_render_feline_lynx_shortest(thesaurus):
    result = word_min_distance(thesaurus, "feline", "lynx")
    assert result.min_distance == 2
    r1, r2 = result.achieving_pairs[0]
    assert thesaurus.render_path(r1, r2) == "feline → cat ← lynx"


def test_render_distance_zero(thesaurus):
    paths = enumerate_shortest_paths(thesaurus, "journey's end", "terminus")
    assert paths == ["journey's end → terminus"]


def test_render_feline_lynx_longest_passes_root(thesaurus):
    pairs = [(r1, r2) for r1 in thesaurus.lookup("feline")
             for r2 in thesaurus.lookup("lynx")]
    r1, r2 = max(pairs, key=lambda p: thesaurus.reference_distance(*p))
    d = thesaurus.reference_distance(r1, r2)
    assert d == 16
    rendered = thesaurus.render_path(r1, r2)
    assert " → T ← " in rendered
    assert rendered.count("→") + rendered.count("←") == 16


def test_no_level_skipping(thesaurus):
    for node in thesaurus.nodes:
        if node.parent >= 0:
            assert thesaurus.nodes[node.parent].level == node.level - 1


def test_display_labels_along_a_path(thesaurus):
    group = thesaurus.lookup("feline")[0].semicolon_group
    assert [node.display_label for node in thesaurus.ancestors(group)] == [
        "feline", "cat", "N.", "365. Animality", "[365]", "Vitality",
        "Section three : Organic matter", "Class three : Matter", "T"]


def test_head_numbers_unique(thesaurus):
    numbers = [n.head_number for n in thesaurus.nodes_at_level(Level.HEAD)]
    assert len(numbers) == len(set(numbers))


def test_tree_deeper_than_nine_levels_is_rejected():
    # A 14-deep spine (node i under i - 1) with a side branch at every level.
    spine = list(range(14))
    # Node 9 gets level 8, the deepest Level, one short of its depth.
    with pytest.raises(InvalidNodeError,
                       match="^node 9's level 8 is not its depth 9$"):
        tree_from_parents(spine + spine)


@pytest.mark.parametrize("position,changes,message", [
    (3, {"parent": 5}, "node 3's parent 5 is not an earlier node"),
    (3, {"parent": 3}, "node 3's parent 3 is not an earlier node"),
    (0, {"parent": 0}, "node 0's parent 0 is not an earlier node"),
    (3, {"parent": -1}, "node 3's parent -1 is not an earlier node"),
    (3, {"parent": -2}, "node 3's parent -2 is not an earlier node"),
    (3, {"id": 4}, "node 4 is at position 3, not at its id"),
    (3, {"level": 12}, "node 3's level 12 is not a Level"),
    (3, {"level": Level.HEAD}, "node 3's level 5 is not its depth 3"),
    (0, {"level": Level.CLASS}, "node 0's level 1 is not its depth 0"),
    (1, {"ordinal": 1.5}, "node 1's ordinal 1.5 is not an int"),
    (1, {"ordinal": None}, "node 1's ordinal None is not an int"),
    (7, {"ordinal": "1"}, "node 7's ordinal '1' is not an int"),
    (5, {"head_number": None}, "head 5's number None is not a positive int"),
    (5, {"head_number": 0}, "head 5's number 0 is not a positive int"),
    (6, {"pos": None}, "POS paragraph 6's pos None is not a PartOfSpeech"),
    (6, {"pos": "N"}, "POS paragraph 6's pos 'N' is not a PartOfSpeech"),
], ids=["forward-parent", "self-parent", "root-with-a-parent", "second-root",
        "negative-parent", "id-not-position", "level-not-a-level",
        "level-not-its-depth", "root-below-level-0", "class-ordinal-a-float",
        "class-without-an-ordinal", "paragraph-ordinal-a-str",
        "head-without-a-number",
        "head-numbered-0", "pos-paragraph-without-a-pos",
        "pos-paragraph-with-a-tag"])
def test_a_malformed_tree_is_rejected(position, changes, message):
    nodes = parse_interchange(MINIMAL).nodes[:]
    nodes[position] = dataclasses.replace(nodes[position], **changes)
    with pytest.raises(InvalidNodeError, match="^%s$" % message):
        Thesaurus(nodes, [])


def test_a_thesaurus_without_nodes_is_rejected():
    with pytest.raises(InvalidNodeError, match="needs a root node"):
        Thesaurus([], [])


def test_iterators_build_the_same_thesaurus():
    parsed = load(FIXTURE_PATH)
    built = Thesaurus(iter(parsed.nodes), iter(parsed.references))
    assert built.references == parsed.references
    assert built.members == parsed.members
    assert built.nodes == parsed.nodes
    assert built.index == parsed.index


def test_group_at_depth_seven_is_not_a_member():
    # A semicolon group hung directly under a POS paragraph (depth 7).
    nodes = parse_interchange(MINIMAL).nodes[:7]
    nodes.append(TaxonomyNode(id=7, level=Level.SEMICOLON_GROUP, label="a",
                              parent=6))
    refs = [Reference(entry_text=text, semicolon_group=7,
                      pos=PartOfSpeech.NOUN, head_number=1, keyword="a")
            for text in ("a", "b")]
    with pytest.raises(InvalidNodeError,
                       match="^node 7's level 8 is not its depth 7$"):
        Thesaurus(nodes, refs)


@pytest.mark.parametrize("group", [6, -1, 9, 8.0],
                         ids=["pos-paragraph", "negative", "out-of-range",
                              "not-an-int"])
def test_reference_outside_a_semicolon_group_is_rejected(group):
    parsed = parse_interchange(MINIMAL)
    stray = dataclasses.replace(parsed.references[0], entry_text="stray",
                                semicolon_group=group)
    with pytest.raises(InvalidReferenceError, match="^reference 'stray' at "
                       "node %r is not in a semicolon group" % group):
        Thesaurus(parsed.nodes, [*parsed.references, stray])


@pytest.mark.parametrize("text", [None, b"cat", 1])
def test_an_entry_text_that_is_not_a_str_is_rejected(text):
    # The index would otherwise fail inside normalize, as an AttributeError.
    parsed = load(FIXTURE_PATH)
    references = list(parsed.references)
    stray = references[0] = dataclasses.replace(references[0],
                                                entry_text=text)
    with pytest.raises(InvalidReferenceError) as info:
        Thesaurus(parsed.nodes, references)
    assert str(info.value) == (
        "reference %r has an entry text that is not a str" % (stray,))


def test_a_paragraph_label_other_than_its_first_entry_is_not_read():
    # A paragraph's label is its first group's first entry, every
    # reference's keyword there: a paragraph given as "zzz", with
    # references to match, cannot be built.
    parsed = load(FIXTURE_PATH)
    paragraph = parsed.parents[parsed.lookup("feline")[0].semicolon_group]
    nodes = parsed.nodes[:]
    nodes[paragraph] = dataclasses.replace(nodes[paragraph], label="zzz")
    references = [dataclasses.replace(ref, keyword="zzz")
                  if parsed.parents[ref.semicolon_group] == paragraph else ref
                  for ref in parsed.references]
    with pytest.raises(InvalidReferenceError, match="keyword='zzz'"):
        Thesaurus(nodes, references)
    assert Thesaurus(nodes, parsed.references).nodes[paragraph].label == "cat"


@pytest.mark.parametrize("change", [
    {"pos": PartOfSpeech.VERB}, {"head_number": 1365}, {"keyword": "zzz"},
], ids=["pos", "head-number", "keyword"])
def test_a_reference_unlike_its_group_is_rejected(change):
    # A record reads these from its group's ancestors, so a reference that
    # says otherwise would print a header the path below it contradicts.
    parsed = load(FIXTURE_PATH)
    references = list(parsed.references)
    i = [ref.entry_text for ref in references].index("feline")
    stray = references[i] = dataclasses.replace(references[i], **change)
    with pytest.raises(InvalidReferenceError) as info:
        Thesaurus(parsed.nodes, references)
    assert str(info.value) == (
        "reference %r does not have its semicolon group's POS, head number "
        "and keyword" % (stray,))


def test_reference_at_depth_8_outside_a_semicolon_group_is_rejected():
    parsed = parse_interchange(MINIMAL)
    nodes = parsed.nodes[:]
    nodes[8] = dataclasses.replace(nodes[8], level=Level.PARAGRAPH)
    # The node is refused before its references are read; a reference at a
    # node of another level is refused as in the pos-paragraph case above.
    with pytest.raises(InvalidNodeError,
                       match="^node 8's level 7 is not its depth 8$"):
        Thesaurus(nodes, parsed.references)


def test_keys_and_members_are_read_only(thesaurus):
    group = thesaurus.lookup("feline")[0].semicolon_group
    with pytest.raises(TypeError):
        thesaurus.keys[group] = 0
    with pytest.raises(TypeError):
        thesaurus.members[group] = ()


def test_mutating_what_a_thesaurus_returns_changes_no_answer():
    thesaurus = load(FIXTURE_PATH)
    with pytest.raises(AttributeError):
        thesaurus.index["feline"].clear()
    assert len(thesaurus.lookup("feline")) == 3
    (r1, r2), = word_min_distance(thesaurus, "feline", "lynx").achieving_pairs
    apex = thesaurus.lowest_common_ancestor(r1.semicolon_group,
                                            r2.semicolon_group).id
    thesaurus.nodes[apex].label = "HACKED"
    thesaurus.nodes[apex].children.clear()
    assert thesaurus.nodes[apex] is not thesaurus.nodes[apex]
    assert thesaurus.nodes[apex].label == "cat"
    assert enumerate_shortest_paths(thesaurus, "feline", "lynx") == [
        "feline → cat ← lynx"]


def test_a_record_sequence_is_unlike_a_list(thesaurus):
    assert thesaurus.nodes == thesaurus.nodes
    assert (thesaurus.nodes == list(thesaurus.nodes)) is False
    assert thesaurus.nodes != list(thesaurus.nodes)
