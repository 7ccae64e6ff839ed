"""Tree queries: LCA, edge distance, path rendering."""

import dataclasses
import gc
import random
from collections import deque

import pytest

from rogetsim import (InvalidNodeError, InvalidReferenceError, Level,
                      PartOfSpeech, Reference, TaxonomyNode, Thesaurus,
                      enumerate_shortest_paths, load, parse_interchange,
                      taxonomy, word_min_distance)
from tests.conftest import FIXTURE_PATH, TIER_PAIRS
from tests.test_interchange import MINIMAL  # nodes 0-8, the group is node 8


def bfs_distance(thesaurus, a, b):
    """Independent oracle: BFS edge count over the explicit edge list."""
    adjacency = {}
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
    for stray in (out_of_range, not_a_member):
        with pytest.raises(InvalidReferenceError):
            thesaurus.reference_distance(thesaurus.references[0], stray)
        with pytest.raises(InvalidReferenceError):
            thesaurus.tree_path(stray, thesaurus.references[0])


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
    for _ in range(2):
        normalized.clear()
        word_min_distance(thesaurus, "feline", "lynx")
        assert sorted(walked) == ["feline", "lynx"]
        # Only ``lookup`` normalizes: each word's keys are found by the
        # index key it was read under.
        assert normalized == ["feline", "lynx"]


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
    (5, {"head_number": None}, "head 5's number None is not a positive int"),
    (5, {"head_number": 0}, "head 5's number 0 is not a positive int"),
    (6, {"pos": None}, "POS paragraph 6's pos None is not a PartOfSpeech"),
    (6, {"pos": "N"}, "POS paragraph 6's pos 'N' is not a PartOfSpeech"),
], ids=["forward-parent", "self-parent", "root-with-a-parent", "second-root",
        "negative-parent", "id-not-position", "level-not-a-level",
        "level-not-its-depth", "root-below-level-0", "head-without-a-number",
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


@pytest.mark.parametrize("group", [6, -1, 9],
                         ids=["pos-paragraph", "negative", "out-of-range"])
def test_reference_outside_a_semicolon_group_is_rejected(group):
    parsed = parse_interchange(MINIMAL)
    stray = dataclasses.replace(parsed.references[0], entry_text="stray",
                                semicolon_group=group)
    with pytest.raises(InvalidReferenceError, match="^reference 'stray' at "
                       "node %d is not in a semicolon group" % group):
        Thesaurus(parsed.nodes, [*parsed.references, stray])


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
