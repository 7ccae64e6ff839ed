"""Property tests on small generated thesauri."""

from hypothesis import given, settings
from hypothesis import strategies as st

from rogetsim import parse_interchange, serialize, structure_signature
from tests.test_taxonomy import (bfs_distance, tree_from_parents,
                                 walk_ancestors, walk_lca)

KEYWORDS = "CSUGHPQ;"  # levels 1..8
TEXT = st.text(alphabet="abcé -", min_size=1, max_size=6)
ENTRY = TEXT.map(str.strip).filter(bool)


@st.composite
def thesauri(draw):
    """A valid interchange document, one to two children per node."""
    lines, heads = [], iter(range(1, 10 ** 6))

    def grow(level):
        for ordinal in range(1, draw(st.integers(1, 2)) + 1):
            keyword = KEYWORDS[level - 1]
            if keyword == "H":
                lines.append("H %d %s" % (next(heads), draw(TEXT)))
            elif keyword == "P":
                lines.append("P " + draw(st.sampled_from(["N", "ADJ", "VB",
                                                          "ADV"])))
            elif keyword == "Q":
                lines.append("Q %d" % ordinal)
            elif keyword == ";":
                lines.append("; " + " | ".join(
                    draw(st.lists(ENTRY, min_size=1, max_size=3))))
            else:
                lines.append("%s %d %s" % (keyword, ordinal, draw(TEXT)))
            if level < 8:
                grow(level + 1)

    grow(1)
    return parse_interchange("\n".join(lines) + "\n")


@st.composite
def shaped_trees(draw):
    """A directly built tree of any shape and depth, deeper than 9 too."""
    parents = [draw(st.one_of(st.just(i), st.integers(0, i)))
               for i in range(draw(st.integers(0, 40)))]
    return tree_from_parents(parents)


@settings(deadline=None)
@given(thesauri())
def test_serialize_round_trip(thesaurus):
    reparsed = parse_interchange(serialize(thesaurus))
    assert structure_signature(reparsed) == structure_signature(thesaurus)


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
    node_ids = st.integers(0, len(thesaurus.nodes) - 1)
    b = data.draw(node_ids)
    above_b = data.draw(st.sampled_from(walk_ancestors(thesaurus, b))).id
    for a in (b, above_b, data.draw(node_ids)):
        assert thesaurus.ancestors(a) == walk_ancestors(thesaurus, a)
        for x, y in ((a, b), (b, a)):
            assert (thesaurus.lowest_common_ancestor(x, y)
                    is walk_lca(thesaurus, x, y))
