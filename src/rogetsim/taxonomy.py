"""Read-only 9-level thesaurus taxonomy, entry index and edge distance.

The tree runs Root -> Class -> Section -> Sub-Section -> Head Group ->
Head -> POS paragraph -> Paragraph -> Semicolon group.  Words and phrases
are members of semicolon groups, not tree nodes, so two entries in the
same group are at distance 0.  The distance between two references is the
number of tree edges on the unique path between their semicolon groups:

    distance = 2 * (8 - level(lowest common ancestor))

which is always an even number in [0, 16].  Each node's root-first path
is packed into one int key, one bit field per level holding the rank of
that level's ancestor among its siblings, so the level of the lowest
common ancestor of two groups is read off the top set bit of their keys'
XOR (see ``Thesaurus``), and the closest pairs between two lists of
references are found from their sorted keys, without comparing every pair.

The tree is stored as per-node columns and the references as
per-reference columns; ``TaxonomyNode`` and ``Reference`` records are made
from them only when read, and changing a node record changes nothing in
the thesaurus.  A word's references are made on its first ``lookup`` or
``index`` read and then kept, so later reads return the same objects;
``references`` and ``members`` make new, equal records on each read.
``Thesaurus`` rejects a node whose level is not its depth and a reference
outside a semicolon group.
"""

import unicodedata
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, fields
from enum import Enum, IntEnum
from functools import cached_property
from itertools import islice
from operator import attrgetter

from .errors import InvalidNodeError, InvalidReferenceError

MAX_DISTANCE = 16
_GROUP_LEVEL = 8  # the depth of every semicolon group; no node is deeper

# Thesaurus.min_distance measures each pair with reference_distance, instead
# of bisecting cached keys, while there are at most this many pairs.  With
# the keys cached, bisecting is the cheaper way from about 4 pairs.  Per
# call, pair by pair against bisected, on a 2-vCPU VM with Python 3.11
# (seed-1 benchmark thesaurus; per shape the median over 20 word pairs, each
# the best of 9 interleaved runs of 500 calls; two runs): 1x1 0.5 and 1.5
# us, 1x3 1.5-2.0 and 1.6-2.3, 2x2 1.9-2.0 and 1.9-2.0, 1x4 1.7-1.9 and
# 1.6-1.7, 2x3 2.6-2.8 and 1.9-2.0, 3x3 4.0-4.1 and 2.3-2.4, and 4x4
# 7.2-12.8 and 2.4-4.3.  The value is 6, not 4, because the traced
# benchmark pins the per-pair reference_distance calls of its fixture's
# feline x lynx comparison, 3 x 2 pairs; ROADMAP item 1 lowers it once the
# benchmark stops counting those calls.  It is read at call time, so tests
# can patch it here.
_FEW_PAIRS = 6


class Level(IntEnum):
    ROOT = 0
    CLASS = 1
    SECTION = 2
    SUB_SECTION = 3
    HEAD_GROUP = 4
    HEAD = 5
    POS_PARAGRAPH = 6
    PARAGRAPH = 7
    SEMICOLON_GROUP = 8


_LEVELS = frozenset(Level)


class PartOfSpeech(Enum):
    NOUN = "N"
    ADJECTIVE = "ADJ"
    VERB = "VB"
    ADVERB = "ADV"

    @property
    def display(self):
        """Printed form used in reference lists, e.g. 'N.'."""
        return self.value + "."


@dataclass(frozen=True, slots=True)
class Reference:
    """One occurrence of a word or phrase at a specific semicolon group.

    ``keyword`` is the owning paragraph's keyword (its first entry), used
    for the printed form ``cat 365 N.``.
    """

    entry_text: str
    semicolon_group: int
    pos: PartOfSpeech
    head_number: int
    keyword: str

    @property
    def display(self):
        return "%s %d %s" % (self.keyword, self.head_number, self.pos.display)


def _display(level, label, head_number, pos):
    if level == Level.HEAD:
        return "%d. %s" % (head_number, label)
    if level == Level.POS_PARAGRAPH:
        return pos.display
    return label


@dataclass(slots=True)
class TaxonomyNode:
    """One tree node, as given to ``Thesaurus`` or made by ``nodes``."""

    id: int
    level: Level
    label: str
    ordinal: int = 0
    parent: int = -1
    head_number: int | None = None
    pos: PartOfSpeech | None = None
    children: list = field(default_factory=list)

    @property
    def display_label(self):
        """Label as printed in paths: '698. Cunning', 'ADJ.', 'T'."""
        return _display(self.level, self.label, self.head_number, self.pos)


_new = object.__new__
(_set_text, _set_group, _set_pos, _set_head,
 _set_keyword) = (getattr(Reference, f.name).__set__ for f in fields(Reference))


def _made(columns, ids):
    """New records of the reference ids, read from the reference columns.

    ``columns`` are a Thesaurus's ``_columns``: per reference its entry
    text, group and row, and per row a POS, head number and keyword.
    Each record is made by ``object.__new__`` and filled through the slot
    descriptors, at about half the cost of ``Reference(...)``, whose frozen
    ``__init__`` goes through ``object.__setattr__`` once per field.
    """
    texts, groups, rows, poses, heads, keywords = columns
    refs = []
    for i in ids:
        row = rows[i]
        ref = _new(Reference)
        _set_text(ref, texts[i])
        _set_group(ref, groups[i])
        _set_pos(ref, poses[row])
        _set_head(ref, heads[row])
        _set_keyword(ref, keywords[row])
        refs.append(ref)
    return refs


class _Records(Sequence):
    """Read-only sequence whose items a Thesaurus makes when they are read.

    ``read`` makes the item at an index, a new record from the columns
    each time; a slice gives a list of them.  Two such sequences are equal
    when their records are.
    """

    __slots__ = ("_length", "_read")

    def __init__(self, length, read):
        self._length, self._read = length, read

    def __len__(self):
        return self._length

    def __getitem__(self, index):
        ids = range(self._length)[index]
        if isinstance(ids, range):
            return list(map(self._read, ids))
        return self._read(ids)

    def __iter__(self):
        return map(self._read, range(self._length))

    def __eq__(self, other):
        if not isinstance(other, _Records):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None


class _Index(Mapping):
    """Read-only map of each normalized entry text to its references.

    Each key's reference ids are a chain: ``_last`` holds its last id,
    and ``_previous`` each id's previous id with the same key, or -1.  A
    key's tuple of references is made from its chain, walked back and
    reversed into document order, when the key is first read, by
    ``Thesaurus.lookup`` or ``index[key]``, and kept in a private cache,
    which ``setdefault`` fills with one tuple per key at most, so later
    reads return the same objects.  It holds the reference columns, not
    the thesaurus, and ``_aliases``, the key of each entry text that is
    not its own normalization.
    """

    __slots__ = ("_columns", "_last", "_previous", "_records", "_aliases")

    def __init__(self, columns, last, previous, aliases):
        self._columns, self._last = columns, last
        self._previous, self._aliases = previous, aliases
        self._records = {}

    def __len__(self):
        return len(self._last)

    def __iter__(self):
        return iter(self._last)

    def __contains__(self, key):
        return key in self._last

    def __getitem__(self, key):
        refs = self._read(key)
        if not refs:
            raise KeyError(key)
        return refs

    def _ids_of(self, key):
        """The reference ids of a key in the index, in document order."""
        ids, i, previous = [], self._last[key], self._previous
        while i >= 0:
            ids.append(i)
            i = previous[i]
        ids.reverse()
        return ids

    def _read(self, key):
        """The kept references of ``key``, made on its first read; () if
        it is not a key.  Threads that read one key first at once each
        make its records; ``setdefault`` keeps one tuple for all of them.
        """
        refs = self._records.get(key)
        if refs is None:
            if key not in self._last:
                return ()
            refs = self._records.setdefault(key, tuple(
                _made(self._columns, self._ids_of(key))))
        return refs


def normalize(text):
    """Normalize entry text for index lookup.

    Trims surrounding whitespace, collapses internal whitespace runs to a
    single space and lowercases; non-ASCII text is then put in Unicode NFC,
    so a decomposed "café" finds a composed entry and vice versa.  ASCII
    text is returned without that step.  No stemming or lemmatization.
    """
    folded = " ".join(text.split()).lower()
    return folded if folded.isascii() else unicodedata.normalize("NFC", folded)


def build_index(thesaurus):
    """Map each normalized entry text to its references, in document order.

    The map is read-only and its values are tuples, made on a key's first
    read (see ``_Index``).  One pass over the entry texts chains each
    key's reference ids, with no per-key list: ``last`` keeps each key's
    latest id, in the order the keys are first seen, and ``previous`` the
    id before each id with its key.  ``normalize`` runs at most once per
    distinct entry text: an entry text that is already a key is its own
    normalization, and a key equal to its entry text is that text's string.
    """
    texts = thesaurus._columns[0]
    last, aliases = {}, {}  # aliases: entry text -> its other key
    previous = array("i", [-1]) * len(texts)
    for i, text in enumerate(texts):
        j = last.get(text)
        if j is None:
            key = aliases.get(text)
            if key is None:
                key = normalize(text)
                key = text if key == text else aliases.setdefault(text, key)
            j = last.get(key, -1)
            last[key] = i
        else:
            last[text] = i
        previous[i] = j
    return _Index(thesaurus._columns, last, previous, aliases)


def _pack_keys(parents, levels):
    """(keys, shifts): each node's key by id, and where each level's field is.

    Level d's field starts at bit shifts[d] and holds the 1-based rank of
    the node's level-d ancestor among its siblings, in as many bits as the
    largest family at level d needs; the fields of deeper levels lie below
    it, and shifts[0] is the width of every field together.
    """
    sizes = Counter(parents)
    del sizes[-1]  # the root's
    largest = [0] * _GROUP_LEVEL  # by parent level
    for level, size in zip(map(levels.__getitem__, sizes), sizes.values()):
        if size > largest[level]:
            largest[level] = size
    shifts = [0] * (_GROUP_LEVEL + 1)
    for level in reversed(range(_GROUP_LEVEL)):
        shifts[level] = shifts[level + 1] + largest[level].bit_length()
    steps = [1 << shift for shift in shifts]
    keys = [0]
    latest = [0]  # per node, its last-numbered child's key, or its own
    for parent, level in zip(islice(parents, 1, None),
                             islice(levels, 1, None)):
        key = latest[parent] = latest[parent] + steps[level]
        keys.append(key)
        latest.append(key)
    return tuple(keys), tuple(shifts)


class Thesaurus:
    """A read-only taxonomy tree plus the references it defines.

    ``nodes`` lists each node at its id, parents before children, and
    ``references`` are kept in the order given.  The constructor raises
    ``InvalidNodeError`` for a node whose id is not an int at its
    position, a level that is not a ``Level``, a parent that is not an
    earlier node (node 0 is the one root, with parent -1), a level that is
    not the node's depth (one more than its parent's, the root at 0), a
    head whose ``head_number`` is not a positive int or a POS paragraph
    whose ``pos`` is not a ``PartOfSpeech``, and ``InvalidReferenceError``
    for a reference outside a semicolon group.  A node's children are the
    nodes naming it, in id order.

    The tree is kept as per-node columns, tuples indexed by node id:
    ``parents`` (-1 for the root), ``levels`` (ints), ``labels``,
    ``ordinals``, ``head_numbers`` and ``poses``.  ``nodes`` is a read-only
    sequence that makes a ``TaxonomyNode`` from them when read.  The
    references are kept as columns, in the order given (``_columns``):
    each one's entry text, group and row, and per row a POS, head number
    and keyword.  A parsed thesaurus's rows are its groups, whose
    references share those three fields; a directly built one gives each
    reference its own row.  ``references`` makes a new record from the
    columns on each read, and ``members``, per node id, a tuple of the
    records of a semicolon group's references in that order (empty for
    every other node), so every reference is a member.

    Per node id, ``keys`` holds one int packing the node's root-first
    path: for each level d from 1 to 8, a bit field holding the 1-based
    rank of the node's level-d ancestor among its siblings (children of
    one parent, in id order), level 1 highest.  Levels below the node hold
    0 and the root's key is 0, so, as a node's level is its depth, the keys
    sort into preorder with siblings in id order.  A level's field is as
    wide as its largest family needs: on the benchmark's synthetic
    thesaurus at the 1987 edition's scale a key takes 28 bits, so a key
    shifted left one bit, as ``_word_keys`` keeps it, still fits one 30-bit
    CPython int digit, and ``min_distance`` bisects, XORs and shifts
    one-digit ints.  Two nodes first differ at the level whose field holds
    the top set bit of ``k1 ^ k2``, so a reference distance is one table
    lookup by that bit length.  ``index`` is ``build_index(self)``, which
    chains each word's reference ids and walks them on the word's first
    read.  For s references of one word and b >= s of the other
    ``min_distance`` costs O(s log b), and ``pairs_within`` O(s + b) plus
    one step per pair it yields, not s*b.

    Answers never change after construction: the columns and ``keys`` are
    tuples or arrays no method writes, ``nodes``, ``references``,
    ``members`` and ``index`` are read-only, and every query method is
    safe to call concurrently.  The only state a query writes is two
    private per-word caches, each filled by ``setdefault`` with one tuple
    per index key at most, so each is bounded by the index: the records
    of a word's references, made on its first ``lookup``, ``index`` or
    ``_word_keys`` read, and the sorted shifted keys of ``_word_keys``.
    """

    def __init__(self, nodes, references):
        nodes, references = list(nodes), list(references)
        if not nodes:
            raise InvalidNodeError("a thesaurus needs a root node")
        for node_id, node in enumerate(nodes):
            parent, level = node.parent, node.level
            if type(node.id) is not int or node.id != node_id:
                raise InvalidNodeError("node %r is at position %d, not at its "
                                       "id" % (node.id, node_id))
            if level not in _LEVELS:
                raise InvalidNodeError("node %d's level %r is not a Level"
                                       % (node_id, level))
            if not (0 <= parent < node_id if node_id else parent == -1):
                raise InvalidNodeError("node %d's parent %r is not an earlier "
                                       "node" % (node_id, parent))
            depth = nodes[parent].level + 1 if node_id else Level.ROOT
            if level != depth:
                raise InvalidNodeError("node %d's level %d is not its depth %d"
                                       % (node_id, level, depth))
            number, pos = node.head_number, node.pos
            if level == Level.HEAD and not (type(number) is int
                                            and number > 0):
                raise InvalidNodeError("head %d's number %r is not a positive "
                                       "int" % (node_id, number))
            if level == Level.POS_PARAGRAPH and not isinstance(
                    pos, PartOfSpeech):
                raise InvalidNodeError("POS paragraph %d's pos %r is not a "
                                       "PartOfSpeech" % (node_id, pos))
        for ref in references:
            group = ref.semicolon_group
            if not (0 <= group < len(nodes)
                    and nodes[group].level == _GROUP_LEVEL):
                raise InvalidReferenceError(
                    "reference %r at node %r is not in a semicolon group at "
                    "depth %d" % (ref.entry_text, group, _GROUP_LEVEL))
        texts, groups, poses, heads, keywords = (
            list(map(attrgetter(f.name), references))
            for f in fields(Reference))
        groups, rows = array("i", groups), range(len(references))
        # Each group's references, in the order given, are one run of the
        # reference ids sorted stably by group.
        member_ids = array("i", sorted(range(len(groups)),
                                       key=groups.__getitem__))
        self._setup((tuple(n.parent for n in nodes),
                     tuple(int(n.level) for n in nodes),
                     tuple(n.label for n in nodes),
                     tuple(n.ordinal for n in nodes),
                     tuple(n.head_number for n in nodes),
                     tuple(n.pos for n in nodes)),
                    (texts, groups, rows, poses, heads, keywords),
                    member_ids, array("i", map(groups.__getitem__, member_ids)))

    @classmethod
    def _from_columns(cls, columns, references):
        """A thesaurus of ``_columns``' output, well-formed by its rules.

        ``references`` are the texts and groups of the references, whose
        groups run in id order, and the POS, head number and keyword of
        each group by node id; so the groups are the rows, and each group's
        references are one run of the reference ids.
        """
        texts, groups, poses, heads, keywords = references
        thesaurus = cls.__new__(cls)
        thesaurus._setup(columns, (texts, groups, groups, poses, heads,
                                   keywords), range(len(texts)), groups)
        return thesaurus

    def _setup(self, columns, references, member_ids, member_groups):
        """Keep the node and reference columns and build the keys and index.

        ``member_ids`` lists the reference ids grouped by semicolon group,
        and ``member_groups`` the group of each, in the same order.
        """
        (self.parents, self.levels, self.labels, self.ordinals,
         self.head_numbers, self.poses) = columns
        self._columns = references
        self._member_ids, self._member_groups = member_ids, member_groups
        self.root_id = 0
        self.keys, self._shifts = _pack_keys(self.parents, self.levels)
        # Indexed by the bit length of k1 ^ k2: the deepest level two keys
        # share, and the distance between two depth-8 groups.
        self._levels = tuple(
            max(level for level, shift in enumerate(self._shifts)
                if shift >= length)
            for length in range(self._shifts[0] + 1))
        self._distance = tuple(MAX_DISTANCE - 2 * level
                               for level in self._levels)
        self.index = build_index(self)
        self._records = self.index._records  # index key -> its references
        self._shifted = {}  # index key -> _word_keys(key), filled on first use

    @property
    def nodes(self):
        return _Records(len(self.parents), self._node)

    @property
    def references(self):
        return _Records(len(self._columns[0]), self._reference)

    @property
    def members(self):
        return _Records(len(self.parents), self._members)

    def _reference(self, i):
        return _made(self._columns, (i,))[0]

    def _member_ids_of(self, node_id):
        """The ids of a node's references: a run of ``_member_ids``."""
        groups = self._member_groups
        start = bisect_left(groups, node_id)
        return self._member_ids[start:bisect_right(groups, node_id, start)]

    def _members(self, node_id):
        return tuple(_made(self._columns, self._member_ids_of(node_id)))

    def _entry_texts(self, node_id):
        """The entry texts of a node's references, in the order given."""
        return list(map(self._columns[0].__getitem__,
                        self._member_ids_of(node_id)))

    @cached_property
    def child_ids(self):
        """Per node id, the ids of its children in id order."""
        children = [[] for _ in self.parents]
        for node_id, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent].append(node_id)
        return tuple(map(tuple, children))

    def _node(self, node_id):
        return TaxonomyNode(node_id, Level(self.levels[node_id]),
                            self.labels[node_id], self.ordinals[node_id],
                            self.parents[node_id], self.head_numbers[node_id],
                            self.poses[node_id],
                            list(self.child_ids[node_id]))

    def _display_label(self, node_id):
        return _display(self.levels[node_id], self.labels[node_id],
                        self.head_numbers[node_id], self.poses[node_id])

    def _checked(self, node_id):
        if type(node_id) is not int or not 0 <= node_id < len(self.parents):
            raise InvalidNodeError("unknown node id: %r" % (node_id,))
        return node_id

    def node(self, node_id):
        return self._node(self._checked(node_id))

    @property
    def root(self):
        return self._node(self.root_id)

    def nodes_at_level(self, level):
        return [self._node(i) for i, node_level in enumerate(self.levels)
                if node_level == level]

    def _chain(self, node_id):
        """The root-first ancestor ids of a node, itself last."""
        chain = [node_id]
        while node_id:
            node_id = self.parents[node_id]
            chain.append(node_id)
        chain.reverse()
        return chain

    def ancestors(self, node_id):
        """Path of nodes from the given node up to (and including) Root."""
        chain = self._chain(self._checked(node_id))
        return [self._node(i) for i in reversed(chain)]

    def lowest_common_ancestor(self, a, b):
        """Deepest node that is an ancestor-or-self of both nodes."""
        a, b = self._checked(a), self._checked(b)
        chain_a = self._chain(a)
        level = self._levels[(self.keys[a] ^ self.keys[b]).bit_length()]
        return self._node(chain_a[min(level, len(chain_a) - 1)])

    def _key(self, ref):
        """Key of a reference's group, if the reference is a member."""
        group, text = ref.semicolon_group, ref.entry_text
        # Identity first, with the kept records of the word the entry text
        # is indexed under: the references queried are nearly always this
        # thesaurus's own, from ``lookup``, and Reference equality is a
        # Python-level call.
        kept = self._records.get(text)
        if kept is None:
            kept = self._records.get(self.index._aliases.get(text), ())
        for own in kept:
            if own is ref:
                return self.keys[group]
        # Then by value, as Reference equality would compare it, with the
        # columns of the group's references of the same text; no record is
        # made.
        texts, _, rows, poses, heads, keywords = self._columns
        ids = ()
        if type(ref) is Reference:
            try:
                ids = self._member_ids_of(group)
            except TypeError:
                pass
        for i in ids:
            if texts[i] == text:
                row = rows[i]
                if (poses[row], heads[row], keywords[row]) == (
                        ref.pos, ref.head_number, ref.keyword):
                    return self.keys[group]
        raise InvalidReferenceError(
            "reference %r is not a member of its semicolon group in this "
            "thesaurus" % (ref,))

    def _keys(self, refs):
        """Keys of references that ``lookup`` returned, one read each."""
        keys = self.keys
        return [keys[ref.semicolon_group] for ref in refs]

    def _shift(self, distance):
        """Shift s: groups within ``distance`` are those with k1>>s == k2>>s."""
        return self._shifts[max((MAX_DISTANCE + 1 - distance) // 2, 0)]

    def reference_distance(self, r1, r2):
        """Edges on the shortest tree path between two references' groups."""
        return self._distance[(self._key(r1) ^ self._key(r2)).bit_length()]

    def min_distance(self, w1, refs1, w2, refs2):
        """(Minimum distance, number of pairs attaining it) over refs1 x refs2.

        refs1 and refs2 are what ``lookup`` returned for the words w1 and
        w2, and neither is empty.  When they make at most ``_FEW_PAIRS``
        (6) pairs each pair is measured by ``reference_distance``; a
        single pair is one such call, with a count of 1.  Otherwise each
        word's sorted keys come from ``_word_keys``, read from its groups
        once and then kept: each key of the shorter list is bisected into
        the longer one, from where the key before it landed, and its
        closest key is its predecessor or its successor there.  The pairs
        at the least of those distances are counted by two more bisects
        for each key whose closest key is at that distance, over the keys
        that agree with it down to the shared level; no other key has
        any.  For s references of one word and b >= s of the other that
        is O(s log b), so the cost hardly grows with the larger word.
        Bisecting is the cheaper way from about 4 pairs; the cut-off is 6
        because the traced benchmark counts the per-pair calls of a 3 x 2
        comparison (see ``_FEW_PAIRS``).
        """
        pairs = len(refs1) * len(refs2)
        if pairs <= _FEW_PAIRS:
            if pairs == 1:
                return self.reference_distance(refs1[0], refs2[0]), 1
            measure, best, count = self.reference_distance, MAX_DISTANCE + 1, 0
            for r1 in refs1:
                for r2 in refs2:
                    distance = measure(r1, r2)
                    if distance < best:
                        best, count = distance, 1
                    elif distance == best:
                        count += 1
            return best, count
        small, big = self._word_keys(w1), self._word_keys(w2)
        if len(small) > len(big):
            small, big = big, small
        # The key of big closest to k by XOR is its predecessor or its
        # successor, big[i - 1] or big[i] for k's place i; small is sorted,
        # so each search starts at the last key's place.  Capping i at
        # len(big) - 1 keeps big[i] a key; at 0, big[i - 1] is the last key,
        # so both stay real pairs, and a one-key big is compared with itself.
        last, i, nearest = len(big) - 1, 0, []
        for k in small:
            i = bisect_left(big, k, i, last)
            x, y = k ^ big[i], k ^ big[i - 1]
            nearest.append(x if x < y else y)
        distance = self._distance[(min(nearest) >> 1).bit_length()]
        # The keys of big that share k's fields down to the closest pairs'
        # level are those in [start, start + step).  Only a k whose nearest
        # key shares them has any, as the nearest key shares the longest
        # prefix, so only such keys are bisected again.
        shift = self._shift(distance) + 1
        step, count = 1 << shift, 0
        for k, x in zip(small, nearest):
            if not x >> shift:
                start = k >> shift << shift
                count += (bisect_left(big, start + step)
                          - bisect_left(big, start))
        return distance, count

    def _word_keys(self, text):
        """The sorted keys of ``lookup(text)``'s groups, shifted left one bit.

        The tuple is made on the word's first call and kept by index key,
        from the word's kept records, so a word that ``lookup`` has read
        has its id chain walked once.  A text under which keys or records
        are kept is its own normalization, so it is read without a second
        ``normalize``.  The text is in the index.  Threads that make
        one word's tuple at once each build it; ``setdefault`` keeps one.
        """
        shifted = self._shifted.get(text)
        if shifted is None:
            word = text if text in self._records else normalize(text)
            shifted = self._shifted.get(word)
        if shifted is None:
            # Fresh ints, made together, lie close in memory, where the
            # objects of ``keys`` lie scattered: with keys stored pre-shifted
            # and these tuples sharing them, a kernel that sorted both words'
            # keys ran 6-10% slower on the benchmark's synonym-test
            # questions, whose op_p50_ms rose 7%.  A parsed thesaurus lists
            # a word's references in key order, so the sort is one pass.
            keys = self.keys
            shifted = self._shifted.setdefault(word, tuple(sorted([
                keys[ref.semicolon_group] << 1
                for ref in self.index._read(word)])))
        return shifted

    def pairs_within(self, refs1, refs2, distance):
        """Yield each pair of refs1 x refs2 at most ``distance`` apart.

        Pairs come in document order (refs1 outer, refs2 inner), lazily;
        the references are this thesaurus's, as ``lookup`` returns them,
        and ``distance`` is at least 0.
        """
        shift = self._shift(distance)
        near = {}
        for ref, key in zip(refs2, self._keys(refs2)):
            near.setdefault(key >> shift, []).append(ref)
        for ref, key in zip(refs1, self._keys(refs1)):
            for other in near.get(key >> shift, ()):
                yield ref, other

    def tree_path(self, r1, r2):
        """The unique path between two references, as display labels.

        The sequence starts with r1's entry text, climbs from r1's
        paragraph to the lowest common ancestor, descends to r2's
        paragraph and ends with r2's entry text.  Semicolon-group nodes
        are not printed, matching the convention where the distance-2
        path reads ``feline -> cat <- lynx``: the visible connector count
        equals the edge count for every distance >= 2.  For distance 0
        the sequence is just the two entry texts.

        Returns (labels, apex_index) where apex_index is the position of
        the lowest common ancestor's label (1, r2's entry, at distance 0).
        """
        level = self._levels[(self._key(r1) ^ self._key(r2)).bit_length()]
        chain1 = self._chain(r1.semicolon_group)
        chain2 = self._chain(r2.semicolon_group)
        up = [self._display_label(i) for i in reversed(chain1[level:-1])]
        down = [self._display_label(i) for i in chain2[level + 1:-1]]
        return [r1.entry_text] + up + down + [r2.entry_text], max(len(up), 1)

    def render_path(self, r1, r2):
        """Arrow rendering of tree_path: up-arrows to the apex, then down."""
        labels, apex = self.tree_path(r1, r2)
        parts = [labels[0]]
        for i, label in enumerate(labels[1:]):
            arrow = "→" if i + 1 <= apex else "←"
            parts.append(" %s %s" % (arrow, label))
        return "".join(parts)

    def lookup(self, text):
        """New list of references whose normalized text is normalize(text)."""
        return list(self.index._read(normalize(text)))
