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

The tree is stored as per-node columns and maps and each reference as its
entry text and group; ``TaxonomyNode`` and ``Reference`` records are made
from them only when read, and changing a node record changes nothing in
the thesaurus.  A node keeps only the fields its record writes; the
others are read from the tree.  A word's references are made on its first
``lookup`` or ``index`` read and then kept, so later reads return the same
objects; ``references`` and ``members`` make new, equal records on each
read.  Every record carries its thesaurus's mark, by which the thesaurus
knows it as a member; any other reference is checked by value.
``Thesaurus`` rejects a node whose level is not its depth and a reference
outside a semicolon group or unlike its group (see ``Reference``).
"""

import unicodedata
from array import array
from bisect import bisect_left
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, fields
from enum import Enum, IntEnum
from functools import cached_property
from itertools import chain, islice, repeat
from operator import attrgetter

from .errors import InvalidNodeError, InvalidReferenceError

MAX_DISTANCE = 16
_GROUP_LEVEL = 8  # the depth of every semicolon group; no node is deeper

# Thesaurus._min_distance, word_min_distance's kernel, measures each pair
# with reference_distance while there are at most this many pairs, reading
# the keys of lookup's own records in place.  Per call, pair by pair against
# bisected with the keys cached, on a shared 2-vCPU VM with Python 3.11
# (seed-1 benchmark thesaurus; per shape the median over 20 word pairs, each
# the best of 9 interleaved runs of 500 calls; six runs): 1x1 0.21-0.24 and
# 0.71-0.84 us, 1x2 0.47-0.53 and 0.75-0.86, 1x3 0.63-0.71 and 0.80-0.93, 2x2
# 0.81-0.86 and 1.06-1.14, 1x4 0.78-0.87 and 0.79-0.90, 2x3 1.09-2.20 and
# 1.06-2.19, 3x3 1.58-3.23 and 1.33-2.70, and 4x4 2.61-2.90 and 1.62-1.74.
# Pair by pair was the cheaper at 1x3 and 2x2 in every run, the two were
# within 3% at 1x4 and 2x3, and bisecting was the cheaper from 3x3, so 6 is
# the break-even.  The traced benchmark also pins the value: it counts the
# per-pair reference_distance calls of its fixture's feline x lynx
# comparison, 3 x 2 pairs.  It is read at call time, so tests can patch it
# here.
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
# The levels whose records write a label, and those whose records write an
# ordinal (see ``TaxonomyNode``).
_LABEL_LEVELS = frozenset([Level.CLASS, Level.SECTION, Level.SUB_SECTION,
                           Level.HEAD_GROUP, Level.HEAD])
_ORDINAL_LEVELS = frozenset([Level.CLASS, Level.SECTION, Level.SUB_SECTION,
                             Level.HEAD_GROUP, Level.PARAGRAPH])


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

    ``pos``, ``head_number`` and ``keyword`` are read from the group's POS
    paragraph, head and paragraph, whose label, its first group's first
    entry, is the keyword of the printed form ``cat 365 N.``; a
    ``Thesaurus`` rejects a reference whose fields are not its group's, and
    checks by value any record it did not mark in the private ``_made_by``,
    which ``repr``, ``==``, ``hash`` and the constructor leave out.
    """

    entry_text: str
    semicolon_group: int
    pos: PartOfSpeech
    head_number: int
    keyword: str
    _made_by: object = field(default=None, init=False, repr=False,
                             compare=False)

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
    """One tree node, as given to ``Thesaurus`` or made by ``nodes``.

    A thesaurus keeps only the fields a node's record writes: the ordinal
    and label of a class, section, sub-section or head group, a head's
    number and label, a POS paragraph's POS and a paragraph's ordinal.  The
    root's label is "T" and its ordinal 0; another ordinal is the node's
    1-based rank among its siblings; a semicolon group's label is its first
    entry ("" if none), a paragraph's its first group's and a POS
    paragraph's its POS tag; ``head_number`` and ``pos`` are otherwise None.
    """

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
(_set_text, _set_group, _set_pos, _set_head, _set_keyword, _set_made_by) = (
    getattr(Reference, f.name).__set__ for f in fields(Reference))


def _group_fields(tree, group):
    """(POS, head number, keyword) of a semicolon group's references: of
    its POS paragraph, head and paragraph in ``tree``, the node fields."""
    parents, heads, poses, keywords = tree
    paragraph = parents[group]
    above = parents[paragraph]  # the POS paragraph
    return poses[above], heads[parents[above]], keywords[paragraph]


def _made(columns, ids):
    """New records of the reference ids, read from a Thesaurus's columns.

    ``columns`` are a Thesaurus's ``_columns``: entry texts, groups, node
    fields and the mark.  Each record is made by ``object.__new__`` and filled
    through the slot descriptors, at about half the cost of ``Reference``,
    whose frozen ``__init__`` calls ``object.__setattr__`` per field.
    """
    texts, groups, tree, mark = columns
    refs = []
    for i in ids:
        group = groups[i]
        pos, head, keyword = _group_fields(tree, group)
        ref = _new(Reference)
        _set_text(ref, texts[i])
        _set_group(ref, group)
        _set_pos(ref, pos)
        _set_head(ref, head)
        _set_keyword(ref, keyword)
        _set_made_by(ref, mark)
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
    reads return the same objects, under the thesaurus's own string
    (``_own``), not a new one from ``normalize``.  It holds the columns,
    not the thesaurus, and ``_aliases``, the key of each entry text that
    is not its own normalization.
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

    def _own(self, key):
        """The thesaurus's own string equal to ``key``; None if not a key."""
        i = self._last.get(key)
        if i is None:
            return None
        text = self._columns[0][i]
        return self._aliases.get(text, text)

    def _read(self, key):
        """The kept references of ``key``, made on its first read; () if
        it is not a key.  Threads that read one key first at once each
        make its records; ``setdefault`` keeps one tuple for all of them.
        """
        refs = self._records.get(key)
        if refs is None:
            key = self._own(key)
            if key is None:
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
    ``references`` are kept in document order: sorted stably by their
    groups' keys (below), each group's in the order given.  A node's fields
    that its record does not write are not read (see ``TaxonomyNode``).  The
    constructor raises ``InvalidNodeError`` for a node whose id is not an
    int at its position, a level that is not a ``Level``, a parent that is
    not an earlier node (node 0 is the one root, with parent -1), a level
    that is not the node's depth (one more than its parent's, the root at
    0), a written ordinal that is not an int, a head whose ``head_number``
    is not a positive int or a POS paragraph whose ``pos`` is not a
    ``PartOfSpeech``, and ``InvalidReferenceError`` for a reference whose
    entry text is not a str, outside a semicolon group or unlike its
    group.  The references' entry texts and groups are checked first, then
    their other fields, each check naming the first bad reference in the
    order given.  A node's children are the nodes naming it, in id order.

    The tree is kept as two per-node columns, tuples indexed by node id,
    ``parents`` (-1 for the root) and ``levels`` (ints), and four maps,
    ``labels``, ``ordinals``, ``head_numbers`` and ``poses``, each from the
    id of every node whose record writes that field to its value.
    ``nodes`` is a read-only sequence that makes a ``TaxonomyNode`` from
    them, and from the tree, when read.  Each reference is kept as its
    entry text and group, in document order, so a node's references are one
    run of the reference ids, which two per-node arrays start and end.
    ``_setup`` builds them, for a parse and the constructor alike, from the
    id and size of each group's run, in document order.
    ``references`` makes a new record from the columns on each read, and
    ``members``, per node id, a tuple of the records of a semicolon group's
    references (empty for every other node), so every reference is a
    member.  A record marked with the last item of ``_columns`` is a
    member: ``reference_distance`` reads two such records in place, and
    ``_key`` takes one at once and checks any other reference by value.

    Per node id, ``keys`` holds one int packing the node's root-first
    path: for each level d from 1 to 8, a bit field holding the 1-based
    rank of the node's level-d ancestor among its siblings (children of
    one parent, in id order), level 1 highest.  Levels below the node hold
    0 and the root's key is 0, so, as a node's level is its depth, the keys
    sort into document order, preorder with siblings in id order, in which
    ``_document_order`` lists the node ids.  A level's field is as wide as
    its largest family needs: on the benchmark's synthetic thesaurus at
    the 1987 edition's scale a key takes 28 bits, so it fits one 30-bit
    CPython int digit, and ``_min_distance`` bisects, XORs and shifts
    one-digit ints, the very objects of ``keys`` that ``_word_keys`` keeps.
    Two nodes first differ at the level whose field holds the top set bit
    of ``k1 ^ k2``, so a reference distance is one table lookup by that
    bit length.  ``index`` is ``build_index(self)``, which
    chains each word's reference ids and walks them on the word's first
    read.  ``word_min_distance``, the only entry to the word distance,
    passes ``_min_distance`` the two lists ``lookup`` returned.  For s
    references of one word and b >= s of the other it costs O(s log b),
    and ``_pairs_within`` O(s + b) plus one step per pair it yields, not
    s*b.

    Answers never change after construction: the columns, maps and
    ``keys`` are tuples, arrays or dicts no method writes, ``nodes``,
    ``references``, ``members`` and ``index`` are read-only, and every
    query method is safe to call concurrently.  The only state a query
    writes is ``child_ids`` and two private per-word caches.
    ``child_ids`` is built once, on the first ``node``, ``nodes`` item,
    ``root``, ``ancestors``, ``lowest_common_ancestor`` or
    ``nodes_at_level`` read; threads that build it at once store equal
    tuples.  Each cache is filled by ``setdefault`` with one tuple per
    index key at most, so each is bounded by the index: the records of a
    word's references, made on its first ``lookup`` or ``index`` read,
    and the sorted group keys of ``_word_keys``.
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
            if level in _ORDINAL_LEVELS and type(node.ordinal) is not int:
                raise InvalidNodeError("node %d's ordinal %r is not an int"
                                       % (node_id, node.ordinal))
            if level == Level.HEAD and not (type(node.head_number) is int
                                            and node.head_number > 0):
                raise InvalidNodeError("head %d's number %r is not a positive "
                                       "int" % (node_id, node.head_number))
            if level == Level.POS_PARAGRAPH and not isinstance(
                    node.pos, PartOfSpeech):
                raise InvalidNodeError("POS paragraph %d's pos %r is not a "
                                       "PartOfSpeech" % (node_id, node.pos))
        tree = (tuple(n.parent for n in nodes),
                tuple(int(n.level) for n in nodes),
                {n.id: n.label for n in nodes if n.level in _LABEL_LEVELS},
                {n.id: n.ordinal for n in nodes if n.level in _ORDINAL_LEVELS},
                {n.id: n.head_number for n in nodes if n.level == Level.HEAD},
                {n.id: n.pos for n in nodes
                 if n.level == Level.POS_PARAGRAPH})
        for ref in references:
            group = ref.semicolon_group
            if not isinstance(ref.entry_text, str):
                raise InvalidReferenceError(
                    "reference %r has an entry text that is not a str"
                    % (ref,))
            if not (type(group) is int and 0 <= group < len(nodes)
                    and nodes[group].level == _GROUP_LEVEL):
                raise InvalidReferenceError(
                    "reference %r at node %r is not in a semicolon group at "
                    "depth %d" % (ref.entry_text, group, _GROUP_LEVEL))
        # Kept sorted stably by their groups' keys, in document order, so
        # each group's references, in the order given, are one run, and the
        # groups are counted in that order.
        keys, shifts = _pack_keys(tree[0], tree[1])
        kept = sorted(references, key=lambda ref: keys[ref.semicolon_group])
        runs = Counter(map(attrgetter("semicolon_group"), kept))
        self._setup(tree, (keys, shifts),
                    list(map(attrgetter("entry_text"), kept)), runs.keys(),
                    runs.values())
        # Checked once the paragraph labels are read from the references.
        tree = self._columns[2]
        for ref in references:
            if (ref.pos, ref.head_number, ref.keyword) != _group_fields(
                    tree, ref.semicolon_group):
                raise InvalidReferenceError(
                    "reference %r does not have its semicolon group's POS, "
                    "head number and keyword" % (ref,))

    @classmethod
    def _from_columns(cls, tree, references):
        """A thesaurus of ``_columns``' output, well-formed by its rules:
        the tree and the references' entry texts, group ids and sizes."""
        thesaurus = cls.__new__(cls)
        thesaurus._setup(tree, _pack_keys(tree[0], tree[1]), *references)
        return thesaurus

    def _setup(self, tree, packed, texts, groups, sizes):
        """Keep the node and reference columns and build the member runs,
        the paragraph labels and the index.

        ``packed`` is ``_pack_keys``' output, ``texts`` the references'
        entry texts in document order, and ``groups`` and ``sizes`` the id
        and reference count of each group with references, in that order:
        each group's run of reference ids starts where the one before ends,
        and a group left out has an empty run.
        """
        (self.parents, self.levels, self.labels, self.ordinals,
         self.head_numbers, self.poses) = tree
        starts = array("i", [0]) * len(self.parents)
        ends = starts[:]
        end = 0
        for group, size in zip(groups, sizes):
            starts[group] = end
            end += size
            ends[group] = end
        self._member_starts, self._member_ends = starts, ends
        # From here on, per reference, the id of its group.
        groups = array("i", list(chain.from_iterable(map(repeat, groups,
                                                         sizes))))
        self.root_id = 0
        self.keys, self._shifts = packed
        # Indexed by the bit length of k1 ^ k2: the deepest level two keys
        # share, and the distance between two depth-8 groups.
        self._levels = tuple(
            max(level for level, shift in enumerate(self._shifts)
                if shift >= length)
            for length in range(self._shifts[0] + 1))
        self._distance = tuple(MAX_DISTANCE - 2 * level
                               for level in self._levels)
        # And the shift past the fields two keys share: its bits below hold
        # the fields they may differ in.
        self._count_shifts = tuple(self._shifts[level]
                                   for level in self._levels)
        # Each reference reads its paragraph's label, its first group's: that
        # of the group whose key's lowest field, its rank, is 1.
        ranks = (1 << self._shifts[_GROUP_LEVEL - 1]) - 1
        self._keywords = {  # paragraph id -> its label
            self.parents[node_id]: texts[starts[node_id]]
            if starts[node_id] < ends[node_id] else ""
            for node_id, key in enumerate(self.keys) if key & ranks == 1}
        self._columns = (texts, groups, (self.parents, self.head_numbers,
                                         self.poses, self._keywords),
                         object())  # the mark of every record _made makes
        self.index = build_index(self)
        self._records = self.index._records  # index key -> its references
        self._group_keys = {}  # index key -> _word_keys(lookup(key)), lazily

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

    def _members(self, node_id):
        return tuple(_made(self._columns, range(self._member_starts[node_id],
                                                self._member_ends[node_id])))

    def _entry_texts(self, node_id):
        """The entry texts of a node's references, in their order."""
        return self._columns[0][self._member_starts[node_id]:
                                self._member_ends[node_id]]

    def _document_order(self):
        """The node ids in document order, the root first: sorted by key."""
        return sorted(range(len(self.keys)), key=self.keys.__getitem__)

    @cached_property
    def child_ids(self):
        """Per node id, the ids of its children in id order."""
        children = [[] for _ in self.parents]
        for node_id, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent].append(node_id)
        return tuple(map(tuple, children))

    def _label(self, node_id):
        """The label a node's record writes, or else read from the tree."""
        level = self.levels[node_id]
        if level == _GROUP_LEVEL:
            return (self._entry_texts(node_id) or [""])[0]
        if level in _LABEL_LEVELS:
            return self.labels[node_id]
        if level == Level.PARAGRAPH:
            return self._keywords.get(node_id, "")
        if level == Level.POS_PARAGRAPH:
            return self.poses[node_id].value
        return "T"

    def _ordinal(self, node_id):
        """The ordinal a node's record writes, or else its key's rank."""
        level = self.levels[node_id]
        if level in _ORDINAL_LEVELS:
            return self.ordinals[node_id]
        if not node_id:
            return 0
        return ((self.keys[node_id] - self.keys[self.parents[node_id]])
                >> self._shifts[level])

    def _node(self, node_id):
        return TaxonomyNode(node_id, Level(self.levels[node_id]),
                            self._label(node_id), self._ordinal(node_id),
                            self.parents[node_id],
                            self.head_numbers.get(node_id),
                            self.poses.get(node_id),
                            list(self.child_ids[node_id]))

    def _display_label(self, node_id):
        return _display(self.levels[node_id], self._label(node_id),
                        self.head_numbers.get(node_id),
                        self.poses.get(node_id))

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
        # A record this thesaurus made carries its mark.  Any other is
        # checked by value, as Reference equality would compare it, with no
        # record made: the group has the text, and its fields are the
        # reference's.  A thesaurus's groups are ints among its node ids.
        if type(ref) is Reference and (ref._made_by is self._columns[3] or (
                type(group) is int and 0 <= group < len(self.parents)
                and text in self._entry_texts(group)
                and _group_fields(self._columns[2], group) == (
                    ref.pos, ref.head_number, ref.keyword))):
            return self.keys[group]
        raise InvalidReferenceError(
            "reference %r is not a member of its semicolon group in this "
            "thesaurus" % (ref,))

    def reference_distance(self, r1, r2):
        """Edges on the shortest tree path between two references' groups.

        Two records this thesaurus marked are read in place, each key from
        its group with no call; any other pair goes through ``_key``, which
        checks by value a reference the thesaurus did not mark.
        """
        mark = self._columns[3]
        if (type(r1) is Reference and type(r2) is Reference
                and r1._made_by is mark and r2._made_by is mark):
            keys = self.keys
            return self._distance[(keys[r1.semicolon_group]
                                   ^ keys[r2.semicolon_group]).bit_length()]
        return self._distance[(self._key(r1) ^ self._key(r2)).bit_length()]

    def _min_distance(self, refs1, refs2):
        """(Minimum distance, number of pairs attaining it) over refs1 x refs2.

        refs1 and refs2 are the two non-empty lists ``lookup`` returned to
        ``word_min_distance``, the one caller, and both paths read only
        them.  When they make at most ``_FEW_PAIRS`` (6) pairs each pair is
        measured by ``reference_distance``; a single pair is one such call,
        with a count of 1.  Otherwise each word's sorted keys come from
        ``_word_keys``, read from its records once and then kept: each key
        of the shorter list is bisected into the longer one, from where the
        key before it landed, and its closest key is its predecessor or its
        successor there.  In the same pass a key whose closest key is at
        least as near as every earlier key's counts, by two more bisects,
        the keys that agree with it down to that level; the count restarts
        when a key is nearer than all before it.  For words of s and b >= s
        references that is O(s log b), so the cost hardly grows with the
        larger word.  ``_FEW_PAIRS`` says why the cut-off is 6.
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
        small, big = self._word_keys(refs1), self._word_keys(refs2)
        if len(small) > len(big):
            small, big = big, small
        # The key of big closest to k by XOR is its predecessor or its
        # successor, big[i - 1] or big[i] for k's place i; small is sorted,
        # so each search starts at the last key's place.  Capping i at
        # len(big) - 1 keeps big[i] a key; at 0, big[i - 1] is the last key,
        # so both stay real pairs, and a one-key big is compared with itself.
        # The keys of big sharing k's fields down to its nearest key's level
        # are those in [start, start + (1 << s)).  The best level is kept as
        # its shift, at first one past the root's, so the first key sets it:
        # several bit lengths share a level.
        count_shifts, last, i, count = self._count_shifts, len(big) - 1, 0, 0
        # bound is 1 << shift: a key whose nearest XOR is below it is as near.
        shift, bound = self._shifts[0] + 1, 2 << self._shifts[0]
        for k in small:
            i = bisect_left(big, k, i, last)
            x, y = k ^ big[i], k ^ big[i - 1]
            if y < x:
                x = y
            if x >= bound:
                continue
            s = count_shifts[x.bit_length()]
            if s < shift:
                shift, bound, count = s, 1 << s, 0
            start = k >> s << s
            count += bisect_left(big, start + bound) - bisect_left(big, start)
        return self._distance[shift], count

    def _word_keys(self, refs):
        """The keys of a word's groups, sorted: ``keys``' own int objects.

        ``refs`` is a non-empty list ``lookup`` returned, so it holds only
        this thesaurus's own records of one index key, the key its first
        entry text is an alias of or that text itself, in document order and
        so sorted by key.  The tuple, one key per record in that order, is
        made on the word's first call and kept by that key.  Threads that
        make one word's tuple at once each build it; ``setdefault`` keeps
        one.
        """
        text = refs[0].entry_text
        word = self.index._aliases.get(text, text)
        group_keys = self._group_keys.get(word)
        if group_keys is None:
            keys = self.keys
            group_keys = self._group_keys.setdefault(word, tuple([
                keys[ref.semicolon_group] for ref in refs]))
        return group_keys

    def _pairs_within(self, refs1, refs2, distance):
        """Yield each pair of refs1 x refs2 at most ``distance`` apart.

        Both lists hold only this thesaurus's own records, as ``lookup``
        returns them, so each record's key is read from its group with no
        check.  Pairs come in document order (refs1 outer, refs2 inner),
        lazily; ``distance`` is a minimum ``_min_distance`` returned, an even
        count from 0 to ``MAX_DISTANCE``, and groups within it have keys
        that agree above ``shift``.
        """
        shift = self._shifts[(MAX_DISTANCE - distance) // 2]
        keys = self.keys
        near = {}
        for ref in refs2:
            near.setdefault(keys[ref.semicolon_group] >> shift, []).append(ref)
        for ref in refs1:
            for other in near.get(keys[ref.semicolon_group] >> shift, ()):
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
        """New list of references whose normalized text is normalize(text).

        A text under which records are kept is an index key, and so its own
        normalization: its records are read without ``normalize``, which
        runs only for a text with none kept.
        """
        refs = self._records.get(text)
        if refs is None:
            refs = self.index._read(normalize(text))
        return list(refs)
