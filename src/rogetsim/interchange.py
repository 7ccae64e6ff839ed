"""Parsing, serialization and validation of the thesaurus interchange format.

The format is UTF-8 and line-oriented: a leading keyword, a single space,
then the payload.  ``#`` lines are comments, blank lines are ignored, and
lines end at ``\n``, ``\r\n`` or ``\r``, whether the document is given as
a string or as a text stream.

    C <ordinal> <label>        Class
    S <ordinal> <label>        Section
    U <ordinal> <label>        Sub-Section
    G <ordinal> <label>        Head Group
    H <head-number> <label>    Head
    P <POS>                    POS paragraph, POS in {N, ADJ, VB, ADV}
    Q <ordinal>                paragraph within the current POS block
    ; <entry> | <entry> | ...  one semicolon group

A record at level L attaches to the most recent record at level L-1;
emitting level L without a live L-1 ancestor is a hard parse error, as
are duplicate head numbers and empty semicolon groups.  One leading
byte-order mark is dropped, from a string, a stream or a file alike.

``parse_interchange`` reads the document line by line, appending each
record to the per-node columns of ``Thesaurus``; the entries of the
semicolon groups are split, stripped and appended to one per-reference
column a block of groups at a time, and each group's POS, head and keyword
are read from its ancestors after the last line.  No node or ``Reference``
objects are built.  ``serialize``, ``validate_structure`` and
``structure_signature`` read those columns.
"""

import gc
import io
from array import array
from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import accumulate, chain, repeat
from typing import NamedTuple

from .errors import ParseError
from .taxonomy import Level, PartOfSpeech, Thesaurus
from .taxonomy import build_index, normalize  # noqa: F401  (public names)


class _Record(NamedTuple):
    keyword: str  # leading keyword in the interchange format
    name: str     # record name in messages
    counter: str  # StructureReport counter field
    row: str      # StructureReport.lines() row label


_RECORDS = {
    Level.CLASS: _Record("C", "class", "classes", "Classes"),
    Level.SECTION: _Record("S", "section", "sections", "Sections"),
    Level.SUB_SECTION: _Record("U", "sub-section", "sub_sections",
                               "Sub-Sections"),
    Level.HEAD_GROUP: _Record("G", "head group", "head_groups",
                              "Head Groups"),
    Level.HEAD: _Record("H", "head", "heads", "Heads"),
    Level.POS_PARAGRAPH: _Record("P", "POS paragraph", "pos_paragraphs",
                                 "POS paragraphs"),
    Level.PARAGRAPH: _Record("Q", "paragraph", "paragraphs", "Paragraphs"),
    Level.SEMICOLON_GROUP: _Record(";", "semicolon group",
                                   "semicolon_groups", "Semicolon groups"),
}
_KEYWORD_LEVELS = {record.keyword: int(level)
                   for level, record in _RECORDS.items()}
_POS_TAGS = {pos.value: pos for pos in PartOfSpeech}
# Levels whose records carry an ordinal, which siblings must not share.
_ORDINAL_LEVELS = frozenset([Level.CLASS, Level.SECTION, Level.SUB_SECTION,
                             Level.HEAD_GROUP, Level.PARAGRAPH])
# Semicolon groups whose payloads ``_columns`` splits and strips together.
# Splitting all 48,000 of the benchmark's seed-1 thesaurus at once raised a
# load's peak RSS from 53.3 to 58.3 MB (Python 3.11); in blocks of this size
# the splitting is as fast and the peak stays at 53.3 MB.
_BLOCK = 1024
_EMPTY_ENTRY = "empty semicolon group entry"


def _numbered_lines(source):
    """(1-based line number, line) of every line of ``source``.

    ``source`` is a string or a text stream.  A string is read as a stream
    with universal newlines, so it splits into lines exactly as a file
    opened in text mode does.  One byte-order mark (U+FEFF) at the start
    of the source is dropped; anywhere else it is text.  A line keeps its
    line ending.
    """
    if isinstance(source, str):
        source = io.StringIO(source, newline=None)
    lines = iter(source)
    first = next(lines, "").removeprefix("\ufeff")
    return enumerate(chain((first,), lines), start=1)


def data_lines(source):
    """Yield (1-based line number, line) for each non-blank, non-'#' line.

    The lines are those of ``_numbered_lines``: ``source`` is a string or a
    text stream, and one leading byte-order mark is dropped.  The line
    keeps its whitespace but not its line ending.
    """
    for line_no, raw in _numbered_lines(source):
        line = raw.rstrip("\n").rstrip("\r")
        text = line.lstrip()
        if text and text[0] != "#":
            yield line_no, line


def _fail(message, line_no, column=1):
    raise ParseError(message, line=line_no, column=column)


def _ordinal_and_label(payload, level, line_no):
    parts = payload.split(None, 1)
    if not parts:
        _fail("%s record needs an ordinal and a label" % _RECORDS[level].name,
              line_no, 3)
    try:
        number = int(parts[0])
    except ValueError:
        _fail("%s record has non-integer ordinal %r"
              % (_RECORDS[level].name, parts[0]), line_no, 3)
    return number, parts[1].strip() if len(parts) > 1 else ""


def parse_interchange(source):
    """Parse interchange text (a string or a text stream) into a Thesaurus.

    At the 1987 edition's scale the parse sets off no collection and
    leaves some 50 tracked containers holding about 770,000 items.  They
    go to the oldest generation untraversed (``gc.freeze``, ``gc.unfreeze``):
    left young, the first queries' collections traverse them and soon make
    a full one, slowing a fresh load's first 200 synonym questions 7-28%.
    """
    thesaurus = Thesaurus._from_columns(*_columns(source))
    gc.freeze()
    gc.unfreeze()
    return thesaurus


def _first_empty(payloads, line_numbers):
    """The line number of the first group payload with an empty entry, if
    any."""
    for payload, line_no in zip(payloads, line_numbers):
        if "" in map(str.strip, payload.split("|")):
            return line_no
    return None


def _columns(source):
    """(Node columns, reference columns) of the interchange text.

    The loop over the lines keeps the tree: it appends each record to the
    per-node columns, a semicolon group with no label yet, and keeps each
    group's payload and line number.  Every ``_BLOCK`` groups, and after
    the last line, the payloads kept are joined, split into entries and
    stripped, each in one pass over the block, and the entry texts are
    appended to one per-reference column, equal texts sharing one string.
    After the loop each group's label, its first entry, is read from that
    column; its paragraph's keyword, and label, is its first group's label;
    and its POS, head and keyword are read from its ancestors and put at
    its node id.  Errors are raised in document order: one the loop raises
    gives way to an empty entry in a group not yet split, which comes
    before it.
    """
    parents, levels, labels, ordinals = [-1], [0], ["T"], [0]
    head_numbers, poses = [None], [None]
    groups = []  # node id of each semicolon group
    texts, sizes = [], []  # per reference; per group its entry count
    payloads, payload_lines = [], []  # of the groups not yet split
    share = {}.setdefault  # entry text -> its one string object
    open_ids = [0] * 8   # most recent node id per level
    counts = [0] * 9     # children so far of the open node one level up
    depth = 0            # level of the last record: levels 0..depth are open
    seen_heads = set()

    def split_payloads():
        entries = list(map(str.strip, "|".join(payloads).split("|")))
        if "" in entries:
            _fail(_EMPTY_ENTRY, _first_empty(payloads, payload_lines), 3)
        texts.extend(map(share, entries, entries))
        sizes.extend(map((1).__add__, map(str.count, payloads, repeat("|"))))
        payloads.clear()
        payload_lines.clear()

    try:
        for line_no, line in _numbered_lines(source):
            parts = line.split(None, 1)
            if not parts:
                continue
            kind = parts[0]
            if kind == ";" and depth > 6 and len(parts) == 2:
                payloads.append(parts[1])
                payload_lines.append(line_no)
                node_id, parent = len(parents), open_ids[7]
                groups.append(node_id)
                parents.append(parent)
                levels.append(8)
                labels.append(None)
                ordinals.append(node_id - parent)  # a paragraph's groups
                head_numbers.append(None)          # follow it
                poses.append(None)
                depth = 8
                if len(payloads) == _BLOCK:
                    split_payloads()
                continue
            if kind[0] == "#":
                continue
            level = _KEYWORD_LEVELS.get(kind)
            if level is None:
                _fail("unknown record keyword %r" % kind, line_no)
            if level > depth + 1:
                _fail("%s record has no open %s to attach to (nesting rule: "
                      "level %d attaches to the most recent level %d record)"
                      % (_RECORDS[level].name, _RECORDS[level - 1].name,
                         level, level - 1), line_no)
            if kind == ";":  # a group with no payload
                _fail(_EMPTY_ENTRY, line_no, 3)
            payload = parts[1].strip() if len(parts) > 1 else ""
            node_id, parent = len(parents), open_ids[level - 1]
            counts[level] += 1
            counts[level + 1] = 0
            label, ordinal, number, tag = "", counts[level], None, None
            if kind == "Q":
                try:
                    ordinal = int(payload)
                except ValueError:
                    _fail("paragraph record has non-integer ordinal %r"
                          % payload, line_no, 3)
            elif kind == "P":
                tag = _POS_TAGS.get(payload)
                if tag is None:
                    _fail("POS must be one of N, ADJ, VB, ADV, got %r"
                          % payload, line_no, 3)
                label = payload
            elif kind == "H":
                number, label = _ordinal_and_label(payload, level, line_no)
                if number <= 0:
                    _fail("head number must be positive, got %d" % number,
                          line_no, 3)
                if number in seen_heads:
                    _fail("duplicate head number %d" % number, line_no, 3)
                seen_heads.add(number)
            else:
                ordinal, label = _ordinal_and_label(payload, level, line_no)
            parents.append(parent)
            levels.append(level)
            labels.append(label)
            ordinals.append(ordinal)
            head_numbers.append(number)
            poses.append(tag)
            open_ids[level] = node_id
            depth = level
    except (ParseError, UnicodeDecodeError):
        # The groups not yet split come before the line that raised, or the
        # text that could not be decoded.
        line_no = _first_empty(payloads, payload_lines)
        if line_no is None:
            raise
        raise ParseError(_EMPTY_ENTRY, line=line_no, column=3) from None
    if payloads:
        split_payloads()

    # A group's label is its first entry, and a paragraph's keyword, which
    # is its label and its groups' keyword, the first entry of its first
    # group.
    firsts = list(map(texts.__getitem__,
                      list(accumulate(sizes, initial=0))[:-1]))
    paragraphs = list(map(parents.__getitem__, groups))
    keyword_of = {}  # paragraph id -> its keyword
    keywords = list(map(keyword_of.setdefault, paragraphs, firsts))
    deque(map(labels.__setitem__, chain(groups, keyword_of),
              chain(firsts, keyword_of.values())), maxlen=0)
    pos_paragraphs = list(map(parents.__getitem__, paragraphs))
    by_node = []
    for column in (map(poses.__getitem__, pos_paragraphs),
                   map(head_numbers.__getitem__,
                       map(parents.__getitem__, pos_paragraphs)),
                   keywords):
        values = [None] * len(parents)
        deque(map(values.__setitem__, groups, column), maxlen=0)
        by_node.append(values)
    groups = array("i", list(chain.from_iterable(map(repeat, groups, sizes))))
    return (tuple(map(tuple, (parents, levels, labels, ordinals, head_numbers,
                              poses))), (texts, groups, *by_node))


def serialize(thesaurus):
    """Render a Thesaurus back to interchange text, nodes in key order."""
    t = thesaurus
    lines = []
    for node_id in sorted(range(1, len(t.keys)), key=t.keys.__getitem__):
        level, label = t.levels[node_id], t.labels[node_id]
        if level == Level.HEAD:
            payload = "%d %s" % (t.head_numbers[node_id], label)
        elif level == Level.POS_PARAGRAPH:
            payload = t.poses[node_id].value
        elif level == Level.PARAGRAPH:
            payload = "%d" % t.ordinals[node_id]
        elif level == Level.SEMICOLON_GROUP:
            payload = " | ".join(t._entry_texts(node_id))
        else:
            payload = "%d %s" % (t.ordinals[node_id], label)
        lines.append("%s %s" % (_RECORDS[level].keyword, payload))
    return "\n".join(lines) + "\n"


@dataclass
class StructureReport:
    classes: int = 0
    sections: int = 0
    sub_sections: int = 0
    head_groups: int = 0
    heads: int = 0
    pos_paragraphs: int = 0
    paragraphs: int = 0
    semicolon_groups: int = 0
    entries: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations

    def lines(self):
        out = ["%s: %d" % (record.row, getattr(self, record.counter))
               for record in _RECORDS.values()]
        out.append("Entries: %d" % self.entries)
        for violation in self.violations:
            out.append("VIOLATION: %s" % violation)
        return out


def validate_structure(thesaurus):
    """Count nodes per level and report the shape rules the tree breaks.

    Siblings whose ordinal the document writes (classes, sections,
    sub-sections, head groups and paragraphs) must not share one, and no
    two heads may share a number; each repeat is reported once, in
    document order, naming the node that repeats and, for a head number,
    the head that has it first.
    """
    t = thesaurus
    report = StructureReport()
    per_level = Counter(t.levels)
    for level, record in _RECORDS.items():
        setattr(report, record.counter, per_level[level])
    heads, ordinals = {}, set()  # heads: head number -> its first head
    for node_id, (level, parent) in enumerate(zip(t.levels, t.parents)):
        if level in _ORDINAL_LEVELS:
            ordinal = t.ordinals[node_id]
            if (parent, ordinal) in ordinals:
                report.violations.append(
                    "node %d (%s) repeats ordinal %d under %s"
                    % (node_id, _RECORDS[level].name, ordinal,
                       "node %d (%s)" % (parent, _RECORDS[level - 1].name)
                       if parent else "root"))
            ordinals.add((parent, ordinal))
        if level == Level.HEAD:
            number = t.head_numbers[node_id]
            first = heads.setdefault(number, node_id)
            if first != node_id:
                report.violations.append(
                    "node %d (head) repeats head number %d of node %d"
                    % (node_id, number, first))
        if level == Level.SEMICOLON_GROUP and not t._member_ids_of(node_id):
            report.violations.append("semicolon group %d has no entries"
                                     % node_id)
    report.entries = len(t.references)
    if report.classes == 0:
        report.violations.append("no classes")
    return report


def structure_signature(thesaurus):
    """Fingerprint of the tree, for structural equality tests.

    One tuple per node, in key order: with each node's level its depth,
    the levels in that order fix the tree's shape.
    """
    t = thesaurus
    return tuple((t.levels[i], t.ordinals[i], t.labels[i], t.head_numbers[i],
                  t.poses[i].value if t.poses[i] else None,
                  tuple(t._entry_texts(i)))
                 for i in sorted(range(len(t.keys)), key=t.keys.__getitem__))


def _universal_newlines(text):
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _bad_byte(data, start):
    """(Text of the lines before byte ``start``'s line, ParseError at it).

    The byte at ``start`` is the first of ``data`` that is not UTF-8; its
    line and column are counted in the bytes as given.
    """
    before = _universal_newlines(data[:start].decode("utf-8"))
    line_start = before.rfind("\n") + 1
    return before[:line_start], ParseError(
        "byte 0x%02x is not UTF-8" % data[start],
        line=before.count("\n") + 1, column=len(before) - line_start + 1)


def decode_utf8(data):
    """Text of the bytes ``data``, with line endings read as in text mode.

    Bytes that are not UTF-8 raise ParseError at the line and column of
    the first of them, counted in the bytes as given.  A byte-order mark
    is kept: ``data_lines`` drops it.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _bad_byte(data, exc.start)[1] from None
    return _universal_newlines(text)


def load(path):
    """Parse the interchange file at ``path``.

    The file is read once, as bytes, and parsed as a stream of its text.
    A file that is not UTF-8 raises ParseError at the line and column of
    its first undecodable byte, like any malformed input, unless a line
    before that byte's line has an error, which is raised instead.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") as text:
            return parse_interchange(text)
    except UnicodeDecodeError:
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            lines, error = _bad_byte(data, exc.start)
        else:
            raise
    # The stream decodes whole chunks, so the lines before the bad byte in
    # its chunk were never parsed; the first error in them comes first.
    _columns(lines)
    raise error
