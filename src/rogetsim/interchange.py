"""Parsing, serialization and validation of the thesaurus interchange format.

The format is UTF-8 and line-oriented: a leading keyword, a single space,
then the payload.  ``#`` lines are comments, blank lines are ignored, and
lines end at ``\n``, ``\r\n`` or ``\r``, whether the document is given as
a string, as a text stream or as a file.

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

A file is decoded line by line as the parse reads it (``utf8_lines``), so
its first error in document order, a bad byte too, is the one raised.

``parse_interchange`` reads the document line by line, keeping each
record's parent and level in the per-node columns of ``Thesaurus`` and
what the record writes in its maps; ``Thesaurus`` reads every other node
field from the tree.  The entries of the semicolon groups are split,
stripped and appended to one per-reference column a block of groups at a
time.  No node or ``Reference`` objects are built.  ``serialize``,
``validate_structure`` and ``structure_signature`` read those columns.
"""

import io
import re
from collections import Counter, namedtuple
from dataclasses import dataclass, field
from itertools import chain, repeat

from .errors import InvalidNodeError, InvalidReferenceError, ParseError
from .taxonomy import Level, PartOfSpeech, Thesaurus
from .taxonomy import build_index, normalize  # noqa: F401  (public names)


# A record kind of the interchange format: its leading keyword, its name
# in messages, its StructureReport counter field and its row label in
# StructureReport.lines().
_Record = namedtuple("_Record", "keyword name counter row")

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
# Each number type as the formats write it: an int as "%d" does, a float
# as decimal digits with an optional fraction.
_FORMS = {int: re.compile("-?(0|[1-9][0-9]*)"),
          float: re.compile(r"-?[0-9]+(\.[0-9]+)?")}
# Semicolon groups whose payloads ``_columns`` splits and strips together.
# Splitting all 48,000 of the benchmark's seed-1 thesaurus at once raised a
# load's peak RSS from 53.3 to 58.3 MB (Python 3.11); in blocks of this size
# the splitting is as fast and the peak stays at 53.3 MB.
_BLOCK = 1024
_EMPTY_ENTRY = "empty semicolon group entry"


def utf8_lines(data):
    """Yield the lines of the bytes ``data`` as text, each decoded in turn.

    The lines are those of a file opened with ``encoding="utf-8"`` and
    ``newline=""``: they end at ``\n``, ``\r\n`` or ``\r`` and keep their
    endings.  No UTF-8 sequence holds those bytes, so splitting before
    decoding moves no error.  A line that is not UTF-8 raises ParseError
    at the line and column of its first bad byte, counted with any
    byte-order mark, when the reader reaches it.
    """
    lines = data.splitlines(keepends=True)
    try:
        yield from map(bytes.decode, lines)
    except UnicodeDecodeError as exc:
        bad, start = exc.object, exc.start
        # Equal lines decode alike, so the first line equal to it is the one.
        raise ParseError("byte 0x%02x is not UTF-8" % bad[start],
                         line=lines.index(bad) + 1,
                         column=len(bad[:start].decode()) + 1) from None


def _numbered_lines(source):
    """(1-based line number, line) of every line of ``source``.

    ``source`` is a string or lines of text (a text stream, ``utf8_lines``).
    A string is read as a stream with universal newlines, so it splits
    into lines exactly as a file opened in text mode does.  One byte-order
    mark (U+FEFF) at the start of the source is dropped; anywhere else it
    is text.  A line keeps its line ending.  A stream that cannot be
    decoded raises ParseError (see ``_undecodable``).
    """
    if isinstance(source, str):
        source = io.StringIO(source, newline=None)
    lines = iter(source)
    try:
        first = next(lines, "").removeprefix("\ufeff")
        yield from enumerate(chain((first,), lines), start=1)
    except UnicodeDecodeError as exc:
        raise _undecodable(exc) from None


def data_lines(source):
    """Yield (1-based line number, line) for each non-blank, non-'#' line.

    The lines are those of ``_numbered_lines``: ``source`` is a string or
    lines of text, and one leading byte-order mark is dropped.  The line
    keeps its whitespace but not its line ending.
    """
    for line_no, raw in _numbered_lines(source):
        line = raw.rstrip("\n").rstrip("\r")
        text = line.lstrip()
        if text and text[0] != "#":
            yield line_no, line


def _undecodable(exc):
    """ParseError for a text stream's UnicodeDecodeError ``exc``.

    The stream does not say where its bad byte is, so the error carries no
    line; ``utf8_lines`` locates one in a file's bytes.
    """
    return ParseError("byte 0x%02x is not %s"
                      % (exc.object[exc.start], exc.encoding))


def ascii_number(convert, text):
    """``convert(text)``, ``convert`` int or float, or ValueError for a
    number not in the form the formats write: an int as ``"%d"`` writes it,
    ``-?(0|[1-9][0-9]*)``, and a float as ``-?[0-9]+(\\.[0-9]+)?``, in ASCII
    digits.  So ``+1``, `` 1``, ``1_0``, Arabic-Indic digits, ``1e0``,
    ``.5``, ``1.``, ``inf`` and ``nan`` are refused, and so is an int ``01``.
    """
    if not _FORMS[convert].fullmatch(text):
        raise ValueError("not a number as the formats write it: %r" % text)
    return convert(text)


def _fail(message, line_no, column=1):
    raise ParseError(message, line=line_no, column=column)


def _ordinal_and_label(payload, level, line_no):
    parts = payload.split(None, 1)
    if not parts:
        _fail("%s record needs an ordinal and a label" % _RECORDS[level].name,
              line_no, 3)
    try:
        number = ascii_number(int, parts[0])
    except ValueError:
        _fail("%s record has non-integer ordinal %r"
              % (_RECORDS[level].name, parts[0]), line_no, 3)
    return number, parts[1].strip() if len(parts) > 1 else ""


def parse_interchange(source):
    """Parse interchange text (a string or lines of text) into a Thesaurus."""
    return Thesaurus._from_columns(*_columns(source))


def _first_empty(payloads, line_numbers):
    """The line number of the first group payload with an empty entry, if
    any."""
    for payload, line_no in zip(payloads, line_numbers):
        if "" in map(str.strip, payload.split("|")):
            return line_no
    return None


def _columns(source):
    """(Node fields, (entry texts, groups, sizes)) of the interchange text.

    The loop over the lines keeps the tree: it appends each record's parent
    and level to the per-node columns, puts what it writes, by node id, in
    the map of each field, and keeps each group's payload and line number.
    Every ``_BLOCK`` groups, and after the last line, the payloads kept are
    joined, split into entries and stripped, each in one pass over the
    block, and the entry texts are appended to one per-reference column,
    equal texts sharing one string; ``groups`` holds each semicolon
    group's node id and ``sizes`` its number of entries.  Errors are raised
    in document order: one the loop raises gives way to an empty entry in a
    group not yet split, which comes before it.
    """
    parents, levels = [-1], [0]
    labels, ordinals, head_numbers, poses = {}, {}, {}, {}
    groups = []  # node id of each semicolon group
    texts, sizes = [], []  # per reference; per group its entry count
    payloads, payload_lines = [], []  # of the groups not yet split
    share = {}.setdefault  # entry text -> its one string object
    open_ids = [0] * 8   # most recent node id per level
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
                groups.append(len(parents))
                parents.append(open_ids[7])
                levels.append(8)
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
            node_id = len(parents)
            if kind == "Q":
                try:
                    ordinals[node_id] = ascii_number(int, payload)
                except ValueError:
                    _fail("paragraph record has non-integer ordinal %r"
                          % payload, line_no, 3)
            elif kind == "P":
                if payload not in _POS_TAGS:
                    _fail("POS must be one of N, ADJ, VB, ADV, got %r"
                          % payload, line_no, 3)
                poses[node_id] = _POS_TAGS[payload]
            elif kind == "H":
                number, labels[node_id] = _ordinal_and_label(payload, level,
                                                             line_no)
                if number <= 0:
                    _fail("head number must be positive, got %d" % number,
                          line_no, 3)
                if number in seen_heads:
                    _fail("duplicate head number %d" % number, line_no, 3)
                seen_heads.add(number)
                head_numbers[node_id] = number
            else:
                ordinals[node_id], labels[node_id] = _ordinal_and_label(
                    payload, level, line_no)
            parents.append(open_ids[level - 1])
            levels.append(level)
            open_ids[level] = node_id
            depth = level
    except ParseError:
        # The groups not yet split come before the line that raised, or the
        # text that could not be decoded.
        line_no = _first_empty(payloads, payload_lines)
        if line_no is not None:
            raise ParseError(_EMPTY_ENTRY, line=line_no, column=3) from None
        raise
    if payloads:
        split_payloads()
    return ((tuple(parents), tuple(levels), labels, ordinals, head_numbers,
             poses), (texts, groups, sizes))


def _reads_back(text, breaks):
    """Whether a record reads back ``text`` as it is written: a str with no
    whitespace at either end and none of the characters ``breaks``."""
    return (isinstance(text, str) and text == text.strip()
            and not any(char in text for char in breaks))


def serialize(thesaurus):
    """Render a Thesaurus back to interchange text, in document order.

    Raises InvalidNodeError for a label, and InvalidReferenceError for an
    entry text, that the document would not read back: one that is not a
    str, has whitespace at either end or holds a line break, and an entry
    text that is empty or holds ``|``; InvalidNodeError too for a
    semicolon group with no entries, a bare ``; `` line no document holds.
    """
    t = thesaurus
    lines = []
    for node_id in t._document_order()[1:]:
        level, label = t.levels[node_id], t.labels.get(node_id)
        if level == Level.POS_PARAGRAPH:
            payload = t.poses[node_id].value
        elif level == Level.PARAGRAPH:
            payload = "%d" % t.ordinals[node_id]
        elif level == Level.SEMICOLON_GROUP:
            texts = t._entry_texts(node_id)
            if not texts:
                raise InvalidNodeError("semicolon group %d has no entries and "
                                       "would not read back" % node_id)
            for text in texts:
                if not (text and _reads_back(text, "|\n\r")):
                    raise InvalidReferenceError(
                        "entry %r of semicolon group %d would not read back"
                        % (text, node_id))
            payload = " | ".join(texts)
        elif not _reads_back(label, "\n\r"):
            raise InvalidNodeError("label %r of %s %d would not read back"
                                   % (label, _RECORDS[level].name, node_id))
        elif level == Level.HEAD:
            payload = "%d %s" % (t.head_numbers[node_id], label)
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
    the head that has it first in that order.
    """
    t = thesaurus
    report = StructureReport()
    per_level = Counter(t.levels)
    for level, record in _RECORDS.items():
        setattr(report, record.counter, per_level[level])
    heads, ordinals = {}, set()  # heads: head number -> its first head
    for node_id in t._document_order():
        level, parent = t.levels[node_id], t.parents[node_id]
        ordinal = t.ordinals.get(node_id)
        if ordinal is not None:
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
        if level == Level.SEMICOLON_GROUP and not t._entry_texts(node_id):
            report.violations.append("semicolon group %d has no entries"
                                     % node_id)
    report.entries = len(t.references)
    if report.classes == 0:
        report.violations.append("no classes")
    return report


def structure_signature(thesaurus):
    """Fingerprint of the tree, for structural equality tests.

    One tuple per node, in document order: with each node's level its
    depth, the levels in that order fix the tree's shape.
    """
    t = thesaurus
    return tuple((t.levels[i], t._ordinal(i), t._label(i),
                  t.head_numbers.get(i), t.poses[i].value if i in t.poses
                  else None, tuple(t._entry_texts(i)))
                 for i in t._document_order())


def load(path):
    """Parse the interchange file at ``path``.

    The file is read once, as bytes, and each line is decoded as the parse
    reaches it (``utf8_lines``).  The first error in document order is
    raised, a malformed record or a byte that is not UTF-8, as ParseError
    at its line and column.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    return parse_interchange(utf8_lines(data))
