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
are duplicate head numbers and empty semicolon groups.
"""

import io
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import ParseError
from .taxonomy import Level, PartOfSpeech, Reference, TaxonomyNode, Thesaurus
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
_KEYWORD_LEVELS = {record.keyword: level for level, record in _RECORDS.items()}


def data_lines(source):
    """Yield (1-based line number, line) for each non-blank, non-'#' line.

    ``source`` is a string or a text stream.  A string is read as a stream
    with universal newlines, so it splits into lines exactly as a file
    opened in text mode does.  The line keeps its whitespace but not its
    line ending.
    """
    if isinstance(source, str):
        source = io.StringIO(source, newline=None)
    for line_no, raw in enumerate(source, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        text = line.lstrip()
        if text and text[0] != "#":
            yield line_no, line


def parse_interchange(source):
    """Parse interchange text (a string or a text stream) into a Thesaurus."""
    root = TaxonomyNode(id=0, level=Level.ROOT, label="T")
    nodes = [root]
    references = []
    open_nodes = {Level.ROOT: root}  # most recent node per level
    seen_heads = set()

    def fail(message, line_no, column=1):
        raise ParseError(message, line=line_no, column=column)

    def split_payload(payload, kind, line_no):
        parts = payload.split(None, 1)
        if not parts:
            fail("%s record needs an ordinal and a label"
                 % _RECORDS[kind].name, line_no, 3)
        try:
            number = int(parts[0])
        except ValueError:
            fail("%s record has non-integer ordinal %r"
                 % (_RECORDS[kind].name, parts[0]), line_no, 3)
        label = parts[1].strip() if len(parts) > 1 else ""
        return number, label

    for line_no, line in data_lines(source):
        parts = line.split(None, 1)
        keyword = parts[0]
        if keyword not in _KEYWORD_LEVELS:
            fail("unknown record keyword %r" % keyword, line_no)
        level = _KEYWORD_LEVELS[keyword]
        payload = parts[1].strip() if len(parts) > 1 else ""

        parent = open_nodes.get(Level(level - 1))
        if parent is None:
            fail("%s record has no open %s to attach to (nesting rule: "
                 "level %d attaches to the most recent level %d record)"
                 % (_RECORDS[level].name, _RECORDS[Level(level - 1)].name
                    if level - 1 > 0 else "document root",
                    int(level), int(level) - 1),
                 line_no)

        node = TaxonomyNode(id=len(nodes), level=level, label="",
                            parent=parent.id)
        if level in (Level.CLASS, Level.SECTION, Level.SUB_SECTION,
                     Level.HEAD_GROUP):
            node.ordinal, node.label = split_payload(payload, level, line_no)
        elif level == Level.HEAD:
            number, label = split_payload(payload, level, line_no)
            if number <= 0:
                fail("head number must be positive, got %d" % number, line_no, 3)
            if number in seen_heads:
                fail("duplicate head number %d" % number, line_no, 3)
            seen_heads.add(number)
            node.head_number = number
            node.label = label
            node.ordinal = len(parent.children) + 1
        elif level == Level.POS_PARAGRAPH:
            try:
                node.pos = PartOfSpeech(payload)
            except ValueError:
                fail("POS must be one of N, ADJ, VB, ADV, got %r" % payload,
                     line_no, 3)
            node.label = payload
            node.ordinal = len(parent.children) + 1
        elif level == Level.PARAGRAPH:
            try:
                node.ordinal = int(payload)
            except ValueError:
                fail("paragraph record has non-integer ordinal %r" % payload,
                     line_no, 3)
        else:  # semicolon group
            entries = [e.strip() for e in payload.split("|")]
            if not payload or any(not e for e in entries):
                fail("empty semicolon group entry", line_no, 3)
            node.ordinal = len(parent.children) + 1
            node.label = entries[0]
            if not parent.label:  # paragraph keyword = first entry, first group
                parent.label = entries[0]
            head = nodes[nodes[parent.parent].parent]
            pos = nodes[parent.parent]
            for entry in entries:
                references.append(Reference(
                    entry_text=entry,
                    semicolon_group=node.id,
                    pos=pos.pos,
                    head_number=head.head_number,
                    keyword=parent.label,
                ))

        nodes.append(node)
        parent.children.append(node.id)
        open_nodes[level] = node
        for deeper in range(int(level) + 1, int(Level.SEMICOLON_GROUP) + 1):
            open_nodes.pop(Level(deeper), None)

    return Thesaurus(nodes, references)


def serialize(thesaurus):
    """Render a Thesaurus back to interchange text."""
    lines = []

    def emit(node):
        if node.level == Level.HEAD:
            payload = "%d %s" % (node.head_number, node.label)
        elif node.level == Level.POS_PARAGRAPH:
            payload = node.pos.value
        elif node.level == Level.PARAGRAPH:
            payload = "%d" % node.ordinal
        elif node.level == Level.SEMICOLON_GROUP:
            payload = " | ".join(
                r.entry_text for r in thesaurus.members[node.id])
        else:
            payload = "%d %s" % (node.ordinal, node.label)
        lines.append("%s %s" % (_RECORDS[node.level].keyword, payload))
        for child in node.children:
            emit(thesaurus.nodes[child])

    for child in thesaurus.root.children:
        emit(thesaurus.nodes[child])
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
    """Count nodes per level and re-check the tree invariants."""
    report = StructureReport()
    head_numbers = set()
    named_groups = {ref.semicolon_group for ref in thesaurus.references}
    for node in thesaurus.nodes:
        if node.level == Level.ROOT:
            continue
        record = _RECORDS[node.level]
        setattr(report, record.counter, getattr(report, record.counter) + 1)
        parent = thesaurus.nodes[node.parent]
        if parent.level != node.level - 1:
            report.violations.append(
                "node %d (%s) skips a level under %s"
                % (node.id, record.name, _RECORDS[parent.level].name
                   if parent.level > 0 else "root"))
        if node.level == Level.HEAD:
            if node.head_number in head_numbers:
                report.violations.append(
                    "duplicate head number %d" % node.head_number)
            head_numbers.add(node.head_number)
        if (node.level == Level.SEMICOLON_GROUP
                and not thesaurus.members[node.id]):
            report.violations.append(
                "semicolon group %d %s" % (node.id, "is not at depth 8"
                                           if node.id in named_groups
                                           else "has no entries"))
    inside = {id(r) for refs in thesaurus.members for r in refs}
    for ref in thesaurus.references:
        if id(ref) not in inside:
            report.violations.append(
                "reference %r at node %r is not in a semicolon group at "
                "depth 8" % (ref.entry_text, ref.semicolon_group))
    report.entries = len(thesaurus.references)
    if report.classes == 0:
        report.violations.append("no classes")
    return report


def structure_signature(thesaurus):
    """Nested-tuple fingerprint of the tree, for structural equality tests."""
    def sig(node):
        return (int(node.level), node.ordinal, node.label, node.head_number,
                node.pos.value if node.pos else None,
                tuple(r.entry_text for r in thesaurus.members[node.id]),
                tuple(sig(thesaurus.nodes[c]) for c in node.children))

    return sig(thesaurus.root)


def _universal_newlines(text):
    return text.replace("\r\n", "\n").replace("\r", "\n")


def decode_utf8(data):
    """Text of the bytes ``data``, with line endings read as in text mode.

    Bytes that are not UTF-8 raise ParseError at the line and column of
    the first of them.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = _universal_newlines(data[:exc.start].decode("utf-8"))
        raise ParseError("byte 0x%02x is not UTF-8" % data[exc.start],
                         line=before.count("\n") + 1,
                         column=len(before) - before.rfind("\n")) from None
    return _universal_newlines(text)


def load(path):
    """Parse the interchange file at ``path``.

    A file that is not UTF-8 raises ParseError, like any malformed input.
    The file is read as a stream; on a byte that is not UTF-8 the same
    open file is read again from the start to locate it, which a pipe
    cannot do, so there the error names the byte but not its line.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            return parse_interchange(handle)
        except UnicodeDecodeError as exc:
            if not handle.seekable():
                raise ParseError("byte 0x%02x is not UTF-8"
                                 % exc.object[exc.start]) from None
            handle.buffer.seek(0)
            text = decode_utf8(handle.buffer.read())
    return parse_interchange(text)
