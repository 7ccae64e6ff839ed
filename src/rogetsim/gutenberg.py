"""Best-effort conversion of the public-domain 1911 Roget's text.

The Project Gutenberg plain text carries CLASS / SECTION headings,
numbered all-caps sub-section headings and ``#<n>. Label.--`` heads whose
bodies mix part-of-speech segments (N., V., Adj., Adv., plus Int. and
Phr. segments that have no counterpart in the taxonomy and are skipped).
Semicolons separate closely related word groups and commas separate
entries, with ``&c.`` cross references pointing at other heads.

The text, a string or lines of text, is read line by line as the other
formats are, but its ``#`` lines are heads, not comments.  It starts
after the first Project Gutenberg ``*** START OF ... ***`` marker, if a
line holds one, and ends at an ``*** END OF ... ***`` marker.

The importer is deliberately tolerant: anything it cannot place is
skipped and counted in the conversion report (a head numbered 0, say);
a class, section or sub-section numbered no higher than the one before
it under the same parent takes the next number, with a note; and the
emitted interchange document is re-parsed before being returned, so it
is guaranteed to load; the report's structure counts are its own.
"""

import re
from dataclasses import dataclass, field

from .errors import GutenbergImportError, ParseError
from .interchange import (_numbered_lines, parse_interchange,
                          validate_structure)
from .taxonomy import Level

_ROMAN = {"I": 1, "V": 5, "X": 10, "L": 50, "C": 100}

_CLASS_RE = re.compile(r"^\s*CLASS\s+([IVXLC]+)\.?\s*$")
_SECTION_RE = re.compile(r"^\s*SECTION\s+([IVXLC]+)\.?\s*(.*)$")
# Headings are matched against a line stripped of white space at both ends,
# so a sub-section label, whose class holds a space, needs no trailing \s*,
# which was retried at each space of a long run before a stray character.
_SUBSECTION_RE = re.compile(r"^\s*(\d+)\.\s+([A-Z][A-Z0-9 ,.:;'()-]*)$")
_HEAD_RE = re.compile(r"^\s*%?#(\d+[a-z]?)\.\s*(.*)$")
_HEADINGS = (_CLASS_RE, _SECTION_RE, _SUBSECTION_RE, _HEAD_RE)
_START_RE = re.compile(r"\*\*\*\s*START OF.*?\*\*\*")
_END_RE = re.compile(r"\*\*\*\s*END OF.*?\*\*\*")
_POS_SPLIT_RE = re.compile(r"(?:^|(?<=\s))(N|V|Adj|Adv|Int|Phr)\.(?:\s|--|$)")
# "&c. 494" points at another head: the whole entry is dropped.  "&c. adj."
# just abbreviates "as above" within the head: the marker is stripped.  A
# bracketed or parenthesized span holds no opening bracket of its kind, so
# a scan from an unclosed one stops at the next: of nested spans, the
# innermost is taken.
_CROSS_REF_RE = re.compile(r"&c\.?\s*(?:\([^()]*\)\s*)?\d+[a-z]?")
_ETC_RE = re.compile(r"&c\.?\s*(?:\([^()]*\)\s*)?(?:n|v|adj|adv)?\.?",
                     re.IGNORECASE)
_BRACKETED_RE = re.compile(r"\[[^\[\]]*\]")

_POS_MAP = {"N": "N", "Adj": "ADJ", "V": "VB", "Adv": "ADV"}
# Interchange keyword and placeholder label of the levels the builder opens.
_KEYWORDS = " CSUG"
_PLACEHOLDERS = (None, "Class", "Section", "Sub-section")


def _roman_to_int(text):
    total = 0
    prev = 0
    for char in reversed(text):
        value = _ROMAN[char]
        total = total - value if value < prev else total + value
        prev = max(prev, value)
    return total


@dataclass
class ConversionReport:
    """What an import skipped, and the emitted document's structure counts."""

    classes: int = 0
    sections: int = 0
    sub_sections: int = 0
    heads_converted: int = 0
    heads_skipped: int = 0
    segments_skipped: int = 0
    entries_skipped: int = 0
    notes: list = field(default_factory=list)

    def lines(self):
        out = [
            "Classes: %d" % self.classes,
            "Sections: %d" % self.sections,
            "Sub-Sections: %d" % self.sub_sections,
            "Heads converted: %d" % self.heads_converted,
            "Heads skipped: %d" % self.heads_skipped,
            "POS segments skipped: %d" % self.segments_skipped,
            "Entries skipped: %d" % self.entries_skipped,
        ]
        out.extend("NOTE: %s" % note for note in self.notes)
        return out


def _clean_entry(entry, report):
    entry = _BRACKETED_RE.sub(" ", entry)
    if _CROSS_REF_RE.search(entry):
        report.entries_skipped += 1
        return None
    entry = _ETC_RE.sub(" ", entry)
    entry = entry.replace("|", " ")
    entry = entry.strip(" \t.:,!?\"'")
    entry = " ".join(entry.split())
    if not entry or not re.search(r"[A-Za-z]", entry):
        report.entries_skipped += 1
        return None
    return entry


def _segment_groups(segment_text, report):
    """Split a POS segment into semicolon groups of cleaned entries."""
    groups = []
    for chunk in segment_text.split(";"):
        entries = []
        for raw in chunk.split(","):
            if not raw.strip():
                continue
            entry = _clean_entry(raw, report)
            if entry:
                entries.append(entry)
        if entries:
            groups.append(entries)
    return groups


class _DocumentBuilder:
    """Reads the text a line at a time into interchange records,
    synthesizing missing ancestors."""

    def __init__(self):
        self.lines = []
        self.report = ConversionReport()
        self.ordinals = [0] * (Level.HEAD_GROUP + 1)  # last one per level
        self.depth = Level.ROOT  # levels 1..depth are open
        self.seen_heads = set()
        self.title = None  # (ordinal, label) of a class awaiting its title
        self.head = []     # number text and text lines of the open head

    def read(self, line):
        """Read the text's next line, given without its line ending.

        A class is opened at its next non-blank line, its title if all in
        upper case and not a heading; a head is converted at the next
        heading.
        """
        text = line.strip()
        if not text:
            return
        headings = [pattern.match(text) for pattern in _HEADINGS]
        if not any(headings):
            if self.head:
                self.head.append(text)
            elif self.title:
                if text.isupper():
                    ordinal, label = self.title
                    self.title = ordinal, "%s: %s" % (
                        label, " ".join(text.split()))
                self.close()
            return
        self.close()
        class_, section, sub_section, head = headings
        if class_:
            self.title = (_roman_to_int(class_[1]), "CLASS %s" % class_[1])
        elif section:
            label = " ".join(section[2].split()).strip(" .")
            self.add(Level.SECTION, _roman_to_int(section[1]),
                     label or "SECTION %s" % section[1])
        elif sub_section:
            self.add(Level.SUB_SECTION, int(sub_section[1]),
                     " ".join(sub_section[2].split()).strip(" ."))
        else:
            self.head = list(head.groups())

    def close(self):
        """Open the class awaiting its title, or convert the open head."""
        if self.title:
            self.add(Level.CLASS, *self.title)
        elif self.head:
            self.add_head(*self.head)
        self.title, self.head = None, []

    def add(self, level, ordinal, label):
        """Open a class, section, sub-section or head group.

        Each missing ancestor is opened first, with its placeholder label
        and the next ordinal.  An ordinal not above the last one at its
        level under the open parent is replaced by the next, with a note.
        """
        for missing in range(self.depth + 1, level):
            self.add(missing, self.ordinals[missing] + 1,
                     _PLACEHOLDERS[missing])
        last = self.ordinals[level]
        if ordinal <= last:
            self.report.notes.append("%s %d %r renumbered %d" % (
                _PLACEHOLDERS[level].lower(), ordinal, label, last + 1))
            ordinal = last + 1
        self.lines.append("%s %d %s" % (_KEYWORDS[level], ordinal, label))
        self.ordinals[level:] = [ordinal] + [0] * (Level.HEAD_GROUP - level)
        self.depth = level

    def skip_head(self, note=None):
        self.report.heads_skipped += 1
        if note:
            self.report.notes.append(note)

    def add_head(self, number_text, *lines):
        """Convert the head ``#<number_text>.`` with its text ``lines``, or
        skip it.

        The skip has a note when the number is not positive or is taken,
        and none when the head keeps no entry.  A head skipped for its
        number adds nothing to the segment and entry counts.
        """
        try:
            number = int(number_text)
        except ValueError:
            return self.skip_head("non-integer head number %r skipped"
                                  % number_text)
        if number <= 0:
            return self.skip_head("non-positive head number %r skipped"
                                  % number_text)
        if number in self.seen_heads:
            return self.skip_head("duplicate head number %d skipped" % number)
        label, _, rest = " ".join(lines).partition("--")
        label = " ".join(label.split()).strip(" .") or "Head %d" % number
        body = []
        parts = _POS_SPLIT_RE.split(rest)
        # parts = [prefix, marker, text, marker, text, ...]
        if parts[0].strip():
            self.report.segments_skipped += 1  # before the first POS marker
        for marker, segment in zip(parts[1::2], parts[2::2]):
            pos = _POS_MAP.get(marker)
            if pos is None:
                self.report.segments_skipped += 1
                continue
            groups = _segment_groups(segment, self.report)
            if groups:
                body += ["P " + pos, "Q 1"]
                body += ["; " + " | ".join(entries) for entries in groups]
        if not body:
            return self.skip_head()
        self.add(Level.HEAD_GROUP, self.ordinals[Level.HEAD_GROUP] + 1,
                 "[%d]" % number)
        self.lines.append("H %d %s" % (number, label))
        self.lines += body
        self.seen_heads.add(number)


def import_gutenberg_1911(source):
    """Convert 1911 Roget's plain text, a string or lines of text, to
    interchange format.

    Returns (interchange_text, ConversionReport).  Raises
    GutenbergImportError when the input has no recognizable heads.
    """
    builder, started, ended = _DocumentBuilder(), False, False
    for _, line in _numbered_lines(source):
        line = line.rstrip("\n").rstrip("\r")
        start = not started and _START_RE.search(line)
        if start:  # what came before is not the text
            builder, started, ended = _DocumentBuilder(), True, False
            line = line[start.end():]
        elif ended:
            continue
        end = _END_RE.search(line)
        if end:
            line, ended = line[:end.start()], True
        builder.read(line)
    builder.close()

    report = builder.report
    document = "\n".join(builder.lines) + "\n"
    try:
        structure = validate_structure(parse_interchange(document))
    except ParseError as exc:  # pragma: no cover - defends the guarantee
        raise GutenbergImportError(
            "converted document failed to re-parse: %s" % exc)
    if structure.heads == 0:
        raise GutenbergImportError(
            "input is not recognizable as a 1911 Roget's text: no heads found")
    report.classes, report.sections = structure.classes, structure.sections
    report.sub_sections = structure.sub_sections
    report.heads_converted = structure.heads
    return document, report
