"""Best-effort conversion of the public-domain 1911 Roget's text.

The Project Gutenberg plain text carries CLASS / SECTION headings,
numbered all-caps sub-section headings and ``#<n>. Label.--`` heads whose
bodies mix part-of-speech segments (N., V., Adj., Adv., plus Int. and
Phr. segments that have no counterpart in the taxonomy and are skipped).
Semicolons separate closely related word groups and commas separate
entries, with ``&c.`` cross references pointing at other heads.

The importer is deliberately tolerant: anything it cannot place is
skipped and counted in the conversion report, and the emitted interchange
document is re-parsed before being returned, so it is guaranteed to load.
"""

import re
from dataclasses import dataclass, field

from .errors import GutenbergImportError, ParseError
from .interchange import parse_interchange

_ROMAN = {"I": 1, "V": 5, "X": 10, "L": 50, "C": 100}

_CLASS_RE = re.compile(r"^\s*CLASS\s+([IVXLC]+)\.?\s*$")
_SECTION_RE = re.compile(r"^\s*SECTION\s+([IVXLC]+)\.?\s*(.*)$")
_SUBSECTION_RE = re.compile(r"^\s*(\d+)\.\s+([A-Z][A-Z0-9 ,.:;'()-]*)\s*$")
_HEAD_RE = re.compile(r"^\s*%?#(\d+[a-z]?)\.\s*(.*)$")
_POS_SPLIT_RE = re.compile(r"(?:^|(?<=\s))(N|V|Adj|Adv|Int|Phr)\.(?:\s|--|$)")
# "&c. 494" points at another head: the whole entry is dropped.  "&c. adj."
# just abbreviates "as above" within the head: the marker is stripped.
_CROSS_REF_RE = re.compile(r"&c\.?\s*(?:\([^)]*\)\s*)?\d+[a-z]?")
_ETC_RE = re.compile(r"&c\.?\s*(?:\([^)]*\)\s*)?(?:n|v|adj|adv)?\.?",
                     re.IGNORECASE)
_BRACKETED_RE = re.compile(r"\[[^\]]*\]")

_POS_MAP = {"N": "N", "Adj": "ADJ", "V": "VB", "Adv": "ADV"}


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


def _strip_pg_boilerplate(text):
    start = re.search(r"\*\*\*\s*START OF.*?\*\*\*", text)
    if start:
        text = text[start.end():]
    end = re.search(r"\*\*\*\s*END OF.*?\*\*\*", text)
    if end:
        text = text[:end.start()]
    return text


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
    """Accumulates interchange records, synthesizing missing ancestors."""

    def __init__(self, report):
        self.lines = []
        self.report = report
        self.class_ordinal = 0
        self.section_ordinal = 0
        self.subsection_ordinal = 0
        self.group_ordinal = 0
        self.have_class = False
        self.have_section = False
        self.have_subsection = False
        self.seen_heads = set()

    def add_class(self, ordinal, label):
        self.class_ordinal = ordinal
        self.section_ordinal = 0
        self.subsection_ordinal = 0
        self.lines.append("C %d %s" % (ordinal, label))
        self.have_class = True
        self.have_section = False
        self.have_subsection = False
        self.report.classes += 1

    def add_section(self, ordinal, label):
        if not self.have_class:
            self.add_class(self.class_ordinal + 1, "Class")
        self.section_ordinal = ordinal
        self.subsection_ordinal = 0
        self.lines.append("S %d %s" % (ordinal, label))
        self.have_section = True
        self.have_subsection = False
        self.report.sections += 1

    def add_subsection(self, ordinal, label):
        if not self.have_section:
            self.add_section(self.section_ordinal + 1, "Section")
        self.subsection_ordinal = ordinal
        self.group_ordinal = 0
        self.lines.append("U %d %s" % (ordinal, label))
        self.have_subsection = True
        self.report.sub_sections += 1

    def add_head(self, number, label, segments):
        if number in self.seen_heads:
            self.report.heads_skipped += 1
            self.report.notes.append("duplicate head number %d skipped" % number)
            return
        body = []
        for pos, groups in segments:
            if not groups:
                continue
            body.append("P %s" % pos)
            body.append("Q 1")
            for entries in groups:
                body.append("; %s" % " | ".join(entries))
        if not body:
            self.report.heads_skipped += 1
            return
        if not self.have_subsection:
            self.add_subsection(self.subsection_ordinal + 1, "Sub-section")
        self.group_ordinal += 1
        self.lines.append("G %d [%d]" % (self.group_ordinal, number))
        self.lines.append("H %d %s" % (number, label))
        self.lines.extend(body)
        self.seen_heads.add(number)
        self.report.heads_converted += 1


def _convert_head(builder, number_text, body, report):
    try:
        number = int(number_text)
    except ValueError:
        report.heads_skipped += 1
        report.notes.append("non-integer head number %r skipped" % number_text)
        return
    if "--" in body:
        label, rest = body.split("--", 1)
    else:
        label, rest = body, ""
    label = " ".join(label.split()).strip(" .")
    if not label:
        label = "Head %d" % number
    segments = []
    parts = _POS_SPLIT_RE.split(rest)
    # parts = [prefix, marker, text, marker, text, ...]
    if parts and parts[0].strip():
        report.segments_skipped += 1  # text before the first POS marker
    for marker, text in zip(parts[1::2], parts[2::2]):
        pos = _POS_MAP.get(marker)
        if pos is None:
            report.segments_skipped += 1
            continue
        segments.append((pos, _segment_groups(text, report)))
    builder.add_head(number, label, segments)


def import_gutenberg_1911(text):
    """Convert 1911 Roget's plain text to interchange format.

    Returns (interchange_text, ConversionReport).  Raises
    GutenbergImportError when the input has no recognizable heads.  One
    leading byte-order mark is dropped.
    """
    text = _strip_pg_boilerplate(text.removeprefix("\ufeff"))
    report = ConversionReport()
    builder = _DocumentBuilder(report)

    lines = text.split("\n")
    i = 0
    head_number = None
    head_body = []

    def flush_head():
        nonlocal head_number, head_body
        if head_number is not None:
            _convert_head(builder, head_number, " ".join(head_body), report)
        head_number = None
        head_body = []

    while i < len(lines):
        line = lines[i]
        match = _CLASS_RE.match(line)
        if match:
            flush_head()
            ordinal = _roman_to_int(match.group(1))
            label = "CLASS %s" % match.group(1)
            j = i + 1
            while j < len(lines) and not lines[j].strip():
                j += 1
            if j < len(lines) and lines[j].strip().isupper():
                label = "%s: %s" % (label, " ".join(lines[j].split()))
                i = j
            builder.add_class(ordinal, label)
            i += 1
            continue
        match = _SECTION_RE.match(line)
        if match:
            flush_head()
            ordinal = _roman_to_int(match.group(1))
            label = " ".join(match.group(2).split()).strip(" .")
            builder.add_section(ordinal,
                                label or ("SECTION %s" % match.group(1)))
            i += 1
            continue
        match = _SUBSECTION_RE.match(line)
        if match:
            flush_head()
            builder.add_subsection(int(match.group(1)),
                                   " ".join(match.group(2).split()).strip(" ."))
            i += 1
            continue
        match = _HEAD_RE.match(line)
        if match:
            flush_head()
            head_number = match.group(1)
            head_body = [match.group(2)]
            i += 1
            continue
        if head_number is not None and line.strip():
            head_body.append(line.strip())
        i += 1
    flush_head()

    if report.heads_converted == 0:
        raise GutenbergImportError(
            "input is not recognizable as a 1911 Roget's text: no heads found")

    document = "\n".join(builder.lines) + "\n"
    try:
        parse_interchange(document)
    except ParseError as exc:  # pragma: no cover - defends the guarantee
        raise GutenbergImportError(
            "converted document failed to re-parse: %s" % exc)
    return document, report
