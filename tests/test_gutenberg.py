"""Best-effort 1911 Roget's import."""

import hashlib
import io
import os
import time

import pytest

from rogetsim import (GutenbergImportError, ParseError, build_index,
                      import_gutenberg_1911, parse_interchange, serialize,
                      structure_signature, validate_structure)
from rogetsim.interchange import utf8_lines
from tests.conftest import data_path

FULL_1911_ENV = "ROGET_1911_TEXT"


@pytest.fixture(scope="module")
def excerpt():
    with open(data_path("gutenberg_excerpt.txt"), encoding="utf-8") as handle:
        return handle.read()


def test_excerpt_converts_to_valid_interchange(excerpt):
    document, report = import_gutenberg_1911(excerpt)
    assert report.heads_converted == 5
    thesaurus = parse_interchange(document)
    structure = validate_structure(thesaurus)
    assert structure.ok
    assert structure.heads == 5
    assert structure.classes == 1
    assert structure.sections == 2
    assert structure.sub_sections == 3


def test_excerpt_entries(excerpt):
    document, _ = import_gutenberg_1911(excerpt)
    thesaurus = parse_interchange(document)
    assert thesaurus.lookup("existence")[0].display == "existence 1 N."
    # "&c. adj." marker stripped, entry kept
    assert thesaurus.lookup("positiveness")
    # "truth &c. 494" is a cross reference to another head: dropped
    assert not thesaurus.lookup("truth")


def test_excerpt_output_round_trips(excerpt):
    document, _ = import_gutenberg_1911(excerpt)
    thesaurus = parse_interchange(document)
    reparsed = parse_interchange(serialize(thesaurus))
    assert structure_signature(reparsed) == structure_signature(thesaurus)
    assert build_index(reparsed) == build_index(thesaurus)


def test_skip_counts_reported(excerpt):
    _, report = import_gutenberg_1911(excerpt)
    assert report.entries_skipped > 0  # the excerpt has cross references


def test_one_leading_byte_order_mark_is_dropped(excerpt):
    # Without the start marker, the excerpt's first line is its first class.
    body = excerpt.split("\n", 1)[1].lstrip()
    assert body.startswith("CLASS I\n")
    assert import_gutenberg_1911("\ufeff" + body) == (
        import_gutenberg_1911(body))


def test_lines_after_the_end_marker_are_skipped(excerpt):
    # A trailing paragraph after "*** END OF" would add a class and a head.
    assert excerpt.rstrip("\n").endswith("***")
    trailing = excerpt + "\nCLASS IX\n\n#999. Extra.-- N. extra, more.\n"
    assert import_gutenberg_1911(trailing) == import_gutenberg_1911(excerpt)


def test_line_endings_convert_alike(excerpt):
    assert "\r" not in excerpt
    converted = [import_gutenberg_1911(excerpt.replace("\n", ending))
                 for ending in ("\n", "\r\n", "\r")]
    assert converted[1] == converted[0] and converted[2] == converted[0]
    assert converted[0][1].heads_converted == 5


def test_a_stream_or_lines_convert_as_the_string(excerpt, tmp_path):
    path = tmp_path / "excerpt.txt"
    path.write_bytes(("\ufeff" + excerpt.replace("\n", "\r\n")).encode())
    with open(path, encoding="utf-8") as stream:
        from_stream = import_gutenberg_1911(stream)
    converted = import_gutenberg_1911(excerpt)
    assert from_stream == converted
    assert import_gutenberg_1911(io.StringIO(excerpt)) == converted
    assert import_gutenberg_1911(utf8_lines(path.read_bytes())) == converted


def test_a_stream_that_cannot_be_decoded_raises_a_parse_error():
    data = b"#1. Existence.-- N. caf\xe9,\n"
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") as text:
        with pytest.raises(ParseError, match="^byte 0xe9 is not utf-8$"):
            import_gutenberg_1911(text)


def _report(classes=1, sections=1, sub_sections=1, heads=1, heads_skipped=0,
            segments_skipped=0, entries_skipped=0, notes=()):
    return ["Classes: %d" % classes, "Sections: %d" % sections,
            "Sub-Sections: %d" % sub_sections, "Heads converted: %d" % heads,
            "Heads skipped: %d" % heads_skipped,
            "POS segments skipped: %d" % segments_skipped,
            "Entries skipped: %d" % entries_skipped] + [
        "NOTE: " + note for note in notes]


PLACEHOLDERS = ["C 1 Class", "S 1 Section", "U 1 Sub-section"]


# (1911 text, the document's lines, the report's lines), pinned byte for byte.
CONVERSIONS = {
    "section-before-any-class": (
        "SECTION II. RELATION\n#9. Relation.-- N. relation, bearing.\n",
        ["C 1 Class", "S 2 RELATION", "U 1 Sub-section", "G 1 [9]",
         "H 9 Relation", "P N", "Q 1", "; relation | bearing"],
        _report()),
    "head-before-any-class": (
        "#1. Being.-- N. being, entity.\n",
        PLACEHOLDERS + ["G 1 [1]", "H 1 Being", "P N", "Q 1",
                        "; being | entity"],
        _report()),
    "placeholders-under-each-level": (
        "CLASS II\n#10. Ten.-- N. ten.\n#11. Eleven.-- N. eleven.\n"
        "SECTION III.\n2. MIDDLE\n#12. Twelve.-- N. twelve.\n"
        "CLASS IV\nWORDS RELATING TO THE INTELLECT\n3. LOW\n#13.-- V. go.\n",
        ["C 2 CLASS II", "S 1 Section", "U 1 Sub-section",
         "G 1 [10]", "H 10 Ten", "P N", "Q 1", "; ten",
         "G 2 [11]", "H 11 Eleven", "P N", "Q 1", "; eleven",
         "S 3 SECTION III", "U 2 MIDDLE",
         "G 1 [12]", "H 12 Twelve", "P N", "Q 1", "; twelve",
         "C 4 CLASS IV: WORDS RELATING TO THE INTELLECT", "S 1 Section",
         "U 3 LOW", "G 1 [13]", "H 13 Head 13", "P VB", "Q 1", "; go"],
        _report(classes=2, sections=3, sub_sections=3, heads=4)),
    # A heading right after a class is not taken as the class's title.
    "section-right-after-a-class": (
        "CLASS IV\nSECTION I. EXISTENCE\n#13.-- V. go.\n",
        ["C 4 CLASS IV", "S 1 EXISTENCE", "U 1 Sub-section", "G 1 [13]",
         "H 13 Head 13", "P VB", "Q 1", "; go"],
        _report()),
    "sub-section-right-after-a-class": (
        "CLASS II\n\n2. INTELLECT\n#20. Mind.-- N. mind.\n",
        ["C 2 CLASS II", "S 1 Section", "U 2 INTELLECT", "G 1 [20]",
         "H 20 Mind", "P N", "Q 1", "; mind"],
        _report()),
    # The duplicate number skips the second head before its entries are
    # cleaned, so they are counted nowhere, as a non-integer head's are.
    "duplicate-head": (
        "CLASS I\n#1. Being.-- N. being.\n"
        "#1. Again.-- N. truth &c. 494, again.\n",
        ["C 1 CLASS I", "S 1 Section", "U 1 Sub-section", "G 1 [1]",
         "H 1 Being", "P N", "Q 1", "; being"],
        _report(heads_skipped=1, entries_skipped=0,
                notes=["duplicate head number 1 skipped"])),
    # A heading whose number its level has taken under the open parent,
    # here by a placeholder or an earlier class, takes the next number.
    "sub-section-numbered-as-a-placeholder": (
        "#1. Being.-- N. being.\n1. FIRST\n#2. Two.-- N. two.\n",
        PLACEHOLDERS + ["G 1 [1]", "H 1 Being", "P N", "Q 1", "; being",
                        "U 2 FIRST", "G 1 [2]", "H 2 Two", "P N", "Q 1",
                        "; two"],
        _report(sub_sections=2, heads=2,
                notes=["sub-section 1 'FIRST' renumbered 2"])),
    "class-repeated": (
        "CLASS I\n#1. One.-- N. one.\nCLASS I\n#2. Two.-- N. two.\n",
        ["C 1 CLASS I", "S 1 Section", "U 1 Sub-section", "G 1 [1]",
         "H 1 One", "P N", "Q 1", "; one",
         "C 2 CLASS I", "S 1 Section", "U 1 Sub-section", "G 1 [2]",
         "H 2 Two", "P N", "Q 1", "; two"],
        _report(classes=2, sections=2, sub_sections=2, heads=2,
                notes=["class 1 'CLASS I' renumbered 2"])),
    "non-integer-head": (
        "#3a. Odd.-- N. odd.\n#4. Even.-- N. even.\n",
        PLACEHOLDERS + ["G 1 [4]", "H 4 Even", "P N", "Q 1", "; even"],
        _report(heads_skipped=1,
                notes=["non-integer head number '3a' skipped"])),
    "head-numbered-zero": (
        "#0. Nought.-- N. nought.\n#00. Naught.-- N. naught.\n"
        "#1. One.-- N. one.\n",
        PLACEHOLDERS + ["G 1 [1]", "H 1 One", "P N", "Q 1", "; one"],
        _report(heads_skipped=2,
                notes=["non-positive head number '0' skipped",
                       "non-positive head number '00' skipped"])),
    "only-int-and-phr-segments": (
        "#2. Talk.-- Int. hello! Phr. so be it.\n#3. Word.-- N. word.\n",
        PLACEHOLDERS + ["G 1 [3]", "H 3 Word", "P N", "Q 1", "; word"],
        _report(heads_skipped=1, segments_skipped=2)),
    "every-entry-skipped": (
        "#7. Gone.-- N. truth &c. 494; &c. 5.\n#8. Kept.-- Adv. kept.\n",
        PLACEHOLDERS + ["G 1 [8]", "H 8 Kept", "P ADV", "Q 1", "; kept"],
        _report(heads_skipped=1, entries_skipped=2)),
    # An entry with no letter left is skipped, and a group of only such
    # entries with it.
    "entries-without-a-letter": (
        "#4. Four.-- N. four, 4; 44.\n",
        PLACEHOLDERS + ["G 1 [4]", "H 4 Four", "P N", "Q 1", "; four"],
        _report(entries_skipped=2)),
    "text-before-the-first-pos-marker": (
        "#6. Pre.-- see above. N. fore, front.\n",
        PLACEHOLDERS + ["G 1 [6]", "H 6 Pre", "P N", "Q 1", "; fore | front"],
        _report(segments_skipped=1)),
    "head-without-a-label": (
        "#5.-- N. five.\n",
        PLACEHOLDERS + ["G 1 [5]", "H 5 Head 5", "P N", "Q 1", "; five"],
        _report()),
}


@pytest.mark.parametrize("text,document,report", CONVERSIONS.values(),
                         ids=CONVERSIONS.keys())
def test_conversion_is_pinned(text, document, report):
    converted, conversion = import_gutenberg_1911(text)
    assert converted == "\n".join(document) + "\n"
    assert conversion.lines() == report


def test_excerpt_is_pinned(excerpt):
    document, report = import_gutenberg_1911(excerpt)
    assert hashlib.sha256(document.encode()).hexdigest() == (
        "5abd8258cbbb9fd53bd597fc5cae3a5153514101c02f029415a9c808fe970ce5")
    assert document.count("\n") == 129
    assert report.lines() == _report(sections=2, sub_sections=3, heads=5,
                                     entries_skipped=18)


# One line of n = 200,000 characters added after the excerpt's first head
# line, each of a kind that a backtracking pattern reads in quadratic time
# (minutes at this n): a heading-like line with a long run of spaces before
# a stray character, an entry of unclosed "&c (" markers, and one of
# unclosed brackets.
LONG_LINES = {"heading-with-a-run-of-spaces": "1. A" + " " * 200_000 + "x",
              "unclosed-etc-parentheses": "&c (" * 50_000,
              "unclosed-brackets": "[" * 200_000}


@pytest.mark.parametrize("line", LONG_LINES.values(), ids=LONG_LINES.keys())
def test_a_long_line_converts_in_linear_time(excerpt, line):
    head = excerpt.index("\n", excerpt.index("\n#1.") + 1) + 1
    text = excerpt[:head] + line + "\n" + excerpt[head:]
    start = time.perf_counter()
    _, report = import_gutenberg_1911(text)
    assert time.perf_counter() - start < 5
    assert report.heads_converted == 5


def test_empty_input_rejected():
    with pytest.raises(GutenbergImportError):
        import_gutenberg_1911("")


@pytest.mark.parametrize("text", [
    "The quick brown fox.\nNothing thesaural here.\n",
    "CLASS I\n\nSECTION I. EXISTENCE\n#1. Alas.-- Int. alas!\n",
], ids=["prose", "headings-without-a-converted-head"])
def test_unrecognizable_input_rejected(text):
    with pytest.raises(GutenbergImportError, match="no heads found$"):
        import_gutenberg_1911(text)


@pytest.mark.skipif(FULL_1911_ENV not in os.environ,
                    reason="full 1911 text not supplied (set $%s)"
                           % FULL_1911_ENV)
def test_full_1911_text():
    with open(os.environ[FULL_1911_ENV], encoding="utf-8",
              errors="replace") as handle:
        text = handle.read()
    document, report = import_gutenberg_1911(text)
    thesaurus = parse_interchange(document)
    structure = validate_structure(thesaurus)
    assert structure.ok
    assert structure.heads > 900
    assert report.heads_skipped < structure.heads
