"""Interchange parsing, index construction and validation."""

import dataclasses
import gc
import io
import os
import random
import unicodedata

import pytest

from rogetsim import (InvalidNodeError, Level, ParseError, Reference,
                      TaxonomyNode, Thesaurus, build_index, interchange, load,
                      load_pairs, load_questions, normalize, parse_interchange,
                      serialize, structure_signature, taxonomy,
                      validate_structure)
from tests.conftest import data_path, read_from_pipe

MINIMAL = """\
C 1 Class one
S 1 Section one
U 1 Sub one
G 1 [1]
H 1 Head one
P N
Q 1
; word
"""


def test_minimal_document():
    thesaurus = parse_interchange(MINIMAL)
    assert len(thesaurus.nodes) == 9  # root + one node per level
    assert len(thesaurus.references) == 1
    ref = thesaurus.references[0]
    assert ref.display == "word 1 N."


def test_fixture_heads_and_references(thesaurus):
    heads = {n.head_number for n in thesaurus.nodes if n.head_number}
    assert {365, 438, 698, 699, 784, 844, 986} <= heads
    assert [r.display for r in thesaurus.lookup("feline")] == [
        "cat 365 N.", "animal 365 ADJ.", "cunning 698 ADJ."]
    assert [r.display for r in thesaurus.lookup("lynx")] == [
        "cat 365 N.", "eye 438 N."]


def test_nesting_violation_reported():
    bad = "C 1 Class\nS 1 Section\nP N\n"
    with pytest.raises(ParseError) as excinfo:
        parse_interchange(bad)
    assert "POS paragraph" in str(excinfo.value)
    assert excinfo.value.line == 3


def test_duplicate_head_number():
    bad = MINIMAL + "H 1 Head again\n"
    with pytest.raises(ParseError, match="duplicate head number 1"):
        parse_interchange(bad)


def test_nonpositive_head_number():
    bad = MINIMAL.replace("H 1 Head one", "H 0 Head zero")
    with pytest.raises(ParseError, match="positive"):
        parse_interchange(bad)


def test_empty_semicolon_group():
    bad = MINIMAL + "; \n"
    with pytest.raises(ParseError, match="empty semicolon group"):
        parse_interchange(bad)


def test_bad_pos():
    bad = MINIMAL.replace("P N", "P NOUN")
    with pytest.raises(ParseError, match="POS"):
        parse_interchange(bad)


def _prefix(level):
    """The records of MINIMAL above ``level`` (levels 1 .. level-1)."""
    return "".join(MINIMAL.splitlines(True)[:level - 1])


_NO_PARENT = ("{} record has no open {} to attach to (nesting rule: level {} "
              "attaches to the most recent level {} record)")
_NAMES = ["class", "section", "sub-section", "head group", "head",
          "POS paragraph", "paragraph", "semicolon group"]

# (document, line, column, message) for every ParseError of the parser.
PARSE_ERRORS = [
    ("X 1 What\n", 1, 1, "unknown record keyword 'X'"),
    (MINIMAL + "  Q1\n", 9, 1, "unknown record keyword 'Q1'"),
] + [
    # A record whose parent level is not open: the one above is skipped.
    (_prefix(level - 1) + MINIMAL.splitlines(True)[level - 1],
     level - 1, 1, _NO_PARENT.format(_NAMES[level - 1], _NAMES[level - 2],
                                     level, level - 1))
    for level in range(2, 9)
] + [
    (_prefix(level) + keyword + tail, level, 3, message % name)
    for level, keyword, name in [(1, "C", "class"), (2, "S", "section"),
                                 (3, "U", "sub-section"),
                                 (4, "G", "head group"), (5, "H", "head")]
    for tail, message in [
        ("\n", "%s record needs an ordinal and a label"),
        (" \n", "%s record needs an ordinal and a label"),
        (" x Label\n", "%s record has non-integer ordinal 'x'"),
        (" 1.5\n", "%s record has non-integer ordinal '1.5'"),
    ]
] + [
    (_prefix(5) + "H 0 Zero\n", 5, 3, "head number must be positive, got 0"),
    (_prefix(5) + "H -3 Minus\n", 5, 3,
     "head number must be positive, got -3"),
    (MINIMAL + "H 1 Again\n", 9, 3, "duplicate head number 1"),
    (_prefix(6) + "P NOUN\n", 6, 3,
     "POS must be one of N, ADJ, VB, ADV, got 'NOUN'"),
    (_prefix(6) + "P\n", 6, 3, "POS must be one of N, ADJ, VB, ADV, got ''"),
    (_prefix(7) + "Q one\n", 7, 3,
     "paragraph record has non-integer ordinal 'one'"),
    (_prefix(7) + "Q\n", 7, 3, "paragraph record has non-integer ordinal ''"),
    (MINIMAL + "; a | | b\n", 9, 3, "empty semicolon group entry"),
    (MINIMAL + "; a |\n", 9, 3, "empty semicolon group entry"),
    (MINIMAL + ";\n", 9, 3, "empty semicolon group entry"),
    (MINIMAL + "; \n", 9, 3, "empty semicolon group entry"),
    # Groups are split a block at a time, and the test below also runs
    # each document in blocks of two: an empty entry in the first group,
    # in the first group past a block of two, and in the last group, which
    # is split after the last line.
    (MINIMAL.replace("; word", "; | word") + "; b\n; c\nQ 2\n; d\n", 8, 3,
     "empty semicolon group entry"),
    (MINIMAL + "; b\nQ 2\n; c |\n; d\n", 11, 3,
     "empty semicolon group entry"),
    (MINIMAL + "; b\n; c\nQ 2\n; d\n; e | | f\n", 13, 3,
     "empty semicolon group entry"),
    # Of two errors, the first in the document is raised, whichever kind.
    (MINIMAL + "; b | \n# note\nX 1 What\n", 9, 3,
     "empty semicolon group entry"),
    (MINIMAL + "X 1 What\n; b | \n", 9, 1, "unknown record keyword 'X'"),
]


@pytest.mark.parametrize("document,line,column,message", PARSE_ERRORS)
def test_parse_error_is_pinned(document, line, column, message, monkeypatch):
    for block in (interchange._BLOCK, 2):
        monkeypatch.setattr(interchange, "_BLOCK", block)
        with pytest.raises(ParseError) as info:
            parse_interchange(document)
        error = info.value
        assert (error.line, error.column) == (line, column)
        assert str(error) == "line %d, column %d: %s" % (line, column,
                                                          message)


def test_line_endings_split_like_a_file(tmp_path):
    signatures = set()
    for ending in ("\n", "\r\n", "\r"):
        text = MINIMAL.replace("\n", ending)
        thesaurus = parse_interchange(text)
        assert len(thesaurus.nodes) == 9
        assert len(thesaurus.references) == 1
        signatures.add(structure_signature(thesaurus))
        path = tmp_path / "minimal.rt"
        path.write_bytes(text.encode("utf-8"))
        assert structure_signature(load(path)) in signatures
    assert len(signatures) == 1


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
def test_load_reports_bytes_that_are_not_utf8(tmp_path, ending):
    # Past the first 8 KiB, which a text stream decodes as one chunk.
    padding = "# café\n" * 2000
    path = tmp_path / "bad.rt"
    path.write_bytes((padding + MINIMAL).replace("\n", ending).encode()
                     + b"; caf\xe9" + ending.encode())
    with pytest.raises(ParseError) as info:
        load(path)
    line = 2000 + MINIMAL.count("\n") + 1
    assert str(info.value) == (
        "line %d, column 6: byte 0xe9 is not UTF-8" % line)


def test_load_reports_an_empty_entry_before_a_bad_byte(tmp_path):
    # The bad byte lies past the first 8 KiB, which decode before it.
    path = tmp_path / "bad.rt"
    path.write_bytes((MINIMAL + "; a | \n" + "# café\n" * 2000).encode()
                     + b"; caf\xe9\n")
    with pytest.raises(ParseError) as info:
        load(path)
    assert str(info.value) == "line 9, column 3: empty semicolon group entry"


@pytest.mark.parametrize("line,message", [
    ("X foo\n", "line 9, column 1: unknown record keyword 'X'"),
    ("; a | \n", "line 9, column 3: empty semicolon group entry")])
def test_load_reports_an_error_before_a_bad_byte_in_its_chunk(tmp_path, line,
                                                              message):
    # The file is one chunk of the text stream, which fails to decode
    # before any of its lines is parsed.
    path = tmp_path / "bad.rt"
    path.write_bytes((MINIMAL + line).encode() + b"; caf\xe9\n")
    with pytest.raises(ParseError) as info:
        load(path)
    assert str(info.value) == message


def test_load_reads_a_pipe_once(tmp_path):
    with pytest.raises(ParseError) as info:
        read_from_pipe(tmp_path / "bad", MINIMAL.encode() + b"; caf\xe9\n",
                       load)
    assert str(info.value) == "line %d, column 6: byte 0xe9 is not UTF-8" % (
        MINIMAL.count("\n") + 1)
    thesaurus = read_from_pipe(tmp_path / "good", MINIMAL.encode(), load)
    assert len(thesaurus.references) == 1


def test_load_locates_a_bad_byte_in_the_file_it_opened(tmp_path,
                                                       monkeypatch):
    # The path is replaced while the parse is under way; the error still
    # comes from the bytes of the file that was read.
    path, good = tmp_path / "t.rt", tmp_path / "good.rt"
    path.write_bytes(("# café\n" * 2000 + MINIMAL).encode() + b"; \xff\n")
    good.write_text(MINIMAL, encoding="utf-8")
    parse = interchange.parse_interchange

    def replace_then_parse(source):
        os.replace(good, path)
        return parse(source)

    monkeypatch.setattr(interchange, "parse_interchange", replace_then_parse)
    with pytest.raises(ParseError) as info:
        load(path)
    assert str(info.value) == "line %d, column 3: byte 0xff is not UTF-8" % (
        2000 + MINIMAL.count("\n") + 1)
    monkeypatch.undo()
    assert len(load(path).references) == 1


def test_comments_and_blank_lines_ignored():
    text = "# leading comment\n\n" + MINIMAL + "\n# trailing\n"
    assert len(parse_interchange(text).references) == 1


@pytest.mark.parametrize("raw,expected", [
    ("  Journey's   End ", "journey's end"),
    ("Lynx", "lynx"),
    ("like greased lightning", "like greased lightning"),
    ("", ""),
    ("Cafe\u0301", "caf\u00e9"),
])
def test_normalize(raw, expected):
    assert normalize(raw) == expected


@pytest.mark.parametrize("form", ["NFC", "NFD"])
def test_lookup_matches_either_unicode_form(form):
    entry = unicodedata.normalize(form, "café")
    thesaurus = parse_interchange(MINIMAL.replace("word", entry))
    for query in ("café", unicodedata.normalize("NFD", "Café")):
        assert [r.entry_text for r in thesaurus.lookup(query)] == [entry]


def test_index_lookup_counts(thesaurus):
    assert len(thesaurus.lookup("feline")) == 3
    assert len(thesaurus.lookup("lynx")) == 2
    assert thesaurus.lookup("zzzz") == []


def test_lookup_result_is_the_callers_own(thesaurus):
    found = thesaurus.lookup("lynx")
    found.append(thesaurus.lookup("feline")[0])
    thesaurus.lookup("zzzz").append(found[0])
    assert len(thesaurus.lookup("lynx")) == 2
    assert thesaurus.lookup("zzzz") == []


def test_index_keys_match_normalized_entries(thesaurus):
    for key, refs in build_index(thesaurus).items():
        for ref in refs:
            assert normalize(ref.entry_text) == key


def test_round_trip(thesaurus, fixture_text):
    reparsed = parse_interchange(serialize(thesaurus))
    assert structure_signature(reparsed) == structure_signature(thesaurus)
    assert build_index(reparsed) == build_index(thesaurus)
    # serialize is a fixed point
    assert serialize(reparsed) == serialize(thesaurus)


def breadth_first(thesaurus):
    """The same tree built directly, its ids in breadth-first order.

    So every class comes before any section, and no family's ids run on
    from its parent's as a parsed document's do.
    """
    order = sorted(range(len(thesaurus.nodes)),
                   key=thesaurus.levels.__getitem__)
    new_id = {old: new for new, old in enumerate(order)}
    new_id[-1] = -1
    nodes = [dataclasses.replace(thesaurus.nodes[old], id=new, children=[],
                                 parent=new_id[thesaurus.parents[old]])
             for new, old in enumerate(order)]
    references = [dataclasses.replace(
        ref, semicolon_group=new_id[ref.semicolon_group])
        for ref in thesaurus.references]
    return Thesaurus(nodes, references)


TWO_CLASSES = MINIMAL + (
    "C 2 Class two\nS 1 Section two\nU 1 Sub two\nG 1 [2]\nH 2 Head two\n"
    "P VB\nQ 1\n; go | move\n")


@pytest.mark.parametrize("text", [TWO_CLASSES, None],
                         ids=["two-classes", "fixture"])
def test_serialize_writes_each_node_under_its_parent(text, fixture_text):
    parsed = parse_interchange(text or fixture_text)
    built = breadth_first(parsed)
    assert built.levels != parsed.levels
    assert serialize(built) == serialize(parsed)
    if text:
        # Class 2 is node 2, before class 1's section, and still follows
        # every record of class 1.
        assert built.levels[:4] == (Level.ROOT, Level.CLASS, Level.CLASS,
                                    Level.SECTION)
        assert serialize(built) == text
    reparsed = parse_interchange(serialize(built))
    assert structure_signature(reparsed) == structure_signature(built)
    assert build_index(reparsed) == build_index(parsed)


def test_validate_reports_a_repeated_head_number():
    # The parser refuses a repeated head number, so the tree is built
    # directly, from the parsed one with head 2 renumbered 1.
    nodes = parse_interchange(TWO_CLASSES).nodes[:]
    nodes[13] = dataclasses.replace(nodes[13], head_number=1)
    report = validate_structure(Thesaurus(nodes, []))
    assert report.violations == [
        "semicolon group 8 has no entries",
        "node 13 (head) repeats head number 1 of node 5",
        "semicolon group 16 has no entries"]


def test_validate_structure_fixture_counts(thesaurus):
    report = validate_structure(thesaurus)
    assert report.ok
    # Frozen from the fixture file (counted by script over the records).
    assert report.classes == 8
    assert report.sections == 11
    assert report.sub_sections == 15
    assert report.head_groups == 21
    assert report.heads == 25
    assert report.pos_paragraphs == 30
    assert report.paragraphs == 37
    assert report.semicolon_groups == 55
    assert report.entries == 116


def test_validate_reports_group_without_entries():
    nodes = parse_interchange(MINIMAL).nodes
    report = validate_structure(Thesaurus(nodes, []))
    assert report.violations == ["semicolon group 8 has no entries"]


def test_validate_reports_group_at_depth_seven():
    # A tree that skips a level cannot be built, so validate_structure
    # never sees one.
    parsed = parse_interchange(MINIMAL)
    group = TaxonomyNode(id=7, level=Level.SEMICOLON_GROUP, label="word",
                         parent=6)
    with pytest.raises(InvalidNodeError,
                       match="^node 7's level 8 is not its depth 7$"):
        Thesaurus(parsed.nodes[:7] + [group], [])


def test_validate_reports_repeated_sibling_ordinals():
    # Node 9 repeats class 1, node 11 section 1 of class 9, node 18
    # paragraph 1 of POS paragraph 15, and node 20 class 1 once more.
    # Ordinals repeated under different parents are no violation.
    document = MINIMAL + (
        "C 1 Class two\nS 1 Section\nS 1 Section again\nU 1 Sub\n"
        "G 1 [2]\nH 2 Head two\nP N\nQ 1\n; a\nQ 1\n; b\n"
        "C 1 Class three\n")
    report = validate_structure(parse_interchange(document))
    assert report.violations == [
        "node 9 (class) repeats ordinal 1 under root",
        "node 11 (section) repeats ordinal 1 under node 9 (class)",
        "node 18 (paragraph) repeats ordinal 1 under node 15 (POS paragraph)",
        "node 20 (class) repeats ordinal 1 under root"]


def test_validate_empty_thesaurus():
    report = validate_structure(parse_interchange(""))
    assert report.classes == 0 and report.entries == 0
    assert "no classes" in report.violations


def _nesting_valid(lines):
    """Independent nesting predicate for the shuffle fuzz test."""
    levels = {"C": 1, "S": 2, "U": 3, "G": 4, "H": 5, "P": 6, "Q": 7, ";": 8}
    open_level = 0
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        level = levels[line.split()[0]]
        if level > open_level + 1:
            return False
        open_level = level
    return True


def test_shuffle_fuzz(fixture_text):
    lines = [l for l in fixture_text.splitlines()
             if l.strip() and not l.lstrip().startswith("#")]
    rng = random.Random(11)
    broken = 0
    for _ in range(50):
        shuffled = lines[:]
        rng.shuffle(shuffled)
        text = "\n".join(shuffled)
        if _nesting_valid(shuffled):
            continue
        broken += 1
        with pytest.raises(ParseError):
            parse_interchange(text)
    assert broken > 0


# Each parser with its fixture, and the error it gives when the fixture
# starts with two byte-order marks: the second is text, so the first line
# is no longer a comment.
_MARKED_FIXTURES = [
    (parse_interchange, "roget_fixture.rt",
     "line 1, column 1: unknown record keyword '\\ufeff#'"),
    (load_questions, "questions_fixture.tsv",
     "line 1, column 6: gold index 'gold' is not an integer"),
    (load_pairs, "pairs_fixture.tsv",
     "line 1, column 1: first data line must be 'scale<TAB>min<TAB>max'"),
]


@pytest.mark.parametrize("parse,name,second_mark", _MARKED_FIXTURES,
                         ids=["thesaurus", "questions", "pairs"])
def test_one_leading_byte_order_mark_is_dropped(tmp_path, parse, name,
                                                second_mark):
    comparable = serialize if parse is parse_interchange else (lambda x: x)
    with open(data_path(name), encoding="utf-8") as handle:
        text = handle.read()
    path = tmp_path / name

    def from_file():
        if parse is parse_interchange:
            return load(path)
        with open(path, encoding="utf-8") as handle:
            return parse(handle)

    def entry_points(document):
        """``parse`` of a string, a stream and a file holding ``document``."""
        path.write_text(document, encoding="utf-8")
        return [lambda: parse(document),
                lambda: parse(io.StringIO(document)), from_file]

    for read in entry_points("\ufeff" + text):
        assert comparable(read()) == comparable(parse(text))
    for read in entry_points("\ufeff\ufeff" + text):
        with pytest.raises(ParseError) as info:
            read()
        assert str(info.value) == second_mark


def test_parsed_references_equal_constructed_ones(thesaurus):
    read = [*thesaurus.references, *thesaurus.index["feline"],
            *(ref for members in thesaurus.members for ref in members)]
    for ref in read:
        built = Reference(ref.entry_text, ref.semicolon_group, ref.pos,
                          ref.head_number, ref.keyword)
        assert type(ref) is Reference
        assert ref == built
        assert hash(ref) == hash(built)
        assert repr(ref) == repr(built)
    ref = thesaurus.references[0]
    for name in (f.name for f in dataclasses.fields(Reference)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ref, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(ref, name)
    moved = dataclasses.replace(ref, semicolon_group=0)
    assert type(moved) is Reference
    assert moved == Reference(ref.entry_text, 0, ref.pos, ref.head_number,
                              ref.keyword)


def test_parsed_records_read_the_document(thesaurus, fixture_text):
    # Each reference's text is the document's entry, in document order, and
    # its POS, head number and keyword are those of its POS paragraph, head
    # and paragraph; members and the index hold the same records by value.
    refs = list(thesaurus.references)
    assert [r.entry_text for r in refs] == [
        entry.strip() for line in fixture_text.splitlines()
        if line.startswith("; ") for entry in line[2:].split("|")]
    for ref in refs:
        above = {n.level: n for n in thesaurus.ancestors(ref.semicolon_group)}
        assert ref.pos is above[Level.POS_PARAGRAPH].pos
        assert ref.head_number == above[Level.HEAD].head_number
        assert ref.keyword == above[Level.PARAGRAPH].label
    assert list(thesaurus.members) == [
        tuple(r for r in refs if r.semicolon_group == node_id)
        for node_id in range(len(thesaurus.nodes))]
    assert dict(thesaurus.index) == {
        key: tuple(r for r in refs if normalize(r.entry_text) == key)
        for key in {normalize(r.entry_text) for r in refs}}


def test_parse_makes_no_references(fixture_text):
    before = {id(o) for o in gc.get_objects() if type(o) is Reference}
    thesaurus = parse_interchange(fixture_text)
    assert [o for o in gc.get_objects()
            if type(o) is Reference and id(o) not in before] == []
    assert thesaurus._records == {}


def test_equal_entry_texts_share_one_string(thesaurus):
    texts = [r.entry_text for r in thesaurus.references]
    assert len({id(text) for text in texts}) == len(set(texts)) < len(texts)


def test_decoding_keeps_byte_order_marks():
    assert interchange.decode_utf8(b"\xef\xbb\xbf\xef\xbb\xbfa\r\n") == (
        "\ufeff\ufeffa\n")
    assert interchange.decode_utf8(b"a\xef\xbb\xbf") == "a\ufeff"


def test_load_drops_a_byte_order_mark_from_a_pipe(tmp_path):
    data = b"\xef\xbb\xbf" + MINIMAL.encode()
    assert serialize(read_from_pipe(tmp_path / "pipe", data, load)) == MINIMAL


def test_spellings_of_one_entry_keep_document_order(monkeypatch):
    texts = []
    monkeypatch.setattr(taxonomy, "normalize",
                        lambda text: texts.append(text) or normalize(text))
    thesaurus = parse_interchange(MINIMAL + "; Cat\n; cat | CAT\n; Cat\n")
    assert [(r.entry_text, r.semicolon_group)
            for r in thesaurus.lookup("cat")] == [
        ("Cat", 9), ("cat", 10), ("CAT", 10), ("Cat", 11)]
    # At most once per distinct entry text ("cat" is its own key, so it is
    # never normalized while the index is built), then once for the lookup.
    assert sorted(texts) == ["CAT", "Cat", "cat", "word"]


@pytest.mark.parametrize("enabled", [True, False])
def test_parse_leaves_the_collector_as_it_found_it(enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert len(parse_interchange(MINIMAL).references) == 1
        assert gc.isenabled() is enabled
        with pytest.raises(ParseError):
            parse_interchange("X 1 What\n")
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
