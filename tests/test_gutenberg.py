"""Best-effort 1911 Roget's import."""

import os

import pytest

from rogetsim import (GutenbergImportError, build_index,
                      import_gutenberg_1911, parse_interchange, serialize,
                      structure_signature, validate_structure)
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


def test_empty_input_rejected():
    with pytest.raises(GutenbergImportError):
        import_gutenberg_1911("")


def test_unrecognizable_input_rejected():
    with pytest.raises(GutenbergImportError):
        import_gutenberg_1911("The quick brown fox.\nNothing thesaural here.\n")


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
