"""The full-scale checks of rogetsim, at the 1987 edition's scale.

    PYTHONPATH=perfbench:src python3 scripts/fullscale.py

Generates seeds 1 and 2 of the benchmark's synthetic thesaurus
(``perfbench/synth.py``) once each, with their benchmark pairs and
questions.  The in-process checks share each seed's text, one parse of it
and one oracle (``perfbench/oracle.py``, which does not use rogetsim);
``lookup-forms`` and ``concurrent-queries`` parse seed 1 again, as each
needs a thesaurus with no records made.  The pins belong to seed 1.
Then the benchmark harness, ``perfbench/run.py --seconds 1``, runs each
of its answer checks in a process of its own.  Every check runs, even after one
has failed, and prints one line: ``ok`` or ``FAIL``, its name, its
detail and its wall time, which includes a seed's text, parse or oracle
when the check is the first to read it.  The exit status is 1 if any
check failed.

``roget validate`` at this scale is not here: it tests the installed
``roget`` script, so the CI workflow runs it on its own.
"""

import dataclasses
import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from functools import cached_property

import synth
from oracle import Oracle
from rogetsim import (Level, PartOfSpeech, Reference, SynonymQuestion,
                      Thesaurus, WordNotFoundError, answer_question, load,
                      normalize, parse_interchange, serialize,
                      structure_signature, word_min_distance)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2)
# Every seed-1 index key and the fields of each of its references.
INDEX_SHA256 = ("04b77a170f056cb875653e1490626720"
                "a57e1f369d0b0e96dc37122929b170e7")
# serialize's text of seed 1, read in each input form.
FORMS_SHA256 = ("72fbce17107974d6e649aafd41f44080"
                "d0b7ba126e00aabe96bad6d04b147b2b")
# The node fields each level's record writes; a thesaurus reads every other
# one from the tree.
WRITTEN = {Level.ROOT: (), Level.HEAD: ("head_number", "label"),
           Level.POS_PARAGRAPH: ("pos",), Level.PARAGRAPH: ("ordinal",),
           Level.SEMICOLON_GROUP: ()}
WRITTEN.update(dict.fromkeys([Level.CLASS, Level.SECTION, Level.SUB_SECTION,
                              Level.HEAD_GROUP], ("ordinal", "label")))
# A value for each node field unlike any a seed's tree gives it.
UNLIKE = {"label": "", "ordinal": -1, "head_number": 1,
          "pos": PartOfSpeech.ADVERB}
# Threads of the concurrency check, each of which runs every seed-1 pair
# and question.
THREADS = 4
# Seconds the check waits for each of them: a run takes about 10 s.
JOIN_TIMEOUT = 300
# The harness runs: (workload, seed, trace).
RUNS = (("synonym-test", 1, 0), ("synonym-test", 2, 0),
        ("cli-cold", 1, 0), ("pairs-uniform", 1, 0), ("pairs-uniform", 2, 0),
        ("synonym-test", 1, 1), ("pairs-uniform", 1, 1), ("cli-cold", 1, 1))


class Seed:
    """One seed's generated text, pairs and questions, and its parse and
    oracle, each made once."""

    def __init__(self, number):
        self.number = number
        self.references_made = None

    @cached_property
    def generated(self):
        """The interchange text, the pairs-uniform pairs and the synonym-test
        questions; the generator's other tables are not kept."""
        model = synth.generate(self.number)
        return (model.text, synth.pair_list(model, self.number),
                synth.question_list(model, self.number))

    @property
    def text(self):
        return self.generated[0]

    @cached_property
    def thesaurus(self):
        # The parse itself should make no Reference: records are made when
        # a word is first read.  Records that other checks hold are kept alive
        # in `before`, so that none of the parse's records can take one of
        # their ids and go uncounted.
        text = self.text
        before = [o for o in gc.get_objects() if type(o) is Reference]
        known = {id(o) for o in before}
        thesaurus = parse_interchange(text)
        self.references_made = sum(type(o) is Reference and id(o) not in known
                                   for o in gc.get_objects())
        return thesaurus

    @cached_property
    def oracle(self):
        return Oracle.from_interchange(self.text)

    @cached_property
    def ranked(self):
        """The index keys, most references first."""
        index = self.thesaurus.index
        return sorted(index, key=lambda key: (-len(index[key]), key))


def key_width(seeds):
    # word_min_distance's kernel bisects each word's cached keys, the ints of
    # Thesaurus.keys themselves, whose speed rests on each being one 30-bit
    # CPython int digit.  The bound is 2**29, one bit inside that digit.
    widest = max(seeds[1].thesaurus.keys)
    return widest < 2 ** 29, "key bits: %d" % widest.bit_length()


def serialize_round_trip(seeds):
    # serialize writes the nodes in key order: its text must parse back to
    # the same tree and serialize to itself.
    thesaurus = seeds[1].thesaurus
    text = serialize(thesaurus)
    again = parse_interchange(text)
    same = (serialize(again) == text
            and structure_signature(again) == structure_signature(thesaurus))
    return same, "serialized lines: %d" % text.count("\n")


def index_digest(thesaurus):
    """The sha256 of every index key and the fields of each of its
    references, in sorted key order."""
    digest = hashlib.sha256()
    for key in sorted(thesaurus.index):
        digest.update(repr((key, [
            (r.entry_text, r.semicolon_group, r.pos.value, r.head_number,
             r.keyword)
            for r in thesaurus.index[key]])).encode())
    return digest.hexdigest()


def key_listing(thesaurus):
    """Each index key, in order, to the keys of its references' groups."""
    keys = thesaurus.keys
    return {key: [keys[r.semicolon_group] for r in refs]
            for key, refs in thesaurus.index.items()}


def rebuilt(seeds):
    # Seed 1's own nodes, every field their records do not write replaced,
    # given to Thesaurus with its references as parsed, again with their
    # groups in reverse order, and renumbered level by level with each
    # paragraph's semicolon groups numbered in reverse paragraph order, so
    # that group id order is not key order.  The fields are read from the
    # tree and the references kept in document order, so each build
    # serializes to the pinned text, has the parse's structure and lists its
    # index keys, and each key's group keys, as the parse does.  The index
    # pin holds group ids, so only the two builds numbered as parsed read it.
    thesaurus = seeds[1].thesaurus
    nodes = [dataclasses.replace(node, **{
        name: value for name, value in UNLIKE.items()
        if name not in WRITTEN[node.level]}) for node in thesaurus.nodes]
    references = list(thesaurus.references)
    keys, parents, levels = thesaurus.keys, thesaurus.parents, thesaurus.levels
    order = sorted(range(len(nodes)), key=lambda i: (
        levels[i], -keys[parents[i]] if levels[i] == Level.SEMICOLON_GROUP
        else 0, keys[i]))
    new_id = {old: new for new, old in enumerate(order)}
    new_id[-1] = -1
    out_of_order = (
        [dataclasses.replace(nodes[old], id=new, parent=new_id[parents[old]])
         for new, old in enumerate(order)],
        [Reference(r.entry_text, new_id[r.semicolon_group], r.pos,
                   r.head_number, r.keyword) for r in references])
    listing = key_listing(thesaurus)
    failed, details = 0, []
    for name, (given_nodes, given), pinned in (
            ("as parsed", (nodes, references), True),
            ("groups reversed", (nodes, sorted(
                references, key=lambda ref: -ref.semicolon_group)), True),
            ("groups out of key order", out_of_order, False)):
        built = Thesaurus(given_nodes, given)
        text = hashlib.sha256(serialize(built).encode()).hexdigest()
        index = index_digest(built) if pinned else "not pinned"
        same = structure_signature(built) == structure_signature(thesaurus)
        built_listing = key_listing(built)
        in_order = list(built_listing) == list(listing)
        differing = sum(listing.get(key) != group_keys
                        for key, group_keys in built_listing.items())
        failed += not (text == FORMS_SHA256 and same and in_order
                       and differing == 0
                       and index in (INDEX_SHA256, "not pinned"))
        details.append("%s: serialize sha256 %s, index sha256 %s, structure"
                       " %s, key order %s, %d keys' group keys unlike the "
                       "parse's" % (name, text, index,
                                    "equal" if same else "differs",
                                    "equal" if in_order else "differs",
                                    differing))
    return failed == 0, "; ".join(details)


def index_pin(seeds):
    # Every seed-1 index key and the fields of each of its references, in
    # sorted key order; and the parse itself makes no Reference.
    made = seeds[1].references_made
    digest = index_digest(seeds[1].thesaurus)
    return (made == 0 and digest == INDEX_SHA256,
            "references made by the parse: %d, index sha256: %s"
            % (made, digest))


def variant(key):
    """A text that normalizes to ``key``: upper case, padded and with each
    inner space doubled."""
    return " %s\t" % key.upper().replace(" ", "  ")


def lookup_forms(seeds):
    # On a fresh parse of seed 1 (index_pin has made every record of the
    # shared one), every index key is read first under a variant that
    # normalizes to it (``variant``) for half of the keys, and under the key
    # itself for the other half.
    # Every later read, under either form, must return the objects the first
    # read kept.
    thesaurus = parse_interchange(seeds[1].text)
    keys = list(thesaurus.index)
    mismatches = 0
    for i, key in enumerate(keys):
        form = variant(key)
        first, later = (form, key) if i % 2 else (key, form)
        kept = thesaurus.lookup(first)
        mismatches += not kept or normalize(form) != key
        for text in (later, first, later):
            again = thesaurus.lookup(text)
            mismatches += len(again) != len(kept) or any(
                a is not b for a, b in zip(again, kept))
    return mismatches == 0, (
        "%d keys, %d first read under a variant, %d mismatches"
        % (len(keys), len(keys) // 2, mismatches))


def index_order(seeds):
    # The index's keys in first-seen order and each key's references in
    # document order, against a plain grouping of every reference by its
    # normalized entry text.
    failed, details = 0, []
    for number in SEEDS:
        thesaurus = seeds[number].thesaurus
        grouped = {}
        for r in thesaurus.references:
            grouped.setdefault(normalize(r.entry_text), []).append(
                (r.entry_text, r.semicolon_group))
        in_order = list(thesaurus.index) == list(grouped)
        mismatches = sum([(r.entry_text, r.semicolon_group)
                          for r in thesaurus.index[key]] != pairs
                         for key, pairs in grouped.items())
        details.append("seed %d: %d keys, key order %s, %d keys mismatched" % (
            number, len(grouped), "equal" if in_order else "differs",
            mismatches))
        failed += mismatches + (not in_order)
    return failed == 0, "; ".join(details)


def input_forms(seeds):
    # The seed-1 document given as a string, as a StringIO, as a CRLF file
    # opened with newline="" and, through load, as a CRLF file that starts
    # with a byte-order mark and as a CR file: each form serializes to the
    # same pinned sha256, so the parse reads each form's lines alike.
    text = seeds[1].text
    with tempfile.TemporaryDirectory() as directory:
        crlf = os.path.join(directory, "crlf.rt")
        bom = os.path.join(directory, "bom.rt")
        cr = os.path.join(directory, "cr.rt")
        for path, encoding, ending in ((crlf, "utf-8", "\r\n"),
                                       (bom, "utf-8-sig", "\r\n"),
                                       (cr, "utf-8", "\r")):
            with open(path, "w", encoding=encoding, newline=ending) as out:
                out.write(text)

        def crlf_stream():
            with open(crlf, encoding="utf-8", newline="") as stream:
                return parse_interchange(stream)

        forms = {"str": lambda: seeds[1].thesaurus,
                 "StringIO": lambda: parse_interchange(io.StringIO(text)),
                 "CRLF stream": crlf_stream,
                 "BOM CRLF load": lambda: load(bom),
                 "CR load": lambda: load(cr)}
        by_digest = {}
        for name, parse in forms.items():
            digest = hashlib.sha256(serialize(parse()).encode()).hexdigest()
            by_digest.setdefault(digest, []).append(name)
    return set(by_digest) == {FORMS_SHA256}, "; ".join(
        "%s: serialize sha256 %s" % (", ".join(names), digest)
        for digest, names in by_digest.items())


def frequent_word_distances(seeds):
    # The bisecting kernel on the words with the most references: the 200
    # most frequent index keys and 200 spread evenly over the other
    # frequency ranks, every pair of them (a word with itself too) against
    # the oracle's (distance, minimizing pair count).  Every eighth pair is
    # compared first with its first word given as a ``variant``, so that
    # many words' keys are first cached from a variant's lookup, by the
    # index key of its records.
    failed, details = 0, []
    for number in SEEDS:
        seed = seeds[number]
        thesaurus, oracle, ranked = seed.thesaurus, seed.oracle, seed.ranked
        rest = ranked[200:]
        words = ranked[:200] + rest[::len(rest) // 200][:200]
        pairs = [(w1, w2) for i, w1 in enumerate(words) for w2 in words[i:]]
        varied = [(variant(w1), w1, w2) for w1, w2 in pairs[::8]]
        mismatches = 0
        for text, w1, w2 in varied + [(w1, w1, w2) for w1, w2 in pairs]:
            result = word_min_distance(thesaurus, text, w2)
            mismatches += ((result.min_distance, result.pair_count)
                           != oracle.word_distance(w1, w2))
        details.append("seed %d: %d pairs of words with %d to %d references,"
                       " %d of them also under a variant, %d mismatches" % (
                           number, len(pairs),
                           len(thesaurus.index[words[-1]]),
                           len(thesaurus.index[words[0]]), len(varied),
                           mismatches))
        failed += mismatches
    return failed == 0, "; ".join(details)


def rendered(path, r1, r2, distance):
    """Whether render_path's ``path`` of a pair ``distance`` apart starts
    and ends with the pair's entry texts and has one arrow per edge, or
    one at distance 0, as tree_path's docstring says."""
    arrows = path.count(" → ") + path.count(" ← ")
    return (path.startswith(r1.entry_text + " ")
            and path.endswith(" " + r2.entry_text)
            and arrows == max(distance, 1))


def pairs_within(seeds):
    # achieving_pairs, listed from the lookup lists word_min_distance keeps,
    # on every pair of the 50 most frequent seed-1 words (a word with itself
    # too): as many pairs as the oracle counts, each at the oracle's minimum,
    # and each rendered by render_path to a path of that many edges.
    seed = seeds[1]
    thesaurus, oracle = seed.thesaurus, seed.oracle
    group_of = {chain[-1]: group for group, chain in enumerate(oracle.ancestors)}
    words = seed.ranked[:50]
    listed = mismatches = misrendered = 0
    for i, w1 in enumerate(words):
        for w2 in words[i:]:
            distance, count = oracle.word_distance(w1, w2)
            pairs = word_min_distance(thesaurus, w1, w2).achieving_pairs
            listed += len(pairs)
            mismatches += len(pairs) != count or any(
                oracle.group_distance(group_of[r1.semicolon_group],
                                      group_of[r2.semicolon_group]) != distance
                for r1, r2 in pairs)
            misrendered += sum(
                not rendered(thesaurus.render_path(r1, r2), r1, r2, distance)
                for r1, r2 in pairs)
    return mismatches == misrendered == 0, (
        "%d pairs of words with %d to %d references, %d achieving pairs,"
        " %d mismatches, %d paths misrendered" % (
            len(words) * (len(words) + 1) // 2,
            len(thesaurus.index[words[-1]]), len(thesaurus.index[words[0]]),
            listed, mismatches, misrendered))


def queried(thesaurus, pairs, questions):
    """Each pair's (distance, pair count, achieving pairs listed), or None
    for an absent word, then each question's (chosen index, verdict,
    per-choice (distance, pair count))."""
    out = []
    for w1, w2 in pairs:
        try:
            result = word_min_distance(thesaurus, w1, w2)
        except WordNotFoundError:
            out.append(None)
        else:
            out.append((result.min_distance, result.pair_count,
                        len(result.achieving_pairs)))
    for question in questions:
        result = answer_question(thesaurus, question)
        out.append((result.chosen_index, result.verdict, [
            (e.effective_distance, e.pair_count) for e in result.per_choice]))
    return out


def concurrent_queries(seeds):
    # The thesaurus is safe to query concurrently: on a fresh seed-1 parse,
    # THREADS threads, switching as often as the interpreter lets them, each
    # run all of the benchmark's pairs-uniform pairs in a shuffled order of
    # their own, listing each result's achieving pairs, then its synonym-test
    # questions.  Every answer must be the oracle's, and each per-word cache
    # must hold index keys only, so at most one entry per key.
    seed = seeds[1]
    oracle = seed.oracle
    _, pairs, questions = seed.generated
    expected = {}  # pair -> queried's answer: the pair count listed too
    for pair in pairs:
        best = oracle.word_distance(*pair)
        expected[pair] = None if best is None else (*best, best[1])
    asked = [SynonymQuestion(problem, list(choices), gold)
             for problem, choices, gold in questions]
    answers = [oracle.answer(*question) for question in questions]
    thesaurus = parse_interchange(seed.text)
    outcomes = [None] * THREADS

    def run(number):
        order = pairs[:]
        random.Random(number).shuffle(order)
        want = [expected[pair] for pair in order] + answers
        try:
            got = queried(thesaurus, order, asked)
        except Exception as error:  # reported by the check's thread
            outcomes[number] = error
            return
        outcomes[number] = sum(g != w for g, w in zip(got, want))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(number,), daemon=True)
                   for number in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(JOIN_TIMEOUT)
    finally:
        sys.setswitchinterval(interval)
    running = sum(thread.is_alive() for thread in threads)
    if running:
        return False, "%d of %d threads still running after %d s" % (
            running, THREADS, JOIN_TIMEOUT)
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    keys = thesaurus.index.keys()
    caches = {"records": thesaurus._records,
              "group keys": thesaurus._group_keys}
    strays = {name: len(cache.keys() - keys) for name, cache in caches.items()}
    return sum(outcomes) == 0 and not any(strays.values()), (
        "%d threads, each %d pairs and %d questions, %d mismatches; %s"
        % (THREADS, len(pairs), len(questions), sum(outcomes), ", ".join(
            "%s cache: %d words, %d not index keys"
            % (name, len(cache), strays[name])
            for name, cache in caches.items())))


IN_PROCESS = (key_width, serialize_round_trip, rebuilt, index_pin,
              lookup_forms, index_order, input_forms, frequent_word_distances,
              pairs_within, concurrent_queries)


def harness_run(workload, seed, trace):
    """run.py's answer check: it must exit 0 and read correct.

    Its last line of stdout is a JSON object whose ``correct`` must be true.
    """
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        return False, "exit code %d: %s" % (
            done.returncode, (done.stderr.strip().splitlines() or [""])[-1])
    final = json.loads(done.stdout.splitlines()[-1])
    return final["correct"] is True, "correct %s, %d of %d operations failed" % (
        json.dumps(final["correct"]), final["failed"], final["attempted"])


def report(name, check):
    """Run one check and print its line; return whether it passed."""
    start = time.perf_counter()
    try:
        passed, detail = check()
    except Exception as error:
        traceback.print_exc()
        passed, detail = False, "%s: %s" % (type(error).__name__, error)
    print("%-4s %s: %s (%.1f s)" % ("ok" if passed else "FAIL", name, detail,
                                    time.perf_counter() - start), flush=True)
    return passed


def main():
    seeds = {number: Seed(number) for number in SEEDS}
    start = time.perf_counter()
    failed = sum(not report(check.__name__.replace("_", "-"),
                            lambda: check(seeds))
                 for check in IN_PROCESS)
    in_process = time.perf_counter() - start
    # Free both seeds' parses and oracles before the harness's processes start.
    del seeds
    start = time.perf_counter()
    for workload, seed, trace in RUNS:
        failed += not report(
            "%s%s seed %d" % ("traced " if trace else "", workload, seed),
            lambda: harness_run(workload, seed, trace))
    print("%d of %d checks failed; in-process checks %.1f s, harness runs"
          " %.1f s" % (failed, len(IN_PROCESS) + len(RUNS), in_process,
                       time.perf_counter() - start))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
