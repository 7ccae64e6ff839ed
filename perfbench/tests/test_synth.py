"""The generator is a pure function of the seed and matches rogetsim's tree."""

import hashlib

import rogetsim
import synth


def digest(seed, shape):
    model = synth.generate(seed, shape)
    parts = [model.text, repr(synth.pair_list(model, seed)),
             repr(synth.question_list(model, seed)),
             repr(synth.cli_plan(model, seed))]
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def test_same_seed_gives_identical_bytes():
    assert digest(7, synth.TINY) == digest(7, synth.TINY)
    assert digest(7, synth.TINY) != digest(8, synth.TINY)


def test_full_scale_is_deterministic_and_1987_sized():
    first, second = synth.generate(11), synth.generate(11)
    assert first.text.encode("utf-8") == second.text.encode("utf-8")
    sizes = first.sizes
    assert sizes["nodes_per_level"]["head"] == 1000
    assert 40000 <= sizes["nodes_per_level"]["semicolon_group"] <= 60000
    assert 170000 <= sizes["references"] <= 230000
    assert 50000 <= sizes["distinct_entries"] <= 80000
    assert sizes["top_entry_references"] == sizes["reference_cap"] == 220


def test_ancestor_tuples_are_rogetsim_node_ids():
    model = synth.generate(3, synth.TINY)
    thesaurus = rogetsim.parse_interchange(model.text)
    for chain in model.ancestors:
        node = thesaurus.node(chain[8])
        assert node.level == rogetsim.Level.SEMICOLON_GROUP
        assert [n.id for n in thesaurus.ancestors(node.id)] == list(reversed(chain))
    assert len(thesaurus.references) == model.sizes["references"]
    assert sorted(thesaurus.index) == sorted(model.index)


def test_inputs_have_the_advertised_mix():
    model = synth.generate(5, synth.FULL)
    pairs = synth.pair_list(model, 5)
    words = [w for pair in pairs for w in pair]
    absent = sum(synth.normalize(w) not in model.index for w in words)
    variants = sum(w != synth.normalize(w) and synth.normalize(w) in model.index
                   and w != synth.normalize(w).capitalize() for w in words)
    assert 0.04 < absent / len(words) < 0.06
    assert 0.04 < variants / len(words) < 0.07
    questions = synth.question_list(model, 5)[:1000]
    choices = [c for _, cs, _ in questions for c in cs]
    phrases = sum(synth.normalize(c) not in model.index and " " in c
                  for c in choices)
    assert 0.12 < phrases / len(choices) < 0.18
    plan = synth.cli_plan(model, 5)
    assert all(synth.normalize(w2) not in model.index
               for _, _, w2 in plan[3::4])
