import json

import pytest
from hypothesis import given, strategies as st

from spanlink.data import (
    Example,
    PathElement,
    format_record,
    load_dataset,
    parse_record,
    save_dataset,
)
from spanlink.errors import (
    MalformedRecord,
    MisalignedSpan,
    OffsetOutOfRange,
    UnknownGoldType,
    UnknownTask,
)
from spanlink.metrics import (
    TASKS,
    corpus_f1,
    metric_for_task,
    strict_match_f1,
)
from spanlink.schema import parse_schema
from spanlink.tokenizer import build_vocab


def el(label, start=None, end=None, surface=None):
    return PathElement(label, start, end, surface)


NER_RE = '{"person": {"work for ( organization )": null}, "organization": null}'


# ------------------------------------------------------------------ records

def test_parse_format_round_trip():
    ex = Example(
        text="rivera works for acme .",
        paths=((el("person", 0, 6, "rivera"),
                el("work for ( organization )", 17, 21, "acme")),
               (el("organization", 17, 21, "acme"),)),
    )
    again = parse_record(format_record(ex))
    assert again.text == ex.text
    assert again.mode == "ie"
    assert [[e.label for e in p] for p in again.paths] == \
        [[e.label for e in p] for p in ex.paths]
    assert again.paths[0][0].start == 0 and again.paths[0][0].end == 6
    assert again.paths[0][0].surface == "rivera"


def test_parse_record_label_only_elements():
    line = json.dumps({"text": "nice camera",
                       "paths": [[{"type": "aspect", "start": 5, "end": 11},
                                  {"type": "positive", "label_only": True}]],
                       "mode": "ie"})
    ex = parse_record(line)
    assert ex.paths[0][1].label_only
    assert ex.paths[0][1].start is None


@pytest.mark.parametrize("line", [
    "not json",
    '{"paths": []}',                                     # no text
    '{"text": "a", "mode": "bogus"}',                    # unknown mode
    '{"text": "a", "paths": [{}]}',                      # path not a list
    '{"text": "a", "paths": [[]]}',                      # empty path
])
def test_parse_record_rejects_malformed(line):
    with pytest.raises(MalformedRecord):
        parse_record(line)


def test_parse_record_rejects_bad_offsets():
    line = json.dumps({"text": "abc",
                       "paths": [[{"type": "t", "start": 2, "end": 9}]]})
    with pytest.raises(OffsetOutOfRange):
        parse_record(line)
    line = json.dumps({"text": "abc",
                       "paths": [[{"type": "t", "start": 2, "end": 2}]]})
    with pytest.raises(OffsetOutOfRange):
        parse_record(line)


@pytest.mark.parametrize("offsets", [(False, True), (True, 2), (0, True)])
def test_parse_record_rejects_boolean_offsets(offsets):
    """JSON booleans are Python ints; as offsets they would load as a span."""
    start, end = offsets
    line = json.dumps({"text": "rab",
                       "paths": [[{"type": "t", "start": start, "end": end}]]})
    with pytest.raises(MalformedRecord, match="start/end must be integers"):
        parse_record(line)


@pytest.mark.parametrize("flag", ["no", 1, 0, None, [], {}])
def test_parse_record_rejects_a_label_only_that_is_not_a_boolean(flag):
    """A truthy non-boolean would drop the span, a falsy one keep it."""
    line = json.dumps({"text": "rab", "paths": [[
        {"type": "t", "start": 0, "end": 1, "label_only": flag}]]})
    with pytest.raises(MalformedRecord, match="label_only must be true or false"):
        parse_record(line)


def test_parse_record_reads_an_explicit_label_only_false_as_a_span():
    line = json.dumps({"text": "rab", "paths": [[
        {"type": "t", "start": 0, "end": 1, "label_only": False}]]})
    assert parse_record(line).paths[0][0] == el("t", 0, 1, "r")


def test_load_dataset_validates_schema_and_alignment(tmp_path):
    schema = parse_schema(NER_RE)
    good = Example(text="rivera works",
                   paths=((el("person", 0, 6, "rivera"),),))
    path = tmp_path / "data.jsonl"
    save_dataset([good], path)
    vocab = build_vocab(["rivera works"], ["person"])
    assert len(load_dataset(path, schema=schema, vocab=vocab)) == 1

    bad_type = Example(text="rivera works", paths=((el("alien", 0, 6, "rivera"),),))
    save_dataset([bad_type], path)
    with pytest.raises(UnknownGoldType):
        load_dataset(path, schema=schema)

    misaligned = Example(text="rivera works", paths=((el("person", 1, 6, "ivera"),),))
    save_dataset([misaligned], path)
    with pytest.raises(MisalignedSpan):
        load_dataset(path, schema=schema, vocab=vocab)
    # without a vocabulary the alignment check is skipped
    assert len(load_dataset(path, schema=schema)) == 1


def test_load_dataset_rejects_mode_mismatch(tmp_path):
    schema = parse_schema('{"a": {"x": null, "y": null}}',
                          level_modes=["extract", "cls_single"])
    rec = {"text": "q w", "mode": "ie",
           "paths": [[{"type": "a", "start": 0, "end": 1},
                      {"type": "x", "start": 2, "end": 3}]]}
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    with pytest.raises(MalformedRecord):
        load_dataset(path, schema=schema)
    rec["mode"] = "cls_single"
    rec["paths"][0][1] = {"type": "x", "label_only": True}
    path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    assert len(load_dataset(path, schema=schema)) == 1


# ------------------------------------------------------------------ metrics

def test_hand_case_two_thirds_one_half():
    gold = [(el("person", 0, 3),), (el("person", 4, 8),),
            (el("org", 9, 12),), (el("org", 13, 17),)]
    pred = [(el("person", 0, 3),), (el("org", 9, 12),),
            (el("org", 0, 3),)]
    r = strict_match_f1(gold, pred, metric_for_task("entity"))
    assert r.match_num == 2 and r.pred_num == 3 and r.gold_num == 4
    assert abs(r.precision - 2 / 3) < 1e-12
    assert abs(r.recall - 1 / 2) < 1e-12
    assert abs(r.f1 - 4 / 7) < 1e-12


def test_strict_match_f1_names_no_task():
    """Tasks share key functions (``trigger`` uses ``entity``'s), so the
    key cannot name the report; ``corpus_f1`` takes the name from its
    caller."""
    gold = [(el("attack", 0, 6, "strike"),)]
    key = metric_for_task("trigger")
    assert strict_match_f1(gold, gold, key).task == "custom"
    assert corpus_f1([(gold, gold)], key, task="trigger").task == "trigger"


def test_zero_denominators_are_zero():
    r = strict_match_f1([], [], metric_for_task("entity"))
    assert (r.precision, r.recall, r.f1) == (0.0, 0.0, 0.0)
    r = strict_match_f1([(el("a", 0, 1),)], [], metric_for_task("entity"))
    assert (r.precision, r.recall, r.f1) == (0.0, 0.0, 0.0)


def test_relation_strict_vs_triplet():
    gold = [(el("person", 0, 6, "rivera"),
             el("work for ( organization )", 17, 21, "acme"))]
    moved = [(el("person", 30, 36, "rivera"),
              el("work for ( organization )", 40, 44, "acme"))]
    strict = strict_match_f1(gold, moved, metric_for_task("relation-strict"))
    assert strict.match_num == 0
    triplet = strict_match_f1(gold, moved, metric_for_task("relation-triplet"))
    assert triplet.match_num == 1  # surfaces agree, offsets do not


def test_argument_key_ignores_trigger_offsets():
    gold = [(el("attack", 0, 6, "strike"), el("place", 20, 26, "harbor"))]
    pred = [(el("attack", 9, 14, "raids"), el("place", 20, 26, "harbor"))]
    r = strict_match_f1(gold, pred, metric_for_task("argument"))
    assert r.match_num == 1
    # but the event type still matters
    pred2 = [(el("protest", 0, 6, "strike"), el("place", 20, 26, "harbor"))]
    assert strict_match_f1(gold, pred2, metric_for_task("argument")).match_num == 0


def test_sentiment_triplet_key():
    gold = [(el("aspect", 0, 5, "pizza"), el("positive ( opinion )", 10, 15, "great"))]
    pred_same = [(el("aspect", 0, 5, "pizza"),
                  el("positive ( opinion )", 10, 15, "great"))]
    pred_polarity = [(el("aspect", 0, 5, "pizza"),
                      el("negative ( opinion )", 10, 15, "great"))]
    key = metric_for_task("sentiment-triplet")
    assert strict_match_f1(gold, pred_same, key).match_num == 1
    assert strict_match_f1(gold, pred_polarity, key).match_num == 0


def test_quadruple_and_path_keys():
    q = (el("a", 0, 1), el("b", 2, 3), el("c", 4, 5))
    assert strict_match_f1([q], [q], metric_for_task("quadruple")).match_num == 1
    # wrong length paths fall out of the quadruple metric entirely
    r = strict_match_f1([q], [q[:2]], metric_for_task("quadruple"))
    assert r.pred_num == 0
    quint = q + (el("d", 6, 7),)
    assert strict_match_f1([quint], [quint],
                           metric_for_task("quintuple")).match_num == 1
    assert strict_match_f1([quint], [q],
                           metric_for_task("quintuple")).match_num == 0


def test_unknown_task():
    with pytest.raises(UnknownTask):
        metric_for_task("bleu")


def test_corpus_f1_scopes_by_example():
    path = (el("person", 0, 3),)
    # prediction lands in the wrong example: no credit
    r = corpus_f1([([path], []), ([], [path])], metric_for_task("entity"))
    assert r.match_num == 0 and r.gold_num == 1 and r.pred_num == 1
    r2 = corpus_f1([([path], [path]), ([], [])], metric_for_task("entity"))
    assert r2.match_num == 1


_span = st.tuples(st.integers(0, 5), st.integers(0, 5)).map(
    lambda t: (min(t), max(t) + 1))
_path = st.tuples(st.sampled_from(["a", "b"]), _span).map(
    lambda t: (el(t[0], t[1][0], t[1][1]),))
_paths = st.lists(_path, max_size=6)


@given(_paths, _paths)
def test_swap_symmetry(gold, pred):
    fwd = strict_match_f1(gold, pred, metric_for_task("entity"))
    rev = strict_match_f1(pred, gold, metric_for_task("entity"))
    assert fwd.precision == rev.recall
    assert fwd.recall == rev.precision
    assert abs(fwd.f1 - rev.f1) < 1e-12
    assert fwd.match_num == rev.match_num


@given(_paths)
def test_perfect_prediction_is_f1_one(paths):
    r = strict_match_f1(paths, paths, metric_for_task("entity"))
    if paths:
        assert r.f1 == 1.0
    else:
        assert r.f1 == 0.0


def test_every_registered_task_has_callable_key():
    for name in TASKS:
        assert callable(metric_for_task(name))
