import json

import pytest
from hypothesis import given, strategies as st

from spanlink.config import Config
from spanlink.data import PathElement
from spanlink.engine import plan_level
from spanlink.errors import (
    InvariantViolation,
    MalformedSchema,
    SchemaTooDeep,
    UnknownPath,
)
from spanlink.schema import (
    LevelMode,
    children_of,
    parse_schema,
    render_schema,
    validate_schema,
)
from spanlink.tokenizer import build_vocab, tokenize

NER_RE = '{"person": {"work for ( organization )": null}, "organization": null}'


def test_parse_basic_shape():
    s = parse_schema(NER_RE)
    assert children_of(s, ()) == ["person", "organization"]
    assert children_of(s, ("person",)) == ["work for ( organization )"]
    assert children_of(s, ("organization",)) == []
    assert s.depth == 2


def test_sibling_order_preserved():
    s = parse_schema('{"z": null, "a": null, "m": null}')
    assert children_of(s, ()) == ["z", "a", "m"]


def test_node_at_unknown_path():
    s = parse_schema(NER_RE)
    with pytest.raises(UnknownPath):
        s.node_at(("person", "nope"))
    with pytest.raises(UnknownPath):
        s.node_at(("ghost",))


def test_duplicate_sibling_rejected():
    with pytest.raises(MalformedSchema):
        parse_schema('{"a": null, "a": null}')


def test_empty_label_rejected():
    with pytest.raises(MalformedSchema):
        parse_schema('{"": null}')


def test_bad_json_and_bad_shapes():
    with pytest.raises(MalformedSchema):
        parse_schema("{not json")
    with pytest.raises(MalformedSchema):
        parse_schema("[1, 2]")
    with pytest.raises(MalformedSchema):
        parse_schema("{}")
    with pytest.raises(MalformedSchema):
        parse_schema('{"a": 3}')


def test_depth_is_longest_path():
    s = parse_schema('{"a": {"b": {"c": null}}, "d": null}')
    assert s.depth == 3


def test_validate_depth_bound():
    s = parse_schema('{"a": {"b": {"c": null}}}')
    validate_schema(s, max_depth=3)
    with pytest.raises(SchemaTooDeep):
        validate_schema(s, max_depth=2)


def test_level_modes_assigned_per_depth():
    s = parse_schema('{"a": {"b": null}, "c": null}',
                     level_modes=["extract", "cls_single"])
    assert s.modes == (LevelMode.EXTRACT, LevelMode.CLASSIFY_SINGLE)
    # past the configured levels everything defaults to extraction
    deep = parse_schema('{"a": {"b": {"c": null}}}', level_modes=["cls_multi"])
    assert deep.modes == (LevelMode.CLASSIFY_MULTI, LevelMode.EXTRACT,
                          LevelMode.EXTRACT)
    # entries past the schema's depth are dropped
    assert parse_schema(NER_RE, level_modes=["extract"] * 3).modes == \
        (LevelMode.EXTRACT,) * 2


def test_validate_rejects_a_schema_without_labels():
    s = parse_schema(NER_RE)
    s.root.children.clear()
    s.depth = 0
    with pytest.raises(InvariantViolation):
        validate_schema(s, max_depth=8)


def test_render_round_trip():
    s = parse_schema(NER_RE)
    again = parse_schema(render_schema(s))
    assert render_schema(again) == render_schema(s)
    assert again == s


_label = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"),
                           whitelist_characters=" ()"),
    min_size=1, max_size=8,
).filter(lambda t: t.strip() == t and t != "")


def _tree(depth):
    if depth == 0:
        return st.none()
    return st.none() | st.dictionaries(_label, _tree(depth - 1),
                                       min_size=1, max_size=3)


@given(st.dictionaries(_label, _tree(2), min_size=1, max_size=4))
def test_parse_render_round_trip_random(tree):
    text = json.dumps(tree)
    s = parse_schema(text)
    assert render_schema(s) == json.dumps(tree, ensure_ascii=False)
    # depth equals the longest nesting chain
    def raw_depth(obj):
        if obj is None or obj == {}:
            return 0
        return 1 + max(raw_depth(v) for v in obj.values())
    assert s.depth == raw_depth(tree)


_modes = st.lists(st.sampled_from(list(LevelMode)), max_size=4)


@given(st.dictionaries(_label, _tree(3), min_size=1, max_size=3), _modes)
def test_modes_one_per_level_and_plan_level_reads_them(tree, level_modes):
    """``Schema.modes`` holds one mode per level: ``level_modes`` first,
    ``EXTRACT`` after it, and ``plan_level`` asks each level in its mode."""
    s = parse_schema(json.dumps(tree), level_modes=[m.value for m in level_modes])
    assert len(s.modes) == s.depth
    assert s.modes == tuple(level_modes[:s.depth]) + \
        (LevelMode.EXTRACT,) * (s.depth - len(level_modes))
    text = "some text"
    vocab = build_vocab([text], [])
    cfg = Config(max_prompt_len=400, max_len=512)

    def label_paths(node, prefix=()):
        yield prefix
        for label, child in node.children.items():
            yield from label_paths(child, prefix + (label,))

    longest = max(label_paths(s.root), key=len)
    assert len(longest) == s.depth
    for level in range(1, s.depth + 1):
        path = tuple(PathElement(label, 0, 4, "some")
                     for label in longest[:level - 1])
        plan = plan_level(s, [path], tokenize(vocab, text), text, vocab, cfg)
        assert plan.level == level
        assert plan.mode is s.modes[level - 1]
        assert all(q.mode is plan.mode for q in plan.queries)
