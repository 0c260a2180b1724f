"""Hierarchical extraction schemas.

A schema is an ordered tree of type labels.  Every root-to-leaf path is one
kind of structure the extractor can produce: a depth-1 schema describes plain
entity typing, ``{"person": {"work for ( organization )": null}}`` describes
an entity followed by a relation, deeper trees describe events, quadruples or
quintuples.  Labels are opaque strings and are preserved verbatim, including
inner whitespace and parentheses.

Schema text format (documented grammar)
----------------------------------------
A schema file is a single JSON object.  Keys are type labels; each value is
either ``null`` (leaf) or a nested object of the same shape.  Example::

    {"person": {"work for ( organization )": null}, "organization": null}

Sibling order is meaningful and preserved exactly as written.  Duplicate
sibling labels and empty labels are rejected.  Whether a level is decoded by
span extraction or by classification is *not* part of the schema file; it
comes from per-dataset configuration (``level_modes``) and defaults to
extraction everywhere.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field

from .errors import InvariantViolation, MalformedSchema, SchemaTooDeep, UnknownPath


class LevelMode(enum.Enum):
    """How the nodes of one schema level are predicted."""

    EXTRACT = "extract"
    CLASSIFY_SINGLE = "cls_single"
    CLASSIFY_MULTI = "cls_multi"


@dataclass
class SchemaNode:
    label: str
    children: dict[str, "SchemaNode"] = field(default_factory=dict)

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass
class Schema:
    """Tree of type labels under a synthetic unlabeled root.  ``modes[i]``
    is how the nodes of level ``i + 1`` are predicted, one entry per level,
    so siblings always share a mode."""

    root: SchemaNode
    depth: int
    modes: tuple[LevelMode, ...]

    def node_at(self, path) -> SchemaNode:
        """Walk a sequence of labels from the root; raise UnknownPath if absent."""
        node = self.root
        for i, label in enumerate(path):
            try:
                node = node.children[label]
            except KeyError:
                raise UnknownPath(
                    f"no node {label!r} under path {list(path[:i])!r}"
                ) from None
        return node


class _Pairs(list):
    """Marks lists produced by the object_pairs_hook, so a JSON array at the
    top level cannot impersonate an object."""


def _build(pairs, path) -> dict[str, SchemaNode]:
    children: dict[str, SchemaNode] = {}
    for label, sub in pairs:
        if not isinstance(label, str) or label == "":
            raise MalformedSchema(f"empty or non-string label under {path!r}")
        if label in children:
            raise MalformedSchema(f"duplicate sibling label {label!r} under {path!r}")
        if sub is None:
            grandchildren = []
        elif isinstance(sub, _Pairs):
            grandchildren = sub
        else:
            raise MalformedSchema(
                f"value of {label!r} must be null or a nested object"
            )
        children[label] = SchemaNode(label, _build(grandchildren, path + [label]))
    return children


def parse_schema(text: str, level_modes=()) -> Schema:
    """Parse schema text into a tree.

    ``level_modes`` optionally assigns a :class:`LevelMode` (or its string
    value) to each depth, level 1 first, and becomes ``Schema.modes``.
    Levels past the end of the sequence default to ``EXTRACT``; entries past
    the schema's depth are dropped.
    """
    try:
        # object_pairs_hook keeps duplicates visible instead of silently
        # collapsing them, and preserves sibling order.
        raw = json.loads(text, object_pairs_hook=_Pairs)
        if not isinstance(raw, _Pairs):
            raise MalformedSchema("schema top level must be an object of labels")
        if not raw:
            raise MalformedSchema("schema defines no labels")
        root = SchemaNode(label="", children=_build(raw, []))
        depth = _depth_of(root)
    except json.JSONDecodeError as exc:
        raise MalformedSchema(f"schema is not valid JSON: {exc}") from None
    except RecursionError:
        # before validate_schema can apply max_depth
        raise MalformedSchema("schema nests too deeply to read") from None
    modes = tuple(LevelMode(mode) for mode in level_modes[:depth])
    return Schema(root=root, depth=depth,
                  modes=modes + (LevelMode.EXTRACT,) * (depth - len(modes)))


def _depth_of(node: SchemaNode) -> int:
    if not node.children:
        return 0
    return 1 + max(_depth_of(child) for child in node.children.values())


def render_schema(schema: Schema) -> str:
    """Serialize back to schema text.  Round-trips through parse_schema."""

    def as_obj(node: SchemaNode):
        if node.is_leaf:
            return None
        return {label: as_obj(child) for label, child in node.children.items()}

    return json.dumps(as_obj(schema.root), ensure_ascii=False)


def children_of(schema: Schema, path) -> list[str]:
    """Candidate type labels directly under ``path``, in file order."""
    return list(schema.node_at(path).children.keys())


def validate_schema(schema: Schema, max_depth: int) -> None:
    """Check the depth bound."""
    if schema.depth > max_depth:
        raise SchemaTooDeep(f"depth {schema.depth} exceeds maximum {max_depth}")
    if schema.depth < 1:
        raise InvariantViolation("schema must contain at least one label")
