"""Dataset records and annotation paths.

A dataset file holds one JSON record per line::

    {"text": "...", "paths": [[ELEMENT, ...], ...], "mode": "ie"}

Each path is one annotated structure, listed root-first: a named-entity
dataset uses single-element paths, a relation dataset uses two-element paths
(subject entity, then the relation-typed object span), quintuples use up to
five.  An ELEMENT is ``{"type": T, "start": S, "end": E}`` with half-open
character offsets, or ``{"type": T, "label_only": true}`` for classification
decisions that carry no span.  ``mode`` is ``"ie"``, ``"cls_single"`` or
``"cls_multi"`` and defaults to ``"ie"``.

Paths are stored maximal: a relation path implies its subject entity, so the
subject is not repeated as a separate single-element path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import (
    MalformedRecord,
    MisalignedSpan,
    OffsetOutOfRange,
    UnknownGoldType,
    read_text,
)
from .schema import LevelMode, Schema
from .tokenizer import Vocab, tokenize

MODES = ("ie", "cls_single", "cls_multi")

_MODE_FOR_LEVEL = {
    LevelMode.EXTRACT: "ie",
    LevelMode.CLASSIFY_SINGLE: "cls_single",
    LevelMode.CLASSIFY_MULTI: "cls_multi",
}


@dataclass(frozen=True)
class PathElement:
    """One step of an annotation path: a typed span, or a bare label."""

    label: str
    start: int | None = None
    end: int | None = None
    surface: str | None = None

    @property
    def label_only(self) -> bool:
        return self.start is None

    def key(self):
        """Identity used for deduplication: type plus offsets."""
        return (self.label, self.start, self.end)


def path_key(path) -> tuple:
    return tuple([el.key() for el in path])


@dataclass
class Example:
    text: str
    paths: tuple[tuple[PathElement, ...], ...]
    mode: str = "ie"


def _parse_element(obj, text: str, where: str) -> PathElement:
    if not isinstance(obj, dict) or "type" not in obj or not isinstance(obj["type"], str):
        raise MalformedRecord(f"{where}: element must be an object with a 'type'")
    label = obj["type"]
    label_only = obj.get("label_only", False)
    if type(label_only) is not bool:
        raise MalformedRecord(f"{where}: label_only must be true or false")
    if label_only:
        return PathElement(label=label)
    if "start" not in obj or "end" not in obj:
        raise MalformedRecord(f"{where}: element needs start/end or label_only")
    start, end = obj["start"], obj["end"]
    if type(start) is not int or type(end) is not int:  # bool is an int
        raise MalformedRecord(f"{where}: start/end must be integers")
    if not (0 <= start < end <= len(text)):
        raise OffsetOutOfRange(f"{where}: span ({start}, {end}) outside text of length {len(text)}")
    return PathElement(label=label, start=start, end=end, surface=text[start:end])


def _validate_against_schema(example: Example, schema: Schema) -> None:
    for p, path in enumerate(example.paths):
        node = schema.root
        for d, el in enumerate(path):
            if el.label not in node.children:
                raise UnknownGoldType(
                    f"path {p}: {el.label!r} is not a child of "
                    f"{node.label or '<root>'!r}"
                )
            node = node.children[el.label]
            mode = schema.modes[d]
            expected = _MODE_FOR_LEVEL[mode]
            if mode is LevelMode.EXTRACT and el.label_only:
                raise MalformedRecord(
                    f"path {p} depth {d + 1}: extraction level requires a span"
                )
            if mode is not LevelMode.EXTRACT and not el.label_only:
                raise MalformedRecord(
                    f"path {p} depth {d + 1}: classification level must be label_only"
                )
            # "ie" promises a pure-extraction record; a classification mode
            # must match the flavor of every classification level it touches.
            if expected != "ie" and example.mode != expected:
                raise MalformedRecord(
                    f"record mode {example.mode!r} but schema level {d + 1} "
                    f"is {expected!r}"
                )


def _validate_alignment(example: Example, vocab: Vocab) -> None:
    toks = tokenize(vocab, example.text)
    starts = {s for s, _ in toks.offsets}
    ends = {e for _, e in toks.offsets}
    for p, path in enumerate(example.paths):
        for el in path:
            if el.label_only:
                continue
            if el.start not in starts or el.end not in ends:
                raise MisalignedSpan(
                    f"path {p}: span ({el.start}, {el.end}) does not align to "
                    f"token boundaries of {example.text!r}"
                )


def parse_record(line: str, lineno: int = 0) -> Example:
    where = f"line {lineno}"
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedRecord(f"{where}: not valid JSON: {exc}") from None
    except RecursionError:
        raise MalformedRecord(f"{where}: nested too deeply to read") from None
    if not isinstance(obj, dict) or not isinstance(obj.get("text"), str):
        raise MalformedRecord(f"{where}: record must be an object with a 'text' string")
    mode = obj.get("mode", "ie")
    if mode not in MODES:
        raise MalformedRecord(f"{where}: mode must be one of {MODES}")
    raw_paths = obj.get("paths", [])
    if not isinstance(raw_paths, list) or any(not isinstance(p, list) for p in raw_paths):
        raise MalformedRecord(f"{where}: paths must be a list of lists")
    paths = []
    for p, raw in enumerate(raw_paths):
        if not raw:
            raise MalformedRecord(f"{where}: path {p} is empty")
        paths.append(tuple(
            _parse_element(el, obj["text"], f"{where} path {p}") for el in raw
        ))
    return Example(text=obj["text"], paths=tuple(paths), mode=mode)


def load_dataset(path, schema: Schema | None = None, vocab: Vocab | None = None) -> list[Example]:
    """Load and validate a dataset file.

    With ``schema``, every path must walk existing schema nodes whose level
    modes match the record mode.  With ``vocab``, every span must land on
    token boundaries; misalignment is an error here, never silently clipped.
    """
    examples = []
    lines = read_text(path, MalformedRecord).split("\n")
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        example = parse_record(line, lineno)
        if schema is not None:
            _validate_against_schema(example, schema)
        if vocab is not None:
            _validate_alignment(example, vocab)
        examples.append(example)
    return examples


def element_to_obj(el: PathElement) -> dict:
    if el.label_only:
        return {"type": el.label, "label_only": True}
    return {"type": el.label, "start": el.start, "end": el.end}


def format_record(example: Example) -> str:
    """One dataset line for an example (inverse of parse_record)."""
    return json.dumps({
        "text": example.text,
        "paths": [[element_to_obj(el) for el in path] for path in example.paths],
        "mode": example.mode,
    }, ensure_ascii=False)


def save_dataset(examples, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(format_record(ex) + "\n")
