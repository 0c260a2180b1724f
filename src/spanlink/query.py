"""Query construction: compiling one schema level into encoder input.

A query asks, for one or more prefix groups, "which spans (or labels) extend
this prefix?".  Token layout::

    [CLS] ( [P] prefix ( [T] type )* )+ [CLST]? [Text] text [SEP]

where ``prefix`` renders the group's path as ``label: surface`` pairs joined
with ``","``, each ``type`` is one candidate label, and ``[CLST]`` (either
``[CLASSIFY]`` or ``[MULTICLASSIFY]``) appears only on classification levels.

Groups are mutually isolated so several prefixes can share one encoder pass:

* position ids restart inside every group ([CLS] is 0, each prefix segment
  restarts at 1, every type segment under a group restarts right after its
  group's prefix, so sibling type segments share starting positions);
* token type ids: 0 for [CLS]/[Text]/text/[SEP], 1 for prefix tokens
  (including [P]), 2 for type tokens (including [T]), 3 for [CLST];
* the attention mask lets prefix tokens see their own prefix, their own
  group's type segments, the text, [CLS] and [SEP]; type tokens see their own
  segment, their parent prefix, the text, [CLS] and [SEP]; there is no
  cross-group attention and no attention between sibling type segments.
  [CLS], [SEP], [CLST], [Text] and text tokens attend everywhere, which keeps
  the mask symmetric.

Text token positions start at the fixed offset ``max_prompt_len`` ([Text]
itself takes that slot, real text tokens follow), so distances between text
tokens are independent of how much prompt precedes them; [CLST] sits at
``max_prompt_len - 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import PathElement
from .errors import (
    EmptyTypeSet,
    MalformedRecord,
    MisalignedSpan,
    PromptOverflow,
    TextOverflow,
    UnknownGoldType,
)
from .schema import LevelMode
from .tokenizer import (
    CLASSIFY,
    CLS,
    MULTICLASSIFY,
    PREFIX_MARK,
    SEP,
    TEXT_MARK,
    TYPE_MARK,
    TokenizedText,
    Vocab,
    tokenize,
    word_split,
)

# Segment kinds, one per token.
K_CLS, K_PREFIX, K_TYPE, K_CLST, K_TEXTMARK, K_TEXT, K_SEP = range(7)

# Per-kind lookup tables, indexed by a query's ``kinds`` array: the token
# type id, and whether the token attends and is attended everywhere.
_TOKEN_TYPE_IDS = np.zeros(7, dtype=np.int64)
_TOKEN_TYPE_IDS[[K_PREFIX, K_TYPE, K_CLST]] = 1, 2, 3
_IS_GLOBAL = np.zeros(7, dtype=bool)
_IS_GLOBAL[[K_CLS, K_SEP, K_CLST, K_TEXTMARK, K_TEXT]] = True


def render_prefix(path) -> str:
    """Render a prefix path: ``label: surface`` pairs joined with ","."""
    parts = []
    for el in path:
        parts.append(el.label if el.label_only else f"{el.label}: {el.surface}")
    return ",".join(parts)


@dataclass(frozen=True)
class PrefixGroup:
    """A prefix path plus the candidate type labels asked under it."""

    path: tuple[PathElement, ...]
    types: tuple[str, ...]

    @property
    def rendered(self) -> str:
        return render_prefix(self.path)


@dataclass(frozen=True)
class TypeMarker:
    """Location of one [T] marker: query position, owning group, type label."""

    pos: int
    group: int
    label: str


@dataclass
class Query:
    mode: LevelMode
    groups: tuple[PrefixGroup, ...]
    source: str
    text: TokenizedText
    max_prompt_len: int
    token_ids: np.ndarray          # [n] int64
    kinds: np.ndarray              # [n] segment kind codes
    group_of: np.ndarray           # [n] owning group index, -1 outside groups
    typeseg_of: np.ndarray         # [n] type-marker index, -1 outside type segs
    type_markers: tuple[TypeMarker, ...]
    esi_len: int                   # tokens before [Text]
    text_mark_pos: int
    text_start: int                # query index of first real text token
    text_len: int
    sep_pos: int
    clst_pos: int | None = None
    position_ids: np.ndarray | None = None
    token_type_ids: np.ndarray | None = None
    attention_mask: np.ndarray | None = None
    scoring_mask: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.token_ids)

    def text_positions(self) -> range:
        return range(self.text_start, self.text_start + self.text_len)

    def marker_at(self, group: int, label: str) -> TypeMarker | None:
        for m in self.type_markers:
            if m.group == group and m.label == label:
                return m
        return None


def _clst_token(mode: LevelMode) -> str:
    return CLASSIFY if mode is LevelMode.CLASSIFY_SINGLE else MULTICLASSIFY


def build_query(groups, text: TokenizedText, source: str, mode: LevelMode,
                vocab: Vocab, max_prompt_len: int, max_len: int) -> Query:
    """Lay out one query.  Raises PromptOverflow if the prompt exceeds its
    budget (callers should fall back to split_query) and TextOverflow if the
    whole thing cannot fit max_len."""
    groups = tuple(groups)
    if not groups:
        raise EmptyTypeSet("a query needs at least one prefix group")
    ids: list[int] = [vocab.id(CLS)]
    kinds: list[int] = [K_CLS]
    group_of: list[int] = [-1]
    typeseg_of: list[int] = [-1]
    markers: list[TypeMarker] = []

    for g, group in enumerate(groups):
        if not group.types:
            raise EmptyTypeSet(f"group {g} has no candidate types")
        ids.append(vocab.id(PREFIX_MARK))
        kinds.append(K_PREFIX)
        group_of.append(g)
        typeseg_of.append(-1)
        for tok in tokenize(vocab, group.rendered).token_ids:
            ids.append(tok)
            kinds.append(K_PREFIX)
            group_of.append(g)
            typeseg_of.append(-1)
        for label in group.types:
            marker = TypeMarker(pos=len(ids), group=g, label=label)
            markers.append(marker)
            seg = len(markers) - 1
            ids.append(vocab.id(TYPE_MARK))
            kinds.append(K_TYPE)
            group_of.append(g)
            typeseg_of.append(seg)
            for tok in tokenize(vocab, label).token_ids:
                ids.append(tok)
                kinds.append(K_TYPE)
                group_of.append(g)
                typeseg_of.append(seg)

    clst_pos = None
    if mode is not LevelMode.EXTRACT:
        clst_pos = len(ids)
        ids.append(vocab.id(_clst_token(mode)))
        kinds.append(K_CLST)
        group_of.append(-1)
        typeseg_of.append(-1)

    esi_len = len(ids)
    if esi_len > max_prompt_len:
        raise PromptOverflow(
            f"prompt needs {esi_len} tokens but the budget is {max_prompt_len}"
        )

    text_mark_pos = len(ids)
    ids.append(vocab.id(TEXT_MARK))
    kinds.append(K_TEXTMARK)
    group_of.append(-1)
    typeseg_of.append(-1)
    text_start = len(ids)
    for tok in text.token_ids:
        ids.append(tok)
        kinds.append(K_TEXT)
        group_of.append(-1)
        typeseg_of.append(-1)
    sep_pos = len(ids)
    ids.append(vocab.id(SEP))
    kinds.append(K_SEP)
    group_of.append(-1)
    typeseg_of.append(-1)

    if len(ids) > max_len:
        raise TextOverflow(f"query needs {len(ids)} tokens but max_len is {max_len}")

    return Query(
        mode=mode, groups=groups, source=source, text=text,
        max_prompt_len=max_prompt_len,
        token_ids=np.asarray(ids, dtype=np.int64),
        kinds=np.asarray(kinds, dtype=np.int8),
        group_of=np.asarray(group_of, dtype=np.int64),
        typeseg_of=np.asarray(typeseg_of, dtype=np.int64),
        type_markers=tuple(markers), esi_len=esi_len,
        text_mark_pos=text_mark_pos, text_start=text_start,
        text_len=len(text.token_ids), sep_pos=sep_pos, clst_pos=clst_pos,
    )


def assign_isolation(query: Query) -> Query:
    """Fill position ids, token type ids and the isolation attention mask."""
    n = len(query)
    pos = np.zeros(n, dtype=np.int64)
    # Walk left to right tracking the current segment's counter.  A group's
    # prefix runs 1..k ([P] included); each of its type segments restarts at
    # k+1, so sibling type segments share starting positions.
    prefix_end: dict[int, int] = {}
    counter = 0
    seg = -1
    for i in range(n):
        kind = int(query.kinds[i])
        if kind == K_CLS:
            pos[i] = 0
        elif kind == K_PREFIX:
            g = int(query.group_of[i])
            prefix_end[g] = prefix_end.get(g, 0) + 1
            pos[i] = prefix_end[g]
        elif kind == K_TYPE:
            if int(query.typeseg_of[i]) != seg:
                seg = int(query.typeseg_of[i])
                counter = prefix_end[int(query.group_of[i])] + 1
            else:
                counter += 1
            pos[i] = counter
        elif kind == K_CLST:
            pos[i] = query.max_prompt_len - 1
        elif kind == K_TEXTMARK:
            pos[i] = query.max_prompt_len
        elif kind == K_TEXT:
            pos[i] = query.max_prompt_len + (i - query.text_start) + 1
        else:  # K_SEP
            pos[i] = query.max_prompt_len + query.text_len + 1

    kinds = query.kinds
    token_types = _TOKEN_TYPE_IDS[kinds]
    is_global = _IS_GLOBAL[kinds]
    is_type = kinds == K_TYPE
    same_group = (query.group_of[:, None] == query.group_of[None, :]) \
        & (query.group_of[:, None] >= 0)
    cross_typeseg = is_type[:, None] & is_type[None, :] \
        & (query.typeseg_of[:, None] != query.typeseg_of[None, :])
    attention = is_global[:, None] | is_global[None, :] \
        | (same_group & ~cross_typeseg)

    return replace(query, position_ids=pos, token_type_ids=token_types,
                   attention_mask=attention)


def build_scoring_mask(query: Query) -> np.ndarray:
    """Boolean matrix of cells the scoring head is responsible for.

    Extraction levels use three regions: head-to-tail text pairs (upper
    triangle, i <= j), text-to-[T] (span head linking to its type) and
    [T]-to-text (type linking to the span tail).  Classification levels use
    only the ([CLST], [T]) cell and its transpose, per candidate label.
    """
    n = len(query)
    mask = np.zeros((n, n), dtype=bool)
    marker_pos = [m.pos for m in query.type_markers]
    if query.mode is LevelMode.EXTRACT:
        t0, t1 = query.text_start, query.text_start + query.text_len
        idx = np.arange(t0, t1)
        mask[t0:t1, t0:t1] = idx[:, None] <= idx[None, :]
        for k in marker_pos:
            mask[t0:t1, k] = True
            mask[k, t0:t1] = True
    else:
        j = query.clst_pos
        for k in marker_pos:
            mask[j, k] = True
            mask[k, j] = True
    return mask


def make_query(groups, text: TokenizedText, source: str, mode: LevelMode,
               vocab: Vocab, max_prompt_len: int, max_len: int) -> Query:
    """build_query + assign_isolation + scoring mask in one call."""
    query = assign_isolation(build_query(
        groups, text, source, mode, vocab, max_prompt_len, max_len))
    query.scoring_mask = build_scoring_mask(query)
    return query


def _token_span(query: Query, el: PathElement) -> tuple[int, int]:
    starts = {off[0]: i for i, off in enumerate(query.text.offsets)}
    ends = {off[1]: i for i, off in enumerate(query.text.offsets)}
    if el.start not in starts or el.end not in ends:
        raise MisalignedSpan(
            f"gold span ({el.start}, {el.end}) of {el.label!r} does not align "
            f"to token boundaries"
        )
    i, j = starts[el.start], ends[el.end]
    if i > j:
        raise MisalignedSpan(f"gold span ({el.start}, {el.end}) is inverted")
    return query.text_start + i, query.text_start + j


def build_target(query: Query, gold_by_group) -> np.ndarray:
    """Supervision matrix for one query.

    ``gold_by_group`` maps group index -> elements extending that group's
    prefix at this level.  Extraction golds contribute three cells each
    (head-tail, head-[T], [T]-tail); classification golds two ([CLST]-[T] and
    its transpose).  Groups without gold stay all-zero, which is exactly the
    supervision "nothing continues here".
    """
    n = len(query)
    target = np.zeros((n, n), dtype=np.uint8)
    for g, elements in gold_by_group.items():
        if not 0 <= g < len(query.groups):
            raise UnknownGoldType(f"group index {g} out of range")
        for el in elements:
            marker = query.marker_at(g, el.label)
            if marker is None:
                raise UnknownGoldType(
                    f"{el.label!r} is not a candidate type of group {g}"
                )
            if query.mode is LevelMode.EXTRACT:
                if el.label_only:
                    raise MalformedRecord(
                        f"gold for extraction level lacks a span: {el.label!r}"
                    )
                i, j = _token_span(query, el)
                target[i, j] = 1
                target[i, marker.pos] = 1
                target[marker.pos, j] = 1
            else:
                target[query.clst_pos, marker.pos] = 1
                target[marker.pos, query.clst_pos] = 1
    return target


def esi_cost(groups, mode: LevelMode) -> int:
    """Prompt length of a query over these groups, without building it."""
    cost = 1  # [CLS]
    if mode is not LevelMode.EXTRACT:
        cost += 1  # [CLST]
    for group in groups:
        cost += 1 + len(word_split(group.rendered))
        for label in group.types:
            cost += 1 + len(word_split(label))
    return cost


def split_query(groups, text: TokenizedText, source: str, mode: LevelMode,
                vocab: Vocab, max_prompt_len: int, max_len: int) -> list[Query]:
    """Partition (group, type) pairs into queries whose prompts fit the budget.

    Greedy first-fit in input order: a group may reappear in later queries
    with the remaining subset of its types, but no (group, type) pair is
    duplicated or dropped.  When everything fits, the result is a single
    query identical to build_query's.
    """
    groups = tuple(groups)
    if not groups:
        raise EmptyTypeSet("a query needs at least one prefix group")
    base = 1 + (0 if mode is LevelMode.EXTRACT else 1)
    buckets: list[dict[int, list[str]]] = []
    current: dict[int, list[str]] = {}
    cost = base
    for g, group in enumerate(groups):
        if not group.types:
            raise EmptyTypeSet(f"group {g} has no candidate types")
        group_cost = 1 + len(word_split(group.rendered))
        for label in group.types:
            type_cost = 1 + len(word_split(label))
            extra = type_cost + (group_cost if g not in current else 0)
            if cost + extra > max_prompt_len and current:
                buckets.append(current)
                current, cost = {}, base
                extra = type_cost + group_cost
            if cost + extra > max_prompt_len:
                raise PromptOverflow(
                    f"group {g} with type {label!r} needs {cost + extra} prompt "
                    f"tokens alone but the budget is {max_prompt_len}"
                )
            current.setdefault(g, []).append(label)
            cost += extra
    buckets.append(current)

    queries = []
    for bucket in buckets:
        sub = tuple(
            PrefixGroup(path=groups[g].path, types=tuple(labels))
            for g, labels in bucket.items()
        )
        queries.append(make_query(sub, text, source, mode, vocab,
                                  max_prompt_len, max_len))
    return queries


def render_query(query: Query) -> str:
    """Human-readable query string.

    Marker tokens are written verbatim with no space before them; each is
    followed by one space and then its content (prefix rendering, type label,
    or the raw source text).  An empty prefix leaves nothing after [P].
    """
    parts = [CLS]
    for g, group in enumerate(query.groups):
        rendered = group.rendered
        parts.append(PREFIX_MARK + (" " + rendered if rendered else ""))
        for label in group.types:
            parts.append(f"{TYPE_MARK} {label}")
    if query.mode is not LevelMode.EXTRACT:
        parts.append(_clst_token(query.mode))
    parts.append(TEXT_MARK + (" " + query.source if query.source else ""))
    parts.append(SEP)
    return "".join(parts)
