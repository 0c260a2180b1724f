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

from dataclasses import dataclass
from functools import cached_property

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


def isolation_mask(kinds, group_of, typeseg_of) -> np.ndarray:
    """[..., n, n] bool: may token i attend token j (one query or a batch)."""
    is_global = _IS_GLOBAL[kinds]
    g, t = group_of[..., :, None], typeseg_of[..., :, None]
    gt, tt = group_of[..., None, :], typeseg_of[..., None, :]
    cross_typeseg = (t >= 0) & (tt >= 0) & (t != tt)
    return is_global[..., :, None] | is_global[..., None, :] \
        | ((g == gt) & (g >= 0) & ~cross_typeseg)


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


@dataclass(frozen=True)
class Query:
    """One laid-out query of O(n) per-token vectors, built only by
    ``make_query`` (or ``split_query``).  Its n x n masks are derived:
    ``isolation_mask`` from the segment vectors, ``scoring_mask`` on read."""

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
    esi_len: int                   # tokens before [Text]; [Text] is there
    text_start: int                # query index of first real text token
    text_len: int                  # [SEP] follows the text
    clst_pos: int | None           # None on extraction levels
    position_ids: np.ndarray       # [n] int64
    token_type_ids: np.ndarray     # [n] int64
    marker_pos: np.ndarray         # [k] int64 positions of the [T] markers

    def __len__(self) -> int:
        return len(self.token_ids)

    @cached_property
    def scoring_mask(self) -> np.ndarray:
        """[n, n] bool, the cells the head scores."""
        return fill_scored(self, np.zeros((len(self),) * 2, dtype=bool), True)

    def text_positions(self) -> range:
        return range(self.text_start, self.text_start + self.text_len)


def _clst_token(mode: LevelMode) -> str:
    return CLASSIFY if mode is LevelMode.CLASSIFY_SINGLE else MULTICLASSIFY


def make_query(groups, text: TokenizedText, source: str, mode: LevelMode,
               vocab: Vocab, max_prompt_len: int, max_len: int, *,
               prefixes=None) -> Query:
    """Lay out one query and fill its position ids and token type ids, given
    each group's [P] segment ids in ``prefixes`` or tokenizing them here.
    Raises PromptOverflow if the prompt exceeds its budget (callers should
    fall back to split_query) and TextOverflow if it cannot fit max_len."""
    groups = tuple(groups)
    if not groups:
        raise EmptyTypeSet("a query needs at least one prefix group")
    ids: list[int] = []
    kinds: list[int] = []
    group_of: list[int] = []
    typeseg_of: list[int] = []
    pos: list[int] = []
    markers: list[TypeMarker] = []

    def put(tokens, kind, first, g=-1, seg=-1):
        # One segment: its tokens take consecutive positions from ``first``.
        k = len(tokens)
        ids.extend(tokens)
        kinds.extend([kind] * k)
        group_of.extend([g] * k)
        typeseg_of.extend([seg] * k)
        pos.extend(range(first, first + k))

    put([vocab.id(CLS)], K_CLS, 0)
    for g, group in enumerate(groups):
        if not group.types:
            raise EmptyTypeSet(f"group {g} has no candidate types")
        # A group's prefix runs 1..k ([P] included); each of its type
        # segments restarts at k+1, so siblings share starting positions.
        prefix = prefixes[g] if prefixes else _prefix_segment(vocab, group)
        put(prefix, K_PREFIX, 1, g)
        for label in group.types:
            markers.append(TypeMarker(pos=len(ids), group=g, label=label))
            put(_type_segment(vocab, label), K_TYPE, len(prefix) + 1, g,
                len(markers) - 1)

    clst_pos = None
    if mode is not LevelMode.EXTRACT:
        clst_pos = len(ids)
        put([vocab.id(_clst_token(mode))], K_CLST, max_prompt_len - 1)

    esi_len = len(ids)
    if esi_len > max_prompt_len:
        raise PromptOverflow(
            f"prompt needs {esi_len} tokens but the budget is {max_prompt_len}"
        )

    put([vocab.id(TEXT_MARK)], K_TEXTMARK, max_prompt_len)
    text_start = len(ids)
    text_len = len(text.token_ids)
    put(text.token_ids, K_TEXT, max_prompt_len + 1)
    put([vocab.id(SEP)], K_SEP, max_prompt_len + text_len + 1)

    n = len(ids)
    if n > max_len:
        raise TextOverflow(f"query needs {n} tokens but max_len is {max_len}")

    kinds_arr = np.asarray(kinds, dtype=np.int8)
    return Query(
        mode=mode, groups=groups, source=source, text=text,
        max_prompt_len=max_prompt_len,
        token_ids=np.asarray(ids, dtype=np.int64), kinds=kinds_arr,
        group_of=np.asarray(group_of, dtype=np.int64),
        typeseg_of=np.asarray(typeseg_of, dtype=np.int64),
        type_markers=tuple(markers), esi_len=esi_len,
        text_start=text_start, text_len=text_len, clst_pos=clst_pos,
        position_ids=np.asarray(pos, dtype=np.int64),
        token_type_ids=_TOKEN_TYPE_IDS[kinds_arr],
        marker_pos=np.array([m.pos for m in markers], dtype=np.int64),
    )


def fill_scored(query: Query, dst: np.ndarray, src) -> np.ndarray:
    """Write ``src`` (an array in query coordinates, or a scalar) into
    ``dst`` at the cells the head scores, and return ``dst``: the text
    block's upper triangle, text-to-[T] and [T]-to-text when extracting,
    ([CLST], [T]) and its transpose when classifying."""
    def at(rows, cols):
        return src[rows, cols] if isinstance(src, np.ndarray) else src

    marks = query.marker_pos
    if query.mode is LevelMode.EXTRACT:
        t = slice(query.text_start, query.text_start + query.text_len)
        idx = np.arange(query.text_len)
        np.copyto(dst[t, t], at(t, t), where=idx[:, None] <= idx)
        dst[t, marks] = at(t, marks)
        dst[marks, t] = at(marks, t)
    else:
        dst[query.clst_pos, marks] = at(query.clst_pos, marks)
        dst[marks, query.clst_pos] = at(marks, query.clst_pos)
    return dst


def _target_cells(query: Query, gold_by_group) -> np.ndarray:
    """Int32 flat indices ``row * n + col`` of the positive cells of one
    query's supervision; a cell may repeat.

    ``gold_by_group`` maps group index -> elements extending that group's
    prefix at this level.  Extraction golds give three cells each
    (head-tail, head-[T], [T]-tail); classification golds two ([CLST]-[T]
    and its transpose).  Groups without gold give none, which is exactly
    the supervision "nothing continues here".
    """
    # reversed: a label listed twice keeps its first marker
    marker_of = {(m.group, m.label): m.pos for m in reversed(query.type_markers)}
    starts, ends = query.text.start_index, query.text.end_index
    n = len(query)
    cells: list[int] = []
    for g, elements in gold_by_group.items():
        if not 0 <= g < len(query.groups):
            raise UnknownGoldType(f"group index {g} out of range")
        for el in elements:
            k = marker_of.get((g, el.label))
            if k is None:
                raise UnknownGoldType(
                    f"{el.label!r} is not a candidate type of group {g}"
                )
            if query.mode is LevelMode.EXTRACT:
                if el.label_only:
                    raise MalformedRecord(
                        f"gold for extraction level lacks a span: {el.label!r}"
                    )
                if el.start not in starts or el.end not in ends:
                    raise MisalignedSpan(
                        f"gold span ({el.start}, {el.end}) of {el.label!r} "
                        f"does not align to token boundaries")
                i = query.text_start + starts[el.start]
                j = query.text_start + ends[el.end]
                if i > j:
                    raise MisalignedSpan(f"gold span ({el.start}, {el.end}) is inverted")
                cells += (i * n + j, i * n + k, k * n + j)
            else:
                cells += (query.clst_pos * n + k, k * n + query.clst_pos)
    return np.array(cells, np.int32)


def build_target(query: Query, gold_by_group) -> np.ndarray:
    """Supervision matrix for one query: 1 at the cells ``_target_cells``
    names for ``gold_by_group``, 0 elsewhere."""
    target = np.zeros((len(query),) * 2, dtype=np.uint8)
    target.reshape(-1)[_target_cells(query, gold_by_group)] = 1
    return target


def _base_cost(mode: LevelMode) -> int:
    """Prompt tokens outside every group: [CLS], plus [CLST] when classifying."""
    return 1 if mode is LevelMode.EXTRACT else 2


def _segment_cost(rendering: str) -> int:
    """Prompt tokens of one segment: its [P] or [T] marker plus its words.
    Equal to the length of the segment's ids, which ``split_query`` uses."""
    return 1 + len(word_split(rendering))


def _prefix_segment(vocab: Vocab, group: PrefixGroup) -> list[int]:
    return [vocab.id(PREFIX_MARK)] + tokenize(vocab, group.rendered).token_ids


def _type_segment(vocab: Vocab, label: str) -> tuple[int, ...]:
    """Token ids ([T] first) of a label's segment, cached on the vocabulary,
    whose ``add`` drops the cache so ids never go stale."""
    if label not in vocab.segments:
        vocab.segments[label] = (vocab.id(TYPE_MARK),
                                 *tokenize(vocab, label).token_ids)
    return vocab.segments[label]


def esi_cost(groups, mode: LevelMode) -> int:
    """Prompt length of a query over these groups, without building it or
    needing a vocabulary."""
    return _base_cost(mode) + sum(
        _segment_cost(group.rendered)
        + sum(_segment_cost(label) for label in group.types)
        for group in groups)


def split_query(groups, text: TokenizedText, source: str, mode: LevelMode,
                vocab: Vocab, max_prompt_len: int, max_len: int) -> list[Query]:
    """Partition (group, type) pairs into queries whose prompts fit the budget.

    Greedy first-fit in input order: a group may reappear in later queries
    with the remaining subset of its types, but no (group, type) pair is
    duplicated or dropped.  When everything fits, the result is a single
    query identical to make_query's.  Each prefix is tokenized only once.
    """
    groups = tuple(groups)
    if not groups:
        raise EmptyTypeSet("a query needs at least one prefix group")
    base = _base_cost(mode)
    prefixes = [_prefix_segment(vocab, group) for group in groups]
    buckets: list[dict[int, list[str]]] = []
    current: dict[int, list[str]] = {}
    cost = base
    for g, group in enumerate(groups):
        if not group.types:
            raise EmptyTypeSet(f"group {g} has no candidate types")
        group_cost = len(prefixes[g])
        for label in group.types:
            type_cost = len(_type_segment(vocab, label))
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
                                  max_prompt_len, max_len,
                                  prefixes=[prefixes[g] for g in bucket]))
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
