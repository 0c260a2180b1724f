"""Recursive extraction engine and training loop.

Extraction walks the schema level by level.  Level 1 asks one query with an
empty prefix over the root's candidate types; every decoded span (or label)
whose schema node has children becomes a prefix group for the next level,
and so on until the schema bottoms out or a level decodes nothing.  Training
replaces predicted prefixes with gold ones (teacher forcing), including gold
prefixes that have no continuation, whose all-zero target teaches the model
to stop.

Scores come from a pluggable scorer, ``scorer(query) -> Z``: the trained
model, a stream of stored matrices, or an oracle synthesized from gold
annotations.  Keeping that seam explicit is what lets the decoder be tested
for exact closure (plant annotations, score with the oracle, extract, and
require the planted set back).  ``iter_extract`` walks a window of texts level
by level and scores each level's queries in chunks sorted by length, through
the scorer's ``many(queries) -> [Z, ...]`` when it has one (the model scores a
chunk as one padded batch), or one ``scorer(query)`` call per query.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .config import Config, eval_task_list
from .data import Example, PathElement, path_key
from .decoding import argmax_label, cls_products, decode_cls_multi, decode_ie
from .errors import Diverged, NonFiniteScores, OracleExhausted
from .metrics import MetricReport, corpus_f1, metric_for_task
from .model import (
    EncoderConfig,
    EncoderParams,
    ScoringHead,
    backward_batch,
    encode_batch,
    init_encoder,
    init_head,
    score_batch,
    zero_grads,
)
from .optim import AdamW, clip_grad_norm, flat_buffers, linear_schedule
from .query import (
    PrefixGroup,
    Query,
    _target_cells,
    build_target,
    fill_scored,
    split_query,
)
from .schema import LevelMode, Schema, children_of
from .tokenizer import Vocab, tokenize

# Padded tokens (queries x longest query) per batched encoder pass, in
# extraction and in training's backward passes.  On a 2-core VM with 1 BLAS
# thread, encode + score of an n ~ 13 query took 0.83 ms alone and 0.32 ms
# in batches of 16, with no further gain at 64; a 512-token budget raised
# the benchmark's peak RSS by up to 9.4%.
BATCH_TOKENS = 256
# Text tokens walked together.  A window's plans stay in memory until it is
# done: 25 texts of 200 words raised peak RSS by 4 MB, while 1024 tokens
# still puts about 170 short sentences in a window.
WINDOW_TOKENS = 1024

ORACLE_HI = 10.0  # sigmoid(10) ~ 0.99995, comfortably past the 0.9 threshold
ORACLE_LO = -10.0


@dataclass(frozen=True)
class ExtractionPath:
    """One extracted structure.  ``terminal`` is True when the path reached a
    leaf type; False when its node had children but nothing continued."""

    elements: tuple[PathElement, ...]
    terminal: bool


@dataclass
class LevelPlan:
    level: int
    mode: LevelMode
    groups: tuple[PrefixGroup, ...]
    queries: list[Query]


def _labels_of(path) -> tuple[str, ...]:
    return tuple(el.label for el in path)


def plan_level(schema: Schema, prefix_paths, text, source: str, vocab: Vocab,
               cfg: Config) -> LevelPlan:
    """Build the queries for one level given the prefix paths to extend.

    Prefixes are deduplicated by (type, offsets) identity preserving first
    occurrence; candidate types come from the schema in lexicographic order,
    which fixes the canonical query rendering regardless of schema file
    order.  Queries are split as needed to respect the prompt budget.
    """
    seen = set()
    groups = []
    for path in prefix_paths:
        pk = path_key(path)
        if pk in seen:
            continue
        seen.add(pk)
        candidates = sorted(children_of(schema, _labels_of(path)))
        groups.append(PrefixGroup(path=tuple(path), types=tuple(candidates)))
    level = len(groups[0].path) + 1 if groups else None
    mode = schema.modes[level - 1] if groups else None
    queries = split_query(groups, text, source, mode, vocab,
                          cfg.max_prompt_len, cfg.max_len)
    return LevelPlan(level=level, mode=mode, groups=tuple(groups), queries=queries)


def merge_results(plan: LevelPlan, outputs, delta_cls: float):
    """Combine per-query decodes into per-prefix continuations.

    Extraction merges by set union.  Single-label classification multiplies
    each label's two-direction sigmoid product across the sub-queries that
    asked about it and takes the argmax per group (ties to the lowest index
    in the group's canonical candidate order).  Multi-label unions every
    label that cleared the threshold in its sub-query.
    """
    continuations: dict[tuple, list[PathElement]] = {
        path_key(g.path): [] for g in plan.groups
    }
    by_path = {path_key(g.path): g for g in plan.groups}

    if plan.mode is LevelMode.EXTRACT:
        seen = set()
        for query, spans in zip(plan.queries, outputs):
            for s in spans:
                pk = path_key(query.groups[s.group].path)
                el = PathElement(label=s.label, start=s.start, end=s.end,
                                 surface=s.surface)
                if (pk, el.key()) not in seen:
                    seen.add((pk, el.key()))
                    continuations[pk].append(el)
        for els in continuations.values():
            els.sort(key=lambda e: (e.start, e.end, e.label))
    elif plan.mode is LevelMode.CLASSIFY_SINGLE:
        products: dict[tuple, dict[str, float]] = {}
        for query, out in zip(plan.queries, outputs):
            for g, label, p in out:
                pk = path_key(query.groups[g].path)
                slot = products.setdefault(pk, {})
                slot[label] = slot.get(label, 1.0) * p
        for pk, slot in products.items():
            best = argmax_label(slot, by_path[pk].types)
            continuations[pk].append(PathElement(label=best))
    else:
        chosen: dict[tuple, list[str]] = {}
        for query, out in zip(plan.queries, outputs):
            for dec in out:
                pk = path_key(query.groups[dec.group].path)
                bucket = chosen.setdefault(pk, [])
                for label in dec.labels:
                    if label not in bucket:
                        bucket.append(label)
        for pk, labels in chosen.items():
            order = {label: i for i, label in enumerate(by_path[pk].types)}
            for label in sorted(labels, key=order.get):
                continuations[pk].append(PathElement(label=label))
    return continuations


def _decode(mode: LevelMode, z, query: Query, cfg: Config):
    if mode is LevelMode.EXTRACT:
        return decode_ie(z, query, cfg.delta_ie)
    if mode is LevelMode.CLASSIFY_SINGLE:
        return cls_products(z, query)
    return decode_cls_multi(z, query, cfg.delta_cls)


def _chunk_bounds(lengths, budget: int):
    """(lo, hi) runs of consecutive queries whose padded size, the count
    times the longest length, stays within ``budget`` tokens.  A query
    longer than the budget gets a run of its own."""
    lo, n_max = 0, 0
    for i, n in enumerate(lengths):
        n_max = max(n_max, n)
        if i > lo and (i + 1 - lo) * n_max > budget:
            yield lo, i
            lo, n_max = i, n
    if lengths:
        yield lo, len(lengths)


def _decode_plans(plans, many, cfg: Config):
    """Decodes of every query of the plans, one list per plan in query
    order.  The queries are sorted by length, which keeps padding low, and
    scored by ``many`` in chunks of up to ``BATCH_TOKENS`` padded tokens, one
    call each; each chunk's matrices are decoded and dropped before the next
    chunk is scored."""
    outputs = [[None] * len(plan.queries) for plan in plans]
    items = sorted(((len(query), plan.mode, query, p, k)
                    for p, plan in enumerate(plans)
                    for k, query in enumerate(plan.queries)),
                   key=lambda item: item[0])
    for lo, hi in _chunk_bounds([item[0] for item in items], BATCH_TOKENS):
        chunk = items[lo:hi]
        zs = many([item[2] for item in chunk])
        for (_, mode, query, p, k), z in zip(chunk, zs):
            outputs[p][k] = _decode(mode, z, query, cfg)
    return outputs


def _path_order(p: ExtractionPath):
    return tuple(
        (el.label, -1 if el.start is None else el.start,
         -1 if el.end is None else el.end)
        for el in p.elements
    )


def _extract_window(window, schema: Schema, vocab: Vocab, many,
                    cfg: Config) -> list[list[ExtractionPath]]:
    """Walk the schema for several (text, tokens) pairs at once, level by
    level: every text still live plans its next level, then all their
    queries are scored together."""
    results: list[list[ExtractionPath]] = [[] for _ in window]
    pending = {i: [()] for i in range(len(window))}
    while pending:
        plans = {i: plan_level(schema, paths, window[i][1], window[i][0],
                               vocab, cfg)
                 for i, paths in pending.items()}
        decoded = _decode_plans(list(plans.values()), many, cfg)
        next_pending = {}
        for (i, plan), outputs in zip(plans.items(), decoded):
            continuations = merge_results(plan, outputs, cfg.delta_cls)
            for path in pending[i]:
                found = continuations.get(path_key(path), [])
                if not found and path:
                    results[i].append(ExtractionPath(elements=tuple(path),
                                                     terminal=False))
                for el in found:
                    extended = tuple(path) + (el,)
                    if schema.node_at(_labels_of(extended)).is_leaf:
                        results[i].append(ExtractionPath(elements=extended,
                                                         terminal=True))
                    else:
                        next_pending.setdefault(i, []).append(extended)
        pending = next_pending
    for paths in results:
        paths.sort(key=_path_order)
    return results


def _many_of(scorer):
    """``scorer.many`` when the scorer has it, else a function that calls
    ``scorer(query)`` once per query, in order."""
    return getattr(scorer, "many", None) or (
        lambda queries: [scorer(query) for query in queries])


def iter_extract(texts, schema: Schema, vocab: Vocab, scorer, cfg: Config):
    """``extract`` for every text, yielded in text order as soon as the
    window holding the text has been walked.

    Consecutive texts of up to ``WINDOW_TOKENS`` tokens in all are walked
    together, and each level's queries across the window are scored in
    order of length, in chunks: one ``scorer.many(queries)`` call per chunk
    when the scorer has that method, else one ``scorer(query)`` call per
    query.  Either way the scorer sees the queries in the same walk order,
    which stateful scorers such as ``GridScorer`` rely on: stored matrices
    replay only for the same texts walked the same way.
    """
    many = _many_of(scorer)
    window, used = [], 0
    for text in texts:
        toks = tokenize(vocab, text)
        if window and used + len(toks) > WINDOW_TOKENS:
            yield from _extract_window(window, schema, vocab, many, cfg)
            window, used = [], 0
        window.append((text, toks))
        used += len(toks)
    if window:
        yield from _extract_window(window, schema, vocab, many, cfg)


def extract(schema: Schema, vocab: Vocab, scorer, text: str,
            cfg: Config) -> list[ExtractionPath]:
    """Recursively extract every schema path the scorer supports in ``text``.

    The result contains each maximal decoded path, plus each decoded prefix
    whose node has children but produced no continuation (reported with
    ``terminal=False``).  Output order is deterministic.
    """
    return next(iter_extract([text], schema, vocab, scorer, cfg))


# --------------------------------------------------------------- scorers ---

class ModelScorer:
    """Score queries with the trained encoder + head, reusing one workspace
    (see ``encode_batch``) across every call."""

    def __init__(self, enc: EncoderParams, head: ScoringHead):
        self.enc = enc
        self.head = head
        self.workspace: dict[str, np.ndarray] = {}

    def __call__(self, query: Query) -> np.ndarray:
        return self.many([query])[0]

    # Finite weights can still overflow float32; the decoders report the
    # NaN scores in one line, as training does, without numpy warnings.
    @np.errstate(over="ignore", invalid="ignore")
    def many(self, queries) -> list[np.ndarray]:
        """Score matrices of several queries from one padded pass."""
        if not queries:
            return []
        hidden = encode_batch(self.enc, queries, workspace=self.workspace)
        return score_batch(self.head, hidden, queries)


class GoldScorer:
    """Oracle: synthesize scores from gold paths.

    The supervision's positive cells become +10, every other scored cell
    -10 and the rest -inf, so extraction at threshold 0 and classification
    at threshold 0.9 both reproduce the annotations exactly.
    """

    def __init__(self, gold_paths):
        self.gold_paths = tuple(gold_paths)
        # Per prefix key, the distinct gold elements one level below it, in
        # first occurrence order; built on the first query, so a scorer
        # that is never called costs nothing to make.
        self._continuations: dict[tuple, list[PathElement]] | None = None

    def _gold_by_group(self, query: Query) -> dict[int, list[PathElement]]:
        """The gold elements under each group of ``query`` that it asks
        about, for the groups that have any."""
        if self._continuations is None:
            index: dict[tuple, dict[tuple, PathElement]] = {}
            for path in self.gold_paths:
                for depth, el in enumerate(path):
                    index.setdefault(path_key(path[:depth]), {}).setdefault(
                        el.key(), el)
            # Lists, not the dicts: callers may keep one scorer per text.
            self._continuations = {pk: list(els.values())
                                   for pk, els in index.items()}
        gold_by_group = {}
        for g, group in enumerate(query.groups):
            els = [el for el in self._continuations.get(path_key(group.path), ())
                   if el.label in group.types]
            if els:
                gold_by_group[g] = els
        return gold_by_group

    def target_for(self, query: Query) -> np.ndarray:
        return build_target(query, self._gold_by_group(query))

    def positive_cells(self, query: Query) -> np.ndarray:
        """The query's positive cells as ``_target_cells`` gives them."""
        return _target_cells(query, self._gold_by_group(query))

    def __call__(self, query: Query) -> np.ndarray:
        z = fill_scored(query, np.full((len(query),) * 2, -np.inf, np.float32),
                        ORACLE_LO)
        z.reshape(-1)[self.positive_cells(query)] = ORACLE_HI
        return z


class GridScorer:
    """Feed stored score matrices in engine query order."""

    def __init__(self, matrices):
        self.matrices = list(matrices)
        self.cursor = 0

    def __call__(self, query: Query) -> np.ndarray:
        if self.cursor >= len(self.matrices):
            raise OracleExhausted(
                f"needed a {len(query)}x{len(query)} matrix for query "
                f"{self.cursor} but the file holds only {len(self.matrices)}"
            )
        z = self.matrices[self.cursor]
        self.cursor += 1
        if z.shape != (len(query), len(query)):
            raise OracleExhausted(
                f"stored matrix {self.cursor - 1} is {z.shape}, query needs "
                f"({len(query)}, {len(query)})"
            )
        return z


class RecordingScorer:
    """Wrap another scorer, keeping every (query, matrix) pair in the order
    the wrapped scorer was asked."""

    def __init__(self, inner):
        self.inner = inner
        self.queries: list[Query] = []
        self.matrices: list[np.ndarray] = []

    def __call__(self, query: Query) -> np.ndarray:
        return self.many([query])[0]

    def many(self, queries) -> list[np.ndarray]:
        """Score through the inner scorer's ``many`` when it has one (so a
        model still scores padded batches), else one call per query."""
        zs = _many_of(self.inner)(queries)
        self.queries += queries
        self.matrices += zs
        return zs


# -------------------------------------------------------- teacher forcing ---

def gold_prefixes(gold_paths, schema: Schema, level: int):
    """Distinct gold prefixes of length level-1 whose nodes have children,
    in record order.  Level 1 always yields the single empty prefix."""
    if level == 1:
        return [()]
    out, seen = [], set()
    for path in gold_paths:
        if len(path) < level - 1:
            continue
        prefix = tuple(path[:level - 1])
        pk = path_key(prefix)
        if pk in seen:
            continue
        seen.add(pk)
        if not schema.node_at(_labels_of(prefix)).is_leaf:
            out.append(prefix)
    return out


def teacher_forced_queries(example: Example, schema: Schema, vocab: Vocab,
                           cfg: Config, last_level: int | None = None):
    """(query, cells) pairs for levels 1 .. ``last_level`` (default: the
    schema depth) of one example, with gold prefixes standing in for
    predictions; ``cells`` are the query's positive cells as
    ``GoldScorer.positive_cells`` gives them."""
    toks = tokenize(vocab, example.text)
    scorer = GoldScorer(example.paths)
    pairs = []
    for level in range(1, (last_level or schema.depth) + 1):
        prefixes = gold_prefixes(example.paths, schema, level)
        if not prefixes:
            break
        plan = plan_level(schema, prefixes, toks, example.text, vocab, cfg)
        for query in plan.queries:
            pairs.append((query, scorer.positive_cells(query)))
    return pairs


# ------------------------------------------------------------ train / eval ---

@dataclass
class TrainResult:
    enc: EncoderParams
    head: ScoringHead
    log: list[dict] = field(default_factory=list)


def build_model(cfg: Config, vocab_size: int, rng: np.random.Generator):
    enc_cfg = EncoderConfig(
        vocab_size=vocab_size, d=cfg.d, layers=cfg.layers, heads=cfg.heads,
        max_positions=cfg.max_prompt_len + cfg.max_len, ffn_mult=cfg.ffn_mult,
    )
    enc = init_encoder(enc_cfg, rng)
    head = init_head(cfg.d, cfg.d_head, rng)
    return enc, head


# Diverged reports a blow-up in one line.
@np.errstate(over="ignore", invalid="ignore")
def train(examples, schema: Schema, vocab: Vocab, cfg: Config,
          log_fn=None) -> TrainResult:
    """Teacher-forced training: per example, sum circle loss over every
    level's queries, then one optimizer step (AdamW, linear warmup, global
    norm clip).  Logs per-epoch mean loss and training-set strict F1 via
    self-extraction.  All randomness flows from cfg.seed.

    An example's queries run through ``backward_batch`` in chunks of up to
    ``BATCH_TOKENS`` padded tokens.  Parameters and gradients live in flat
    buffers (``flat_buffers``): ``enc.params`` and ``head.params`` are views
    into the parameter buffers, backprop adds into views of the gradient
    buffers, and clipping and AdamW work on each buffer whole.  A step whose
    gradient norm is not finite raises ``Diverged`` before it touches the
    parameters, and so does a self-evaluation that scores NaN.  Log entries
    carry the epoch's mean loss and mean pre-clip gradient norm."""
    rng = np.random.default_rng(cfg.seed)
    enc, head = build_model(cfg, len(vocab), rng)
    enc_grads, head_grads = zero_grads(enc, head)
    params = flat_buffers(enc.params, head.params)
    grads = flat_buffers(enc_grads, head_grads)
    opt = AdamW(lr=cfg.lr, weight_decay=cfg.weight_decay)
    total_steps = max(1, cfg.epochs * len(examples))
    tasks = eval_task_list(cfg)
    log: list[dict] = []
    step = 0
    # Gold prefixes make an example's pairs the same in every epoch, so each
    # is built once.
    chunks = []
    for ex in examples:
        pairs = teacher_forced_queries(ex, schema, vocab, cfg)
        chunks.append([tuple(zip(*pairs[lo:hi])) for lo, hi in
                       _chunk_bounds([len(q) for q, _ in pairs], BATCH_TOKENS)])

    def diverged(what):
        return Diverged(f"{what} at epoch {epoch}, step {step} (lr={cfg.lr:g} "
                        f"x schedule {lr_factor:.4g}); try a lower lr")

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(examples))
        epoch_loss = epoch_norm = 0.0
        for idx in order:
            for g in grads.values():
                g.fill(0.0)
            loss = 0.0
            for queries, positives in chunks[int(idx)]:
                targets = [np.zeros((len(q),) * 2, np.uint8) for q in queries]
                for target, cells in zip(targets, positives):
                    target.reshape(-1)[cells] = 1
                loss += backward_batch(enc, head, queries, targets,
                                       (enc_grads, head_grads))[0]
            step += 1
            lr_factor = linear_schedule(step, total_steps, cfg.warmup_ratio)
            norm = clip_grad_norm(grads, cfg.grad_clip)
            if not math.isfinite(norm):
                raise diverged(f"gradient norm is {norm}")
            opt.step(params, grads, lr_factor)
            epoch_loss += loss
            epoch_norm += norm
        entry = {"epoch": epoch, "loss": epoch_loss / max(1, len(examples)),
                 "grad_norm": epoch_norm / max(1, len(examples))}
        try:
            reports = evaluate(examples, schema, vocab, ModelScorer(enc, head),
                               cfg, tasks)
        except NonFiniteScores:
            raise diverged("gradient norm is finite but self-evaluation "
                           "scores are NaN") from None
        for task, report in reports.items():
            entry[task] = report.f1
        log.append(entry)
        if log_fn is not None:
            log_fn(entry)
        if cfg.early_stop_f1 > 0 and tasks and all(
                reports[t].f1 >= cfg.early_stop_f1 for t in tasks):
            break
    return TrainResult(enc=enc, head=head, log=log)


def evaluate(examples, schema: Schema, vocab: Vocab, scorer, cfg: Config,
             tasks) -> dict[str, MetricReport]:
    """Strict-F1 reports for each task over the given examples."""
    predictions = iter_extract([ex.text for ex in examples], schema, vocab,
                               scorer, cfg)
    pairs = [
        (ex.paths, [p.elements for p in preds])
        for ex, preds in zip(examples, predictions)
    ]
    return {
        task: corpus_f1(pairs, metric_for_task(task), task=task)
        for task in tasks
    }


# ----------------------------------------------------------- output format ---

def extraction_record(text: str, paths) -> str:
    """One output line (format version 1): the input text and its paths with
    a stable element key order (type, surface, start, end)."""
    rendered = []
    for p in paths:
        elements = []
        for el in p.elements:
            if el.label_only:
                elements.append({"type": el.label, "label_only": True})
            else:
                elements.append({"type": el.label, "surface": el.surface,
                                 "start": el.start, "end": el.end})
        rendered.append(elements)
    return json.dumps({"version": 1, "text": text, "paths": rendered},
                      ensure_ascii=False)
