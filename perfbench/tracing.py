"""Per-layer tracing from outside the program.

A ``Tracer`` replaces public functions of the ``spanlink`` modules with
timing wrappers while it is installed, and puts the originals back when it
is removed.  A function is replaced under every name any ``spanlink``
module binds it to, because modules import each other's functions by name
(``engine`` calls its own ``encode`` binding, not ``model.encode``).

Every call becomes a span: name, start, end, the span that was open when it
started (its parent) and the id of the text being processed.  A span's self
time is its duration minus the time covered by its child spans, so the self
times of all spans plus the time outside any span add up to the traced wall
time.  Counters (tokens, queries, spans decoded, bytes per optimizer step)
are taken from the same calls' arguments and results.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter_ns


def _encode_flops(cfg, n: int) -> float:
    d, m = cfg.d, cfg.ffn_mult * cfg.d
    per_layer = 2 * n * d * (4 * d) + 2 * 2 * n * n * d + 2 * 2 * n * d * m
    return float(cfg.layers * per_layer)


def _score_flops(head, n: int) -> float:
    return float(2 * 2 * n * head.d_in * head.d_head + 2 * n * n * head.d_head)


# Hooks read a call's arguments and result into the tracer's counters.
# They run outside the call's own span, so their cost lands in the parent.

def _on_encode(tr, args, kwargs, result):
    enc, query = args[0], args[1]
    n = len(query)
    tr.counts["model.tokens"] += n
    tr.counts["model.attn_cells"] += enc.config.heads * enc.config.layers * n * n
    tr.counts["model.flop"] += _encode_flops(enc.config, n)


def _on_score(tr, args, kwargs, result):
    head, query = args[0], args[2]
    tr.counts["model.flop"] += _score_flops(head, len(query))


def _on_backward(tr, args, kwargs, result):
    # The gradient pass costs about twice its forward pass; the forward pass
    # itself is counted by the encode and score calls backward makes.
    enc, head, query = args[0], args[1], args[2]
    n = len(query)
    tr.counts["model.flop"] += 2 * (_encode_flops(enc.config, n)
                                    + _score_flops(head, n))


def _on_step(tr, args, kwargs, result):
    # AdamW reads parameter, gradient and both moments, and writes back
    # parameter and moments: seven passes over each updated tensor.
    params, grads = args[1], args[2]
    tr.counts["optim.bytes"] += 7 * sum(
        p.nbytes for name, p in params.items() if name in grads)


def _on_split(tr, args, kwargs, result):
    tr.counts["query.queries"] += len(result)
    for q in result:
        tr.counts["query.fill_sum"] += q.esi_len / q.max_prompt_len
        tr.counts["query.len_sum"] += len(q)
        tr.counts["query.len_max"] = max(tr.counts["query.len_max"], len(q))


def _on_decode_ie(tr, args, kwargs, result):
    tr.counts["decoding.spans"] += len(result)


def _on_merge(tr, args, kwargs, result):
    if args[0].mode.value == "extract":
        tr.counts["decoding.kept"] += sum(len(v) for v in result.values())


def targets():
    """(owner, attribute, span name, text-id getter, hook) per traced call."""
    import spanlink.cli as cli
    import spanlink.data as data
    import spanlink.decoding as decoding
    import spanlink.engine as engine
    import spanlink.metrics as metrics
    import spanlink.model as model
    import spanlink.optim as optim
    import spanlink.query as query
    import spanlink.tokenizer as tokenizer

    return [
        (model, "encode", "model.encode", None, _on_encode),
        (model, "score", "model.score", None, _on_score),
        (model, "backward", "model.backward", None, _on_backward),
        (model, "load_checkpoint", "model.load_checkpoint", None, None),
        (optim, "clip_grad_norm", "optim.clip", None, None),
        (optim.AdamW, "step", "optim.step", None, _on_step),
        (query, "split_query", "query.split", None, _on_split),
        (engine, "plan_level", "engine.plan", None, None),
        (engine, "merge_results", "engine.merge", None, _on_merge),
        (engine, "extract", "engine.extract", lambda a: a[3], None),
        (engine, "teacher_forced_queries", "engine.teacher_forced",
         lambda a: a[0].text, None),
        (engine, "evaluate", "engine.evaluate", None, None),
        (engine, "train", "engine.train", None, None),
        (engine.GoldScorer, "__call__", "engine.gold_scorer", None, None),
        (decoding, "decode_ie", "decoding.decode_ie", None, _on_decode_ie),
        (decoding, "cls_products", "decoding.cls", None, None),
        (decoding, "decode_cls_multi", "decoding.cls", None, None),
        (tokenizer, "tokenize", "tokenizer.tokenize", None, None),
        (metrics, "corpus_f1", "metrics.corpus_f1", None, None),
        (data, "load_dataset", "data.load_dataset", None, None),
        (cli, "main", "cli.main", None, None),
    ]


class Tracer:
    """Records spans and counters while installed (``with Tracer():``).

    Texts get ids in the order they are first seen.  Calls that name a text
    (``extract``, ``teacher_forced_queries``) set the id for themselves and
    every span below them.
    """

    def __init__(self):
        self.text_ids: dict[str, int] = {}
        self.text = None
        self.spans: list[tuple] = []
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self._next_id = 0
        self._undo: list[tuple] = []
        self.t0 = perf_counter_ns()

    def _wrap(self, name, fn, text_of, hook):
        tracer = self
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer_text = tracer.text
            if text_of is not None:
                tracer.text = tracer.text_ids.setdefault(
                    text_of(args), len(tracer.text_ids))
            parent = stack[-1] if stack else None
            frame = [tracer._next_id, 0]
            tracer._next_id += 1
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                tracer.self_ns[name] += duration - frame[1]
                tracer.calls[name] += 1
                if parent is not None:
                    parent[1] += duration
                tracer.spans.append((frame[0], name, start, end,
                                     parent[0] if parent else None,
                                     tracer.text))
                tracer.text = outer_text
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "spanlink" or n.startswith("spanlink.")]
        for owner, attr, name, text_of, hook in targets():
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, text_of, hook)
            if isinstance(owner, type):
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapped)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False

    def span_records(self):
        """Spans as JSON-ready dicts, times in microseconds from the start."""
        for sid, name, start, end, parent, text in sorted(self.spans):
            yield {"id": sid, "name": name,
                   "start_us": (start - self.t0) / 1e3,
                   "end_us": (end - self.t0) / 1e3,
                   "parent": parent, "text": text}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.span_records():
                fh.write(json.dumps(record) + "\n")

    def inclusive_ms(self, name: str, parent_name: str) -> float:
        """Total duration of ``name`` spans opened directly under a
        ``parent_name`` span."""
        names = {s[0]: s[1] for s in self.spans}
        return sum(end - start for _, n, start, end, parent, _ in self.spans
                   if n == name and names.get(parent) == parent_name) / 1e6


# Per-layer metrics of a traced run: (name, unit, better).  Every ``.ms`` is
# self time, except ``engine.self_eval.ms``, the whole of the evaluation
# passes ``train`` makes after each epoch.  The ``.ms`` self times of all
# spans plus ``trace.other_ms`` add up to ``trace.wall_ms``.
_SELF_MS = {name: f"{name}.ms" for name in (
    "model.encode", "model.score", "model.backward", "model.load_checkpoint",
    "optim.clip", "optim.step", "query.split", "engine.plan", "engine.merge",
    "engine.teacher_forced", "engine.evaluate", "engine.train",
    "engine.gold_scorer", "decoding.decode_ie", "decoding.cls",
    "tokenizer.tokenize", "metrics.corpus_f1", "data.load_dataset",
    "cli.main")}
_SELF_MS["engine.extract"] = "engine.extract.self_ms"
_CALLS = ("model.encode", "model.backward", "optim.step", "query.split",
          "tokenizer.tokenize")

PER_LAYER = (
    [(metric, "ms", "lower") for metric in sorted(_SELF_MS.values())]
    + [(f"{name}.calls", "count", "lower") for name in _CALLS]
    + [
        ("model.tokens", "tokens", "lower"),
        ("model.attn_cells", "count", "lower"),
        ("model.gflop", "gflop", "lower"),
        ("optim.bytes_per_step", "bytes", "lower"),
        ("query.queries", "count", "lower"),
        ("query.queries_per_split", "ratio", "lower"),
        ("query.prompt_fill", "ratio", "higher"),
        ("query.len_mean", "tokens", "lower"),
        ("query.len_max", "tokens", "lower"),
        ("engine.levels", "count", "lower"),
        ("engine.self_eval.ms", "ms", "lower"),
        ("decoding.spans", "count", "lower"),
        ("decoding.kept_ratio", "ratio", "higher"),
        ("trace.spans", "count", "lower"),
        ("trace.wall_ms", "ms", "lower"),
        ("trace.other_ms", "ms", "lower"),
        ("trace.untraced_ms", "ms", "lower"),
        ("trace.overhead_ms", "ms", "lower"),
    ])


def layer_metrics(tracer: Tracer, wall_ms: float, untraced_ms: float) -> dict:
    """Every PER_LAYER metric from one traced pass of ``wall_ms``; layers the
    workload never calls read 0."""
    def ratio(num, den):
        return num / den if den else 0.0

    c, calls = tracer.counts, tracer.calls
    values = {metric: tracer.self_ns[name] / 1e6
              for name, metric in _SELF_MS.items()}
    values.update({f"{name}.calls": calls[name] for name in _CALLS})
    values.update({
        "model.tokens": c["model.tokens"],
        "model.attn_cells": c["model.attn_cells"],
        "model.gflop": c["model.flop"] / 1e9,
        "optim.bytes_per_step": ratio(c["optim.bytes"], calls["optim.step"]),
        "query.queries": c["query.queries"],
        "query.queries_per_split": ratio(c["query.queries"],
                                         calls["query.split"]),
        "query.prompt_fill": ratio(c["query.fill_sum"], c["query.queries"]),
        "query.len_mean": ratio(c["query.len_sum"], c["query.queries"]),
        "query.len_max": c["query.len_max"],
        "engine.levels": calls["engine.plan"],
        "engine.self_eval.ms": tracer.inclusive_ms("engine.evaluate",
                                                   "engine.train"),
        "decoding.spans": c["decoding.spans"],
        "decoding.kept_ratio": ratio(c["decoding.kept"], c["decoding.spans"]),
        "trace.spans": len(tracer.spans),
        "trace.wall_ms": wall_ms,
        "trace.other_ms": wall_ms - sum(tracer.self_ns.values()) / 1e6,
        "trace.untraced_ms": untraced_ms,
        "trace.overhead_ms": wall_ms - untraced_ms,
    })
    return values
