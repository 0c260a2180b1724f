"""Strict-match F1 over annotation paths.

Every metric here is exact set matching: a prediction counts iff its key
tuple equals a gold key tuple.  What goes into the key depends on the task:

==================  =========================================================
entity              type + offsets of the path's first element
trigger             same cells as entity (event datasets name it differently)
relation-strict     both elements' types + offsets of a two-element path
relation-triplet    relation label + subject surface + object surface
argument            event type, role label, argument offsets
sentiment-triplet   target offsets, polarity label, opinion offsets
quadruple           types + offsets of all three elements
quintuple / path    the whole path: every element's type + offsets
==================  =========================================================

Counts aggregate over a corpus by tagging keys with the example index, so
identical structures in different sentences never collapse.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnknownTask


@dataclass
class MetricReport:
    task: str
    gold_num: int
    pred_num: int
    match_num: int
    precision: float
    recall: float
    f1: float


def _el_key(el):
    return (el.label, el.start, el.end)


def _key_entity(path):
    return _el_key(path[0])


def _key_relation_strict(path):
    if len(path) != 2:
        return None
    return _el_key(path[0]) + _el_key(path[1])


def _key_relation_triplet(path):
    if len(path) != 2:
        return None
    return (path[1].label, path[0].surface, path[1].surface)


def _key_argument(path):
    if len(path) != 2:
        return None
    return (path[0].label, path[1].label, path[1].start, path[1].end)


def _key_sentiment_triplet(path):
    if len(path) != 2:
        return None
    return (path[0].start, path[0].end, path[1].label, path[1].start, path[1].end)


def _key_quadruple(path):
    if len(path) != 3:
        return None
    return _el_key(path[0]) + _el_key(path[1]) + _el_key(path[2])


def _key_path(path):
    return tuple(_el_key(el) for el in path)


TASKS = {
    "entity": _key_entity,
    "trigger": _key_entity,
    "relation-strict": _key_relation_strict,
    "relation-triplet": _key_relation_triplet,
    "argument": _key_argument,
    "sentiment-triplet": _key_sentiment_triplet,
    "quadruple": _key_quadruple,
    "quintuple": _key_path,
    "path": _key_path,
}


def metric_for_task(task: str):
    """Key function for a registered task name."""
    try:
        return TASKS[task]
    except KeyError:
        raise UnknownTask(
            f"no metric named {task!r}; known: {', '.join(sorted(TASKS))}"
        ) from None


def strict_match_f1(gold_paths, pred_paths, key) -> MetricReport:
    """Exact-match P/R/F1 between two collections of paths under one key:
    ``corpus_f1`` over the one pair, reported as task ``"custom"`` (several
    tasks share a key; ``corpus_f1(..., task=)`` names the report).  Paths
    the key maps to None are excluded from both sides."""
    return corpus_f1([(gold_paths, pred_paths)], key)


def corpus_f1(pairs, key, task: str = "custom") -> MetricReport:
    """Aggregate strict matching over (gold_paths, pred_paths) pairs, one per
    example.  Keys are scoped per example before counting."""
    gold, pred = set(), set()
    for idx, (gold_paths, pred_paths) in enumerate(pairs):
        gold |= {(idx, k) for k in (key(p) for p in gold_paths) if k is not None}
        pred |= {(idx, k) for k in (key(p) for p in pred_paths) if k is not None}
    match = len(gold & pred)
    precision = match / len(pred) if pred else 0.0
    recall = match / len(gold) if gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return MetricReport(task=task, gold_num=len(gold), pred_num=len(pred),
                        match_num=match, precision=precision, recall=recall, f1=f1)
