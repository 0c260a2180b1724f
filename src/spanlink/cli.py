"""Command-line interface.

Subcommands::

    spanlink train        --config cfg [--set key=value ...]
    spanlink eval         --config cfg [--task NAME] [--out FILE]
    spanlink extract      --config cfg [--text STR | --data FILE]
                          [--dump-queries] [--out FILE]
    spanlink dump-queries --config cfg [--level N]

Exit status is 0 iff no error occurred; failures print a module-qualified
error code to stderr (for example ``query.PromptOverflow: ...``).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import engine
from .config import (
    Config,
    apply_overrides,
    eval_task_list,
    level_mode_list,
    load_config,
    validate_config,
)
from .data import load_dataset
from .errors import (
    BadConfig,
    CheckpointMismatch,
    MalformedSchema,
    SpanlinkError,
    read_text,
)
from .model import load_checkpoint, save_checkpoint
from .query import render_query
from .schema import Schema, parse_schema, validate_schema
from .tokenizer import Vocab, build_vocab, load_vocab, save_vocab


def _load_schema(cfg: Config) -> Schema:
    if not cfg.schema:
        raise BadConfig("config needs a schema path")
    schema = parse_schema(read_text(cfg.schema, MalformedSchema),
                          level_modes=level_mode_list(cfg))
    validate_schema(schema, cfg.max_depth)
    return schema


def _schema_labels(schema: Schema) -> list[str]:
    labels = []

    def walk(node):
        for label, child in node.children.items():
            labels.append(label)
            walk(child)

    walk(schema.root)
    return labels


def _data_texts(path: str) -> list[str]:
    """The text of every record in a data file, in file order."""
    return [ex.text for ex in load_dataset(path)]


def _vocab_path(cfg: Config) -> str:
    return cfg.vocab or (cfg.checkpoint + ".vocab")


def _obtain_vocab(cfg: Config, schema: Schema, build: bool) -> Vocab:
    path = _vocab_path(cfg)
    if os.path.exists(path):
        return load_vocab(path)
    if not build:
        raise BadConfig(f"vocabulary file {path!r} not found")
    if not cfg.data:
        raise BadConfig("config needs a data path to build a vocabulary")
    vocab = build_vocab(_data_texts(cfg.data), _schema_labels(schema))
    save_vocab(vocab, path)
    return vocab


def _load_model(cfg: Config):
    enc, head = load_checkpoint(cfg.checkpoint)
    dims = {k: getattr(enc.config, k) for k in ("d", "layers", "heads", "ffn_mult")}
    wrong = [f"{k}={v} (config {getattr(cfg, k)})" for k, v in
             {**dims, "d_head": head.d_head}.items() if v != getattr(cfg, k)]
    if wrong:
        raise CheckpointMismatch("checkpoint dims do not match config: "
                                 + ", ".join(wrong))
    return enc, head


def cmd_train(cfg: Config) -> int:
    schema = _load_schema(cfg)
    if not cfg.checkpoint:
        raise BadConfig("config needs a checkpoint path")
    vocab = _obtain_vocab(cfg, schema, build=True)
    examples = load_dataset(cfg.data, schema=schema, vocab=vocab)
    log_lines = []

    def log_fn(entry: dict) -> None:
        line = " ".join(
            f"{k}={v:.6f}" if isinstance(v, float) else f"{k}={v}"
            for k, v in entry.items()
        )
        print(line)
        log_lines.append(line)

    result = engine.train(examples, schema, vocab, cfg, log_fn=log_fn)
    save_checkpoint(cfg.checkpoint, result.enc, result.head)
    with open(cfg.checkpoint + ".log", "w", encoding="utf-8") as fh:
        fh.write("\n".join(log_lines) + "\n")
    print(f"saved checkpoint to {cfg.checkpoint}")
    return 0


def cmd_eval(cfg: Config, tasks, out_path: str | None) -> int:
    schema = _load_schema(cfg)
    vocab = _obtain_vocab(cfg, schema, build=False)
    enc, head = _load_model(cfg)
    examples = load_dataset(cfg.data, schema=schema, vocab=vocab)
    reports = engine.evaluate(examples, schema, vocab,
                              engine.ModelScorer(enc, head), cfg, tasks)
    header = f"{'task':<20}{'gold':>6}{'pred':>6}{'match':>6}" \
             f"{'P':>8}{'R':>8}{'F1':>8}"
    print(header)
    for task in tasks:
        r = reports[task]
        print(f"{task:<20}{r.gold_num:>6}{r.pred_num:>6}{r.match_num:>6}"
              f"{r.precision:>8.4f}{r.recall:>8.4f}{r.f1:>8.4f}")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            for task in tasks:
                r = reports[task]
                fh.write(json.dumps({
                    "version": 1, "task": task, "gold_num": r.gold_num,
                    "pred_num": r.pred_num, "match_num": r.match_num,
                    "precision": r.precision, "recall": r.recall, "f1": r.f1,
                }) + "\n")
    return 0


def cmd_extract(cfg: Config, texts, dump_queries: bool,
                out_path: str | None) -> int:
    schema = _load_schema(cfg)
    vocab = _obtain_vocab(cfg, schema, build=False)
    scorer = engine.ModelScorer(*_load_model(cfg))
    if dump_queries:
        recorder = engine.RecordingScorer(scorer)
        scorer = recorder
    sink = open(out_path, "w", encoding="utf-8") if out_path else sys.stdout
    try:
        # Records are written window by window.  At a window's first record
        # the recorder holds every query of the window, in scoring order;
        # they are printed before that record.
        for text, paths in zip(texts, engine.iter_extract(
                texts, schema, vocab, scorer, cfg)):
            if dump_queries:
                for query in recorder.queries:
                    print(render_query(query))
                recorder.queries.clear()
            sink.write(engine.extraction_record(text, paths) + "\n")
    finally:
        if out_path:
            sink.close()
    return 0


def cmd_dump_queries(cfg: Config, level: int | None) -> int:
    """Render the teacher-forced queries for every record in the data file,
    level by level, using gold prefixes in record order."""
    schema = _load_schema(cfg)
    if level is not None and not 1 <= level <= schema.depth:
        raise BadConfig(f"--level must lie in [1, {schema.depth}], got {level}")
    vocab = _obtain_vocab(cfg, schema, build=True)
    examples = load_dataset(cfg.data, schema=schema, vocab=vocab)
    for ex in examples:
        for query, _ in engine.teacher_forced_queries(ex, schema, vocab, cfg,
                                                      level):
            # a query's groups all extend prefixes one level up
            if level is None or len(query.groups[0].path) + 1 == level:
                print(render_query(query))
    return 0


def _collect_texts(args) -> list[str]:
    if args.text is not None:
        return [args.text]
    if not args.data:
        raise BadConfig("extract needs --text or --data")
    return _data_texts(args.data)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spanlink",
        description="schema-guided extraction via recursive queries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config entry (repeatable)")

    p_train = sub.add_parser("train", help="train a model on a dataset")
    common(p_train)

    p_eval = sub.add_parser("eval", help="strict-F1 evaluation of a checkpoint")
    common(p_eval)
    p_eval.add_argument("--task", action="append", default=[],
                        help="metric task name (repeatable; default from config)")
    p_eval.add_argument("--out", default="metric_report.json",
                        help="structured report file (JSON lines)")

    p_ext = sub.add_parser("extract", help="extract structures from text")
    common(p_ext)
    p_ext.add_argument("--text", default=None, help="a single input text")
    p_ext.add_argument("--data", default=None,
                       help="dataset file; only the text fields are used")
    p_ext.add_argument("--dump-queries", action="store_true",
                       help="print every query as it is scored")
    p_ext.add_argument("--out", default=None,
                       help="write extraction records here instead of stdout")

    p_dump = sub.add_parser("dump-queries",
                            help="render teacher-forced queries from gold data")
    common(p_dump)
    p_dump.add_argument("--level", type=int, default=None,
                        help="only this schema level, 1 to the schema depth")

    return parser


def _pin_blas_threads() -> None:
    """One thread for numpy's bundled OpenBLAS (on a busy core a second one
    costs more) unless OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is set; a
    build without the setter, which takes a C int, is left as it is."""
    if {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}.isdisjoint(os.environ):
        for lib in (Path(np.__file__).parents[1] / "numpy.libs").glob("*openblas*"):
            getattr(ctypes.CDLL(str(lib)), "scipy_openblas_set_num_threads64_",
                    lambda threads: None)(1)


def main(argv=None) -> int:
    # The pin holds for the whole process and outlasts this call, so an
    # in-process caller keeps one BLAS thread unless it set either variable.
    _pin_blas_threads()
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        apply_overrides(cfg, args.set)
        validate_config(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "eval":
            tasks = args.task or eval_task_list(cfg)
            return cmd_eval(cfg, tasks, args.out)
        if args.command == "extract":
            return cmd_extract(cfg, _collect_texts(args), args.dump_queries,
                               args.out)
        return cmd_dump_queries(cfg, args.level)
    except SpanlinkError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cli.IOError: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
