"""The four workloads of the spanlink benchmark and the loop that runs them.

Every workload is a closed loop with one client in one process: the next
call starts when the previous one has returned.  Inputs are generated here
from the workload seed; the program only sees texts, schemas, records and
the files written from them.

Each workload has three operations:

* ``setup``  -- make inputs, vocabulary and model, and write the files the
  command line needs.  Timed as ``setup_s``.
* ``job``    -- the batch use of the system: train to F1 = 1.0 on
  train-nerre, one offline pass over all texts elsewhere.  Gives
  ``texts_per_s``, the median rate of its epochs or passes.
* ``online`` -- one ``engine.extract`` call per text, each timed on its own.
  Gives ``text_ms_p50`` and ``text_ms_p90``.

Output checks run outside the timed region and fail the run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from spanlink import cli, engine
from spanlink.config import Config, format_config
from spanlink.data import Example, PathElement, save_dataset
from spanlink.decoding import decode_ie, oracle_decode
from spanlink.errors import SpanlinkError
from spanlink.metrics import corpus_f1, metric_for_task
from spanlink.model import (
    EncoderParams,
    ScoringHead,
    encode,
    save_checkpoint,
    score,
)
from spanlink.schema import LevelMode, parse_schema
from spanlink.tokenizer import build_vocab, save_vocab, tokenize

from report import END_TO_END, end_to_end
from tracing import PER_LAYER, Tracer, layer_metrics

SETUP_REPEATS = 3


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *stream]))


def _pick(rng, items):
    return items[int(rng.integers(len(items)))]


def _element(label: str, text: str, span) -> PathElement:
    start, end = span
    return PathElement(label, start, end, text[start:end])


def _word_spans(words) -> list[tuple[int, int]]:
    spans, pos = [], 0
    for w in words:
        spans.append((pos, pos + len(w)))
        pos += len(w) + 1
    return spans


# ------------------------------------------------------------- inputs ---

PEOPLE = ["abara", "bexley", "corvin", "dunmore", "elstad",
          "farrow", "gaskell", "hollis", "ibarra", "jessop"]
ORGS = ["arbor", "brightwell", "castellan", "dovecote", "emberly",
        "fenwick", "gallant", "harbinger", "inglenook", "juniper"]
NER_RE_SCHEMA = ('{"person": {"work for ( organization )": null}, '
                 '"organization": null}')
NER_RE_LABELS = ["person", "organization", "work for ( organization )"]
NER_RE_WORDS = PEOPLE + ORGS + ["works", "for", "hired", "met", "."]


def ner_re_examples(rng, n: int) -> list[Example]:
    """Sentences from three templates: employment in two phrasings, and a
    meeting of two people (entities only).  The templates take equal shares
    in a shuffled order, so the work per text does not drift with the
    seed."""
    out = []
    for kind in rng.permutation(np.arange(n) % 3):
        p, o = _pick(rng, PEOPLE), _pick(rng, ORGS)
        if kind == 0:
            text = f"{p} works for {o} ."
        elif kind == 1:
            text = f"{o} hired {p} ."
        else:
            other = _pick(rng, [q for q in PEOPLE if q != p])
            text = f"{p} met {other} ."
        ps = text.index(p)
        person = PathElement("person", ps, ps + len(p), p)
        if kind < 2:
            os_ = text.index(o)
            paths = ((person, PathElement("work for ( organization )", os_,
                                          os_ + len(o), o)),
                     (PathElement("organization", os_, os_ + len(o), o),))
        else:
            qs = text.rindex(other)
            paths = ((person,),
                     (PathElement("person", qs, qs + len(other), other),))
        out.append(Example(text, paths))
    return out


FILLER = [a + b for a in ("ka", "lo", "mi", "nu", "pe", "ro", "si", "tu")
          for b in ("bar", "den", "fix", "gol", "han", "mut", "pel", "vor")]
POLARITIES = ["better ( opinion )", "different ( opinion )",
              "equal ( opinion )", "worse ( opinion )"]
_POLARITY_LEAVES = {p: None for p in POLARITIES}
# Comparative opinions: subject -> object -> aspect -> polarity, with the
# polarity leaves also reachable from every shorter prefix.
COQE_SCHEMA = json.dumps({
    "subject": {"object": {"aspect": _POLARITY_LEAVES, **_POLARITY_LEAVES},
                "aspect": _POLARITY_LEAVES, **_POLARITY_LEAVES},
    "object": {"aspect": _POLARITY_LEAVES, **_POLARITY_LEAVES},
})
SENTIMENTS = ["negative", "neutral", "positive"]
ASPECT_SCHEMA = json.dumps({"aspect": {s: None for s in SENTIMENTS}})


def coqe_example(rng, n_words: int, n_quintuples: int) -> Example:
    """Filler text with planted subject/object/aspect/opinion paths.  Later
    paths reuse an earlier subject (and then maybe its object) often, so
    deeper levels see several groups and several continuations per group."""
    words = [_pick(rng, FILLER) for _ in range(n_words)]
    text = " ".join(words)
    spans = _word_spans(words)
    free = [int(i) for i in rng.permutation(len(spans))]
    paths = []
    for _ in range(n_quintuples):
        if paths and rng.random() < 0.4:
            base = paths[int(rng.integers(len(paths)))]
            subj = base[0]
            obj = base[1] if rng.random() < 0.4 else _element(
                "object", text, spans[free.pop()])
        else:
            subj = _element("subject", text, spans[free.pop()])
            obj = _element("object", text, spans[free.pop()])
        aspect = _element("aspect", text, spans[free.pop()])
        opinion = _element(_pick(rng, POLARITIES), text, spans[free.pop()])
        paths.append((subj, obj, aspect, opinion))
    return Example(text, tuple(paths))


def aspect_example(rng, n_words: int, n_aspects: int) -> Example:
    """Filler text with planted aspects, each classified by one sentiment."""
    words = [_pick(rng, FILLER) for _ in range(n_words)]
    text = " ".join(words)
    spans = _word_spans(words)
    chosen = sorted(int(i) for i in rng.choice(len(spans), n_aspects,
                                               replace=False))
    paths = tuple(
        (_element("aspect", text, spans[i]),
         PathElement(_pick(rng, SENTIMENTS)))
        for i in chosen)
    return Example(text, paths, mode="cls_single")


def long_text(rng, n_words: int) -> str:
    return " ".join(_pick(rng, FILLER) for _ in range(n_words))


def _unique_texts(make, count: int) -> list:
    """``make(0) .. make(count - 1)`` with pairwise different texts, which
    lets a scorer find an example by its query's source text."""
    out, seen = [], set()
    while len(out) < count:
        item = make(len(out))
        if item.text not in seen:
            seen.add(item.text)
            out.append(item)
    return out


# ---------------------------------------------------------- bookkeeping ---

@dataclass
class Tally:
    """Attempts, failures by error code, and the measured samples: the rate
    of each timed piece of batch work, and the time of each text, one list
    per per-text pass."""

    attempted: int = 0
    failures: dict = field(default_factory=dict)
    job_rates: list = field(default_factory=list)
    passes: list = field(default_factory=lambda: [[]])

    def fail(self, code: str, count: int = 1) -> None:
        self.failures[code] = self.failures.get(code, 0) + count

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def timed_extract(schema, vocab, scorer, examples, cfg, tally: Tally):
    """One ``engine.extract`` call per text, each timed alone.  A text that
    raises a SpanlinkError is counted and yields no prediction."""
    predictions = []
    for ex in examples:
        tally.attempted += 1
        start = perf_counter()
        try:
            paths = engine.extract(schema, vocab, scorer, ex.text, cfg)
        except SpanlinkError as exc:
            tally.fail(exc.code)
            predictions.append(None)
            continue
        tally.passes[-1].append((perf_counter() - start) * 1e3)
        predictions.append(paths)
    return predictions


def f1_of(examples, predictions, task: str) -> float:
    pairs = [(ex.paths, [p.elements for p in preds])
             for ex, preds in zip(examples, predictions) if preds is not None]
    return corpus_f1(pairs, metric_for_task(task), task=task).f1


def shard(examples, count: int) -> list[list]:
    """Split examples into ``count`` interleaved shards of near-equal size
    and mix."""
    return [examples[k::count] for k in range(count)]


def write_cli_inputs(workdir: str, cfg: Config, schema_text: str, vocab,
                     shards, enc: EncoderParams, head: ScoringHead) -> list:
    """Write schema, vocabulary and checkpoint, plus a dataset file and a
    config for ``spanlink eval`` per shard; returns the config paths."""
    shared = {name: os.path.join(workdir, name)
              for name in ("schema.json", "vocab.tsv", "model.ckpt")}
    with open(shared["schema.json"], "w", encoding="utf-8") as fh:
        fh.write(schema_text)
    save_vocab(vocab, shared["vocab.tsv"])
    save_checkpoint(shared["model.ckpt"], enc, head)
    cfg_paths = []
    for k, examples in enumerate(shards):
        data = os.path.join(workdir, f"data-{k}.jsonl")
        save_dataset(examples, data)
        file_cfg = dataclasses.replace(
            cfg, schema=shared["schema.json"], vocab=shared["vocab.tsv"],
            data=data, checkpoint=shared["model.ckpt"])
        cfg_paths.append(os.path.join(workdir, f"run-{k}.cfg"))
        with open(cfg_paths[-1], "w", encoding="utf-8") as fh:
            fh.write(format_config(file_cfg))
    return cfg_paths


def cli_eval(cfg_path: str, tasks, report_path: str, n_texts: int,
             tally: Tally) -> dict:
    """``spanlink eval`` over the whole data file, timed as one batch job.
    Returns F1 per task; a failed run counts every text as failed."""
    argv = ["eval", "--config", cfg_path, "--out", report_path]
    for task in tasks:
        argv += ["--task", task]
    tally.attempted += n_texts
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    seconds = perf_counter() - start
    if status != 0:
        tally.fail(err.getvalue().split(":", 1)[0].strip(), n_texts)
        return {}
    tally.job_rates.append(n_texts / seconds)
    with open(report_path, encoding="utf-8") as fh:
        return {r["task"]: r["f1"] for r in map(json.loads, fh)}


# ------------------------------------------------------------ workloads ---

def a5_config(**overrides) -> Config:
    """The A5 training recipe: d=64, 2 layers, 4 heads, budgets 32/64,
    lr 2e-3, stop at entity and relation-strict F1 = 1.0."""
    base = dict(max_prompt_len=32, max_len=64, d=64, d_head=64, layers=2,
                heads=4, lr=2e-3, epochs=200, seed=0, early_stop_f1=1.0,
                eval_tasks="entity,relation-strict")
    base.update(overrides)
    return Config(**base)


def _int_seed(seed: int, *stream: int) -> int:
    return int(np.random.SeedSequence([seed, *stream]).generate_state(1)[0])


@dataclass
class TrainNerre:
    """Teacher-forced training by the A5 recipe until F1 = 1.0.  Each round
    trains a fresh corpus drawn from the seed, then times extraction of 600
    held-out sentences with the model it trained.  Epochs to converge vary
    from corpus to corpus (4 to 7), so the rate reported is optimizer steps
    per second of each epoch (one step per text), which does not depend on
    the epoch count."""

    sentences: int = 50
    heldout_texts: int = 600
    name = "train-nerre"
    shards = 1

    def setup(self, seed: int, workdir: str):
        self.seed = seed
        self.schema = parse_schema(NER_RE_SCHEMA)
        self.vocab = build_vocab([" ".join(NER_RE_WORDS)], NER_RE_LABELS)
        self.examples = ner_re_examples(_rng(seed, 0, 0), self.sentences)
        self.heldout = ner_re_examples(_rng(seed, 1), self.heldout_texts)
        self.finals = []

    def job(self, tally: Tally, r: int) -> None:
        # Round r trains corpus r; corpus 0 is made in setup.
        self.cfg = cfg = a5_config(seed=_int_seed(self.seed, r))
        examples = (self.examples if r == 0 else
                    ner_re_examples(_rng(self.seed, 0, r), self.sentences))
        tally.attempted += len(examples)
        # train() calls log_fn after each epoch, self-evaluation included;
        # each epoch is one optimizer step per text.
        ends = [perf_counter()]
        try:
            result = engine.train(examples, self.schema, self.vocab, cfg,
                                  log_fn=lambda entry: ends.append(perf_counter()))
        except SpanlinkError as exc:
            tally.fail(exc.code, len(examples))
            self.scorer = None
            return
        tally.job_rates += [len(examples) / (b - a)
                            for a, b in zip(ends, ends[1:])]
        self.finals.append(result.log[-1])
        self.scorer = engine.ModelScorer(result.enc, result.head)

    def online(self, tally: Tally, r: int) -> None:
        if self.scorer is not None:
            timed_extract(self.schema, self.vocab, self.scorer, self.heldout,
                          self.cfg, tally)

    def check(self) -> tuple[float, list[str]]:
        problems = [
            f"round {r}: {task} F1 {final.get(task)} after {final['epoch']} "
            f"epochs, want 1.0"
            for r, final in enumerate(self.finals)
            for task in ("entity", "relation-strict") if final.get(task) != 1.0]
        f1 = min((min(f["entity"], f["relation-strict"]) for f in self.finals),
                 default=0.0)
        return f1, problems


@dataclass
class ExtractShort:
    """Thousands of tiny queries: a model trained in setup by the A5 recipe
    extracts from held-out sentences of another seed (2 queries per text,
    about 16 tokens each).  The sentences are split into shards of 250;
    round r works on shard r mod 4."""

    train_sentences: int = 50
    heldout: int = 1000
    # Held-out F1 of the 50-sentence model ranged 0.90-1.0 over 18 seeds (a
    # name missing from a training corpus stays untrained); a broken model
    # or decoder scores near 0.
    f1_floor: float = 0.8
    name = "extract-short"
    shards = 4
    tasks = ("entity", "relation-strict")

    def setup(self, seed: int, workdir: str):
        self.schema = parse_schema(NER_RE_SCHEMA)
        self.vocab = build_vocab([" ".join(NER_RE_WORDS)], NER_RE_LABELS)
        self.cfg = a5_config(seed=_int_seed(seed, 0))
        train_set = ner_re_examples(_rng(seed, 0), self.train_sentences)
        result = engine.train(train_set, self.schema, self.vocab, self.cfg)
        self.scorer = engine.ModelScorer(result.enc, result.head)
        self.parts = shard(ner_re_examples(_rng(seed, 1), self.heldout),
                           self.shards)
        self.cfg_paths = write_cli_inputs(workdir, self.cfg, NER_RE_SCHEMA,
                                          self.vocab, self.parts,
                                          result.enc, result.head)
        self.report = os.path.join(workdir, "report.jsonl")
        self.f1s = []
        self.predictions = {}

    def job(self, tally: Tally, r: int) -> None:
        k = r % self.shards
        reports = cli_eval(self.cfg_paths[k], self.tasks, self.report,
                           len(self.parts[k]), tally)
        self.f1s += [reports[t] for t in self.tasks if t in reports]

    def online(self, tally: Tally, r: int) -> None:
        k = r % self.shards
        self.predictions[k] = timed_extract(self.schema, self.vocab,
                                            self.scorer, self.parts[k],
                                            self.cfg, tally)

    def check(self) -> tuple[float, list[str]]:
        seen = sorted(self.predictions)
        examples = [ex for k in seen for ex in self.parts[k]]
        preds = [p for k in seen for p in self.predictions[k]]
        f1 = min(self.f1s + [f1_of(examples, preds, t) for t in self.tasks])
        if f1 < self.f1_floor:
            return f1, [f"held-out F1 {f1:.4f} below floor {self.f1_floor}"]
        return f1, []


LONG_TYPES = [f"kind{i:02d}" for i in range(20)]


@dataclass
class ExtractLong:
    """Paper-sized queries: a depth-1 schema of 20 types over 200-word texts
    (n = 244 tokens) with seeded d=128, 4-layer weights.  Model compute
    dominates; at delta_ie = 1.0 the untrained scores decode nothing, so
    decoding stays bounded.  The texts are split into shards of 25; round r
    works on shard r mod 4."""

    texts: int = 100
    words: int = 200
    model: dict = field(default_factory=lambda: dict(
        d=128, d_head=64, layers=4, heads=4))
    name = "extract-long"
    shards = 4
    sample_queries = 2

    # Scores of the model must match a float64 recomputation of the same
    # weights within this share of the largest score.
    Z_RTOL = 1e-3

    def setup(self, seed: int, workdir: str):
        self.schema_text = json.dumps({t: None for t in LONG_TYPES})
        self.schema = parse_schema(self.schema_text)
        rng = _rng(seed, 0)
        self.examples = [Example(long_text(rng, self.words), ())
                         for _ in range(self.texts)]
        self.vocab = build_vocab([" ".join(FILLER)], LONG_TYPES)
        self.cfg = Config(max_prompt_len=48, max_len=self.words + 56,
                          delta_ie=1.0, seed=seed, eval_tasks="entity",
                          **self.model)
        self.enc, self.head = engine.build_model(self.cfg, len(self.vocab),
                                                 _rng(seed, 1))
        self.scorer = engine.ModelScorer(self.enc, self.head)
        self.parts = shard(self.examples, self.shards)
        self.cfg_paths = write_cli_inputs(workdir, self.cfg, self.schema_text,
                                          self.vocab, self.parts,
                                          self.enc, self.head)
        self.report = os.path.join(workdir, "report.jsonl")

    def job(self, tally: Tally, r: int) -> None:
        k = r % self.shards
        cli_eval(self.cfg_paths[k], ("entity",), self.report,
                 len(self.parts[k]), tally)

    def online(self, tally: Tally, r: int) -> None:
        timed_extract(self.schema, self.vocab, self.scorer,
                      self.parts[r % self.shards], self.cfg, tally)

    def check(self) -> tuple[None, list[str]]:
        enc64 = EncoderParams(
            config=dataclasses.replace(self.enc.config, dtype="float64"),
            params={k: v.astype(np.float64)
                    for k, v in self.enc.params.items()})
        head64 = ScoringHead(self.head.d_in, self.head.d_head, {
            k: v.astype(np.float64) for k, v in self.head.params.items()})
        problems = []
        for ex in self.examples[:self.sample_queries]:
            plan = engine.plan_level(self.schema, [()],
                                     tokenize(self.vocab, ex.text), ex.text,
                                     self.vocab, self.cfg)
            for query in plan.queries:
                z = self.scorer(query)
                z64 = score(head64, encode(enc64, query), query)
                valid = query.scoring_mask
                err = float(np.abs(z[valid] - z64[valid]).max())
                scale = float(np.abs(z64[valid]).max())
                if not err <= self.Z_RTOL * scale:
                    problems.append(f"Z differs from float64 by {err:.3g} "
                                    f"(largest score {scale:.3g})")
                # The configured threshold decodes nothing from untrained
                # scores; the top 0.1% of cells gives the two decoders spans
                # to disagree on.
                busy = float(np.quantile(z[valid], 0.999))
                for delta in (self.cfg.delta_ie, busy):
                    if decode_ie(z, query, delta) != oracle_decode(z, query,
                                                                   delta):
                        problems.append(f"decode_ie != oracle_decode at "
                                        f"delta {delta:.4g}")
        return None, problems


@dataclass
class OracleDeep:
    """No model: ``GoldScorer`` scores from planted annotations.  Three texts
    in four walk the depth-4 comparative-opinion schema under a prompt
    budget that splits deeper levels; one in four walks aspect -> sentiment
    with a single-label classification level.  Query building, splitting,
    decoding and merging are the whole cost.  Round r works on shard r mod 2
    of both kinds of text."""

    coqe_texts: int = 300
    aspect_texts: int = 100
    name = "oracle-deep"
    shards = 2

    def setup(self, seed: int, workdir: str):
        rng = _rng(seed, 0)
        # Text lengths and path counts cycle rather than being drawn, so
        # every seed gets the same mix of small and large texts.
        coqe = _unique_texts(lambda i: coqe_example(rng, 30 + i % 11, 2 + i % 3),
                             self.coqe_texts)
        aspects = _unique_texts(lambda i: aspect_example(rng, 20 + i % 11,
                                                         2 + i % 2),
                                self.aspect_texts)
        labels = ["subject", "object", "aspect", *POLARITIES, *SENTIMENTS]
        self.vocab = build_vocab([" ".join(FILLER)], labels)
        kinds = [
            (parse_schema(COQE_SCHEMA), coqe,
             Config(max_prompt_len=48, max_len=96, seed=seed)),
            (parse_schema(ASPECT_SCHEMA, level_modes=[
                LevelMode.EXTRACT, LevelMode.CLASSIFY_SINGLE]), aspects,
             Config(max_prompt_len=24, max_len=64, seed=seed,
                    level_modes="extract,cls_single")),
        ]
        self.gold = {ex.text: engine.GoldScorer(ex.paths)
                     for _, examples, _ in kinds for ex in examples}
        # parts[k]: (schema, texts, config) of each kind in shard k
        self.parts = [[(schema, shard(examples, self.shards)[k], cfg)
                       for schema, examples, cfg in kinds]
                      for k in range(self.shards)]
        self.f1s = []
        self.predictions = {}

    def score_by_text(self, query):
        return self.gold[query.source](query)

    def job(self, tally: Tally, r: int) -> None:
        texts, seconds = 0, 0.0
        for schema, examples, cfg in self.parts[r % self.shards]:
            tally.attempted += len(examples)
            start = perf_counter()
            try:
                reports = engine.evaluate(examples, schema, self.vocab,
                                          self.score_by_text, cfg, ["path"])
            except SpanlinkError as exc:
                tally.fail(exc.code, len(examples))
                continue
            seconds += perf_counter() - start
            texts += len(examples)
            self.f1s.append(reports["path"].f1)
        if texts:
            tally.job_rates.append(texts / seconds)

    def online(self, tally: Tally, r: int) -> None:
        k = r % self.shards
        self.predictions[k] = [
            timed_extract(schema, self.vocab, self.score_by_text, examples,
                          cfg, tally)
            for schema, examples, cfg in self.parts[k]]

    def check(self) -> tuple[float, list[str]]:
        problems = []
        for k, kind_preds in sorted(self.predictions.items()):
            for (_, examples, _), preds in zip(self.parts[k], kind_preds):
                self.f1s.append(f1_of(examples, preds, "path"))
                problems += [
                    f"{ex.text[:24]!r}...: {len({p.elements for p in got})} "
                    f"paths returned, {len(ex.paths)} planted"
                    for ex, got in zip(examples, preds)
                    if got is not None and not _returns_planted(ex, got)]
        f1 = min(self.f1s)
        if f1 != 1.0:
            problems.append(f"path F1 {f1} under the oracle, want 1.0")
        return f1, problems[:5]


def _returns_planted(example: Example, got) -> bool:
    return ({p.elements for p in got} == set(example.paths)
            and all(p.terminal for p in got))


WORKLOADS = {w.name: w for w in (TrainNerre, ExtractShort, ExtractLong,
                                 OracleDeep)}


# -------------------------------------------------------------- runner ---

def median_setup(workload, seed: int, workdir: str) -> float:
    """Median seconds of repeated set-ups: at least ``SETUP_REPEATS``, and
    more while they add up to under a second, so that a cheap set-up is
    timed as steadily as a costly one.  The last set-up stays in place."""
    times = []
    while (len(times) < SETUP_REPEATS
           or (sum(times) < 1.0 and len(times) < 200)):
        start = perf_counter()
        workload.setup(seed, workdir)
        times.append(perf_counter() - start)
    return statistics.median(times)


def measure(workload, seed: int, seconds: float, trace: bool,
            out_dir: str) -> dict:
    """Set up, run, check.  Untraced: rounds until ``seconds`` have passed,
    end-to-end metrics.  Traced: one round per shard untraced, then the same
    rounds under the tracer, per-layer metrics; the work is fixed, so counts
    repeat exactly for a seed."""
    workdir = os.path.join(out_dir, "work", workload.name)
    os.makedirs(workdir, exist_ok=True)
    setup_s = median_setup(workload, seed, workdir)
    tally = Tally()
    if trace:
        def every_shard():
            start = perf_counter()
            for r in range(workload.shards):
                workload.job(tally, r)
                workload.online(tally, r)
            return (perf_counter() - start) * 1e3

        untraced_ms = every_shard()
        with Tracer() as tracer:
            wall_ms = every_shard()
        values = layer_metrics(tracer, wall_ms, untraced_ms)
        table = PER_LAYER
        spans = os.path.join(out_dir, f"spans-{workload.name}-seed{seed}.jsonl")
        tracer.write_spans(spans)
        rounds = 2 * workload.shards
    else:
        # Batch job and per-text pass alternate until time is up; the
        # first round always does both.
        rounds, start = 0, perf_counter()
        while True:
            workload.job(tally, rounds)
            rounds += 1
            if rounds > 1 and perf_counter() - start >= seconds:
                break
            tally.passes.append([])
            workload.online(tally, rounds - 1)
            if perf_counter() - start >= seconds:
                break
        values = end_to_end(tally, setup_s)
        table = END_TO_END
    f1, problems = workload.check()
    report = [
        f"{workload.name}: seed {seed}, {rounds} rounds, "
        f"{sum(map(len, tally.passes))} per-text samples in "
        f"{sum(1 for p in tally.passes if p)} passes",
        "f1 " + ("not measured (untrained weights)" if f1 is None
                 else f"{f1:.4f}"),
        f"failed_frac {tally.failed / max(1, tally.attempted):.6f} "
        f"({tally.failed} of {tally.attempted} attempted) "
        f"{json.dumps(tally.failures, sort_keys=True)}",
    ]
    report += [f"  {name:<26}{values[name]:>14.6g} {unit}"
               for name, unit, _ in table]
    if trace:
        report.append(f"spans written to {spans}")
    report += [f"CHECK FAILED: {p}" for p in problems]
    return {
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _ in table},
        "report": report,
        "detail": {"failures": tally.failures, "f1": f1, "rounds": rounds,
                   "problems": problems},
    }
