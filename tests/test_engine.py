"""Recursion engine: level planning, scorers, merging, teacher forcing,
and the train/extract/evaluate loop."""

import json

import numpy as np
import pytest

from conftest import (
    NER_RE_SCHEMA,
    TYPE_LABELS,
    ZRecorder,
    flat_vocab,
    ner_re_corpus,
    ner_re_vocab,
    query_of,
    random_ie_case,
    reference_masks,
    small_train_config,
)
from spanlink.config import Config
from spanlink.data import Example, PathElement, path_key
from spanlink.engine import (
    ORACLE_HI,
    ORACLE_LO,
    WINDOW_TOKENS,
    GoldScorer,
    LevelPlan,
    ModelScorer,
    RecordingScorer,
    build_model,
    evaluate,
    extract,
    extraction_record,
    gold_prefixes,
    iter_extract,
    merge_results,
    plan_level,
    teacher_forced_queries,
    train,
)
from spanlink.errors import Diverged
from spanlink.model import backward_batch
from spanlink.optim import AdamW
from spanlink.query import PrefixGroup
from spanlink.schema import LevelMode, parse_schema
from spanlink.tokenizer import build_vocab, tokenize


def _el(label, start, end, text):
    return PathElement(label, start, end, text[start:end])


WORK_FOR = "work for ( organization )"


@pytest.fixture(scope="module")
def corpus():
    examples = ner_re_corpus(seed=3, n=12)
    return examples, ner_re_vocab(examples), parse_schema(NER_RE_SCHEMA)


# ------------------------------------------------------- gold navigation ---

def _gold_continuations(paths, prefix, text, types):
    """The gold elements the oracle finds one level below ``prefix`` when a
    query asks about ``types`` under it."""
    query = query_of(flat_vocab(), text, [PrefixGroup(prefix, types)])
    return GoldScorer(paths)._gold_by_group(query).get(0, [])


def test_gold_continuations_dedup_first_occurrence():
    text = "rivera works for acme and acme"
    person = _el("person", 0, 6, text)
    org1 = _el("organization", 17, 21, text)
    org2 = _el("organization", 26, 30, text)
    paths = ((person, org1), (person, org2), (person, org1))
    got = _gold_continuations(paths, (person,), text, ("organization",))
    assert got == [org1, org2]


def test_gold_continuations_requires_matching_prefix():
    text = "tanaka met osei"
    a = _el("person", 0, 6, text)
    b = _el("person", 11, 15, text)
    rel = PathElement(WORK_FOR, 11, 15, text[11:15])
    paths = ((a, rel), (b,))
    assert _gold_continuations(paths, (b,), text, (WORK_FOR,)) == []
    assert _gold_continuations(paths, (), text, ("person",)) == [a, b]


def test_gold_prefixes_level_one_is_empty_prefix(corpus):
    examples, _, schema = corpus
    assert gold_prefixes(examples[0].paths, schema, 1) == [()]


def test_gold_prefixes_skips_leaf_nodes(corpus):
    _, _, schema = corpus
    text = "rivera works for acme ."
    person = _el("person", 0, 6, text)
    rel = PathElement(WORK_FOR, 17, 21, text[17:21])
    org = _el("organization", 17, 21, text)
    # organization is a leaf, so only the person prefix survives to level 2
    got = gold_prefixes(((person, rel), (org,)), schema, 2)
    assert got == [(person,)]


def test_gold_prefixes_record_order_and_dedup(corpus):
    _, _, schema = corpus
    text = "zhou met kaur and zhou"
    z = _el("person", 0, 4, text)
    k = _el("person", 9, 13, text)
    got = gold_prefixes(((z,), (k,), (z,)), schema, 2)
    assert got == [(z,), (k,)]
    assert gold_prefixes(((z,), (k,)), schema, 3) == []


# ----------------------------------------------------------- plan_level ---

def test_plan_level_dedups_prefixes_and_sorts_candidates(corpus):
    _, vocab, schema = corpus
    text = "moreau met petrov ."
    toks = tokenize(vocab, text)
    m = _el("person", 0, 6, text)
    cfg = small_train_config()
    plan = plan_level(schema, [(m,), (m,)], toks, text, vocab, cfg)
    assert len(plan.groups) == 1
    assert plan.level == 2
    assert plan.mode is LevelMode.EXTRACT
    assert plan.groups[0].path == (m,)
    # schema lists "work for ( organization )" under person; root ordering
    # never leaks into candidate order, which is lexicographic
    root = plan_level(schema, [()], toks, text, vocab, cfg)
    assert root.groups[0].types == ("organization", "person")
    assert root.level == 1


def test_plan_level_query_count_respects_budget(corpus):
    _, vocab, schema = corpus
    text = "almeida works for stark ."
    toks = tokenize(vocab, text)
    roomy = plan_level(schema, [()], toks, text, vocab,
                       small_train_config())
    assert len(roomy.queries) == 1
    tight = plan_level(schema, [()], toks, text, vocab,
                       small_train_config(max_prompt_len=5, max_len=32))
    assert len(tight.queries) == 2


# -------------------------------------------------------------- scorers ---

def test_gold_scorer_round_trips_annotations(corpus):
    _, vocab, schema = corpus
    text = "lindqvist works for hooli ."
    person = _el("person", 0, 9, text)
    rel = PathElement(WORK_FOR, 20, 25, text[20:25])
    org = _el("organization", 20, 25, text)
    gold = ((person, rel), (org,))
    got = extract(schema, vocab, GoldScorer(gold), text, small_train_config())
    assert {(p.elements, p.terminal) for p in got} == {
        ((person, rel), True),
        ((org,), True),
    }


def test_gold_scorer_ignores_labels_outside_group_types():
    vocab = flat_vocab()
    text = "ant bee cat"
    group = PrefixGroup((), ("alpha", "beta"))
    query = query_of(vocab, text, [group])
    scorer = GoldScorer(((_el("gamma", 0, 3, text),),))
    assert scorer.target_for(query).sum() == 0


def test_gold_scorer_matrix_values():
    vocab = flat_vocab()
    text = "ant bee"
    query = query_of(vocab, text, [PrefixGroup((), ("alpha",))])
    scorer = GoldScorer(((_el("alpha", 0, 3, text),),))
    z = scorer(query)
    valid = query.scoring_mask
    assert np.all(np.isneginf(z[~valid]))
    assert set(np.unique(z[valid]).tolist()) == {-10.0, 10.0}
    assert (z[valid] == 10.0).sum() == 3


def test_recording_scorer_captures_pairs_in_order(corpus):
    _, vocab, schema = corpus
    text = "okafor works for wayne ."
    person = _el("person", 0, 6, text)
    rel = PathElement(WORK_FOR, 17, 22, text[17:22])
    gold = ((person, rel), (_el("organization", 17, 22, text),))
    rec = ZRecorder(GoldScorer(gold))
    extract(schema, vocab, rec, text, small_train_config())
    assert len(rec.queries) == len(rec.matrices) == 2  # one per level
    assert rec.queries[0].groups[0].path == ()
    assert rec.queries[1].groups[0].path == (person,)
    for q, z in zip(rec.queries, rec.matrices):
        assert z.shape == (len(q), len(q))


# -------------------------------------------------------- merge_results ---

def _cls_plan(mode, n_queries=2):
    vocab = flat_vocab()
    text = "ant bee cat"
    group = PrefixGroup((), ("alpha", "beta"))
    query = query_of(vocab, text, [group], mode=mode)
    return LevelPlan(level=1, mode=mode, groups=(group,),
                     queries=[query] * n_queries)


def test_merge_extract_unions_and_sorts():
    vocab = flat_vocab()
    text = "ant bee cat"
    group = PrefixGroup((), ("alpha", "beta"))
    query = query_of(vocab, text, [group])
    plan = LevelPlan(level=1, mode=LevelMode.EXTRACT, groups=(group,),
                     queries=[query, query])
    from spanlink.decoding import TypedSpan
    s1 = TypedSpan(group=0, label="beta", i=0, j=0, start=4, end=7,
                   surface="bee")
    s2 = TypedSpan(group=0, label="alpha", i=0, j=0, start=0, end=3,
                   surface="ant")
    merged = merge_results(plan, [[s1], [s2, s1]], delta_cls=0.9)
    got = merged[path_key(())]
    assert [(e.label, e.start, e.end) for e in got] == [
        ("alpha", 0, 3), ("beta", 4, 7)]


def test_merge_cls_single_multiplies_across_splits():
    plan = _cls_plan(LevelMode.CLASSIFY_SINGLE)
    # alpha: 0.9 * 0.8 = 0.72 loses to beta's single 0.73
    outputs = [[(0, "alpha", 0.9)], [(0, "alpha", 0.8), (0, "beta", 0.73)]]
    merged = merge_results(plan, outputs, delta_cls=0.9)
    assert merged[path_key(())] == [PathElement("beta")]


def test_merge_cls_single_tie_prefers_candidate_order():
    plan = _cls_plan(LevelMode.CLASSIFY_SINGLE)
    outputs = [[(0, "beta", 0.8)], [(0, "alpha", 0.8)]]
    merged = merge_results(plan, outputs, delta_cls=0.9)
    assert merged[path_key(())] == [PathElement("alpha")]


def test_merge_cls_multi_unions_in_candidate_order():
    from spanlink.decoding import ClsDecision
    plan = _cls_plan(LevelMode.CLASSIFY_MULTI)
    outputs = [
        [ClsDecision(group=0, labels=("beta",))],
        [ClsDecision(group=0, labels=("beta", "alpha"))],
    ]
    merged = merge_results(plan, outputs, delta_cls=0.9)
    assert merged[path_key(())] == [PathElement("alpha"), PathElement("beta")]


# ------------------------------------------------------ teacher forcing ---

def test_teacher_forced_covers_levels_with_gold(corpus):
    examples, vocab, schema = corpus
    cfg = small_train_config()
    ex = next(e for e in examples if any(len(p) == 2 for p in e.paths))
    pairs = teacher_forced_queries(ex, schema, vocab, cfg)
    assert len(pairs) == 2
    (q1, t1), (q2, t2) = pairs
    assert q1.groups[0].path == ()
    assert len(q2.groups[0].path) == 1
    for q, cells in pairs:
        # the positive cells of the target GoldScorer.target_for builds
        assert cells.dtype == np.int32
        target = GoldScorer(ex.paths).target_for(q)
        assert np.array_equal(np.unique(cells), np.flatnonzero(target))
        assert cells.size > 0


def test_teacher_forced_keeps_zero_target_levels(corpus):
    examples, vocab, schema = corpus
    cfg = small_train_config()
    # "met" sentences have two persons and no relation: level 2 still gets a
    # query, whose all-zero target teaches the model to stop
    ex = next(e for e in examples if all(len(p) == 1 for p in e.paths)
              and len(e.paths) == 2)
    pairs = teacher_forced_queries(ex, schema, vocab, cfg)
    assert len(pairs) == 2
    assert pairs[0][1].size > 0
    assert pairs[1][1].size == 0
    assert len(pairs[1][0].groups) == 2


# ----------------------------------------------------- extract and eval ---

def test_extract_reports_dead_end_prefix_as_nonterminal(corpus):
    _, vocab, schema = corpus
    text = "petrov met zhou ."
    a = _el("person", 0, 6, text)
    b = _el("person", 11, 15, text)
    got = extract(schema, vocab, GoldScorer(((a,), (b,))), text,
                  small_train_config())
    assert {(p.elements, p.terminal) for p in got} == {
        ((a,), False), ((b,), False)}


def test_extract_output_is_sorted(corpus):
    _, vocab, schema = corpus
    text = "zhou met kaur ."
    z = _el("person", 0, 4, text)
    k = _el("person", 9, 13, text)
    got = extract(schema, vocab, GoldScorer(((k,), (z,))), text,
                  small_train_config())
    assert [p.elements for p in got] == [(z,), (k,)]


def test_iter_extract_preserves_order_and_matches_serial(corpus):
    examples, vocab, schema = corpus
    texts = [ex.text for ex in examples[:6]]
    rng = np.random.default_rng(7)
    enc, head = build_model(small_train_config(), len(vocab), rng)
    scorer = ModelScorer(enc, head)  # pure function of the query
    cfg = small_train_config()
    batched = list(iter_extract(texts, schema, vocab, scorer, cfg))
    assert batched == [extract(schema, vocab, scorer, t, cfg) for t in texts]
    assert len(batched) == len(texts)


def test_many_of_no_queries_is_empty(corpus):
    """An empty batch scores to an empty list through a model, a recorder
    over a model, and a plain function, as ``_many_of`` adapts it."""
    _, vocab, _ = corpus
    enc, head = build_model(small_train_config(), len(vocab),
                            np.random.default_rng(11))
    model = ModelScorer(enc, head)
    recorder = RecordingScorer(model)
    assert model.many([]) == []
    assert recorder.many([]) == [] and recorder.queries == []
    assert RecordingScorer(lambda query: model(query)).many([]) == []


@pytest.fixture(scope="module")
def a5_scorer():
    """The A5 recipe's model, trained to F1 = 1.0 on 50 sentences."""
    examples = ner_re_corpus(seed=0, n=50)
    vocab = ner_re_vocab(examples)
    cfg = small_train_config(d=64, d_head=64, layers=2, heads=4, epochs=200,
                             early_stop_f1=1.0,
                             eval_tasks="entity,relation-strict")
    result = train(examples, parse_schema(NER_RE_SCHEMA), vocab, cfg)
    assert result.log[-1]["relation-strict"] == 1.0
    return ModelScorer(result.enc, result.head), vocab, cfg


class _CountingScorer(ModelScorer):
    def __init__(self, inner):
        super().__init__(inner.enc, inner.head)
        self.batches = []

    def many(self, queries):
        self.batches.append(len(queries))
        return super().many(queries)


def test_iter_extract_batched_equals_per_text_with_trained_model(a5_scorer):
    scorer, vocab, cfg = a5_scorer
    schema = parse_schema(NER_RE_SCHEMA)
    texts = [ex.text for ex in ner_re_corpus(seed=9, n=WINDOW_TOKENS // 2)]
    assert sum(len(tokenize(vocab, t)) for t in texts) > 2 * WINDOW_TOKENS
    counting = _CountingScorer(scorer)
    batched = list(iter_extract(texts, schema, vocab, counting, cfg))
    assert batched == [extract(schema, vocab, scorer, t, cfg) for t in texts]

    def one_query_per_pass(query):  # no ``many``: the unbatched reference
        return scorer(query)

    assert batched == list(iter_extract(texts, schema, vocab,
                                        one_query_per_pass, cfg))
    # at least three windows of two levels each, several chunks per level
    assert len(counting.batches) > 3 * 2 * 2
    assert max(counting.batches) > 1
    # the model decodes relations, so the walk really went two levels deep
    assert any(len(p.elements) == 2 for paths in batched for p in paths)


def test_every_scorer_sees_the_walk_order(corpus):
    """A plain function and a scorer with ``many`` are walked the same way:
    equal paths, and the same queries in the same order, level by level
    across the window rather than text by text, and a ``RecordingScorer``
    over either keeps those queries in that order."""
    examples, vocab, schema = corpus
    chosen = examples[:6]
    texts = [ex.text for ex in chosen]
    gold = {ex.text: GoldScorer(ex.paths) for ex in chosen}
    cfg = small_train_config()
    plain_seen, many_seen = [], []

    def plain(query):
        plain_seen.append(query)
        return gold[query.source](query)

    class Batched:
        def many(self, queries):
            many_seen.extend(queries)
            return [gold[q.source](q) for q in queries]

    got = list(iter_extract(texts, schema, vocab, plain, cfg))
    assert got == list(iter_extract(texts, schema, vocab, Batched(), cfg))
    assert got == [extract(schema, vocab, plain, text, cfg) for text in texts]
    walk = plain_seen[:len(many_seen)]
    assert [(q.source, q.groups) for q in walk] == \
        [(q.source, q.groups) for q in many_seen]
    # one window: every text's level-1 query before any level-2 query
    levels = [len(q.groups[0].path) + 1 for q in walk]
    assert levels == sorted(levels) and levels.count(1) == len(texts)
    assert len(levels) > len(texts)

    recorder = RecordingScorer(plain)
    assert list(iter_extract(texts, schema, vocab, recorder, cfg)) == got
    assert [(q.source, q.groups) for q in recorder.queries] == \
        [(q.source, q.groups) for q in many_seen]


def test_iter_extract_gold_closure(corpus):
    examples, vocab, schema = corpus
    for ex in examples[:6]:
        paths = next(iter_extract([ex.text], schema, vocab,
                                  GoldScorer(ex.paths), small_train_config()))
        assert {p.elements for p in paths} == {tuple(p) for p in ex.paths}


def test_gold_round_trip_adds_the_span_a_shared_head_tail_cell_links():
    """The three-cell rule's blind spot, pinned: every type of a query shares
    its head-tail cells, so a type with a head at i and a tail at j decodes
    (i, j) whenever another span of the query covers exactly i..j.  epsilon
    heads at 4 ("dog") and tails at 11 ("bee"), and beta's "dog bee" lights
    z[4, 11], so extraction adds epsilon (4, 11) to the gold.  This is the
    paper's rule, not a decoder fault."""
    text = "dog dog bee lark"
    vocab = build_vocab([text], ["epsilon", "beta"])
    gold = {(_el("epsilon", 4, 7, text),), (_el("epsilon", 8, 11, text),),
            (_el("beta", 4, 11, text),)}
    paths = extract(parse_schema('{"epsilon": null, "beta": null}'), vocab,
                    GoldScorer(gold), text, small_train_config())
    assert len(paths) == 4
    assert {p.elements for p in paths} == \
        gold | {(_el("epsilon", 4, 11, text),)}


def test_evaluate_gold_scorer_is_perfect(corpus):
    examples, vocab, schema = corpus
    ex = examples[0]
    reports = evaluate([ex], schema, vocab, GoldScorer(ex.paths),
                       small_train_config(),
                       ["entity", "relation-strict"])
    assert reports["entity"].f1 == 1.0
    assert reports["relation-strict"].f1 == 1.0


# -------------------------------------------------------------- training ---

def test_train_zero_lr_keeps_initial_params(corpus):
    examples, vocab, schema = corpus
    cfg = small_train_config(lr=0.0, epochs=2)
    result = train(examples[:3], schema, vocab, cfg)
    rng = np.random.default_rng(cfg.seed)
    enc0, head0 = build_model(cfg, len(vocab), rng)
    for k, v in enc0.params.items():
        np.testing.assert_array_equal(result.enc.params[k], v)
    for k, v in head0.params.items():
        np.testing.assert_array_equal(result.head.params[k], v)


def test_train_logs_initial_loss_for_first_epoch(corpus):
    examples, vocab, schema = corpus
    cfg = small_train_config(epochs=1)
    ex = examples[0]
    result = train([ex], schema, vocab, cfg)
    rng = np.random.default_rng(cfg.seed)
    enc0, head0 = build_model(cfg, len(vocab), rng)
    scorer = GoldScorer(ex.paths)
    queries = [q for q, _ in teacher_forced_queries(ex, schema, vocab, cfg)]
    manual = backward_batch(enc0, head0, queries,
                            [scorer.target_for(q) for q in queries])[0]
    assert result.log[0]["epoch"] == 1
    assert result.log[0]["loss"] == pytest.approx(manual, rel=1e-12)


def test_train_log_carries_eval_tasks(corpus):
    examples, vocab, schema = corpus
    cfg = small_train_config(epochs=1, eval_tasks="entity")
    result = train(examples[:2], schema, vocab, cfg)
    assert set(result.log[0]) == {"epoch", "loss", "grad_norm", "entity"}
    assert 0.0 <= result.log[0]["entity"] <= 1.0


def test_train_builds_pairs_once_and_logs_the_mean_grad_norm(corpus,
                                                            monkeypatch):
    """Each example's pairs are built once per ``train`` call, not once per
    epoch; the kept queries never derive an n x n mask; and each log entry
    carries the mean pre-clip norm of its epoch's steps, right after the
    loss."""
    examples, vocab, schema = corpus
    from spanlink import engine
    calls, queries, norms = [], [], []
    build, clip = engine.teacher_forced_queries, engine.clip_grad_norm

    def counted(example, *args):
        calls.append(example.text)
        pairs = build(example, *args)
        queries.extend(query for query, _ in pairs)
        return pairs

    def recorded(grads, max_norm):
        norms.append(clip(grads, max_norm))
        return norms[-1]

    monkeypatch.setattr(engine, "teacher_forced_queries", counted)
    monkeypatch.setattr(engine, "clip_grad_norm", recorded)
    result = train(examples[:3], schema, vocab, small_train_config(epochs=2))
    assert sorted(calls) == sorted(ex.text for ex in examples[:3])
    assert queries
    for query in queries:
        assert "scoring_mask" not in vars(query)
    assert len(norms) == 6
    for entry, epoch_norms in zip(result.log, (norms[:3], norms[3:])):
        assert list(entry)[:3] == ["epoch", "loss", "grad_norm"]
        assert entry["grad_norm"] == sum(epoch_norms) / 3


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_train_raises_diverged_on_a_non_finite_gradient(corpus, monkeypatch,
                                                        bad):
    examples, vocab, schema = corpus
    from spanlink import engine
    backward = engine.backward_batch

    def poisoned(enc, head, queries, targets, grads):
        out = backward(enc, head, queries, targets, grads)
        grads[0]["tok_emb"][1, 0] = bad
        return out

    monkeypatch.setattr(engine, "backward_batch", poisoned)
    with pytest.raises(Diverged, match=rf"^gradient norm is {bad} at epoch 1, "
                                       r"step 1 \(lr="):
        train(examples[:2], schema, vocab, small_train_config(epochs=1))


def test_model_scorer_shapes(corpus):
    examples, vocab, schema = corpus
    cfg = small_train_config()
    rng = np.random.default_rng(0)
    enc, head = build_model(cfg, len(vocab), rng)
    scorer = ModelScorer(enc, head)
    text = examples[0].text
    toks = tokenize(vocab, text)
    plan = plan_level(schema, [()], toks, text, vocab, cfg)
    z = scorer(plan.queries[0])
    q = plan.queries[0]
    assert z.shape == (len(q), len(q))
    assert np.all(np.isfinite(z[q.scoring_mask]))
    assert np.all(np.isneginf(z[~q.scoring_mask]))


# --------------------------------------------------------- output format ---

def test_extraction_record_golden():
    text = "rivera works for acme ."
    person = _el("person", 0, 6, text)
    rel = PathElement(WORK_FOR, 17, 21, text[17:21])
    from spanlink.engine import ExtractionPath
    paths = [
        ExtractionPath(elements=(person, rel), terminal=True),
        ExtractionPath(elements=(PathElement("positive"),), terminal=True),
    ]
    line = extraction_record(text, paths)
    assert json.loads(line) == {
        "version": 1,
        "text": text,
        "paths": [
            [
                {"type": "person", "surface": "rivera", "start": 0, "end": 6},
                {"type": WORK_FOR, "surface": "acme", "start": 17, "end": 21},
            ],
            [{"type": "positive", "label_only": True}],
        ],
    }
    # one line, stable key order for exact file diffs
    assert "\n" not in line
    assert line.index('"type"') < line.index('"surface"') < line.index(
        '"start"') < line.index('"end"')


@pytest.mark.parametrize("mode", list(LevelMode))
def test_gold_scorer_z_equals_the_reference_formula(mode):
    """GoldScorer's Z equals, bit for bit, the formula it used over the
    stored scoring mask: +10 on target cells, -10 elsewhere, -inf outside
    the mask."""
    rng = np.random.default_rng(79)
    vocab = flat_vocab()
    for _ in range(300):
        text, groups, gold = random_ie_case(rng, max_groups=3)
        paths = [group.path + (el,)
                 for g, group in enumerate(groups) for el in gold[g]]
        q = query_of(vocab, text, groups, mode=mode, max_prompt_len=40,
                     max_len=96)
        scorer = GoldScorer(paths)
        target = scorer.target_for(q)
        want = np.where(target == 1, ORACLE_HI, ORACLE_LO).astype(np.float32)
        want[~reference_masks(q)[1]] = -np.inf
        got = scorer(q)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_train_raises_diverged_when_self_evaluation_scores_nan(corpus,
                                                               monkeypatch):
    """A step that leaves the parameters NaN while the gradient norm stayed
    finite is caught by the epoch's self-evaluation: training raises
    ``engine.Diverged`` naming the epoch and step, not
    ``decode.NonFiniteScores``."""
    examples, vocab, schema = corpus
    step = AdamW.step

    def blow_up_on_the_epochs_last_step(self, params, grads, lr_factor=1.0):
        step(self, params, grads, lr_factor)
        if self.step_count == 3:
            for p in params.values():
                p.fill(np.nan)

    monkeypatch.setattr(AdamW, "step", blow_up_on_the_epochs_last_step)
    with pytest.raises(Diverged) as info:
        train(examples[:3], schema, vocab, small_train_config(epochs=2))
    assert info.value.code == "engine.Diverged"
    assert str(info.value).startswith(
        "gradient norm is finite but self-evaluation scores are NaN at "
        "epoch 1, step 3 (lr=")
