import dataclasses
import json
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy.special import erf, ndtr

from conftest import flat_vocab, query_of, random_ie_case, reference_masks
from spanlink.errors import (
    CheckpointMismatch,
    DimensionMismatch,
    OddHeadDim,
    ShapeMismatch,
    SpanlinkError,
)
from spanlink.model import (
    EncoderConfig,
    apply_rope,
    backward,
    backward_batch,
    circle_loss,
    circle_loss_grad,
    encode,
    encode_batch,
    init_encoder,
    init_head,
    load_checkpoint,
    rope_tables,
    save_checkpoint,
    score,
    score_batch,
    zero_grads,
)
from spanlink import model as model_module
from spanlink.data import PathElement
from spanlink.engine import ModelScorer
from spanlink.optim import AdamW, _decays, clip_grad_norm, flat_buffers
from spanlink.query import K_SEP, PrefixGroup, build_target, isolation_mask
from spanlink.schema import LevelMode


def _setup(rng, d=16, layers=1, heads=2, d_head=8, dtype="float64"):
    vocab = flat_vocab()
    cfg = EncoderConfig(vocab_size=len(vocab), d=d, layers=layers,
                        heads=heads, max_positions=128, dtype=dtype)
    enc = init_encoder(cfg, rng)
    head = init_head(d, d_head, rng, dtype=dtype)
    return vocab, enc, head


def _rand_query(rng, vocab):
    text, groups, gold = random_ie_case(rng)
    return query_of(vocab, text, groups), gold


# ----------------------------------------------------------------- encoder

def test_encode_is_deterministic():
    rng = np.random.default_rng(0)
    vocab, enc, _ = _setup(rng)
    q, _ = _rand_query(rng, vocab)
    h1 = encode(enc, q)
    h2 = encode(enc, q)
    assert np.array_equal(h1, h2)
    assert h1.shape == (len(q), enc.config.d)
    assert np.isfinite(h1).all()


def test_zero_layers_is_embedding_sum():
    """With no layers the encoder is the final LayerNorm of the embedding
    sum; the norm's gain and bias are drawn at random so both count."""
    rng = np.random.default_rng(1)
    vocab = flat_vocab()
    cfg = EncoderConfig(vocab_size=len(vocab), d=8, layers=0, heads=1,
                        max_positions=128, dtype="float64")
    enc = init_encoder(cfg, rng)
    enc.params["lnf.g"] = rng.normal(1.0, 0.5, size=8)
    enc.params["lnf.b"] = rng.normal(0.0, 0.5, size=8)
    q, _ = _rand_query(rng, vocab)
    h = encode(enc, q)
    x = (enc.params["tok_emb"][q.token_ids]
         + enc.params["pos_emb"][q.position_ids]
         + enc.params["type_emb"][q.token_type_ids])
    xhat = x - x.mean(axis=1, keepdims=True)
    want = (xhat / np.sqrt((xhat ** 2).mean(axis=1, keepdims=True) + 1e-5)
            * enc.params["lnf.g"] + enc.params["lnf.b"])
    np.testing.assert_allclose(h, want, rtol=0, atol=1e-12)


def test_encode_validates_dimensions():
    rng = np.random.default_rng(2)
    vocab, enc, _ = _setup(rng)
    q, _ = _rand_query(rng, vocab)
    small = EncoderConfig(vocab_size=3, d=16, layers=1, heads=2,
                          max_positions=128, dtype="float64")
    with pytest.raises(DimensionMismatch):
        encode(init_encoder(small, rng), q)
    tiny_pos = EncoderConfig(vocab_size=len(vocab), d=16, layers=1, heads=2,
                             max_positions=4, dtype="float64")
    with pytest.raises(DimensionMismatch):
        encode(init_encoder(tiny_pos, rng), q)


@pytest.mark.parametrize("name", ["float16", "f64", ""])
def test_unknown_dtype_name_is_rejected(name):
    """Only "float32" and "float64" name a dtype a model runs in; any other
    name raises rather than quietly running in float32."""
    cfg = EncoderConfig(vocab_size=5, d=8, layers=1, heads=2,
                        max_positions=16, dtype=name)
    with pytest.raises(DimensionMismatch, match="dtype must be"):
        cfg.validate()
    with pytest.raises(DimensionMismatch, match="dtype must be"):
        init_encoder(cfg, np.random.default_rng(0))
    with pytest.raises(DimensionMismatch, match="dtype must be"):
        init_head(8, 8, np.random.default_rng(0), dtype=name)


# A range error names its array in the plural ("token ids run -1 .. 9, ...").
_OUT_OF_TABLE = (r"^(token ids|position ids|token type ids|prompt kinds|kinds after "
                 r"the prompt) run -?\d+ \.\. -?\d+, outside a table of \d+ \.\. \d+$")


def test_encode_rejects_negative_position_ids():
    """Ids from -1 down to -max_positions would index the position table
    from its end, and lower ones would fail inside numpy; both ranges end
    in ``DimensionMismatch``."""
    rng = np.random.default_rng(2)
    vocab, enc, _ = _setup(rng)
    q, _ = _rand_query(rng, vocab)
    top = int(q.position_ids.max())
    for shift in (-(top + 1), -(top + 1 + enc.config.max_positions)):
        moved = dataclasses.replace(q, position_ids=q.position_ids + shift)
        with pytest.raises(DimensionMismatch, match=_OUT_OF_TABLE):
            encode(enc, moved)
    assert (q.position_ids - top - 1 >= -enc.config.max_positions).all()


@pytest.mark.parametrize("field", ["token_ids", "token_type_ids", "kinds"])
def test_encode_rejects_ids_and_kinds_out_of_range(field):
    """A value of -1 would read the last table row and lower or too-high
    values would fail inside numpy; every such value, and every kind past
    ``K_SEP``, ends in ``DimensionMismatch``."""
    rng = np.random.default_rng(5)
    vocab, enc, _ = _setup(rng)
    q, _ = _rand_query(rng, vocab)
    values = {"token_ids": (-1, -10**6, enc.config.vocab_size, 10**6),
              "token_type_ids": (-1, -10**6, 4, 10**6),
              "kinds": (-1, -100, K_SEP + 1, K_SEP + 2)}[field]
    for value in values:
        bad = getattr(q, field).copy()
        bad[len(bad) // 2] = value
        with pytest.raises(DimensionMismatch, match=_OUT_OF_TABLE):
            encode(enc, dataclasses.replace(q, **{field: bad}))


def test_isolation_blocks_cross_group_influence():
    # perturbing a type token of group 2 must not change hidden states at
    # group 1 positions (text positions may move; text attends everything)
    rng = np.random.default_rng(3)
    vocab, enc, _ = _setup(rng, dtype="float32")
    from spanlink.data import PathElement
    text = "ant bee cat dog"
    prefix = (PathElement("alpha", 0, 3, "ant"),)
    groups = [PrefixGroup((), ("alpha", "beta")),
              PrefixGroup(prefix, ("gamma",))]
    q = query_of(vocab, text, groups, max_prompt_len=32, max_len=64)
    h_before = encode(enc, q)
    marker = [m for m in q.type_markers if m.group == 1][0]
    q2_ids = q.token_ids.copy()
    q2_ids[marker.pos + 1] = vocab.id("delta")
    import dataclasses
    q2 = dataclasses.replace(q, token_ids=q2_ids)
    h_after = encode(enc, q2)
    g0 = np.where(q.group_of == 0)[0]
    assert np.array_equal(h_before[g0], h_after[g0])
    # [CLS] and text rows attend everything, so they are allowed to change
    from spanlink.query import K_TEXT
    text_rows = np.where(q.kinds == K_TEXT)[0]
    assert not np.array_equal(h_before[text_rows], h_after[text_rows])


# -------------------------------------------------------------------- rope

def test_rope_zero_offset_is_plain_dot():
    rng = np.random.default_rng(4)
    q = rng.standard_normal((5, 8))
    k = rng.standard_normal((5, 8))
    pos = np.full(5, 17.0)
    cos, sin = rope_tables(pos, 8)
    z = apply_rope(q, cos, sin) @ apply_rope(k, cos, sin).T
    assert np.allclose(z, q @ k.T, atol=1e-9)


def test_rope_shift_invariance():
    rng = np.random.default_rng(5)
    q = rng.standard_normal((6, 8))
    k = rng.standard_normal((6, 8))
    pos = np.array([0.0, 3, 7, 11, 20, 200])
    for c in (1.0, -4.0, 1000.0):
        cos0, sin0 = rope_tables(pos, 8)
        cos1, sin1 = rope_tables(pos + c, 8)
        z0 = apply_rope(q, cos0, sin0) @ apply_rope(k, cos0, sin0).T
        z1 = apply_rope(q, cos1, sin1) @ apply_rope(k, cos1, sin1).T
        assert np.abs(z0 - z1).max() <= 1e-9 * max(1.0, np.abs(z0).max())


def test_rope_quarter_turn_matches_rotation_matrix():
    # d'=2: rotating the pair (q, k) to relative angle pi/2 must reproduce
    # q^T R(pi/2) k computed with an explicit 2x2 rotation matrix
    q = np.array([[1.0, 0.0]])
    k = np.array([[0.0, 1.0]])
    delta = math.pi / 2  # theta_0 = 1, so position difference = angle
    cos_q, sin_q = rope_tables([0.0], 2)
    cos_k, sin_k = rope_tables([delta], 2)
    z = (apply_rope(q, cos_q, sin_q) @ apply_rope(k, cos_k, sin_k).T).item()
    rot = np.array([[math.cos(delta), -math.sin(delta)],
                    [math.sin(delta), math.cos(delta)]])
    want = (q @ rot @ k.T).item()
    assert abs(z - want) <= 1e-12
    assert abs(z - (-1.0)) <= 1e-12


def test_rope_odd_dimension_rejected():
    with pytest.raises(OddHeadDim):
        rope_tables([0.0], 7)
    rng = np.random.default_rng(0)
    with pytest.raises(OddHeadDim):
        init_head(8, 7, rng)


# ------------------------------------------------------------------- score

def test_score_masks_are_neg_inf():
    rng = np.random.default_rng(6)
    vocab, enc, head = _setup(rng)
    q, _ = _rand_query(rng, vocab)
    z = score(head, encode(enc, q), q)
    assert np.isneginf(z[~q.scoring_mask]).all()
    assert np.isfinite(z[q.scoring_mask]).all()


def test_score_shape_mismatch():
    rng = np.random.default_rng(7)
    vocab, enc, head = _setup(rng)
    q, _ = _rand_query(rng, vocab)
    with pytest.raises(ShapeMismatch):
        score(head, np.zeros((3, head.d_in)), q)


def test_score_position_shift_leaves_valid_cells():
    # shifting every position id by a constant must not change the matrix
    rng = np.random.default_rng(8)
    vocab, enc, head = _setup(rng)
    q, _ = _rand_query(rng, vocab)
    h = encode(enc, q)
    z0 = score(head, h, q)
    import dataclasses
    q2 = dataclasses.replace(q, position_ids=q.position_ids + 50)
    z1 = score(head, h, q2)
    m = q.scoring_mask
    assert np.abs(z0[m] - z1[m]).max() <= 1e-9 * max(1.0, np.abs(z0[m]).max())


# ------------------------------------------------------------- circle loss

def test_circle_loss_closed_form_two_cells():
    z = np.zeros((2, 2))
    target = np.array([[1, 0], [0, 0]], dtype=np.uint8)
    valid = np.array([[True, True], [False, False]])
    assert abs(circle_loss(z, target, valid) - 2 * math.log(2)) <= 1e-12


def test_circle_loss_saturated_is_tiny():
    z = np.full((3, 3), -1000.0)
    target = np.zeros((3, 3), dtype=np.uint8)
    valid = np.ones((3, 3), dtype=bool)
    assert 0.0 <= circle_loss(z, target, valid) <= 1e-12


def test_circle_loss_empty_valid_is_zero():
    z = np.zeros((2, 2))
    target = np.zeros((2, 2), dtype=np.uint8)
    valid = np.zeros((2, 2), dtype=bool)
    assert circle_loss(z, target, valid) == 0.0


def test_circle_loss_matches_naive_formula():
    rng = np.random.default_rng(9)
    for _ in range(50):
        z = rng.standard_normal((4, 4)) * 3
        target = (rng.random((4, 4)) < 0.3).astype(np.uint8)
        valid = rng.random((4, 4)) < 0.7
        neg = z[valid & (target == 0)]
        pos = z[valid & (target == 1)]
        want = math.log1p(np.exp(neg).sum()) + math.log1p(np.exp(-pos).sum())
        assert abs(circle_loss(z, target, valid) - want) <= 1e-9


def test_circle_loss_monotone_in_cells():
    rng = np.random.default_rng(10)
    z = rng.standard_normal((4, 4))
    target = np.zeros((4, 4), dtype=np.uint8)
    target[0, 1] = 1
    valid = np.ones((4, 4), dtype=bool)
    base = circle_loss(z, target, valid)
    up_pos = z.copy()
    up_pos[0, 1] += 1.0
    assert circle_loss(up_pos, target, valid) <= base
    up_neg = z.copy()
    up_neg[2, 3] += 1.0
    assert circle_loss(up_neg, target, valid) >= base


def test_circle_loss_grad_matches_fd():
    rng = np.random.default_rng(11)
    z = rng.standard_normal((5, 5))
    target = (rng.random((5, 5)) < 0.3).astype(np.uint8)
    valid = rng.random((5, 5)) < 0.8
    loss, dz = circle_loss_grad(z, target, valid)
    assert abs(loss - circle_loss(z, target, valid)) <= 1e-12
    eps = 1e-6
    for i in range(5):
        for j in range(5):
            zp = z.copy(); zp[i, j] += eps
            zm = z.copy(); zm[i, j] -= eps
            fd = (circle_loss(zp, target, valid)
                  - circle_loss(zm, target, valid)) / (2 * eps)
            assert abs(fd - dz[i, j]) <= 1e-6
    assert (dz[~valid] == 0).all()


def test_circle_loss_grad_saturated_is_tiny():
    z = np.where(np.eye(4, dtype=bool), 1000.0, -1000.0)
    target = np.eye(4, dtype=np.uint8)
    valid = np.ones((4, 4), dtype=bool)
    _, dz = circle_loss_grad(z, target, valid)
    assert np.abs(dz).max() <= 1e-8


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_circle_loss_equals_the_fsum_formula(data):
    """``circle_loss`` is log(1 + sum_neg e^z) + log(1 + sum_pos e^-z),
    here summed exactly with ``math.fsum``; either set may be empty."""
    n = data.draw(st.integers(1, 6))
    cells = st.lists(st.floats(-30.0, 30.0), min_size=n * n, max_size=n * n)
    z = np.array(data.draw(cells)).reshape(n, n)
    target = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n * n,
                                         max_size=n * n)),
                      dtype=np.uint8).reshape(n, n)
    valid = np.array(data.draw(st.lists(st.booleans(), min_size=n * n,
                                        max_size=n * n))).reshape(n, n)
    neg = [math.exp(v) for v in z[valid & (target == 0)]]
    pos = [math.exp(-v) for v in z[valid & (target == 1)]]
    want = math.log(math.fsum([1.0, *neg])) + math.log(math.fsum([1.0, *pos]))
    assert circle_loss(z, target, valid) == pytest.approx(want, rel=1e-12,
                                                          abs=0.0)


def test_circle_loss_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        circle_loss(np.zeros((2, 2)), np.zeros((3, 3), dtype=np.uint8),
                    np.ones((2, 2), dtype=bool))


# ---------------------------------------------------------------- backward

def test_backward_gradient_accumulation_is_linear():
    rng = np.random.default_rng(12)
    vocab, enc, head = _setup(rng, d=8, d_head=8)
    q, gold = _rand_query(rng, vocab)
    target = build_target(q, gold)
    loss1, ge1, gh1 = backward(enc, head, q, target)
    total_e = {k: ge1[k] + ge1[k] for k in ge1}
    total_h = {k: gh1[k] + gh1[k] for k in gh1}
    for k, v in total_e.items():
        assert np.allclose(v, 2 * ge1[k])
    for k, v in total_h.items():
        assert np.allclose(v, 2 * gh1[k])


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_everything_runs_in_config_dtype(dtype):
    rng = np.random.default_rng(15)
    vocab, enc, head = _setup(rng, layers=2, dtype=dtype)
    q, gold = _rand_query(rng, vocab)
    target = build_target(q, gold)
    want = np.dtype(dtype)
    hidden = encode(enc, q)
    z = score(head, hidden, q)
    assert hidden.dtype == want and z.dtype == want
    _, d_z = circle_loss_grad(z, target, q.scoring_mask)
    assert d_z.dtype == want
    _, enc_grads, head_grads = backward(enc, head, q, target)
    assert set(enc_grads) == set(enc.params)
    assert set(head_grads) == set(head.params)
    for name, g in {**enc_grads, **head_grads}.items():
        assert g.dtype == want, name
    opt = AdamW(lr=1e-3)
    opt.step(enc.params, enc_grads)
    opt.step(head.params, head_grads)
    for name, p in {**enc.params, **head.params}.items():
        assert p.dtype == want, name


# ---------------------------------------------------------------- batching

_MODES = (LevelMode.EXTRACT, LevelMode.CLASSIFY_SINGLE,
          LevelMode.CLASSIFY_MULTI)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 6))
def test_batched_scores_equal_single_query_scores(dtype, seed, size):
    """One padded pass over a mix of extract, cls_single and cls_multi
    queries of different lengths gives each query the scores of its own
    pass, within 1e-5 of the largest score in the batch."""
    rng = np.random.default_rng(seed)
    vocab, enc, head = _setup(rng, layers=2, dtype=dtype)
    # Four times the N(0, 0.02) init gives scores of order 10, as a trained
    # model does, and attention far from uniform.
    for params in (enc.params, head.params):
        for v in params.values():
            v *= 4.0
    queries = []
    for _ in range(size):
        text, groups, _ = random_ie_case(rng)
        mode = _MODES[int(rng.integers(len(_MODES)))]
        queries.append(query_of(vocab, text, groups, mode=mode))
    hidden = encode_batch(enc, queries)
    assert hidden.shape == (size, max(len(q) for q in queries), enc.config.d)
    zs = score_batch(head, hidden, queries)
    refs = [score(head, encode(enc, q), q) for q in queries]
    assert len(zs) == size
    # Padding changes the order of float sums, so float32 cells differ in
    # their last bits; a query with only a few cells near zero would make a
    # per-query scale meaningless, so the scale is the whole batch's.
    scale = max(np.abs(ref[q.scoring_mask]).max()
                for q, ref in zip(queries, refs))
    for q, z, ref in zip(queries, zs, refs):
        assert z.dtype == ref.dtype == np.dtype(dtype)
        assert z.shape == ref.shape == (len(q), len(q))
        assert np.array_equal(np.isneginf(z), ~q.scoring_mask)
        assert np.array_equal(np.isneginf(ref), ~q.scoring_mask)
        valid = q.scoring_mask
        assert np.abs(z[valid] - ref[valid]).max() <= 1e-5 * scale


def _mixed_batch(rng, vocab, size):
    """``size`` queries of random length and mode, each with a gold target."""
    queries, targets = [], []
    for _ in range(size):
        text, groups, gold = random_ie_case(rng)
        mode = _MODES[int(rng.integers(len(_MODES)))]
        query = query_of(vocab, text, groups, mode=mode)
        if mode is LevelMode.EXTRACT:
            gold_by_group = {g: els for g, els in gold.items() if els}
        else:
            gold_by_group = {
                g: [PathElement(str(rng.choice(list(group.types))))]
                for g, group in enumerate(query.groups)}
        queries.append(query)
        targets.append(build_target(query, gold_by_group))
    return queries, targets


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 6))
def test_batched_backward_equals_summed_single_query_backward(dtype, seed,
                                                              size):
    """One padded forward/backward pass over a mix of extract, cls_single
    and cls_multi queries gives the summed loss and gradients of one pass
    per query, and adds them into gradient dicts it is handed."""
    rng = np.random.default_rng(seed)
    vocab, enc, head = _setup(rng, layers=2, dtype=dtype)
    for params in (enc.params, head.params):
        for v in params.values():
            v *= 4.0
    queries, targets = _mixed_batch(rng, vocab, size)
    loss, enc_grads, head_grads = backward_batch(enc, head, queries, targets)
    ref_loss = 0.0
    ref_enc, ref_head = zero_grads(enc, head)
    for query, target in zip(queries, targets):
        part, ge, gh = backward(enc, head, query, target)
        ref_loss += part
        ref_enc = {k: ref_enc[k] + ge[k] for k in ref_enc}
        ref_head = {k: ref_head[k] + gh[k] for k in ref_head}
    # Padding changes the order of float sums.  The scale is the largest
    # gradient over all tensors: some tensors' true gradient is zero (a key
    # bias shifts every logit of a softmax row equally), so per tensor the
    # rounding noise can read as a relative error of order one.
    tol = 1e-5 if dtype == "float32" else 1e-12
    assert loss == pytest.approx(ref_loss, rel=tol)
    scale = max(np.abs(g).max() for g in [*ref_enc.values(),
                                           *ref_head.values()])
    for got, want in ((enc_grads, ref_enc), (head_grads, ref_head)):
        assert list(got) == list(want)
        for name, g in got.items():
            assert g.dtype == np.dtype(dtype), name
            assert np.abs(g - want[name]).max() <= tol * scale, name
    # Handed gradient dicts are added into, as training sums chunks.
    again = backward_batch(enc, head, queries, targets,
                           (enc_grads, head_grads))
    assert again[1] is enc_grads and again[2] is head_grads
    for name, g in ref_enc.items():
        assert np.abs(enc_grads[name] - 2 * g).max() <= 2 * tol * scale, name


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_rotary_table_lookup_equals_per_call_tables(dtype, monkeypatch):
    """Scores and head gradients read from the head's rotary table, which
    grows as the largest position rises from batch to batch, are bitwise
    those from ``rope_tables`` built on each batch's own positions; a batch
    within the table reuses it."""
    rng = np.random.default_rng(109)
    vocab, enc, head = _scaled_setup(rng, dtype)

    def passes(queries, targets):
        zs = score_batch(head, encode_batch(enc, queries), queries)
        loss, _, grads = backward_batch(enc, head, queries, targets)
        return [z.tobytes() for z in zs], loss, {
            name: g.tobytes() for name, g in grads.items()}

    top, first = -1, None
    for _ in range(12):
        queries, targets = _mixed_batch(rng, vocab, int(rng.integers(1, 5)))
        base = max(int(q.position_ids.max()) for q in queries)
        shift = max(0, top + int(rng.integers(1, 8)) - base)
        queries = [dataclasses.replace(q, position_ids=q.position_ids + shift)
                   for q in queries]
        assert base + shift > top
        top = base + shift
        got = passes(queries, targets)
        table = head.rope[np.dtype(dtype)]
        assert list(head.rope) == [np.dtype(dtype)]
        assert len(table[0]) == top + 1 and table[0].dtype == np.dtype(dtype)
        first = first or (queries, targets, got)
        assert passes(*first[:2]) == first[2]
        assert head.rope[np.dtype(dtype)] is table
        with monkeypatch.context() as m:
            m.setattr(model_module, "_rope_rows", lambda h, pos, dt:
                      rope_tables(pos, h.d_head, dt))
            assert passes(queries, targets) == got
    assert top < enc.config.max_positions


def test_rotary_positions_outside_the_table_are_computed_per_call():
    """Negative positions, and positions past ``ROPE_TABLE_ROWS``, get the
    bits of ``rope_tables`` and leave the head's table as it was."""
    rng = np.random.default_rng(113)
    vocab, enc, head = _setup(rng)
    q, _ = _rand_query(rng, vocab)
    h = encode(enc, q)
    score(head, h, q)
    table = head.rope[np.dtype(np.float64)]
    for shift in (-7, model_module.ROPE_TABLE_ROWS, 10**9):
        moved = dataclasses.replace(q, position_ids=q.position_ids + shift)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(model_module, "_rope_rows", lambda hd, pos, dt:
                      rope_tables(pos, hd.d_head, dt))
            want = score(head, h, moved)
        assert score(head, h, moved).tobytes() == want.tobytes()
        assert list(head.rope) == [np.dtype(np.float64)]
        assert head.rope[np.dtype(np.float64)] is table


def _old_adamw_step(state, params, grads, lr, weight_decay, t):
    # The per-tensor formula AdamW.step replaced, kept as the reference.
    bc1 = 1.0 - 0.9 ** t
    bc2 = 1.0 - 0.999 ** t
    for name, p in params.items():
        g = grads[name]
        m, v = state.setdefault(name, (np.zeros_like(p), np.zeros_like(p)))
        m += (1.0 - 0.9) * (g - m)
        v += (1.0 - 0.999) * (g * g - v)
        update = (m / bc1) / (np.sqrt(v / bc2) + 1e-8)
        if weight_decay and _decays(name):
            update = update + weight_decay * p
        p -= (lr * update).astype(p.dtype)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_adamw_in_place_step_is_bitwise_the_formula(dtype):
    """Per tensor and over flat buffers, six in-place steps give bitwise the
    parameters of the out-of-place formula, on decayed and undecayed
    tensors alike."""
    rng = np.random.default_rng(21)
    shapes = {"tok_emb": (30, 8), "l0.attn.wq": (8, 8), "l0.attn.bq": (8,),
              "l0.ln1.g": (8,), "q.w": (8, 4), "k.b": (4,)}
    assert {_decays(name) for name in shapes} == {True, False}
    ref = {k: rng.normal(size=s).astype(dtype) for k, s in shapes.items()}
    per_tensor = {k: v.copy() for k, v in ref.items()}
    flat = {k: v.copy() for k, v in ref.items()}
    buffers = flat_buffers(flat)
    state = {}
    opt_tensor = AdamW(lr=3e-2, weight_decay=0.1)
    opt_flat = AdamW(lr=3e-2, weight_decay=0.1)
    for t in range(1, 7):
        grads = {k: rng.normal(size=s).astype(dtype)
                 for k, s in shapes.items()}
        flat_grads = {k: g.copy() for k, g in grads.items()}
        grad_buffers = flat_buffers(flat_grads)
        factor = t / 6
        _old_adamw_step(state, ref, grads, 3e-2 * factor, 0.1, t)
        opt_tensor.step(per_tensor, grads, factor)
        opt_flat.step(buffers, grad_buffers, factor)
        for name in shapes:
            assert per_tensor[name].tobytes() == ref[name].tobytes(), name
            assert flat[name].tobytes() == ref[name].tobytes(), name


def test_flat_buffers_hold_the_params_as_views():
    rng = np.random.default_rng(22)
    _, enc, head = _setup(rng, layers=2, dtype="float32")
    before = {f"enc.{k}": v.copy() for k, v in enc.params.items()}
    before.update({f"head.{k}": v.copy() for k, v in head.params.items()})
    buffers = flat_buffers(enc.params, head.params)
    assert sorted(buffers) == ["float32.b", "float32.w"]
    assert sum(b.size for b in buffers.values()) == len(
        np.concatenate([v.ravel() for v in before.values()]))
    for space, params in (("enc", enc.params), ("head", head.params)):
        for name, view in params.items():
            buf = buffers["float32.w" if _decays(name) else "float32.b"]
            assert np.shares_memory(view, buf), name
            assert view.dtype == np.float32
            assert np.array_equal(view, before[f"{space}.{name}"]), name
    # a write to a buffer shows through the parameter dicts
    buffers["float32.w"][:] = 7.0
    buffers["float32.b"][:] = -1.0
    assert (enc.params["tok_emb"] == 7.0).all()
    assert (enc.params["l1.attn.wq"] == 7.0).all()
    assert (head.params["k.w"] == 7.0).all()
    assert (enc.params["l0.ln1.g"] == -1.0).all()
    assert (head.params["q.b"] == -1.0).all()
    # zero_grads mirrors the parameter dicts key for key
    assert [list(g) for g in zero_grads(enc, head)] == [list(enc.params),
                                                         list(head.params)]
    # gradient dicts keyed in another order get a buffer layout that lines
    # up with the parameters' element for element
    enc_grads, head_grads = ({name: np.zeros_like(params[name])
                              for name in reversed(params)}
                             for params in (enc.params, head.params))
    assert list(enc_grads) != list(enc.params)
    assert list(head_grads) != list(head.params)
    grad_buffers = flat_buffers(enc_grads, head_grads)
    for key, buf in buffers.items():
        buf[:] = np.arange(buf.size)
        grad_buffers[key][:] = np.arange(buf.size)
    for name, view in {**enc.params, **head.params}.items():
        g = enc_grads[name] if name in enc_grads else head_grads[name]
        assert np.array_equal(g, view), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(0, 40),
       table_rows=st.integers(1, 6), d=st.integers(1, 9))
def test_flat_scatter_equals_row_scatter_bitwise(dtype, seed, rows,
                                                 table_rows, d):
    """The embedding-gradient scatter on the flat table adds each element
    in the order ``np.add.at`` on the 2-D table does; few table rows make
    repeated ids the rule."""
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, table_rows, size=rows)
    src = rng.normal(size=(rows, d)).astype(dtype) * 10.0 ** rng.integers(
        -3, 4, size=(rows, 1))
    start = rng.normal(size=(table_rows, d)).astype(dtype)
    want = start.copy()
    np.add.at(want, ids, src)
    got = model_module._scatter_rows(start.copy(), ids, src)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_clip_over_flat_buffers_matches_per_tensor_norm():
    """The norm summed over the flat gradient buffers is the float64 norm of
    the per-tensor gradients, clipping scales every tensor through its
    view, and a non-finite gradient gives a non-finite norm."""
    rng = np.random.default_rng(41)
    _, enc, head = _setup(rng, layers=2, dtype="float32")
    enc_grads, head_grads = zero_grads(enc, head)
    grads = flat_buffers(enc_grads, head_grads)
    for buf in grads.values():
        buf[:] = rng.normal(size=buf.size) * 10.0 ** rng.integers(
            -4, 3, size=buf.size)
    tensors = {**enc_grads, **head_grads}
    want = math.sqrt(sum(float((g.astype(np.float64) ** 2).sum())
                         for g in tensors.values()))
    before = {name: g.copy() for name, g in tensors.items()}
    norm = clip_grad_norm(grads, 1.0)
    assert norm == pytest.approx(want, rel=1e-12)
    scale = np.float32(1.0 / norm)
    for name, g in tensors.items():
        assert np.array_equal(g, before[name] * scale), name
    for bad in (np.inf, np.nan):
        grads["float32.w"][3] = bad
        with np.errstate(invalid="ignore"):
            assert not math.isfinite(clip_grad_norm(grads, 1.0))


# -------------------------------------------------------------- checkpoint

def test_checkpoint_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(13)
    vocab, enc, head = _setup(rng, dtype="float32")
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, enc, head)
    enc2, head2 = load_checkpoint(path)
    assert enc2.config == enc.config
    assert head2.d_head == head.d_head
    for k in enc.params:
        assert np.array_equal(enc.params[k], enc2.params[k]), k
    for k in head.params:
        assert np.array_equal(head.params[k], head2.params[k]), k


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    with pytest.raises(CheckpointMismatch):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    rng = np.random.default_rng(14)
    vocab, enc, head = _setup(rng, dtype="float32")
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, enc, head)
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) - 7])
    with pytest.raises(CheckpointMismatch):
        load_checkpoint(path)


def _tiny_checkpoint(path):
    cfg = EncoderConfig(vocab_size=5, d=2, layers=1, heads=1, max_positions=3)
    rng = np.random.default_rng(17)
    save_checkpoint(path, init_encoder(cfg, rng), init_head(2, 2, rng))
    return path.read_bytes()


def _with_header(blob, edit):
    (hlen,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12:12 + hlen])
    edit(header)
    new = json.dumps(header).encode("utf-8")
    return blob[:8] + struct.pack("<I", len(new)) + new + blob[12 + hlen:]


def test_checkpoint_bytes_load_and_save_unchanged(tmp_path):
    """A checkpoint laid out byte by byte as the format defines it (magic,
    u32 header length, sorted-key JSON header with ``"final_norm": true``,
    little-endian float32 tensors in manifest order) loads, and saving what
    was loaded writes the same bytes."""
    enc_shapes = {"lnf.b": [2], "lnf.g": [2], "pos_emb": [3, 2],
                  "tok_emb": [5, 2], "type_emb": [4, 2]}
    head_shapes = {"k.b": [2], "k.w": [2, 2], "q.b": [2], "q.w": [2, 2]}
    manifest = ([[f"enc.{k}", v] for k, v in sorted(enc_shapes.items())]
                + [[f"head.{k}", v] for k, v in sorted(head_shapes.items())])
    header = {"format": 1,
              "encoder": {"vocab_size": 5, "d": 2, "layers": 0, "heads": 1,
                          "max_positions": 3, "ffn_mult": 4,
                          "final_norm": True},
              "head": {"d_in": 2, "d_head": 2}, "tensors": manifest}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    size = sum(math.prod(shape) for _, shape in manifest)
    body = np.linspace(-1.5, 1.5, size, dtype="<f4").tobytes()
    written = b"SPLKCKPT" + struct.pack("<I", len(blob)) + blob + body
    path = tmp_path / "fixed.ckpt"
    path.write_bytes(written)
    enc, head = load_checkpoint(path)
    assert enc.params["lnf.g"].tolist() == np.frombuffer(
        body, "<f4")[2:4].tolist()
    save_checkpoint(tmp_path / "again.ckpt", enc, head)
    assert (tmp_path / "again.ckpt").read_bytes() == written


def _forge_shape(header):
    header["tensors"][0][1] = ["5", 2.5]


@pytest.mark.parametrize("forge", [
    lambda blob: blob[:10],                                  # 2-byte length
    lambda blob: blob[:8] + struct.pack("<I", 10**6) + blob[12:],
    lambda blob: _with_header(blob, lambda h: h.pop("encoder")),
    lambda blob: _with_header(blob, lambda h: h.pop("tensors")),
    lambda blob: _with_header(blob, _forge_shape),
    lambda blob: _with_header(blob, lambda h: h["encoder"].update(heads=0)),
    lambda blob: _with_header(blob, lambda h: h["encoder"].update(d="2")),
    lambda blob: _with_header(blob, lambda h: h["encoder"].update(
        layers=10**9)),
    lambda blob: _with_header(blob, lambda h: h["head"].update(d_head=3)),
    lambda blob: b"SPLKCKPT" + struct.pack("<I", 2) + b"[]",
    lambda blob: blob + b"\x00" * 4,                         # trailing data
    lambda blob: _with_header(blob, lambda h: h["encoder"].update(
        final_norm=False)),
    lambda blob: _with_header(blob, lambda h: h["encoder"].pop("final_norm")),
])
def test_checkpoint_rejects_forged_headers(tmp_path, forge):
    path = tmp_path / "model.ckpt"
    path.write_bytes(forge(_tiny_checkpoint(path)))
    with pytest.raises(CheckpointMismatch):
        load_checkpoint(path)


def test_checkpoint_rejects_body_larger_than_file(tmp_path):
    # declared dims whose tensors would need ~40 GB: rejected by size alone
    path = tmp_path / "model.ckpt"
    blob = _tiny_checkpoint(path)

    def grow(header):
        header["encoder"]["vocab_size"] = 5 * 10**9
        header["tensors"] = [
            [name, [5 * 10**9, 2] if name == "enc.tok_emb" else shape]
            for name, shape in header["tensors"]]

    path.write_bytes(_with_header(blob, grow))
    with pytest.raises(CheckpointMismatch):
        load_checkpoint(path)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)),
                      max_size=6),
       cut=st.one_of(st.none(), st.integers(0, 2**16)),
       tail=st.binary(max_size=8))
def test_mutated_checkpoint_loads_or_raises_spanlink_error(tmp_path, edits,
                                                           cut, tail):
    path = tmp_path / "model.ckpt"
    blob = bytearray(_tiny_checkpoint(path))
    for pos, byte in edits:
        # most edits land in the magic, length and JSON header
        blob[pos % min(len(blob), 600)] = byte
    if cut is not None:
        blob = blob[:cut % (len(blob) + 1)]
    path.write_bytes(bytes(blob) + tail)
    try:
        load_checkpoint(path)
    except SpanlinkError:
        pass


# ---------------------------------------------- bias from segment vectors

@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_batched_bias_equals_per_query_scatter(dtype, monkeypatch):
    """The bias encode_batch builds from the padded segment vectors equals,
    bit for bit, the old per-query scatter of each stored attention mask
    into a -inf block, with padded rows open to key 0 only and every padded
    key at -inf, on mixed, padded batches."""
    rng = np.random.default_rng(67)
    vocab, enc, _ = _setup(rng, dtype=dtype)
    softmax = model_module._masked_softmax_inplace
    seen = []

    def spy(s, scale, bias):
        seen.append(bias)
        return softmax(s, scale, bias)

    monkeypatch.setattr(model_module, "_masked_softmax_inplace", spy)
    padded = 0
    for _ in range(300):
        queries = []
        for _ in range(int(rng.integers(1, 7))):
            text, groups, _ = random_ie_case(rng, max_groups=3)
            mode = _MODES[int(rng.integers(len(_MODES)))]
            queries.append(query_of(vocab, text, groups, mode=mode,
                                    max_prompt_len=40, max_len=96))
        n = max(len(q) for q in queries)
        want = np.full((len(queries), 1, n, n), -np.inf, dtype=dtype)
        for b, q in enumerate(queries):
            m = len(q)
            want[b, 0, :m, :m][reference_masks(q)[0]] = 0.0
            want[b, 0, m:, 0] = 0.0
            padded += n - m
        seen.clear()
        encode_batch(enc, queries)
        assert len(seen) == enc.config.layers
        assert seen[0].dtype == want.dtype and seen[0].shape == want.shape
        assert seen[0].tobytes() == want.tobytes()
    assert padded > 1000


_HAND_BUILT_ENC = {dt: _setup(np.random.default_rng(73), dtype=dt)
                   for dt in ("float32", "float64")}


@st.composite
def _hand_built_query(draw, base):
    """``base`` with drawn kinds, group and type segment ids and esi_len:
    any kinds in the prompt, [Text], text or [SEP] after it, and in a
    quarter of the draws one kind anywhere replaced by one in -1 .. K_SEP + 1."""
    n = len(base)
    esi = draw(st.integers(0, n))
    kinds = (draw(st.lists(st.integers(0, K_SEP), min_size=esi, max_size=esi))
             + draw(st.lists(st.integers(K_SEP - 2, K_SEP), min_size=n - esi,
                             max_size=n - esi)))
    if draw(st.integers(0, 3)) == 0:
        kinds[draw(st.integers(0, n - 1))] = draw(st.integers(-1, K_SEP + 1))
    seg_dtype = draw(st.sampled_from([np.int64, np.int32]))
    segs = [np.array(draw(st.lists(st.integers(-2, 3), min_size=n,
                                   max_size=n)), dtype=seg_dtype)
            for _ in range(2)]
    return dataclasses.replace(
        base, kinds=np.array(kinds, dtype=np.int8), esi_len=esi,
        group_of=segs[0], typeseg_of=segs[1])


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), dtype=st.sampled_from(["float32", "float64"]))
def test_prompt_block_bias_equals_isolation_mask(data, dtype, monkeypatch):
    """For hand-built queries in batches of one to three, the bias
    ``encode_batch`` hands the softmax (memoized prompt blocks, padding
    fix-ups) equals, byte for byte, the bias built from ``isolation_mask``
    over each whole query, whenever the encoder accepts the batch; it
    rejects a batch only for a kind outside the table or a kind other than
    [Text], text or [SEP] from esi_len on, and its memoized blocks are
    read-only."""
    vocab, enc, _ = _HAND_BUILT_ENC[dtype]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    queries = [data.draw(_hand_built_query(_rand_query(rng, vocab)[0]))
               for _ in range(data.draw(st.integers(1, 3)))]
    seen = []
    softmax = model_module._masked_softmax_inplace
    monkeypatch.setattr(model_module, "_masked_softmax_inplace",
                        lambda s, scale, bias: seen.append(bias)
                        or softmax(s, scale, bias))
    bad = any(not 0 <= k <= K_SEP for q in queries for k in q.kinds) or any(
        not K_SEP - 2 <= k <= K_SEP for q in queries
        for k in q.kinds[q.esi_len:])
    try:
        encode_batch(enc, queries)
    except DimensionMismatch:
        assert bad
        return
    assert not bad
    n = max(len(q) for q in queries)
    want = np.full((len(queries), 1, n, n), -np.inf, dtype=dtype)
    for b, q in enumerate(queries):
        m = len(q)
        allowed = isolation_mask(q.kinds, q.group_of.astype(np.int64),
                                 q.typeseg_of.astype(np.int64))
        want[b, 0, :m, :m][allowed] = 0.0
        want[b, 0, m:, 0] = 0.0
    assert seen[0].dtype == want.dtype and seen[0].tobytes() == want.tobytes()
    block = model_module._prompt_bias(np.concatenate(
        (queries[0].kinds[:queries[0].esi_len],
         queries[0].group_of[:queries[0].esi_len],
         queries[0].typeseg_of[:queries[0].esi_len]),
        dtype=np.int64).tobytes(), np.dtype(dtype))
    with pytest.raises(ValueError):
        block[...] = 0


@pytest.mark.parametrize("field", ["kinds", "group_of", "typeseg_of",
                                   "position_ids", "token_type_ids"])
def test_encode_rejects_a_segment_vector_of_the_wrong_length(field):
    rng = np.random.default_rng(71)
    vocab, enc, _ = _setup(rng)
    q, _ = _rand_query(rng, vocab)
    bad = dataclasses.replace(q, **{field: getattr(q, field)[:-1]})
    with pytest.raises(ShapeMismatch):
        encode(enc, bad)


# ------------------------------------------------------ scorer workspace

def _scaled_setup(rng, dtype):
    # Four times the init puts scores near 10 and attention far from
    # uniform, as in the batching tests above.
    vocab, enc, head = _setup(rng, layers=2, dtype=dtype)
    for params in (enc.params, head.params):
        for v in params.values():
            v *= 4.0
    return vocab, enc, head


def _batch_of(rng, vocab, size, max_groups=3):
    queries = []
    for _ in range(size):
        text, groups, _ = random_ie_case(rng, max_groups=max_groups)
        mode = _MODES[int(rng.integers(len(_MODES)))]
        queries.append(query_of(vocab, text, groups, mode=mode,
                                max_prompt_len=40, max_len=96))
    return queries


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_scorer_workspace_gives_the_scores_of_fresh_arrays(dtype):
    """Over mixed, padded batches whose size and length grow and shrink,
    ``ModelScorer.many`` (one reused workspace) gives scores bitwise equal
    to a pass that allocates every array; so does its one-query call."""
    rng = np.random.default_rng(79)
    vocab, enc, head = _scaled_setup(rng, dtype)
    scorer = ModelScorer(enc, head)
    sizes = []
    for _ in range(60):
        queries = _batch_of(rng, vocab, int(rng.integers(1, 7)),
                            int(rng.integers(1, 4)))
        zs = scorer.many(queries)
        want = score_batch(head, encode_batch(enc, queries), queries)
        sizes.append(len(queries) * max(len(q) for q in queries))
        for z, ref in zip(zs, want):
            assert z.dtype == np.dtype(dtype)
            assert z.tobytes() == ref.tobytes()
        alone = score(head, encode(enc, queries[0]), queries[0])
        assert scorer(queries[0]).tobytes() == alone.tobytes()
    steps = np.diff(sizes)
    assert (steps > 0).sum() > 10 and (steps < 0).sum() > 10
    assert all(a.dtype == np.dtype(dtype) for a in scorer.workspace.values())


def test_scorer_outputs_share_no_memory_with_the_workspace():
    """Hidden states and score matrices are fresh arrays: none shares
    memory with the workspace, and later calls leave them unchanged."""
    rng = np.random.default_rng(83)
    vocab, enc, head = _scaled_setup(rng, "float32")
    scorer = ModelScorer(enc, head)
    queries = _batch_of(rng, vocab, 4)
    hidden = encode_batch(enc, queries, workspace=scorer.workspace)
    zs = scorer.many(queries)
    kept = [hidden.copy()] + [z.copy() for z in zs]
    assert scorer.workspace
    for out in [hidden] + zs:
        for buf in scorer.workspace.values():
            assert not np.shares_memory(out, buf)
    for _ in range(5):
        scorer.many(_batch_of(rng, vocab, int(rng.integers(1, 6))))
    for out, copy in zip([hidden] + zs, kept):
        assert out.tobytes() == copy.tobytes()


def test_scorer_workspace_is_reused_at_the_same_or_a_smaller_shape():
    """A call at the largest shape seen, or below it, takes views of the
    arrays already there and allocates no new workspace array."""
    rng = np.random.default_rng(89)
    vocab, enc, head = _scaled_setup(rng, "float32")
    scorer = ModelScorer(enc, head)
    big = _batch_of(rng, vocab, 5)
    scorer.many(big)
    arrays = dict(scorer.workspace)
    scorer.many(big)
    for size in (1, 3, 5):
        scorer.many(big[:size])
        scorer(big[size - 1])
    assert scorer.workspace.keys() == arrays.keys()
    assert all(scorer.workspace[k] is a for k, a in arrays.items())


def test_training_passes_ignore_a_workspace():
    """A pass that keeps a backward cache writes nothing into a workspace
    and returns the cache a pass without one returns."""
    rng = np.random.default_rng(97)
    vocab, enc, _ = _scaled_setup(rng, "float32")
    queries = _batch_of(rng, vocab, 3)
    workspace = {}
    hidden, cache = encode_batch(enc, queries, want_cache=True,
                                 workspace=workspace)
    ref_hidden, ref_cache = encode_batch(enc, queries, want_cache=True)
    assert workspace == {}
    assert hidden.tobytes() == ref_hidden.tobytes()
    for got, want in zip(cache["layers"], ref_cache["layers"]):
        for key in ("a", "q4", "k4", "v4", "attn", "ctx", "b2", "gact"):
            assert got[key].tobytes() == want[key].tobytes()


# ------------------------------------------------------------ GELU kernel

def _gelu_grid():
    """4M evenly spaced points on [-12, 12] and 10^6 N(0, 1) samples, in
    float32, in chunks."""
    grid = np.linspace(-12.0, 12.0, 4_000_000, dtype=np.float32)
    normal = np.random.default_rng(101).standard_normal(1_000_000)
    for chunk in np.array_split(grid, 4) + [normal.astype(np.float32)]:
        yield chunk


def test_float32_phi_is_within_3e7_of_ndtr():
    worst = 0.0
    for x in _gelu_grid():
        _, (_, phi) = model_module._gelu(x)
        assert phi.dtype == np.float32
        ref = ndtr(x.astype(np.float64))
        worst = max(worst, float(np.abs(phi.astype(np.float64) - ref).max()))
    assert worst <= 3e-7


def test_float32_gelu_is_within_4_ulp_for_nonnegative_x():
    worst = 0.0
    for x in _gelu_grid():
        x = x[x >= 0]
        if not x.size:
            continue
        y, _ = model_module._gelu(x)
        assert y.dtype == np.float32
        x64 = x.astype(np.float64)
        ref = x64 * ndtr(x64)
        ulp = np.spacing(ref.astype(np.float32)).astype(np.float64)
        worst = max(worst, float((np.abs(y - ref) / ulp).max()))
    assert worst <= 4.0


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_gelu_phi_is_exact_at_infinities_and_nan(dtype):
    x = np.array([-np.inf, np.inf, np.nan, 0.0], dtype=dtype)
    with np.errstate(invalid="ignore"):  # -inf * 0
        _, (_, phi) = model_module._gelu(x)
    assert phi.dtype == np.dtype(dtype)
    assert phi[0] == 0.0 and phi[1] == 1.0 and np.isnan(phi[2])
    assert phi[3] == 0.5


def test_float32_gelu_warns_nothing_at_the_largest_floats():
    big = np.finfo(np.float32).max
    x = np.array([-big, big, -1e30, 1e30], dtype=np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y, (_, phi) = model_module._gelu(x)
    assert y.dtype == phi.dtype == np.float32
    assert phi.tolist() == [0.0, 1.0, 0.0, 1.0]
    assert y[1] == big and y[3] == np.float32(1e30)


def test_float64_gelu_is_scipy_erf_bitwise():
    """float64 keeps the reference formula: Phi from scipy's erf."""
    x = np.random.default_rng(103).standard_normal(10_000) * 4.0
    phi = erf(x * (1.0 / math.sqrt(2.0)))
    phi += 1.0
    phi *= 0.5
    y, (cached_x, got_phi) = model_module._gelu(x)
    assert cached_x is x
    assert got_phi.tobytes() == phi.tobytes()
    assert y.tobytes() == (x * phi).tobytes()
