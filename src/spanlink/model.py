"""Encoder, rotary scoring head, circle loss, and exact gradients.

The encoder is a small pre-norm transformer over word-level tokens: token +
learned absolute position + token-type embeddings, then ``layers`` blocks of
masked multi-head attention and a GELU feed-forward, each behind a residual,
then a final LayerNorm.
Attention strictly honors the query's isolation mask (disallowed logits are
set to -inf before softmax).  Rotary embedding appears only in the scoring
head, where it turns a plain bilinear form into a relative-position-aware
one: with ``q_j = W_q h_j + b_q`` and ``k_k = W_k h_k + b_k``,

    Z[j, k] = rope(q_j, P_j) . rope(k_k, P_k) = q_j^T R(P_k - P_j) k_k

using the standard angle table ``theta_t = 10000^(-2t/d')`` over an even head
dimension d'.  Cells outside the scoring mask are forced to -inf rather than
zero so that the decoding threshold (0 for extraction) can never confuse
"masked" with "score exactly at the boundary".

Everything is plain numpy with hand-written reverse-mode backprop.  All
computation -- ``encode``, ``score``, the circle-loss gradient and both
backward passes -- runs in ``EncoderConfig.dtype``: float32 by default, float64
only for gradient checks.  Constants that meet arrays are Python floats, which
NumPy's promotion rules never let widen an array.  GELU's erf is a rational
kernel in float32 and ``scipy.special.erf`` (the reference) in float64; scipy
is imported on the first float64 GELU, so float32 models run on numpy alone.
"""

from __future__ import annotations

import functools
import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CheckpointMismatch,
    DimensionMismatch,
    OddHeadDim,
    ShapeMismatch,
)
from .query import K_SEP, K_TEXTMARK, Query, fill_scored, isolation_mask

ROPE_BASE = 10000.0
ROPE_TABLE_ROWS = 4096  # the most positions a head's rotary table covers
LN_EPS = 1e-5
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

_CHECKPOINT_MAGIC = b"SPLKCKPT"


@dataclass
class EncoderConfig:
    vocab_size: int
    d: int
    layers: int
    heads: int
    max_positions: int
    ffn_mult: int = 4
    dtype: str = "float32"

    @property
    def np_dtype(self):
        return np.float64 if self.dtype == "float64" else np.float32

    def validate(self) -> None:
        if min(self.vocab_size, self.d, self.heads, self.max_positions,
               self.ffn_mult) < 1:
            raise DimensionMismatch("encoder dimensions must be positive")
        if self.d % self.heads != 0:
            raise DimensionMismatch(f"d={self.d} not divisible by heads={self.heads}")
        if self.layers < 0:
            raise DimensionMismatch("layers must be >= 0")


@dataclass
class EncoderParams:
    config: EncoderConfig
    params: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass
class ScoringHead:
    d_in: int
    d_head: int
    params: dict[str, np.ndarray] = field(default_factory=dict)
    # dtype -> rotary (cos, sin) for positions 0 .. largest scored: constants
    # only, so parameter updates never make it stale (see _rope_rows)
    rope: dict = field(default_factory=dict, repr=False, compare=False)


def param_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every encoder tensor, in initialization order."""
    d, m = config.d, config.ffn_mult * config.d
    shapes = {
        "tok_emb": (config.vocab_size, d),
        "pos_emb": (config.max_positions, d),
        "type_emb": (4, d),
    }
    for i in range(config.layers):
        shapes[f"l{i}.ln1.g"] = shapes[f"l{i}.ln1.b"] = (d,)
        for name in ("q", "k", "v", "o"):
            shapes[f"l{i}.attn.w{name}"] = (d, d)
            shapes[f"l{i}.attn.b{name}"] = (d,)
        shapes[f"l{i}.ln2.g"] = shapes[f"l{i}.ln2.b"] = (d,)
        shapes[f"l{i}.ffn.w1"] = (d, m)
        shapes[f"l{i}.ffn.b1"] = (m,)
        shapes[f"l{i}.ffn.w2"] = (m, d)
        shapes[f"l{i}.ffn.b2"] = (d,)
    shapes["lnf.g"] = shapes["lnf.b"] = (d,)
    return shapes


def head_shapes(d_in: int, d_head: int) -> dict[str, tuple[int, ...]]:
    """Name and shape of every scoring-head tensor, in initialization order."""
    return {"q.w": (d_in, d_head), "q.b": (d_head,),
            "k.w": (d_in, d_head), "k.b": (d_head,)}


def _init_params(shapes, rng: np.random.Generator, dt) -> dict[str, np.ndarray]:
    # LayerNorm gains start at one, biases at zero, and every weight matrix
    # and embedding table at N(0, 0.02), drawn in table order.
    params = {}
    for name, shape in shapes.items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "g":
            params[name] = np.ones(shape, dtype=dt)
        elif leaf.startswith("b"):
            params[name] = np.zeros(shape, dtype=dt)
        else:
            params[name] = rng.normal(0.0, 0.02, size=shape).astype(dt)
    return params


def init_encoder(config: EncoderConfig, rng: np.random.Generator) -> EncoderParams:
    config.validate()
    return EncoderParams(config=config, params=_init_params(
        param_shapes(config), rng, config.np_dtype))


def init_head(d_in: int, d_head: int, rng: np.random.Generator,
              dtype: str = "float32") -> ScoringHead:
    if d_head % 2 != 0 or d_head < 2:
        raise OddHeadDim(f"scoring head dimension must be even, got {d_head}")
    dt = np.float64 if dtype == "float64" else np.float32
    return ScoringHead(d_in=d_in, d_head=d_head,
                       params=_init_params(head_shapes(d_in, d_head), rng, dt))


# ----------------------------------------------------------- primitives ---

def _buf(workspace, name, shape, dtype):
    """A fresh array, or a view of the workspace's flat array ``name``."""
    if workspace is None:
        return np.empty(shape, dtype)
    size = math.prod(shape)
    flat = workspace.get(name)
    if flat is None or flat.size < size or flat.dtype != dtype:
        flat = workspace[name] = np.empty(size, dtype)
    return flat[:size].reshape(shape)


def _affine(x, w, b, out):
    return np.add(np.matmul(x, w, out=out), b, out=out)


def _affine_bwd(x, dy, w, gw, gb):
    """Backward of ``_affine``: adds into ``gw`` and ``gb``, returns dL/dx."""
    gw += x.T @ dy
    gb += np.add.reduce(dy, axis=0)
    return dy @ w.T


def _row_mean(x):
    # x.mean(axis=-1, keepdims=True) bit for bit, minus np.mean's slow wrapper
    return np.divide(np.add.reduce(x, axis=-1, keepdims=True), x.shape[-1])


def _layernorm(x, g, b, out, xhat=None):
    """LayerNorm over the rows of ``x``, into ``out``, which may be ``x``."""
    xhat = np.subtract(x, _row_mean(x), out=xhat)
    inv = _row_mean(np.multiply(xhat, xhat, out=out))
    inv += LN_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    np.multiply(xhat, g, out=out)
    out += b
    return out, (xhat, inv, g)


def _layernorm_bwd(dy, cache, gg, gb):
    """Backward of ``_layernorm``: adds into ``gg`` and ``gb``, returns dL/dx."""
    xhat, inv, g = cache
    gg += np.add.reduce(dy * xhat, axis=0)
    gb += np.add.reduce(dy, axis=0)
    dxhat = dy * g
    return inv * (dxhat - _row_mean(dxhat) - xhat * _row_mean(dxhat * xhat))


# Eigen's and XLA's float32 erf(u) = u P(u^2) / Q(u^2), highest power first,
# on u clipped to [-4, 4] (beyond, erf rounds to +-1); Q < 0 on all of it.
_ERF_P = (-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
          -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
          -1.60960333262415e-02)
_ERF_Q = (-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
          -7.37332916720468e-03, -1.42647390514189e-02)


def _gelu(x, scratch=None):
    """x Phi(x) = x (1 + erf(x / sqrt 2)) / 2, erf by dtype as the module
    says, using ``(phi, t, out)`` scratch buffers or fresh arrays."""
    phi, t, out = scratch or (None, None, np.empty_like(x))
    phi = np.multiply(x, _INV_SQRT2, out=phi)
    if x.dtype == np.float32:
        np.minimum(np.maximum(phi, -4.0, out=phi), 4.0, out=phi)
        t = np.multiply(phi, phi, out=t)
        # Horner steps in out: phi *= P(t), then phi /= Q(t).
        for coefs, apply in ((_ERF_P, np.multiply), (_ERF_Q, np.divide)):
            np.multiply(t, coefs[0], out=out)
            out += coefs[1]
            for c in coefs[2:]:
                out *= t
                out += c
            apply(phi, out, out=phi)
    else:
        # deferred: scipy.special costs ~24 MB resident and float32 never uses it
        from scipy.special import erf
        erf(phi, out=phi)
    phi += 1.0
    phi *= 0.5
    return np.multiply(x, phi, out=out), (x, phi)


def _gelu_bwd(dy, cache):
    x, phi = cache
    pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
    return dy * (phi + x * pdf)


def _masked_softmax_inplace(s, scale: float, bias):
    """Row softmax of ``s * scale + bias``, computed in place in ``s``."""
    s *= scale
    s += bias
    # Short rows take their (exact) maxima faster from a transposed copy.
    s -= (np.maximum.reduce(s.transpose(3, 0, 1, 2).copy())[..., None]
          if s.shape[-1] <= 64 else np.maximum.reduce(s, axis=-1, keepdims=True))
    np.exp(s, out=s)
    s /= np.add.reduce(s, axis=-1, keepdims=True)
    return s


# -------------------------------------------------------------- encoder ---

def _checked_ids(config: EncoderConfig, queries):
    """Token, position and type ids, [3, B, n_max] (0 when padded; token id
    0 is [PAD] in every vocabulary), once each query's vectors fit it, its
    ids their tables, and its kinds from esi_len on are [Text], text or [SEP]."""
    ids = np.zeros((3, len(queries), max(len(q) for q in queries)), np.int64)
    for b, q in enumerate(queries):
        vecs = (q.kinds, q.group_of, q.typeseg_of, q.position_ids, q.token_type_ids)
        if {v.shape for v in vecs} != {(len(q),)} or not 0 <= q.esi_len <= len(q):
            raise ShapeMismatch("segment vectors or esi_len do not fit the query")
        ids[:, b, :len(q)] = q.token_ids, q.position_ids, q.token_type_ids
    tails = np.concatenate([q.kinds[q.esi_len:] for q in queries])
    for name, vals, low, size in (
            ("token ids", ids[0], 0, config.vocab_size),
            ("position ids", ids[1], 0, config.max_positions),
            ("token type ids", ids[2], 0, 4),
            ("kinds after the prompt", tails, K_TEXTMARK, K_SEP + 1)):
        # One reduction per array: viewed as unsigned, values below ``low``
        # exceed every bound.
        if np.maximum.reduce((vals - low if low else vals).view(
                f"u{vals.itemsize}"), axis=None, initial=0) >= size - low:
            raise DimensionMismatch(f"{name} run {vals.min()} .. {vals.max()}, "
                                    f"outside a table of {low} .. {size - 1}")
    return ids


@functools.lru_cache(maxsize=32)
def _prompt_bias(layout: bytes, dtype) -> np.ndarray:
    """Read-only 0/-inf bias of a prompt's kinds, groups and type segments as
    int64 bytes; only prefix and type tokens, all in the prompt, are restricted."""
    kinds, group_of, typeseg_of = np.frombuffer(layout, np.int64).reshape(3, -1)
    if kinds.size and not 0 <= kinds.min() <= kinds.max() <= K_SEP:
        raise DimensionMismatch(f"prompt kinds run {kinds.min()} .. {kinds.max()}, "
                                f"outside a table of 0 .. {K_SEP}")
    block = np.where(isolation_mask(kinds, group_of, typeseg_of),
                     dtype.type(0), dtype.type(-np.inf))
    block.setflags(write=False)
    return block


@functools.cache
def _layer_names(i: int) -> tuple[str, ...]:
    return tuple(f"l{i}.{leaf}" for leaf in _LAYER_BWD_ORDER)


def encode_batch(enc: EncoderParams, queries, want_cache: bool = False,
                 workspace=None):
    """Hidden states [B, n_max, d] for B queries in one padded pass.

    Row b holds query b in its first ``len(queries[b])`` slots; the rest are
    [PAD] slots with position and type id 0.  The isolation rules of all
    rows become one additive bias, built from memoized prompt blocks (0
    where attention is allowed, -inf where it is not, and -inf at every
    padded key), that all layers and heads share, so a query's hidden states
    do not depend on what else is in the batch.  Each padded slot attends to
    key 0 only, which keeps its softmax finite; its outputs are meaningless
    and callers drop them.  Activations go into ``workspace`` (arrays the
    caller keeps across calls) unless the pass keeps a backward cache.
    """
    cfg = enc.config
    ids = _checked_ids(cfg, queries)
    ws = None if want_cache else workspace
    p = enc.params
    (B, n), d, H, m = ids.shape[1:], cfg.d, cfg.heads, cfg.ffn_mult * cfg.d
    dh = d // H
    N = B * n
    scale = 1.0 / math.sqrt(dh)
    dt = p["tok_emb"].dtype
    bias = np.zeros((B, 1, n, n), dt)
    for b, q in enumerate(queries):
        e, k = q.esi_len, len(q)
        bias[b, 0, :e, :e] = _prompt_bias(np.concatenate(
            (q.kinds[:e], q.group_of[:e], q.typeseg_of[:e]), dtype=np.int64
        ).tobytes(), dt)
        if k < n:  # padded keys closed; padded rows open to key 0 only
            bias[b, 0, :k, k:] = bias[b, 0, k:, 1:] = -np.inf

    # Token rows stay flat, [B * n, d], so every projection is one matmul;
    # only attention sees the batch axis.  The residual stream x never comes
    # from the workspace: it becomes the returned hidden states.
    x = (p["tok_emb"][ids[0]] + p["pos_emb"][ids[1]]
         + p["type_emb"][ids[2]]).reshape(N, d)

    def scratch():
        # Every buffer a layer writes, fresh per layer in a pass that keeps a
        # cache; a name repeats where a buffer is dead before its second use.
        return [_buf(ws, name, shape, dt) for name, shape in (
            ("a", (N, d)), ("a", (N, d)), ("qkv", (N, 3 * d)),
            ("s", (B, H, n, n)), ("s", (N, m)), ("ctx", (N, d)),
            ("proj", (N, d)), ("wqkv", (d, 3 * d)), ("bqkv", (3 * d,)),
            ("ln.xhat", (N, d)), ("ln.xhat", (N, d)), ("gelu.phi", (N, m)),
            ("gelu.t", (N, m)), ("gelu.out", (N, m)))]

    layer_caches = []
    for i in range(cfg.layers):
        if i == 0 or want_cache:
            a, b2_, qkv, s, h, ctx, proj, wqkv, bqkv, ln1, ln2, *gelu = scratch()
            q4, k4, v4 = qkv.reshape(B, n, 3, H, dh).transpose(2, 0, 3, 1, 4)
        (w2, b2, w1, b1, g2, c2, wo, bo, wq, bq, wk, bk, wv, bv, g1,
         c1) = map(p.__getitem__, _layer_names(i))
        a, ln1c = _layernorm(x, g1, c1, a, ln1)
        # Joined per pass, never kept: the optimizer updates them in place.
        _affine(a, np.concatenate((wq, wk, wv), axis=1, out=wqkv),
                np.concatenate((bq, bk, bv), out=bqkv), qkv)
        attn = _masked_softmax_inplace(
            np.matmul(q4, k4.transpose(0, 1, 3, 2), out=s), scale, bias)
        np.matmul(attn, v4, out=ctx.reshape(B, n, H, dh).transpose(0, 2, 1, 3))
        x += _affine(ctx, wo, bo, proj)
        b2_, ln2c = _layernorm(x, g2, c2, b2_, ln2)
        gact, gc = _gelu(_affine(b2_, w1, b1, h), gelu)
        x += _affine(gact, w2, b2, proj)
        if want_cache:
            layer_caches.append({
                "ln1": ln1c, "a": a, "q4": q4, "k4": k4, "v4": v4,
                "attn": attn, "ctx": ctx, "ln2": ln2c, "b2": b2_,
                "gelu": gc, "gact": gact,
            })

    x, lnfc = _layernorm(x, p["lnf.g"], p["lnf.b"], x,
                         _buf(ws, "ln.xhat", (N, d), dt))

    hidden = x.reshape(B, n, d)
    if want_cache:
        lens = np.array([len(q) for q in queries])[:, None]
        return hidden, {"layers": layer_caches, "lnf": lnfc, "scale": scale,
                        "ids": ids, "real": np.arange(n) < lens}
    return hidden


def encode(enc: EncoderParams, query: Query):
    """Hidden states [n, d] for one query: ``encode_batch`` with B = 1."""
    return encode_batch(enc, [query])[0]


def _encode_bwd(enc: EncoderParams, cache, d_hidden,
                grads: dict[str, np.ndarray]) -> None:
    """Backprop a batch through the encoder, from the cache that
    ``encode_batch(..., want_cache=True)`` returned.  ``d_hidden`` is
    [B * n_max, d] and zero at padded slots, which keeps every padded
    slot's gradient zero on the way down.  Adds each parameter's gradient
    into ``grads``; the embedding tables get theirs from real slots only."""
    cfg = enc.config
    p = enc.params
    B, n = cache["real"].shape
    d, H = cfg.d, cfg.heads
    dh = d // H

    dx = _layernorm_bwd(d_hidden, cache["lnf"], grads["lnf.g"], grads["lnf.b"])
    for i in reversed(range(cfg.layers)):
        c = cache["layers"][i]
        w2, _, w1, _, _, _, wo, _, wq, _, wk, _, wv, *_ = map(
            p.__getitem__, _layer_names(i))
        (gw2, gb2, gw1, gb1, gg2, gc2, gwo, gbo, gwq, gbq, gwk, gbk, gwv, gbv,
         gg1, gc1) = map(grads.__getitem__, _layer_names(i))
        # FFN block: x2 = x1 + gelu(ln2(x1) @ w1 + b1) @ w2 + b2
        d_h = _gelu_bwd(_affine_bwd(c["gact"], dx, w2, gw2, gb2), c["gelu"])
        d_x1 = _layernorm_bwd(_affine_bwd(c["b2"], d_h, w1, gw1, gb1),
                              c["ln2"], gg2, gc2) + dx  # residual

        # Attention block: x1 = x + (attn @ v) @ wo + bo
        d_ctx = _affine_bwd(c["ctx"], d_x1, wo, gwo, gbo).reshape(
            B, n, H, dh).transpose(0, 2, 1, 3)
        attn = c["attn"]
        d_attn = d_ctx @ c["v4"].transpose(0, 1, 3, 2)
        d_s = attn * (d_attn - np.add.reduce(d_attn * attn, -1, keepdims=True))
        d_s *= cache["scale"]
        # dq, dk and dv in the forward's qkv layout, [B, n, 3, H, dh]
        d_qkv = np.empty((B, n, 3, H, dh), d_s.dtype)
        d_q4, d_k4, d_v4 = d_qkv.transpose(2, 0, 3, 1, 4)
        np.matmul(d_s, c["k4"], out=d_q4)
        np.matmul(d_s.transpose(0, 1, 3, 2), c["q4"], out=d_k4)
        np.matmul(attn.transpose(0, 1, 3, 2), d_ctx, out=d_v4)
        d_q, d_k, d_v = d_qkv.reshape(B * n, 3, d).transpose(1, 0, 2)
        a = c["a"]
        # explicit terms, not sum(): it starts from 0, and 0 + -0.0 is +0.0
        d_a = (_affine_bwd(a, d_q, wq, gwq, gbq)
               + _affine_bwd(a, d_k, wk, gwk, gbk)
               + _affine_bwd(a, d_v, wv, gwv, gbv))
        dx = d_x1 + _layernorm_bwd(d_a, c["ln1"], gg1, gc1)

    # Each table's rows are scattered into a zeroed table and then added, so
    # gradients summed over several calls associate as a sum of per-call
    # gradients does.
    real = cache["real"]
    dx = dx[real.reshape(-1)]
    for name, ids in zip(("tok_emb", "pos_emb", "type_emb"),
                         cache["ids"][:, real]):
        grads[name] += _scatter_rows(np.zeros_like(grads[name]), ids, dx)


def _scatter_rows(table, ids, rows):
    """``np.add.at(table, ids, rows)`` bit for bit, but faster, on the flat
    table: each element gets its additions in the same order."""
    d = table.shape[1]
    flat_ids = (ids[:, None] * d + np.arange(d)).reshape(-1)
    np.add.at(table.reshape(-1), flat_ids, rows.reshape(-1))
    return table


# --------------------------------------------------------- scoring head ---

def rope_tables(positions, d_head: int, dtype=np.float64):
    """Cos/sin tables for rotary embedding at the given (possibly fractional)
    positions: angle[t] = position * 10000^(-2t/d')."""
    if d_head % 2 != 0:
        raise OddHeadDim(f"rotary dimension must be even, got {d_head}")
    half = d_head // 2
    exponent = -2.0 * np.arange(half, dtype=np.float64) / d_head
    theta = np.power(ROPE_BASE, exponent)
    ang = np.asarray(positions, dtype=np.float64)[:, None] * theta[None, :]
    return np.cos(ang).astype(dtype), np.sin(ang).astype(dtype)


def _rope_rows(head: ScoringHead, positions, dtype):
    """``rope_tables(positions, head.d_head, dtype)`` by lookup in the head's
    table, rebuilt when a position outgrows it; positions outside
    [0, ROPE_TABLE_ROWS) are computed per call."""
    top = int(np.maximum.reduce(positions, initial=0)) + 1
    if top > ROPE_TABLE_ROWS or np.minimum.reduce(positions, initial=0) < 0:
        return rope_tables(positions, head.d_head, dtype)
    tables = head.rope.get(dtype)
    if tables is None or len(tables[0]) < top:
        tables = head.rope[dtype] = rope_tables(np.arange(top), head.d_head, dtype)
    return tables[0][positions], tables[1][positions]


def apply_rope(x, cos, sin):
    """Rotate consecutive pairs of x's last axis by the per-position angles."""
    xe, xo = x[..., 0::2], x[..., 1::2]
    out = np.empty_like(x)
    np.subtract(xe * cos, xo * sin, out=out[..., 0::2])
    np.add(xe * sin, xo * cos, out=out[..., 1::2])
    return out


def score_batch(head: ScoringHead, hidden: np.ndarray, queries,
                want_cache: bool = False):
    """Token-pair score matrices for the queries of one ``encode_batch``
    pass: a list of [n_i, n_i] arrays, cells outside each query's scoring
    mask set to -inf."""
    B, n = len(queries), max(len(q) for q in queries)
    if hidden.shape != (B, n, head.d_in):
        raise ShapeMismatch(
            f"hidden shape {hidden.shape} does not match {B} queries of up to "
            f"{n} tokens and head input dim {head.d_in}")
    rows = hidden.reshape(B * n, head.d_in)
    positions = np.zeros((B, n), dtype=np.int64)
    for b, query in enumerate(queries):
        positions[b, :len(query)] = query.position_ids
    hp = head.params  # q and k from one matmul, rotated as one [2, B * n, d']
    qk = rows @ np.concatenate((hp["q.w"], hp["k.w"]), axis=1)
    qk += np.concatenate((hp["q.b"], hp["k.b"]))
    cos, sin = _rope_rows(head, positions.reshape(-1), rows.dtype)
    rq, rk = apply_rope(qk.reshape(B * n, 2, -1).transpose(1, 0, 2), cos, sin)
    raw = rq.reshape(B, n, -1) @ rk.reshape(B, n, -1).transpose(0, 2, 1)
    zs = [fill_scored(query, np.full((len(query),) * 2, -np.inf, raw.dtype),
                      raw[b]) for b, query in enumerate(queries)]
    if want_cache:
        return zs, {"hidden": rows, "rq": rq, "rk": rk, "cos": cos, "sin": sin}
    return zs


def score(head: ScoringHead, hidden: np.ndarray, query: Query):
    """Token-pair score matrix [n, n] for one query: ``score_batch`` with
    B = 1; cells outside the scoring mask are -inf."""
    return score_batch(head, hidden[None], [query])[0]


def _score_bwd(head: ScoringHead, cache, d_z, grads: dict[str, np.ndarray]):
    """Backprop a batch through the head given dL/dZ as [B, n_max, n_max]
    (zero at masked and padded cells), from the cache that
    ``score_batch(..., want_cache=True)`` returned.  Adds each parameter's
    gradient into ``grads`` and returns dL/dhidden as [B * n_max, d_in]."""
    B, n = d_z.shape[:2]
    # d_rq and d_rk as one [2, B * n, d'], rotated back as score_batch rotates
    d_r = np.empty((2, B, n, head.d_head), d_z.dtype)
    np.matmul(d_z, cache["rk"].reshape(B, n, -1), out=d_r[0])
    np.matmul(d_z.transpose(0, 2, 1), cache["rq"].reshape(B, n, -1), out=d_r[1])
    # the transposed rotation is the rotation by minus the angle
    d_q, d_k = apply_rope(d_r.reshape(2, B * n, -1), cache["cos"], -cache["sin"])
    hidden, hp = cache["hidden"], head.params
    return (_affine_bwd(hidden, d_q, hp["q.w"], grads["q.w"], grads["q.b"])
            + _affine_bwd(hidden, d_k, hp["k.w"], grads["k.w"], grads["k.b"]))


# ------------------------------------------------------------ circle loss ---

def circle_loss(z: np.ndarray, target: np.ndarray, valid: np.ndarray) -> float:
    """Multi-label loss over valid cells: negatives are pushed below zero,
    positives above, coupled through two log-sum-exp terms:

        L = log(1 + sum_neg e^z) + log(1 + sum_pos e^-z)
    """
    return circle_loss_grad(z, target, valid)[0]


def circle_loss_grad(z: np.ndarray, target: np.ndarray, valid: np.ndarray):
    """Loss plus dL/dZ (zero outside the valid mask)."""
    if z.shape != target.shape or z.shape != valid.shape:
        raise ShapeMismatch("scores, target and valid mask must share a shape")
    d_z = np.zeros_like(z)
    loss = 0.0
    # negatives enter as z, positives as -z; a sign of +-1 changes no bit
    for cells, sign in ((valid & (target == 0), 1.0),
                        (valid & (target == 1), -1.0)):
        v = sign * z[cells]
        if v.size:
            m = max(float(v.max()), 0.0)
            e = np.exp(v - m)
            denom = np.exp(-m) + e.sum()
            loss += m + float(np.log(denom))
            d_z[cells] = sign * (e / denom)
    return loss, d_z


# ------------------------------------------------------------- backward ---

# Per-layer encoder tensors in the order ``_encode_bwd`` reaches them.
_LAYER_BWD_ORDER = (
    "ffn.w2", "ffn.b2", "ffn.w1", "ffn.b1", "ln2.g", "ln2.b",
    "attn.wo", "attn.bo", "attn.wq", "attn.bq", "attn.wk", "attn.bk",
    "attn.wv", "attn.bv", "ln1.g", "ln1.b",
)


def zero_grads(enc: EncoderParams, head: ScoringHead):
    """Zeroed ``(encoder_grads, head_grads)`` mirroring the parameter dicts."""
    return tuple({name: np.zeros_like(t) for name, t in params.items()}
                 for params in (enc.params, head.params))


def backward_batch(enc: EncoderParams, head: ScoringHead, queries, targets,
                   grads=None):
    """Forward pass plus exact reverse-mode gradients for B queries in one
    padded pass.

    The loss is the sum of each query's circle loss on its own unpadded Z.
    Gradients are added into ``grads``, an ``(encoder_grads, head_grads)``
    pair such as the training loop's views of its flat gradient buffer, or
    into a fresh ``zero_grads`` pair.  Returns ``(loss, encoder_grads,
    head_grads)``.
    """
    enc_grads, head_grads = zero_grads(enc, head) if grads is None else grads
    hidden, cache = encode_batch(enc, queries, want_cache=True)
    zs, score_cache = score_batch(head, hidden, queries, want_cache=True)
    B, n = hidden.shape[:2]
    d_z = np.zeros((B, n, n), dtype=hidden.dtype)
    loss = 0.0
    for b, (query, z, target) in enumerate(zip(queries, zs, targets)):
        m = len(query)
        # not query.scoring_mask: training keeps queries, and it is n x n
        valid = fill_scored(query, np.zeros((m, m), dtype=bool), True)
        part, d_z[b, :m, :m] = circle_loss_grad(z, target, valid)
        loss += part
    d_hidden = _score_bwd(head, score_cache, d_z, head_grads)
    _encode_bwd(enc, cache, d_hidden, enc_grads)
    return loss, enc_grads, head_grads


def backward(enc: EncoderParams, head: ScoringHead, query: Query,
             target: np.ndarray):
    """Forward pass plus exact reverse-mode gradients for one query:
    ``backward_batch`` with B = 1.

    Returns ``(loss, encoder_grads, head_grads)`` where the grad dicts mirror
    the parameter dicts key for key.
    """
    return backward_batch(enc, head, [query], [target])


# ------------------------------------------------------------ checkpoint ---

def save_checkpoint(path, enc: EncoderParams, head: ScoringHead) -> None:
    """Versioned binary checkpoint.

    Layout: 8 magic bytes ``SPLKCKPT``, little-endian u32 header length, a
    UTF-8 JSON header (format version, encoder/head dims, ordered tensor
    manifest), then each tensor as row-major little-endian float32 in
    manifest order.  The manifest is sorted by name, so the byte layout is a
    deterministic function of the parameters.
    """
    names = [f"enc.{k}" for k in sorted(enc.params)] \
        + [f"head.{k}" for k in sorted(head.params)]
    tensors = {f"enc.{k}": v for k, v in enc.params.items()}
    tensors.update({f"head.{k}": v for k, v in head.params.items()})
    header = {
        "format": 1,
        "encoder": {
            "vocab_size": enc.config.vocab_size, "d": enc.config.d,
            "layers": enc.config.layers, "heads": enc.config.heads,
            "max_positions": enc.config.max_positions,
            "ffn_mult": enc.config.ffn_mult,
            "final_norm": True,  # the final LayerNorm always runs
        },
        "head": {"d_in": head.d_in, "d_head": head.d_head},
        "tensors": [[name, list(tensors[name].shape)] for name in names],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for name in names:
            fh.write(np.ascontiguousarray(tensors[name], dtype="<f4").tobytes())


_ENCODER_DIMS = ("vocab_size", "d", "layers", "heads", "max_positions",
                 "ffn_mult")


def _dims_from_header(header) -> tuple[EncoderConfig, int, int]:
    """Encoder config and head dims declared by a checkpoint header, each
    checked for type and range before anything is sized from it."""
    if not isinstance(header, dict):
        raise CheckpointMismatch("header is not a JSON object")
    if header.get("format") != 1:
        raise CheckpointMismatch(f"unsupported format {header.get('format')!r}")
    enc = header.get("encoder")
    head = header.get("head")
    if not isinstance(enc, dict) or set(enc) != {*_ENCODER_DIMS, "final_norm"}:
        raise CheckpointMismatch("header has no valid encoder section")
    if not isinstance(head, dict) or set(head) != {"d_in", "d_head"}:
        raise CheckpointMismatch("header has no valid head section")
    dims = [enc[k] for k in _ENCODER_DIMS] + [head["d_in"], head["d_head"]]
    if any(type(v) is not int or v < 0 for v in dims):
        raise CheckpointMismatch("header dims must be non-negative integers")
    if enc["final_norm"] is not True:
        raise CheckpointMismatch(
            f"final_norm is {enc['final_norm']!r}; the encoder always ends in "
            f"its final LayerNorm")
    config = EncoderConfig(**{k: enc[k] for k in _ENCODER_DIMS})
    try:
        config.validate()
    except DimensionMismatch as exc:
        raise CheckpointMismatch(f"bad encoder dims: {exc}") from None
    if head["d_in"] != config.d or head["d_head"] < 2 or head["d_head"] % 2:
        raise CheckpointMismatch(
            f"bad head dims d_in={head['d_in']} d_head={head['d_head']}")
    return config, head["d_in"], head["d_head"]


def load_checkpoint(path) -> tuple[EncoderParams, ScoringHead]:
    """Read a checkpoint written by ``save_checkpoint``.  Any file that is
    not one -- truncated, forged, or with trailing bytes -- raises
    ``CheckpointMismatch`` before its declared sizes are trusted, and so
    does a NaN or infinite weight."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(8)
        if magic != _CHECKPOINT_MAGIC:
            raise CheckpointMismatch(f"bad magic bytes {magic!r}")
        raw = fh.read(4)
        if len(raw) != 4:
            raise CheckpointMismatch("truncated header length")
        (hlen,) = struct.unpack("<I", raw)
        if hlen > size - fh.tell():
            raise CheckpointMismatch(f"header length {hlen} exceeds the file")
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON
            raise CheckpointMismatch(f"unreadable header: {exc}") from None
        config, d_in, d_head = _dims_from_header(header)

        # The manifest must list exactly the tensors of the declared dims, in
        # the order save_checkpoint writes them.  Every layer has tensors, so
        # a layer count above the manifest's length is rejected before it
        # can size the shape table.
        manifest = header.get("tensors")
        if not isinstance(manifest, list) or config.layers > len(manifest):
            raise CheckpointMismatch("tensor manifest does not match declared dims")
        enc_shapes = param_shapes(config)
        shapes = [(f"enc.{k}", enc_shapes[k]) for k in sorted(enc_shapes)]
        hd_shapes = head_shapes(d_in, d_head)
        shapes += [(f"head.{k}", hd_shapes[k]) for k in sorted(hd_shapes)]
        if manifest != [[name, list(shape)] for name, shape in shapes]:
            raise CheckpointMismatch("tensor manifest does not match declared dims")
        body = 4 * sum(math.prod(shape) for _, shape in shapes)
        if body != size - fh.tell():
            raise CheckpointMismatch(
                f"tensor data is {size - fh.tell()} bytes, manifest needs {body}")

        enc = EncoderParams(config=config)
        head = ScoringHead(d_in=d_in, d_head=d_head)
        for name, shape in shapes:
            nbytes = 4 * math.prod(shape)
            buf = fh.read(nbytes)
            if len(buf) != nbytes:
                raise CheckpointMismatch(f"tensor {name} truncated")
            arr = np.frombuffer(buf, dtype="<f4").reshape(shape).astype(np.float32)
            if not np.isfinite(arr).all():
                raise CheckpointMismatch(f"tensor {name} holds a non-finite "
                                         f"weight")
            space, key = name.split(".", 1)
            (enc.params if space == "enc" else head.params)[key] = arr
    return enc, head
