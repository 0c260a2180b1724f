import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy.special import expit, logit

from conftest import TYPE_LABELS, flat_vocab, query_of, random_ie_case
from spanlink.data import PathElement, path_key
from spanlink.decoding import (
    ClsDecision,
    cls_products,
    decode_cls_multi,
    decode_ie,
    load_grids,
    oracle_decode,
    save_grids,
)
from spanlink import decoding as decoding_module
from spanlink.decoding import _sigmoid
from spanlink.engine import LevelPlan, merge_results
from spanlink.errors import (
    BadGridFile,
    NoCandidates,
    NonFiniteScores,
    SpanlinkError,
)
from spanlink.query import PrefixGroup
from spanlink.schema import LevelMode


def _rand_scores(rng, query, hit_rate=0.35):
    z = np.where(query.scoring_mask,
                 rng.standard_normal(query.scoring_mask.shape), -np.inf)
    # bias some cells positive so decodes are non-trivial
    z[query.scoring_mask] += (rng.random(int(query.scoring_mask.sum()))
                              < hit_rate) * 2.0
    return z


def _cls_query(vocab, labels=("alpha", "beta", "gamma"),
               mode=LevelMode.CLASSIFY_SINGLE):
    return query_of(vocab, "ant bee", [PrefixGroup((), tuple(labels))],
                    mode=mode)


def _marker(q, group, label):
    """Query position of the [T] marker of ``label`` under ``group``."""
    return next(m.pos for m in q.type_markers
                if (m.group, m.label) == (group, label))


def _decode_single(z, q):
    """The engine's single-label decision per group of ``q``:
    ``merge_results`` over the query's ``cls_products``."""
    plan = LevelPlan(level=len(q.groups[0].path) + 1,
                     mode=LevelMode.CLASSIFY_SINGLE, groups=q.groups,
                     queries=[q])
    merged = merge_results(plan, [cls_products(z, q)], 0.9)
    return tuple(
        ClsDecision(group=g, labels=tuple(
            el.label for el in merged[path_key(group.path)]))
        for g, group in enumerate(q.groups))


# ----------------------------------------------------------------- linking

def test_decode_matches_oracle_randomized():
    rng = np.random.default_rng(21)
    vocab = flat_vocab()
    for _ in range(60):
        text, groups, _ = random_ie_case(rng)
        q = query_of(vocab, text, groups)
        z = _rand_scores(rng, q)
        delta = float(rng.choice([-1.0, 0.0, 1.0]))
        assert decode_ie(z, q, delta) == oracle_decode(z, q, delta)


@st.composite
def _sparse_ie_case(draw):
    """A query with up to three groups and a score matrix whose valid cells
    all sit below delta except a few drawn hits.  Each draw picks a span
    (i, j) and a [T] marker k and lights some of its three cells (head-tail,
    head-[T], [T]-tail) at delta exactly or above it, so markers with no
    head hit or no tail hit and single hit cells all occur."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    text, groups, _ = random_ie_case(rng, max_groups=3)
    q = query_of(flat_vocab(), text, groups, max_prompt_len=64, max_len=128)
    delta = draw(st.sampled_from([-1.0, 0.0, 0.5]))
    z = np.where(q.scoring_mask, delta - 1.0, -np.inf)
    text_pos = st.integers(q.text_start, q.text_start + q.text_len - 1)
    marker_pos = st.sampled_from([m.pos for m in q.type_markers])
    lit = st.sets(st.sampled_from(range(3)), min_size=1)
    for i, j, k, cells in draw(st.lists(
            st.tuples(text_pos, text_pos, marker_pos, lit), max_size=8)):
        for c in cells:
            r, col = ((i, j), (i, k), (k, j))[c]
            if q.scoring_mask[r, col]:
                z[r, col] = draw(st.sampled_from([delta, delta + 1.0]))
    return q, z, delta


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_sparse_ie_case())
def test_decode_matches_oracle_on_sparse_hits(case):
    q, z, delta = case
    assert decode_ie(z, q, delta) == oracle_decode(z, q, delta)


def test_decode_single_hit_triplet_at_delta():
    # one head-tail cell plus its two marker cells, all exactly at delta:
    # the comparison is inclusive, so the span is emitted
    vocab = flat_vocab()
    q = query_of(vocab, "ant bee cat", [PrefixGroup((), ("alpha", "beta"))])
    m = _marker(q, 0, "beta")
    t = q.text_start
    z = np.where(q.scoring_mask, -1.0, -np.inf)
    z[t + 1, t + 2] = z[t + 1, m] = z[m, t + 2] = 0.25
    spans = decode_ie(z, q, 0.25)
    assert [(s.label, s.surface) for s in spans] == [("beta", "bee cat")]
    assert spans == oracle_decode(z, q, 0.25)
    assert decode_ie(z, q, np.nextafter(0.25, 1.0)) == []


def test_decode_requires_all_three_links():
    vocab = flat_vocab()
    q = query_of(vocab, "ant bee", [PrefixGroup((), ("alpha",))])
    m = q.type_markers[0].pos
    t = q.text_start
    z = np.full((len(q), len(q)), -np.inf)
    z[q.scoring_mask] = -5.0
    z[t, t + 1] = 5.0           # head-tail alone: not enough
    assert decode_ie(z, q, 0.0) == []
    z[t, m] = 5.0               # + head-type: still not enough
    assert decode_ie(z, q, 0.0) == []
    z[m, t + 1] = 5.0           # + type-tail: now a span
    spans = decode_ie(z, q, 0.0)
    assert len(spans) == 1
    s = spans[0]
    assert (s.label, s.surface, s.start, s.end) == ("alpha", "ant bee", 0, 7)


def test_decode_monotone_in_delta():
    rng = np.random.default_rng(22)
    vocab = flat_vocab()
    for _ in range(20):
        text, groups, _ = random_ie_case(rng)
        q = query_of(vocab, text, groups)
        z = _rand_scores(rng, q)
        lo = {(s.group, s.label, s.i, s.j) for s in decode_ie(z, q, -0.5)}
        hi = {(s.group, s.label, s.i, s.j) for s in decode_ie(z, q, 0.5)}
        assert hi <= lo


def test_decoded_spans_stay_inside_text():
    rng = np.random.default_rng(23)
    vocab = flat_vocab()
    for _ in range(20):
        text, groups, _ = random_ie_case(rng)
        q = query_of(vocab, text, groups)
        z = _rand_scores(rng, q, hit_rate=0.9)
        for s in decode_ie(z, q, 0.0):
            assert q.text_start <= s.i <= s.j < q.text_start + q.text_len
            assert text[s.start:s.end] == s.surface


def test_decode_ie_on_cls_query_finds_nothing():
    vocab = flat_vocab()
    q = _cls_query(vocab)
    z = np.full((len(q), len(q)), 10.0)
    # scoring mask only contains ([CLST], [T]) cells; no text pairs exist
    assert decode_ie(np.where(q.scoring_mask, z, -np.inf), q, 0.0) == []


# ---------------------------------------------------------- classification

def test_cls_single_prefers_larger_product():
    vocab = flat_vocab()
    q = _cls_query(vocab)
    j = q.clst_pos
    z = np.full((len(q), len(q)), -np.inf)
    a, b, c = (_marker(q, 0, lab) for lab in ("alpha", "beta", "gamma"))
    z[j, a], z[a, j] = logit(0.9), logit(0.8)    # product 0.72
    z[j, b], z[b, j] = logit(0.95), logit(0.6)   # product 0.57
    z[j, c], z[c, j] = logit(0.5), logit(0.5)    # product 0.25
    out = _decode_single(z, q)
    assert out == (ClsDecision(group=0, labels=("alpha",)),)
    prods = {lab: p for _, lab, p in cls_products(z, q)}
    assert abs(prods["alpha"] - 0.72) < 1e-9
    assert abs(prods["beta"] - 0.57) < 1e-9


def test_cls_single_single_candidate_wins_regardless():
    vocab = flat_vocab()
    q = _cls_query(vocab, labels=("alpha",))
    z = np.full((len(q), len(q)), -50.0)
    out = _decode_single(z, q)
    assert out[0].labels == ("alpha",)


def test_cls_single_tie_breaks_to_lowest_index():
    vocab = flat_vocab()
    q = _cls_query(vocab, labels=("beta", "alpha"))
    z = np.zeros((len(q), len(q)))
    out = _decode_single(z, q)
    # all products equal -> first candidate in query order wins
    assert out[0].labels == ("beta",)


def test_cls_single_rejects_extract_query():
    vocab = flat_vocab()
    q = query_of(vocab, "ant", [PrefixGroup((), ("alpha",))])
    with pytest.raises(NoCandidates):
        cls_products(np.zeros((len(q), len(q))), q)


def test_cls_single_shift_invariance_with_margin():
    # adding a constant to every score preserves the argmax as long as the
    # runner-up is not within the sensitivity band of the shift
    rng = np.random.default_rng(24)
    vocab = flat_vocab()
    q = _cls_query(vocab, labels=("alpha", "beta", "gamma", "delta"))
    for _ in range(200):
        z = np.where(q.scoring_mask, rng.standard_normal((len(q), len(q))) * 2,
                     -np.inf)
        prods = sorted(p for _, _, p in cls_products(z, q))
        gap = prods[-1] - prods[-2]
        c = float(rng.uniform(-1, 1))
        # |d sigmoid| <= 1/4 per direction; a crude product bound is |c|/2
        if abs(c) >= gap:
            continue
        base = _decode_single(z, q)
        shifted = _decode_single(np.where(q.scoring_mask, z + c, -np.inf), q)
        if gap > 2 * abs(c):
            assert base == shifted


def test_cls_single_agrees_with_merge_argmax():
    # The engine's single-label merge agrees with the argmax computed apart
    # with expit: largest product, exact ties to the earliest candidate in
    # group order.  Scores drawn from three values make exact ties common.
    rng = np.random.default_rng(26)
    vocab = flat_vocab()
    ties = 0
    for _ in range(300):
        groups = []
        for g in range(int(rng.integers(1, 4))):
            path = () if g == 0 else (PathElement(TYPE_LABELS[g], 0, 3, "ant"),)
            k = int(rng.integers(1, len(TYPE_LABELS) + 1))
            labels = tuple(rng.permutation(TYPE_LABELS)[:k].tolist())
            groups.append(PrefixGroup(path, labels))
        q = query_of(vocab, "ant bee", groups, mode=LevelMode.CLASSIFY_SINGLE,
                     max_prompt_len=64, max_len=96)
        if rng.random() < 0.5:
            z = rng.choice([-1.0, 0.0, 2.0], size=(len(q), len(q)))
        else:
            z = rng.standard_normal((len(q), len(q))) * 3
        j = q.clst_pos
        want = []
        for g, group in enumerate(q.groups):
            probs = [float(expit(z[j, m.pos])) * float(expit(z[m.pos, j]))
                     for m in q.type_markers if m.group == g]
            best = max(range(len(probs)), key=lambda i: (probs[i], -i))
            want.append(ClsDecision(group=g, labels=(group.types[best],)))
            ties += probs.count(max(probs)) > 1
        assert _decode_single(z, q) == tuple(want)
    assert ties > 0


def test_cls_multi_strict_threshold():
    vocab = flat_vocab()
    q = _cls_query(vocab, labels=("alpha", "beta"),
                   mode=LevelMode.CLASSIFY_MULTI)
    j = q.clst_pos
    a = _marker(q, 0, "alpha")
    b = _marker(q, 0, "beta")
    z = np.full((len(q), len(q)), -np.inf)
    z[j, a], z[a, j] = logit(0.95), logit(0.95)
    z[j, b], z[b, j] = logit(0.95), logit(0.85)
    out = decode_cls_multi(z, q, delta=0.9)
    assert out == (ClsDecision(group=0, labels=("alpha",)),)
    # exactly at the threshold is excluded (strict comparison)
    z[j, a], z[a, j] = logit(0.9), logit(0.9)
    assert decode_cls_multi(z, q, delta=0.9)[0].labels == ()


def test_cls_multi_matches_set_builder_oracle():
    rng = np.random.default_rng(25)
    vocab = flat_vocab()
    labels = ("alpha", "beta", "gamma", "delta")
    q = _cls_query(vocab, labels=labels, mode=LevelMode.CLASSIFY_MULTI)
    j = q.clst_pos
    for _ in range(100):
        z = np.where(q.scoring_mask, rng.standard_normal((len(q), len(q))) * 4,
                     -np.inf)
        want = tuple(
            m.label for m in q.type_markers
            if expit(z[j, m.pos]) > 0.9 and expit(z[m.pos, j]) > 0.9
        )
        assert decode_cls_multi(z, q)[0].labels == want


@pytest.mark.parametrize("decoder", [
    _decode_single, cls_products,
    lambda z, q: decode_cls_multi(z, q, 0.9),
])
def test_cls_decoders_reject_nan(decoder):
    vocab = flat_vocab()
    q = _cls_query(vocab)
    with pytest.raises(NonFiniteScores):
        decoder(np.full((len(q), len(q)), np.nan), q)
    z = np.where(q.scoring_mask, 0.0, -np.inf)
    decoder(z, q)  # -inf is the mask value and stays legal
    z[q.clst_pos, q.type_markers[0].pos] = np.nan
    with pytest.raises(NonFiniteScores):
        decoder(z, q)


def _same_bits(got, want):
    """Elementwise bitwise equality, NaN equal to NaN."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype
    return bool(np.all((got.view(f"u{got.itemsize}") == want.view(f"u{want.itemsize}"))
                       | (np.isnan(got) & np.isnan(want))))


def _edge_floats(dtype):
    info = np.finfo(dtype)
    tiny = info.smallest_subnormal
    edges = [0.0, np.inf, np.nan, tiny, 2 * tiny, info.tiny - tiny, info.tiny,
             info.eps, 1.0, info.max]
    edges += [88.7, 103.97] if dtype == np.float32 else [709.0, 709.78, 745.2]
    out = np.array(edges, dtype=dtype)
    with np.errstate(over="ignore"):
        out = np.concatenate([out, np.nextafter(out, dtype(np.inf)),
                              np.nextafter(out, dtype(-np.inf))])
    return np.concatenate([out, -out])


@pytest.mark.parametrize("dtype, count", [(np.float32, 10**6),
                                          (np.float64, 10**5)])
def test_sigmoid_is_bitwise_expit(dtype, count):
    """The decoders' sigmoid equals ``scipy.special.expit`` bit for bit, in
    the input's dtype, on random bit patterns, random scores and the edges:
    zeros, infinities, NaN, subnormals and where exp overflows or the sigmoid
    rounds to 0 or 1."""
    rng = np.random.default_rng(31)
    uint = np.uint32 if dtype == np.float32 else np.uint64
    x = np.concatenate([
        rng.integers(0, np.iinfo(uint).max, size=count // 2, dtype=uint,
                     endpoint=True).view(dtype),
        (rng.standard_normal(count - count // 2) * 30).astype(dtype),
        _edge_floats(dtype),
    ])
    sigmoid = _sigmoid()
    got = [sigmoid(v) for v in x]
    assert {type(g) for g in got} == {dtype}
    with np.errstate(all="ignore"):
        want = expit(x)
    assert _same_bits(np.array(got, dtype=dtype), want)
    assert _same_bits(sigmoid(dtype(0.3)), expit(dtype(0.3)))


def _no_library(name):
    raise OSError("no C library in this process")


@pytest.mark.parametrize("cdll", [
    pytest.param(_no_library, id="no-library"),
    pytest.param(lambda name: object(), id="no-symbol"),
])
def test_sigmoid_falls_back_to_expit(monkeypatch, cdll):
    """Without ``expf``/``exp`` in the process the decoders use expit, and
    decide exactly as the C library path does."""
    rng = np.random.default_rng(32)
    vocab = flat_vocab()
    single = _cls_query(vocab, labels=("alpha", "beta", "gamma", "delta"))
    multi = _cls_query(vocab, labels=("alpha", "beta", "gamma", "delta"),
                       mode=LevelMode.CLASSIFY_MULTI)
    cases = [(q, np.where(q.scoring_mask, rng.standard_normal((len(q), len(q))) * 4,
                          -np.inf).astype(dtype))
             for q in (single, multi) for dtype in (np.float32, np.float64)
             for _ in range(20)]

    def decode_all():
        return [(cls_products(z, q), _decode_single(z, q),
                 decode_cls_multi(z, q, 0.5)) for q, z in cases]

    want = decode_all()
    monkeypatch.setattr(decoding_module.ctypes, "CDLL", cdll)
    _sigmoid.cache_clear()
    try:
        assert _sigmoid() is expit
        assert decode_all() == want
    finally:
        monkeypatch.undo()
        _sigmoid.cache_clear()
    assert _sigmoid() is not expit


def test_decode_ie_rejects_nan():
    vocab = flat_vocab()
    q = query_of(vocab, "ant bee", [PrefixGroup((), ("alpha",))])
    z = np.where(q.scoring_mask, 0.0, -np.inf)
    assert decode_ie(z, q) != []
    z[q.text_start, q.text_start] = np.nan
    with pytest.raises(NonFiniteScores) as info:
        decode_ie(z, q)
    assert info.value.code == "decode.NonFiniteScores"


# ------------------------------------------------------------- grid files

def test_grids_round_trip(tmp_path):
    rng = np.random.default_rng(26)
    mats = [rng.standard_normal((3, 5)).astype(np.float32),
            np.full((2, 2), -np.inf, dtype=np.float32),
            rng.standard_normal((7, 7)).astype(np.float32)]
    path = tmp_path / "scores.grid"
    save_grids(path, mats)
    loaded = load_grids(path)
    assert len(loaded) == 3
    for a, b in zip(mats, loaded):
        assert a.shape == b.shape
        assert np.array_equal(a, b)


def test_grids_reject_truncation(tmp_path):
    path = tmp_path / "scores.grid"
    save_grids(path, [np.zeros((4, 4), dtype=np.float32)])
    blob = path.read_bytes()
    path.write_bytes(blob[:-3])
    with pytest.raises(BadGridFile):
        load_grids(path)
    path.write_bytes(blob[:4])
    with pytest.raises(BadGridFile):
        load_grids(path)


def test_grids_reject_header_larger_than_file(tmp_path):
    # a forged 100000 x 100000 header would ask for a 40 GB read
    path = tmp_path / "scores.grid"
    save_grids(path, [np.zeros((2, 2), dtype=np.float32)])
    path.write_bytes(path.read_bytes()
                     + np.array([100000, 100000], dtype="<u4").tobytes()
                     + b"\x00" * 64)
    with pytest.raises(BadGridFile):
        load_grids(path)


def _grid_blob(tmp_path):
    path = tmp_path / "clean.grid"
    save_grids(path, [np.arange(6, dtype=np.float32).reshape(2, 3),
                      np.full((3, 3), -np.inf, dtype=np.float32)])
    return path.read_bytes()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(st.tuples(st.integers(0, 79), st.integers(0, 255)),
                      max_size=6),
       cut=st.integers(0, 80), tail=st.binary(max_size=16))
def test_mutated_grid_file_loads_or_raises_spanlink_error(tmp_path, edits,
                                                          cut, tail):
    blob = bytearray(_grid_blob(tmp_path))
    for pos, byte in edits:
        if pos < len(blob):
            blob[pos] = byte
    path = tmp_path / "mutated.grid"
    path.write_bytes(bytes(blob[:cut]) + tail)
    try:
        load_grids(path)
    except SpanlinkError:
        pass


def test_decode_ie_reads_only_scored_cells():
    """Grid files may hold finite scores outside the scoring mask: in the
    lower triangle, in the prompt, between markers.  decode_ie must read only
    the scored cells, so it still equals the brute-force oracle."""
    rng = np.random.default_rng(73)
    vocab = flat_vocab()
    found = 0
    for _ in range(400):
        text, groups, _ = random_ie_case(rng, max_groups=3)
        q = query_of(vocab, text, groups, max_prompt_len=40, max_len=96)
        z = rng.standard_normal((len(q), len(q))).astype(np.float32)
        delta = float(rng.choice([-0.5, 0.0, 0.5, 1.0]))
        want = oracle_decode(z, q, delta)
        assert decode_ie(z, q, delta) == want
        found += len(want)
    assert found > 1000


_DECODERS = {
    LevelMode.EXTRACT: decode_ie,
    LevelMode.CLASSIFY_SINGLE: _decode_single,
    LevelMode.CLASSIFY_MULTI: decode_cls_multi,
}


@pytest.mark.parametrize("mode", list(_DECODERS), ids=lambda m: m.value)
def test_nan_counts_only_in_scored_cells(mode):
    """NaN in a cell no rule reads decodes just as -inf in that cell does;
    NaN in any scored cell raises, for every decoder."""
    rng = np.random.default_rng(107)
    vocab = flat_vocab()
    decoder = _DECODERS[mode]
    for _ in range(4):
        text, groups, _ = random_ie_case(rng, max_groups=2)
        q = query_of(vocab, text, groups, mode=mode)
        z = _rand_scores(rng, q)
        if mode is not LevelMode.EXTRACT:
            z *= 4.0  # some labels clear the 0.9 threshold
        want = decoder(z, q)
        for i, j in zip(*np.nonzero(~q.scoring_mask)):
            z2 = z.copy()
            z2[i, j] = np.nan
            assert decoder(z2, q) == want
        for i, j in zip(*np.nonzero(q.scoring_mask)):
            z2 = z.copy()
            z2[i, j] = np.nan
            with pytest.raises(NonFiniteScores):
                decoder(z2, q)


def test_grid_file_with_nan_in_any_cell_is_rejected(tmp_path):
    """A grid file stores whole matrices with -inf in the cells not scored,
    so NaN anywhere in one is a corrupt file."""
    z = np.full((3, 3), -np.inf, dtype=np.float32)
    z[0, 1] = 2.0
    path = tmp_path / "scores.grid"
    bad = z.copy()
    bad[2, 0] = np.nan
    save_grids(path, [z, bad])
    with pytest.raises(NonFiniteScores, match="grid 1 holds NaN"):
        load_grids(path)
