import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    TYPE_LABELS,
    WORDS,
    flat_vocab,
    query_of,
    random_ie_case,
    reference_masks,
)
from spanlink.data import PathElement, path_key
from spanlink.engine import ORACLE_HI, ORACLE_LO, GoldScorer
from spanlink import query as query_module
from spanlink.errors import (
    EmptyTypeSet,
    MalformedRecord,
    MisalignedSpan,
    PromptOverflow,
    TextOverflow,
    UnknownGoldType,
)
from spanlink.query import (
    K_CLS,
    K_CLST,
    K_PREFIX,
    K_SEP,
    K_TEXT,
    K_TEXTMARK,
    K_TYPE,
    PrefixGroup,
    build_target,
    esi_cost,
    fill_scored,
    isolation_mask,
    make_query,
    render_prefix,
    render_query,
    split_query,
)
from spanlink.schema import LevelMode
from spanlink.tokenizer import UNK, build_vocab, tokenize


def _mk(vocab, text, groups, mode=LevelMode.EXTRACT, budget=32, max_len=64):
    return make_query(groups, tokenize(vocab, text), text, mode, vocab,
                      budget, max_len)


def _attention(q):
    """The query's [n, n] attention rule."""
    return isolation_mask(q.kinds, q.group_of, q.typeseg_of)


def _marker(q, group, label):
    """The first [T] marker of ``label`` under ``group``, or None."""
    return next((m for m in q.type_markers
                 if (m.group, m.label) == (group, label)), None)


# --------------------------------------------------------------- rendering

def test_render_prefix_pairs_and_bare_labels():
    path = (PathElement("subject", 0, 4, "D70S"),
            PathElement("aspect", 10, 18, "pictures"))
    assert render_prefix(path) == "subject: D70S,aspect: pictures"
    bare = (PathElement("subject", 0, 4, "D70S"), PathElement("better"))
    assert render_prefix(bare) == "subject: D70S,better"
    assert render_prefix(()) == ""


def test_render_query_extract_and_cls():
    vocab = build_vocab(["x lives here"], ["A", "B"])
    q = _mk(vocab, "x lives here", [PrefixGroup((), ("A", "B"))])
    assert render_query(q) == "[CLS][P][T] A[T] B[Text] x lives here[SEP]"
    qc = _mk(vocab, "x lives here", [PrefixGroup((), ("A", "B"))],
             mode=LevelMode.CLASSIFY_SINGLE)
    assert render_query(qc) == \
        "[CLS][P][T] A[T] B[CLASSIFY][Text] x lives here[SEP]"
    qm = _mk(vocab, "x lives here", [PrefixGroup((), ("A",))],
             mode=LevelMode.CLASSIFY_MULTI)
    assert render_query(qm) == \
        "[CLS][P][T] A[MULTICLASSIFY][Text] x lives here[SEP]"


# ------------------------------------------------------------------ layout

def test_token_layout_single_group():
    vocab = build_vocab(["a b"], ["t1", "t2"])
    q = _mk(vocab, "a b", [PrefixGroup((), ("t1", "t2"))])
    kinds = list(q.kinds)
    assert kinds == [K_CLS, K_PREFIX, K_TYPE, K_TYPE, K_TYPE, K_TYPE,
                     K_TEXTMARK, K_TEXT, K_TEXT, K_SEP]
    assert [m.pos for m in q.type_markers] == [2, 4]
    assert q.esi_len == 6
    assert q.text_start == 7 and q.text_len == 2
    assert q.clst_pos is None


def test_marker_counts_match_groups_and_types():
    rng = np.random.default_rng(3)
    vocab = flat_vocab()
    for _ in range(25):
        text, groups, _ = random_ie_case(rng)
        q = query_of(vocab, text, groups)
        n_p = int((q.kinds == K_PREFIX).sum() - sum(
            len(tokenize(vocab, g.rendered).token_ids) for g in groups))
        assert n_p == len(groups)  # one [P] per group
        assert len(q.type_markers) == sum(len(g.types) for g in groups)


def test_position_ids_hand_case():
    vocab = build_vocab(["a b"], ["person", "org"])
    prefix = (PathElement("person", 0, 1, "a"),)
    q = _mk(vocab, "a b",
            [PrefixGroup((), ("org",)), PrefixGroup(prefix, ("org", "person"))],
            budget=20, max_len=40)
    pos = q.position_ids
    # group 0: [P]=1, type seg restarts at 2: [T]=2, "org"=3
    assert pos[0] == 0
    assert list(pos[1:4]) == [1, 2, 3]
    # group 1 prefix "person: a" -> [P] person : a = positions 1..4
    assert list(pos[4:8]) == [1, 2, 3, 4]
    # both type segments of group 1 restart at 5
    assert list(pos[8:10]) == [5, 6]
    assert list(pos[10:12]) == [5, 6]
    # text block: [Text]=budget, tokens follow, [SEP] last
    assert pos[q.esi_len] == 20
    assert list(pos[q.text_start:q.text_start + 2]) == [21, 22]
    assert pos[q.text_start + q.text_len] == 23


def _expected_positions(q):
    """Independent statement of the position-id rule, token by token."""
    want = []
    for i in range(len(q)):
        kind, g = int(q.kinds[i]), int(q.group_of[i])
        in_group_prefix = (q.kinds == K_PREFIX) & (q.group_of == g)
        if kind == K_CLS:
            want.append(0)
        elif kind == K_PREFIX:
            # 1-based rank inside the group's prefix, [P] included
            want.append(int(in_group_prefix[:i + 1].sum()))
        elif kind == K_TYPE:
            # right after the whole group prefix, counting up in the segment
            in_seg = q.typeseg_of[:i + 1] == q.typeseg_of[i]
            want.append(int(in_group_prefix.sum()) + int(in_seg.sum()))
        elif kind == K_CLST:
            want.append(q.max_prompt_len - 1)
        elif kind == K_TEXTMARK:
            want.append(q.max_prompt_len)
        elif kind == K_TEXT:
            want.append(q.max_prompt_len + int((q.kinds[:i + 1] == K_TEXT).sum()))
        else:
            assert kind == K_SEP
            want.append(q.max_prompt_len + int((q.kinds == K_TEXT).sum()) + 1)
    return want


@pytest.mark.parametrize("mode", list(LevelMode))
def test_position_ids_match_rule(mode):
    rng = np.random.default_rng(29)
    vocab = flat_vocab()
    for _ in range(200):
        text, groups, _ = random_ie_case(rng, max_groups=3)
        budget = int(rng.integers(40, 64))
        q = query_of(vocab, text, groups, mode=mode, max_prompt_len=budget,
                     max_len=128)
        assert q.position_ids.tolist() == _expected_positions(q)


def test_query_is_frozen_and_filled():
    vocab = flat_vocab()
    q = _mk(vocab, "ant bee", [PrefixGroup((), ("alpha",))])
    with pytest.raises(dataclasses.FrozenInstanceError):
        q.position_ids = np.zeros(len(q), dtype=np.int64)
    with pytest.raises(dataclasses.FrozenInstanceError):
        q.scoring_mask = None
    assert all(getattr(q, f.name) is not None
               for f in dataclasses.fields(q) if f.name != "clst_pos")


def test_sibling_type_segments_share_positions():
    vocab = flat_vocab()
    q = _mk(vocab, "ant bee", [PrefixGroup((), ("alpha", "beta", "gamma"))])
    starts = [int(q.position_ids[m.pos]) for m in q.type_markers]
    assert starts == [2, 2, 2]


def test_clst_sits_before_text_block():
    vocab = flat_vocab()
    q = _mk(vocab, "ant bee", [PrefixGroup((), ("alpha",))],
            mode=LevelMode.CLASSIFY_MULTI)
    assert q.clst_pos == q.esi_len - 1
    assert q.position_ids[q.clst_pos] == q.max_prompt_len - 1
    assert q.token_type_ids[q.clst_pos] == 3


def test_token_type_ids():
    vocab = build_vocab(["a"], ["t"])
    q = _mk(vocab, "a", [PrefixGroup((), ("t",))],
            mode=LevelMode.CLASSIFY_SINGLE)
    expected = {K_CLS: 0, K_PREFIX: 1, K_TYPE: 2, K_CLST: 3,
                K_TEXTMARK: 0, K_TEXT: 0, K_SEP: 0}
    for kind, tt in zip(q.kinds, q.token_type_ids):
        assert expected[int(kind)] == int(tt)


def test_esi_cost_matches_built_length():
    rng = np.random.default_rng(5)
    vocab = flat_vocab()
    for _ in range(25):
        text, groups, _ = random_ie_case(rng)
        for mode in LevelMode:
            q = query_of(vocab, text, groups, mode=mode)
            assert esi_cost(groups, mode) == q.esi_len


# --------------------------------------------------------- attention mask

def _expected_attend(q, i, j):
    """Independent statement of the isolation rules, cell by cell."""
    globals_ = {K_CLS, K_SEP, K_CLST, K_TEXTMARK, K_TEXT}
    ki, kj = int(q.kinds[i]), int(q.kinds[j])
    if ki in globals_ or kj in globals_:
        return True
    if q.group_of[i] != q.group_of[j]:
        return False
    if ki == K_TYPE and kj == K_TYPE:
        return q.typeseg_of[i] == q.typeseg_of[j]
    return True  # prefix-prefix or prefix-type inside one group


def test_attention_mask_matches_rules():
    rng = np.random.default_rng(11)
    vocab = flat_vocab()
    for _ in range(20):
        text, groups, _ = random_ie_case(rng)
        mode = [LevelMode.EXTRACT, LevelMode.CLASSIFY_SINGLE][int(rng.integers(2))]
        q = query_of(vocab, text, groups, mode=mode)
        n = len(q)
        want = np.fromfunction(
            np.vectorize(lambda i, j: _expected_attend(q, int(i), int(j))),
            (n, n), dtype=int)
        assert np.array_equal(_attention(q), want)
        assert np.array_equal(_attention(q), _attention(q).T)


def test_no_cross_group_attention():
    vocab = flat_vocab()
    prefix = (PathElement("alpha", 0, 3, "ant"),)
    q = _mk(vocab, "ant bee cat",
            [PrefixGroup((), ("alpha",)), PrefixGroup(prefix, ("beta",))],
            budget=24, max_len=48)
    g0 = np.where(q.group_of == 0)[0]
    g1 = np.where(q.group_of == 1)[0]
    assert not _attention(q)[np.ix_(g0, g1)].any()
    assert not _attention(q)[np.ix_(g1, g0)].any()
    # text rows and columns stay fully open
    trow = _attention(q)[q.text_start]
    assert trow.all()


# ------------------------------------------------------------ scoring mask

def test_scoring_mask_count_formula():
    vocab = flat_vocab()
    for m in (1, 2, 5, 9):
        text = " ".join(["ant"] * m)
        q = _mk(vocab, text, [PrefixGroup((), ("alpha",))], budget=16,
                max_len=48)
        assert int(q.scoring_mask.sum()) == m * (m + 1) // 2 + 2 * m


def test_scoring_mask_regions_brute_force():
    rng = np.random.default_rng(13)
    vocab = flat_vocab()
    for _ in range(10):
        text, groups, _ = random_ie_case(rng)
        q = query_of(vocab, text, groups)
        marker_pos = {m.pos for m in q.type_markers}
        text_pos = set(q.text_positions())
        for i in range(len(q)):
            for j in range(len(q)):
                in_text = i in text_pos and j in text_pos and i <= j
                head_type = i in text_pos and j in marker_pos
                type_tail = i in marker_pos and j in text_pos
                assert bool(q.scoring_mask[i, j]) == (
                    in_text or head_type or type_tail)


def test_scoring_mask_cls_is_2k_cells():
    vocab = flat_vocab()
    q = _mk(vocab, "ant bee", [PrefixGroup((), ("alpha", "beta", "gamma"))],
            mode=LevelMode.CLASSIFY_MULTI)
    assert int(q.scoring_mask.sum()) == 6
    for m in q.type_markers:
        assert q.scoring_mask[q.clst_pos, m.pos]
        assert q.scoring_mask[m.pos, q.clst_pos]
    # no type-type cells anywhere
    for a in q.type_markers:
        for b in q.type_markers:
            assert not q.scoring_mask[a.pos, b.pos]


# ----------------------------------------------------------------- targets

def test_build_target_three_cells_per_span():
    vocab = flat_vocab()
    text = "ant bee cat"
    q = _mk(vocab, text, [PrefixGroup((), ("alpha", "beta"))])
    gold = {0: [PathElement("alpha", 0, 7, "ant bee"),
                PathElement("beta", 8, 11, "cat")]}
    target = build_target(q, gold)
    assert int(target.sum()) == 6
    a = _marker(q, 0, "alpha").pos
    b = _marker(q, 0, "beta").pos
    t = q.text_start
    assert target[t + 0, t + 1] and target[t + 0, a] and target[a, t + 1]
    assert target[t + 2, t + 2] and target[t + 2, b] and target[b, t + 2]
    assert not (target.astype(bool) & ~q.scoring_mask).any()


def test_build_target_cls_two_cells():
    vocab = flat_vocab()
    q = _mk(vocab, "ant", [PrefixGroup((), ("alpha", "beta"))],
            mode=LevelMode.CLASSIFY_SINGLE)
    target = build_target(q, {0: [PathElement("beta")]})
    assert int(target.sum()) == 2
    m = _marker(q, 0, "beta").pos
    assert target[q.clst_pos, m] and target[m, q.clst_pos]


def test_build_target_random_popcount():
    rng = np.random.default_rng(17)
    vocab = flat_vocab()
    for _ in range(20):
        text, groups, gold = random_ie_case(rng)
        q = query_of(vocab, text, groups)
        target = build_target(q, gold)
        distinct = {(g, el.label, el.start, el.end)
                    for g, els in gold.items() for el in els}
        assert int(target.sum()) <= 3 * sum(len(v) for v in gold.values())
        assert int(target.sum()) >= 3 * 0
        # every set cell is scoring-valid
        assert not (target.astype(bool) & ~q.scoring_mask).any()
        # distinct golds with distinct cells contribute exactly 3 each
        if len(distinct) == sum(len(v) for v in gold.values()):
            cells = set()
            for g, els in gold.items():
                for el in els:
                    mk = _marker(q, g, el.label).pos
                    i = q.text_start + [o[0] for o in q.text.offsets].index(el.start)
                    j = q.text_start + [o[1] for o in q.text.offsets].index(el.end)
                    cells |= {(i, j), (i, mk), (mk, j)}
            assert int(target.sum()) == len(cells)


def test_build_target_no_gold_is_all_zero():
    vocab = flat_vocab()
    q = _mk(vocab, "ant bee", [PrefixGroup((), ("alpha",))])
    assert build_target(q, {0: []}).sum() == 0
    assert build_target(q, {}).sum() == 0


def test_build_target_errors():
    vocab = flat_vocab()
    text = "ant bee"
    q = _mk(vocab, text, [PrefixGroup((), ("alpha",))])
    with pytest.raises(UnknownGoldType):
        build_target(q, {0: [PathElement("delta", 0, 3, "ant")]})
    with pytest.raises(UnknownGoldType):
        build_target(q, {3: [PathElement("alpha", 0, 3, "ant")]})
    with pytest.raises(MisalignedSpan):
        build_target(q, {0: [PathElement("alpha", 1, 3, "nt")]})
    with pytest.raises(MisalignedSpan):
        build_target(q, {0: [PathElement("alpha", 0, 5, "ant b")]})


# ------------------------------------------------------------------ errors

def test_empty_groups_and_types_rejected():
    vocab = flat_vocab()
    toks = tokenize(vocab, "ant")
    with pytest.raises(EmptyTypeSet):
        make_query([], toks, "ant", LevelMode.EXTRACT, vocab, 16, 32)
    with pytest.raises(EmptyTypeSet):
        make_query([PrefixGroup((), ())], toks, "ant",
                   LevelMode.EXTRACT, vocab, 16, 32)


def test_prompt_overflow():
    vocab = flat_vocab()
    toks = tokenize(vocab, "ant")
    groups = [PrefixGroup((), tuple(TYPE_LABELS))]
    with pytest.raises(PromptOverflow):
        make_query(groups, toks, "ant", LevelMode.EXTRACT, vocab, 4, 64)


def test_text_overflow():
    vocab = flat_vocab()
    text = " ".join(["ant"] * 30)
    toks = tokenize(vocab, text)
    with pytest.raises(TextOverflow):
        make_query([PrefixGroup((), ("alpha",))], toks, text,
                   LevelMode.EXTRACT, vocab, 16, 20)


# ------------------------------------------------------------------- split

def test_split_noop_when_fits():
    vocab = flat_vocab()
    text = "ant bee cat"
    toks = tokenize(vocab, text)
    groups = [PrefixGroup((), ("alpha", "beta"))]
    single = split_query(groups, toks, text, LevelMode.EXTRACT, vocab, 32, 64)
    direct = make_query(groups, toks, text, LevelMode.EXTRACT, vocab, 32, 64)
    assert len(single) == 1
    assert np.array_equal(single[0].token_ids, direct.token_ids)
    assert np.array_equal(_attention(single[0]), _attention(direct))
    assert np.array_equal(single[0].scoring_mask, direct.scoring_mask)


def test_split_covers_all_pairs_exactly_once():
    vocab = flat_vocab()
    text = "ant bee"
    toks = tokenize(vocab, text)
    groups = [PrefixGroup((), tuple(TYPE_LABELS)),
              PrefixGroup((PathElement("alpha", 0, 3, "ant"),),
                          tuple(TYPE_LABELS))]
    queries = split_query(groups, toks, text, LevelMode.EXTRACT, vocab, 10, 64)
    assert len(queries) > 1
    seen = []
    for q in queries:
        assert q.esi_len <= 10
        for gi, g in enumerate(q.groups):
            for label in g.types:
                seen.append((g.path, label))
    want = [(g.path, label) for g in groups for label in g.types]
    assert sorted(seen, key=repr) == sorted(want, key=repr)
    assert len(seen) == len(set(seen))


def test_split_overflow_single_pair():
    vocab = flat_vocab()
    toks = tokenize(vocab, "ant")
    groups = [PrefixGroup((), ("alpha beta gamma delta alpha",))]
    with pytest.raises(PromptOverflow):
        split_query(groups, toks, "ant", LevelMode.EXTRACT, vocab, 4, 64)


def test_split_preserves_group_order_within_queries():
    vocab = flat_vocab()
    text = "ant bee"
    toks = tokenize(vocab, text)
    groups = [PrefixGroup((), ("alpha", "beta", "gamma", "delta"))]
    queries = split_query(groups, toks, text, LevelMode.EXTRACT, vocab, 7, 64)
    labels = [label for q in queries for g in q.groups for label in g.types]
    assert labels == ["alpha", "beta", "gamma", "delta"]


# ---------------------------------------------- derived masks, label cache

@pytest.mark.parametrize("mode", list(LevelMode))
def test_derived_masks_equal_the_stored_formulas(mode):
    """The masks a Query derives on read equal, bit for bit and dtype for
    dtype, the ones make_query used to build and store, on every query of
    1,000 random split_query cases per mode (budgets small enough to
    split)."""
    rng = np.random.default_rng(43)
    vocab = flat_vocab()
    split = 0
    for _ in range(1000):
        text, groups, _ = random_ie_case(rng, max_groups=3)
        queries = split_query(groups, tokenize(vocab, text), text, mode, vocab,
                              int(rng.integers(12, 64)), 128)
        split += len(queries) > 1
        for q in queries:
            attention, scoring = reference_masks(q)
            for got, want in ((_attention(q), attention),
                              (q.scoring_mask, scoring)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
    assert split > 100


def _reference_build_target(query, gold_by_group):
    """build_target as it was before its maps were built once per call."""
    def token_span(el):
        starts = {off[0]: i for i, off in enumerate(query.text.offsets)}
        ends = {off[1]: i for i, off in enumerate(query.text.offsets)}
        if el.start not in starts or el.end not in ends:
            raise MisalignedSpan(
                f"gold span ({el.start}, {el.end}) of {el.label!r} does not "
                f"align to token boundaries")
        i, j = starts[el.start], ends[el.end]
        if i > j:
            raise MisalignedSpan(f"gold span ({el.start}, {el.end}) is inverted")
        return query.text_start + i, query.text_start + j

    n = len(query)
    target = np.zeros((n, n), dtype=np.uint8)
    for g, elements in gold_by_group.items():
        if not 0 <= g < len(query.groups):
            raise UnknownGoldType(f"group index {g} out of range")
        for el in elements:
            marker = _marker(query, g, el.label)
            if marker is None:
                raise UnknownGoldType(
                    f"{el.label!r} is not a candidate type of group {g}")
            if query.mode is LevelMode.EXTRACT:
                if el.label_only:
                    raise MalformedRecord(
                        f"gold for extraction level lacks a span: {el.label!r}")
                i, j = token_span(el)
                target[i, j] = 1
                target[i, marker.pos] = 1
                target[marker.pos, j] = 1
            else:
                target[query.clst_pos, marker.pos] = 1
                target[marker.pos, query.clst_pos] = 1
    return target


def _outcome(fn, *args):
    try:
        return fn(*args).tobytes()
    except (MalformedRecord, MisalignedSpan, UnknownGoldType) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("mode", list(LevelMode))
def test_build_target_equals_reference_including_errors(mode):
    """Targets and errors (type and message) equal the per-element
    reference on random golds, a fifth of them corrupted: misaligned or
    inverted spans, unknown labels, label-only elements, bad group index.
    Some groups list a label twice; its first marker takes the gold."""
    rng = np.random.default_rng(59)
    vocab = flat_vocab()
    errors = 0
    for _ in range(600):
        text, groups, gold = random_ie_case(rng, max_groups=3)
        if rng.random() < 0.2:
            groups[0] = PrefixGroup(groups[0].path, groups[0].types * 2)
        q = query_of(vocab, text, groups, mode=mode, max_prompt_len=64,
                     max_len=96)
        gold = {g: list(els) for g, els in gold.items() if els}
        if gold and rng.random() < 0.2:
            g = int(rng.choice(list(gold)))
            el = gold[g][0]
            gold[g].append([
                PathElement(el.label, el.start + 1, el.end, el.surface[1:]),
                PathElement(el.label, el.end + 1, el.start, ""),
                PathElement("omega", el.start, el.end, el.surface),
                PathElement(el.label),
            ][int(rng.integers(4))])
            if rng.random() < 0.2:
                gold[len(groups)] = [el]
        want = _outcome(_reference_build_target, q, gold)
        assert _outcome(build_target, q, gold) == want
        errors += isinstance(want, tuple)
    assert errors > 20


def _gold_continuations(gold_paths, prefix):
    """Distinct gold elements that extend ``prefix`` by one level, in first
    occurrence order: one scan of the gold paths per prefix, as the oracle
    found them before it indexed every prefix in one pass."""
    depth = len(prefix)
    pk = path_key(prefix)
    out, seen = [], set()
    for path in gold_paths:
        if len(path) <= depth or path_key(path[:depth]) != pk:
            continue
        el = path[depth]
        if el.key() not in seen:
            seen.add(el.key())
            out.append(el)
    return out


def _reference_gold_z(gold_paths, query):
    """``GoldScorer``'s Z as it was built before it wrote its positive cells
    directly: an n x n target from ``_gold_continuations`` per group, then
    +10 where the target is 1."""
    gold_by_group = {}
    for g, group in enumerate(query.groups):
        els = [el for el in _gold_continuations(gold_paths, group.path)
               if el.label in group.types]
        if els:
            gold_by_group[g] = els
    target = _reference_build_target(query, gold_by_group)
    z = fill_scored(query, np.full(target.shape, -np.inf, np.float32),
                    ORACLE_LO)
    z[target == 1] = ORACLE_HI
    return z


@pytest.mark.parametrize("mode", list(LevelMode))
@settings(max_examples=1000, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), budget=st.integers(12, 64))
def test_gold_scorer_z_and_index_equal_the_reference(mode, seed, budget):
    """On random ``split_query`` cases (budgets small enough to split), the
    oracle's Z equals the n x n construction bit for bit, on every
    sub-query, and its prefix index equals ``_gold_continuations`` for
    every prefix of a gold path and every group's prefix."""
    rng = np.random.default_rng(seed)
    vocab = flat_vocab()
    text, groups, gold = random_ie_case(rng, max_groups=3)
    paths = [groups[g].path + (el,) for g, els in gold.items() for el in els]
    scorer = GoldScorer(paths)
    for q in split_query(groups, tokenize(vocab, text), text, mode, vocab,
                         budget, 128):
        want = _reference_gold_z(paths, q)
        got = scorer(q)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    prefixes = [p[:depth] for p in paths for depth in range(len(p))]
    for prefix in prefixes + [group.path for group in groups]:
        assert scorer._continuations.get(path_key(prefix), []) == \
            _gold_continuations(paths, prefix)


@pytest.mark.parametrize("bad", ["start", "end", "inverted", "label_only"])
def test_gold_scorer_raises_the_build_target_errors(bad):
    """A gold element that ``build_target`` rejects raises the same error,
    code and message, when the oracle scores or targets the query.  (An
    unknown label or group index cannot reach ``build_target`` through the
    oracle, which asks each group only about its own types.)"""
    vocab = flat_vocab()
    text = "ant bee cat"
    q = _mk(vocab, text, [PrefixGroup((), ("alpha",))])
    el = {"start": PathElement("alpha", 1, 7, "nt bee"),
          "end": PathElement("alpha", 0, 6, "ant be"),
          "inverted": PathElement("alpha", 8, 3, ""),
          "label_only": PathElement("alpha")}[bad]
    scorer = GoldScorer([(el,)])
    outcomes = []
    for fn in (lambda: build_target(q, {0: [el]}), lambda: scorer(q),
               lambda: scorer.target_for(q)):
        with pytest.raises((MalformedRecord, MisalignedSpan)) as info:
            fn()
        outcomes.append((info.value.code, str(info.value)))
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_cached_label_ids_follow_vocab_add():
    """A label tokenized while it was unknown is re-tokenized once
    ``Vocab.add`` gives it a real id."""
    vocab = flat_vocab()
    groups = [PrefixGroup((), ("alpha", "zeta"))]
    before = _mk(vocab, "ant bee", groups)
    assert "zeta" in vocab.segments
    pos = _marker(before, 0, "zeta").pos + 1
    assert before.token_ids[pos] == vocab.id(UNK)
    zeta = vocab.add("zeta")
    after = _mk(vocab, "ant bee", groups)
    assert after.token_ids[pos] == zeta != vocab.id(UNK)
    assert np.array_equal(np.delete(after.token_ids, pos),
                          np.delete(before.token_ids, pos))


def test_split_query_tokenizes_each_prefix_once(monkeypatch):
    """With the labels cached, a split_query call tokenizes each group's
    prefix once, however many sub-queries the group lands in."""
    vocab = flat_vocab()
    text = "ant bee"
    toks = tokenize(vocab, text)
    groups = [PrefixGroup((), tuple(TYPE_LABELS)),
              PrefixGroup((PathElement("alpha", 0, 3, "ant"),),
                          tuple(TYPE_LABELS))]
    want = split_query(groups, toks, text, LevelMode.EXTRACT, vocab, 10, 64)
    calls = []

    def counting(v, s):
        calls.append(s)
        return tokenize(v, s)

    monkeypatch.setattr(query_module, "tokenize", counting)
    got = split_query(groups, toks, text, LevelMode.EXTRACT, vocab, 10, 64)
    assert len(got) > len(groups)
    assert sorted(calls) == sorted(g.rendered for g in groups)
    assert [q.token_ids.tolist() for q in got] == \
        [q.token_ids.tolist() for q in want]
