"""Shared builders for the test suite.

Everything here is deterministic given an explicit numpy Generator so the
acceptance tests can pin their seeds.
"""

from __future__ import annotations

import numpy as np

from spanlink.config import Config
from spanlink.data import Example, PathElement
from spanlink.query import (
    K_CLS,
    K_CLST,
    K_SEP,
    K_TEXT,
    K_TEXTMARK,
    K_TYPE,
    PrefixGroup,
    make_query,
)
from spanlink.schema import LevelMode
from spanlink.tokenizer import build_vocab, tokenize, word_split

WORDS = [
    "ant", "bee", "cat", "dog", "elk", "fox", "gnu", "hen", "ibis", "jay",
    "kit", "lark", "mole", "newt", "owl", "pug", "quail", "rat", "seal",
    "toad",
]
TYPE_LABELS = ["alpha", "beta", "gamma", "delta"]

PEOPLE = [
    "rivera", "tanaka", "osei", "lindqvist", "moreau",
    "kaur", "petrov", "almeida", "zhou", "okafor",
]
ORGS = [
    "acme", "globex", "initech", "umbrella", "hooli",
    "vandelay", "wonka", "stark", "wayne", "tyrell",
]

NER_RE_SCHEMA = (
    '{"person": {"work for ( organization )": null}, "organization": null}'
)

# the comparative-opinion quintuple schema: subject -> object -> aspect ->
# polarity, with every shortcut level also carrying the four polarity leaves
_POLARITY = {
    "worse ( opionion )": None,
    "equal ( opinion )": None,
    "better ( opinion )": None,
    "different ( opinion )": None,
}
COQE_SCHEMA_DICT = {
    "subject": {
        "object": {"aspect": dict(_POLARITY), **_POLARITY},
        "aspect": dict(_POLARITY),
        **_POLARITY,
    },
    "object": {"aspect": dict(_POLARITY), **_POLARITY},
}
POLARITY_LABELS = sorted(_POLARITY)


def flat_vocab():
    """Vocabulary over the shared word and type pools."""
    return build_vocab([" ".join(WORDS)], TYPE_LABELS)


def random_ie_case(rng, max_groups=2, words=WORDS, types=TYPE_LABELS):
    """A random (text, groups, gold) triple for extract-mode query tests.

    Group 0 has an empty prefix; later groups carry a one-element prefix
    anchored to a random word.  Gold spans cover 1-3 words each.
    """
    n_words = int(rng.integers(5, 16))
    text = " ".join(words[int(rng.integers(len(words)))]
                    for _ in range(n_words))
    spans = word_split(text)
    groups, gold = [], {}
    for g in range(int(rng.integers(1, max_groups + 1))):
        k = int(rng.integers(1, len(types) + 1))
        cand = tuple(sorted(rng.choice(types, size=k, replace=False).tolist()))
        if g == 0:
            prefix = ()
        else:
            s, e = spans[int(rng.integers(len(spans)))]
            prefix = (PathElement(types[int(rng.integers(len(types)))],
                                  s, e, text[s:e]),)
        groups.append(PrefixGroup(prefix, cand))
        els = []
        for _ in range(int(rng.integers(0, 4))):
            i = int(rng.integers(len(spans)))
            j = int(rng.integers(i, min(i + 3, len(spans))))
            s, e = spans[i][0], spans[j][1]
            els.append(PathElement(str(rng.choice(list(cand))), s, e,
                                   text[s:e]))
        gold[g] = els
    return text, groups, gold


def query_of(vocab, text, groups, mode=LevelMode.EXTRACT,
             max_prompt_len=32, max_len=64):
    return make_query(groups, tokenize(vocab, text), text, mode, vocab,
                      max_prompt_len, max_len)


def reference_masks(q):
    """``(attention, scoring)`` masks by the formulas ``make_query`` used
    when it built and stored both, kept as the reference for the masks now
    derived from a query's segment vectors."""
    n = len(q)
    kinds_arr, group_arr, typeseg_arr = q.kinds, q.group_of, q.typeseg_of
    is_global = np.isin(kinds_arr, [K_CLS, K_SEP, K_CLST, K_TEXTMARK, K_TEXT])
    is_type = kinds_arr == K_TYPE
    same_group = (group_arr[:, None] == group_arr[None, :]) \
        & (group_arr[:, None] >= 0)
    cross_typeseg = is_type[:, None] & is_type[None, :] \
        & (typeseg_arr[:, None] != typeseg_arr[None, :])
    attention = is_global[:, None] | is_global[None, :] \
        | (same_group & ~cross_typeseg)

    scoring = np.zeros((n, n), dtype=bool)
    marker_pos = [m.pos for m in q.type_markers]
    if q.mode is LevelMode.EXTRACT:
        t0, t1 = q.text_start, q.text_start + q.text_len
        idx = np.arange(t0, t1)
        scoring[t0:t1, t0:t1] = idx[:, None] <= idx[None, :]
        for k in marker_pos:
            scoring[t0:t1, k] = True
            scoring[k, t0:t1] = True
    else:
        for k in marker_pos:
            scoring[q.clst_pos, k] = True
            scoring[k, q.clst_pos] = True
    return attention, scoring


def ner_re_corpus(seed=0, n=50):
    """Synthetic two-level corpus: person / organization entities plus an
    employment relation.  Every sentence uses one of three templates."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        p = PEOPLE[int(rng.integers(len(PEOPLE)))]
        o = ORGS[int(rng.integers(len(ORGS)))]
        kind = int(rng.integers(3))
        if kind == 0:
            text = f"{p} works for {o} ."
        elif kind == 1:
            text = f"{o} hired {p} ."
        else:
            p2 = p
            while p2 == p:
                p2 = PEOPLE[int(rng.integers(len(PEOPLE)))]
            text = f"{p} met {p2} ."
        ps = text.index(p)
        person = PathElement("person", ps, ps + len(p), p)
        if kind < 2:
            os_ = text.index(o)
            org = PathElement("organization", os_, os_ + len(o), o)
            rel = PathElement("work for ( organization )",
                              os_, os_ + len(o), o)
            paths = ((person, rel), (org,))
        else:
            p2s = text.rindex(p2)
            other = PathElement("person", p2s, p2s + len(p2), p2)
            paths = ((person,), (other,))
        out.append(Example(text, paths))
    return out


def ner_re_vocab(examples):
    return build_vocab(
        [ex.text for ex in examples],
        ["person", "organization", "work for ( organization )"],
    )


def small_train_config(**kw):
    base = dict(max_prompt_len=32, max_len=64, d=32, d_head=32, layers=1,
                heads=2, lr=2e-3, epochs=3, seed=0, eval_tasks="")
    base.update(kw)
    return Config(**base)


def plant_quintuples(rng, n_paths=None):
    """Random comparative-opinion instance: filler text plus 1-2 planted
    subject/object/aspect/opinion paths whose spans are pairwise disjoint."""
    n_words = int(rng.integers(10, 19))
    words = [WORDS[int(rng.integers(len(WORDS)))] for _ in range(n_words)]
    text = " ".join(words)
    spans = word_split(text)
    if n_paths is None:
        n_paths = int(rng.integers(1, 3))
    # reserve 4 disjoint single-word spans per path
    need = 4 * n_paths
    idx = rng.choice(len(spans), size=need, replace=False)
    paths = []
    for p in range(n_paths):
        subj, obj, asp, op = (spans[int(i)] for i in idx[4 * p:4 * p + 4])
        polarity = POLARITY_LABELS[int(rng.integers(len(POLARITY_LABELS)))]
        paths.append((
            PathElement("subject", subj[0], subj[1], text[subj[0]:subj[1]]),
            PathElement("object", obj[0], obj[1], text[obj[0]:obj[1]]),
            PathElement("aspect", asp[0], asp[1], text[asp[0]:asp[1]]),
            PathElement(polarity, op[0], op[1], text[op[0]:op[1]]),
        ))
    return text, paths
