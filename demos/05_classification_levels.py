"""
Classification levels: one marker token instead of span cells
=============================================================

A schema level can be declared cls_single or cls_multi.  Such levels add
a [CLASSIFY] or [MULTICLASSIFY] token to the query and score only the
cells between that token and each [T] marker, in both directions.
Single-label levels take the best product of the two directions, as the
engine does: ``cls_products`` per query, then ``merge_results`` multiplies
the products across sub-queries and picks each group's argmax.  Multi-label
levels keep every label whose both directions clear 0.9.
"""

import numpy as np
from scipy.special import logit

from spanlink.decoding import cls_products, decode_cls_multi
from spanlink.engine import LevelPlan, merge_results
from spanlink.query import PrefixGroup, make_query, render_query
from spanlink.schema import LevelMode
from spanlink.tokenizer import build_vocab, tokenize

text = "the room was tiny but spotless"
vocab = build_vocab([text], ["positive", "negative", "neutral"])
group = PrefixGroup((), ("negative", "neutral", "positive"))


def scores_for(query, strengths):
    # strengths: probability per label, applied to both directions
    z = np.full((len(query), len(query)), -9.0, dtype=np.float32)
    z[~query.scoring_mask] = -np.inf
    for marker in query.type_markers:
        s = float(logit(strengths[marker.label]))
        z[query.clst_pos, marker.pos] = s
        z[marker.pos, query.clst_pos] = s
    return z


# single-label: the winner is the label with the best two-direction product
single = make_query([group], tokenize(vocab, text), text,
                    LevelMode.CLASSIFY_SINGLE, vocab, 16, 32)
print("single-label query:")
print(" ", render_query(single))
z = scores_for(single, {"negative": 0.65, "neutral": 0.2, "positive": 0.6})
plan = LevelPlan(level=1, mode=LevelMode.CLASSIFY_SINGLE, groups=(group,),
                 queries=[single])
chosen = merge_results(plan, [cls_products(z, single)], delta_cls=0.9)[()]
print("  chosen:", tuple(el.label for el in chosen))

# multi-label: every label above the 0.9 threshold survives, so zero or
# several labels can come back
multi = make_query([group], tokenize(vocab, text), text,
                   LevelMode.CLASSIFY_MULTI, vocab, 16, 32)
print("\nmulti-label query:")
print(" ", render_query(multi))
z = scores_for(multi, {"negative": 0.97, "neutral": 0.4, "positive": 0.95})
decision = decode_cls_multi(z, multi, delta=0.9)[0]
print("  kept:", decision.labels)
