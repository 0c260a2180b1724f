"""scipy.special stays off the runtime import path until float64 GELU needs it.

The pytest process has imported scipy itself, so the check runs in a fresh
interpreter against the package in ``src``.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r'''
import math
import sys

import numpy as np

import spanlink
import spanlink.cli
from spanlink.config import Config
from spanlink.data import Example, PathElement
from spanlink.decoding import cls_products, decode_cls_multi
from spanlink.engine import LevelPlan, ModelScorer, extract, merge_results, train
from spanlink.model import _gelu
from spanlink.query import PrefixGroup, make_query
from spanlink.schema import LevelMode, parse_schema
from spanlink.tokenizer import build_vocab, tokenize

assert "scipy.special" not in sys.modules, "loaded by import"

examples = []
for p, o in [("rivera", "acme"), ("osei", "globex"), ("kaur", "wonka")]:
    text = f"{p} works for {o} ."
    ps, os_ = text.index(p), text.index(o)
    examples.append(Example(text, (
        (PathElement("person", ps, ps + len(p), p),
         PathElement("work for ( organization )", os_, os_ + len(o), o)),
        (PathElement("organization", os_, os_ + len(o), o),),
    )))
schema = parse_schema('{"person": {"work for ( organization )": null},'
                      ' "organization": null}')
vocab = build_vocab([ex.text for ex in examples],
                    ["person", "organization", "work for ( organization )"])
cfg = Config(max_prompt_len=32, max_len=64, d=16, d_head=8, layers=1,
             heads=2, epochs=1, seed=0, eval_tasks="entity,relation-strict")
result = train(examples, schema, vocab, cfg)
assert result.enc.config.dtype == "float32"
text = "osei works for acme ."
extract(schema, vocab, ModelScorer(result.enc, result.head), text, cfg)
assert "scipy.special" not in sys.modules, "loaded by train or extract"

query = make_query([PrefixGroup((), ("person", "organization"))],
                   tokenize(vocab, text), text, LevelMode.CLASSIFY_SINGLE, vocab,
                   32, 64)
z = np.random.default_rng(0).normal(size=(len(query),) * 2)
plan = LevelPlan(level=1, mode=LevelMode.CLASSIFY_SINGLE,
                 groups=query.groups, queries=[query])
decision = merge_results(plan, [cls_products(z, query)], 0.9)[()]
multi = decode_cls_multi(z.astype(np.float32), query, 0.5)
assert "scipy.special" not in sys.modules, "loaded by classification"
x = np.random.default_rng(1).standard_normal(1000) * 4.0
y, (_, phi) = _gelu(x)
assert "scipy.special" in sys.modules

from scipy.special import erf, expit
j = query.clst_pos
products = [float(expit(z[j, m.pos])) * float(expit(z[m.pos, j]))
            for m in query.type_markers]
assert [p for _, _, p in cls_products(z, query)] == products
best = query.type_markers[int(np.argmax(products))].label
assert [el.label for el in decision] == [best], (decision, products)
z32 = z.astype(np.float32)
assert multi[0].labels == tuple(
    m.label for m in query.type_markers
    if expit(z32[j, m.pos]) > 0.5 and expit(z32[m.pos, j]) > 0.5)
want = erf(x * (1.0 / math.sqrt(2.0)))
want += 1.0
want *= 0.5
assert phi.tobytes() == want.tobytes()
assert y.tobytes() == (x * want).tobytes()
print("ok")
'''


def test_scipy_special_loads_only_for_float64_gelu():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    done = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "ok"
