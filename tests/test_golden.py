"""Bitwise reference outputs, pinned in ``tests/golden.json``.

The A5 recipe is trained once; its checkpoint, and what ``spanlink eval``,
``extract --data`` and ``dump-queries`` print with it, are hashed and
compared with the committed values.  So is ``extract --data`` from a seeded,
untrained model on a schema whose three levels extract, classify with one
label and classify with several, and the work each level does (queries,
tokens scored, spans decoded) on the A5 held-out set and on a depth-4
oracle fixture.  The score matrices themselves are hashed too: the A5
model's over the held-out walk, one query per call and in padded chunks,
and a seeded, untrained float64 model's; and so are the loss and gradients
of one padded ``backward_batch`` pass with each of those two models.  Those bits depend on numpy and the BLAS, so the file also
records the environment it was made in; a different environment fails with
the difference and the command that regenerates the file::

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from conftest import (
    COQE_SCHEMA_DICT,
    NER_RE_SCHEMA,
    POLARITY_LABELS,
    WORDS,
    ZRecorder,
    ner_re_corpus,
    ner_re_vocab,
    plant_quintuples,
)
from spanlink.cli import main
from spanlink.config import Config
from spanlink.data import save_dataset
from spanlink.decoding import decode_ie
from spanlink.engine import (
    GoldScorer,
    ModelScorer,
    build_model,
    extract,
    iter_extract,
    teacher_forced_queries,
    train,
)
from spanlink.model import (
    EncoderConfig,
    backward_batch,
    init_encoder,
    init_head,
    save_checkpoint,
)
from spanlink.schema import parse_schema
from spanlink.tokenizer import build_vocab, save_vocab

GOLDEN = Path(__file__).with_name("golden.json")
REGENERATE = "PYTHONPATH=src python tests/test_golden.py --write"


def _openblas_core() -> str:
    """The CPU kernel set numpy's bundled OpenBLAS picked at load time."""
    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_",
                     "openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return fn().decode()
    return "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "openblas_core": _openblas_core()}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    return out.getvalue().encode("utf-8")


# Level 1 extracts, level 2 picks one label, level 3 keeps any number.
CLS_SCHEMA = json.dumps({
    "person": {"employee": {"remote": None, "senior": None},
               "founder": {"remote": None, "senior": None}},
    "organization": {"private": {"global": None, "local": None},
                     "public": {"global": None, "local": None}},
})
CLS_LABELS = ["person", "organization", "employee", "founder", "private",
              "public", "remote", "senior", "global", "local"]


def _work_counts(scored, delta_ie: float) -> list[dict]:
    """Per schema level: queries scored, their tokens, and the spans
    ``decode_ie`` reads off their matrices, from (query, Z) pairs of
    extraction levels."""
    levels: dict[int, dict] = {}
    for query, z in scored:
        level = len(query.groups[0].path) + 1
        counts = levels.setdefault(level, {"level": level, "queries": 0,
                                           "tokens": 0, "spans": 0})
        counts["queries"] += 1
        counts["tokens"] += len(query)
        counts["spans"] += len(decode_ie(z, query, delta_ie))
    return [levels[level] for level in sorted(levels)]


def _oracle_work() -> list[dict]:
    """Work counts of the depth-4 oracle walk over 40 planted instances."""
    schema = parse_schema(json.dumps(COQE_SCHEMA_DICT))
    vocab = build_vocab([" ".join(WORDS)],
                        ["subject", "object", "aspect"] + POLARITY_LABELS)
    cfg = Config(max_prompt_len=128, max_len=192)
    rng = np.random.default_rng(23)
    scored = []
    for _ in range(40):
        text, paths = plant_quintuples(rng)
        recorder = ZRecorder(GoldScorer(paths))
        extract(schema, vocab, recorder, text, cfg)
        scored += zip(recorder.queries, recorder.matrices)
    return _work_counts(scored, cfg.delta_ie)


def _z_sha(matrices) -> str:
    """sha256 over the shape and bytes of each score matrix, in order."""
    h = hashlib.sha256()
    for z in matrices:
        h.update(repr(z.shape).encode())
        h.update(np.ascontiguousarray(z).tobytes())
    return h.hexdigest()


def _walk_z(scorer, texts, schema, vocab, cfg) -> list:
    """Every score matrix ``scorer`` returns while ``iter_extract`` walks
    ``texts``: one ``many`` call per length-sorted chunk when it has that
    method, else one call per query."""
    recorder = ZRecorder(scorer)
    for _ in iter_extract(texts, schema, vocab, recorder, cfg):
        pass
    return recorder.matrices


def _untrained_float64(vocab, cfg):
    """A seeded, untrained float64 encoder and head of ``cfg``'s dims."""
    rng = np.random.default_rng(5)
    enc = init_encoder(EncoderConfig(
        vocab_size=len(vocab), d=cfg.d, layers=cfg.layers, heads=cfg.heads,
        max_positions=cfg.max_prompt_len + cfg.max_len, dtype="float64"), rng)
    return enc, init_head(cfg.d, cfg.d_head, rng, dtype="float64")


def _grads_sha(enc, head, examples, schema, vocab, cfg) -> str:
    """sha256 of ``backward_batch``'s loss and of every gradient, encoder
    then head, each dict by sorted name, from one padded pass over the
    teacher-forced queries of the first three examples (of unequal lengths),
    their targets built by ``GoldScorer.target_for``."""
    queries, targets = [], []
    for ex in examples[:3]:
        scorer = GoldScorer(ex.paths)
        for query, _ in teacher_forced_queries(ex, schema, vocab, cfg):
            queries.append(query)
            targets.append(scorer.target_for(query))
    assert len({len(q) for q in queries}) >= 3
    loss, enc_grads, head_grads = backward_batch(enc, head, queries, targets)
    h = hashlib.sha256(repr(loss).encode())
    for grads in (enc_grads, head_grads):
        for name in sorted(grads):
            h.update(name.encode())
            h.update(grads[name].tobytes())
    return h.hexdigest()


def _untrained_cls_extract(root: Path) -> bytes:
    """``extract --data`` from a seeded, untrained model over the held-out
    file on ``CLS_SCHEMA``; ``delta_cls = 0.5`` lets the multi-label level
    keep some labels and drop others."""
    cfg = Config(max_prompt_len=32, max_len=64, d=32, d_head=32, layers=1,
                 heads=2, seed=3, delta_cls=0.5)
    vocab = build_vocab([ex.text for ex in ner_re_corpus(seed=9, n=300)],
                        CLS_LABELS)
    enc, head = build_model(cfg, len(vocab), np.random.default_rng(cfg.seed))
    save_checkpoint(root / "cls.ckpt", enc, head)
    save_vocab(vocab, root / "cls.vocab")
    (root / "cls_schema.json").write_text(CLS_SCHEMA, encoding="utf-8")
    (root / "cls.cfg").write_text(
        f"schema={root / 'cls_schema.json'}\n"
        f"vocab={root / 'cls.vocab'}\n"
        f"checkpoint={root / 'cls.ckpt'}\n"
        "level_modes=extract,cls_single,cls_multi\n"
        "max_prompt_len=32\nmax_len=64\nd=32\nd_head=32\nlayers=1\n"
        "heads=2\ndelta_cls=0.5\n", encoding="utf-8")
    return _run(["extract", "--config", str(root / "cls.cfg"),
                 "--data", str(root / "heldout.jsonl")])


def outputs() -> dict:
    """The A5 checkpoint's sha256 and epoch count, and the sha256 of each
    command's output on the A5 model: ``eval`` (table and report) and
    ``extract --data`` over 300 held-out sentences (several walk windows),
    and ``dump-queries`` over the training corpus, at the A5 prompt budget
    and at one that splits queries.  Then the untrained three-mode
    ``extract --data``, the score and gradient hashes, and the per-level
    work counts."""
    examples = ner_re_corpus(seed=0, n=50)
    schema = parse_schema(NER_RE_SCHEMA)
    vocab = ner_re_vocab(examples)
    cfg = Config(max_prompt_len=32, max_len=64, d=64, d_head=64, layers=2,
                 heads=4, lr=2e-3, epochs=200, seed=0, early_stop_f1=1.0,
                 eval_tasks="entity,relation-strict")
    result = train(examples, schema, vocab, cfg)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        save_checkpoint(root / "a5.ckpt", result.enc, result.head)
        save_vocab(vocab, root / "a5.vocab")
        save_dataset(examples, root / "train.jsonl")
        save_dataset(ner_re_corpus(seed=9, n=300), root / "heldout.jsonl")
        (root / "schema.json").write_text(NER_RE_SCHEMA, encoding="utf-8")
        (root / "run.cfg").write_text(
            f"schema={root / 'schema.json'}\n"
            f"data={root / 'heldout.jsonl'}\n"
            f"vocab={root / 'a5.vocab'}\n"
            f"checkpoint={root / 'a5.ckpt'}\n"
            "max_prompt_len=32\nmax_len=64\nd=64\nd_head=64\nlayers=2\n"
            "heads=4\neval_tasks=entity,relation-strict\n", encoding="utf-8")
        common = ["--config", str(root / "run.cfg")]
        table = _run(["eval", *common, "--out", str(root / "report.jsonl")])
        texts = [ex.text for ex in ner_re_corpus(seed=9, n=300)]
        model = ModelScorer(result.enc, result.head)
        recorder = ZRecorder(model)
        for _ in iter_extract(texts, schema, vocab, recorder, cfg):
            pass
        return {
            "a5_checkpoint_sha256": _sha((root / "a5.ckpt").read_bytes()),
            "a5_epochs": len(result.log),
            "eval_stdout_sha256": _sha(table),
            "eval_report_sha256": _sha((root / "report.jsonl").read_bytes()),
            "extract_data_sha256": _sha(_run(
                ["extract", *common, "--data", str(root / "heldout.jsonl")])),
            "dump_queries_sha256": _sha(_run(
                ["dump-queries", *common,
                 "--set", f"data={root / 'train.jsonl'}"])),
            # a 12-token prompt budget splits level 2 of every sentence
            # with two people into two queries
            "dump_queries_split_sha256": _sha(_run(
                ["dump-queries", *common, "--set", "max_prompt_len=12",
                 "--set", f"data={root / 'train.jsonl'}"])),
            "cls_levels_extract_data_sha256": _sha(
                _untrained_cls_extract(root)),
            # Z bits: one query per call (B = 1), the walk's padded
            # chunks, and a float64 model's padded chunks
            "a5_heldout_z_b1_sha256": _z_sha(_walk_z(
                lambda query: model(query), texts, schema, vocab, cfg)),
            "a5_heldout_z_many_sha256": _z_sha(recorder.matrices),
            "untrained_float64_z_sha256": _z_sha(_walk_z(
                ModelScorer(*_untrained_float64(vocab, cfg)), texts, schema,
                vocab, cfg)),
            # gradient bits: the A5 model in float32, and the untrained
            # float64 model
            "a5_grads_sha256": _grads_sha(
                result.enc, result.head, examples, schema, vocab, cfg),
            "untrained_float64_grads_sha256": _grads_sha(
                *_untrained_float64(vocab, cfg), examples, schema, vocab, cfg),
            "a5_heldout_work": _work_counts(
                zip(recorder.queries, recorder.matrices), cfg.delta_ie),
            "oracle_depth4_work": _oracle_work(),
        }


def _differences(want: dict, got: dict) -> list[str]:
    return [f"{key}: golden {want.get(key)!r}, here {got.get(key)!r}"
            for key in sorted(set(want) | set(got))
            if want.get(key) != got.get(key)]


def test_outputs_equal_the_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    env = _differences(golden["environment"], environment())
    assert not env, ("the golden file was made in another environment:\n  "
                     + "\n  ".join(env) + f"\nregenerate it with: {REGENERATE}")
    diff = _differences(golden["outputs"], outputs())
    assert not diff, ("outputs differ from the golden file:\n  "
                      + "\n  ".join(diff)
                      + "\nif the change is meant, regenerate the file with: "
                      + REGENERATE + " and say why in CHANGES.md")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {REGENERATE}")
    GOLDEN.write_text(json.dumps(
        {"environment": environment(), "outputs": outputs()},
        indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
