"""Seeded mutation of the schema and data files.

Each mutant of a valid schema or data file runs through ``spanlink eval``
and ``spanlink dump-queries``.  A mutant is the file truncated, with a byte
flipped, a span deleted or duplicated, or a token inserted (``true``,
``-1``, ``nan``, a NUL byte, 5,000 ``[`` or ``{``).  So that more mutants
stay readable and reach the model, it may also have one JSON value replaced
(by such a token, another constant or another value of the file) or one line
deleted or duplicated.  Every run must end in exit 0 with nothing on stderr,
or in exit 1 with exactly one stderr line naming the reader's error: never
a traceback and never a warning.
"""

from __future__ import annotations

import contextlib
import io
import re
import warnings

import numpy as np
import pytest

from conftest import NER_RE_SCHEMA, ner_re_corpus
from spanlink.cli import main
from spanlink.config import Config
from spanlink.data import save_dataset
from spanlink.engine import build_model
from spanlink.model import save_checkpoint
from spanlink.tokenizer import build_vocab, save_vocab

MUTANTS = 150  # per file; each runs through both commands
INSERTS = (b"true", b"-1", b"nan", b"\0", b"[" * 5000, b"{" * 5000)
VALUES = INSERTS + (b"NaN", b"false", b"null", b'""', b"0", b"[]", b"{}")
JSON_VALUE = re.compile(rb'-?\d+|"(?:[^"\\]|\\.)*"|true|false|null')
# Nesting past the interpreter's recursion limit, as whole files.
FIXED = {
    "schema.json": [
        ("5,000 nested objects", b'{"a": ' * 5000 + b"null" + b"}" * 5000),
        ("400 nested objects", b'{"a": ' * 400 + b"null" + b"}" * 400),
    ],
    "data.jsonl": [
        ("paths nested 5,000 deep",
         b'{"text": "a", "paths": ' + b"[" * 5000 + b"]" * 5000 + b"}\n"),
    ],
}
ONE_LINE = re.compile(r"[a-z_]+\.[A-Za-z]+: ")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Schema, data, vocabulary, an untrained checkpoint and a config that
    ``eval`` and ``dump-queries`` both read."""
    root = tmp_path_factory.mktemp("mutation")
    examples = ner_re_corpus(seed=5, n=4)
    (root / "schema.json").write_text(NER_RE_SCHEMA, encoding="utf-8")
    save_dataset(examples, root / "data.jsonl")
    vocab = build_vocab([ex.text for ex in examples],
                        ["person", "organization", "work for ( organization )"])
    save_vocab(vocab, root / "vocab.tsv")
    cfg = Config(max_prompt_len=32, max_len=64, d=16, d_head=16, layers=1,
                 heads=2)
    save_checkpoint(root / "model.ckpt",
                    *build_model(cfg, len(vocab), np.random.default_rng(0)))
    (root / "run.cfg").write_text(
        f"schema={root / 'schema.json'}\n"
        f"data={root / 'data.jsonl'}\n"
        f"vocab={root / 'vocab.tsv'}\n"
        f"checkpoint={root / 'model.ckpt'}\n"
        "max_prompt_len=32\nmax_len=64\nd=16\nd_head=16\nlayers=1\nheads=2\n"
        "eval_tasks=entity,relation-strict\n", encoding="utf-8")
    return root


def mutate(blob: bytes, rng: np.random.Generator) -> tuple[str, bytes]:
    """One seeded mutant of ``blob`` and what was done to it."""
    i, j = sorted(int(x) for x in rng.integers(0, len(blob) + 1, size=2))
    op = int(rng.integers(7))
    if op == 0:
        return f"truncated at {i}", blob[:i]
    if op == 1:
        k, mask = int(rng.integers(len(blob))), int(rng.integers(1, 256))
        return (f"byte {k} xor {mask}",
                blob[:k] + bytes([blob[k] ^ mask]) + blob[k + 1:])
    if op == 2:
        return f"deleted {i}:{j}", blob[:i] + blob[j:]
    if op == 3:
        return f"duplicated {i}:{j}", blob[:j] + blob[i:j] + blob[j:]
    if op == 4:
        token = INSERTS[int(rng.integers(len(INSERTS)))]
        return f"inserted {token[:8]!r} at {i}", blob[:i] + token + blob[i:]
    if op == 5:
        values = [m.span() for m in JSON_VALUE.finditer(blob)]
        a, b = values[int(rng.integers(len(values)))]
        c, d = values[int(rng.integers(len(values)))]
        token = (blob[c:d] if rng.integers(2) else
                 VALUES[int(rng.integers(len(VALUES)))])
        return (f"value {a}:{b} replaced by {token[:8]!r}",
                blob[:a] + token + blob[b:])
    lines = blob.splitlines(keepends=True)
    k = int(rng.integers(len(lines)))
    if rng.integers(2):
        return f"line {k} deleted", b"".join(lines[:k] + lines[k + 1:])
    return f"line {k} duplicated", b"".join(lines[:k + 1] + lines[k:])


def run(argv) -> tuple[int, str, list]:
    """Exit status, stderr and warnings of one in-process ``spanlink`` run."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        status = main(argv)
    return status, err.getvalue(), caught


@pytest.mark.parametrize("name, seed", [("schema.json", 61),
                                        ("data.jsonl", 62)])
def test_mutated_files_end_in_exit_0_or_one_error_line(workspace, name, seed):
    pristine = (workspace / name).read_bytes()
    rng = np.random.default_rng(seed)
    cases = FIXED[name] + [mutate(pristine, rng) for _ in range(MUTANTS)]
    config = ["--config", str(workspace / "run.cfg")]
    commands = (["eval", *config, "--out", str(workspace / "report.jsonl")],
                ["dump-queries", *config])
    statuses = []
    try:
        for what, blob in cases:
            (workspace / name).write_bytes(blob)
            for argv in commands:
                status, err, caught = run(argv)
                where = f"{name} {what}, {argv[0]}"
                assert not caught, f"{where}: warned {caught[0].message}"
                if status == 0:
                    assert err == "", f"{where}: exit 0 with stderr {err!r}"
                else:
                    assert status == 1, f"{where}: exit {status}"
                    lines = err.splitlines()
                    assert len(lines) == 1 and ONE_LINE.match(lines[0]), \
                        f"{where}: stderr {err!r}"
                statuses.append(status)
    finally:
        (workspace / name).write_bytes(pristine)
    # the fixed nesting cases fail; most mutants do too, but not all
    assert statuses[:2 * len(FIXED[name])] == [1] * 2 * len(FIXED[name])
    assert 0 < statuses.count(0) < len(statuses)
