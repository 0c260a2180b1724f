"""End-to-end command line tests: train, eval, extract, dump-queries."""

import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import COQE_SCHEMA_DICT, NER_RE_SCHEMA, ner_re_corpus, plant_quintuples
from spanlink import engine
from spanlink.cli import main
from spanlink.config import level_mode_list, load_config, validate_config
from spanlink.data import Example, load_dataset, save_dataset
from spanlink.decoding import save_grids
from spanlink.errors import MalformedSchema, read_text
from spanlink.model import load_checkpoint, save_checkpoint
from spanlink.query import render_query
from spanlink.schema import parse_schema
from spanlink.tokenizer import build_vocab, load_vocab, save_vocab, tokenize


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    examples = ner_re_corpus(seed=5, n=8)
    (root / "schema.json").write_text(NER_RE_SCHEMA, encoding="utf-8")
    save_dataset(examples, root / "data.jsonl")
    (root / "run.cfg").write_text(
        f"schema={root / 'schema.json'}\n"
        f"data={root / 'data.jsonl'}\n"
        f"checkpoint={root / 'model.ckpt'}\n"
        "max_prompt_len=32\nmax_len=64\n"
        "d=16\nd_head=16\nlayers=1\nheads=2\n"
        "epochs=2\nlr=0.002\nseed=0\neval_tasks=entity\n",
        encoding="utf-8",
    )
    return root, examples


@pytest.fixture(scope="module")
def trained(workspace):
    root, _ = workspace
    assert main(["train", "--config", str(root / "run.cfg")]) == 0
    return root


def test_train_writes_checkpoint_vocab_and_log(trained):
    root = trained
    assert (root / "model.ckpt").exists()
    assert (root / "model.ckpt.vocab").exists()
    log = (root / "model.ckpt.log").read_text(encoding="utf-8").splitlines()
    assert len(log) == 2
    assert log[0].startswith("epoch=1 loss=")
    assert "entity=" in log[0]


def test_train_stdout_and_set_override(workspace, capsys):
    root, _ = workspace
    ckpt = root / "short.ckpt"
    rc = main(["train", "--config", str(root / "run.cfg"),
               "--set", f"checkpoint={ckpt}", "--set", "epochs=1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert f"saved checkpoint to {ckpt}" in out
    assert out.count("epoch=") == 1
    assert ckpt.exists()


def test_eval_prints_table_and_writes_report(trained, capsys):
    root = trained
    report = root / "report.jsonl"
    rc = main(["eval", "--config", str(root / "run.cfg"),
               "--task", "entity", "--task", "relation-strict",
               "--out", str(report)])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["task", "gold", "pred", "match", "P", "R", "F1"]
    assert out[1].startswith("entity")
    assert out[2].startswith("relation-strict")
    rows = [json.loads(l) for l in report.read_text().splitlines()]
    assert [r["task"] for r in rows] == ["entity", "relation-strict"]
    for row in rows:
        assert row["version"] == 1
        assert set(row) == {"version", "task", "gold_num", "pred_num",
                            "match_num", "precision", "recall", "f1"}
        assert 0.0 <= row["f1"] <= 1.0


def test_eval_default_tasks_come_from_config(trained, tmp_path, capsys):
    root = trained
    rc = main(["eval", "--config", str(root / "run.cfg"),
               "--out", str(tmp_path / "r.jsonl")])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2  # header + the single configured task
    assert lines[1].startswith("entity")


def test_extract_single_text_to_stdout(trained, capsys):
    root = trained
    rc = main(["extract", "--config", str(root / "run.cfg"),
               "--text", "rivera works for acme ."])
    assert rc == 0
    record = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert record["version"] == 1
    assert record["text"] == "rivera works for acme ."
    assert isinstance(record["paths"], list)


def test_extract_data_file_to_out(trained, workspace, tmp_path):
    root = trained
    _, examples = workspace
    out = tmp_path / "preds.jsonl"
    rc = main(["extract", "--config", str(root / "run.cfg"),
               "--data", str(root / "data.jsonl"), "--out", str(out)])
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(examples)
    assert [json.loads(l)["text"] for l in lines] == [
        ex.text for ex in examples]


def test_extract_data_matches_per_text_extract(trained, workspace, tmp_path):
    root = trained
    _, examples = workspace
    out = tmp_path / "preds.jsonl"
    assert main(["extract", "--config", str(root / "run.cfg"),
                 "--data", str(root / "data.jsonl"), "--out", str(out)]) == 0
    cfg = load_config(root / "run.cfg")
    schema = parse_schema(NER_RE_SCHEMA)
    vocab = load_vocab(root / "model.ckpt.vocab")
    scorer = engine.ModelScorer(*load_checkpoint(root / "model.ckpt"))
    expected = [engine.extraction_record(
        ex.text, engine.extract(schema, vocab, scorer, ex.text, cfg))
        for ex in examples]
    assert out.read_text(encoding="utf-8").splitlines() == expected


def test_extract_oracle_scores_replays_stored_matrices(trained, tmp_path):
    root = trained
    text = "tanaka works for initech ."
    gold = (
        (engine.PathElement("person", 0, 6, "tanaka"),
         engine.PathElement("work for ( organization )", 17, 24, "initech")),
        (engine.PathElement("organization", 17, 24, "initech"),),
    )
    cfg = load_config(root / "run.cfg")
    validate_config(cfg)
    schema = parse_schema(NER_RE_SCHEMA)
    vocab = load_vocab(root / "model.ckpt.vocab")
    recorder = engine.RecordingScorer(engine.GoldScorer(gold))
    expected = engine.extract(schema, vocab, recorder, text, cfg)
    grids = tmp_path / "scores.grid"
    save_grids(grids, recorder.matrices)
    out = tmp_path / "out.jsonl"
    rc = main(["extract", "--config", str(root / "run.cfg"),
               "--text", text, "--oracle-scores", str(grids),
               "--out", str(out)])
    assert rc == 0
    assert out.read_text(encoding="utf-8").strip() == \
        engine.extraction_record(text, expected)


def test_extract_oracle_scores_with_nan_is_a_one_line_error(trained, tmp_path,
                                                           capsys):
    root = trained
    text = "tanaka works for initech ."
    gold = ((engine.PathElement("organization", 17, 24, "initech"),),)
    cfg = load_config(root / "run.cfg")
    validate_config(cfg)
    recorder = engine.RecordingScorer(engine.GoldScorer(gold))
    engine.extract(parse_schema(NER_RE_SCHEMA),
                   load_vocab(root / "model.ckpt.vocab"), recorder, text, cfg)
    recorder.matrices[0][0, 0] = float("nan")
    grids = tmp_path / "scores.grid"
    save_grids(grids, recorder.matrices)
    capsys.readouterr()
    rc = main(["extract", "--config", str(root / "run.cfg"),
               "--text", text, "--oracle-scores", str(grids),
               "--out", str(tmp_path / "out.jsonl")])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith("decode.NonFiniteScores: ")


def test_extract_oracle_scores_left_unread_is_a_one_line_error(
        trained, tmp_path, capsys):
    """A grid replays only for the texts it was recorded for: matrices of
    "tanaka works for initech ." saved three times over fit the shapes of
    "rivera works for globex .", but the walk reads two of the six, and the
    unread remainder is an error, not a silent success."""
    root = trained
    text = "tanaka works for initech ."
    gold = (
        (engine.PathElement("person", 0, 6, "tanaka"),
         engine.PathElement("work for ( organization )", 17, 24, "initech")),
        (engine.PathElement("organization", 17, 24, "initech"),),
    )
    cfg = load_config(root / "run.cfg")
    validate_config(cfg)
    recorder = engine.RecordingScorer(engine.GoldScorer(gold))
    engine.extract(parse_schema(NER_RE_SCHEMA),
                   load_vocab(root / "model.ckpt.vocab"), recorder, text, cfg)
    assert len(recorder.matrices) == 2
    grids = tmp_path / "scores.grid"
    save_grids(grids, recorder.matrices * 3)
    capsys.readouterr()
    rc = main(["extract", "--config", str(root / "run.cfg"),
               "--text", "rivera works for globex .", "--oracle-scores",
               str(grids), "--out", str(tmp_path / "out.jsonl")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("engine.OracleExhausted: read 2 of 6 matrices")


def test_extract_dump_queries_prints_renderings(trained, tmp_path, capsys):
    root = trained
    out = tmp_path / "out.jsonl"
    rc = main(["extract", "--config", str(root / "run.cfg"),
               "--text", "zhou met kaur .", "--dump-queries",
               "--out", str(out)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines
    for line in lines:
        assert line.startswith("[CLS][P]")
        assert line.endswith("[SEP]")
        assert "zhou met kaur ." in line
    assert json.loads(out.read_text())["text"] == "zhou met kaur ."


def test_dump_queries_renders_gold_levels(trained, workspace, capsys):
    root = trained
    _, examples = workspace
    rc = main(["dump-queries", "--config", str(root / "run.cfg")])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) >= len(examples)
    level1 = [l for l in lines if "[CLS][P][T] organization[T] person" in l]
    assert len(level1) == len(examples)
    for line in lines:
        assert line.startswith("[CLS][P]")
        assert line.endswith("[SEP]")


def test_dump_queries_level_filter(trained, workspace, capsys):
    root = trained
    _, examples = workspace
    assert main(["dump-queries", "--config", str(root / "run.cfg"),
                 "--level", "1"]) == 0
    only1 = capsys.readouterr().out.splitlines()
    assert len(only1) == len(examples)
    assert all("[CLS][P][T] organization[T] person[Text]" in l for l in only1)
    assert main(["dump-queries", "--config", str(root / "run.cfg"),
                 "--level", "2"]) == 0
    only2 = capsys.readouterr().out.splitlines()
    # every sentence has at least one person, so level 2 always runs
    assert len(only2) == len(examples)
    assert all("work for ( organization )" in l for l in only2)


def test_dump_queries_prefix_rendering_matches_record_order(tmp_path, capsys):
    schema = ('{"location": {"located in ( location )": null},'
              ' "people": {"work for ( organization )": null}}')
    (tmp_path / "s.json").write_text(schema, encoding="utf-8")
    text = "lee visited oslo and bonn ."
    record = {"text": text, "paths": [
        [{"type": "location", "start": 21, "end": 25}],
        [{"type": "people", "start": 0, "end": 3}],
        [{"type": "location", "start": 12, "end": 16}],
    ]}
    (tmp_path / "d.jsonl").write_text(json.dumps(record) + "\n",
                                      encoding="utf-8")
    (tmp_path / "c.cfg").write_text(
        f"schema={tmp_path / 's.json'}\ndata={tmp_path / 'd.jsonl'}\n"
        f"checkpoint={tmp_path / 'm.ckpt'}\nmax_prompt_len=32\nmax_len=64\n",
        encoding="utf-8")
    assert main(["dump-queries", "--config", str(tmp_path / "c.cfg"),
                 "--level", "2"]) == 0
    line = capsys.readouterr().out.strip()
    # groups follow gold record order, not text order
    assert line == (
        "[CLS]"
        "[P] location: bonn[T] located in ( location )"
        "[P] people: lee[T] work for ( organization )"
        "[P] location: oslo[T] located in ( location )"
        f"[Text] {text}[SEP]"
    )


def _reference_dump_queries(cfg_path, level):
    """Renderings by the per-level ``gold_prefixes`` / ``plan_level`` loop
    that ``dump-queries`` ran before it rendered ``teacher_forced_queries``."""
    cfg = load_config(cfg_path)
    schema = parse_schema(Path(cfg.schema).read_text(encoding="utf-8"),
                          level_modes=level_mode_list(cfg))
    vocab = load_vocab(cfg.vocab or cfg.checkpoint + ".vocab")
    lines = []
    for ex in load_dataset(cfg.data, schema=schema, vocab=vocab):
        toks = tokenize(vocab, ex.text)
        for lvl in range(1, schema.depth + 1):
            if level is not None and lvl != level:
                continue
            prefixes = engine.gold_prefixes(ex.paths, schema, lvl)
            if not prefixes:
                continue
            plan = engine.plan_level(schema, prefixes, toks, ex.text, vocab,
                                     cfg)
            lines += [render_query(query) for query in plan.queries]
    return lines


def _coqe_workspace(root):
    rng = np.random.default_rng(11)
    examples = []
    for _ in range(12):
        text, paths = plant_quintuples(rng)
        # some records stop short of the polarity level, and some subjects
        # carry a polarity directly, so levels run out at different depths
        cut = int(rng.integers(2, 5))
        examples.append(Example(text, tuple(p[:cut] for p in paths)))
    (root / "coqe.json").write_text(json.dumps(COQE_SCHEMA_DICT),
                                    encoding="utf-8")
    save_dataset(examples, root / "coqe.jsonl")
    (root / "coqe.cfg").write_text(
        f"schema={root / 'coqe.json'}\ndata={root / 'coqe.jsonl'}\n"
        f"checkpoint={root / 'coqe.ckpt'}\nmax_prompt_len=48\nmax_len=128\n",
        encoding="utf-8")
    return root / "coqe.cfg", 4


@pytest.mark.parametrize("corpus", ["ner_re", "coqe"])
def test_dump_queries_equals_the_per_level_gold_prefix_loop(
        workspace, tmp_path, capsys, corpus):
    """``dump-queries`` prints, byte for byte, what a loop over
    ``gold_prefixes`` and ``plan_level`` per level renders, for every level
    and for each ``--level``."""
    if corpus == "ner_re":
        cfg_path, depth = workspace[0] / "run.cfg", 2
    else:
        cfg_path, depth = _coqe_workspace(tmp_path)
    for level in [None, *range(1, depth + 1)]:
        argv = ["dump-queries", "--config", str(cfg_path)]
        if level is not None:
            argv += ["--level", str(level)]
        assert main(argv) == 0
        got = capsys.readouterr().out
        want = _reference_dump_queries(cfg_path, level)
        assert got == "".join(line + "\n" for line in want)
        assert want


@pytest.mark.parametrize("level", ["0", "-1", "3", "7"])
def test_dump_queries_level_outside_the_schema_is_rejected(workspace, capsys,
                                                           level):
    root, _ = workspace
    capsys.readouterr()
    assert main(["dump-queries", "--config", str(root / "run.cfg"),
                 "--level", level]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("cli.BadConfig: --level must lie in [1, 2]")


def test_extract_dump_queries_keeps_no_matrices(trained, tmp_path,
                                                monkeypatch, capsys):
    """``extract --dump-queries`` over a data file drops each text's score
    matrices once its queries are printed, so memory does not grow with
    the file."""
    root = trained
    recorders = []

    class Recorder(engine.RecordingScorer):
        def __init__(self, inner):
            super().__init__(inner)
            recorders.append(self)

    monkeypatch.setattr(engine, "RecordingScorer", Recorder)
    assert main(["extract", "--config", str(root / "run.cfg"),
                 "--data", str(root / "data.jsonl"), "--dump-queries",
                 "--out", str(tmp_path / "out.jsonl")]) == 0
    printed = capsys.readouterr().out.splitlines()
    [recorder] = recorders
    assert len(printed) >= len((root / "data.jsonl").read_text().splitlines())
    assert recorder.queries == []
    assert recorder.matrices == []


def test_dump_queries_level_plans_only_the_levels_it_prints(workspace,
                                                             monkeypatch):
    """``--level N`` builds levels 1 .. N only: with one prefix level per
    record, ``--level 1`` plans once per record and the full dump twice."""
    root, examples = workspace
    calls = []
    plan_level = engine.plan_level

    def counted(*args, **kwargs):
        calls.append(args)
        return plan_level(*args, **kwargs)

    monkeypatch.setattr(engine, "plan_level", counted)
    for level, per_record in (["--level", "1"], 1), ([], 2):
        calls.clear()
        assert main(["dump-queries", "--config", str(root / "run.cfg"),
                     *level]) == 0
        assert len(calls) == per_record * len(examples)


@pytest.mark.parametrize("scorer", ["model", "grid"])
def test_extract_data_stops_at_an_overflowing_text(trained, tmp_path, capsys,
                                                   scorer):
    """More than ``WINDOW_TOKENS`` text tokens of short records, then a text
    longer than ``max_len``: ``extract --data`` exits 1 with one
    ``query.TextOverflow`` line, having written the records of every window
    that finished first.  Grid scores are recorded by the same walk over the
    records before the long text."""
    root = trained
    cfg = load_config(root / "run.cfg")
    validate_config(cfg)
    schema = parse_schema(NER_RE_SCHEMA)
    vocab = load_vocab(root / "model.ckpt.vocab")
    before = ner_re_corpus(seed=9, n=300)
    long = Example(" ".join(["tanaka"] * 80), ())
    data = tmp_path / "overflow.jsonl"
    save_dataset([*before, long, *ner_re_corpus(seed=10, n=5)], data)
    argv = ["extract", "--config", str(root / "run.cfg"), "--data", str(data)]
    if scorer == "model":
        model = engine.ModelScorer(*load_checkpoint(root / "model.ckpt"))
        scorer_for = lambda ex: model
    else:
        scorer_for = lambda ex: engine.GoldScorer(ex.paths)
        gold = {ex.text: scorer_for(ex) for ex in before}
        recorder = engine.RecordingScorer(lambda q: gold[q.source](q))
        list(engine.iter_extract([ex.text for ex in before], schema, vocab,
                                 recorder, cfg))
        save_grids(tmp_path / "scores.grid", recorder.matrices)
        argv += ["--oracle-scores", str(tmp_path / "scores.grid")]
    # the long text's window starts where the text tokens so far, in runs
    # of at most WINDOW_TOKENS, last filled a window
    start = used = 0
    for i, ex in enumerate([*before, long]):
        n = len(tokenize(vocab, ex.text))
        if used and used + n > engine.WINDOW_TOKENS:
            start, used = i, 0
        used += n
    assert 0 < start < len(before)
    want = [engine.extraction_record(ex.text, engine.extract(
        schema, vocab, scorer_for(ex), ex.text, cfg)) for ex in before[:start]]
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("query.TextOverflow: ")
    assert captured.out.splitlines() == want


# ---------------------------------------------------------------- errors ---

def _stderr_code(capsys):
    err = capsys.readouterr().err.strip()
    return err.split(":", 1)[0]


def test_missing_config_file_reports_io_error(tmp_path, capsys):
    rc = main(["train", "--config", str(tmp_path / "absent.cfg")])
    assert rc == 1
    assert _stderr_code(capsys) == "cli.IOError"


def test_config_without_schema_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("epochs=1\n", encoding="utf-8")
    rc = main(["train", "--config", str(cfg)])
    assert rc == 1
    assert _stderr_code(capsys) == "cli.BadConfig"


def test_bad_override_is_rejected(trained, capsys):
    root = trained
    rc = main(["train", "--config", str(root / "run.cfg"),
               "--set", "epochs=soon"])
    assert rc == 1
    assert _stderr_code(capsys) == "cli.BadConfig"


def test_invalid_dimensions_are_rejected(trained, capsys):
    root = trained
    rc = main(["eval", "--config", str(root / "run.cfg"),
               "--set", "d_head=7"])
    assert rc == 1
    assert _stderr_code(capsys) == "cli.BadConfig"


def test_non_finite_float_override_is_rejected(workspace, capsys):
    """``float()`` parses nan and inf; training would end in a raw traceback
    on ``warmup_ratio=nan``, so validation stops it in one stderr line."""
    root, _ = workspace
    rc = main(["train", "--config", str(root / "run.cfg"),
               "--set", "warmup_ratio=nan"])
    assert rc == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.split(":", 1)[0] == "cli.BadConfig"
    assert "warmup_ratio must be finite" in err


def test_checkpoint_dimension_mismatch(trained, tmp_path, capsys):
    root = trained
    rc = main(["eval", "--config", str(root / "run.cfg"),
               "--set", "d=32", "--out", str(tmp_path / "r.jsonl")])
    assert rc == 1
    assert _stderr_code(capsys) == "model.CheckpointMismatch"


def test_checkpoint_of_another_ffn_width_fails_eval(trained, tmp_path,
                                                   capsys):
    """A config whose ``ffn_mult`` differs from the checkpoint's is one
    ``model.CheckpointMismatch`` line naming both values."""
    capsys.readouterr()
    rc = main(["eval", "--config", str(trained / "run.cfg"),
               "--set", "ffn_mult=2", "--out", str(tmp_path / "r.jsonl")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("model.CheckpointMismatch: ")
    assert "ffn_mult=4 (config 2)" in err[0]


_BLAS_THREADS = r'''
import ctypes, glob
from pathlib import Path
import numpy as np
from spanlink.cli import main

libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
get = None
for path in sorted(glob.glob(str(libs / "*openblas*"))):
    get = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
    if get is not None:
        break
if get is None:
    print("none")
else:
    get.argtypes, get.restype = [], ctypes.c_int
    before = get()
    main(["dump-queries", "--config", "absent.cfg"])
    print(before, get())
'''


@pytest.mark.parametrize("chosen", [None, "OPENBLAS_NUM_THREADS",
                                    "OMP_NUM_THREADS"])
def test_cli_pins_blas_threads_unless_the_user_chose(chosen, tmp_path):
    """In a fresh interpreter, ``main`` leaves numpy's OpenBLAS on one
    thread, or on the count it started with when either variable is set."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    if chosen:
        env[chosen] = "2"
    root = Path(__file__).resolve().parent.parent
    env["PYTHONPATH"] = str(root / "src")
    done = subprocess.run([sys.executable, "-c", _BLAS_THREADS], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    if done.stdout.strip() == "none":
        pytest.skip("numpy's bundled OpenBLAS reports no thread count")
    before, after = map(int, done.stdout.split())
    assert after == (before if chosen else 1)


@pytest.mark.parametrize("final_norm", [False, None])
def test_checkpoint_without_the_final_norm_fails_eval(trained, tmp_path,
                                                      capsys, final_norm):
    """A header whose ``final_norm`` is false, or missing, is one
    ``model.CheckpointMismatch`` line; the encoder always ends in it."""
    root = trained
    blob = (root / "model.ckpt").read_bytes()
    (hlen,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12:12 + hlen])
    assert header["encoder"].pop("final_norm") is True
    if final_norm is not None:
        header["encoder"]["final_norm"] = final_norm
    new = json.dumps(header, sort_keys=True).encode("utf-8")
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob[:8] + struct.pack("<I", len(new)) + new
                    + blob[12 + hlen:])
    capsys.readouterr()
    rc = main(["eval", "--config", str(root / "run.cfg"),
               "--set", f"checkpoint={bad}",
               "--set", f"vocab={root / 'model.ckpt.vocab'}",
               "--out", str(tmp_path / "r.jsonl")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("model.CheckpointMismatch: ")


def test_extract_needs_text_or_data(trained, capsys):
    root = trained
    rc = main(["extract", "--config", str(root / "run.cfg")])
    assert rc == 1
    assert _stderr_code(capsys) == "cli.BadConfig"


def test_eval_without_vocab_file(workspace, tmp_path, capsys):
    root, _ = workspace
    rc = main(["eval", "--config", str(root / "run.cfg"),
               "--set", f"checkpoint={tmp_path / 'nowhere.ckpt'}",
               "--out", str(tmp_path / "r.jsonl")])
    assert rc == 1
    assert _stderr_code(capsys) == "cli.BadConfig"


def test_malformed_data_line_is_reported(trained, tmp_path, capsys):
    root = trained
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"paths": []}\n', encoding="utf-8")
    rc = main(["extract", "--config", str(root / "run.cfg"),
               "--data", str(bad)])
    assert rc == 1
    assert _stderr_code(capsys) == "data_metrics.MalformedRecord"


def test_eval_default_report_filename(trained, tmp_path, monkeypatch, capsys):
    root = trained
    monkeypatch.chdir(tmp_path)
    rc = main(["eval", "--config", str(root / "run.cfg")])
    assert rc == 0
    capsys.readouterr()
    assert os.path.exists("metric_report.json")


def test_non_utf8_config_is_a_one_line_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"d = 32\n\xff\n")
    rc = main(["train", "--config", str(cfg)])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("cli.BadConfig: ")
    assert "not UTF-8" in err[0]


# Bytes that never occur in UTF-8, whatever surrounds them.
_NEVER_UTF8 = [0xC0, 0xC1, *range(0xF5, 0x100)]
_FILE_CODES = {
    "run.cfg": "cli.BadConfig",
    "schema.json": "schema.MalformedSchema",
    "data.jsonl": "data_metrics.MalformedRecord",
    "vocab.tsv": "tokenize.MalformedVocab",
}


@pytest.fixture
def readable_workspace(tmp_path):
    """Config, schema, data and vocabulary files that ``dump-queries`` reads
    in full, with their pristine bytes."""
    examples = ner_re_corpus(seed=5, n=4)
    (tmp_path / "schema.json").write_text(NER_RE_SCHEMA, encoding="utf-8")
    save_dataset(examples, tmp_path / "data.jsonl")
    save_vocab(build_vocab([ex.text for ex in examples],
                           ["person", "organization",
                            "work for ( organization )"]),
               tmp_path / "vocab.tsv")
    (tmp_path / "run.cfg").write_text(
        f"schema={tmp_path / 'schema.json'}\n"
        f"data={tmp_path / 'data.jsonl'}\n"
        f"vocab={tmp_path / 'vocab.tsv'}\n"
        f"checkpoint={tmp_path / 'model.ckpt'}\n"
        "max_prompt_len=32\nmax_len=64\n",
        encoding="utf-8",
    )
    assert main(["dump-queries", "--config", str(tmp_path / "run.cfg")]) == 0
    return tmp_path, {name: (tmp_path / name).read_bytes()
                      for name in _FILE_CODES}


@pytest.mark.parametrize("name", sorted(_FILE_CODES))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(bad=st.tuples(st.integers(0, 2**16), st.sampled_from(_NEVER_UTF8)),
       edits=st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)),
                      max_size=4))
def test_non_utf8_bytes_in_any_input_file_are_a_one_line_error(
        readable_workspace, capsys, name, bad, edits):
    """A config, schema, data or vocabulary file with bytes that are not
    UTF-8 ends ``spanlink`` with exit status 1 and one stderr line naming
    the reader's error, never a traceback."""
    root, pristine = readable_workspace
    blob = bytearray(pristine[name])
    for pos, byte in edits:
        blob[pos % len(blob)] = byte
    pos, byte = bad
    blob.insert(pos % (len(blob) + 1), byte)
    (root / name).write_bytes(bytes(blob))
    capsys.readouterr()
    try:
        rc = main(["dump-queries", "--config", str(root / "run.cfg")])
    finally:
        (root / name).write_bytes(pristine[name])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"{_FILE_CODES[name]}: ")


@pytest.mark.parametrize("name, blob, code", [
    pytest.param("schema.json", '{"a": ' * 5000 + "null" + "}" * 5000,
                 "schema.MalformedSchema", id="schema-5000"),
    # deep enough to overflow the depth count, shallow enough for JSON
    pytest.param("schema.json", '{"a": ' * 400 + "null" + "}" * 400,
                 "schema.MalformedSchema", id="schema-400"),
    pytest.param("data.jsonl",
                 '{"text": "a", "paths": ' + "[" * 5000 + "]" * 5000 + "}\n",
                 "data_metrics.MalformedRecord", id="data-5000"),
])
@pytest.mark.parametrize("command", ["train", "dump-queries"])
def test_deeply_nested_json_is_a_one_line_error(readable_workspace, capsys,
                                                name, blob, code, command):
    """Nesting past the interpreter's recursion limit ends in the reader's
    error, not a RecursionError traceback."""
    root, _ = readable_workspace
    (root / name).write_text(blob, encoding="utf-8")
    capsys.readouterr()
    assert main([command, "--config", str(root / "run.cfg")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"{code}: ")


def test_diverging_training_stops_at_the_step(workspace, tmp_path, capsys):
    """A learning rate that blows the parameters up ends training at the
    first step with a non-finite gradient norm, before AdamW writes NaN
    into the model, with one ``engine.Diverged`` line naming where."""
    root, _ = workspace
    ckpt = tmp_path / "diverged.ckpt"
    capsys.readouterr()
    rc = main(["train", "--config", str(root / "run.cfg"),
               "--set", f"checkpoint={ckpt}", "--set", "lr=1000",
               "--set", "d=64", "--set", "d_head=64", "--set", "layers=2",
               "--set", "heads=4", "--set", "epochs=50"])
    assert rc == 1
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert last.startswith("engine.Diverged: gradient norm is ")
    assert " at epoch " in last and ", step " in last and "lr=1000" in last
    assert not ckpt.exists()


def test_diverging_training_prints_one_line_and_no_warnings(workspace,
                                                           tmp_path, capsys):
    """The float32 overflows on the way to a non-finite gradient norm raise
    no numpy RuntimeWarning: the ``engine.Diverged`` line is the only
    thing on stderr."""
    root, _ = workspace
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["train", "--config", str(root / "run.cfg"),
                   "--set", f"checkpoint={tmp_path / 'diverged.ckpt'}",
                   "--set", "lr=1000", "--set", "d=64", "--set", "d_head=64",
                   "--set", "layers=2", "--set", "heads=4",
                   "--set", "epochs=50"])
    assert rc == 1
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("engine.Diverged: ")


@pytest.mark.parametrize("key", ["schema", "data", "vocab", "checkpoint"])
def test_nul_byte_in_a_config_path_is_a_one_line_error(trained, tmp_path,
                                                       capsys, key):
    """``open`` raises ValueError on a path with a NUL byte; validation
    stops it first, in one ``cli.BadConfig`` line, not a traceback."""
    root = trained
    cfg = tmp_path / "nul.cfg"
    cfg.write_text((root / "run.cfg").read_text(encoding="utf-8")
                   + f"{key}=\0x\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg),
                 "--out", str(tmp_path / "r.jsonl")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0] == f"cli.BadConfig: {key} path contains a NUL byte"


def test_read_text_maps_a_path_open_rejects_to_its_error():
    with pytest.raises(MalformedSchema, match="embedded null byte"):
        read_text("schema\0.json", MalformedSchema)


def _checkpoint_with(root, tmp_path, value):
    """The trained checkpoint with ``l0.ffn.w1[0, 0]`` set to ``value``."""
    enc, head = load_checkpoint(root / "model.ckpt")
    enc.params["l0.ffn.w1"][0, 0] = value
    path = tmp_path / "mutated.ckpt"
    save_checkpoint(path, enc, head)
    return path


def test_checkpoint_with_an_infinite_weight_fails_eval(trained, tmp_path,
                                                      capsys):
    root = trained
    bad = _checkpoint_with(root, tmp_path, np.inf)
    capsys.readouterr()
    rc = main(["eval", "--config", str(root / "run.cfg"),
               "--set", f"checkpoint={bad}",
               "--set", f"vocab={root / 'model.ckpt.vocab'}",
               "--out", str(tmp_path / "r.jsonl")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["model.CheckpointMismatch: tensor enc.l0.ffn.w1 holds a "
                   "non-finite weight"]


def test_overflowing_weights_end_extract_in_one_line_and_no_warnings(
        trained, tmp_path, capsys):
    """A finite weight of 3e38 loads, then overflows float32 in the
    encoder: ``extract --data`` ends in one ``decode.NonFiniteScores``
    line, with no numpy RuntimeWarning before it."""
    root = trained
    bad = _checkpoint_with(root, tmp_path, 3e38)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["extract", "--config", str(root / "run.cfg"),
                   "--set", f"checkpoint={bad}",
                   "--set", f"vocab={root / 'model.ckpt.vocab'}",
                   "--data", str(root / "data.jsonl"),
                   "--out", str(tmp_path / "out.jsonl")])
    assert rc == 1
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("decode.NonFiniteScores: ")


def test_extract_dump_queries_with_a_model_scores_padded_batches(
        trained, tmp_path, monkeypatch, capsys):
    """``--dump-queries`` records what the model scores without changing
    how it scores: over 250 texts, as many ``ModelScorer.many`` calls as
    plain ``extract --data``, and the same records."""
    root = trained
    data = tmp_path / "texts.jsonl"
    save_dataset(ner_re_corpus(seed=9, n=250), data)
    calls = []
    many = engine.ModelScorer.many

    def counted(self, queries):
        calls.append(len(queries))
        return many(self, queries)

    monkeypatch.setattr(engine.ModelScorer, "many", counted)
    runs = {}
    for extra in ([], ["--dump-queries"]):
        calls.clear()
        out = tmp_path / f"out{len(extra)}.jsonl"
        assert main(["extract", "--config", str(root / "run.cfg"),
                     "--data", str(data), "--out", str(out), *extra]) == 0
        runs[bool(extra)] = (list(calls), out.read_bytes())
    printed = capsys.readouterr().out.splitlines()
    assert runs[True] == runs[False]
    assert len(printed) == sum(runs[True][0]) > len(runs[True][0])
