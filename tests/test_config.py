"""Key=value configuration: parsing, overrides, validation."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spanlink.config import (
    Config,
    apply_overrides,
    eval_task_list,
    format_config,
    level_mode_list,
    load_config,
    parse_config,
    validate_config,
)
from spanlink.errors import BadConfig
from spanlink.schema import LevelMode


def test_defaults_validate():
    validate_config(Config())


def test_format_parse_round_trip():
    cfg = Config(max_len=128, lr=0.0025, eval_tasks="entity,relation-strict",
                 schema="/tmp/s.json", delta_cls=0.85)
    assert parse_config(format_config(cfg)) == cfg


def test_parse_ignores_comments_and_blanks():
    cfg = parse_config("# budgets\n\nmax_len=64\n  max_prompt_len = 32 \n")
    assert cfg.max_len == 64
    assert cfg.max_prompt_len == 32
    # untouched fields keep their defaults
    assert cfg.delta_cls == Config().delta_cls


@pytest.mark.parametrize("text,fragment", [
    ("max_len 64", "key=value"),
    ("no_such_key=1", "unknown config key"),
    ("max_len=ten", "must be int"),
    ("lr=fast", "must be float"),
])
def test_parse_rejects_malformed_lines(text, fragment):
    with pytest.raises(BadConfig, match=fragment):
        parse_config(text)


def test_parse_error_reports_line_number():
    with pytest.raises(BadConfig, match="line 3"):
        parse_config("max_len=64\n# fine\nbogus_key=1\n")


def test_overrides_win_left_to_right():
    cfg = parse_config("max_len=64\nseed=1\n")
    apply_overrides(cfg, ["seed=2", "seed=3", "lr=0.5"])
    assert cfg.seed == 3
    assert cfg.lr == 0.5
    assert cfg.max_len == 64


@pytest.mark.parametrize("item", ["seed", "mystery=1", "epochs=soon"])
def test_overrides_reject_malformed(item):
    with pytest.raises(BadConfig):
        apply_overrides(Config(), [item])


def test_config_file_naming_jobs_is_rejected(tmp_path):
    # extraction batches texts with no setting; the old worker-thread key
    # is gone rather than silently ignored
    path = tmp_path / "run.cfg"
    path.write_text("d=16\njobs=2\n", encoding="utf-8")
    with pytest.raises(BadConfig, match="jobs"):
        load_config(path)


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("d=16\nd_head=8\n", encoding="utf-8")
    cfg = load_config(path)
    assert (cfg.d, cfg.d_head) == (16, 8)


@pytest.mark.parametrize("kw", [
    dict(max_prompt_len=512, max_len=512),
    dict(delta_cls=1.5),
    dict(delta_cls=-0.1),
    dict(d=0),
    dict(d_head=7),
    dict(layers=-1),
    dict(epochs=-2),
    dict(level_modes="extract,shout"),
    ])
def test_validate_rejections(kw):
    with pytest.raises(BadConfig):
        validate_config(Config(**kw))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["delta_ie", "lr", "weight_decay",
                                 "warmup_ratio", "grad_clip", "early_stop_f1"])
def test_validate_rejects_non_finite_floats(key, value):
    cfg = apply_overrides(Config(), [f"{key}={value}"])
    with pytest.raises(BadConfig, match=f"{key} must be finite"):
        validate_config(cfg)


def test_level_mode_list():
    cfg = Config(level_modes="extract, cls_single ,cls_multi")
    assert level_mode_list(cfg) == [
        LevelMode.EXTRACT, LevelMode.CLASSIFY_SINGLE, LevelMode.CLASSIFY_MULTI]
    assert level_mode_list(Config(level_modes="  ")) == []


def test_eval_task_list_strips_and_drops_empties():
    assert eval_task_list(Config(eval_tasks=" entity ,, relation-strict ")) \
        == ["entity", "relation-strict"]
    assert eval_task_list(Config(eval_tasks="")) == []


_INT_FIELDS = [f.name for f in dataclasses.fields(Config) if f.type == "int"]


@given(st.dictionaries(st.sampled_from(_INT_FIELDS),
                       st.integers(min_value=1, max_value=10 ** 6),
                       max_size=len(_INT_FIELDS)))
def test_round_trip_random_int_fields(values):
    cfg = Config(**values)
    assert parse_config(format_config(cfg)) == cfg
