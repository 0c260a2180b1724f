"""spanlink: schema-guided universal information extraction.

A hierarchical schema is compiled, level by level, into encoder queries that
carry the already-extracted prefix and the candidate types for the next step.
A rotary scoring head turns the encoder's hidden states into a token-pair
score matrix, and span decoding reads spans off that matrix through a
three-cell linking rule (head-tail, head-type, type-tail).  Classification
levels reuse the same matrix through a dedicated [CLASSIFY] /
[MULTICLASSIFY] token.  The whole stack — tokenizer, transformer encoder,
scoring head, losses and gradients — is plain numpy and trains at desk scale.

Quick taste::

    from spanlink import (
        Config, GoldScorer, build_vocab, extract, load_dataset, parse_schema,
    )

    schema = parse_schema('{"person": {"work for ( organization )": null}, '
                          '"organization": null}')
    vocab = build_vocab(["rivera works for acme ."], schema_labels=["person",
                        "organization", "work for ( organization )"])
    # score with an oracle built from gold paths or a trained model; see
    # spanlink.engine for the scorers.
"""

from .config import Config, format_config, load_config, parse_config
from .data import Example, PathElement, load_dataset, save_dataset
from .decoding import (
    ClsDecision,
    TypedSpan,
    decode_cls_multi,
    decode_ie,
    oracle_decode,
)
from .engine import (
    ExtractionPath,
    GoldScorer,
    ModelScorer,
    evaluate,
    extract,
    iter_extract,
    train,
)
from .errors import SpanlinkError
from .metrics import MetricReport, corpus_f1, metric_for_task, strict_match_f1
from .model import (
    EncoderConfig,
    EncoderParams,
    ScoringHead,
    backward,
    backward_batch,
    circle_loss,
    encode,
    init_encoder,
    init_head,
    load_checkpoint,
    save_checkpoint,
    score,
)
from .query import (
    PrefixGroup,
    Query,
    build_target,
    make_query,
    render_query,
    split_query,
)
from .schema import LevelMode, Schema, SchemaNode, children_of, parse_schema, render_schema, validate_schema
from .tokenizer import Vocab, build_vocab, load_vocab, save_vocab, tokenize

__version__ = "0.1.0"

__all__ = [
    "ClsDecision", "Config", "EncoderConfig", "EncoderParams", "Example",
    "ExtractionPath", "GoldScorer", "LevelMode", "MetricReport",
    "ModelScorer", "PathElement", "PrefixGroup", "Query", "Schema",
    "SchemaNode", "ScoringHead", "SpanlinkError", "TypedSpan", "Vocab",
    "backward", "backward_batch", "build_target", "build_vocab",
    "children_of", "circle_loss", "corpus_f1", "decode_cls_multi",
    "decode_ie", "encode", "evaluate", "extract", "format_config",
    "init_encoder", "init_head", "iter_extract", "load_checkpoint",
    "load_config", "load_dataset", "load_vocab", "make_query",
    "metric_for_task", "oracle_decode", "parse_config", "parse_schema",
    "render_query", "render_schema", "save_checkpoint", "save_dataset",
    "save_vocab", "score", "split_query", "strict_match_f1",
    "tokenize", "train", "validate_schema",
]
