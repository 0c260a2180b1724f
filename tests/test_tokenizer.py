import re

import pytest
from hypothesis import given, strategies as st

from spanlink.errors import EmptyCorpus, MalformedVocab
from spanlink.tokenizer import (
    RESERVED,
    UNK,
    build_vocab,
    load_vocab,
    save_vocab,
    tokenize,
    word_split,
)


def surfaces(text):
    return [text[s:e] for s, e in word_split(text)]


def test_word_split_basic():
    assert surfaces("EU rejects German call .") == \
        ["EU", "rejects", "German", "call", "."]


def test_word_split_clitics_stay_attached():
    assert surfaces("god's war") == ["god", "'s", "war"]
    assert surfaces("god 's war") == ["god", "'s", "war"]
    assert surfaces("don't stop") == ["don", "'t", "stop"]


def test_word_split_punctuation_runs():
    assert surfaces("said. Really?!") == ["said", ".", "Really", "?!"]
    assert surfaces("a-b") == ["a", "-", "b"]
    assert surfaces("( organization )") == ["(", "organization", ")"]


def test_word_split_offsets_are_exact():
    text = "Lifa said.  done"
    for s, e in word_split(text):
        assert text[s:e].strip() == text[s:e]
        assert text[s:e] != ""


def test_reserved_ids_are_stable():
    vocab = build_vocab(["a b"], [])
    for i, token in enumerate(RESERVED):
        assert vocab.token_to_id[token] == i
    assert len(RESERVED) == 9


def test_build_vocab_first_seen_order_and_labels():
    vocab = build_vocab(["b a", "a c"], ["person"])
    assert vocab.id_to_token[9:] == ["b", "a", "c", "person"]


def test_build_vocab_empty_corpus():
    with pytest.raises(EmptyCorpus):
        build_vocab([], ["person"])
    with pytest.raises(EmptyCorpus):
        build_vocab(["   "], [])


def test_tokenize_unknown_words_keep_offsets():
    vocab = build_vocab(["known words"], [])
    out = tokenize(vocab, "unknown words")
    assert out.offsets == [(0, 7), (8, 13)]
    assert out.token_ids[0] == vocab.token_to_id[UNK]
    assert out.token_ids[1] == vocab.token_to_id["words"]


def test_vocab_save_load_round_trip(tmp_path):
    vocab = build_vocab(["EU rejects German call ."], ["person"])
    path = tmp_path / "vocab.tsv"
    save_vocab(vocab, path)
    again = load_vocab(path)
    assert again.id_to_token == vocab.id_to_token
    assert again.token_to_id == vocab.token_to_id


@pytest.mark.parametrize("body", [
    "[PAD]\t0\n[UNK]\t1\n",                      # missing reserved tokens
    "x\t0\n",                                     # reserved not first
    "[PAD]\t0\nno-tab-here\n",                    # malformed line
    "[PAD]\t0\n[UNK]\t2\n",                       # gap in ids
])
def test_load_vocab_rejects_malformed(tmp_path, body):
    path = tmp_path / "vocab.tsv"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(MalformedVocab):
        load_vocab(path)


def test_load_vocab_rejects_duplicate(tmp_path):
    vocab = build_vocab(["a b"], [])
    path = tmp_path / "vocab.tsv"
    lines = [f"{t}\t{i}" for i, t in enumerate(vocab.id_to_token)]
    lines.append(f"a\t{len(vocab)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(MalformedVocab):
        load_vocab(path)


_text = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd", "Po", "Sm"),
                           whitelist_characters=" \t'"),
    min_size=0, max_size=60,
)


@given(_text)
def test_offsets_tile_the_nonspace_characters(text):
    spans = word_split(text)
    # ascending, non-overlapping, non-empty
    prev_end = 0
    for s, e in spans:
        assert s >= prev_end and e > s
        prev_end = e
    joined = "".join(text[s:e] for s, e in spans)
    assert joined == re.sub(r"\s+", "", text)


@given(_text.filter(lambda t: word_split(t)))
def test_tokenize_surfaces_match_offsets(text):
    vocab = build_vocab([text], [])
    out = tokenize(vocab, text)
    assert out.offsets == word_split(text)
    for (s, e), token_id in zip(out.offsets, out.token_ids):
        assert vocab.id_to_token[token_id] == text[s:e]
