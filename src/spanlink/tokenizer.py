"""Word-level tokenizer and vocabulary.

The model never sees subwords: a token is either

* an optional leading apostrophe followed by a maximal run of word
  characters (letters, digits, underscore), so English clitics like ``'s``
  stay whole and ``god's`` splits into ``god`` + ``'s``; or
* a maximal run of other non-space characters (punctuation), so ``said.``
  splits into ``said`` + ``.``.

Every token records exact half-open character offsets into its source
string, and tokenizing the surface of any single token yields that token
back.  Marker tokens such as ``[CLS]`` can never be produced from raw text
because ``[`` is punctuation and breaks the bracket off.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

from .errors import EmptyCorpus, MalformedVocab, read_text

# Reserved tokens, in fixed id order 0..8.  [PAD] (id 0) fills the unused
# slots of a padded batch (``model.encode_batch``) and never appears in a
# query; [UNK] stands in for out-of-vocabulary words while keeping their true
# offsets.
PAD, UNK, CLS, SEP = "[PAD]", "[UNK]", "[CLS]", "[SEP]"
PREFIX_MARK, TYPE_MARK, TEXT_MARK = "[P]", "[T]", "[Text]"
CLASSIFY, MULTICLASSIFY = "[CLASSIFY]", "[MULTICLASSIFY]"

RESERVED = (PAD, UNK, CLS, SEP, PREFIX_MARK, TYPE_MARK, TEXT_MARK,
            CLASSIFY, MULTICLASSIFY)

_TOKEN_RE = re.compile(r"'?\w+|[^\w\s]+")


@dataclass
class Vocab:
    """Token-to-id mapping with dense ids starting at 0; ``segments`` holds
    the ids of label segments laid out by ``query`` until ``add`` adds a
    token."""

    token_to_id: dict[str, int] = field(default_factory=dict)
    id_to_token: list[str] = field(default_factory=list)
    segments: dict = field(default_factory=dict, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.id_to_token)

    def add(self, token: str) -> int:
        if token in self.token_to_id:
            return self.token_to_id[token]
        self.segments.clear()
        idx = len(self.id_to_token)
        self.token_to_id[token] = idx
        self.id_to_token.append(token)
        return idx

    def id(self, token: str) -> int:
        """Id of ``token``, falling back to [UNK]."""
        return self.token_to_id.get(token, self.token_to_id[UNK])


@dataclass
class TokenizedText:
    """Tokens of one source string with exact character offsets."""

    token_ids: list[int]
    offsets: list[tuple[int, int]]

    def __len__(self) -> int:
        return len(self.token_ids)

    @cached_property
    def start_index(self) -> dict[int, int]:
        """Token index of each token's start offset."""
        return {s: i for i, (s, _) in enumerate(self.offsets)}

    @cached_property
    def end_index(self) -> dict[int, int]:
        """Token index of each token's end offset."""
        return {e: i for i, (_, e) in enumerate(self.offsets)}


def word_split(text: str) -> list[tuple[int, int]]:
    """Offsets of raw word/punctuation tokens, before vocabulary lookup."""
    return [m.span() for m in _TOKEN_RE.finditer(text)]


def build_vocab(corpus, schema_labels=()) -> Vocab:
    """Build a vocabulary over corpus texts plus schema label strings.

    Reserved tokens take ids 0..8; the rest follow in first-seen order, so
    the result is deterministic given the same inputs in the same order.
    """
    vocab = Vocab()
    for token in RESERVED:
        vocab.add(token)
    seen_any = False
    for text in corpus:
        for start, end in word_split(text):
            seen_any = True
            vocab.add(text[start:end])
    if not seen_any:
        raise EmptyCorpus("corpus contains no tokens")
    for label in schema_labels:
        for start, end in word_split(label):
            vocab.add(label[start:end])
    return vocab


def tokenize(vocab: Vocab, text: str) -> TokenizedText:
    """Tokenize raw text.  Unknown words map to [UNK] but keep real offsets."""
    offsets = word_split(text)
    ids = [vocab.id(text[start:end]) for start, end in offsets]
    return TokenizedText(token_ids=ids, offsets=offsets)


def save_vocab(vocab: Vocab, path) -> None:
    """Write ``token<TAB>id`` lines sorted by id."""
    with open(path, "w", encoding="utf-8") as fh:
        for idx, token in enumerate(vocab.id_to_token):
            fh.write(f"{token}\t{idx}\n")


def load_vocab(path) -> Vocab:
    vocab = Vocab()
    for lineno, line in enumerate(read_text(path, MalformedVocab).split("\n")):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[1].isdigit():
            raise MalformedVocab(f"line {lineno + 1}: expected token<TAB>id")
        token, idx = parts[0], int(parts[1])
        if idx != len(vocab.id_to_token):
            raise MalformedVocab(f"line {lineno + 1}: ids must be dense and sorted")
        if token in vocab.token_to_id:
            raise MalformedVocab(f"line {lineno + 1}: duplicate token {token!r}")
        vocab.add(token)
    for i, token in enumerate(RESERVED):
        if i >= len(vocab.id_to_token) or vocab.id_to_token[i] != token:
            raise MalformedVocab(f"reserved token {token} missing from id {i}")
    return vocab
