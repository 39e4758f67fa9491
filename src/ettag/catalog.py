"""Entity catalog, canonical names, vocabularies, and the reversible tokenizer.

The catalog is a bijection between dense integer ids (file order) and
canonical entity names. The tokenizer splits on whitespace and peels
leading/trailing punctuation off each word; word-initial tokens carry a
boundary marker so detokenization reproduces the canonical string exactly,
including names with free-standing punctuation ("Astronomy & Astrophysics").
"""

from __future__ import annotations

import hashlib
import unicodedata
from collections import Counter
from typing import Iterable, Iterator, Sequence

from .errors import (
    DuplicateName,
    EmptyCatalog,
    InvalidName,
    MalformedLine,
    OutputOOV,
)

EntityId = int
TokenSeq = list[int]

BOS, EOS, SEP, UNK = 0, 1, 2, 3
RESERVED_TOKENS = ("<bos>", "<eos>", "<sep>", "<unk>")
N_RESERVED = len(RESERVED_TOKENS)

# Marks a token that starts a whitespace-delimited word. Tokens without the
# marker attach directly to the previous token on detokenization.
WORD_MARK = "▁"


def canonicalize(raw: str) -> str:
    """NFC-normalize, trim, and collapse internal whitespace runs to single spaces.

    Idempotent. Raises InvalidName if nothing is left.
    """
    name = " ".join(unicodedata.normalize("NFC", raw).split())
    if not name:
        raise InvalidName(f"name is empty after normalization: {raw!r}")
    return name


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch)[0] in ("P", "S")


def _split_word(word: str) -> list[str]:
    # Peel leading/trailing punctuation characters into their own tokens;
    # a word that is pure punctuation stays whole.
    n = len(word)
    lead = 0
    while lead < n and _is_punct(word[lead]):
        lead += 1
    if lead == n:
        return [word]
    tail = n
    while tail > lead and _is_punct(word[tail - 1]):
        tail -= 1
    return [*word[:lead], word[lead:tail], *word[tail:]]


def word_tokens(text: str) -> list[str]:
    """Tokenize text into marker-carrying string tokens."""
    out: list[str] = []
    for word in text.split():
        parts = _split_word(word)
        out.append(WORD_MARK + parts[0])
        out.extend(parts[1:])
    return out


def join_tokens(tokens: Iterable[str]) -> str:
    """Inverse of word_tokens on canonical text."""
    return "".join(tokens).replace(WORD_MARK, " ").lstrip(" ")


def nul_terminated(strings: Sequence[str]) -> bytes:
    """Each string as UTF-8 followed by a NUL byte: the bytes a content hash
    covers, and the checkpoint's input-vocabulary section."""
    return "\0".join((*strings, "")).encode("utf-8")


class Vocabulary:
    """Immutable token table. Reserved tokens occupy ids 0..3, content follows.

    Token strings produced by word_tokens never collide with the reserved
    strings: word-initial tokens start with the boundary marker, attached
    tokens are either single punctuation characters or start and end with
    non-punctuation.
    """

    __slots__ = ("tokens", "_index")

    def __init__(self, content_tokens: Iterable[str]):
        toks = list(RESERVED_TOKENS)
        seen = set(toks)
        for t in content_tokens:
            if t not in seen:
                seen.add(t)
                toks.append(t)
        self.tokens: tuple[str, ...] = tuple(toks)
        self._index: dict[str, int] = {t: i for i, t in enumerate(toks)}

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def id_of(self, token: str) -> int | None:
        return self._index.get(token)

    def content_hash(self) -> bytes:
        return hashlib.sha256(nul_terminated(self.tokens)).digest()


def tokenize(text: str, vocab: Vocabulary, mode: str = "input") -> TokenSeq:
    """Map text to token ids. mode='input' sends unknown tokens to UNK;
    mode='output' raises OutputOOV on anything outside the vocabulary."""
    if mode not in ("input", "output"):
        raise ValueError(f"unknown tokenize mode {mode!r}")
    ids: TokenSeq = []
    index = vocab._index
    for t in word_tokens(text):
        i = index.get(t)
        if i is None:
            if mode == "output":
                raise OutputOOV(f"token {t!r} not in output vocabulary")
            i = UNK
        ids.append(i)
    return ids


def detokenize(ids: Sequence[int], vocab: Vocabulary) -> str:
    """Map content token ids back to text. Reserved ids are skipped."""
    toks = vocab.tokens
    return join_tokens(toks[i] for i in ids if i >= N_RESERVED)


class EntityCatalog:
    """Ordered, deduplicated collection of canonical entity names."""

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        canonical = [canonicalize(n) for n in names]
        for name in canonical:
            _reject_reserved_glyphs(name)
        index: dict[str, int] = {}
        dups = []
        for i, name in enumerate(canonical):
            if name in index:
                dups.append(name)
            else:
                index[name] = i
        if dups:
            raise DuplicateName(dups)
        self.names: tuple[str, ...] = tuple(canonical)
        self._index = index

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def name_of(self, entity_id: EntityId) -> str:
        return self.names[entity_id]

    def id_of(self, name: str) -> EntityId | None:
        return self._index.get(name)

    def content_hash(self) -> bytes:
        return hashlib.sha256(nul_terminated(self.names)).digest()

    @classmethod
    def load(cls, path, format: str = "plain-lines") -> "EntityCatalog":
        """Load a KB file: one name per line, or TSV ``id<TAB>name``.

        Lines beginning with '#' and fully empty lines are ignored. The TSV
        id column is external metadata; dense ids always follow file order.
        """
        if format not in ("plain-lines", "tsv"):
            raise ValueError(f"unknown catalog format {format!r}")
        names: list[str] = []
        with open(path, "r", encoding="utf-8") as f:
            for line_no, line in enumerate(f, 1):
                line = line.rstrip("\n")
                if not line or line.startswith("#"):
                    continue
                if format == "tsv":
                    if "\t" not in line:
                        raise MalformedLine(line_no, "expected id<TAB>name")
                    line = line.split("\t", 1)[1]
                names.append(line)
        return cls(names)


def _reject_reserved_glyphs(name: str) -> None:
    # The separator's textual form and the word-boundary marker must not be
    # spellable inside a catalog name.
    if WORD_MARK in name:
        raise InvalidName(f"name contains the boundary marker U+2581: {name!r}")
    if "<sep>" in name:
        raise InvalidName(f"name contains the separator literal: {name!r}")


def build_vocabularies(
    catalog: EntityCatalog,
    corpus: Iterable[str],
    min_count: int = 1,
) -> tuple[Vocabulary, Vocabulary]:
    """Build (input, output) vocabularies.

    Output: reserved tokens plus every token of every catalog name, in first
    encounter order. Input: reserved plus corpus tokens with count >= min_count.
    """
    if len(catalog) == 0:
        raise EmptyCatalog("cannot build vocabularies for an empty catalog")
    out_tokens: list[str] = []
    seen: set[str] = set()
    for name in catalog:
        for t in word_tokens(name):
            if t not in seen:
                seen.add(t)
                out_tokens.append(t)
    counts: Counter[str] = Counter()
    order: list[str] = []
    for text in corpus:
        for t in word_tokens(text):
            if t not in counts:
                order.append(t)
            counts[t] += 1
    in_tokens = [t for t in order if counts[t] >= min_count]
    return Vocabulary(in_tokens), Vocabulary(out_tokens)
