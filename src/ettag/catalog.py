"""Entity catalog, canonical names, vocabularies, and the reversible tokenizer.

The catalog is a bijection between dense integer ids (file order) and
canonical entity names. In memory the catalog is one buffer, its names as
NUL-terminated UTF-8: a trie cache's names section, so a catalog read from a
cache is a view of that section. A name is decoded when it is used: a pass
over the names, such as the one that finds the ids of a set of names,
decodes them a block at a time, so no string of every name is ever held.

The tokenizer splits on whitespace and peels leading/trailing punctuation
off each word; word-initial tokens carry a boundary marker so joining
the tokens reproduces the canonical string exactly, including names with
free-standing punctuation ("Astronomy & Astrophysics").

Every text input opens through ``open_text``: UTF-8 read as text mode reads
it, with a byte that is not UTF-8 placed at its offset in the file.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import unicodedata
from array import array
from collections import Counter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

import numpy as np

from .errors import DuplicateName, EmptyCatalog, InvalidConfig, InvalidName, MalformedLine, OutputOOV

EntityId = int
TokenSeq = list[int]

BOS, EOS, SEP, UNK = 0, 1, 2, 3
RESERVED_TOKENS = ("<bos>", "<eos>", "<sep>", "<unk>")
N_RESERVED = len(RESERVED_TOKENS)
# EntityCatalog.load reads a KB file this many characters at a time (1 MB of ASCII);
# kb_sha256 hashes it, and _nul_positions scans a names section, this many bytes at a time
_BLOCK_BYTES = 1 << 20
# EntityCatalog(names) and each pass over a catalog's names take the names in
# blocks of this many, so few of their strings are alive at once
_BLOCK_NAMES = 1 << 12
_name_hash = hash  # the per-name hash the duplicate check sorts; names of equal hash are compared

# Marks a token that starts a whitespace-delimited word. Tokens without the
# marker attach directly to the previous token when tokens are joined.
WORD_MARK = "▁"


def canonicalize(raw: str) -> str:
    """NFC-normalize, trim, and collapse internal whitespace runs to single spaces.

    Idempotent, and ``raw`` itself when it is already canonical. Raises
    InvalidName if nothing is left.
    """
    name = " ".join((raw if raw.isascii() else unicodedata.normalize("NFC", raw)).split())
    if not name:
        raise InvalidName(f"name is empty after normalization: {raw!r}")
    return raw if name == raw else name


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
        # no alphanumeric character is punctuation, so such a word stays whole
        if word.isalnum():
            out.append(WORD_MARK + word)
            continue
        parts = _split_word(word)
        out.append(WORD_MARK + parts[0])
        out.extend(parts[1:])
    return out


@contextlib.contextmanager
def open_text(path) -> Iterator[TextIO]:
    """The UTF-8 file at ``path`` in text mode: a leading byte-order mark skipped, "\\r\\n" and a
    lone "\\r" read as "\\n". A UnicodeDecodeError raised while it is open becomes, if the file can
    seek, the one a whole read raises, which places the byte at its offset in the file (past a
    byte-order mark), not in the decoder's chunk; from a pipe it is raised as read."""
    with open(path, encoding="utf-8-sig") as f:
        try:
            yield f
        except UnicodeDecodeError:
            if f.seekable():
                f.buffer.seek(0)
                f.buffer.read().decode("utf-8-sig")
            raise


def nul_terminated(strings: Sequence[str]) -> bytes:
    """Each string as UTF-8 followed by a NUL byte: the bytes a vocabulary's
    content hash covers, the form an EntityCatalog holds its names in, and the
    checkpoint's input-vocabulary section."""
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
        self.tokens: tuple[str, ...] = tuple(dict.fromkeys((*RESERVED_TOKENS, *content_tokens)))
        self._index: dict[str, int] = {t: i for i, t in enumerate(self.tokens)}

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def id_of(self, token: str) -> int | None:
        return self._index.get(token)

    def content_hash(self) -> bytes:
        return hashlib.sha256(nul_terminated(self.tokens)).digest()


def read_vocabulary(section: bytes) -> Vocabulary | None:
    """The vocabulary whose tokens ``nul_terminated`` writes as ``section``;
    None unless the section is UTF-8 spelling distinct tokens, reserved first."""
    vocab = Vocabulary(section.decode("utf-8", "replace").split("\0")[N_RESERVED:-1])
    return vocab if nul_terminated(vocab.tokens) == section else None


def read_catalog(section, vocab: Vocabulary | None = None) -> EntityCatalog | None:
    """The catalog whose names ``nul_terminated`` wrote as ``section``, taken as
    checked, with output vocabulary ``vocab`` if given; None unless the section
    is strict UTF-8 and each of its names ends in a NUL, a section with a byte
    past ASCII checked by a pass over its blocks. The catalog holds
    ``section`` itself, not a copy, and decodes a name only when it is used."""
    ends = _nul_positions(section)
    if len(section) != (ends[-1] + 1 if len(ends) else 0):
        return None
    catalog = EntityCatalog.__new__(EntityCatalog)
    catalog.names_section, catalog._ends, catalog._vocab = section, ends, vocab
    if np.frombuffer(section, np.uint8).max(initial=0) > 0x7F:
        try:
            for _ in catalog._blocks():
                pass
        except UnicodeDecodeError:
            return None
    return catalog


def _nul_positions(section) -> memoryview:
    """The position of each NUL in ``section``, found a ``_BLOCK_BYTES`` slice at a
    time: int32, the width of a trie cache's dims, unless the section is 2 GiB or more."""
    data = np.frombuffer(section, np.uint8)
    dtype = np.int32 if len(data) < 1 << 31 else np.int64
    ends = bytearray()  # grown in place, so no list of per-slice arrays waits for a concatenation
    for lo in range(0, len(data), _BLOCK_BYTES):
        ends += (np.flatnonzero(data[lo: lo + _BLOCK_BYTES] == 0).astype(dtype) + lo).tobytes()
    # a memoryview indexes to Python ints, which name_of slices with at no conversion cost
    return memoryview(np.frombuffer(ends, dtype))


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


class NameTable(NamedTuple):
    """Each catalog name's token ids in the catalog's output vocabulary, in CSR
    form: name ``i`` is ``ids[offsets[i]:offsets[i + 1]]``."""

    offsets: np.ndarray  # int64 [n_names + 1]
    ids: np.ndarray      # int32 [total name tokens]


class _WordTable(dict):
    """Each distinct word of a pass over the names -> its row, made by the word's first
    lookup: the word is tokenized then, each token new to the pass taking the next id, so
    token ids follow first encounter. Row ``r``'s token ids are ``ids[offsets[r]:offsets[r + 1]]``."""

    __slots__ = ("tokens", "ids", "offsets")

    def __init__(self):
        super().__init__()
        self.tokens = {t: i for i, t in enumerate(RESERVED_TOKENS)}  # token -> id
        self.ids, self.offsets = array("i", []), array("q", [0])  # int32 and int64, grown in place

    def __missing__(self, word: str) -> int:
        tokens = self.tokens
        self.ids.extend([tokens.setdefault(t, len(tokens)) for t in word_tokens(word)])
        self.offsets.append(len(self.ids))
        row = self[word] = len(self)
        return row


class EntityCatalog:
    """Ordered, deduplicated collection of canonical entity names, held as
    ``names_section``: the names as ``nul_terminated`` writes them, a trie cache's
    names section. ``_ends`` holds the position of each name's NUL; a name is
    decoded from the section each time it is used. The section is built block
    by block, from a list of names or a KB file, so no list of every name is
    made on the way."""

    __slots__ = ("names_section", "_ends", "_vocab")

    def __init__(self, names: Iterable[str]):
        names = iter(names)
        self._fill(iter(lambda: list(itertools.islice(names, _BLOCK_NAMES)), []))

    def _fill(self, blocks: Iterable[list[str]]) -> None:
        """Make the catalog of the names in ``blocks``, canonicalized. The names
        section grows block by block and each name leaves only its hash behind,
        so no list of all the names is made. Raises what checking every name in
        turn raises: InvalidName for the first name that is empty once
        canonical, else for the first holding a reserved glyph, else
        DuplicateName listing every repeat in order."""
        section, hashes = bytearray(), bytearray()  # grown in place, the hashes as int64
        empty = reserved = None
        for names in blocks:
            if empty is None and not _canonical_ascii(names):
                try:
                    names = list(map(canonicalize, names))
                except InvalidName as exc:
                    empty = exc
                    continue
                if reserved is None:
                    try:
                        _reject_reserved_glyphs(names)
                    except InvalidName as exc:
                        reserved = exc
            if empty is None and reserved is None:
                section += nul_terminated(names)
                hashes += np.fromiter(map(_name_hash, names), np.int64, len(names)).tobytes()
        if empty or reserved:
            raise empty or reserved
        self.names_section: bytes | memoryview = memoryview(section).toreadonly()
        self._ends = _nul_positions(self.names_section)
        self._vocab: Vocabulary | None = None
        if hashes:
            self._reject_repeats(np.frombuffer(hashes, np.int64))

    def _reject_repeats(self, hashes: np.ndarray) -> None:
        """Raise DuplicateName if a name repeats. Only names whose hashes
        collide are compared, by their strings."""
        ordered = np.sort(hashes)
        collided = ordered[1:][ordered[1:] == ordered[:-1]]
        del ordered
        if not len(collided):
            return
        seen: set[str] = set()
        dups = []
        for i in np.flatnonzero(np.isin(hashes, collided)).tolist():
            name = self.name_of(i)
            if name in seen:
                dups.append(name)
            seen.add(name)
        if dups:
            raise DuplicateName(dups)

    def __len__(self) -> int:
        return len(self._ends)

    def __iter__(self) -> Iterator[str]:
        for _, block in self._blocks():
            yield from block

    def name_of(self, entity_id: EntityId) -> str:
        ends = self._ends
        end = ends[entity_id]  # IndexError outside the ids, negative ones counting from the end
        start = ends[entity_id - 1] + 1 if entity_id % len(ends) else 0
        return str(self.names_section[start:end], "utf-8")

    def ids_of(self, names: Iterable[str]) -> dict[str, EntityId]:
        """The id of each of ``names`` that is in the catalog, found by one pass over
        the names, a block at a time, that stops once all are found."""
        wanted = set(names)
        found: dict[str, EntityId] = {}
        for lo, block in self._blocks():
            for name in wanted.intersection(block):
                found[name] = lo + block.index(name)
            if len(found) == len(wanted):
                break
        return found

    def _decode(self, lo: int, hi: int) -> list[str]:
        """Names ``lo`` up to ``hi`` (``lo < hi``), decoded from the section."""
        return self._text(lo, hi).split("\0")

    def _text(self, lo: int, hi: int) -> str:
        """Names ``lo`` up to ``hi`` (``lo < hi``) decoded from the section as one string, a NUL between names."""
        start = self._ends[lo - 1] + 1 if lo else 0
        return str(self.names_section[start: self._ends[hi - 1]], "utf-8")

    def _blocks(self) -> Iterator[tuple[EntityId, list[str]]]:
        """The names in blocks of ``_BLOCK_NAMES``, each with the id of its first name."""
        for lo in range(0, len(self), _BLOCK_NAMES):
            yield lo, self._decode(lo, min(lo + _BLOCK_NAMES, len(self)))

    def output_vocab(self) -> Vocabulary:
        """The output vocabulary: given at construction, else made on first use by a pass over the
        names, or by ``name_table``'s pass if that came first. Raises EmptyCatalog if there are no names."""
        if self._vocab is None:
            self._vocab = self._tokenize_words()
        return self._vocab

    def name_table(self) -> NameTable:
        """The names tokenized into their NameTable by a new pass over them, which also makes the
        output vocabulary if there is none yet. Each block's token ids are gathered from its
        words' rows of the pass's word table, and a name's token count is the sum over its
        words, one more than its spaces. Raises EmptyCatalog if there are no names."""
        ids, lengths = bytearray(), bytearray()  # int32 and int64, grown in place: no block waits for a concatenation
        section, ends = np.frombuffer(self.names_section, np.uint8), np.asarray(self._ends)

        def add_rows(lo: int, hi: int, rows: np.ndarray, table: _WordTable) -> None:
            offsets = np.frombuffer(table.offsets, np.int64)
            first = offsets[rows]
            count = offsets[rows + 1] - first
            del offsets  # the table grows in the next block, which a view of it would forbid
            # the block's k-th token is token k - (the block's tokens before its word) of its word's row
            at = np.repeat(first - np.cumsum(count) + count, count)
            at += np.arange(len(at))
            ids.extend(np.frombuffer(table.ids, np.int32)[at].tobytes())
            start = ends[lo - 1] + 1 if lo else 0
            name_starts = np.zeros(hi - lo, dtype=np.int64)
            name_starts[1:] = ends[lo: hi - 1] + 1 - start
            n_words = np.add.reduceat(section[start: ends[hi - 1]] == ord(" "), name_starts, dtype=np.int64) + 1
            lengths.extend(np.add.reduceat(count, np.cumsum(n_words) - n_words).tobytes())

        vocab = self._tokenize_words(add_rows)
        if self._vocab is None:
            self._vocab = vocab
        offsets = np.zeros(len(lengths) // 8 + 1, dtype=np.int64)
        np.cumsum(np.frombuffer(lengths, np.int64), out=offsets[1:])
        return NameTable(offsets, np.frombuffer(ids, np.int32))

    def _tokenize_words(self, each_block: Callable[..., None] | None = None) -> Vocabulary:
        """The output vocabulary: reserved tokens, then each name token in first-encounter order.
        Names are words joined by single spaces and word_tokens works word by word, so a block of
        names is decoded and split into words at once, and each word is looked up once in the pass's
        _WordTable, which tokenizes a word when it first occurs; what is alive is one block's words
        and a row per distinct word. ``each_block``, if given, is called with each block's first
        name id, the id past its last name, the row of each of its words and the table (a
        generator's caller would hold each block's words through the next block, leaving more resident)."""
        if not len(self):
            raise EmptyCatalog("an empty catalog has no output vocabulary")
        table = _WordTable()
        for lo in range(0, len(self), _BLOCK_NAMES):
            hi = min(lo + _BLOCK_NAMES, len(self))
            words = self._text(lo, hi).replace("\0", " ").split(" ")
            rows = np.fromiter(map(table.__getitem__, words), np.int64, len(words))
            if each_block is not None:
                each_block(lo, hi, rows, table)
        return Vocabulary(list(table.tokens)[N_RESERVED:])

    @classmethod
    def load(cls, path) -> "EntityCatalog":
        """Load a UTF-8 KB file: one name per line, or TSV ``id<TAB>name``.

        The file is read through ``open_text``, so a leading byte-order mark is
        skipped and lines end at "\\n", "\\r\\n" or a lone "\\r". Lines
        beginning with '#' and fully empty lines are ignored. The first other
        line decides the layout: the file is TSV if that line holds a tab. The
        TSV id column is external metadata; dense ids always follow file order.
        The text is read ``_BLOCK_BYTES`` characters at a time, each read
        completed to its line end by the text layer's ``readline``, so what is
        held past the catalog is one block and a hash per name.
        UnicodeDecodeError for bytes that are not UTF-8 (placed in the file as
        ``open_text`` places it), and MalformedLine for the first line of a TSV
        file that names without a tab, are raised before any fault of the names.
        """
        catalog = cls.__new__(cls)
        with open_text(path) as f:
            catalog._fill(_kb_names(f))
        return catalog


def kb_sha256(path) -> bytes:
    """The SHA-256 of a KB file's bytes, which fix both its names and its layout."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(_BLOCK_BYTES), b""):
            digest.update(block)
    return digest.digest()


# The glyphs no catalog name may spell, in the order a name is checked, with what InvalidName calls each:
# the word-boundary marker, the separator's textual form and NUL, which ends each name in a trie cache.
_RESERVED_GLYPHS = {WORD_MARK: "the boundary marker U+2581", "<sep>": "the separator literal", "\0": "NUL"}


def _reject_reserved_glyphs(names: list[str]) -> None:
    # No glyph contains a newline, so a match in the joined names lies inside one name.
    joined = "\n".join(names)
    if not any(glyph in joined for glyph in _RESERVED_GLYPHS):
        return
    for name in names:
        for glyph, what in _RESERVED_GLYPHS.items():
            if glyph in name:
                raise InvalidName(f"name contains {what}: {name!r}")


# The ASCII characters other than the space that str.split() splits on, two
# spaces in a row and the reserved glyphs (the marker, not ASCII, is never found
# in ASCII text): ASCII names joined by spaces, with a space before and after,
# hold none of them exactly when each name is canonical (no other whitespace, no
# space at either end or next to another, not empty) and free of reserved glyphs.
_NOT_CANONICAL_ASCII = ("\t", "\n", "\x0b", "\x0c", "\r", "\x1c", "\x1d", "\x1e", "\x1f", "  ", *_RESERVED_GLYPHS)


def _canonical_ascii(names: list[str]) -> bool:
    """True if every name is ASCII, canonical and free of reserved glyphs, told
    by a few scans of the block's text instead of a call per name."""
    text = " " + " ".join(names) + " "
    return text.isascii() and not any(s in text for s in _NOT_CANONICAL_ASCII)


def _kb_names(f) -> Iterator[list[str]]:
    """The raw names of a KB file opened by ``open_text``, a list per read of ``_BLOCK_BYTES``
    characters completed to its line end, so no text is kept between reads. The first line that
    names decides the layout. In a TSV file, MalformedLine is raised for the first line that names
    without a tab, counting every line, once the whole file has decoded."""
    # None until a line names; then the number of that line if it holds a tab (TSV), else 0
    line_no, tsv_line = 0, None
    for data in iter(lambda: f.read(_BLOCK_BYTES) + f.readline(), ""):
        lines = data.split("\n")
        names = [line for line in lines if line and line[0] != "#"]
        if tsv_line is None and names:
            tsv_line = line_no + 1 + lines.index(names[0]) if "\t" in names[0] else 0
        if tsv_line:
            for i, line in enumerate(lines, line_no + 1):
                if line and line[0] != "#" and "\t" not in line:
                    for _ in iter(lambda: f.read(_BLOCK_BYTES), ""):  # a byte that is not UTF-8 is raised first
                        pass
                    raise MalformedLine(i, f"expected id<TAB>name, as line {tsv_line} has")
            names = [name.split("\t", 1)[1] for name in names]
        line_no += len(lines) - 1
        yield names


def build_vocabularies(
    catalog: EntityCatalog,
    corpus: Iterable[str],
    min_count: int = 1,
) -> tuple[Vocabulary, Vocabulary]:
    """Build (input, output) vocabularies.

    Output: the catalog's own, ``catalog.output_vocab()``; the name table is not
    built for it. Input: reserved plus corpus tokens with count >= min_count, in
    first encounter order. A token holding NUL, which ends each token in a
    checkpoint, is left out and so reads as UNK. Raises InvalidConfig unless
    ``min_count`` is at least 1.
    """
    if min_count < 1:
        raise InvalidConfig(f"min_count must be an integer >= 1, got {min_count!r}")
    vocab_out = catalog.output_vocab()  # raises EmptyCatalog before the corpus is read
    counts = Counter(t for text in corpus for t in word_tokens(text))  # a dict: first encounter order
    return Vocabulary(t for t, n in counts.items() if n >= min_count and "\0" not in t), vocab_out
