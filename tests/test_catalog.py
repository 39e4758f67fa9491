import codecs
import gc
import hashlib
import itertools
import os
import subprocess
import sys
import tracemalloc
import unicodedata

import numpy as np
import pytest

import ettag.catalog as catalog_module
from ettag.catalog import (
    BOS,
    EOS,
    N_RESERVED,
    RESERVED_TOKENS,
    SEP,
    UNK,
    EntityCatalog,
    Vocabulary,
    WORD_MARK,
    _is_punct,
    _split_word,
    build_vocabularies,
    canonicalize,
    kb_sha256,
    nul_terminated,
    read_catalog,
    tokenize,
    word_tokens,
)
from ettag.errors import (
    DuplicateName,
    EmptyCatalog,
    InvalidConfig,
    InvalidName,
    MalformedLine,
    OutputOOV,
)
from ettag.synthetic import synthetic_kb_names
from ettag.toy_model import build_target
from ettag.trie import build_trie, load_trie_cache, save_trie_cache
from helpers import decode_spans, reference_kb_names, reference_names_section


def _joined(ids, vocab: Vocabulary) -> str:
    """The text of token ids, the inverse of tokenize on canonical text: the
    content tokens joined, each boundary marker read as a space."""
    return "".join(vocab.tokens[i] for i in ids if i >= N_RESERVED).replace(WORD_MARK, " ").lstrip(" ")


@pytest.fixture(scope="module")
def kb_200k(tmp_path_factory):
    """A KB file of ``synthetic_kb_names(200_000, seed=0)``, about 4.5 MB."""
    path = tmp_path_factory.mktemp("kb") / "kb.txt"
    path.write_text("".join(name + "\n" for name in synthetic_kb_names(200_000, seed=0)), encoding="utf-8")
    return path


class TestCanonicalize:
    def test_whitespace_rules(self):
        assert canonicalize("  Solar   System ") == "Solar System"

    def test_identity_on_clean_names(self):
        assert canonicalize("Earth") == "Earth"

    def test_unicode_whitespace_collapses(self):
        # U+00A0 is whitespace by the Unicode table, so it must collapse too
        assert canonicalize("P.W. Botha") == "P.W. Botha"

    def test_nfc_applied(self):
        decomposed = "éclair"  # e + combining acute
        assert canonicalize(decomposed) == "éclair"

    def test_empty_rejected(self):
        with pytest.raises(InvalidName):
            canonicalize("   \t  ")

    def test_idempotent_on_fuzzed_strings(self):
        rng = np.random.default_rng(7)
        pool = list("ab \t  xyZ.,()&́é\U0001F600")
        for _ in range(300):
            s = "".join(rng.choice(pool, size=rng.integers(1, 30)))
            try:
                once = canonicalize(s)
            except InvalidName:
                continue
            assert canonicalize(once) == once

    @pytest.mark.parametrize("name", ["Earth", "Solar System", "P.W. Botha", "São Paulo", "éclair", "Ærø"])
    def test_returns_its_argument_when_canonical(self, name):
        assert canonicalize(name) is name


class TestTokenizer:
    def test_simple_words(self):
        assert word_tokens("Solar System") == [WORD_MARK + "Solar", WORD_MARK + "System"]

    def test_trailing_punctuation_split(self):
        assert word_tokens("P.W. Botha") == [WORD_MARK + "P.W", ".", WORD_MARK + "Botha"]

    def test_leading_and_trailing(self):
        assert word_tokens("(Earth)") == [WORD_MARK + "(", "Earth", ")"]

    def test_pure_punctuation_word_stays_whole(self):
        assert word_tokens("Astronomy & Astrophysics") == [
            WORD_MARK + "Astronomy",
            WORD_MARK + "&",
            WORD_MARK + "Astrophysics",
        ]

    @pytest.mark.parametrize(
        "name",
        [
            "Earth",
            "Solar System",
            "P.W. Botha",
            "Astronomy & Astrophysics",
            "Truth and Reconciliation Commission (South Africa)",
            "Conservative Party (UK)",
            "AT&T",
            "C++",
            "Briljant, Hard en Geslepen",
            "Éćlair Métro",
            "...",
            "A. B. C.",
        ],
    )
    def test_round_trip(self, name):
        cat = EntityCatalog([name])
        _, vout = build_vocabularies(cat, [])
        assert _joined(tokenize(name, vout, mode="output"), vout) == name

    def test_no_alphanumeric_code_point_is_punctuation(self):
        """What lets word_tokens keep an isalnum() word whole unscanned."""
        both = [hex(c) for c in range(sys.maxunicode + 1) if chr(c).isalnum() and _is_punct(chr(c))]
        assert both == [], f"Unicode {unicodedata.unidata_version}"

    def test_matches_per_character_reference(self):
        def reference(text):
            out = []
            for word in text.split():
                parts = _split_word(word)
                out += [WORD_MARK + parts[0], *parts[1:]]
            return out

        pool = list("aZé東ж٣9²½.,()&'-+$€©^\u0301\u0308 \t") + ["\U0001F600", "\u00A0", "\u2581"]
        rng = np.random.default_rng(17)
        for _ in range(3000):
            text = "".join(rng.choice(pool, size=int(rng.integers(0, 16))))
            assert word_tokens(text) == reference(text), repr(text)


class TestVocabulary:
    def test_reserved_layout(self):
        v = Vocabulary(["▁a"])
        assert v.tokens[:N_RESERVED] == RESERVED_TOKENS
        assert (BOS, EOS, SEP, UNK) == (0, 1, 2, 3)
        assert v.id_of("▁a") == N_RESERVED

    def test_input_mode_maps_unknown_to_unk(self):
        cat = EntityCatalog(["Earth"])
        _, vout = build_vocabularies(cat, [])
        assert tokenize("qzx Earth", vout, mode="input") == [UNK, vout.id_of(WORD_MARK + "Earth")]

    def test_output_mode_rejects_unknown(self):
        cat = EntityCatalog(["Earth"])
        _, vout = build_vocabularies(cat, [])
        with pytest.raises(OutputOOV):
            tokenize("Mars", vout, mode="output")

    def test_unknown_mode_rejected(self):
        _, vout = build_vocabularies(EntityCatalog(["Earth"]), [])
        with pytest.raises(ValueError, match="unknown tokenize mode 'both'"):
            tokenize("Earth", vout, mode="both")

    def test_reserved_tokens_never_produced(self):
        # tokenizing any text can never emit a reserved token string
        for text in ["<sep>", "x<sep>", "(<eos>)", "<unk> <bos>", "a<sep>b"]:
            for tok in word_tokens(text):
                assert tok not in RESERVED_TOKENS

    def test_content_hashes_pinned(self):
        """The vocabularies' content hashes keep the digests of earlier
        versions, so the checkpoints they key still load, and the catalog's
        names section, which a trie cache holds, keeps its bytes."""
        cat = EntityCatalog(["Solar System", "Earth", "Zürich", "Astronomy & Astrophysics", "東京"])
        vin, vout = build_vocabularies(cat, ["the Earth orbits, Zürich", "naïve café"])
        names_sha256 = hashlib.sha256(cat.names_section).hexdigest()
        assert names_sha256 == "a8f2b491cb22f95ced6915f9614883cc10c7ebe5141c565806da286abc3205d4"
        assert vout.content_hash().hex() == "46ca477f0a9a4dd13b81502b3af33a25cd0f9e49629bafee4ae6bd13bb3f3cfa"
        assert vin.content_hash().hex() == "a98c7836f2e857a87c74924f7a89189de09608515a6a97f79d0ea7c240015d0a"
        assert EntityCatalog([]).names_section == b""


class TestCatalog:
    def test_file_order_ids(self, tmp_path):
        path = tmp_path / "kb.txt"
        path.write_text("Earth\nParsec\nBlack hole\n", encoding="utf-8")
        cat = EntityCatalog.load(path)
        assert len(cat) == 3
        assert cat.ids_of(["Earth", "Parsec", "Black hole"]) == {"Earth": 0, "Parsec": 1, "Black hole": 2}

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "kb.txt"
        path.write_text("Earth\nEarth\n", encoding="utf-8")
        with pytest.raises(DuplicateName) as exc_info:
            EntityCatalog.load(path)
        assert "Earth" in str(exc_info.value)

    def test_duplicates_listed_in_order(self):
        with pytest.raises(DuplicateName) as exc_info:
            EntityCatalog(["b", "a", "b", "c", "a", "b  ", "\u00e9", "e\u0301"])
        assert exc_info.value.offenders == ["b", "a", "b", "é"]

    def test_duplicate_after_canonicalization(self):
        with pytest.raises(DuplicateName):
            EntityCatalog(["Solar System", "Solar  System"])

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "kb.txt"
        path.write_text("# comment\nEarth\n\nParsec\n", encoding="utf-8")
        assert len(EntityCatalog.load(path)) == 2

    def test_tsv_format(self, tmp_path):
        path = tmp_path / "kb.tsv"
        path.write_text("17\tEarth\n99\tParsec\n", encoding="utf-8")
        cat = EntityCatalog.load(path)
        # external ids are metadata; dense ids follow file order
        assert cat.ids_of(["Earth", "Parsec"]) == {"Earth": 0, "Parsec": 1}

    @pytest.mark.parametrize("text", ["# my kb\nEarth\nParsec\n", "Earth\nParsec\n", "17\tEarth\n99\tParsec\n"],
                             ids=["comment-first", "name-first", "tsv"])
    def test_byte_order_mark_is_not_part_of_the_first_line(self, tmp_path, text):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        want, got = EntityCatalog.load(plain), EntityCatalog.load(marked)
        assert list(got) == list(want) == ["Earth", "Parsec"]
        assert got.names_section == want.names_section

    def test_tsv_requires_tab(self, tmp_path):
        """A first name line with a tab makes the file TSV, so every later name line needs one."""
        path = tmp_path / "kb.tsv"
        path.write_text("1\tEarth\nParsec\n", encoding="utf-8")
        with pytest.raises(MalformedLine):
            EntityCatalog.load(path)

    def test_tsv_error_names_the_file_line(self, tmp_path):
        path = tmp_path / "kb.tsv"
        path.write_text("# ids\n1\tEarth\n\nParsec\n", encoding="utf-8")
        with pytest.raises(MalformedLine, match="^line 4: expected id<TAB>name, as line 2 has$") as exc_info:
            EntityCatalog.load(path)
        assert exc_info.value.line_no == 4

    def test_read_catalog_looks_names_up(self):
        names = ["Earth", "Black hole", "São Paulo"]
        cat = read_catalog(nul_terminated(names))
        assert len(cat) == 3 and tuple(cat) == tuple(names)
        assert cat.ids_of(["Black hole", "Mars"]) == {"Black hole": 1} and "São Paulo" in cat and "Mars" not in cat
        assert cat.names_section == EntityCatalog(names).names_section

    def test_read_catalog_holds_a_given_vocabulary(self, monkeypatch):
        vocab = EntityCatalog(["Earth", "Black hole"]).output_vocab()
        cat = read_catalog(nul_terminated(["Earth", "Black hole"]), vocab)
        monkeypatch.setattr(EntityCatalog, "_tokenize_words", None)  # no pass over the names
        assert cat.output_vocab() is vocab

    @pytest.mark.parametrize("section", [b"Earth\0Mars", b"Earth\0\xe2\x96\0"], ids=["no-final-nul", "not-utf8"])
    def test_read_catalog_rejects(self, section):
        assert read_catalog(section) is None

    def test_read_catalog_checks_non_ascii_a_block_at_a_time(self):
        """A 200,000-name section holding one character outside the BMP is checked
        block by block: the tracemalloc peak of ``read_catalog`` stays below the
        section's bytes (it measured 0.44 times; one str of the whole section,
        four bytes a character, measured 5.2 times). A bad byte in its middle
        still makes it None."""
        names = synthetic_kb_names(200_000, seed=0)
        names[len(names) // 3] += " 🚀"
        section = nul_terminated(names)
        gc.collect()
        tracemalloc.start()
        try:
            catalog = read_catalog(section)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert catalog is not None and catalog.name_of(len(names) // 3).endswith(" 🚀")
        assert peak / len(section) < 1
        middle = section.index(b"\0", len(section) // 2) - 1  # the last byte of a name
        assert read_catalog(section[:middle] + b"\xff" + section[middle + 1:]) is None

    def test_separator_glyph_rejected(self):
        with pytest.raises(InvalidName):
            EntityCatalog(["weird <sep> name"])
        with pytest.raises(InvalidName):
            EntityCatalog(["weird ▁ name"])

    def test_bijection_exhaustive(self):
        rng = np.random.default_rng(3)
        words = [f"t{i}" for i in range(40)]
        names = list(
            {
                " ".join(words[int(j)] for j in rng.integers(0, 40, size=rng.integers(1, 4)))
                for _ in range(2000)
            }
        )
        cat = EntityCatalog(names)
        ids = cat.ids_of(cat)
        for name in cat:
            assert cat.name_of(ids[name]) == name
        for eid in range(len(cat)):
            assert ids[cat.name_of(eid)] == eid


class TestIdsOf:
    NAMES = ["Earth", "São Paulo", "東京 Tower", "Black hole", "Zürich", "🚀 Launch", "Astronomy & Astrophysics", "Ωmega"]

    @pytest.mark.parametrize("block_names", [3, 1 << 12], ids=["straddling-blocks", "one-block"])
    def test_agrees_with_a_dict_of_the_names(self, monkeypatch, block_names):
        monkeypatch.setattr(catalog_module, "_BLOCK_NAMES", block_names)
        cat = EntityCatalog(self.NAMES)
        index = dict(zip(self.NAMES, itertools.count()))
        outside = ["Mars", "", "earth", "Earth ", "Sa\u0303o Paulo", "Black"]
        rng = np.random.default_rng(5)
        for _ in range(200):
            query = [str(n) for n in rng.choice(self.NAMES + outside, size=int(rng.integers(0, 12)))]
            assert cat.ids_of(query) == {name: index[name] for name in query if name in index}
        assert cat.ids_of(self.NAMES[::-1] * 2) == index
        assert cat.ids_of(iter(["Ωmega", "Earth", "Ωmega"])) == {"Earth": 0, "Ωmega": 7}
        assert cat.ids_of(outside) == {} and EntityCatalog([]).ids_of(["Earth"]) == {}

    def test_stops_once_every_name_is_found(self, monkeypatch):
        cat = EntityCatalog(self.NAMES)
        spans = decode_spans(monkeypatch, 3)
        assert cat.ids_of(["São Paulo", "Earth"]) == {"Earth": 0, "São Paulo": 1}
        assert spans == [3]
        spans.clear()
        assert cat.ids_of(["Earth", "Mars"]) == {"Earth": 0}
        assert spans == [3, 3, 2]


class TestBuildVocabularies:
    def test_output_covers_catalog(self):
        cat = EntityCatalog(["Solar System", "Black hole"])
        _, vout = build_vocabularies(cat, [])
        for name in cat:
            tokenize(name, vout, mode="output")  # must not raise

    def test_min_count_threshold(self):
        cat = EntityCatalog(["Earth"])
        vin, _ = build_vocabularies(cat, ["rare common common", "common"], min_count=2)
        assert WORD_MARK + "common" in vin
        assert WORD_MARK + "rare" not in vin

    def test_empty_catalog(self):
        with pytest.raises(EmptyCatalog):
            build_vocabularies(EntityCatalog([]), [])

    @pytest.mark.parametrize("min_count", [0, -3])
    def test_min_count_below_one_rejected(self, min_count):
        with pytest.raises(InvalidConfig, match="min_count"):
            build_vocabularies(EntityCatalog(["Earth"]), ["Earth"], min_count=min_count)

    def test_name_table_rows_match_tokenize(self):
        # punctuation-heavy words, so the per-word tokenization peels pieces
        rng = np.random.default_rng(4)
        pieces = ["Alpha", "beta-9", "(x)", "O'Neill", "Q.", "&", "été", "東京"]
        cat = EntityCatalog(sorted({" ".join(rng.choice(pieces, size=int(rng.integers(1, 4)))) for _ in range(300)}))
        table = cat.name_table()
        _, vout = build_vocabularies(cat, [])
        assert table.offsets.dtype == np.int64 and table.ids.dtype == np.int32
        assert table.offsets[0] == 0 and table.offsets[-1] == len(table.ids)
        for eid, name in enumerate(cat):
            row = table.ids[table.offsets[eid]: table.offsets[eid + 1]]
            assert row.tolist() == tokenize(name, vout, mode="output")
        # reserved tokens, then every name token in first-encounter order
        assert vout.tokens == Vocabulary(t for name in cat for t in word_tokens(name)).tokens

    def test_empty_catalog_has_no_name_table(self):
        with pytest.raises(EmptyCatalog):
            EntityCatalog([]).name_table()

    def test_vocabulary_only_path_matches_the_name_table_past_one_block(self):
        names = _two_block_names()
        cat, tabled = EntityCatalog(names), EntityCatalog(names)
        vocab, table = cat.output_vocab(), tabled.name_table()
        assert vocab.tokens == tabled.output_vocab().tokens
        assert vocab.tokens[-4:] == ("▁late-comer", "▁«", "Ωmega", "»")
        for eid in range(len(cat)):
            row = table.ids[table.offsets[eid]: table.offsets[eid + 1]].tolist()
            assert build_target({eid}, [eid], cat) == row + [EOS]


def _two_block_names() -> list[str]:
    """More names than one 32,768-name block; peeled, non-ASCII and free-standing punctuation words."""
    pool = ["Alpha", "beta-9", "(x)", "O'Neill", "Q.", "&", "été", "東京", "Zürich,"]
    pool += [f"w{i}" for i in range(33 - len(pool))]
    names = [" ".join(words) for words in itertools.islice(itertools.product(pool, repeat=3), 33_000)]
    names += ["w0 late-comer «Ωmega»", "«Ωmega» w1"]  # words first seen in the second block
    assert len(names) > 1 << 15
    return names


def _seam_names(rng: np.random.Generator, n_names: int) -> list[str]:
    """Names of 1 to 4 words, punctuated, non-ASCII and multi-token among them; a word
    of the late pool is first used at the name its position sets, so words keep
    first occurring in later blocks while earlier words recur."""
    early = ["Alpha", "beta-9", "(x)", "O'Neill", "Q.", "&", "été", "東京", "Zürich,"]
    late = ["«Ωmega»", "w1", "St.", "naïve", "[a]-b", "Łódź", "x.y.z", "🚀", "São", "Paulo!"]
    names: dict[str, None] = {}
    while len(names) < n_names:
        pool = early + late[: len(names) // 9]
        names.setdefault(" ".join(rng.choice(pool, size=int(rng.integers(1, 5)))))
    return list(names)


@pytest.mark.parametrize("seed", range(4))
def test_name_pass_across_block_seams(monkeypatch, seed):
    """With 7 names a block, the name table is each name's tokenize(name, vocab, "output"),
    the vocabulary is reserved tokens then the name tokens in first-encounter order, and
    the vocabulary-only pass gives the same vocabulary."""
    monkeypatch.setattr(catalog_module, "_BLOCK_NAMES", 7)
    names = _seam_names(np.random.default_rng(seed), 120)
    tabled = EntityCatalog(names)
    table, vocab = tabled.name_table(), tabled.output_vocab()
    assert vocab.tokens == Vocabulary(t for name in names for t in word_tokens(name)).tokens
    assert EntityCatalog(names).output_vocab().tokens == vocab.tokens
    assert table.offsets[0] == 0 and len(table.offsets) == len(names) + 1 and table.offsets[-1] == len(table.ids)
    for eid, name in enumerate(names):
        assert table.ids[table.offsets[eid]: table.offsets[eid + 1]].tolist() == tokenize(name, vocab, mode="output")
    # tokens first occur in many blocks, and words recur across blocks
    first_seen: dict[str, int] = {}
    for eid, name in enumerate(names):
        for t in word_tokens(name):
            first_seen.setdefault(t, eid // 7)
    assert len(set(first_seen.values())) > 5
    assert any(len({eid // 7 for eid, name in enumerate(names) if word in name.split(" ")}) > 1
               for word in ("Alpha", "«Ωmega»"))


# NFC names spelled in NFD in the KB file, with two-, three- and four-byte UTF-8
_NON_ASCII = ["São Paulo", "Zürich", "東京 Tower", "Ωmega «x»", "naïve café", "Łódź", "🚀 Launch", "Ångström"]
_PUNCTUATED = ["Astronomy & Astrophysics", "A & B", "Q.E.D.", "( x )", "- minus -", "Physical Review D", "&"]


@pytest.mark.parametrize("names", [_NON_ASCII, _PUNCTUATED, _two_block_names()],
                         ids=["non-ascii", "punctuated", "two-blocks"])
def test_a_catalog_read_from_a_trie_cache_is_the_kb_files(tmp_path, names):
    """The catalog a trie cache holds, its names section, answers every query as
    the catalog loaded from the KB file does."""
    kb, cache = tmp_path / "kb.txt", tmp_path / "kb.trie"
    kb.write_text("".join(unicodedata.normalize("NFD", name) + "\n" for name in names), encoding="utf-8")
    want = EntityCatalog.load(kb)
    save_trie_cache(build_trie(want), cache, want, kb_sha256(kb))
    got, _ = load_trie_cache(cache, kb_sha256(kb))
    n = len(want)
    assert len(got) == n == len(names) and list(got) == list(want) == names
    assert [got.name_of(i) for i in range(-n, n)] == [want.name_of(i) for i in range(-n, n)] == names * 2
    for catalog in (got, want):
        for entity_id in (n, -n - 1):
            with pytest.raises(IndexError):
                catalog.name_of(entity_id)
    assert got.ids_of([*names, "Mars Colony", ""]) == {name: i for i, name in enumerate(names)}
    assert got.names_section == want.names_section
    assert got.output_vocab().tokens == want.output_vocab().tokens
    got_table, want_table = got.name_table(), want.name_table()
    assert np.array_equal(got_table.offsets, want_table.offsets) and np.array_equal(got_table.ids, want_table.ids)


def test_bijection_and_round_trip_sampled_at_kb_scale():
    from ettag.synthetic import synthetic_kb_names

    names = synthetic_kb_names(470_578, seed=0)
    cat = EntityCatalog(names)
    assert len(cat) == 470_578
    _, vout = build_vocabularies(cat, [])
    rng = np.random.default_rng(0)
    sampled = [(int(eid), cat.name_of(int(eid))) for eid in rng.integers(0, len(cat), size=5000)]
    ids = cat.ids_of(name for _, name in sampled)
    for eid, name in sampled:
        assert ids[name] == eid
        assert _joined(tokenize(name, vout, mode="output"), vout) == name


def test_round_trip_over_random_catalog():
    rng = np.random.default_rng(11)
    pieces = ["Alpha", "beta-9", "(x)", "O'Neill", "Q.", "&", "St.", "été"]
    names = set()
    while len(names) < 500:
        k = int(rng.integers(1, 5))
        names.add(" ".join(str(rng.choice(pieces)) for _ in range(k)))
    cat = EntityCatalog(sorted(names))
    _, vout = build_vocabularies(cat, [])
    for name in cat:
        assert _joined(tokenize(name, vout, mode="output"), vout) == name


def _outcome(make, *args):
    """The names section ``make(*args)`` gives, or what identifies the error it raises."""
    try:
        return bytes(make(*args))
    except UnicodeDecodeError as exc:
        return "UnicodeDecodeError", str(exc)
    except (InvalidName, DuplicateName, MalformedLine) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "offenders", None), getattr(exc, "line_no", None)


def _loaded_section(path):
    return EntityCatalog.load(path).names_section


def _reference_section(path):
    return reference_names_section(reference_kb_names(path))


# Whitespace a name may hold between its words: str.split() splits on all of
# it and str.splitlines() on some of it ("\x0b", "\x0c", "\x1c"-"\x1e",
# "\x85", U+2028), but none of it ends a line of a KB file.
_INNER_SPACES = [" ", " ", " ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\xa0", "\u2028", "\x85"]
_WORDS = ["Earth", "black", "hole", "Z\u00fcrich", "Zu\u0308rich", "\u6771\u4eac", "e\u0301clair", "\u03a9mega", "&"]
_LINE_ENDS = ["\n", "\n", "\n", "\r\n", "\r"]
_FAULTS = ["dup", "canonical-dup", "nul", "sep", "mark", "empty", "no-tab", "utf8"]
_LAYOUTS = ("plain-lines", "tsv")


def _kb_bytes(rng: np.random.Generator, tsv: bool, faults: list[str]) -> bytes:
    """A KB file of about 60 lines: names (most plain ASCII, some spelled with
    other whitespace, in NFD or with spaces at their ends), comments and blank
    lines, ended by "\\n", "\\r\\n" or a lone "\\r", perhaps after a byte-order
    mark; each fault named is put in the second half of the file. The first
    name of a file that is not TSV is spelled without a tab, which would make
    the file TSV."""
    lines, named, clean = [], [], []  # every line, the lines that name, the names already canonical
    for i in range(60):
        kind = rng.random()
        if kind < 0.1:
            lines.append("# cömment \t <sep> ▁ \0 " + "#" * int(rng.integers(0, 3)))
        elif kind < 0.15:
            lines.append("")
        else:
            words = [f"n{i}", *rng.choice(_WORDS[:3], size=int(rng.integers(0, 3)))]
            if rng.random() < 0.3:
                words.append(str(rng.choice(_WORDS)))
                seps = rng.choice(_INNER_SPACES, size=len(words) - 1)
                name = "".join(w + s for w, s in zip(words, seps)) + words[-1]
                name = " " * int(rng.integers(0, 2)) + name + " " * int(rng.integers(0, 2))
                if not (tsv or named):
                    name = name.replace("\t", " ")
            else:
                name = " ".join(words)
                clean.append(name)
            lines.append(f"{i}\t{name}" if tsv else name)
            named.append(lines[-1])
    for fault in faults:
        at = int(rng.integers(30, len(lines) + 1))
        if fault == "dup":
            lines.insert(at, str(rng.choice(named)))
        elif fault == "canonical-dup":
            name = str(rng.choice(clean))
            spelled = " " + name.replace(" ", str(rng.choice(_INNER_SPACES[3:]))) + "\t"
            lines.insert(at, f"7\t{spelled}" if tsv else spelled)
        elif fault in ("nul", "sep", "mark"):
            glyph = {"nul": "\0", "sep": "<sep>", "mark": "▁"}[fault]
            lines.insert(at, f"8\tx{glyph}y{at}" if tsv else f"x{glyph}y{at}")
        elif fault == "empty":
            spaces = " " * at + "\x0b\u2028\t"
            lines.insert(at, f"9\t{spaces}" if tsv else spaces)
        elif fault == "no-tab":
            lines.insert(at, f"line {at} has no tab")
    text = "".join(line + str(rng.choice(_LINE_ENDS)) for line in lines)
    data = ("\ufeff" * int(rng.integers(0, 2)) + text).encode("utf-8")
    if "utf8" in faults:
        at = int(rng.integers(len(data) // 2, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


class TestStreamedLoad:
    """``EntityCatalog.load`` reads a file in blocks, and ``EntityCatalog(names)``
    takes names in blocks; both must give what one whole read of the file and
    one list of its names give (``reference_kb_names``, ``reference_names_section``)."""

    @pytest.mark.parametrize("fmt, faults", [
        pytest.param(fmt, faults, id=f"{fmt}-{'+'.join(faults) or 'clean'}")
        for faults in [[], *([f] for f in _FAULTS), ["nul", "empty"], ["dup", "mark"], ["no-tab", "utf8", "dup"],
                       ["sep", "canonical-dup", "no-tab"], ["empty", "mark", "empty", "nul"],
                       ["no-tab", "empty", "no-tab"]]
        for fmt in _LAYOUTS if fmt == "tsv" or "no-tab" not in faults])  # only TSV lines need a tab
    def test_matches_one_whole_read(self, tmp_path, monkeypatch, fmt, faults):
        results = []
        real = catalog_module._canonical_ascii
        monkeypatch.setattr("ettag.catalog._canonical_ascii", lambda names: results.append(real(names)) or results[-1])
        path = tmp_path / "kb.txt"
        decodes = False  # whether some file of this parameter set is UTF-8
        for seed in range(8):
            rng = np.random.default_rng(seed)
            path.write_bytes(_kb_bytes(rng, fmt == "tsv", faults))
            want = _outcome(_reference_section, path)
            decodes |= not (isinstance(want, tuple) and want[0] == "UnicodeDecodeError")
            for block_bytes, block_names in ((1, 1), (37, 3), (200, 5), (1 << 20, 1 << 12)):
                monkeypatch.setattr("ettag.catalog._BLOCK_BYTES", block_bytes)
                monkeypatch.setattr("ettag.catalog._BLOCK_NAMES", block_names)
                assert _outcome(_loaded_section, path) == want, (seed, block_bytes)
                if not (isinstance(want, tuple) and want[0] in ("UnicodeDecodeError", "MalformedLine")):
                    # the file reads as a list of names, whose catalog must agree too
                    names = reference_kb_names(path)
                    assert _outcome(lambda: EntityCatalog(names).names_section) == want, (seed, block_names)
            if not faults:
                assert isinstance(want, bytes)
        # blocks of plain ASCII names skip the call per name, other blocks make it; the text layer
        # decodes ahead of the names, so a bad byte may be raised before any block reaches the check
        if decodes:
            assert True in results and False in results

    @pytest.mark.parametrize("fmt", _LAYOUTS)
    def test_every_block_cut(self, tmp_path, monkeypatch, fmt):
        """A file whose line ends are "\\r\\n", lone "\\r", "\\r\\r\\n" and "\\n", read
        with every block size from one byte to its length, so that a block cut
        falls at every byte, inside every "\\r\\n" and every character included."""
        lines = ["# héader", "Earth", "", "Zürich  x", "東京", "# a comment\r7\tends early", "Mars\x0bRover",
                 "éclair", "A B", "last"]
        ends = ["\r\n", "\n", "\r", "\r\r\n", "\r\n", "\n", "\r", "\r\n", "\n", ""]
        text = "".join((f"{i}\t{line}" if fmt == "tsv" and line and not line.startswith("#") else line) + end
                       for i, (line, end) in enumerate(zip(lines, ends)))
        path = tmp_path / "kb.txt"
        wants = []
        for data in (text.encode(), codecs.BOM_UTF8 + text.encode(), text.encode() + b"\r",
                     (text + "\r\nno tab\r\n").encode(), codecs.BOM_UTF8 + codecs.BOM_UTF8 + text.encode()):
            path.write_bytes(data)
            wants.append(_outcome(_reference_section, path))
            for block_bytes in range(1, len(data) + 2):
                monkeypatch.setattr("ettag.catalog._BLOCK_BYTES", block_bytes)
                assert _outcome(_loaded_section, path) == wants[-1], (data, block_bytes)
        section = nul_terminated(["Earth", "Zürich x", "東京", "ends early" if fmt == "tsv" else "7 ends early",
                                  "Mars Rover", "éclair", "A B", "last"])
        assert wants[:3] == [section] * 3
        # only the first byte-order mark is skipped, so "\ufeff# héader" is the first name line, with no tab
        if fmt == "tsv":  # "\r\r\n" ends two lines, the "\r" inside the comment one
            assert wants[3] == ("MalformedLine", "line 13: expected id<TAB>name, as line 2 has", None, 13)
            assert wants[4] == nul_terminated(["\ufeff# héader", "1 Earth", "3 Zürich x", "4 東京", "7 ends early",
                                               "6 Mars Rover", "7 éclair", "8 A B", "9 last"])
        else:
            assert wants[3:] == [section + b"no tab\0", nul_terminated(["\ufeff# héader"]) + section]

    @pytest.mark.parametrize("text, want", [
        ("# ids\n\n" * 20 + "1\tEarth\n# more\n2\tBlack  hole\n", ["Earth", "Black hole"]),
        ("\ufeff1\tEarth\n2\tParsec\n", ["Earth", "Parsec"]),
        ("Earth\tMoon\nParsec\n", ("MalformedLine", "line 2: expected id<TAB>name, as line 1 has", None, 2)),
    ], ids=["decided-in-a-later-block", "bom-then-tsv", "tab-in-the-first-name"])
    def test_the_first_name_line_decides_the_layout(self, tmp_path, monkeypatch, text, want):
        """The first line that names decides, wherever it falls: after many comment
        and blank lines, so past the first blocks; after a byte-order mark; and
        in a file meant as a name per line whose first name holds a tab."""
        path = tmp_path / "kb.txt"
        path.write_bytes(text.encode())
        want = nul_terminated(want) if isinstance(want, list) else want
        assert _outcome(_reference_section, path) == want
        for block_bytes in (1, 7, 1 << 20):
            monkeypatch.setattr("ettag.catalog._BLOCK_BYTES", block_bytes)
            assert _outcome(_loaded_section, path) == want, block_bytes

    @pytest.mark.parametrize("bom", [b"", codecs.BOM_UTF8], ids=["no-bom", "bom"])
    def test_a_bad_byte_is_placed_in_the_file(self, tmp_path, monkeypatch, bom):
        """A byte that is not UTF-8, past the first block and after "\r\n" line
        ends, is reported at its offset in the file (past a byte-order mark, as
        one whole read reports it), not in its block with the "\r" bytes gone."""
        head = "".join(f"name {i}\r\n" for i in range(40)).encode()
        path = tmp_path / "kb.txt"
        path.write_bytes(bom + head + b"bad \xff byte\r\nlast\r\n")
        monkeypatch.setattr("ettag.catalog._BLOCK_BYTES", 64)
        want = f"'utf-8' codec can't decode byte 0xff in position {len(head) + 4}: invalid start byte"
        assert _outcome(_reference_section, path) == ("UnicodeDecodeError", want)
        assert _outcome(_loaded_section, path) == ("UnicodeDecodeError", want)

    def test_the_ascii_shortcut_is_exact(self):
        """``_canonical_ascii`` holds for a block exactly when every name in it is
        ASCII, already canonical and free of reserved glyphs."""
        rng = np.random.default_rng(5)
        pieces = ["a", "Bc", " ", " ", "  ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1f", "\x1b", "\0", "<sep>",
                  "<se", "p>", "▁", "\xa0", "\xe9", "#", ""]
        seen = set()
        for _ in range(20_000):
            names = ["".join(rng.choice(pieces, size=int(rng.integers(0, 4)))) for _ in range(int(rng.integers(1, 4)))]
            want = all(name.isascii() and name and " ".join(name.split()) == name
                       and "\0" not in name and "<sep>" not in name for name in names)
            assert catalog_module._canonical_ascii(names) == want, names
            seen.add(want)
        assert seen == {True, False}

    def test_colliding_hashes_are_compared_by_name(self, tmp_path, monkeypatch):
        """With every name hashing alike, distinct names still make a catalog and
        repeats raise the same DuplicateName, from a list or from a file."""
        names = ["b", "a", "c", "é", "b a", "a b"]
        want = EntityCatalog(names).names_section
        dups = ["b", "a", "c", "a", "b  ", "é", "é", "b", "d"]
        path = tmp_path / "kb.txt"
        path.write_text("\n".join(dups), encoding="utf-8")
        monkeypatch.setattr("ettag.catalog._name_hash", lambda name: 7)
        assert EntityCatalog(names).names_section == want
        for make in (lambda: EntityCatalog(dups), lambda: EntityCatalog.load(path)):
            with pytest.raises(DuplicateName) as exc_info:
                make()
            assert exc_info.value.offenders == ["a", "b", "é", "b"]

    def test_no_result_depends_on_the_hash_seed(self, tmp_path):
        """Python salts ``hash`` of a str per process; the catalog of a KB file and
        the repeats it reports are the same under any PYTHONHASHSEED."""
        names = [f"name {i}{' x' * (i % 7)}" for i in range(3000)]
        kb, dup_kb = tmp_path / "kb.txt", tmp_path / "dups.txt"
        kb.write_text("\n".join(names), encoding="utf-8")
        dup_kb.write_text("\n".join(names + names[::-3] + [" name  3 x x x "]), encoding="utf-8")
        script = (
            "import hashlib, sys\n"
            "from ettag.catalog import EntityCatalog\n"
            "from ettag.errors import DuplicateName\n"
            "print(hashlib.sha256(EntityCatalog.load(sys.argv[1]).names_section).hexdigest())\n"
            "try:\n"
            "    EntityCatalog.load(sys.argv[2])\n"
            "except DuplicateName as exc:\n"
            "    print(exc.offenders)\n"
        )
        outputs = []
        for seed in ("0", "1"):
            proc = subprocess.run([sys.executable, "-c", script, str(kb), str(dup_kb)], capture_output=True, text=True,
                                  env={**os.environ, "PYTHONHASHSEED": seed})
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        want = [names[i] for i in range(len(names) - 1, -1, -3)] + ["name 3 x x x"]
        assert outputs[0] == outputs[1] == f"{hashlib.sha256(EntityCatalog(names).names_section).hexdigest()}\n{want}\n"

    def test_loading_holds_little_past_the_file(self, kb_200k):
        """Loading a 200,000-name KB peaks, under tracemalloc, below 4.5 times the
        file's bytes: the names section (about the file's size), a hash and a NUL
        position per name, and one block's names as strings. It measured 3.4
        times, and the whole-file read that came before 6.7 times."""
        gc.collect()
        tracemalloc.start()
        try:
            catalog = EntityCatalog.load(kb_200k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(catalog) == 200_000
        assert peak / kb_200k.stat().st_size < 4.5
