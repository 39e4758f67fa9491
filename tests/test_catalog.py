import hashlib
import itertools
import sys
import unicodedata

import numpy as np
import pytest

from ettag.catalog import (
    BOS,
    EOS,
    N_RESERVED,
    RESERVED_TOKENS,
    SEP,
    UNK,
    EntityCatalog,
    KBSource,
    Vocabulary,
    WORD_MARK,
    _is_punct,
    _split_word,
    build_vocabularies,
    canonicalize,
    detokenize,
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
from ettag.toy_model import build_target
from ettag.trie import build_trie, load_trie_cache, save_trie_cache


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
        assert detokenize(tokenize(name, vout, mode="output"), vout) == name

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

    def test_reserved_tokens_never_produced(self):
        # tokenizing any text can never emit a reserved token string
        for text in ["<sep>", "x<sep>", "(<eos>)", "<unk> <bos>", "a<sep>b"]:
            for tok in word_tokens(text):
                assert tok not in RESERVED_TOKENS

    def test_content_hashes_pinned(self):
        """Both content hashes keep the digests of earlier versions, so the
        trie caches and checkpoints they key still load."""
        cat = EntityCatalog(["Solar System", "Earth", "Zürich", "Astronomy & Astrophysics", "東京"])
        vin, vout = build_vocabularies(cat, ["the Earth orbits, Zürich", "naïve café"])
        assert cat.content_hash().hex() == "a8f2b491cb22f95ced6915f9614883cc10c7ebe5141c565806da286abc3205d4"
        assert vout.content_hash().hex() == "46ca477f0a9a4dd13b81502b3af33a25cd0f9e49629bafee4ae6bd13bb3f3cfa"
        assert vin.content_hash().hex() == "a98c7836f2e857a87c74924f7a89189de09608515a6a97f79d0ea7c240015d0a"
        assert EntityCatalog([]).content_hash() == hashlib.sha256(b"").digest()


class TestCatalog:
    def test_file_order_ids(self, tmp_path):
        path = tmp_path / "kb.txt"
        path.write_text("Earth\nParsec\nBlack hole\n", encoding="utf-8")
        cat = EntityCatalog.load(path)
        assert len(cat) == 3
        assert [cat.id_of(n) for n in ("Earth", "Parsec", "Black hole")] == [0, 1, 2]

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "kb.txt"
        path.write_text("Earth\nEarth\n", encoding="utf-8")
        with pytest.raises(DuplicateName) as exc_info:
            EntityCatalog.load(path)
        assert "Earth" in str(exc_info.value)

    def test_indexes_on_first_lookup(self):
        cat = EntityCatalog(["Earth", " Black   hole"])
        assert cat._index is None
        assert cat.id_of("Black hole") == 1 and "Earth" in cat and "Mars" not in cat
        assert cat.name_index() == {"Earth": 0, "Black hole": 1}

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
        cat = EntityCatalog.load(path, format="tsv")
        # external ids are metadata; dense ids follow file order
        assert cat.id_of("Earth") == 0 and cat.id_of("Parsec") == 1

    @pytest.mark.parametrize("fmt, text", [
        ("plain-lines", "# my kb\nEarth\nParsec\n"),
        ("plain-lines", "Earth\nParsec\n"),
        ("tsv", "17\tEarth\n99\tParsec\n"),
    ], ids=["comment-first", "name-first", "tsv"])
    def test_byte_order_mark_is_not_part_of_the_first_line(self, tmp_path, fmt, text):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        want, got = EntityCatalog.load(plain, format=fmt), EntityCatalog.load(marked, format=fmt)
        assert list(got) == list(want) == ["Earth", "Parsec"]
        assert got.content_hash() == want.content_hash()

    def test_tsv_requires_tab(self, tmp_path):
        path = tmp_path / "kb.tsv"
        path.write_text("Earth\n", encoding="utf-8")
        with pytest.raises(MalformedLine):
            EntityCatalog.load(path, format="tsv")

    def test_tsv_error_names_the_file_line(self, tmp_path):
        path = tmp_path / "kb.tsv"
        path.write_text("# ids\n1\tEarth\n\nParsec\n", encoding="utf-8")
        with pytest.raises(MalformedLine) as exc_info:
            EntityCatalog.load(path, format="tsv")
        assert exc_info.value.line_no == 4

    def test_read_catalog_indexes_on_first_lookup(self):
        names = ["Earth", "Black hole", "São Paulo"]
        cat = read_catalog(nul_terminated(names), 3)
        assert tuple(cat) == tuple(names) and cat._index is None
        assert cat.id_of("Black hole") == 1 and "São Paulo" in cat and "Mars" not in cat
        assert cat.content_hash() == EntityCatalog(names).content_hash()

    def test_read_catalog_holds_a_given_vocabulary(self, monkeypatch):
        vocab = EntityCatalog(["Earth", "Black hole"]).output_vocab()
        cat = read_catalog(nul_terminated(["Earth", "Black hole"]), 2, vocab)
        monkeypatch.setattr(EntityCatalog, "_tokenize_words", None)  # no pass over the names
        assert cat.output_vocab() is vocab

    @pytest.mark.parametrize("section, count", [
        (b"Earth\0Mars\0", 3), (b"Earth\0Mars\0", 1), (b"Earth\0Mars", 2), (b"Earth\0\xe2\x96\0", 2),
    ], ids=["too-few", "too-many", "no-final-nul", "not-utf8"])
    def test_read_catalog_rejects(self, section, count):
        assert read_catalog(section, count) is None

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
        for name in cat:
            assert cat.name_of(cat.id_of(name)) == name
        for eid in range(len(cat)):
            assert cat.id_of(cat.name_of(eid)) == eid


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
    save_trie_cache(build_trie(want), cache, want, KBSource.of(kb, "plain-lines"))
    got, _ = load_trie_cache(cache, KBSource.of(kb, "plain-lines"))
    n = len(want)
    assert len(got) == n == len(names) and list(got) == list(want) == names
    assert [got.name_of(i) for i in range(-n, n)] == [want.name_of(i) for i in range(-n, n)] == names * 2
    for catalog in (got, want):
        for entity_id in (n, -n - 1):
            with pytest.raises(IndexError):
                catalog.name_of(entity_id)
    assert all(got.id_of(name) == i for i, name in enumerate(names)) and all(name in got for name in names)
    assert got.id_of("Mars Colony") is None and "Mars Colony" not in got and "" not in got
    assert got.content_hash() == want.content_hash()
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
    for eid in rng.integers(0, len(cat), size=5000):
        name = cat.name_of(int(eid))
        assert cat.id_of(name) == int(eid)
        assert detokenize(tokenize(name, vout, mode="output"), vout) == name


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
        assert detokenize(tokenize(name, vout, mode="output"), vout) == name
