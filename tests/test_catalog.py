import hashlib

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
    Vocabulary,
    WORD_MARK,
    build_vocabularies,
    canonicalize,
    detokenize,
    tokenize,
    word_tokens,
)
from ettag.errors import (
    DuplicateName,
    EmptyCatalog,
    InvalidName,
    MalformedLine,
    OutputOOV,
)


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

    def test_tsv_requires_tab(self, tmp_path):
        path = tmp_path / "kb.tsv"
        path.write_text("Earth\n", encoding="utf-8")
        with pytest.raises(MalformedLine):
            EntityCatalog.load(path, format="tsv")

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
