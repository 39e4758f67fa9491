import json

import numpy as np
import pytest

from ettag.catalog import EntityCatalog, build_vocabularies
from ettag.errors import (
    DanglingIMention,
    MalformedLine,
    SchemaError,
    UnknownEntity,
)
from ettag.ingest import (
    ConversionStats,
    ELDocument,
    ETExample,
    Mention,
    aida_split,
    convert_documents,
    convert_wiki_jsonl,
    el_to_et,
    encode_examples,
    parse_aida_conll,
    parse_normalized_jsonl,
    read_et_jsonl,
    read_name_sets,
    read_text_jsonl,
    wiki_abstract_to_et,
    write_et_jsonl,
)

from helpers import write_aida_file


class TestAidaParser:
    def test_minimal_two_token_doc(self, tmp_path):
        path = tmp_path / "mini.conll"
        path.write_text(
            "-DOCSTART- (1 MINI)\n"
            "Hello\tB\tHello\tEarth\thttp://en.wikipedia.org/wiki/Earth\t1\t/m/1\n"
            "world\n",
            encoding="utf-8",
        )
        docs = parse_aida_conll(path)
        assert len(docs) == 1
        doc = docs[0]
        assert doc.doc_id == "1 MINI"
        assert doc.text == "Hello world"
        assert doc.mentions == [Mention(0, 5, "Earth")]

    def test_multi_token_mention_offsets(self, tmp_path):
        path = tmp_path / "doc.conll"
        path.write_text(
            "-DOCSTART- (2 SPAN)\n"
            "the\n"
            "Black\tB\tBlack hole\tBlack_hole\thttp://en.wikipedia.org/wiki/Black_hole\t2\t/m/2\n"
            "hole\tI\tBlack hole\tBlack_hole\thttp://en.wikipedia.org/wiki/Black_hole\t2\t/m/2\n"
            "sings\n",
            encoding="utf-8",
        )
        doc = parse_aida_conll(path)[0]
        assert doc.text == "the Black hole sings"
        (m,) = doc.mentions
        assert doc.text[m.start: m.end] == "Black hole"
        assert m.entity == "Black hole"

    def test_sentence_breaks_become_newlines(self, tmp_path):
        path = tmp_path / "doc.conll"
        path.write_text(
            "-DOCSTART- (3 SENT)\nOne\n\nTwo\nwords\n\n",
            encoding="utf-8",
        )
        doc = parse_aida_conll(path)[0]
        assert doc.text == "One\nTwo words"

    def test_nil_mentions_carried_through(self, tmp_path):
        path = tmp_path / "doc.conll"
        path.write_text(
            "-DOCSTART- (4 NIL)\nBob\tB\tBob\t--NME--\nspoke\n",
            encoding="utf-8",
        )
        doc = parse_aida_conll(path)[0]
        assert doc.mentions == [Mention(0, 3, None)]

    def test_url_decoding(self, tmp_path):
        path = tmp_path / "doc.conll"
        path.write_text(
            "-DOCSTART- (5 URL)\n"
            "metro\tB\tmetro\tParis_M%C3%A9tro\thttp://en.wikipedia.org/wiki/Paris_M%C3%A9tro\t5\t/m/5\n",
            encoding="utf-8",
        )
        doc = parse_aida_conll(path)[0]
        assert doc.mentions[0].entity == "Paris Métro"

    def test_dangling_i_mention(self, tmp_path):
        path = tmp_path / "doc.conll"
        path.write_text(
            "-DOCSTART- (6 BAD)\nword\nhole\tI\tBlack hole\tBlack_hole\tx\t1\t/m/1\n",
            encoding="utf-8",
        )
        with pytest.raises(DanglingIMention):
            parse_aida_conll(path)

    def test_i_across_sentence_break_is_dangling(self, tmp_path):
        path = tmp_path / "doc.conll"
        path.write_text(
            "-DOCSTART- (7 BAD)\n"
            "Black\tB\tBlack hole\tBlack_hole\tx\t1\t/m/1\n"
            "\n"
            "hole\tI\tBlack hole\tBlack_hole\tx\t1\t/m/1\n",
            encoding="utf-8",
        )
        with pytest.raises(DanglingIMention):
            parse_aida_conll(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "doc.conll"
        path.write_text("-DOCSTART- (8 BAD)\nword\tB\tw\n", encoding="utf-8")
        with pytest.raises(MalformedLine):
            parse_aida_conll(path)

    def test_tokens_before_docstart(self, tmp_path):
        path = tmp_path / "doc.conll"
        path.write_text("word\n", encoding="utf-8")
        with pytest.raises(MalformedLine):
            parse_aida_conll(path)

    def test_split_counts_match_structure(self, tmp_path):
        path = tmp_path / "aida.conll"
        write_aida_file(path, n_train=12, n_testa=5, n_testb=7)
        docs = parse_aida_conll(path)
        assert len(docs) == 24
        by_split = {"train": 0, "testa": 0, "testb": 0}
        for d in docs:
            by_split[aida_split(d.doc_id)] += 1
        assert by_split == {"train": 12, "testa": 5, "testb": 7}


class TestElToEt:
    def figure_doc(self):
        text = (
            "A study published in journal Astronomy & Astrophysics last month reported "
            "astronomers from the ESO discovered a black hole in the Telescopium "
            "constellation. The study stated the black hole is about 1010 light years "
            "(310 parsec) away from the Solar System, meaning it is the nearest known "
            "black hole from the Earth."
        )
        surfaces = [
            ("Astronomy & Astrophysics", "Astronomy & Astrophysics", 0),
            ("astronomers", "Astronomy", 0),
            ("ESO", "European Southern Observatory", 0),
            ("black hole", "Black hole", 0),
            ("Telescopium", "Telescopium", 0),
            ("black hole", "Black hole", 1),
            ("light years", "Light-year", 0),
            ("parsec", "Parsec", 0),
            ("Solar System", "Solar System", 0),
            ("Earth", "Earth", 0),
        ]
        mentions = []
        for surface, entity, occurrence in surfaces:
            start = -1
            for _ in range(occurrence + 1):
                start = text.index(surface, start + 1)
            mentions.append(Mention(start, start + len(surface), entity))
        return ELDocument("figure-1", text, mentions)

    def test_mention_stripping_dedupes_to_nine_entities(self):
        doc = self.figure_doc()
        assert len(doc.mentions) == 10
        names = sorted({m.entity for m in doc.mentions})
        catalog = EntityCatalog(names)
        ex = el_to_et(doc, catalog)
        got = sorted(catalog.name_of(e) for e in ex.gold)
        assert got == [
            "Astronomy",
            "Astronomy & Astrophysics",
            "Black hole",
            "Earth",
            "European Southern Observatory",
            "Light-year",
            "Parsec",
            "Solar System",
            "Telescopium",
        ]
        assert len(ex.gold) == 9

    def test_gold_order_is_first_mention_order(self):
        doc = self.figure_doc()
        catalog = EntityCatalog(sorted({m.entity for m in doc.mentions}))
        ex = el_to_et(doc, catalog)
        names_in_order = [catalog.name_of(e) for e in ex.gold_order]
        assert names_in_order[0] == "Astronomy & Astrophysics"
        assert names_in_order[-1] == "Earth"
        assert names_in_order.count("Black hole") == 1
        assert set(ex.gold_order) == set(ex.gold)

    def test_nil_only_doc_converts_to_empty_gold(self):
        doc = ELDocument("nil-doc", "Bob spoke", [Mention(0, 3, None)])
        catalog = EntityCatalog(["Earth"])
        stats = ConversionStats()
        ex = el_to_et(doc, catalog, stats)
        assert ex.gold == frozenset()
        assert stats.dropped_nil_mentions == 1

    def test_oov_dropped_with_counter(self):
        doc = ELDocument(
            "oov", "x y", [Mention(0, 1, "Earth"), Mention(2, 3, "Mars")]
        )
        stats = ConversionStats()
        ex = el_to_et(doc, EntityCatalog(["Earth"]), stats)
        assert ex.gold == frozenset({0})
        assert stats.dropped_oov_entities == 1

    def test_counting_conservation(self):
        # |gold| + distinct OOV names == distinct non-NIL names,
        # and every NIL mention is counted
        rng = np.random.default_rng(8)
        catalog = EntityCatalog([f"ent {i}" for i in range(10)])
        universe = [f"ent {i}" for i in range(14)]  # 4 of these are OOV
        for _ in range(100):
            n = int(rng.integers(0, 12))
            mentions = []
            for i in range(n):
                if rng.random() < 0.25:
                    name = None
                else:
                    name = universe[int(rng.integers(0, len(universe)))]
                mentions.append(Mention(2 * i, 2 * i + 1, name))
            doc = ELDocument("z", "x" * (2 * n + 1), mentions)
            stats = ConversionStats()
            ex = el_to_et(doc, catalog, stats)
            distinct_non_nil = {m.entity for m in mentions if m.entity is not None}
            nil_count = sum(1 for m in mentions if m.entity is None)
            assert len(ex.gold) + stats.dropped_oov_entities == len(distinct_non_nil)
            assert stats.dropped_nil_mentions == nil_count

    def test_conversion_idempotent_on_reconstruction(self):
        doc = self.figure_doc()
        catalog = EntityCatalog(sorted({m.entity for m in doc.mentions}))
        ex = el_to_et(doc, catalog)
        rebuilt = ELDocument(
            ex.doc_id,
            ex.text,
            [Mention(i, i + 1, catalog.name_of(e)) for i, e in enumerate(ex.gold_order)],
        )
        again = el_to_et(rebuilt, catalog)
        assert again.gold == ex.gold

    def test_empty_docs_excluded_by_default(self):
        docs = [
            ELDocument("a", "x", [Mention(0, 1, "Earth")]),
            ELDocument("b", "y", [Mention(0, 1, None)]),
        ]
        catalog = EntityCatalog(["Earth"])
        keep, stats = convert_documents(docs, catalog)
        assert [e.doc_id for e in keep] == ["a"]
        assert stats.dropped_empty_docs == 1
        both, stats2 = convert_documents(docs, catalog, keep_empty=True)
        assert [e.doc_id for e in both] == ["a", "b"]


class TestNormalizedJsonl:
    def test_round_trip_through_parser(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        recs = [
            {
                "doc_id": "d1",
                "text": "café \U0001F30D earth",
                "mentions": [{"start": 0, "end": 4, "entity": "Café"}, {"start": 7, "end": 12, "entity": None}],
            }
        ]
        path.write_text("\n".join(json.dumps(r, ensure_ascii=False) for r in recs), encoding="utf-8")
        docs = parse_normalized_jsonl(path)
        assert docs[0].mentions[0] == Mention(0, 4, "Café")
        assert docs[0].mentions[1].entity is None

    def test_schema_errors_carry_doc_and_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"doc_id": "d1", "text": 5, "mentions": []}), encoding="utf-8")
        with pytest.raises(SchemaError) as excinfo:
            parse_normalized_jsonl(path)
        assert excinfo.value.doc_id == "d1"
        assert excinfo.value.field == "text"

    def test_overlap_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        rec = {
            "doc_id": "d1",
            "text": "abcdef",
            "mentions": [
                {"start": 0, "end": 4, "entity": "X"},
                {"start": 2, "end": 6, "entity": "Y"},
            ],
        }
        path.write_text(json.dumps(rec), encoding="utf-8")
        with pytest.raises(SchemaError):
            parse_normalized_jsonl(path)

    def test_span_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        rec = {"doc_id": "d1", "text": "ab", "mentions": [{"start": 0, "end": 9, "entity": "X"}]}
        path.write_text(json.dumps(rec), encoding="utf-8")
        with pytest.raises(SchemaError):
            parse_normalized_jsonl(path)


class TestWikiAbstracts:
    def test_title_plus_anchors(self):
        catalog = EntityCatalog(["Dog", "Cat", "Pets"])
        stats = ConversionStats()
        ex = wiki_abstract_to_et(
            "Pets", "dogs and cats are pets", [(0, 4, "Dog"), (9, 13, "Cat")], catalog, stats
        )
        assert ex.gold == frozenset({0, 1, 2})
        assert ex.gold_order[-1] == catalog.id_of("Pets")

    def test_title_already_anchored_dedupes(self):
        catalog = EntityCatalog(["Pets"])
        ex = wiki_abstract_to_et("Pets", "pets are pets", [(0, 4, "Pets")], catalog)
        assert ex.gold == frozenset({0})
        assert ex.gold_order == (0,)

    def test_title_not_in_catalog_counted(self):
        catalog = EntityCatalog(["Dog"])
        stats = ConversionStats()
        ex = wiki_abstract_to_et("Pets", "dogs", [(0, 4, "Dog")], catalog, stats)
        assert ex.gold == frozenset({0})
        assert stats.dropped_titles == 1

    def test_jsonl_driver(self, tmp_path):
        catalog = EntityCatalog(["Dog", "Cat", "Pets"])
        path = tmp_path / "wiki.jsonl"
        recs = [
            {"title": "Pets", "text": "dogs and cats", "anchors": [
                {"start": 0, "end": 4, "entity": "Dog"},
                {"start": 9, "end": 13, "entity": "Cat"},
            ]},
            {"title": "Nothing", "text": "empty", "anchors": []},
        ]
        path.write_text("\n".join(json.dumps(r) for r in recs), encoding="utf-8")
        examples, stats = convert_wiki_jsonl(path, catalog)
        assert len(examples) == 1
        assert stats.docs_in == 2 and stats.docs_out == 1
        assert stats.dropped_empty_docs == 1 and stats.dropped_titles == 1


class TestEtJsonl:
    def test_round_trip_exact(self, tmp_path):
        catalog = EntityCatalog(["Café \U0001F30D", "Z̧ weird", "plain"])
        examples = [
            ETExample("a", "text with é and \U0001F600", frozenset({0, 2}), (2, 0)),
            ETExample("b", "line\nbreaks\tand tabs", frozenset({1}), (1,)),
            ETExample("c", "no order", frozenset({0}), None),
        ]
        path = tmp_path / "et.jsonl"
        write_et_jsonl(examples, path, catalog)
        back = read_et_jsonl(path, catalog)
        assert back == examples

    def test_fuzzed_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        names = [f"n{i} x" for i in range(20)]
        catalog = EntityCatalog(names)
        pool = list("ab é́\U0001F600\t\n ")
        examples = []
        for i in range(60):
            text = "".join(rng.choice(pool, size=rng.integers(1, 30)))
            m = int(rng.integers(1, 6))
            gold = tuple(int(g) for g in rng.choice(20, size=m, replace=False))
            has_order = bool(rng.integers(0, 2))
            examples.append(
                ETExample(f"doc-{i}", text, frozenset(gold), gold if has_order else None)
            )
        path = tmp_path / "fuzz.jsonl"
        write_et_jsonl(examples, path, catalog)
        assert read_et_jsonl(path, catalog) == examples

    def test_unknown_gold_name_raises(self, tmp_path):
        catalog = EntityCatalog(["Earth"])
        path = tmp_path / "et.jsonl"
        path.write_text(
            json.dumps({"doc_id": "a", "text": "x", "gold": ["Mars"], "gold_order": None}),
            encoding="utf-8",
        )
        with pytest.raises(UnknownEntity):
            read_et_jsonl(path, catalog)

    def test_order_must_be_permutation(self, tmp_path):
        catalog = EntityCatalog(["Earth", "Mars"])
        path = tmp_path / "et.jsonl"
        path.write_text(
            json.dumps({"doc_id": "a", "text": "x", "gold": ["Earth"], "gold_order": ["Mars"]}),
            encoding="utf-8",
        )
        with pytest.raises(SchemaError):
            read_et_jsonl(path, catalog)

    def test_order_rejects_repeated_names(self, tmp_path):
        catalog = EntityCatalog(["Earth", "Mars"])
        path = tmp_path / "et.jsonl"
        rec = {"doc_id": "a", "text": "x", "gold": ["Earth", "Mars"], "gold_order": ["Earth", "Mars", "Earth"]}
        path.write_text(json.dumps(rec), encoding="utf-8")
        with pytest.raises(SchemaError):
            read_et_jsonl(path, catalog)

    def test_encode_examples_binds_inputs(self):
        catalog = EntityCatalog(["Earth"])
        vin, _ = build_vocabularies(catalog, ["hello earth"])
        examples = [ETExample("a", "hello qzx", frozenset({0}))]
        bound = encode_examples(examples, vin)
        assert bound[0].input is not None
        assert examples[0].input is None  # originals untouched

    def test_read_text_jsonl_tolerates_et_records(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_text(
            json.dumps({"doc_id": "a", "text": "x", "gold": ["Earth"]})
            + "\n"
            + json.dumps({"doc_id": "b", "text": "y"})
            + "\n",
            encoding="utf-8",
        )
        assert read_text_jsonl(path) == [("a", "x"), ("b", "y")]

    def test_read_text_jsonl_rejects_duplicate_doc_id(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        path.write_text("".join(json.dumps({"doc_id": d, "text": "x"}) + "\n" for d in "aba"), encoding="utf-8")
        with pytest.raises(SchemaError):
            read_text_jsonl(path)


@pytest.mark.parametrize(
    "read",
    [
        read_text_jsonl,
        parse_normalized_jsonl,
        lambda path: read_et_jsonl(path, EntityCatalog(["Earth"])),
        lambda path: convert_wiki_jsonl(path, EntityCatalog(["Earth"])),
        lambda path: read_name_sets(path, "gold"),
    ],
    ids=["text", "el", "et", "wiki", "name-sets"],
)
class TestJsonlRecords:
    def test_non_object_line(self, tmp_path, read):
        path = tmp_path / "bad.jsonl"
        path.write_text('\n[1]\n', encoding="utf-8")
        with pytest.raises(SchemaError, match="line 2"):
            read(path)

    def test_bad_json_line(self, tmp_path, read):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"doc_id": \n', encoding="utf-8")
        with pytest.raises(MalformedLine):
            read(path)

    def test_lone_surrogate(self, tmp_path, read):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"doc_id": "\\ud800", "title": "\\ud800", "text": "x"}\n', encoding="utf-8")
        with pytest.raises(MalformedLine, match="line 1.*surrogate"):
            read(path)
