import json

import numpy as np
import pytest

from ettag.catalog import EntityCatalog, build_vocabularies
from ettag.cli import main
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
    el_to_et,
    encode_examples,
    parse_aida_conll,
    parse_normalized_jsonl,
    parse_wiki_jsonl,
    read_et_jsonl,
    read_name_sets,
    read_text_jsonl,
    write_et_jsonl,
)

from helpers import decode_spans, every_id, write_aida_file


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

    def test_malformed_line(self, tmp_path, capsys):
        path, kb, out = tmp_path / "doc.conll", tmp_path / "kb.txt", tmp_path / "out.jsonl"
        kb.write_text("Earth\n", encoding="utf-8")
        for text, line_no, message in [
            ("-DOCSTART- (8 BAD)\nword\tB\tw\n", 2, "expected >= 4 columns, got 3"),
            ("-DOCSTART- 1\nx\n", 1, "bad -DOCSTART- line: '-DOCSTART- 1'"),
            ("-DOCSTART- (1 A)\n\tB\tx\tEarth\n", 2, "empty token"),
            ("-DOCSTART- (1 A)\nword\tX\tw\tEarth\n", 2, "unknown tag 'X'"),
        ]:
            path.write_text(text, encoding="utf-8")
            with pytest.raises(MalformedLine) as exc_info:
                parse_aida_conll(path)
            assert type(exc_info.value) is MalformedLine and exc_info.value.line_no == line_no
            assert str(exc_info.value) == f"line {line_no}: {message}"
            argv = ["convert", "--format", "aida-conll", "--in", str(path), "--out", str(out), "--kb", str(kb)]
            assert main(argv) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and json.loads(err[0])["error"] == "MalformedLine" and not out.exists()
            assert f"line {line_no}: {message}" in json.loads(err[0])["message"]

    def test_empty_entity_name(self, tmp_path):
        path = tmp_path / "doc.conll"
        path.write_text(
            "-DOCSTART- (11 BAD)\nword\nEarth\tB\tEarth\tEarth\thttp://en.wikipedia.org/wiki/\t1\t/m/1\n",
            encoding="utf-8",
        )
        with pytest.raises(MalformedLine, match="line 3: entity column: name is empty"):
            parse_aida_conll(path)

    def test_tokens_before_docstart(self, tmp_path):
        path = tmp_path / "doc.conll"
        path.write_text("word\n", encoding="utf-8")
        with pytest.raises(MalformedLine):
            parse_aida_conll(path)

    def test_repeated_document_id(self, tmp_path):
        path = tmp_path / "doc.conll"
        path.write_text("-DOCSTART- (9 A)\nword\n\n-DOCSTART- (10 B)\nx\n-DOCSTART- (9 A)\nword\n", encoding="utf-8")
        with pytest.raises(MalformedLine, match="line 6: repeated document id '9 A'"):
            parse_aida_conll(path)

    def test_empty_document_between_docstarts(self, tmp_path):
        path = tmp_path / "doc.conll"
        path.write_text("-DOCSTART- (1 A)\nx\n\n-DOCSTART- (2 B)\n\n-DOCSTART- (3 C)\ny\n", encoding="utf-8")
        docs = parse_aida_conll(path)
        assert [(d.doc_id, d.text, d.mentions) for d in docs] == [("1 A", "x", []), ("2 B", "", []), ("3 C", "y", [])]

    def test_blank_lines_before_first_docstart(self, tmp_path):
        path = tmp_path / "doc.conll"
        path.write_text("\n \t\n-DOCSTART- (1 A)\nx\n", encoding="utf-8")
        (doc,) = parse_aida_conll(path)
        assert (doc.doc_id, doc.text) == ("1 A", "x")

    def test_two_b_mentions_in_a_row(self, tmp_path):
        path = tmp_path / "doc.conll"
        path.write_text(
            "-DOCSTART- (1 A)\nBlack\tB\tBlack\tBlack_hole\nhole\tB\thole\tEarth\tx\n", encoding="utf-8"
        )
        doc = parse_aida_conll(path)[0]
        assert doc.text == "Black hole"
        assert doc.mentions == [Mention(0, 5, "Black hole"), Mention(6, 10, "x")]

    def test_i_after_one_column_token_is_dangling(self, tmp_path):
        path = tmp_path / "doc.conll"
        path.write_text(
            "-DOCSTART- (1 A)\nBlack\tB\tBlack\tBlack_hole\nword\nhole\tI\thole\tBlack_hole\n", encoding="utf-8"
        )
        with pytest.raises(DanglingIMention, match="line 4"):
            parse_aida_conll(path)

    def test_empty_entity_on_i_line_is_malformed_before_dangling(self, tmp_path):
        # the entity column is read before the tag is checked
        path = tmp_path / "doc.conll"
        path.write_text("-DOCSTART- (1 A)\nword\nhole\tI\thole\t\n", encoding="utf-8")
        with pytest.raises(MalformedLine, match="line 3: entity column: name is empty"):
            parse_aida_conll(path)

    def test_trailing_blank_lines_add_no_newline(self, tmp_path):
        path = tmp_path / "doc.conll"
        path.write_text("-DOCSTART- (1 A)\nOne\n\n\nTwo\tB\tTwo\tEarth\n\n \n\n", encoding="utf-8")
        doc = parse_aida_conll(path)[0]
        assert doc.text == "One\nTwo"
        assert doc.mentions == [Mention(4, 7, "Earth")]

    def test_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "doc.conll"
        path.write_text("\ufeff-DOCSTART- (1 A)\nx\n", encoding="utf-8")
        (doc,) = parse_aida_conll(path)
        assert (doc.doc_id, doc.text) == ("1 A", "x")

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
        ex = el_to_et(doc, every_id(catalog))
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
        ex = el_to_et(doc, every_id(catalog))
        names_in_order = [catalog.name_of(e) for e in ex.gold_order]
        assert names_in_order[0] == "Astronomy & Astrophysics"
        assert names_in_order[-1] == "Earth"
        assert names_in_order.count("Black hole") == 1
        assert set(ex.gold_order) == set(ex.gold)

    def test_nil_only_doc_converts_to_empty_gold(self):
        doc = ELDocument("nil-doc", "Bob spoke", [Mention(0, 3, None)])
        catalog = EntityCatalog(["Earth"])
        stats = ConversionStats()
        ex = el_to_et(doc, every_id(catalog), stats)
        assert ex.gold == frozenset()
        assert stats.dropped_nil_mentions == 1

    def test_oov_dropped_with_counter(self):
        doc = ELDocument(
            "oov", "x y", [Mention(0, 1, "Earth"), Mention(2, 3, "Mars")]
        )
        stats = ConversionStats()
        ex = el_to_et(doc, every_id(EntityCatalog(["Earth"])), stats)
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
            ex = el_to_et(doc, every_id(catalog), stats)
            distinct_non_nil = {m.entity for m in mentions if m.entity is not None}
            nil_count = sum(1 for m in mentions if m.entity is None)
            assert len(ex.gold) + stats.dropped_oov_entities == len(distinct_non_nil)
            assert stats.dropped_nil_mentions == nil_count

    def test_conversion_idempotent_on_reconstruction(self):
        doc = self.figure_doc()
        catalog = EntityCatalog(sorted({m.entity for m in doc.mentions}))
        ex = el_to_et(doc, every_id(catalog))
        rebuilt = ELDocument(
            ex.doc_id,
            ex.text,
            [Mention(i, i + 1, catalog.name_of(e)) for i, e in enumerate(ex.gold_order)],
        )
        again = el_to_et(rebuilt, every_id(catalog))
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


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return path


class TestWikiAbstracts:
    def convert(self, tmp_path, records, names):
        docs = parse_wiki_jsonl(write_jsonl(tmp_path / "wiki.jsonl", records))
        return convert_documents(docs, EntityCatalog(names))

    def test_title_plus_anchors(self, tmp_path):
        rec = {"title": "Pets", "text": "dogs and cats are pets", "anchors": [
            {"start": 0, "end": 4, "entity": "Dog"},
            {"start": 9, "end": 13, "entity": "Cat"},
        ]}
        (ex,), stats = self.convert(tmp_path, [rec], ["Dog", "Cat", "Pets"])
        assert ex.doc_id == "Pets"
        assert ex.gold == frozenset({0, 1, 2})
        assert ex.gold_order == (0, 1, 2)  # title last: it has no span
        assert stats.dropped_titles == 0

    def test_title_already_anchored_dedupes(self, tmp_path):
        rec = {"title": "Pets", "text": "pets are pets", "anchors": [{"start": 0, "end": 4, "entity": "Pets"}]}
        (ex,), _ = self.convert(tmp_path, [rec], ["Pets"])
        assert ex.gold == frozenset({0})
        assert ex.gold_order == (0,)

    def test_title_not_in_catalog_counted(self, tmp_path):
        rec = {"title": "Pets", "text": "dogs", "anchors": [{"start": 0, "end": 4, "entity": "Dog"}]}
        (ex,), stats = self.convert(tmp_path, [rec], ["Dog"])
        assert ex.gold == frozenset({0})
        assert stats.dropped_titles == 1

    def test_jsonl_driver(self, tmp_path):
        recs = [
            {"title": "Pets", "text": "dogs and cats", "anchors": [
                {"start": 0, "end": 4, "entity": "Dog"},
                {"start": 9, "end": 13, "entity": "Cat"},
            ]},
            {"title": "Nothing", "text": "empty", "anchors": []},
            {"title": "Dog", "text": "no anchors"},
        ]
        examples, stats = self.convert(tmp_path, recs, ["Dog", "Cat", "Pets"])
        assert [ex.doc_id for ex in examples] == ["Pets", "Dog"]
        assert stats.docs_in == 3 and stats.docs_out == 2
        assert stats.dropped_empty_docs == 1 and stats.dropped_titles == 1

    def test_null_anchor_is_nil(self, tmp_path):
        rec = {"title": "Pets", "text": "Bob has pets", "anchors": [{"start": 0, "end": 3, "entity": None}]}
        (doc,) = parse_wiki_jsonl(write_jsonl(tmp_path / "wiki.jsonl", [rec]))
        assert doc.mentions == [Mention(0, 3, None)] and doc.title == "Pets"
        (ex,), stats = self.convert(tmp_path, [rec], ["Pets"])
        assert ex.gold_order == (0,)
        assert stats.dropped_nil_mentions == 1

    def test_title_is_canonicalized(self, tmp_path):
        rec = {"title": "  Pet   shops ", "text": "x"}
        (ex,), _ = self.convert(tmp_path, [rec], ["Pet shops"])
        assert ex.doc_id == "  Pet   shops " and ex.gold == frozenset({0})


@pytest.mark.parametrize("parse, field", [(parse_normalized_jsonl, "mentions"), (parse_wiki_jsonl, "anchors")])
class TestMentionRules:
    """EL mentions and wiki anchors are read by the same rules."""

    def record(self, parse, field, mentions):
        key = "doc_id" if parse is parse_normalized_jsonl else "title"
        return {key: "Pets", "text": "dogs and cats", field: mentions}

    @pytest.mark.parametrize(
        "mention",
        [
            {"start": True, "end": 4, "entity": "Dog"},
            {"end": 4, "entity": "Dog"},
            {"start": 0, "end": 4, "entity": ["Dog"]},
            {"start": 0, "end": 4, "entity": "   "},
            {"start": -1, "end": 4, "entity": "Dog"},
            {"start": 0, "end": 10**30, "entity": "Dog"},
            "Dog",
        ],
    )
    def test_bad_mention_rejected(self, tmp_path, parse, field, mention):
        path = write_jsonl(tmp_path / "bad.jsonl", [self.record(parse, field, [mention])])
        with pytest.raises(SchemaError) as excinfo:
            parse(path)
        assert excinfo.value.doc_id == "Pets" and excinfo.value.field == field

    def test_same_documents(self, tmp_path, parse, field):
        mentions = [
            {"start": 9, "end": 13, "entity": " Cat "},
            {"start": 0, "end": 4, "entity": None},
            {"start": 5, "end": 8},
        ]
        (doc,) = parse(write_jsonl(tmp_path / "ok.jsonl", [self.record(parse, field, mentions)]))
        assert doc.doc_id == "Pets" and doc.text == "dogs and cats"
        assert doc.mentions == [Mention(9, 13, "Cat"), Mention(0, 4, None), Mention(5, 8, None)]

    def test_missing_list(self, tmp_path, parse, field):
        rec = self.record(parse, field, [])
        del rec[field]
        path = write_jsonl(tmp_path / "doc.jsonl", [rec])
        if parse is parse_wiki_jsonl:  # a wiki abstract may have no anchors
            assert parse(path)[0].mentions == []
        else:
            with pytest.raises(SchemaError, match="mentions"):
                parse(path)


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

    def test_names_are_looked_up_a_block_at_a_time(self, tmp_path, monkeypatch):
        """Reading an ET file and converting EL documents decode the catalog a
        block at a time: no string of every name is made to look names up."""
        catalog = EntityCatalog([f"Entity {i}" for i in range(10)])
        spans = decode_spans(monkeypatch, 3)
        path = tmp_path / "et.jsonl"
        records = [{"doc_id": "a", "text": "x", "gold": ["Entity 8", "Entity 1"], "gold_order": ["Entity 1", "Entity 8"]},
                   {"doc_id": "b", "text": "y", "gold": ["Entity 4"], "gold_order": None}]
        path.write_text("".join(json.dumps(rec) + "\n" for rec in records), encoding="utf-8")
        assert read_et_jsonl(path, catalog) == [ETExample("a", "x", frozenset({1, 8}), (1, 8)),
                                                ETExample("b", "y", frozenset({4}), None)]
        docs = [ELDocument("a", "x y", [Mention(0, 1, "Entity 9"), Mention(2, 3, "Mars")], title="Entity 2")]
        examples, stats = convert_documents(docs, catalog)
        assert [ex.gold_order for ex in examples] == [(9, 2)] and stats.dropped_oov_entities == 1
        assert spans and max(spans) <= 3

    @pytest.mark.parametrize("lines, error, message", [
        ([{"doc_id": "a", "text": "x", "gold": ["Mars"], "gold_order": None}, "{not json"],
         UnknownEntity, "'a': entity 'Mars' not in catalog"),
        ([{"doc_id": "a", "text": "x", "gold": ["Mars"], "gold_order": "Mars"}],
         UnknownEntity, "'a': entity 'Mars' not in catalog"),
        ([{"doc_id": "a", "text": "x", "gold": [" "], "gold_order": None},
          {"doc_id": "b", "text": "y", "gold": ["Mars"], "gold_order": None}],
         SchemaError, "record 'a', field 'gold': name is empty after normalization: ' '"),
        ([{"doc_id": "a", "text": "x", "gold": ["Earth"], "gold_order": None}, "{not json"],
         MalformedLine, "line 2: bad JSON: "),
        ([{"doc_id": "a", "text": "x", "gold": ["Earth", "Mars"], "gold_order": ["Earth"]}],
         UnknownEntity, "'a': entity 'Mars' not in catalog"),
        ([{"doc_id": "a", "text": "x", "gold": ["Earth"], "gold_order": None},
          {"doc_id": "a", "text": "y", "gold": ["Mars"], "gold_order": None}],
         SchemaError, "record 'a', field 'doc_id': duplicate on line 2"),
    ], ids=["unknown-then-bad-json", "unknown-then-order-not-a-list", "empty-then-unknown",
            "bad-json-after-good-record", "unknown-in-gold-before-order",
            "duplicate-id-before-unknown"])
    def test_the_first_fault_in_file_order_is_raised(self, tmp_path, lines, error, message):
        """The error raised is that of the first faulty record in file order and,
        within a record, of its first failing check: gold before gold_order."""
        path = tmp_path / "et.jsonl"
        path.write_text("".join((line if isinstance(line, str) else json.dumps(line)) + "\n" for line in lines),
                        encoding="utf-8")
        with pytest.raises(error) as exc_info:
            read_et_jsonl(path, EntityCatalog(["Earth"]))
        assert str(exc_info.value).startswith(message)

    def test_gold_names_are_canonicalized(self, tmp_path):
        catalog = EntityCatalog(["Red Planet", "Earth"])
        path = tmp_path / "et.jsonl"
        rec = {"doc_id": "a", "text": "x", "gold": ["Red  Planet", " Earth"], "gold_order": ["Earth\t", "Red\nPlanet"]}
        path.write_text(json.dumps(rec), encoding="utf-8")
        assert read_et_jsonl(path, catalog) == [ETExample("a", "x", frozenset({0, 1}), (1, 0))]

    @pytest.mark.parametrize("field", ["gold", "gold_order"])
    def test_name_empty_after_canonicalization_is_a_schema_error(self, tmp_path, field):
        catalog = EntityCatalog(["Earth"])
        path = tmp_path / "et.jsonl"
        rec = {"doc_id": "a", "text": "x", "gold": ["Earth"], "gold_order": ["Earth"]}
        rec[field] = [" \t"]
        path.write_text(json.dumps(rec), encoding="utf-8")
        with pytest.raises(SchemaError, match=field):
            read_et_jsonl(path, catalog)

    def test_name_sets_are_canonicalized(self, tmp_path):
        path = tmp_path / "pred.jsonl"
        path.write_text(json.dumps({"doc_id": "a", "entities": ["Red  Planet", "Cafe\u0301"]}), encoding="utf-8")
        assert read_name_sets(path, "entities") == {"a": {"Red Planet", "Caf\u00e9"}}
        path.write_text(json.dumps({"doc_id": "a", "entities": ["  "]}), encoding="utf-8")
        with pytest.raises(SchemaError, match="entities"):
            read_name_sets(path, "entities")

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
        parse_wiki_jsonl,
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

    @pytest.mark.parametrize("value", ["[" * 200_000 + "]" * 200_000, "9" * 5_000], ids=["deep", "long-int"])
    def test_json_beyond_the_decoder_limits(self, tmp_path, read, value):
        # nested past the recursion limit, or an integer past Python's digit limit
        path = tmp_path / "bad.jsonl"
        path.write_text('\n{"doc_id": "a", "title": "a", "text": "x", "extra": %s}\n' % value, encoding="utf-8")
        with pytest.raises(MalformedLine, match="line 2"):
            read(path)

    def test_lone_surrogate(self, tmp_path, read):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"doc_id": "\\ud800", "title": "\\ud800", "text": "x"}\n', encoding="utf-8")
        with pytest.raises(MalformedLine, match="line 1.*surrogate"):
            read(path)

    def test_byte_order_mark_skipped(self, tmp_path, read):
        path = tmp_path / "bom.jsonl"
        record = {"doc_id": "a", "title": "a", "text": "x", "mentions": [], "gold": []}
        path.write_text("\ufeff" + json.dumps(record) + "\n", encoding="utf-8")
        assert len(read(path)) == 1
