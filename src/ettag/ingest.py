"""Entity-linking corpus parsing and conversion to the entity-tagging form.

Conversion strips mention boundaries, discards NIL mentions, deduplicates
entities into a set, and keeps first-mention order around for the
order-sensitive training ablation. All lossy steps are counted, never
silent.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence
from urllib.parse import unquote

from .catalog import EntityCatalog, TokenSeq, Vocabulary, canonicalize, tokenize
from .errors import (
    DanglingIMention,
    InvalidName,
    MalformedLine,
    MissingMentionOrder,
    SchemaError,
    UnknownEntity,
)

NIL = None  # entity slot of a mention with no KB entry


def jsonl_records(path, key: str) -> Iterator[dict]:
    """The record on each non-blank line of a JSONL file. Each
    record must be a JSON object holding a string under ``key``, and no two
    records may hold the same one."""
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedLine(line_no, f"bad JSON: {exc}") from exc
            if not isinstance(rec, dict):
                raise SchemaError(f"<line {line_no}>", key, "record is not a JSON object")
            if "\\u" in line:  # an escape can spell a lone surrogate, which UTF-8 cannot hold
                try:
                    json.dumps(rec, ensure_ascii=False).encode("utf-8")
                except UnicodeEncodeError:
                    raise MalformedLine(line_no, "a string holds a lone surrogate, not UTF-8") from None
            rid = rec.get(key)
            if not isinstance(rid, str):
                raise SchemaError(f"<line {line_no}>", key, "missing or not a string")
            if rid in seen:
                raise SchemaError(rid, key, f"duplicate on line {line_no}")
            seen.add(rid)
            yield rec


def _names(rec: dict, rid: str, field: str) -> list[str]:
    value = rec.get(field)
    if not isinstance(value, list) or not all(isinstance(n, str) for n in value):
        raise SchemaError(rid, field, "missing or not a list of names")
    return value


@dataclass(frozen=True)
class Mention:
    start: int
    end: int
    entity: str | None  # canonical name, or None for NIL


@dataclass
class ELDocument:
    doc_id: str
    text: str
    mentions: list[Mention]

    def validate(self) -> None:
        n = len(self.text)
        spans = sorted((m.start, m.end) for m in self.mentions)
        prev_end = 0
        for start, end in spans:
            if not (0 <= start < end <= n):
                raise SchemaError(self.doc_id, "mentions", f"span [{start}:{end}] out of range")
            if start < prev_end:
                raise SchemaError(self.doc_id, "mentions", f"overlapping span at {start}")
            prev_end = end


@dataclass
class ETExample:
    """One entity-tagging example: text in, gold entity set out."""

    doc_id: str
    text: str
    gold: frozenset[int]
    gold_order: tuple[int, ...] | None = None  # first-mention order, if known
    input: TokenSeq | None = None  # bound against an input vocabulary on demand

    def require_order(self) -> tuple[int, ...]:
        if self.gold_order is None:
            raise MissingMentionOrder(f"example {self.doc_id!r} has no mention order")
        return self.gold_order


def encode_examples(examples: Iterable[ETExample], vocab: Vocabulary) -> list[ETExample]:
    return [
        dataclasses.replace(ex, input=tokenize(ex.text, vocab, mode="input"))
        for ex in examples
    ]


@dataclass
class ConversionStats:
    docs_in: int = 0
    docs_out: int = 0
    dropped_nil_mentions: int = 0
    dropped_oov_entities: int = 0
    dropped_titles: int = 0
    dropped_empty_docs: int = 0

    def as_dict(self) -> dict[str, int]:
        return dataclasses.asdict(self)


def _wiki_name(raw: str) -> str:
    """Entity column -> canonical name; URLs are reduced to their page title."""
    if raw.startswith("http://") or raw.startswith("https://"):
        raw = raw.rsplit("/", 1)[-1]
        raw = unquote(raw)
    return canonicalize(raw.replace("_", " "))


def parse_aida_conll(path) -> list[ELDocument]:
    """Parse the AIDA CoNLL-YAGO column format.

    ``-DOCSTART- (id)`` opens a document; token lines carry optional mention
    columns TOKEN, B|I, surface, YAGO id (``--NME--`` for NIL), and
    optionally a Wikipedia name/URL. Text is rebuilt with single spaces
    inside sentences and newlines between them; mention offsets index into
    that text.
    """
    docs: list[ELDocument] = []
    doc_id: str | None = None
    pieces: list[str] = []
    pos = 0
    mentions: list[Mention] = []
    open_mention: list | None = None  # [start, end, entity]
    at_sentence_start = True

    def close_mention():
        nonlocal open_mention
        if open_mention is not None:
            mentions.append(Mention(open_mention[0], open_mention[1], open_mention[2]))
            open_mention = None

    def close_doc():
        nonlocal pieces, pos, mentions, at_sentence_start
        close_mention()
        if doc_id is not None:
            docs.append(ELDocument(doc_id, "".join(pieces).rstrip("\n"), mentions))
        pieces = []
        pos = 0
        mentions = []
        at_sentence_start = True

    with open(path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if line.startswith("-DOCSTART-"):
                close_doc()
                lparen = line.find("(")
                rparen = line.rfind(")")
                if lparen < 0 or rparen <= lparen:
                    raise MalformedLine(line_no, f"bad -DOCSTART- line: {line!r}")
                doc_id = line[lparen + 1: rparen]
                continue
            if doc_id is None:
                if not line.strip():
                    continue
                raise MalformedLine(line_no, "token line before any -DOCSTART-")
            if not line.strip():
                # sentence break
                close_mention()
                if not at_sentence_start:
                    pieces.append("\n")
                    pos += 1
                    at_sentence_start = True
                continue
            cols = line.split("\t")
            token = cols[0]
            if not token:
                raise MalformedLine(line_no, "empty token")
            if not at_sentence_start:
                pieces.append(" ")
                pos += 1
            start = pos
            pieces.append(token)
            pos += len(token)
            at_sentence_start = False

            if len(cols) == 1:
                close_mention()
                continue
            if len(cols) < 4:
                raise MalformedLine(line_no, f"expected >= 4 columns, got {len(cols)}")
            bio = cols[1]
            entity = NIL if cols[3] == "--NME--" else _wiki_name(cols[4] if len(cols) > 4 else cols[3])
            if bio == "B":
                close_mention()
                open_mention = [start, pos, entity]
            elif bio == "I":
                if open_mention is None:
                    raise DanglingIMention(line_no)
                open_mention[1] = pos
            else:
                raise MalformedLine(line_no, f"unknown tag {bio!r}")
    close_doc()
    return docs


def aida_split(doc_id: str) -> str:
    head = doc_id.split(" ", 1)[0]
    if head.endswith("testa"):
        return "testa"
    if head.endswith("testb"):
        return "testb"
    return "train"


def parse_normalized_jsonl(path) -> list[ELDocument]:
    """Read the normalized EL interchange: one JSON object per line with
    doc_id, text, and mentions [{start, end, entity|null}]."""
    docs: list[ELDocument] = []
    for rec in jsonl_records(path, "doc_id"):
        doc_id = rec["doc_id"]
        text = rec.get("text")
        if not isinstance(text, str):
            raise SchemaError(doc_id, "text", "missing or not a string")
        raw_mentions = rec.get("mentions")
        if not isinstance(raw_mentions, list):
            raise SchemaError(doc_id, "mentions", "missing or not a list")
        mentions = []
        for m in raw_mentions:
            if not isinstance(m, dict):
                raise SchemaError(doc_id, "mentions", "entry is not an object")
            try:
                start, end = int(m["start"]), int(m["end"])
            except (KeyError, TypeError, ValueError, OverflowError):
                raise SchemaError(doc_id, "mentions", "bad start/end") from None
            ent = m.get("entity")
            if ent is not None and not isinstance(ent, str):
                raise SchemaError(doc_id, "mentions", "entity must be string or null")
            try:
                mentions.append(Mention(start, end, None if ent is None else canonicalize(ent)))
            except InvalidName as exc:
                raise SchemaError(doc_id, "mentions", str(exc)) from None
        doc = ELDocument(doc_id, text, mentions)
        doc.validate()
        docs.append(doc)
    return docs


def el_to_et(
    doc: ELDocument,
    catalog: EntityCatalog,
    stats: ConversionStats | None = None,
) -> ETExample:
    """Strip mention boundaries: gold becomes the set of in-catalog entities,
    NIL and out-of-catalog mentions are dropped and counted."""
    stats = stats if stats is not None else ConversionStats()
    first_seen: dict[int, int] = {}  # entity id -> earliest mention start
    oov: set[str] = set()
    for m in sorted(doc.mentions, key=lambda m: (m.start, m.end)):
        if m.entity is NIL:
            stats.dropped_nil_mentions += 1
            continue
        eid = catalog.id_of(m.entity)
        if eid is None:
            oov.add(m.entity)
            continue
        if eid not in first_seen:
            first_seen[eid] = m.start
    stats.dropped_oov_entities += len(oov)
    order = tuple(sorted(first_seen, key=first_seen.__getitem__))
    return ETExample(
        doc_id=doc.doc_id,
        text=doc.text,
        gold=frozenset(first_seen),
        gold_order=order,
    )


def wiki_abstract_to_et(
    page_title: str,
    abstract_text: str,
    anchors: Sequence[tuple[int, int, str]],
    catalog: EntityCatalog,
    stats: ConversionStats | None = None,
) -> ETExample:
    """Wikipedia abstract -> example: anchor entities plus the page title,
    title last in the order (it has no mention span)."""
    stats = stats if stats is not None else ConversionStats()
    mentions = [Mention(s, e, canonicalize(name)) for s, e, name in anchors]
    base = el_to_et(ELDocument(page_title, abstract_text, mentions), catalog, stats)
    title = canonicalize(page_title)
    title_id = catalog.id_of(title)
    if title_id is None:
        stats.dropped_titles += 1
        return base
    if title_id in base.gold:
        return base
    return dataclasses.replace(
        base,
        gold=base.gold | {title_id},
        gold_order=(base.gold_order or ()) + (title_id,),
    )


def convert_documents(
    docs: Iterable[ELDocument],
    catalog: EntityCatalog,
    keep_empty: bool = False,
) -> tuple[list[ETExample], ConversionStats]:
    stats = ConversionStats()
    out: list[ETExample] = []
    for doc in docs:
        stats.docs_in += 1
        ex = el_to_et(doc, catalog, stats)
        if not ex.gold and not keep_empty:
            stats.dropped_empty_docs += 1
            continue
        stats.docs_out += 1
        out.append(ex)
    return out, stats


def convert_wiki_jsonl(
    path,
    catalog: EntityCatalog,
    keep_empty: bool = False,
) -> tuple[list[ETExample], ConversionStats]:
    """Read wiki-abstract records ({title, text, anchors:[{start,end,entity}]})
    and convert each to an example with the title as an extra gold entity."""
    stats = ConversionStats()
    out: list[ETExample] = []
    for rec in jsonl_records(path, "title"):
        title, text, raw_anchors = rec["title"], rec.get("text"), rec.get("anchors", [])
        if not isinstance(text, str):
            raise SchemaError(title, "text", "missing or not a string")
        if not isinstance(raw_anchors, list):
            raise SchemaError(title, "anchors", "not a list")
        anchors = []
        for m in raw_anchors:
            try:
                anchors.append((int(m["start"]), int(m["end"]), str(m["entity"])))
            except (KeyError, TypeError, ValueError, OverflowError):
                raise SchemaError(title, "anchors", "bad anchor entry") from None
        stats.docs_in += 1
        ex = wiki_abstract_to_et(title, text, anchors, catalog, stats)
        if not ex.gold and not keep_empty:
            stats.dropped_empty_docs += 1
            continue
        stats.docs_out += 1
        out.append(ex)
    return out, stats


def read_text_jsonl(path) -> list[tuple[str, str]]:
    """Lenient reader for tagging input: any JSONL with unique doc_id and text."""
    out: list[tuple[str, str]] = []
    for rec in jsonl_records(path, "doc_id"):
        if not isinstance(rec.get("text"), str):
            raise SchemaError(rec["doc_id"], "text", "missing or not a string")
        out.append((rec["doc_id"], rec["text"]))
    return out


def read_name_sets(path, field: str) -> dict[str, set[str]]:
    """doc_id -> the set of names in ``field``, one JSONL record per doc_id."""
    return {rec["doc_id"]: set(_names(rec, rec["doc_id"], field)) for rec in jsonl_records(path, "doc_id")}


def write_et_jsonl(examples: Iterable[ETExample], path, catalog: EntityCatalog) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for ex in examples:
            rec = {
                "doc_id": ex.doc_id,
                "text": ex.text,
                "gold": sorted(catalog.name_of(e) for e in ex.gold),
                "gold_order": None
                if ex.gold_order is None
                else [catalog.name_of(e) for e in ex.gold_order],
            }
            f.write(json.dumps(rec, ensure_ascii=False) + "\n")


def read_et_jsonl(path, catalog: EntityCatalog) -> list[ETExample]:
    out: list[ETExample] = []
    for rec in jsonl_records(path, "doc_id"):
        doc_id = rec["doc_id"]
        if not isinstance(rec.get("text"), str):
            raise SchemaError(doc_id, "text", "missing or not a string")

        def resolve(name: str) -> int:
            eid = catalog.id_of(name)
            if eid is None:
                raise UnknownEntity(f"{doc_id!r}: entity {name!r} not in catalog")
            return eid

        gold = frozenset(resolve(n) for n in _names(rec, doc_id, "gold"))
        order = None
        if rec.get("gold_order") is not None:
            order = tuple(resolve(n) for n in _names(rec, doc_id, "gold_order"))
            if len(order) != len(gold) or set(order) != gold:
                raise SchemaError(doc_id, "gold_order", "not a permutation of gold")
        out.append(ETExample(doc_id=doc_id, text=rec["text"], gold=gold, gold_order=order))
    return out
