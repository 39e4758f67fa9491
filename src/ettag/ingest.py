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
from typing import Iterable, Iterator, Mapping
from urllib.parse import unquote

from .catalog import EntityCatalog, TokenSeq, Vocabulary, canonicalize, open_text, tokenize
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
    records may hold the same one. A line the decoder cannot hold (nested too
    deeply, or an integer past Python's digit limit) is a MalformedLine too."""
    seen: set[str] = set()
    with open_text(path) as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except (ValueError, RecursionError) as exc:  # a JSONDecodeError is a ValueError
                raise MalformedLine(line_no, f"bad JSON: {exc}") from None
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


def write_jsonl(path, records: Iterable[dict]) -> None:
    """One JSON object per line; non-ASCII characters are written as themselves."""
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec, ensure_ascii=False) + "\n")


def _names(rec: dict, rid: str, field: str) -> list[str]:
    value = rec.get(field)
    if not isinstance(value, list) or not all(isinstance(n, str) for n in value):
        raise SchemaError(rid, field, "missing or not a list of names")
    return value


def _text(rec: dict, rid: str) -> str:
    text = rec.get("text")
    if not isinstance(text, str):
        raise SchemaError(rid, "text", "missing or not a string")
    return text


def _canonical(name: str, rid: str, field: str) -> str:
    try:
        return canonicalize(name)
    except InvalidName as exc:
        raise SchemaError(rid, field, str(exc)) from None


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
    title: str | None = None  # canonical name of the page the text abstracts: gold, with no span

    def validate(self, field: str = "mentions") -> None:
        n = len(self.text)
        spans = sorted((m.start, m.end) for m in self.mentions)
        prev_end = 0
        for start, end in spans:
            if not (0 <= start < end <= n):
                raise SchemaError(self.doc_id, field, f"span [{start}:{end}] out of range")
            if start < prev_end:
                raise SchemaError(self.doc_id, field, f"overlapping span at {start}")
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


def _wiki_name(raw: str, line_no: int) -> str:
    """Entity column on line ``line_no`` -> canonical name; URLs are reduced
    to their page title."""
    if raw.startswith("http://") or raw.startswith("https://"):
        raw = raw.rsplit("/", 1)[-1]
        raw = unquote(raw)
    try:
        return canonicalize(raw.replace("_", " "))
    except InvalidName as exc:
        raise MalformedLine(line_no, f"entity column: {exc}") from None


def parse_aida_conll(path) -> list[ELDocument]:
    """Parse the AIDA CoNLL-YAGO column format.

    ``-DOCSTART- (id)`` opens a document; token lines carry optional mention
    columns TOKEN, B|I, surface, YAGO id (``--NME--`` for NIL), and
    optionally a Wikipedia name/URL. Text is rebuilt with single spaces
    inside sentences and newlines between them; mention offsets index into
    that text. No two documents may share an id.
    """
    docs: list[tuple[str, list[str], list[Mention]]] = []  # (doc_id, text pieces, mentions)
    seen_ids: set[str] = set()
    # the open document's text length, the gap owed before its next token, and whether mentions[-1] may grow
    pos, gap, in_mention = 0, "", False
    with open_text(path) as f:
        for line_no, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if line.startswith("-DOCSTART-"):
                lparen, rparen = line.find("("), line.rfind(")")
                if lparen < 0 or rparen <= lparen:
                    raise MalformedLine(line_no, f"bad -DOCSTART- line: {line!r}")
                doc_id = line[lparen + 1: rparen]
                if doc_id in seen_ids:
                    raise MalformedLine(line_no, f"repeated document id {doc_id!r}")
                seen_ids.add(doc_id)
                pieces, mentions = [], []
                docs.append((doc_id, pieces, mentions))
                pos, gap, in_mention = 0, "", False
                continue
            if not line.strip():  # a sentence break: a later token in the document starts a new line
                gap, in_mention = "\n" if gap else "", False
                continue
            if not docs:
                raise MalformedLine(line_no, "token line before any -DOCSTART-")
            cols = line.split("\t")
            token = cols[0]
            if not token:
                raise MalformedLine(line_no, "empty token")
            start = pos + len(gap)
            pieces += (gap, token)
            pos, gap = start + len(token), " "
            if len(cols) == 1:
                in_mention = False
                continue
            if len(cols) < 4:
                raise MalformedLine(line_no, f"expected >= 4 columns, got {len(cols)}")
            bio = cols[1]
            entity = NIL if cols[3] == "--NME--" else _wiki_name(cols[4] if len(cols) > 4 else cols[3], line_no)
            if bio == "B":
                mentions.append(Mention(start, pos, entity))
                in_mention = True
            elif bio == "I":
                if not in_mention:
                    raise DanglingIMention(line_no)
                mentions[-1] = dataclasses.replace(mentions[-1], end=pos)
            else:
                raise MalformedLine(line_no, f"unknown tag {bio!r}")
    return [ELDocument(doc_id, "".join(pieces), mentions) for doc_id, pieces, mentions in docs]


def aida_split(doc_id: str) -> str:
    head = doc_id.split(" ", 1)[0]
    if head.endswith("testa"):
        return "testa"
    if head.endswith("testb"):
        return "testb"
    return "train"


def _el_document(rec: dict, rid: str, field: str, wiki: bool = False) -> ELDocument:
    """One record as an EL document whose mentions are the list under ``field``.
    Offsets are JSON integers and ``entity`` a name or null (NIL). In a wiki
    abstract the list may be absent and ``rid``, the page title, is gold."""
    text = _text(rec, rid)
    raw = rec.get(field, [] if wiki else None)
    if not isinstance(raw, list):
        raise SchemaError(rid, field, "missing or not a list")
    mentions = []
    for m in raw:
        if not isinstance(m, dict):
            raise SchemaError(rid, field, "entry is not an object")
        start, end, ent = m.get("start"), m.get("end"), m.get("entity")
        if not all(type(x) is int for x in (start, end)):  # a bool or a float is not an offset
            raise SchemaError(rid, field, "start and end must be integers")
        if ent is not None and not isinstance(ent, str):
            raise SchemaError(rid, field, "entity must be string or null")
        mentions.append(Mention(start, end, NIL if ent is None else _canonical(ent, rid, field)))
    doc = ELDocument(rid, text, mentions, _canonical(rid, rid, "title") if wiki else None)
    doc.validate(field)
    return doc


def parse_normalized_jsonl(path) -> list[ELDocument]:
    """Read the normalized EL interchange: one JSON object per line with
    doc_id, text, and mentions [{start, end, entity|null}]."""
    return [_el_document(rec, rec["doc_id"], "mentions") for rec in jsonl_records(path, "doc_id")]


def parse_wiki_jsonl(path) -> list[ELDocument]:
    """Read wiki abstracts ({title, text, anchors: [{start, end, entity|null}]}):
    EL documents keyed by title, whose anchors are the mentions and whose
    title is an extra gold entity."""
    return [_el_document(rec, rec["title"], "anchors", wiki=True) for rec in jsonl_records(path, "title")]


def el_to_et(
    doc: ELDocument,
    ids: Mapping[str, int],
    stats: ConversionStats | None = None,
) -> ETExample:
    """Strip mention boundaries: gold becomes the set of the ids that ``ids``
    maps the mentioned names to, NIL mentions and names it does not hold
    (out of the catalog) are dropped and counted. A document's title entity
    comes last in the order (it has no span), unless it is already gold; a
    title outside ``ids`` is counted."""
    stats = stats if stats is not None else ConversionStats()
    first_seen: dict[int, int] = {}  # entity id -> earliest mention start
    oov: set[str] = set()
    for m in sorted(doc.mentions, key=lambda m: (m.start, m.end)):
        if m.entity is NIL:
            stats.dropped_nil_mentions += 1
            continue
        eid = ids.get(m.entity)
        if eid is None:
            oov.add(m.entity)
            continue
        if eid not in first_seen:
            first_seen[eid] = m.start
    stats.dropped_oov_entities += len(oov)
    order = tuple(sorted(first_seen, key=first_seen.__getitem__))
    if doc.title is not None:
        title_id = ids.get(doc.title)
        if title_id is None:
            stats.dropped_titles += 1
        elif title_id not in first_seen:
            order += (title_id,)
    return ETExample(
        doc_id=doc.doc_id,
        text=doc.text,
        gold=frozenset(order),
        gold_order=order,
    )


def convert_documents(
    docs: Iterable[ELDocument],
    catalog: EntityCatalog,
    keep_empty: bool = False,
) -> tuple[list[ETExample], ConversionStats]:
    """Convert every document; one with no gold entity left is dropped and
    counted unless ``keep_empty``. Every name is looked up in one pass over the catalog."""
    docs = list(docs)
    ids = catalog.ids_of(
        name for doc in docs for name in (doc.title, *(m.entity for m in doc.mentions)) if name is not None
    )
    stats = ConversionStats()
    out: list[ETExample] = []
    for doc in docs:
        stats.docs_in += 1
        ex = el_to_et(doc, ids, stats)
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
        out.append((rec["doc_id"], _text(rec, rec["doc_id"])))
    return out


def read_name_sets(path, field: str) -> dict[str, set[str]]:
    """doc_id -> the set of canonical names in ``field``, one JSONL record per doc_id.
    A name that is empty after canonicalization is a SchemaError."""
    return {
        rec["doc_id"]: {_canonical(n, rec["doc_id"], field) for n in _names(rec, rec["doc_id"], field)}
        for rec in jsonl_records(path, "doc_id")
    }


def write_et_jsonl(examples: Iterable[ETExample], path, catalog: EntityCatalog) -> None:
    write_jsonl(path, (
        {
            "doc_id": ex.doc_id,
            "text": ex.text,
            "gold": sorted(map(catalog.name_of, ex.gold)),
            "gold_order": None if ex.gold_order is None else list(map(catalog.name_of, ex.gold_order)),
        }
        for ex in examples
    ))


def _gold_names(records: list[dict]) -> Iterator[str]:
    """Each string in a record's ``gold`` or ``gold_order`` list that is not empty
    once canonical, canonicalized: the names ``read_et_jsonl`` may look up."""
    for rec in records:
        for field in ("gold", "gold_order"):
            value = rec.get(field)
            for name in value if isinstance(value, list) else ():
                if isinstance(name, str):
                    try:
                        yield canonicalize(name)
                    except InvalidName:  # the record's own check raises it
                        pass


def read_et_jsonl(path, catalog: EntityCatalog) -> list[ETExample]:
    """The examples of an ET JSONL file. Each ``gold`` and ``gold_order`` name is
    canonicalized, as KB names are, then looked up in ``catalog``: a name that is
    empty after canonicalization is a SchemaError, one outside the catalog an UnknownEntity.
    The file is read once and every name looked up in one pass over the catalog; the
    first fault in file order is raised, as when each record is checked as it is read."""
    records, fault = [], None
    try:
        for rec in jsonl_records(path, "doc_id"):
            records.append(rec)
    except Exception as exc:  # raised once the records read before it are checked
        fault = exc
    index = catalog.ids_of(_gold_names(records))
    out: list[ETExample] = []
    for rec in records:
        doc_id = rec["doc_id"]
        text = _text(rec, doc_id)

        def resolve(name: str, field: str) -> int:
            eid = index.get(_canonical(name, doc_id, field))
            if eid is None:
                raise UnknownEntity(f"{doc_id!r}: entity {name!r} not in catalog")
            return eid

        gold = frozenset(resolve(n, "gold") for n in _names(rec, doc_id, "gold"))
        order = None
        if rec.get("gold_order") is not None:
            order = tuple(resolve(n, "gold_order") for n in _names(rec, doc_id, "gold_order"))
            if len(order) != len(gold) or set(order) != gold:
                raise SchemaError(doc_id, "gold_order", "not a permutation of gold")
        out.append(ETExample(doc_id=doc_id, text=text, gold=gold, gold_order=order))
    if fault is not None:
        raise fault
    return out
