"""Mention-agnostic entity tagging toolkit.

Given input text and a catalog of entity names, produce the set of entities
mentioned: trie-constrained autoregressive decoding against a pluggable
scorer, permutation-shuffled training for a bundled toy scorer, set-based
evaluation, and entity-linking corpus conversion.
"""

__version__ = "0.1.0"

from .catalog import (
    BOS,
    EOS,
    SEP,
    UNK,
    EntityCatalog,
    Vocabulary,
    build_vocabularies,
    canonicalize,
    tokenize,
)
from .decoding import DecodeConfig, Scorer, beam_decode, beam_decode_many, greedy_decode, parse_output
from .ingest import ELDocument, ETExample, el_to_et, read_et_jsonl, write_et_jsonl
from .metrics import DatasetReport, DocScore, aggregate, cross_dataset_average, format_report, prf1
from .toy_model import ToyModelParams, ToyScorer, TrainConfig, build_target, train
from .trie import TokenTrie, TrieCursor, advance, allowed_tokens, build_trie, trie_stats

__all__ = [
    "BOS",
    "EOS",
    "SEP",
    "UNK",
    "EntityCatalog",
    "Vocabulary",
    "build_vocabularies",
    "canonicalize",
    "tokenize",
    "TokenTrie",
    "TrieCursor",
    "build_trie",
    "allowed_tokens",
    "advance",
    "trie_stats",
    "DecodeConfig",
    "Scorer",
    "greedy_decode",
    "beam_decode",
    "beam_decode_many",
    "parse_output",
    "ToyModelParams",
    "ToyScorer",
    "TrainConfig",
    "build_target",
    "train",
    "DocScore",
    "DatasetReport",
    "prf1",
    "aggregate",
    "cross_dataset_average",
    "format_report",
    "ELDocument",
    "ETExample",
    "el_to_et",
    "read_et_jsonl",
    "write_et_jsonl",
]
