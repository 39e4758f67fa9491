"""Per-layer metrics from the spans the tracer wrote.

A span's self time is its duration minus the durations of its direct
children (one thread, so children never overlap). Conventions:
``*_s`` / ``*_us`` / ``*_ms`` of a function are its mean duration per call,
``*_calls`` are totals over the traced pass, and a ``*_share`` is a time
over the time of the span it falls in (``beam_decode`` at one beam,
``train`` at one batch size).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import BATCH_SIZES, BEAMS


@dataclass
class Spans:
    kind: str          # build_kb | tag | eval | train
    arg: int           # beam for tag, batch size for train, 0 otherwise
    name: np.ndarray   # span name per row (object array of str)
    dur: np.ndarray    # ns
    self_ns: np.ndarray
    doc: np.ndarray
    extra: np.ndarray

    @classmethod
    def load(cls, path: Path, kind: str, arg: int = 0) -> "Spans":
        blob = json.loads(Path(path).read_text(encoding="utf-8"))
        rows = np.asarray(blob["spans"], dtype=np.int64).reshape(-1, 6)
        names = np.asarray(blob["names"], dtype=object)
        dur = rows[:, 2] - rows[:, 1]
        parent = rows[:, 3]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(rows))
        return cls(
            kind=kind,
            arg=arg,
            name=names[rows[:, 0]] if len(rows) else np.empty(0, dtype=object),
            dur=dur,
            self_ns=dur - child,
            doc=rows[:, 4],
            extra=rows[:, 5],
        )

    def mask(self, name: str) -> np.ndarray:
        return self.name == name


def _cat(traced: list[Spans], field: str, name: str) -> np.ndarray:
    """One field of every span with this name, across commands."""
    parts = [getattr(s, field)[s.mask(name)] for s in traced]
    return np.concatenate(parts) if parts else np.empty(0)


def _mean(a: np.ndarray, scale: float) -> float:
    return float(a.mean()) * scale if len(a) else 0.0


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(traced: list[Spans], cache_bytes: int) -> dict[str, float]:
    ns_s, ns_us, ns_ms = 1e-9, 1e-3, 1e-6
    m: dict[str, float] = {}

    def mean_of(metric, span, scale):
        m[metric] = _mean(_cat(traced, "dur", span), scale)

    mean_of("catalog.load_s", "catalog.load", ns_s)
    mean_of("catalog.build_vocabularies_s", "catalog.build_vocabularies", ns_s)
    mean_of("catalog.tokenize_us", "catalog.tokenize", ns_us)
    mean_of("trie.build_s", "trie.build", ns_s)
    mean_of("trie.cache_save_s", "trie.cache_save", ns_s)
    m["trie.cache_bytes"] = float(cache_bytes)
    mean_of("trie.cache_load_s", "trie.cache_load", ns_s)
    m["trie.allowed_tokens_calls"] = float(len(_cat(traced, "dur", "trie.allowed_tokens")))
    mean_of("trie.allowed_tokens_us", "trie.allowed_tokens", ns_us)
    m["trie.allowed_size_mean"] = _mean(_cat(traced, "extra", "trie.allowed_tokens"), 1.0)
    mean_of("trie.advance_us", "trie.advance", ns_us)

    for beam in BEAMS:
        tag = [s for s in traced if s.kind == "tag" and s.arg == beam]
        dec_dur = _cat(tag, "dur", "decoding.beam_decode")
        dec_self = _cat(tag, "self_ns", "decoding.beam_decode")
        out_tokens = _cat(tag, "extra", "decoding.beam_decode")
        in_doc = {
            name: np.concatenate([s.dur[s.mask(name) & (s.doc >= 0)] for s in tag]) if tag else np.empty(0)
            for name in ("toy_model.next_logprobs", "trie.allowed_tokens", "trie.advance")
        }
        scorer_calls = len(in_doc["toy_model.next_logprobs"])
        if beam in (1, 20):
            dec_ns = float(dec_dur.sum())
            m[f"decoding.self_share.b{beam}"] = _share(float(dec_self.sum()), dec_ns)
            m[f"decoding.scorer_share.b{beam}"] = _share(float(in_doc["toy_model.next_logprobs"].sum()), dec_ns)
            m[f"decoding.trie_share.b{beam}"] = _share(
                float(in_doc["trie.allowed_tokens"].sum() + in_doc["trie.advance"].sum()), dec_ns
            )
        for q in (50, 99):
            m[f"decoding.doc_ms.p{q}.b{beam}"] = (
                float(np.percentile(dec_dur, q)) * ns_ms if len(dec_dur) else 0.0
            )
        m[f"decoding.scorer_calls_per_out_token.b{beam}"] = (
            scorer_calls / float(out_tokens.sum()) if out_tokens.sum() else 0.0
        )
        m[f"decoding.out_tokens_per_doc.b{beam}"] = _mean(out_tokens, 1.0)
        m[f"decoding.entities_per_doc.b{beam}"] = _mean(_cat(tag, "extra", "decoding.parse_output"), 1.0)

    m["toy_model.next_logprobs_calls"] = float(len(_cat(traced, "dur", "toy_model.next_logprobs")))
    mean_of("toy_model.next_logprobs_us", "toy_model.next_logprobs", ns_us)
    mean_of("toy_model.encode_us", "toy_model.encode", ns_us)
    mean_of("toy_model.load_checkpoint_s", "toy_model.load_checkpoint", ns_s)
    mean_of("toy_model.backward_us", "toy_model.backward", ns_us)
    timed_train = [s for s in traced if s.kind == "train"]
    m["toy_model.build_target_s"] = float(_cat(timed_train, "dur", "toy_model.build_target").sum()) * ns_s
    m["toy_model.train_self_s"] = float(_cat(timed_train, "self_ns", "toy_model.train").sum()) * ns_s
    for bs in BATCH_SIZES:
        train = [s for s in timed_train if s.arg == bs]
        train_ns = float(_cat(train, "dur", "toy_model.train").sum())
        m[f"toy_model.backward_share.bs{bs}"] = _share(float(_cat(train, "dur", "toy_model.backward").sum()), train_ns)
        m[f"toy_model.update_share.bs{bs}"] = _share(float(_cat(train, "self_ns", "toy_model.train").sum()), train_ns)
    mean_of("toy_model.save_checkpoint_s", "toy_model.save_checkpoint", ns_s)
    mean_of("ingest.read_s", "ingest.read", ns_s)
    mean_of("metrics.score_ms", "metrics.score", ns_ms)
    m["cli.self_s"] = _mean(_cat(traced, "self_ns", "cli.command"), ns_s)
    return m
