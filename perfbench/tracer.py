"""Run one ``ettag`` CLI command in-process with spans around each layer.

Usage: python3 perfbench/tracer.py --spans-out SPANS.json -- <ettag argv...>

The public functions of the package modules are wrapped from outside: each
module attribute that holds a traced function is replaced, in every
``ettag.*`` module that imported it, by a wrapper that records one span
``(name, start_ns, end_ns, parent, doc, extra)``. ``doc`` is the index of
the ``beam_decode`` call the span falls in (-1 outside decoding); ``extra``
is a size taken from the result where one is useful (allowed-set length,
output tokens, entities). Spans stay in memory and are written when
the command returns. The package source is not modified.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _len0(result) -> int:
    return len(result[0])


def _len_top_tokens(result) -> int:
    return len(result[0][0])


# (module, attribute, span name, extra-from-result, modules to patch or None = all)
TRACED = [
    ("ettag.catalog", "build_vocabularies", "catalog.build_vocabularies", None, None),
    ("ettag.catalog", "tokenize", "catalog.tokenize", None, ("ettag.cli",)),
    ("ettag.trie", "build_trie", "trie.build", None, None),
    ("ettag.trie", "save_trie_cache", "trie.cache_save", None, None),
    ("ettag.trie", "load_trie_cache", "trie.cache_load", None, None),
    ("ettag.trie", "allowed_tokens", "trie.allowed_tokens", len, None),
    ("ettag.trie", "advance", "trie.advance", None, None),
    ("ettag.decoding", "beam_decode", "decoding.beam_decode", _len_top_tokens, None),
    ("ettag.decoding", "parse_output", "decoding.parse_output", _len0, None),
    ("ettag.toy_model", "encode_input", "toy_model.encode", None, None),
    ("ettag.toy_model", "next_logprobs", "toy_model.next_logprobs", None, None),
    ("ettag.toy_model", "load_checkpoint", "toy_model.load_checkpoint", None, None),
    ("ettag.toy_model", "save_checkpoint", "toy_model.save_checkpoint", None, None),
    ("ettag.toy_model", "train", "toy_model.train", None, None),
    ("ettag.toy_model", "backward", "toy_model.backward", None, None),
    ("ettag.toy_model", "build_target", "toy_model.build_target", None, None),
    ("ettag.ingest", "read_text_jsonl", "ingest.read", None, None),
    ("ettag.ingest", "read_et_jsonl", "ingest.read", None, None),
    ("ettag.metrics", "score_predictions", "metrics.score", None, None),
]


class Tracer:
    """In-memory span recorder. One per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self._stack: list[int] = []
        self.doc = -1
        self._n_docs = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, extra=None, marks_doc: bool = False):
        nid = self.name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if marks_doc:
                self.doc = self._n_docs
                self._n_docs += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent, self.doc, -1)
            if extra is not None:
                spans[idx] = (nid, start, end, parent, self.doc, extra(result))
            if marks_doc:
                self.doc = -1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every traced attribute. One the package no longer has is
        skipped, and its metrics read 0."""
        import importlib

        import ettag.cli  # noqa: F401  (loads every module the CLI uses)

        modules = {n: m for n, m in sys.modules.items() if n == "ettag" or n.startswith("ettag.")}
        for mod_name, attr, name, extra, where in TRACED:
            orig = getattr(importlib.import_module(mod_name), attr, None)
            if orig is None:
                continue
            wrapped = self.wrap(orig, name, extra, marks_doc=(name == "decoding.beam_decode"))
            for mname, mod in modules.items():
                if where is not None and mname not in where:
                    continue
                if getattr(mod, attr, None) is orig:
                    setattr(mod, attr, wrapped)
        catalog_cls = importlib.import_module("ettag.catalog").EntityCatalog
        catalog_cls.load = classmethod(self.wrap(catalog_cls.load.__func__, "catalog.load"))

    def run_cli(self, argv: list[str]) -> int:
        import ettag.cli

        main = self.wrap(ettag.cli.main, "cli.command")
        return main(argv)

    def dump(self, path: str, rc: int) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"rc": rc, "names": self.names, "spans": self.spans}, f, separators=(",", ":"))


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans-out" or argv[2] != "--":
        print("usage: tracer.py --spans-out PATH -- <ettag argv...>", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    tracer = Tracer()
    tracer.install()
    rc = tracer.run_cli(argv[3:])
    tracer.dump(argv[1], rc)
    sys.stdout.flush()
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
