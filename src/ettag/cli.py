"""Single executable for the whole pipeline.

Subcommands: build-kb, convert, train, tag, eval, ablate-beam, ablate-order,
bench. Every command that writes outputs also writes a ``.runconfig.json``
next to them with the fully resolved configuration. Exit codes: 0 success,
1 input error, 2 internal contract violation; errors go to stderr as one
JSON object.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import sys
import time
from dataclasses import fields

import numpy as np

from . import __version__
from .catalog import EntityCatalog, build_vocabularies, tokenize
from .decoding import DecodeConfig, beam_decode, parse_output
from .errors import ContractError, EttagError, InputError
from .ingest import (
    aida_split,
    convert_documents,
    convert_wiki_jsonl,
    encode_examples,
    parse_aida_conll,
    parse_normalized_jsonl,
    read_et_jsonl,
    read_name_sets,
    read_text_jsonl,
    write_et_jsonl,
)
from .metrics import aggregate, format_report, prf1, score_predictions
from .toy_model import ToyScorer, TrainConfig, load_checkpoint, save_checkpoint, train
from .trie import build_trie, load_trie_cache, save_trie_cache, trie_stats


def _bool_flag(value: str) -> bool:
    v = value.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {value!r}")


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as f:
        cfg = json.load(f)
    if not isinstance(cfg, dict):
        raise InputError(f"{path}: config must be a JSON object")
    return cfg


# flag dest -> the DecodeConfig/TrainConfig field or callee parameter it sets, where they differ
_FIELD_OF = {"beam": "beam_size", "renormalize": "renormalize_constrained", "dim": "d", "window": "k",
             "kb_format": "format"}


def _resolve(args: argparse.Namespace, cfg: dict, *callees, **defaults) -> dict:
    """Every option of the command: its flag, else the command's config-file
    section, else the default of the parameter it sets in ``callees``
    (dataclasses included), else its entry in ``defaults``.
    """
    opts = {k: v for k, v in vars(args).items() if k not in ("command", "config", "func")}
    section = args.command.replace("-", "_")
    given = cfg.get(section, {})
    if not isinstance(given, dict):
        raise InputError(f"config section {section!r} must be a JSON object")
    unknown = sorted(set(given) - set(opts))
    if unknown:
        raise InputError(f"config section {section!r}: unknown keys {unknown}")
    for fn in callees:
        for name, param in inspect.signature(fn).parameters.items():
            if param.default is not param.empty:
                defaults.setdefault(name, param.default)
    for key, val in opts.items():
        if val is None:
            val = given.get(key)
        opts[key] = defaults.get(_FIELD_OF.get(key, key)) if val is None else val
    return opts


def _config(cls, opts: dict, **override):
    """A DecodeConfig or TrainConfig from the resolved options it has fields for."""
    names = {f.name for f in fields(cls)}
    kwargs = {_FIELD_OF.get(k, k): v for k, v in opts.items()}
    return cls(**{**{k: v for k, v in kwargs.items() if k in names}, **override})


def _write_runconfig(out_path: str, command: str, resolved: dict) -> None:
    payload = {"command": command, "version": __version__, "config": resolved}
    with open(str(out_path) + ".runconfig.json", "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True, default=str)
        f.write("\n")


def _load_kb(opts: dict) -> EntityCatalog:
    return EntityCatalog.load(opts["kb"], format=opts["kb_format"])


# ---------------------------------------------------------------------------
# subcommands


def cmd_build_kb(args, cfg) -> int:
    opts = _resolve(args, cfg, EntityCatalog.load)
    catalog = _load_kb(opts)
    _, vocab_out = build_vocabularies(catalog, [])
    trie = build_trie(catalog, vocab_out)
    save_trie_cache(trie, opts["cache_out"], catalog, vocab_out)
    _write_runconfig(opts["cache_out"], "build-kb", opts)
    print(json.dumps(trie_stats(trie)))
    return 0


def cmd_convert(args, cfg) -> int:
    opts = _resolve(args, cfg, EntityCatalog.load, convert_documents, split="all")
    catalog = _load_kb(opts)
    fmt = opts["format"]
    keep_empty = opts["keep_empty"]
    if fmt == "aida-conll":
        docs = parse_aida_conll(opts["in_path"])
        if opts["split"] != "all":
            docs = [d for d in docs if aida_split(d.doc_id) == opts["split"]]
        examples, stats = convert_documents(docs, catalog, keep_empty=keep_empty)
    elif fmt == "el-jsonl":
        docs = parse_normalized_jsonl(opts["in_path"])
        examples, stats = convert_documents(docs, catalog, keep_empty=keep_empty)
    elif fmt == "wiki-abstracts":
        examples, stats = convert_wiki_jsonl(opts["in_path"], catalog, keep_empty=keep_empty)
    else:
        raise InputError(f"unknown --format {fmt!r}")
    write_et_jsonl(examples, opts["out"], catalog)
    _write_runconfig(opts["out"], "convert", opts)
    payload = stats.as_dict()
    if opts["stats_out"]:
        with open(opts["stats_out"], "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
    print(json.dumps(payload))
    return 0


def cmd_train(args, cfg) -> int:
    opts = _resolve(args, cfg, EntityCatalog.load, build_vocabularies, TrainConfig)
    tc = _config(TrainConfig, opts)
    catalog = _load_kb(opts)
    corpus = read_et_jsonl(opts["train"], catalog)
    if not corpus:
        raise InputError(f"{opts['train']}: no training examples")
    vocab_in, vocab_out = build_vocabularies(
        catalog, (ex.text for ex in corpus), min_count=opts["min_count"]
    )
    corpus = encode_examples(corpus, vocab_in)
    params, curve = train(corpus, tc, catalog, vocab_in, vocab_out)
    model_out = opts["model_out"]
    save_checkpoint(params, model_out, vocab_in, vocab_out)
    with open(str(model_out) + ".loss.csv", "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", "mean_nll"])
        for i, loss in enumerate(curve, 1):
            writer.writerow([i, f"{loss:.6f}"])
    _write_runconfig(model_out, "train", opts)
    print(json.dumps({"final_loss": curve[-1], "epochs": len(curve)}))
    return 0


def _load_model_stack(opts: dict):
    """catalog + input vocabulary + trie + scorer for tagging commands."""
    catalog = _load_kb(opts)
    _, vocab_out = build_vocabularies(catalog, [])
    params, vocab_in = load_checkpoint(opts["model"], vocab_out)
    cache = opts["kb_cache"]
    trie = load_trie_cache(cache, catalog, vocab_out) if cache else build_trie(catalog, vocab_out)
    return catalog, vocab_in, trie, ToyScorer(params)


def _tag_documents(docs, scorer, trie, vocab_in, config):
    """(doc_id, entity ids, score, dropped) for each document, sorted by doc_id."""
    results = []
    for doc_id, text in docs:
        tokens, score = beam_decode(scorer, trie, tokenize(text, vocab_in, mode="input"), config)[0]
        entities, dropped = parse_output(tokens, trie)
        results.append((doc_id, entities, score, dropped))
    return sorted(results, key=lambda r: r[0])


def cmd_tag(args, cfg) -> int:
    opts = _resolve(args, cfg, EntityCatalog.load, DecodeConfig)
    config = _config(DecodeConfig, opts)
    catalog, vocab_in, trie, scorer = _load_model_stack(opts)
    docs = read_text_jsonl(opts["in_path"])
    results = _tag_documents(docs, scorer, trie, vocab_in, config)
    with open(opts["out"], "w", encoding="utf-8") as f:
        for doc_id, entities, score, dropped in results:
            rec = {
                "doc_id": doc_id,
                "entities": sorted(catalog.name_of(e) for e in entities),
                "score": score,
                "dropped": dropped,
            }
            f.write(json.dumps(rec, ensure_ascii=False) + "\n")
    _write_runconfig(opts["out"], "tag", opts)
    print(json.dumps({"documents": len(results)}))
    return 0


def cmd_eval(args, cfg) -> int:
    opts = _resolve(args, cfg, format_report, dataset_name="dataset")
    preds = read_name_sets(opts["pred"], "entities")
    golds = read_name_sets(opts["gold"], "gold")
    report = score_predictions(preds, golds)
    name = opts["dataset_name"]
    print(format_report({name: report}, style=opts["style"]))
    if opts["json_out"]:
        with open(opts["json_out"], "w", encoding="utf-8") as f:
            json.dump({name: report.as_dict()}, f, indent=2, sort_keys=True)
            f.write("\n")
        _write_runconfig(opts["json_out"], "eval", opts)
    return 0


def _eval_decoded(eval_corpus, scorer, trie, vocab_in, config):
    docs = [(ex.doc_id, ex.text) for ex in eval_corpus]
    results = _tag_documents(docs, scorer, trie, vocab_in, config)
    gold_by_id = {ex.doc_id: ex.gold for ex in eval_corpus}
    return aggregate([prf1(ents, gold_by_id[doc_id]) for doc_id, ents, _, _ in results])


def cmd_ablate_beam(args, cfg) -> int:
    opts = _resolve(args, cfg, EntityCatalog.load, DecodeConfig, beams="1,5,10,20,30")
    catalog, vocab_in, trie, scorer = _load_model_stack(opts)
    eval_corpus = read_et_jsonl(opts["eval"], catalog)
    try:
        beams = [int(b) for b in str(opts["beams"]).split(",") if b.strip()]
    except ValueError:
        raise InputError(f"--beams must be comma-separated integers, got {opts['beams']!r}") from None
    if not beams:
        raise InputError("--beams is empty")
    rows = []
    for beam in beams:
        config = _config(DecodeConfig, opts, beam_size=beam)
        report = _eval_decoded(eval_corpus, scorer, trie, vocab_in, config)
        rows.append((beam, report.micro.f1, report.macro_f1))
    with open(opts["out"], "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["beam", "micro_f1", "macro_f1"])
        for beam, micro, macro in rows:
            writer.writerow([beam, f"{micro:.6f}", f"{macro:.6f}"])
    _write_runconfig(opts["out"], "ablate-beam", opts)
    print(json.dumps({"beams": beams, "micro_f1": [r[1] for r in rows]}))
    return 0


def cmd_ablate_order(args, cfg) -> int:
    opts = _resolve(args, cfg, EntityCatalog.load, build_vocabularies, TrainConfig, DecodeConfig,
                    strategies="shuffle,mention_order,lexicographic")
    config = _config(DecodeConfig, opts)
    catalog = _load_kb(opts)
    train_corpus = read_et_jsonl(opts["train"], catalog)
    eval_corpus = read_et_jsonl(opts["eval"], catalog)
    strategies = [s.strip() for s in str(opts["strategies"]).split(",") if s.strip()]
    if not strategies:
        raise InputError("--strategies is empty")
    vocab_in, vocab_out = build_vocabularies(
        catalog, (ex.text for ex in train_corpus), min_count=opts["min_count"]
    )
    bound = encode_examples(train_corpus, vocab_in)
    trie = build_trie(catalog, vocab_out)
    rows = []
    for strategy in strategies:
        tc = _config(TrainConfig, opts, order_strategy=strategy)
        params, curve = train(bound, tc, catalog, vocab_in, vocab_out)
        report = _eval_decoded(eval_corpus, ToyScorer(params), trie, vocab_in, config)
        rows.append((strategy, report.micro.f1, report.macro_f1, curve[-1]))
    with open(opts["out"], "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["strategy", "micro_f1", "macro_f1", "final_loss"])
        for strategy, micro, macro, loss in rows:
            writer.writerow([strategy, f"{micro:.6f}", f"{macro:.6f}", f"{loss:.6f}"])
    _write_runconfig(opts["out"], "ablate-order", opts)
    print(json.dumps({r[0]: r[1] for r in rows}))
    return 0


def cmd_bench(args, cfg) -> int:
    from .synthetic import synthetic_kb_names

    opts = _resolve(args, cfg, EntityCatalog.load, synthetic_kb_names, latency_samples=200_000)
    if opts["latency_samples"] < 1:
        raise InputError("--latency-samples must be >= 1")
    if opts["synthetic"]:
        catalog = EntityCatalog(synthetic_kb_names(int(opts["synthetic"]), seed=opts["seed"]))
    elif opts["kb"]:
        catalog = _load_kb(opts)
    else:
        raise InputError("bench needs --kb or --synthetic N")
    _, vocab_out = build_vocabularies(catalog, [])

    t0 = time.perf_counter()
    trie = build_trie(catalog, vocab_out)
    build_seconds = time.perf_counter() - t0

    import resource

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    from .trie import TrieCursor, allowed_tokens

    n_samples = opts["latency_samples"]
    rng = np.random.default_rng(opts["seed"])
    nodes = rng.integers(0, trie.node_count, size=n_samples)
    config = DecodeConfig()
    empty: frozenset[int] = frozenset()
    lat = np.empty(n_samples)
    clock = time.perf_counter_ns
    for i in range(n_samples):
        cur = TrieCursor(int(nodes[i]))
        t1 = clock()
        allowed_tokens(trie, cur, empty, config, 0)
        lat[i] = clock() - t1
    stats = trie_stats(trie)
    payload = {
        **stats,
        "build_seconds": round(build_seconds, 3),
        "max_rss_mb": round(rss_mb, 1),
        "latency_us": {
            "p50": round(float(np.percentile(lat, 50)) / 1000.0, 3),
            "p90": round(float(np.percentile(lat, 90)) / 1000.0, 3),
            "p99": round(float(np.percentile(lat, 99)) / 1000.0, 3),
        },
        "latency_samples": n_samples,
    }
    print(json.dumps(payload))
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_kb_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kb", required=True, help="entity name file (one per line or TSV)")
    p.add_argument("--kb-format", choices=["plain-lines", "tsv"], default=None)


def _add_decode_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--beam", type=int, default=None)
    p.add_argument("--no-repeat", type=_bool_flag, default=None, metavar="BOOL")
    p.add_argument("--allow-empty", action="store_const", const=True, default=None)
    p.add_argument("--length-normalize", action="store_const", const=True, default=None)
    p.add_argument("--renormalize", type=_bool_flag, default=None, metavar="BOOL")
    p.add_argument("--max-tokens", type=int, default=None)
    p.add_argument("--max-entities", type=int, default=None)


def _add_train_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--optimizer", choices=["adam", "sgd"], default=None)
    p.add_argument("--dim", type=int, default=None, help="embedding dimension")
    p.add_argument("--window", type=int, default=None, help="decoder context window")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ettag", description=__doc__)
    parser.add_argument("--config", default=None, help="JSON config file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-kb", help="build and cache the constraint trie")
    _add_kb_args(p)
    p.add_argument("--cache-out", required=True)
    p.set_defaults(func=cmd_build_kb)

    p = sub.add_parser("convert", help="convert an EL corpus to entity-tagging JSONL")
    p.add_argument("--format", required=True, choices=["aida-conll", "el-jsonl", "wiki-abstracts"])
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    _add_kb_args(p)
    p.add_argument("--keep-empty", action="store_const", const=True, default=None)
    p.add_argument("--stats-out", default=None)
    p.add_argument("--split", choices=["train", "testa", "testb", "all"], default=None)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("train", help="train the bundled scorer on ET JSONL")
    p.add_argument("--train", required=True)
    _add_kb_args(p)
    p.add_argument("--model-out", required=True)
    p.add_argument("--order-strategy", choices=["shuffle", "mention_order", "lexicographic"], default=None)
    p.add_argument("--min-count", type=int, default=None)
    _add_train_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tag", help="decode entity sets for documents")
    p.add_argument("--model", required=True)
    _add_kb_args(p)
    p.add_argument("--kb-cache", default=None)
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    _add_decode_args(p)
    p.set_defaults(func=cmd_tag)

    p = sub.add_parser("eval", help="score predictions against gold JSONL")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--style", choices=["table2", "table4"], default=None)
    p.add_argument("--json-out", default=None)
    p.add_argument("--dataset-name", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate-beam", help="F1 against beam size, CSV out")
    p.add_argument("--model", required=True)
    _add_kb_args(p)
    p.add_argument("--kb-cache", default=None)
    p.add_argument("--eval", required=True)
    p.add_argument("--beams", default=None, help="comma-separated beam sizes (default 1,5,10,20,30)")
    p.add_argument("--out", required=True)
    _add_decode_args(p)
    p.set_defaults(func=cmd_ablate_beam)

    p = sub.add_parser("ablate-order", help="compare target-order training strategies")
    p.add_argument("--train", required=True)
    p.add_argument("--eval", required=True)
    _add_kb_args(p)
    p.add_argument("--strategies", default=None, help="comma-separated order strategies (default: all three)")
    p.add_argument("--out", required=True)
    p.add_argument("--min-count", type=int, default=None)
    _add_train_args(p)
    _add_decode_args(p)
    p.set_defaults(func=cmd_ablate_order)

    p = sub.add_parser("bench", help="trie build time, memory, and lookup latency")
    p.add_argument("--kb", default=None)
    p.add_argument("--kb-format", choices=["plain-lines", "tsv"], default=None)
    p.add_argument("--synthetic", type=int, default=None, help="generate N synthetic names")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--latency-samples", type=int, default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return args.func(args, cfg)
    except ContractError as exc:
        _report_error(exc)
        return 2
    except (EttagError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        _report_error(exc)
        return 1


def _report_error(exc: Exception) -> None:
    print(
        json.dumps({"error": type(exc).__name__, "message": str(exc)}),
        file=sys.stderr,
    )


if __name__ == "__main__":
    sys.exit(main())
