"""Single executable for the whole pipeline.

Subcommands: build-kb, convert, train, tag, eval, ablate-beam, ablate-order.
Every command that writes outputs also writes a ``.runconfig.json`` next to
them: the fully resolved configuration, as a ``--config`` file that replays
the run. Exit codes: 0 success, 1 input error, 2 internal contract
violation; errors go to stderr as one JSON object.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import os
import stat
import sys
from dataclasses import fields

from . import __version__
from .catalog import EntityCatalog, build_vocabularies, kb_sha256, open_text, tokenize
from .decoding import DecodeConfig, beam_decode_many, parse_output
from .errors import ContractError, EttagError, InputError, InvalidConfig, UsageError
from .ingest import (
    aida_split,
    convert_documents,
    encode_examples,
    parse_aida_conll,
    parse_normalized_jsonl,
    parse_wiki_jsonl,
    read_et_jsonl,
    read_name_sets,
    read_text_jsonl,
    write_et_jsonl,
    write_jsonl,
)
from .metrics import REPORT_STYLES, format_report, score_predictions
from .toy_model import ORDER_STRATEGIES, ToyScorer, TrainConfig, load_checkpoint, save_checkpoint, train
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
    with open_text(path) as f:
        text = f.read()
    try:
        cfg = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also nested too deeply, or an integer past the digit limit
        raise InputError(f"{path}: bad JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise InputError(f"{path}: config must be a JSON object")
    return cfg


# flag dest -> the DecodeConfig/TrainConfig field or callee parameter it sets, where they differ
_FIELD_OF = {"beam": "beam_size", "renormalize": "renormalize_constrained", "dim": "d", "window": "k"}
_BEAMS = "1,5,10,20,30"  # ablate-beam's default sweep


def _config_value(flag: argparse.Action, section: str, val):
    """A config-file value as its flag would parse it. Raises InvalidConfig
    unless it has the flag's type (an integer will do for a float) and is one
    of its choices, and also for a string holding a NUL or a lone surrogate,
    which no path (and no UTF-8 output) can hold. The surrogate escapes
    U+DC80-U+DCFF are accepted: they are how Python reads the non-UTF-8 bytes
    of a command line, so a runconfig records such a path or name with them."""
    want = {None: str, _bool_flag: bool}.get(flag.type, flag.type)
    if want is float and type(val) is int:
        val = float(val)
    if type(val) is not want or (flag.choices is not None and val not in flag.choices):
        expected = want.__name__ if flag.choices is None else f"one of {list(flag.choices)}"
        raise InvalidConfig(f"config section {section!r}: {flag.dest} must be {expected}, got {val!r}")
    if want is str and any(c == "\0" or "\ud800" <= c < "\udc80" or "\udcff" < c <= "\udfff" for c in val):
        raise InvalidConfig(f"config section {section!r}: {flag.dest} holds a NUL or a lone surrogate: {val!r}")
    return val


def _resolve(args: argparse.Namespace, cfg: dict, *callees, **defaults) -> dict:
    """Every option of the command: its flag, else the command's config-file
    section, else the default of the parameter it sets in ``callees``
    (dataclasses included), else its entry in ``defaults``. Every section of
    the file must be named after a command and be a JSON object; beside them
    the file may hold the ``version`` string a runconfig records. A required
    option that neither flag nor file gives is a UsageError.
    """
    opts = {k: v for k, v in vars(args).items() if k not in ("command", "config", "func", "flags", "required")}
    for name, given in cfg.items():
        if not (name in args.flags and isinstance(given, dict) or name == "version" and isinstance(given, str)):
            raise InputError(f"config section {name!r} is not a JSON object named after one of {sorted(args.flags)}")
    section = args.command.replace("-", "_")
    given = cfg.get(section, {})
    unknown = sorted(set(given) - set(opts))
    if unknown:
        raise InputError(f"config section {section!r}: unknown keys {unknown}")
    given = {k: _config_value(args.flags[section][k], section, v) for k, v in given.items() if v is not None}
    opts = {key: given.get(key) if val is None else val for key, val in opts.items()}
    if missing := [flag.option_strings[0] for flag in args.required[section] if opts[flag.dest] is None]:
        raise UsageError(f"ettag {args.command}: the following arguments are required: {', '.join(missing)}")
    for fn in callees:
        for name, param in inspect.signature(fn).parameters.items():
            if param.default is not param.empty:
                defaults.setdefault(name, param.default)
    return {key: defaults.get(_FIELD_OF.get(key, key)) if val is None else val for key, val in opts.items()}


def _sweep(opts: dict, key: str, parse=str) -> list:
    """The comma-separated values of option ``key``, each read by ``parse``.
    Raises InputError for an empty list, an entry ``parse`` rejects or a value given twice."""
    try:
        values = [parse(v.strip()) for v in str(opts[key]).split(",") if v.strip()]
    except ValueError:
        raise InputError(f"--{key} must be comma-separated integers, got {opts[key]!r}") from None
    if not values:
        raise InputError(f"--{key} is empty")
    if len(set(values)) < len(values):
        raise InputError(f"--{key} repeats a value: {opts[key]!r}")
    return values


def _config(cls, opts: dict, **override):
    """A DecodeConfig or TrainConfig from the resolved options it has fields for."""
    names = {f.name for f in fields(cls)}
    kwargs = {_FIELD_OF.get(k, k): v for k, v in opts.items()}
    return cls(**{**{k: v for k, v in kwargs.items() if k in names}, **override})


def _write_json(path, payload) -> None:
    """The one JSON file layout: indent 2, sorted keys, a trailing newline."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True, default=str)
        f.write("\n")


def _write_csv(path, header: list[str], rows) -> None:
    """The one CSV layout: the csv module's dialect, floats to six decimals."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows([f"{v:.6f}" if isinstance(v, float) else v for v in row] for row in rows)


def _write_runconfig(out_path: str, command: str, resolved: dict) -> None:
    _write_json(str(out_path) + ".runconfig.json", {command.replace("-", "_"): resolved, "version": __version__})


# ---------------------------------------------------------------------------
# subcommands


def cmd_build_kb(args, cfg) -> int:
    opts = _resolve(args, cfg)
    if not stat.S_ISREG(os.stat(opts["kb"]).st_mode):
        raise InputError(f"--kb {opts['kb']} is not a regular file: build-kb reads it twice, to hash it and to load it")
    digest = kb_sha256(opts["kb"])
    catalog = EntityCatalog.load(opts["kb"])
    trie = build_trie(catalog)
    save_trie_cache(trie, opts["cache_out"], catalog, digest)
    _write_runconfig(opts["cache_out"], "build-kb", opts)
    print(json.dumps(trie_stats(trie)))
    return 0


# --format -> the parser that reads that corpus into EL documents
_PARSERS = {"aida-conll": parse_aida_conll, "el-jsonl": parse_normalized_jsonl, "wiki-abstracts": parse_wiki_jsonl}


def cmd_convert(args, cfg) -> int:
    opts = _resolve(args, cfg, convert_documents, split="all")
    if opts["split"] != "all" and opts["format"] != "aida-conll":
        raise InputError(f"--split {opts['split']} applies only to --format aida-conll")
    catalog = EntityCatalog.load(opts["kb"])
    docs = _PARSERS[opts["format"]](opts["in_path"])
    if opts["split"] != "all":
        docs = [d for d in docs if aida_split(d.doc_id) == opts["split"]]
    examples, stats = convert_documents(docs, catalog, keep_empty=opts["keep_empty"])
    write_et_jsonl(examples, opts["out"], catalog)
    _write_runconfig(opts["out"], "convert", opts)
    payload = stats.as_dict()
    if opts["stats_out"]:
        _write_json(opts["stats_out"], payload)
    print(json.dumps(payload))
    return 0


def cmd_train(args, cfg) -> int:
    opts = _resolve(args, cfg, build_vocabularies, TrainConfig)
    tc = _config(TrainConfig, opts)
    catalog = EntityCatalog.load(opts["kb"])
    corpus = read_et_jsonl(opts["train"], catalog)
    vocab_in, vocab_out = build_vocabularies(
        catalog, (ex.text for ex in corpus), min_count=opts["min_count"]
    )
    corpus = encode_examples(corpus, vocab_in)
    params, curve = train(corpus, tc, catalog, vocab_in)
    model_out = opts["model_out"]
    save_checkpoint(params, model_out, vocab_in, vocab_out)
    _write_csv(str(model_out) + ".loss.csv", ["epoch", "mean_nll"], enumerate(curve, 1))
    _write_runconfig(model_out, "train", opts)
    print(json.dumps({"final_loss": curve[-1], "epochs": len(curve)}))
    return 0


def _load_model_stack(opts: dict):
    """catalog + input vocabulary + trie + scorer for tagging commands. The
    catalog, its output vocabulary and the trie come from the trie cache,
    which must have been built from ``--kb`` when that is given too; without
    a cache they are built from ``--kb``."""
    if opts["kb_cache"]:
        catalog, trie = load_trie_cache(opts["kb_cache"], None if opts["kb"] is None else kb_sha256(opts["kb"]))
    elif opts["kb"] is None:
        raise UsageError("give --kb, --kb-cache or both")
    else:
        catalog = EntityCatalog.load(opts["kb"])
        trie = build_trie(catalog)
    # the checkpoint is keyed by the output vocabulary: the cache's, or the one the trie's pass made
    params, vocab_in = load_checkpoint(opts["model"], catalog.output_vocab())
    return catalog, vocab_in, trie, ToyScorer(params)


def _tag_documents(docs, scorer, trie, vocab_in, config):
    """(doc_id, entity ids, score, dropped) for each document, sorted by doc_id."""
    ranked = beam_decode_many(scorer, trie, [tokenize(text, vocab_in, mode="input") for _, text in docs], config)
    results = []
    for (doc_id, _), ((tokens, score), *_) in zip(docs, ranked):
        entities, dropped = parse_output(tokens, trie)
        results.append((doc_id, entities, score, dropped))
    return sorted(results, key=lambda r: r[0])


def cmd_tag(args, cfg) -> int:
    opts = _resolve(args, cfg, DecodeConfig)
    config = _config(DecodeConfig, opts)
    catalog, vocab_in, trie, scorer = _load_model_stack(opts)
    docs = read_text_jsonl(opts["in_path"])
    results = _tag_documents(docs, scorer, trie, vocab_in, config)
    write_jsonl(opts["out"], (
        {"doc_id": doc_id, "entities": sorted(map(catalog.name_of, entities)), "score": score, "dropped": dropped}
        for doc_id, entities, score, dropped in results
    ))
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
        _write_json(opts["json_out"], {name: report.as_dict()})
        _write_runconfig(opts["json_out"], "eval", opts)
    return 0


def _eval_decoded(eval_corpus, scorer, trie, vocab_in, config):
    results = _tag_documents([(ex.doc_id, ex.text) for ex in eval_corpus], scorer, trie, vocab_in, config)
    return score_predictions({r[0]: r[1] for r in results}, {ex.doc_id: ex.gold for ex in eval_corpus})


def cmd_ablate_beam(args, cfg) -> int:
    opts = _resolve(args, cfg, DecodeConfig, beams=_BEAMS)
    configs = [_config(DecodeConfig, opts, beam_size=beam) for beam in _sweep(opts, "beams", int)]
    catalog, vocab_in, trie, scorer = _load_model_stack(opts)
    eval_corpus = read_et_jsonl(opts["eval"], catalog)
    rows = []
    for config in configs:
        report = _eval_decoded(eval_corpus, scorer, trie, vocab_in, config)
        rows.append((config.beam_size, report.micro.f1, report.macro_f1))
    _write_csv(opts["out"], ["beam", "micro_f1", "macro_f1"], rows)
    _write_runconfig(opts["out"], "ablate-beam", opts)
    print(json.dumps({"beams": [r[0] for r in rows], "micro_f1": [r[1] for r in rows]}))
    return 0


def cmd_ablate_order(args, cfg) -> int:
    opts = _resolve(args, cfg, build_vocabularies, TrainConfig, DecodeConfig,
                    strategies=",".join(ORDER_STRATEGIES))
    config = _config(DecodeConfig, opts)
    train_configs = [_config(TrainConfig, opts, order_strategy=s) for s in _sweep(opts, "strategies")]
    catalog = EntityCatalog.load(opts["kb"])
    train_corpus = read_et_jsonl(opts["train"], catalog)
    eval_corpus = read_et_jsonl(opts["eval"], catalog)
    trie = build_trie(catalog)  # its pass over the names also makes the output vocabulary
    vocab_in, _ = build_vocabularies(
        catalog, (ex.text for ex in train_corpus), min_count=opts["min_count"]
    )
    bound = encode_examples(train_corpus, vocab_in)
    rows = []
    for tc in train_configs:
        params, curve = train(bound, tc, catalog, vocab_in)
        report = _eval_decoded(eval_corpus, ToyScorer(params), trie, vocab_in, config)
        rows.append((tc.order_strategy, report.micro.f1, report.macro_f1, curve[-1]))
    _write_csv(opts["out"], ["strategy", "micro_f1", "macro_f1", "final_loss"], rows)
    _write_runconfig(opts["out"], "ablate-order", opts)
    print(json.dumps({r[0]: r[1] for r in rows}))
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_kb_args(p: argparse.ArgumentParser, cache: bool = False) -> None:
    """--kb; with ``cache`` also --kb-cache, which makes --kb optional."""
    p.add_argument("--kb", required=not cache, help="entity name file: one per line, or TSV id<TAB>name")
    if cache:
        p.add_argument("--kb-cache", default=None, help="trie cache from build-kb; it holds the KB's names")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a UsageError (exit 1, one JSON line) rather
    than argparse's usage text and exit 2. A flag is taken by its whole name
    only, so ``ablate-beam --beam`` is no abbreviation of ``--beams``."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _add_decode_args(p: argparse.ArgumentParser) -> None:
    """The decode options but --beam, which ablate-beam's --beams replaces."""
    for flag in ("--no-repeat", "--allow-empty", "--length-normalize", "--renormalize"):
        p.add_argument(flag, type=_bool_flag, default=None, metavar="BOOL")
    p.add_argument("--max-tokens", type=int, default=None)
    p.add_argument("--max-entities", type=int, default=None)


def _add_train_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--dim", type=int, default=None, help="embedding dimension")
    p.add_argument("--window", type=int, default=None, help="decoder context window")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ettag", description=__doc__)
    parser.add_argument("--config", default=None, help="JSON config file, such as a run's runconfig; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-kb", help="build and cache the constraint trie")
    _add_kb_args(p)
    p.add_argument("--cache-out", required=True)
    p.set_defaults(func=cmd_build_kb)

    p = sub.add_parser("convert", help="convert an EL corpus to entity-tagging JSONL")
    p.add_argument("--format", required=True, choices=list(_PARSERS))
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    _add_kb_args(p)
    p.add_argument("--keep-empty", type=_bool_flag, default=None, metavar="BOOL")
    p.add_argument("--stats-out", default=None)
    p.add_argument("--split", choices=["train", "testa", "testb", "all"], default=None)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("train", help="train the bundled scorer on ET JSONL")
    p.add_argument("--train", required=True)
    _add_kb_args(p)
    p.add_argument("--model-out", required=True)
    p.add_argument("--order-strategy", choices=ORDER_STRATEGIES, default=None)
    p.add_argument("--min-count", type=int, default=None)
    _add_train_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tag", help="decode entity sets for documents")
    p.add_argument("--model", required=True)
    _add_kb_args(p, cache=True)
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--beam", type=int, default=None)
    _add_decode_args(p)
    p.set_defaults(func=cmd_tag)

    p = sub.add_parser("eval", help="score predictions against gold JSONL")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--style", choices=REPORT_STYLES, default=None)
    p.add_argument("--json-out", default=None)
    p.add_argument("--dataset-name", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate-beam", help="F1 against beam size, CSV out")
    p.add_argument("--model", required=True)
    _add_kb_args(p, cache=True)
    p.add_argument("--eval", required=True)
    p.add_argument("--beams", default=None, help=f"comma-separated beam sizes (default {_BEAMS})")
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
    p.add_argument("--beam", type=int, default=None)
    _add_decode_args(p)
    p.set_defaults(func=cmd_ablate_order)

    # each command's config-file section -> its flags, and -> the flags it requires. A config
    # file may give a required option too, so _resolve checks them, not argparse.
    flags = {name.replace("-", "_"): {a.dest: a for a in p._actions} for name, p in sub.choices.items()}
    required = {section: [a for a in actions.values() if a.required] for section, actions in flags.items()}
    for action in (a for actions in required.values() for a in actions):
        action.required = False
    parser.set_defaults(flags=flags, required=required)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = _load_config(args.config)
        return args.func(args, cfg)
    except ContractError as exc:
        _report_error(exc)
        return 2
    except (EttagError, OSError, UnicodeDecodeError) as exc:
        _report_error(exc)
        return 1
    except MemoryError as exc:  # named as such, not as numpy's private subclass
        _report_error(MemoryError(str(exc)))
        return 1


def _report_error(exc: Exception) -> None:
    print(
        json.dumps({"error": type(exc).__name__, "message": str(exc)}),
        file=sys.stderr,
    )


if __name__ == "__main__":
    sys.exit(main())
