import argparse
import codecs
import csv
import dataclasses
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

import ettag
from ettag import cli
from ettag.catalog import UNK, EntityCatalog, build_vocabularies, nul_terminated, tokenize
from ettag.cli import _FIELD_OF, build_parser, main
from ettag.decoding import DecodeConfig, beam_decode, parse_output
from ettag.ingest import read_et_jsonl, read_text_jsonl, write_et_jsonl
from ettag.synthetic import synthetic_benchmark, synthetic_kb_names
from ettag.toy_model import (
    _CHECKPOINT,
    ORDER_STRATEGIES,
    ToyScorer,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
)
from ettag.trie import build_trie, load_trie_cache

from helpers import AIDA_KB_NAMES, decode_spans, write_aida_file


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    root = tmp_path_factory.mktemp("world")
    data = synthetic_benchmark(seed=0, n_entities=12, n_train=30, n_eval=10)
    kb = root / "kb.txt"
    kb.write_text("".join(n + "\n" for n in data.catalog), encoding="utf-8")
    train_path = root / "train.jsonl"
    eval_path = root / "eval.jsonl"
    write_et_jsonl(data.train, train_path, data.catalog)
    write_et_jsonl(data.eval, eval_path, data.catalog)
    model = root / "model.bin"
    rc = main(
        [
            "train",
            "--train", str(train_path),
            "--kb", str(kb),
            "--model-out", str(model),
            "--epochs", "60",
            "--seed", "3",
            "--dim", "16",
        ]
    )
    assert rc == 0
    return {
        "root": root,
        "kb": kb,
        "train": train_path,
        "eval": eval_path,
        "model": model,
        "catalog": data.catalog,
    }


class TestBuildKb:
    def test_cache_and_vocab_and_stats(self, world, capsys):
        cache = world["root"] / "kb.trie"
        rc = main(["build-kb", "--kb", str(world["kb"]), "--cache-out", str(cache)])
        assert rc == 0
        stats = json.loads(capsys.readouterr().out.strip())
        assert stats["entity_count"] == len(world["catalog"])
        written = {p.name for p in world["root"].glob("kb.trie*")}
        assert written == {"kb.trie", "kb.trie.runconfig.json"}

    def test_build_kb_bit_reproducible(self, world, tmp_path):
        a, b = tmp_path / "a.trie", tmp_path / "b.trie"
        assert main(["build-kb", "--kb", str(world["kb"]), "--cache-out", str(a)]) == 0
        assert main(["build-kb", "--kb", str(world["kb"]), "--cache-out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_a_tsv_kb_needs_no_flag(self, world, tmp_path, capsys):
        """A KB file of ``id<TAB>name`` lines goes through build-kb, train and
        ``tag --kb --kb-cache`` as it is, giving the names section, model and
        predictions of the same names one per line; a config that still sets
        kb_format is refused as an unknown key."""
        tsv = tmp_path / "kb.tsv"
        tsv.write_text("# id\tname\n" + "".join(f"Q{i}\t{n}\n" for i, n in enumerate(world["catalog"])),
                       encoding="utf-8")
        runs = {}
        for kb in (world["kb"], tsv):
            cache, model, pred = (tmp_path / f"{kb.name}.{ext}" for ext in ("trie", "bin", "jsonl"))
            assert main(["build-kb", "--kb", str(kb), "--cache-out", str(cache)]) == 0
            assert main(["train", "--train", str(world["train"]), "--kb", str(kb), "--model-out", str(model),
                         "--epochs", "5", "--dim", "8"]) == 0
            assert main(["tag", "--model", str(model), "--kb", str(kb), "--kb-cache", str(cache),
                         "--in", str(world["eval"]), "--out", str(pred)]) == 0
            runs[kb] = bytes(load_trie_cache(cache)[0].names_section), model.read_bytes(), pred.read_bytes()
        assert runs[tsv] == runs[world["kb"]]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"build_kb": {"kb_format": "tsv"}}), encoding="utf-8")
        capsys.readouterr()
        assert main(["--config", str(cfg), "build-kb", "--kb", str(tsv), "--cache-out", str(tmp_path / "t")]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "InputError", "message": "config section 'build_kb': unknown keys ['kb_format']"}
        assert not (tmp_path / "t").exists()

    def test_peak_memory_follows_the_kb_file(self, tmp_path):
        """On a 200,000-name KB, `build-kb` peaks, past a process that only
        imports the CLI, below 10 times the file's bytes. It measured 6.8-7.2
        times over 16 runs that differed only in the size of the environment
        (2-core Xeon VM, numpy 2.4.6, glibc 2.36), a spread of 1.9 MB that
        comes from heap layout; the bound leaves 12.6 MB above the highest
        reading, so it catches gross regressions, such as every name held as
        a str through the trie build (about 3.5 times the file), but not the
        whole-file read before the streamed load (8.6-8.9 times), which the
        tracemalloc bound of ``EntityCatalog.load`` in test_catalog.py does.
        Both commands are started from a small process of their own, because
        a child's ``ru_maxrss`` is at least that of the process it was
        started from."""
        kb = tmp_path / "kb.txt"
        kb.write_text("".join(name + "\n" for name in synthetic_kb_names(200_000, seed=0)), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS, "-m", "ettag.cli", "build-kb", "--kb", str(kb),
             "--cache-out", str(tmp_path / "kb.trie")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        baseline, peak = map(int, proc.stdout.split())
        assert (peak - baseline) / kb.stat().st_size < 10.0


# Prints the peak resident bytes, as os.wait4 reports them, of a process that
# imports the CLI and then of the command given on its own command line.
_PEAK_RSS = """
import os, subprocess, sys
def peak(argv):
    proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0, argv
    return usage.ru_maxrss * 1024
print(peak(["-c", "import ettag.cli"]), peak(sys.argv[1:]))
"""


class TestConvert:
    def test_aida_split_counts(self, tmp_path, capsys):
        conll = tmp_path / "aida.conll"
        write_aida_file(conll, n_train=6, n_testa=3, n_testb=4)
        kb = tmp_path / "kb.txt"
        from helpers import AIDA_KB_NAMES

        kb.write_text("".join(n + "\n" for n in AIDA_KB_NAMES), encoding="utf-8")
        out = tmp_path / "testb.jsonl"
        rc = main(
            [
                "convert", "--format", "aida-conll",
                "--in", str(conll), "--out", str(out),
                "--kb", str(kb), "--split", "testb",
                "--stats-out", str(tmp_path / "stats.json"),
            ]
        )
        assert rc == 0
        stats = json.loads(capsys.readouterr().out.strip())
        assert stats["docs_out"] == 4
        catalog = EntityCatalog.load(kb)
        assert len(read_et_jsonl(out, catalog)) == 4
        assert json.loads((tmp_path / "stats.json").read_text())["docs_out"] == 4


class TestTrainArtifacts:
    def test_sidecars_written(self, world):
        written = {p.name for p in world["root"].glob("model.bin*")}
        assert written == {"model.bin", "model.bin.loss.csv", "model.bin.runconfig.json"}
        loss_rows = list(csv.reader((world["root"] / "model.bin.loss.csv").read_text().splitlines()))
        assert loss_rows[0] == ["epoch", "mean_nll"]
        assert len(loss_rows) == 61
        runconfig = json.loads((world["root"] / "model.bin.runconfig.json").read_text())
        assert set(runconfig) == {"train", "version"} and runconfig["version"] == ettag.__version__
        assert runconfig["train"]["epochs"] == 60
        assert runconfig["train"]["seed"] == 3

    def test_loss_decreases(self, world):
        rows = list(csv.reader((world["root"] / "model.bin.loss.csv").read_text().splitlines()))[1:]
        losses = [float(r[1]) for r in rows]
        assert losses[-1] < losses[0]


class TestTagAndEval:
    def run_tag(self, world, out_name, extra=(), kb=True):
        out = world["root"] / out_name
        rc = main(
            [
                "tag",
                "--model", str(world["model"]),
                *(("--kb", str(world["kb"])) if kb else ()),
                "--in", str(world["eval"]),
                "--out", str(out),
                "--beam", "5",
                *extra,
            ]
        )
        assert rc == 0
        return out

    def test_predictions_schema_and_order(self, world):
        out = self.run_tag(world, "pred.jsonl")
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 10
        doc_ids = [r["doc_id"] for r in records]
        assert doc_ids == sorted(doc_ids)
        for r in records:
            assert set(r) == {"doc_id", "entities", "score", "dropped"}
            assert r["dropped"] == 0
            assert r["entities"] == sorted(r["entities"])

    @pytest.mark.parametrize("beam, flags, options", [
        pytest.param(1, (), {}, id="1"),
        pytest.param(5, (), {}, id="5"),
        pytest.param(5, ("--no-repeat", "false", "--renormalize", "false"),
                     {"no_repeat": False, "renormalize_constrained": False}, id="5-both-off"),
    ])
    def test_predictions_match_one_document_decodes(self, world, beam, flags, options):
        """``tag`` writes what decoding each document alone with the same DecodeConfig
        gives, and its runconfig records the boolean flags as decoded."""
        out = self.run_tag(world, f"pred_b{beam}{'_off' if flags else ''}.jsonl", ("--beam", str(beam), *flags))
        records = {r["doc_id"]: r for r in map(json.loads, out.read_text().splitlines())}
        docs = read_text_jsonl(world["eval"])
        catalog = EntityCatalog.load(world["kb"])
        trie = build_trie(catalog)
        decodes = _decode_one_by_one(world, beam, **options)
        for (doc_id, _), (tokens, score) in zip(docs, decodes):
            entities, _ = parse_output(tokens, trie)
            assert records[doc_id]["entities"] == sorted(map(catalog.name_of, entities))
            assert abs(records[doc_id]["score"] - score) <= 1e-12
        if options:  # the flags change the decode, so an ignored flag would show
            assert decodes != _decode_one_by_one(world, beam)
        recorded = json.loads(out.with_name(out.name + ".runconfig.json").read_text())["tag"]
        assert (recorded["no_repeat"], recorded["renormalize"]) == (not options, not options)

    @pytest.mark.parametrize("words, want", [(("1", "true", "yes", "on"), True), (("0", "false", "no", "off"), False)],
                             ids=["true", "false"])
    def test_every_boolean_spelling_parses(self, words, want):
        for word in words:
            for spelled in (word, word.upper(), word.title(), word[0] + word[1:].upper(), f" \t{word.upper()}  "):
                assert cli._bool_flag(spelled) is want, spelled

    def test_empty_input_tags_nothing(self, world, tmp_path, capsys):
        empty, out = tmp_path / "empty.jsonl", tmp_path / "p.jsonl"
        empty.write_text("", encoding="utf-8")
        assert main(_tag_argv(world, str(out), "--in", str(empty))) == 0
        assert json.loads(capsys.readouterr().out) == {"documents": 0}
        assert out.read_bytes() == b""

    def test_eval_pipes_cleanly(self, world, capsys):
        pred = self.run_tag(world, "pred_eval.jsonl")
        rc = main(
            [
                "eval",
                "--pred", str(pred),
                "--gold", str(world["eval"]),
                "--json-out", str(world["root"] / "report.json"),
                "--dataset-name", "synthetic",
            ]
        )
        assert rc == 0
        table = capsys.readouterr().out
        assert "synthetic" in table and "micro-F1" in table and "macro-F1" in table
        report = json.loads((world["root"] / "report.json").read_text())
        assert set(report["synthetic"]) == {"n_docs", "micro", "macro"}
        assert report["synthetic"]["n_docs"] == 10

    def test_kb_cache_used(self, world, capsys):
        """``tag --kb``, ``tag --kb --kb-cache`` and ``tag --kb-cache`` write the same bytes."""
        cache = world["root"] / "kb2.trie"
        assert main(["build-kb", "--kb", str(world["kb"]), "--cache-out", str(cache)]) == 0
        capsys.readouterr()
        flags = ("--kb-cache", str(cache))
        for beam in ("1", "5"):
            runs = [
                self.run_tag(world, f"pred_{name}_b{beam}.jsonl", (*extra, "--beam", beam), kb=kb).read_bytes()
                for name, extra, kb in (("plain", (), True), ("both", flags, True), ("cache", flags, False))
            ]
            assert runs[0] and runs[0] == runs[1] == runs[2]

    def test_eval_table4_style(self, world, capsys):
        pred = world["root"] / "pred_t4.jsonl"
        rc = main(
            [
                "tag", "--model", str(world["model"]), "--kb", str(world["kb"]),
                "--in", str(world["eval"]), "--out", str(pred), "--beam", "3",
            ]
        )
        assert rc == 0
        capsys.readouterr()
        rc = main(["eval", "--pred", str(pred), "--gold", str(world["eval"]), "--style", "table4"])
        assert rc == 0
        table = capsys.readouterr().out
        assert "Avg. P" in table and "Avg. R" in table


class TestMemorizedEndToEnd:
    def test_single_doc_f1_is_one(self, tmp_path, capsys):
        catalog = EntityCatalog(["red fox", "blue jay", "green frog"])
        kb = tmp_path / "kb.txt"
        kb.write_text("".join(n + "\n" for n in catalog), encoding="utf-8")
        from ettag.ingest import ETExample

        doc = ETExample("only", "red fox meets blue jay", frozenset({0, 1}), (0, 1))
        corpus = tmp_path / "one.jsonl"
        write_et_jsonl([doc], corpus, catalog)
        model = tmp_path / "m.bin"
        assert main(
            [
                "train", "--train", str(corpus), "--kb", str(kb),
                "--model-out", str(model), "--epochs", "400", "--seed", "0",
                "--order-strategy", "lexicographic", "--dim", "8",
            ]
        ) == 0
        pred = tmp_path / "pred.jsonl"
        assert main(
            [
                "tag", "--model", str(model), "--kb", str(kb),
                "--in", str(corpus), "--out", str(pred), "--beam", "5",
            ]
        ) == 0
        report_path = tmp_path / "rep.json"
        assert main(
            [
                "eval", "--pred", str(pred), "--gold", str(corpus),
                "--json-out", str(report_path),
            ]
        ) == 0
        report = json.loads(report_path.read_text())
        assert report["dataset"]["micro"]["f1"] == 1.0


class TestAblations:
    def test_ablate_beam_csv(self, world, capsys):
        out = world["root"] / "beam.csv"
        rc = main(
            [
                "ablate-beam",
                "--model", str(world["model"]),
                "--kb", str(world["kb"]),
                "--eval", str(world["eval"]),
                "--beams", "1,3,5",
                "--out", str(out),
            ]
        )
        assert rc == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["beam", "micro_f1", "macro_f1"]
        assert [r[0] for r in rows[1:]] == ["1", "3", "5"]
        for r in rows[1:]:
            assert 0.0 <= float(r[1]) <= 1.0

    def test_ablate_beam_with_cache_alone(self, world, tmp_path, capsys):
        """Given only --kb-cache, ablate-beam reads the eval corpus's gold names
        through the cache's catalog and writes what it writes with --kb."""
        cache = tmp_path / "kb.trie"
        assert main(["build-kb", "--kb", str(world["kb"]), "--cache-out", str(cache)]) == 0
        csvs = []
        for kb in (("--kb", str(world["kb"])), ("--kb-cache", str(cache))):
            out = tmp_path / f"beam{len(csvs)}.csv"
            argv = ["ablate-beam", "--model", str(world["model"]), *kb, "--eval", str(world["eval"]), "--beams", "1,3"]
            assert main(argv + ["--out", str(out)]) == 0
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1]

    def test_ablate_beam_takes_no_beam(self, world, tmp_path, capsys):
        """Each setting's beam comes from --beams, so ``--beam`` and a config file's ``beam`` are refused."""
        cfg, out = tmp_path / "cfg.json", tmp_path / "beam.csv"
        cfg.write_text(json.dumps({"ablate_beam": {"beam": 5}}), encoding="utf-8")
        argv = ["ablate-beam", "--model", str(world["model"]), "--kb", str(world["kb"]),
                "--eval", str(world["eval"]), "--beams", "1", "--out", str(out)]
        capsys.readouterr()
        assert main([*argv, "--beam", "1"]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "UsageError", "message": "ettag: unrecognized arguments: --beam 1"}
        assert main(["--config", str(cfg), *argv]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "InputError", "message": "config section 'ablate_beam': unknown keys ['beam']"}
        assert not out.exists()

    def test_ablate_order_csv(self, world, capsys):
        out = world["root"] / "order.csv"
        rc = main(
            [
                "ablate-order",
                "--train", str(world["train"]),
                "--eval", str(world["eval"]),
                "--kb", str(world["kb"]),
                "--strategies", "shuffle,mention_order",
                "--epochs", "30",
                "--seed", "1",
                "--dim", "16",
                "--beam", "3",
                "--out", str(out),
            ]
        )
        assert rc == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["strategy", "micro_f1", "macro_f1", "final_loss"]
        assert [r[0] for r in rows[1:]] == ["shuffle", "mention_order"]


def _count_name_passes(monkeypatch) -> list[bool]:
    """Each later pass over the names (``EntityCatalog._tokenize_words``), as
    whether it built the name table too."""
    passes = []
    tokenize_words = EntityCatalog._tokenize_words

    def counted(catalog, each_block=None):
        passes.append(each_block is not None)
        return tokenize_words(catalog, each_block)

    monkeypatch.setattr(EntityCatalog, "_tokenize_words", counted)
    return passes


@pytest.mark.parametrize("command", ["build-kb", "train", "tag", "ablate-beam", "ablate-order"])
def test_each_command_tokenizes_the_names_in_one_pass(world, tmp_path, capsys, monkeypatch, command):
    """A command that needs the output vocabulary, the name table or both makes
    one pass over the names; train's pass builds no name table."""
    passes = _count_name_passes(monkeypatch)
    kb, model, out = str(world["kb"]), str(world["model"]), str(tmp_path / "out")
    corpora = ["--train", str(world["train"]), "--eval", str(world["eval"])]
    argv = {
        "build-kb": ["--kb", kb, "--cache-out", out],
        "train": [*corpora[:2], "--kb", kb, "--model-out", out, "--epochs", "1"],
        "tag": ["--model", model, "--kb", kb, "--in", str(world["eval"]), "--out", out],
        "ablate-beam": ["--model", model, "--kb", kb, *corpora[2:], "--beams", "1", "--out", out],
        "ablate-order": [*corpora, "--kb", kb, "--strategies", "shuffle", "--epochs", "1", "--out", out],
    }[command]
    assert main([command, *argv]) == 0
    assert passes == [command != "train"]


@pytest.mark.parametrize("command", ["tag", "ablate-beam"])
def test_a_trie_cache_spares_every_pass_over_the_names(world, tmp_path, capsys, monkeypatch, command):
    """Given --kb-cache, with or without --kb, tagging takes the output vocabulary from the cache."""
    cache, out = str(tmp_path / "kb.trie"), str(tmp_path / "out")
    assert main(["build-kb", "--kb", str(world["kb"]), "--cache-out", cache]) == 0
    passes = _count_name_passes(monkeypatch)
    argv = {
        "tag": ["--in", str(world["eval"]), "--out", out],
        "ablate-beam": ["--eval", str(world["eval"]), "--beams", "1", "--out", out],
    }[command]
    for kb in ([], ["--kb", str(world["kb"])]):
        assert main([command, "--model", str(world["model"]), "--kb-cache", cache, *kb, *argv]) == 0
    assert passes == []


@pytest.mark.parametrize("command", ["train", "convert", "ablate-beam"])
def test_commands_that_look_names_up_decode_a_block_at_a_time(world, tmp_path, capsys, monkeypatch, command):
    """Commands that look a corpus's names up in the catalog decode it one block
    at a time, here 5 of its 12 names: no string of every name is made."""
    names = list(world["catalog"])
    el = tmp_path / "el.jsonl"
    mentions = [{"start": 0, "end": 1, "entity": names[-1]}, {"start": 2, "end": 3, "entity": "Mars"}]
    el.write_text(json.dumps({"doc_id": "d", "text": "x y", "mentions": mentions}) + "\n", encoding="utf-8")
    spans = decode_spans(monkeypatch, 5)
    kb, out = str(world["kb"]), tmp_path / "out"
    argv = {
        "train": ["--train", str(world["train"]), "--kb", kb, "--model-out", str(out), "--epochs", "1"],
        "convert": ["--format", "el-jsonl", "--in", str(el), "--kb", kb, "--out", str(out)],
        "ablate-beam": ["--model", str(world["model"]), "--kb", kb, "--eval", str(world["eval"]), "--beams", "1",
                        "--out", str(out)],
    }[command]
    assert main([command, *argv]) == 0
    assert len(names) > 5 and spans and max(spans) <= 5
    if command == "convert":
        assert json.loads(out.read_text())["gold"] == [names[-1]]


def test_tag_from_a_trie_cache_decodes_only_the_predicted_names(world, tmp_path, capsys, monkeypatch):
    """Given --kb-cache, with or without --kb, tag works from a catalog that is a
    view of the cache's names section, and neither lists nor looks up its names:
    it decodes the name of each predicted entity."""
    cache, out = str(tmp_path / "kb.trie"), tmp_path / "out.jsonl"
    assert main(["build-kb", "--kb", str(world["kb"]), "--cache-out", cache]) == 0
    names, loaded = nul_terminated(list(EntityCatalog.load(world["kb"]))), []

    def load(*args):
        loaded.append(load_trie_cache(*args))
        return loaded[-1]

    def refuse(*args):
        raise AssertionError("tag decoded every name of the catalog")

    monkeypatch.setattr(cli, "load_trie_cache", load)
    monkeypatch.setattr(EntityCatalog, "__iter__", refuse)
    monkeypatch.setattr(EntityCatalog, "ids_of", refuse)
    for kb in ([], ["--kb", str(world["kb"])]):
        argv = ["tag", "--model", str(world["model"]), "--kb-cache", cache, *kb, "--in", str(world["eval"])]
        assert main([*argv, "--out", str(out)]) == 0
        assert any(json.loads(line)["entities"] for line in out.read_text().splitlines())
    assert len(loaded) == 2
    for catalog, _ in loaded:
        assert isinstance(catalog.names_section, memoryview) and catalog.names_section == names


class TestErrorHandling:
    def test_missing_file_exit_1(self, tmp_path, capsys):
        rc = main(
            [
                "build-kb", "--kb", str(tmp_path / "nope.txt"),
                "--cache-out", str(tmp_path / "x.trie"),
            ]
        )
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert "error" in err and "message" in err

    def test_contract_violation_exit_2(self, world, capsys):
        rc = main(
            [
                "tag", "--model", str(world["model"]), "--kb", str(world["kb"]),
                "--in", str(world["eval"]), "--out", str(world["root"] / "x.jsonl"),
                "--beam", "2", "--max-tokens", "1",
            ]
        )
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "NoFinishedHypothesis"

    def test_tag_one_unfinishable_document_exit_2(self, world, tmp_path):
        # the documents are decoded in one group; one whose greedy decode is
        # longer than --max-tokens stops the command as a lone document would
        lengths = sorted(len(tokens) for tokens, _ in _decode_one_by_one(world, 1))
        assert lengths[0] < lengths[-1]
        out = tmp_path / "p.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "ettag.cli", *_tag_argv(world, str(out), "--in", str(world["eval"])),
             "--max-tokens", str(lengths[0])],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        err = proc.stderr.splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "NoFinishedHypothesis"
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (lambda w, out: _tag_argv(w, out, "--beam", "abc"), "argument --beam: invalid int value: 'abc'"),
        (lambda w, out: ["eval", "--pred", out, "--gold", str(w["eval"]), "--style", "csv"],
         "argument --style: invalid choice: 'csv'"),
        (lambda w, out: ["build-kb", "--kb", str(w["kb"])], "the following arguments are required: --cache-out"),
        (lambda w, out: ["tag", "--model", str(w["model"]), "--in", str(w["eval"]), "--out", out],
         "give --kb, --kb-cache or both"),
        (lambda w, out: _tag_argv(w, out, "--no-repeat", "maybe"),
         "argument --no-repeat: expected a boolean, got 'maybe'"),
    ], ids=["bad-int", "bad-choice", "missing-flag", "tag-without-kb", "bad-bool"])
    def test_usage_error_exit_1(self, world, tmp_path, capsys, argv, message):
        """A command line that does not parse exits 1 with one JSON line, not argparse's exit 2 and usage text."""
        assert main(argv(world, str(tmp_path / "out"))) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        err = json.loads(captured.err)
        assert err["error"] == "UsageError" and message in err["message"]
        assert not (tmp_path / "out").exists()

    def test_help_exit_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tag", "--help"])
        assert exc.value.code == 0
        assert "--kb-cache" in capsys.readouterr().out

    def test_bad_config_file_exit_1(self, world, tmp_path, capsys):
        bad = tmp_path / "cfg.json"
        bad.write_text("{not json", encoding="utf-8")
        rc = main(
            [
                "--config", str(bad),
                "build-kb", "--kb", str(world["kb"]), "--cache-out", str(tmp_path / "t"),
            ]
        )
        assert rc == 1

    @pytest.mark.parametrize("value", ["[" * 200_000 + "]" * 200_000, "9" * 5_000], ids=["deep", "long-int"])
    @pytest.mark.parametrize("reader, error", [("config", "InputError"), ("text", "MalformedLine")])
    def test_json_beyond_the_decoder_limits_exit_1(self, world, tmp_path, capsys, reader, error, value):
        """JSON nested past the recursion limit, or holding an integer past Python's
        digit limit, is an input error on one JSON line, in a config file and in a JSONL input."""
        bad, out = tmp_path / "bad.json", tmp_path / "p.jsonl"
        bad.write_text('{"doc_id": "a", "text": "x", "extra": %s}\n' % value, encoding="utf-8")
        argv = _tag_argv(world, str(out), "--in", str(bad) if reader == "text" else str(world["eval"]))
        if reader == "config":
            argv = ["--config", str(bad), *argv]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == error
        assert (str(bad) if reader == "config" else "line 1") in err[0]
        assert not out.exists()

    def test_config_byte_order_mark_skipped(self, world, tmp_path, capsys):
        cfg, out = tmp_path / "cfg.json", tmp_path / "p.jsonl"
        cfg.write_text("\ufeff" + json.dumps({"tag": {"beam": 2}}), encoding="utf-8")
        argv = ["--config", str(cfg), "tag", "--model", str(world["model"]), "--kb", str(world["kb"]),
                "--in", str(world["eval"]), "--out", str(out)]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        assert json.loads(out.with_name(out.name + ".runconfig.json").read_text())["tag"]["beam"] == 2

    def test_nul_in_kb_name_exit_1(self, tmp_path, capsys):
        kb = tmp_path / "kb.txt"
        kb.write_text("Earth\na\0b\n", encoding="utf-8")
        assert main(["build-kb", "--kb", str(kb), "--cache-out", str(tmp_path / "t.trie")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidName" and "NUL" in err["message"]
        assert not (tmp_path / "t.trie").exists()

    def test_nul_in_training_text_reads_as_unk(self, world, tmp_path, capsys):
        # a token holding NUL cannot be written to the checkpoint's NUL-terminated vocabulary
        name = world["catalog"].name_of(0)
        docs = tmp_path / "docs.jsonl"
        docs.write_text(json.dumps({"doc_id": "a", "text": f"x\0y {name}", "gold": [name]}) + "\n", encoding="utf-8")
        model = tmp_path / "m.bin"
        argv = ["train", "--train", str(docs), "--kb", str(world["kb"]), "--model-out", str(model), "--dim", "4"]
        assert main(argv + ["--epochs", "1"]) == 0
        _, vocab_in = load_checkpoint(model, world["catalog"].output_vocab())
        assert tokenize("x\0y", vocab_in) == [UNK] and not any("\0" in t for t in vocab_in.tokens)
        out = tmp_path / "p.jsonl"
        assert main(["tag", "--model", str(model), "--kb", str(world["kb"]), "--in", str(docs), "--out", str(out)]) == 0

    def test_model_too_large_to_allocate_exit_1(self, world, tmp_path, capsys):
        # more float64 weights than a 128 TiB address space holds: the allocation fails at once
        model = tmp_path / "m.bin"
        argv = ["train", "--train", str(world["train"]), "--kb", str(world["kb"]), "--model-out", str(model)]
        capsys.readouterr()
        assert main(argv + ["--dim", str(10**12)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "MemoryError"
        assert not model.exists()

    @pytest.mark.parametrize("option, field", [("dim", "d"), ("window", "k")])
    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_model_too_large_to_size_exit_1(self, world, tmp_path, capsys, option, field, form):
        # 2**70: more float64 bytes than numpy can size, reported before any weight is allocated
        model = tmp_path / "m.bin"
        argv = ["train", "--train", str(world["train"]), "--kb", str(world["kb"]), "--model-out", str(model)]
        if form == "flag":
            argv += [f"--{option}", str(2**70)]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"train": {option: 2**70}}), encoding="utf-8")
            argv = ["--config", str(cfg), *argv]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        error = json.loads(err[0])
        assert error["error"] == "InvalidConfig" and f"{field}={2**70}" in error["message"]
        assert not model.exists()

    def test_duplicate_kb_exit_1(self, tmp_path, capsys):
        kb = tmp_path / "dup.txt"
        kb.write_text("Earth\nEarth\n", encoding="utf-8")
        rc = main(["build-kb", "--kb", str(kb), "--cache-out", str(tmp_path / "t.trie")])
        assert rc == 1

    @pytest.mark.parametrize("command", ["build-kb", "tag", "train"])
    def test_empty_kb_exit_1(self, world, tmp_path, monkeypatch, capsys, command):
        out = tmp_path / "out"
        out.mkdir()
        monkeypatch.chdir(out)
        kb = tmp_path / "kb.txt"
        kb.write_text("# no names\n", encoding="utf-8")
        docs = tmp_path / "docs.jsonl"
        docs.write_text(json.dumps({"doc_id": "a", "text": "x", "gold": []}) + "\n", encoding="utf-8")
        argv = {
            "build-kb": ["build-kb", "--cache-out", "kb.trie"],
            "tag": ["tag", "--model", str(world["model"]), "--in", str(docs), "--out", "p.jsonl"],
            "train": ["train", "--train", str(docs), "--model-out", "m.bin"],
        }[command]
        capsys.readouterr()
        assert main(argv + ["--kb", str(kb)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "EmptyCatalog"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "command, bad, config",
        [
            ("tag", ["--beam", "0"], None),
            ("tag", ["--beam", "-3"], None),
            ("tag", ["--max-tokens", "0"], None),
            ("train", ["--epochs", "0"], None),
            ("train", ["--lr", "0"], None),
            ("train", ["--dim", "0"], None),
            ("train", ["--batch-size", "-1"], None),
            ("tag", [], {"tag": {"beam": 0}}),
            ("tag", [], {"tag": {"no_repeat": "false"}}),
            ("train", [], {"train": {"window": 0}}),
            ("train", [], {"train": {"min_count": "2"}}),
            ("build-kb", [], {"build_kb": {"cache_out": 5}}),
            ("convert", [], {"convert": {"stats_out": 1}}),
            ("convert", [], {"convert": {"keep_empty": "no"}}),
            ("eval", [], {"eval": {"json_out": 2}}),
            ("train", ["--min-count", "0"], None),
            ("train", ["--min-count", "-3"], None),
            ("train", [], {"train": {"min_count": 0}}),
            ("train", [], {"train": {"min_count": -3}}),
            ("ablate-order", ["--min-count", "0"], None),
            ("ablate-order", ["--min-count", "-3"], None),
            ("ablate-order", [], {"ablate_order": {"min_count": 0}}),
            ("ablate-order", [], {"ablate_order": {"min_count": -3}}),
        ],
    )
    def test_out_of_range_setting_exit_1(self, world, tmp_path, monkeypatch, capsys, command, bad, config):
        out = tmp_path / "out"
        out.mkdir()
        monkeypatch.chdir(out)  # outputs, stray ones included, land here
        el = tmp_path / "el.jsonl"
        el.write_text(json.dumps({"doc_id": "a", "text": "x", "mentions": []}) + "\n", encoding="utf-8")
        pred = tmp_path / "pred.jsonl"
        with world["eval"].open(encoding="utf-8") as f:
            preds = [{"doc_id": r["doc_id"], "entities": r["gold"]} for r in map(json.loads, f)]
        pred.write_text("".join(json.dumps(p) + "\n" for p in preds), encoding="utf-8")
        kb = ["--kb", str(world["kb"])]
        argv = {
            "tag": ["tag", *kb, "--model", str(world["model"]), "--in", str(world["eval"]), "--out", "p.jsonl"],
            "train": ["train", *kb, "--train", str(world["train"]), "--model-out", "m.bin"],
            "build-kb": ["build-kb", *kb, "--cache-out", "kb.trie"],
            "convert": ["convert", *kb, "--format", "el-jsonl", "--in", str(el), "--out", "c.jsonl"],
            "eval": ["eval", "--pred", str(pred), "--gold", str(world["eval"])],
            "ablate-order": ["ablate-order", *kb, "--train", str(world["train"]), "--eval", str(world["eval"]),
                             "--out", "o.csv"],
        }[command]
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config), encoding="utf-8")
            argv = ["--config", str(cfg), *argv]
        capsys.readouterr()
        assert main(argv + bad) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "InvalidConfig"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["train", "ablate-order"])
    def test_empty_training_corpus_exit_1(self, world, tmp_path, capsys, command):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "out"
        argv = [command, "--train", str(empty), "--kb", str(world["kb"])]
        if command == "train":
            argv += ["--model-out", str(out)]
        else:
            argv += ["--eval", str(world["eval"]), "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0]) == {"error": "InputError", "message": "empty training corpus"}
        assert list(tmp_path.iterdir()) == [empty]

    @pytest.mark.parametrize("strategy", ORDER_STRATEGIES)
    def test_an_empty_gold_set_trains(self, tmp_path, capsys, strategy):
        # convert --keep-empty writes such examples; their target is <eos> alone
        kb = tmp_path / "kb.txt"
        kb.write_text("red fox\nblue jay\n", encoding="utf-8")
        corpus = tmp_path / "train.jsonl"
        corpus.write_text(
            json.dumps({"doc_id": "a", "text": "a red fox", "gold": ["red fox"], "gold_order": ["red fox"]}) + "\n"
            + json.dumps({"doc_id": "b", "text": "nothing here", "gold": [], "gold_order": []}) + "\n",
            encoding="utf-8",
        )
        common = ["--kb", str(kb), "--epochs", "2", "--dim", "4", "--window", "2"]
        assert main(["train", "--train", str(corpus), "--model-out", str(tmp_path / "m.bin"),
                     "--order-strategy", strategy, *common]) == 0
        assert main(["ablate-order", "--train", str(corpus), "--eval", str(corpus), "--out", str(tmp_path / "o.csv"),
                     "--strategies", strategy, *common]) == 0
        assert capsys.readouterr().err == ""

    def test_gold_and_eval_names_are_canonicalized(self, tmp_path, capsys):
        """ET JSONL gold names and eval's name sets are canonicalized as KB names are."""
        kb = tmp_path / "kb.txt"
        kb.write_text("Red Planet\nEarth\n", encoding="utf-8")
        corpus, pred = tmp_path / "train.jsonl", tmp_path / "pred.jsonl"
        corpus.write_text(json.dumps({"doc_id": "a", "text": "the red planet", "gold": ["Red  Planet"],
                                      "gold_order": [" Red Planet"]}) + "\n", encoding="utf-8")
        pred.write_text(json.dumps({"doc_id": "a", "entities": ["Red Planet"]}) + "\n", encoding="utf-8")
        argv = ["train", "--train", str(corpus), "--kb", str(kb), "--model-out", str(tmp_path / "m.bin")]
        assert main(argv + ["--epochs", "1", "--dim", "4", "--order-strategy", "mention_order"]) == 0
        capsys.readouterr()
        assert main(["eval", "--pred", str(pred), "--gold", str(corpus), "--json-out", str(tmp_path / "r.json")]) == 0
        assert json.loads((tmp_path / "r.json").read_text())["dataset"]["micro"]["f1"] == 1.0

    def test_truncated_checkpoint_exit_1(self, world, tmp_path, capsys):
        model = tmp_path / "cut.bin"
        model.write_bytes(world["model"].read_bytes()[:200])
        rc = main(
            [
                "tag", "--model", str(model), "--kb", str(world["kb"]),
                "--in", str(world["eval"]), "--out", str(tmp_path / "p.jsonl"),
            ]
        )
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] == "CorruptCheckpoint"

    @pytest.mark.parametrize("damage", ["flipped-byte", "padded", "etmdl1-magic", "bad-vocabulary", "non-finite"])
    def test_damaged_checkpoint_exit_1(self, world, tmp_path, capsys, damage):
        _, vocab_out = build_vocabularies(world["catalog"], [])
        params, vocab_in = load_checkpoint(world["model"], vocab_out)
        good = world["model"].read_bytes()
        model = tmp_path / "bad.bin"
        if damage == "flipped-byte":
            mid = len(good) // 2
            model.write_bytes(good[:mid] + bytes([good[mid] ^ 1]) + good[mid + 1:])
        elif damage == "padded":
            model.write_bytes(good + b"\0")
        elif damage == "etmdl1-magic":
            model.write_bytes(b"ETMDL1" + good[6:])
        elif damage == "bad-vocabulary":
            section = nul_terminated(("<BOS>", *vocab_in.tokens[1:]))
            dims = (params.d, params.k, params.v_in, params.v_out, len(section))
            arrays = [a.astype("<f8").tobytes() for a in params.arrays()]
            _CHECKPOINT.write(model, vocab_out.content_hash(), dims, [section, *arrays])
        else:
            params.b[3] = np.nan
            save_checkpoint(params, model, vocab_in, vocab_out)
        out = tmp_path / "p.jsonl"
        capsys.readouterr()
        assert main(_tag_argv(world, str(out), "--model", str(model))) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "CorruptCheckpoint"
        assert not out.exists()

    def test_checkpoint_for_other_kb_exit_1(self, world, tmp_path, capsys):
        kb = tmp_path / "kb.txt"
        kb.write_text(world["kb"].read_text(encoding="utf-8") + "Some Other Name\n", encoding="utf-8")
        argv = _tag_argv(world, str(tmp_path / "p.jsonl"), "--kb", str(kb))
        capsys.readouterr()
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CorruptCheckpoint" and "different" in err["message"]

    def test_divergent_training_exit_1(self, world, tmp_path, capsys):
        model = tmp_path / "m.bin"
        argv = ["train", "--train", str(world["train"]), "--kb", str(world["kb"]), "--model-out", str(model)]
        capsys.readouterr()
        assert main(argv + ["--lr", "1e6", "--epochs", "3"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "InputError"
        assert list(tmp_path.iterdir()) == []

    def test_finite_divergent_training_exit_1(self, tmp_path, capsys):
        # the mean loss explodes to about 1e12 in epoch 1 but stays finite
        kb, corpus, out = tmp_path / "kb.txt", tmp_path / "train.jsonl", tmp_path / "out"
        kb.write_text("red fox\nblue jay\ngreen frog\n", encoding="utf-8")
        corpus.write_text(
            '{"doc_id": "a", "text": "the red fox", "gold": ["red fox"]}\n'
            '{"doc_id": "b", "text": "blue jay and green frog", "gold": ["blue jay", "green frog"]}\n',
            encoding="utf-8",
        )
        out.mkdir()
        argv = ["train", "--train", str(corpus), "--kb", str(kb), "--model-out", str(out / "m.bin"),
                "--lr", "1e6", "--epochs", "3", "--dim", "6", "--window", "2"]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "InputError" and "diverged" in err[0]
        assert list(out.iterdir()) == []

    def test_tag_lone_surrogate_exit_1(self, world, tmp_path, capsys):
        docs, out = tmp_path / "docs.jsonl", tmp_path / "p.jsonl"
        docs.write_text('{"doc_id": "\\ud800", "text": "x"}\n', encoding="utf-8")
        capsys.readouterr()
        assert main(_tag_argv(world, str(out), "--in", str(docs))) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "MalformedLine"
        assert not out.exists()

    def test_tag_duplicate_doc_id_exit_1(self, world, tmp_path, capsys):
        lines = world["eval"].read_text(encoding="utf-8").splitlines()
        docs = tmp_path / "dup.jsonl"
        docs.write_text("\n".join(lines + lines[3:4]) + "\n", encoding="utf-8")
        rc = main(
            [
                "tag", "--model", str(world["model"]), "--kb", str(world["kb"]),
                "--in", str(docs), "--out", str(tmp_path / "p.jsonl"), "--beam", "1",
            ]
        )
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] == "SchemaError"

    @pytest.mark.parametrize(
        "pred, gold",
        [
            ({"doc_id": "a", "score": 0.0}, {"doc_id": "a", "gold": []}),
            ({"doc_id": "a", "entities": "Earth"}, {"doc_id": "a", "gold": []}),
            ({"doc_id": "a", "entities": []}, {"doc_id": "a", "text": "x"}),
            ({"entities": []}, {"doc_id": "a", "gold": []}),
        ],
    )
    def test_eval_malformed_record_exit_1(self, tmp_path, capsys, pred, gold):
        (tmp_path / "pred.jsonl").write_text(json.dumps(pred) + "\n", encoding="utf-8")
        (tmp_path / "gold.jsonl").write_text(json.dumps(gold) + "\n", encoding="utf-8")
        rc = main(["eval", "--pred", str(tmp_path / "pred.jsonl"), "--gold", str(tmp_path / "gold.jsonl")])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] == "SchemaError"

    @pytest.mark.parametrize("which", ["pred", "gold"])
    def test_eval_duplicate_doc_id_exit_1(self, tmp_path, capsys, which):
        recs = {"pred": [{"doc_id": "a", "entities": []}], "gold": [{"doc_id": "a", "gold": []}]}
        recs[which] = recs[which] * 2
        for name, rows in recs.items():
            text = "".join(json.dumps(r) + "\n" for r in rows)
            (tmp_path / f"{name}.jsonl").write_text(text, encoding="utf-8")
        rc = main(["eval", "--pred", str(tmp_path / "pred.jsonl"), "--gold", str(tmp_path / "gold.jsonl")])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] == "SchemaError"

    @pytest.mark.parametrize("kind", ["kb", "text", "et", "el-jsonl", "wiki", "pred", "aida", "config"])
    def test_non_utf8_input_exit_1(self, world, tmp_path, capsys, kind):
        """A byte that is not UTF-8, after a byte-order mark and more than 8 KB of valid lines ended
        by "\\r\\n", is reported as one whole read of the file reports it: at its offset in the
        file, not in the chunk a decoder was reading."""
        bad = tmp_path / "bad"
        data = _padded(kind, b"bad \xff byte\r\n")
        bad.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as want:
            data.decode("utf-8-sig")
        assert main(CONSUMERS[kind](world, str(bad), str(tmp_path / "out"))) == 1
        assert json.loads(capsys.readouterr().err) == {"error": "UnicodeDecodeError", "message": str(want.value)}

    @pytest.mark.parametrize("kind", ["text", "et", "el-jsonl", "wiki", "pred"])
    def test_non_object_record_exit_1(self, world, tmp_path, capsys, kind):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("[1]\n", encoding="utf-8")
        assert main(CONSUMERS[kind](world, str(bad), str(tmp_path / "out"))) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SchemaError" and "not a JSON object" in err["message"]

    @pytest.mark.parametrize(
        "kind, record, field",
        [
            ("et", {"doc_id": "a", "text": "x", "gold": [], "gold_order": 5}, "gold_order"),
            ("et", {"doc_id": "a", "text": "x", "gold": [["a"]]}, "gold"),
            ("wiki", {"title": "a", "text": "x", "anchors": 5}, "anchors"),
            ("wiki", {"title": "a", "text": "a dog", "anchors": [{"start": 2, "end": 5, "entity": 5}]}, "anchors"),
            ("wiki", {"title": "a", "text": "a dog x", "anchors": [{"start": 50, "end": 2, "entity": "b"}]}, "anchors"),
            ("wiki", {"title": "a", "text": "a dog", "anchors": [
                {"start": 0, "end": 3, "entity": "b"}, {"start": 2, "end": 5, "entity": "c"},
            ]}, "anchors"),
            ("wiki", {"title": "a", "text": "a dog", "anchors": [{"start": 0.9, "end": 5, "entity": "b"}]}, "anchors"),
            ("wiki", {"title": "a", "text": "a dog", "anchors": [{"start": 0, "end": "5", "entity": "b"}]}, "anchors"),
            ("el-jsonl", {"doc_id": "a", "text": "a dog", "mentions": [
                {"start": 0.9, "end": 5, "entity": "b"},
            ]}, "mentions"),
            ("el-jsonl", {"doc_id": "a", "text": "a dog", "mentions": [
                {"start": 0, "end": "5", "entity": "b"},
            ]}, "mentions"),
            ("wiki", {"title": " ", "text": "x"}, "title"),
        ],
    )
    def test_wrongly_typed_field_exit_1(self, world, tmp_path, capsys, kind, record, field):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(record) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(CONSUMERS[kind](world, str(bad), str(out))) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        err = json.loads(err[0])
        assert err["error"] == "SchemaError" and repr(field) in err["message"]
        assert not out.exists()

    def test_repeated_aida_id_exit_1(self, world, tmp_path, capsys):
        conll = tmp_path / "aida.conll"
        conll.write_text("-DOCSTART- (1 A)\nword\n-DOCSTART- (1 A)\nword\n", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        argv = ["convert", "--format", "aida-conll", "--in", str(conll), "--out", str(out), "--kb", str(world["kb"])]
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "MalformedLine" and "repeated document id '1 A'" in err["message"]
        assert not out.exists()

    def test_empty_aida_entity_exit_1(self, world, tmp_path, capsys):
        conll = tmp_path / "aida.conll"
        conll.write_text(
            "-DOCSTART- (1 A)\nEarth\tB\tEarth\tEarth\thttp://en.wikipedia.org/wiki/\n", encoding="utf-8"
        )
        out = tmp_path / "out.jsonl"
        argv = ["convert", "--format", "aida-conll", "--in", str(conll), "--out", str(out), "--kb", str(world["kb"])]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        err = json.loads(err[0])
        assert err["error"] == "MalformedLine" and err["message"].startswith("line 2: entity column")
        assert not out.exists()

    @pytest.mark.parametrize("kind, split, config", [
        ("el-jsonl", "testb", False),
        ("wiki", "train", False),
        ("el-jsonl", "testa", True),
    ])
    def test_split_of_non_aida_format_exit_1(self, world, tmp_path, capsys, kind, split, config):
        src = tmp_path / "docs.jsonl"
        record = {"doc_id": "a", "text": "x", "mentions": []} if kind == "el-jsonl" else {"title": "a", "text": "x"}
        src.write_text(json.dumps(record) + "\n", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        argv = CONSUMERS[kind](world, str(src), str(out))
        if config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"convert": {"split": split}}), encoding="utf-8")
            argv = ["--config", str(cfg), *argv]
        else:
            argv += ["--split", split]
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InputError" and "aida-conll" in err["message"]
        assert not out.exists()
        assert main(CONSUMERS[kind](world, str(src), str(out)) + ["--split", "all"]) == 0

    def test_ablate_beam_duplicate_doc_id_exit_1(self, world, tmp_path, capsys):
        lines = world["eval"].read_text(encoding="utf-8").splitlines()
        docs = tmp_path / "dup.jsonl"
        docs.write_text("\n".join(lines[:5] + lines[2:3]) + "\n", encoding="utf-8")
        out = tmp_path / "beam.csv"
        assert main(CONSUMERS["et"](world, str(docs), str(out))) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "SchemaError"
        assert not out.exists()

    @pytest.mark.parametrize("command, values, error", [
        ("ablate-beam", "5,5,1", "InputError"),
        ("ablate-beam", "5,0", "InvalidConfig"),
        ("ablate-order", "shuffle,shuffle", "InputError"),
        ("ablate-order", "shuffle,bogus", "InvalidConfig"),
    ])
    def test_ablation_lists_checked_before_any_run(self, world, tmp_path, capsys, monkeypatch, command, values, error):
        """A repeated or invalid value in a sweep list exits 1 before the first decode or training run."""
        runs = []
        monkeypatch.setattr("ettag.cli.train", lambda *a, **k: runs.append("train"))
        monkeypatch.setattr("ettag.cli.beam_decode_many", lambda *a, **k: runs.append("decode"))
        out = tmp_path / "ablation.csv"
        if command == "ablate-beam":
            argv = ["ablate-beam", "--model", str(world["model"]), "--eval", str(world["eval"]), "--beams", values]
        else:
            argv = ["ablate-order", "--train", str(world["train"]), "--eval", str(world["eval"]),
                    "--strategies", values]
        assert main(argv + ["--kb", str(world["kb"]), "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == error
        assert runs == [] and not out.exists()

    @pytest.mark.parametrize("beams, error", [("1,x", "InputError"), (",", "InputError"), ("1,0", "InvalidConfig")])
    def test_ablate_beam_bad_beams_exit_1(self, world, tmp_path, capsys, beams, error):
        argv = CONSUMERS["et"](world, str(world["eval"]), str(tmp_path / "beam.csv"))
        assert main(argv + ["--beams", beams]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == error


def _decode_one_by_one(world, beam, **options):
    """The best (tokens, score) of each document of the world's eval file, decoded alone
    with DecodeConfig ``options``."""
    catalog = EntityCatalog.load(world["kb"])
    trie = build_trie(catalog)
    params, vocab_in = load_checkpoint(world["model"], catalog.output_vocab())
    config = DecodeConfig(beam_size=beam, **options)
    return [beam_decode(ToyScorer(params), trie, tokenize(text, vocab_in, mode="input"), config)[0]
            for _, text in read_text_jsonl(world["eval"])]


def _tag_argv(world, out, flag, path):
    files = {
        "--model": world["model"],
        "--kb": world["kb"],
        "--in": world["eval"],
        flag: path,
    }
    return ["tag", "--beam", "1", "--out", out, *(str(x) for pair in files.items() for x in pair)]


# kind of input file -> argv of a command that reads the file at ``path``
CONSUMERS = {
    "kb": lambda w, path, out: ["build-kb", "--kb", path, "--cache-out", out],
    "text": lambda w, path, out: _tag_argv(w, out, "--in", path),
    "checkpoint": lambda w, path, out: _tag_argv(w, out, "--model", path),
    "cache": lambda w, path, out: _tag_argv(w, out, "--kb-cache", path),
    "et": lambda w, path, out: [
        "ablate-beam", "--model", str(w["model"]), "--kb", str(w["kb"]), "--eval", path,
        "--beams", "1", "--out", out,
    ],
    "el-jsonl": lambda w, path, out: ["convert", "--format", "el-jsonl", "--in", path, "--out", out, "--kb", str(w["kb"])],
    "wiki": lambda w, path, out: [
        "convert", "--format", "wiki-abstracts", "--in", path, "--out", out, "--kb", str(w["kb"]),
    ],
    "pred": lambda w, path, out: ["eval", "--pred", path, "--gold", str(w["eval"])],
    "aida": lambda w, path, out: ["convert", "--format", "aida-conll", "--in", path, "--out", out, "--kb", str(w["kb"])],
    "config": lambda w, path, out: ["--config", path, "build-kb", "--kb", str(w["kb"]), "--cache-out", out],
}

# kind of text input -> the i-th of the valid lines that pad it, each record with an id of its own
PADDING = {
    "kb": lambda i: f"padding name {i}",
    "text": lambda i: json.dumps({"doc_id": f"pad {i}", "text": "padding"}),
    "et": lambda i: json.dumps({"doc_id": f"pad {i}", "text": "padding", "gold": []}),
    "el-jsonl": lambda i: json.dumps({"doc_id": f"pad {i}", "text": "padding", "mentions": []}),
    "wiki": lambda i: json.dumps({"title": f"pad {i}", "text": "padding"}),
    "pred": lambda i: json.dumps({"doc_id": f"pad {i}", "entities": []}),
    "aida": lambda i: f"-DOCSTART- (pad {i})\r\npadding",
    "config": lambda i: "{" if i == 0 else " " * 20,  # whitespace inside one JSON object
}


def _padded(kind: str, tail: bytes) -> bytes:
    """A byte-order mark, then lines of ``PADDING[kind]`` ended by "\\r\\n", more than 8 KB of
    them (a text-mode decoder's chunk), then ``tail``."""
    data = codecs.BOM_UTF8 + "".join(PADDING[kind](i) + "\r\n" for i in range(600)).encode()
    assert len(data) > 8 << 10
    return data + tail


# kind of input file -> a valid one
VALID = {
    "kb": lambda w: w["kb"],
    "text": lambda w: w["eval"],
    "et": lambda w: w["eval"],
    "checkpoint": lambda w: w["model"],
}


def test_cli_fuzz_corrupted_inputs(world, tmp_path, capsys):
    """Truncated and byte-flipped input files end in exit 0, 1 or 2, never a
    traceback; a failure is one JSON line on stderr, and a damaged trie cache
    or checkpoint always exits 1."""
    cache = tmp_path / "kb.trie"
    assert main(["build-kb", "--kb", str(world["kb"]), "--cache-out", str(cache)]) == 0
    originals = {kind: valid(world) for kind, valid in VALID.items()}
    originals["cache"] = cache
    rng = np.random.default_rng(2024)
    bad, out = tmp_path / "bad", str(tmp_path / "out")
    for kind, path in originals.items():
        data = path.read_bytes()
        capsys.readouterr()
        assert main(CONSUMERS[kind](world, str(path), out)) == 0, kind
        for trial in range(20):
            if trial % 3 == 0:
                mutated = data[: int(rng.integers(0, len(data)))]
            else:
                buf = bytearray(data)
                for pos in rng.integers(0, len(data), size=int(rng.integers(1, 4))):
                    buf[pos] ^= int(rng.integers(1, 256))
                mutated = bytes(buf)
            bad.write_bytes(mutated)
            capsys.readouterr()
            rc = main(CONSUMERS[kind](world, str(bad), out))
            err = capsys.readouterr().err
            case = (kind, trial, rc, err)
            assert "Traceback" not in err, case
            assert rc in (0, 1, 2), case
            if rc:
                lines = err.splitlines()
                assert len(lines) == 1 and {"error", "message"} <= set(json.loads(lines[0])), case
            if kind in ("cache", "checkpoint"):
                assert rc == 1, case


# each command's integer options, and the values of each left out of the sweep
# below: values that only make a run slow, and sizes numpy is asked to allocate
# (2**31 dims: 1.03 TiB, 2**31 windows: 832 GiB) that a host overcommitting memory could grant
INTEGER_OPTIONS = {
    "tag": {"beam": {2**31, 2**63, 2**70}, "max-tokens": set(), "max-entities": set()},
    "ablate-beam": {"beams": {2**31, 2**63, 2**70},
                    "max-tokens": set(), "max-entities": set()},
    "train": {"epochs": {2**31, 2**63, 2**70}, "seed": set(), "batch-size": set(), "dim": {2**31},
              "window": {2**31}, "min-count": set()},
}


def test_integer_options_at_their_edges(world, tmp_path, capsys):
    """Each integer option of ``tag``, ``ablate-beam`` and ``train`` at 0, -1,
    2**31, 2**63 and 2**70 exits 0 or 1, a failure with one JSON line on stderr."""
    out = str(tmp_path / "out")
    base = {
        "tag": ["tag", "--model", str(world["model"]), "--kb", str(world["kb"]), "--in", str(world["eval"]),
                "--out", out, "--beam", "1"],
        "ablate-beam": ["ablate-beam", "--model", str(world["model"]), "--kb", str(world["kb"]),
                        "--eval", str(world["eval"]), "--out", out, "--beams", "1"],
        "train": ["train", "--train", str(world["train"]), "--kb", str(world["kb"]), "--model-out", out,
                  "--epochs", "1", "--dim", "4"],
    }
    runs = 0
    for command, options in INTEGER_OPTIONS.items():
        for option, left_out in options.items():
            for value in (0, -1, 2**31, 2**63, 2**70):
                if value in left_out:
                    continue
                capsys.readouterr()
                rc = main(base[command] + [f"--{option}", str(value)])
                err = capsys.readouterr().err
                case = (command, option, value, rc, err)
                assert rc in (0, 1) and "Traceback" not in err, case
                assert len(err.splitlines()) == rc, case
                if rc:
                    assert {"error", "message"} <= set(json.loads(err)), case
                runs += 1
    assert runs == 49


def _settled_runs(world, tmp_path) -> dict:
    """command -> its argv, which sets most of its options away from their defaults, and its
    output flags -> the names of their files, the one whose runconfig is written first."""
    aida, aida_kb, pred = tmp_path / "aida.conll", tmp_path / "aida_kb.txt", tmp_path / "gold_as_pred.jsonl"
    write_aida_file(aida, n_train=6, n_testa=3, n_testb=4)
    aida_kb.write_text("".join(n + "\n" for n in AIDA_KB_NAMES), encoding="utf-8")
    with world["eval"].open(encoding="utf-8") as f:
        pred.write_text("".join(json.dumps({"doc_id": r["doc_id"], "entities": r["gold"][1:]}) + "\n"
                                for r in map(json.loads, f)), encoding="utf-8")
    kb, model, train, evals = (str(world[k]) for k in ("kb", "model", "train", "eval"))
    return {
        "build-kb": (["--kb", kb], {"--cache-out": "kb.trie"}),
        "convert": (["--format", "aida-conll", "--in", str(aida), "--kb", str(aida_kb), "--split", "train",
                     "--keep-empty", "true"], {"--out": "et.jsonl", "--stats-out": "stats.json"}),
        "train": (["--train", train, "--kb", kb, "--order-strategy", "lexicographic", "--min-count", "2",
                   "--epochs", "3", "--seed", "5", "--lr", "0.05", "--batch-size", "4", "--dim", "8",
                   "--window", "2"], {"--model-out": "m.bin"}),
        "tag": (["--model", model, "--kb", kb, "--in", evals, "--beam", "3", "--no-repeat", "false",
                 "--length-normalize", "true", "--max-entities", "4"], {"--out": "pred.jsonl"}),
        "eval": (["--pred", str(pred), "--gold", evals, "--style", "table2", "--dataset-name", "synthetic"],
                 {"--json-out": "report.json"}),
        "ablate-beam": (["--model", model, "--kb", kb, "--eval", evals, "--beams", "1,3", "--renormalize", "false",
                         "--allow-empty", "true"], {"--out": "beam.csv"}),
        "ablate-order": (["--train", train, "--eval", evals, "--kb", kb, "--strategies", "shuffle,lexicographic",
                          "--epochs", "2", "--dim", "8", "--beam", "2"], {"--out": "order.csv"}),
    }


def _output_flags(outputs: dict, directory) -> list:
    return [x for flag, name in outputs.items() for x in (flag, str(directory / name))]


# the values the config-value sweep sets each option to
CONFIG_VALUES = [None, -1, 0, 1e308, 2**70, "", [], {}, "\u2581", "\0", "a\0b", "\ud800", True]
# the options left out of the sweep at 2**70, which only makes a run slow
SLOW_AT_2_70 = {("train", "epochs"), ("ablate-order", "epochs"), ("tag", "beam"), ("ablate-order", "beam")}


def test_cli_fuzz_config_values(world, tmp_path, monkeypatch, capsys):
    """Each option of each command set from a config file, which gives the command's
    required options too, to each of CONFIG_VALUES: every run exits 0 or 1, a failure
    with one JSON line on stderr, but for the one known exit 2. A string no path can
    hold is an InvalidConfig naming its section and key."""
    monkeypatch.chdir(tmp_path)  # an output named by a relative path such as "\u2581" lands here
    cfg, runs, cut_off = tmp_path / "cfg.json", 0, []
    for command, (argv, outputs) in _settled_runs(world, tmp_path).items():
        section = command.replace("-", "_")
        assert main([command, *argv, *_output_flags(outputs, tmp_path)]) == 0, command
        base = json.loads((tmp_path / (next(iter(outputs.values())) + ".runconfig.json")).read_text())[section]
        for key, value in [(None, None)] + [(key, value) for key in base for value in CONFIG_VALUES]:
            if value == 2**70 and (command, key) in SLOW_AT_2_70:
                continue
            cfg.write_text(json.dumps({section: base if key is None else {**base, key: value}}), encoding="utf-8")
            capsys.readouterr()
            rc = main(["--config", str(cfg), command])
            err = capsys.readouterr().err
            case = (command, key, value, rc, err)
            assert "Traceback" not in err and len(err.splitlines()) == (rc != 0), case
            if rc == 2:  # a decode the token budget cuts off, listed below
                assert json.loads(err)["error"] == "NoFinishedHypothesis", case
                cut_off.append((command, key, value))
            if key is None:  # the runconfig alone replays the run
                assert rc == 0, case
            elif rc:
                assert {"error", "message"} <= set(json.loads(err)), case
            if isinstance(value, str) and ("\0" in value or "\ud800" in value):
                error = json.loads(err)
                assert error["error"] == "InvalidConfig", case
                assert error["message"].startswith(f"config section {section!r}: {key} "), case
            runs += 1
    assert runs == 68 * len(CONFIG_VALUES) - len(SLOW_AT_2_70) + 7
    # without no-repeat, the world's scorer repeats names until the 256-token budget ends every hypothesis
    assert cut_off == [("tag", "max_entities", 2**70)]


def _train_argv(world, out, flag, path):
    files = {"--train": world["train"], "--kb": world["kb"], flag: path}
    return ["train", "--epochs", "2", "--dim", "8", "--model-out", out, *(str(x) for pair in files.items() for x in pair)]


# Copies the file named first on its command line into the named pipe named second.
_FEED = "import shutil, sys\nwith open(sys.argv[1], 'rb') as src, open(sys.argv[2], 'wb') as dst:\n    shutil.copyfileobj(src, dst)\n"


def _run_fed(argv: list, feeds: dict) -> subprocess.CompletedProcess:
    """``python -m ettag.cli argv`` in a child process, each named pipe in ``feeds`` (pipe -> the
    file fed through it) written by a child of its own. A command that hangs fails its test after
    60 s, and a feeder still waiting for a reader is killed, so nothing is left running."""
    feeders = []
    for pipe, src in feeds.items():
        os.mkfifo(pipe)
        feeders.append(subprocess.Popen([sys.executable, "-c", _FEED, str(src), str(pipe)], stderr=subprocess.DEVNULL))
    try:
        return subprocess.run([sys.executable, "-m", "ettag.cli", *map(str, argv)],
                              capture_output=True, text=True, timeout=60)
    finally:
        for feeder in feeders:
            feeder.kill()
            feeder.wait()


class TestNamedPipes:
    """An input that a command reads once may be a named pipe, as perfbench feeds ``tag --in`` and
    ``train --train``; ``build-kb``, which reads ``--kb`` twice, refuses one."""

    # a command and the flag whose file is fed through a pipe -> its argv maker, the kind of file
    # (a key of PADDING) and the world's valid one
    CASES = {"tag --in": (_tag_argv, "text", "eval"), "train --train": (_train_argv, "et", "train"),
             "train --kb": (_train_argv, "kb", "kb")}

    @pytest.mark.parametrize("case", CASES)
    def test_a_pipe_reads_as_the_file(self, world, tmp_path, case):
        argv, _, valid = self.CASES[case]
        flag, src = case.split()[1], world[valid]
        outputs = []
        for fed in (False, True):
            run = tmp_path / ("pipe" if fed else "file")
            run.mkdir()
            path = run / "input" if fed else src
            proc = _run_fed(argv(world, run / "out", flag, path), {path: src} if fed else {})
            assert proc.returncode == 0, proc.stderr
            # every output but the run config, which records the input's path
            outputs.append((proc.stdout, {p.name: p.read_bytes() for p in run.iterdir()
                                          if p != path and not p.name.endswith(".runconfig.json")}))
        assert outputs[0] == outputs[1] and outputs[0][1]

    @pytest.mark.parametrize("case", CASES)
    def test_a_bad_byte_from_a_pipe_is_raised_as_read(self, world, tmp_path, case):
        """A pipe cannot seek back for a whole read, so the decoder's own error is raised, and the
        command exits 1 without hanging."""
        argv, kind, _ = self.CASES[case]
        bad, pipe = tmp_path / "bad", tmp_path / "input"
        bad.write_bytes(_padded(kind, b"bad \xff byte\r\n"))
        proc = _run_fed(argv(world, tmp_path / "out", case.split()[1], pipe), {pipe: bad})
        assert proc.returncode == 1
        err = json.loads(proc.stderr)
        assert err["error"] == "UnicodeDecodeError" and "can't decode byte 0xff" in err["message"]

    def test_build_kb_refuses_a_named_pipe(self, world, tmp_path):
        """``build-kb`` hashes ``--kb`` and then loads it. A pipe's second open would wait for a
        writer that is gone, so a pipe exits 1 at once."""
        pipe, cache = tmp_path / "kb", tmp_path / "kb.trie"
        proc = _run_fed(["build-kb", "--kb", pipe, "--cache-out", cache], {pipe: world["kb"]})
        assert proc.returncode == 1
        assert json.loads(proc.stderr) == {
            "error": "InputError",
            "message": f"--kb {pipe} is not a regular file: build-kb reads it twice, to hash it and to load it",
        }
        assert not cache.exists()


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, world, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": {"epochs": 2, "dim": 8, "seed": 11}}), encoding="utf-8")
        model = tmp_path / "m.bin"
        rc = main(
            [
                "--config", str(cfg),
                "train", "--train", str(world["train"]), "--kb", str(world["kb"]),
                "--model-out", str(model), "--epochs", "3",
            ]
        )
        assert rc == 0
        run = json.loads((tmp_path / "m.bin.runconfig.json").read_text())
        assert run["train"]["epochs"] == 3  # flag wins
        assert run["train"]["dim"] == 8  # config fills the gap
        assert run["train"]["seed"] == 11

    def test_unknown_config_key_exit_1(self, world, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tag": {"beams": 5}}), encoding="utf-8")
        rc = main(
            [
                "--config", str(cfg),
                "tag", "--model", str(world["model"]), "--kb", str(world["kb"]),
                "--in", str(world["eval"]), "--out", str(tmp_path / "p.jsonl"),
            ]
        )
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InputError" and "beams" in err["message"]

    def test_optimizer_config_key_exit_1(self, world, tmp_path, capsys):
        """Adam is the one optimizer, so ``optimizer`` is no setting of ``train``."""
        cfg, model = tmp_path / "cfg.json", tmp_path / "m.bin"
        cfg.write_text(json.dumps({"train": {"optimizer": "adam"}}), encoding="utf-8")
        argv = ["train", "--train", str(world["train"]), "--kb", str(world["kb"]), "--model-out", str(model)]
        capsys.readouterr()
        assert main(["--config", str(cfg), *argv]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "InputError", "message": "config section 'train': unknown keys ['optimizer']"}
        assert not model.exists()

    @pytest.mark.parametrize("section, value", [("tagg", {"beam": 0}), ("tag", 5), ("build_kb", [])])
    def test_every_section_is_a_command_object(self, world, tmp_path, capsys, section, value):
        """A section named after no command, or one that is not an object,
        fails every command, not only the one it would configure."""
        cfg = tmp_path / "cfg.json"
        model = tmp_path / "m.bin"
        argv = ["train", "--train", str(world["train"]), "--kb", str(world["kb"]), "--model-out", str(model)]
        cfg.write_text(json.dumps({section: value, "train": {"epochs": 1, "dim": 4}}), encoding="utf-8")
        assert main(["--config", str(cfg), *argv]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InputError" and repr(section) in err["message"]
        assert not model.exists()
        # a section for another command is allowed: one file serves train and tag
        cfg.write_text(json.dumps({"tag": {"beam": 3}, "train": {"epochs": 1, "dim": 4}}), encoding="utf-8")
        assert main(["--config", str(cfg), *argv]) == 0

    def test_config_that_is_not_an_object_exit_1(self, world, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1]", encoding="utf-8")
        argv = ["--config", str(cfg), "build-kb", "--kb", str(world["kb"]), "--cache-out", str(tmp_path / "t")]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "InputError"
        assert "config must be a JSON object" in json.loads(err[0])["message"]
        assert not (tmp_path / "t").exists()

    def test_an_integer_serves_a_float_flag(self, world, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": {"lr": 1, "epochs": 1, "dim": 4}}), encoding="utf-8")
        model = tmp_path / "m.bin"
        argv = ["train", "--train", str(world["train"]), "--kb", str(world["kb"]), "--model-out", str(model)]
        assert main(["--config", str(cfg), *argv]) == 0
        lr = json.loads((tmp_path / "m.bin.runconfig.json").read_text())["train"]["lr"]
        assert lr == 1.0 and type(lr) is float

    def test_flagless_runconfig_records_dataclass_defaults(self, world, tmp_path, capsys):
        flag_of = {field: flag for flag, field in _FIELD_OF.items()}
        pred = tmp_path / "p.jsonl"
        model = tmp_path / "m.bin"
        assert main(
            [
                "tag", "--model", str(world["model"]), "--kb", str(world["kb"]),
                "--in", str(world["eval"]), "--out", str(pred),
            ]
        ) == 0
        assert main(
            ["train", "--train", str(world["train"]), "--kb", str(world["kb"]), "--model-out", str(model)]
        ) == 0
        for out, cls, section in ((pred, DecodeConfig, "tag"), (model, TrainConfig, "train")):
            recorded = json.loads(out.with_name(out.name + ".runconfig.json").read_text())[section]
            for field in dataclasses.fields(cls):
                assert recorded[flag_of.get(field.name, field.name)] == getattr(cls(), field.name)

    @pytest.mark.parametrize("command", ["build-kb", "convert", "train", "tag", "eval", "ablate-beam", "ablate-order"])
    def test_a_runconfig_replays_its_run(self, world, tmp_path, capsys, command):
        """``--config <runconfig> <command>``, given only the output flags, prints and writes
        every output byte for byte as the run did, and records the run's runconfig but for
        the output paths."""
        argv, outputs = _settled_runs(world, tmp_path)[command]
        first, replay = tmp_path / "first", tmp_path / "replay"
        first.mkdir()
        replay.mkdir()
        capsys.readouterr()
        assert main([command, *argv, *_output_flags(outputs, first)]) == 0
        printed = capsys.readouterr().out
        runconfig = first / (next(iter(outputs.values())) + ".runconfig.json")
        assert main(["--config", str(runconfig), command, *_output_flags(outputs, replay)]) == 0
        assert capsys.readouterr().out == printed
        written = sorted(p.name for p in first.iterdir())
        assert written == sorted(p.name for p in replay.iterdir()) and len(written) > len(outputs)
        for name in written:
            if name != runconfig.name:
                assert (first / name).read_bytes() == (replay / name).read_bytes(), name
        section = command.replace("-", "_")
        recorded = json.loads(runconfig.read_text())
        moved = {flag[2:].replace("-", "_"): str(replay / name) for flag, name in outputs.items()}
        assert json.loads((replay / runconfig.name).read_text()) == {
            section: {**recorded[section], **moved}, "version": ettag.__version__}

    def test_a_runconfig_replays_non_utf8_arguments(self, world, tmp_path):
        """A path and a dataset name holding a byte that is not UTF-8 reach the program as
        the surrogate escape U+DCFF, and the runconfig records them so; replaying it prints
        and writes every output byte for byte as the run did."""
        argv, outputs = _settled_runs(world, tmp_path)["eval"]
        argv = [a if a != "synthetic" else "\udcff" for a in argv]
        report = "r\udcff.json"
        env = {**os.environ, "PYTHONUTF8": "1"}  # stdout writes the escape back as its byte

        def run(*args):
            done = subprocess.run([sys.executable, "-m", "ettag.cli", *args], cwd=tmp_path, env=env,
                                  capture_output=True, timeout=60)
            assert done.returncode == 0, done.stderr
            return done.stdout, {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.name.startswith("r")}

        printed, written = run("eval", *argv, "--json-out", report)
        assert b"\xff" in printed and sorted(written) == [report, report + ".runconfig.json"]
        recorded = json.loads(written[report + ".runconfig.json"])["eval"]
        assert (recorded["json_out"], recorded["dataset_name"]) == (report, "\udcff")
        assert run("--config", report + ".runconfig.json", "eval") == (printed, written)

    def test_a_required_option_may_come_from_the_file(self, world, tmp_path, capsys):
        """A required option comes from its flag or from the config file. Given by
        neither, it is a UsageError in argparse's words, and nothing is written."""
        cfg, out = tmp_path / "cfg.json", tmp_path / "p.jsonl"
        cfg.write_text(json.dumps({"tag": {"kb": str(world["kb"]), "out": str(out)}}), encoding="utf-8")
        capsys.readouterr()
        assert main(["--config", str(cfg), "tag"]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "UsageError", "message": "ettag tag: the following arguments are required: --model, --in"}
        assert not out.exists()
        assert main(["--config", str(cfg), "tag", "--model", str(world["model"]), "--in", str(world["eval"])]) == 0
        assert out.exists()

    def test_a_flag_turns_a_runconfig_s_true_off(self, world, tmp_path, capsys):
        """Every boolean option takes a BOOL, so a flag can override a ``true`` in the file."""
        pred, again = tmp_path / "p.jsonl", tmp_path / "q.jsonl"
        assert main(["tag", "--model", str(world["model"]), "--kb", str(world["kb"]), "--in", str(world["eval"]),
                     "--out", str(pred), "--allow-empty", "true", "--length-normalize", "true"]) == 0
        runconfig = pred.with_name(pred.name + ".runconfig.json")
        assert main(["--config", str(runconfig), "tag", "--allow-empty", "false", "--out", str(again)]) == 0
        recorded = json.loads(again.with_name(again.name + ".runconfig.json").read_text())["tag"]
        assert (recorded["allow_empty"], recorded["length_normalize"]) == (False, True)

    @pytest.mark.parametrize("version, rc", [("0.1.0", 0), ("not this package's", 0), (1, 1), ({}, 1)])
    def test_a_version_string_may_stand_beside_the_sections(self, world, tmp_path, capsys, version, rc):
        cfg, cache = tmp_path / "cfg.json", tmp_path / "kb.trie"
        cfg.write_text(json.dumps({"build_kb": {"kb": str(world["kb"])}, "version": version}), encoding="utf-8")
        capsys.readouterr()
        assert main(["--config", str(cfg), "build-kb", "--cache-out", str(cache)]) == rc
        if rc:
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "InputError" and "'version'" in err["message"]
        assert cache.exists() is not rc


# Options of the decode/train commands that configure neither dataclass.
NON_CONFIG_DESTS = {
    "help", "model", "kb", "kb_cache", "in_path", "out",
    "train", "model_out", "min_count", "eval", "beams", "strategies",
}


def test_every_default_lives_in_one_place():
    """No flag carries its own default, and every decode/train flag sets a dataclass field."""
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    fields = {f.name for cls in (DecodeConfig, TrainConfig) for f in dataclasses.fields(cls)}
    for name, sub in subparsers.choices.items():
        for action in sub._actions:
            if action.dest == "help":
                continue
            assert action.default is None, (name, action.dest)
            if name in ("tag", "train", "ablate-beam", "ablate-order") and action.dest not in NON_CONFIG_DESTS:
                assert _FIELD_OF.get(action.dest, action.dest) in fields, (name, action.dest)


def test_readme_commands_parse():
    """Every ``ettag`` command in the README's bash blocks, its continuation
    lines joined, parses with the CLI's parser (none is run), and together
    they show every command. A flag the CLI drops fails here if the README
    still shows it."""
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```bash\n(.*?)^```", readme, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("ettag "):
                commands.append(shlex.split(line, comments=True)[1:])
    shown = {build_parser().parse_args(argv).command for argv in commands}  # a line may start with --config
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert shown == set(subparsers.choices)


class TestOtherFormats:
    def test_convert_el_jsonl(self, tmp_path, capsys):
        kb = tmp_path / "kb.txt"
        kb.write_text("Earth\nMars\n", encoding="utf-8")
        src = tmp_path / "docs.jsonl"
        src.write_text(
            json.dumps(
                {
                    "doc_id": "d1",
                    "text": "earth and mars",
                    "mentions": [
                        {"start": 0, "end": 5, "entity": "Earth"},
                        {"start": 10, "end": 14, "entity": "Mars"},
                        {"start": 6, "end": 9, "entity": None},
                    ],
                }
            ),
            encoding="utf-8",
        )
        out = tmp_path / "et.jsonl"
        rc = main(
            ["convert", "--format", "el-jsonl", "--in", str(src), "--out", str(out), "--kb", str(kb)]
        )
        assert rc == 0
        rec = json.loads(out.read_text().strip())
        assert rec["gold"] == ["Earth", "Mars"]

    def test_convert_wiki_abstracts(self, tmp_path, capsys):
        kb = tmp_path / "kb.txt"
        kb.write_text("Dog\nPets\n", encoding="utf-8")
        src = tmp_path / "wiki.jsonl"
        src.write_text(
            json.dumps(
                {
                    "title": "Pets",
                    "text": "dogs everywhere",
                    "anchors": [{"start": 0, "end": 4, "entity": "Dog"}],
                }
            ),
            encoding="utf-8",
        )
        out = tmp_path / "et.jsonl"
        rc = main(
            ["convert", "--format", "wiki-abstracts", "--in", str(src), "--out", str(out), "--kb", str(kb)]
        )
        assert rc == 0
        rec = json.loads(out.read_text().strip())
        assert rec["gold"] == ["Dog", "Pets"]
        assert rec["gold_order"] == ["Dog", "Pets"]


def test_console_script_smoke(tmp_path):
    kb = tmp_path / "kb.txt"
    kb.write_text("Earth\nMars\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "ettag.cli", "build-kb", "--kb", str(kb),
         "--cache-out", str(tmp_path / "kb.trie")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["entity_count"] == 2


# Names, document ids and texts outside ASCII, so the JSONL layout shows whether
# they are written as themselves or as \u escapes.
UNICODE_NAMES = ["Zürich", "São Paulo", "Ærø"]
UNICODE_DOCS = [
    ("dóc-1", "Zürich und São Paulo", [(0, 6, "Zürich"), (11, 20, "São Paulo")]),
    ("dóc-2", "Ærø near Zürich", [(0, 3, "Ærø"), (9, 15, "Zürich")]),
    ("dóc-3", "São Paulo", [(0, 9, "São Paulo")]),
]


@pytest.fixture(scope="module")
def unicode_run(tmp_path_factory):
    """The directory in which every command that writes a text output ran once, on a non-ASCII KB."""
    root = tmp_path_factory.mktemp("layout")
    (root / "kb.txt").write_text("".join(n + "\n" for n in UNICODE_NAMES), encoding="utf-8")
    (root / "el.jsonl").write_text("".join(
        json.dumps({"doc_id": d, "text": t, "mentions": [{"start": s, "end": e, "entity": n} for s, e, n in ms]}) + "\n"
        for d, t, ms in UNICODE_DOCS
    ), encoding="utf-8")
    kb, et, model = (str(root / n) for n in ("kb.txt", "et.jsonl", "model.bin"))
    train = ["--epochs", "3", "--seed", "0", "--dim", "8"]
    for argv in (
        ["convert", "--format", "el-jsonl", "--in", str(root / "el.jsonl"), "--out", et, "--kb", kb,
         "--stats-out", str(root / "stats.json")],
        ["train", "--train", et, "--kb", kb, "--model-out", model, *train],
        ["tag", "--model", model, "--kb", kb, "--in", et, "--out", str(root / "pred.jsonl"), "--beam", "2"],
        ["eval", "--pred", str(root / "pred.jsonl"), "--gold", et, "--json-out", str(root / "report.json")],
        ["ablate-beam", "--model", model, "--kb", kb, "--eval", et, "--beams", "1,2", "--out", str(root / "beam.csv")],
        ["ablate-order", "--train", et, "--eval", et, "--kb", kb, "--out", str(root / "order.csv"), *train],
    ):
        assert main(argv) == 0, argv
    return root


class TestOutputLayouts:
    """The byte layout of every text output, not only what a parser reads back."""

    SIX_DECIMALS = r"-?\d+\.\d{6}"

    @pytest.mark.parametrize("name, header, floats", [
        ("model.bin.loss.csv", "epoch,mean_nll", [1]),
        ("beam.csv", "beam,micro_f1,macro_f1", [1, 2]),
        ("order.csv", "strategy,micro_f1,macro_f1,final_loss", [1, 2, 3]),
    ])
    def test_csv(self, unicode_run, name, header, floats):
        raw = (unicode_run / name).read_bytes()
        assert raw.endswith(b"\r\n")
        lines = raw.decode("utf-8").split("\r\n")[:-1]
        assert lines[0] == header and all("\n" not in line for line in lines)
        assert len(lines) > 1
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == len(header.split(","))
            for i in floats:
                assert re.fullmatch(self.SIX_DECIMALS, cells[i]), line

    @pytest.mark.parametrize("name", [
        "stats.json", "report.json", "et.jsonl.runconfig.json", "model.bin.runconfig.json",
        "pred.jsonl.runconfig.json", "report.json.runconfig.json", "beam.csv.runconfig.json",
        "order.csv.runconfig.json",
    ])
    def test_json(self, unicode_run, name):
        text = (unicode_run / name).read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("name", ["et.jsonl", "pred.jsonl"])
    def test_jsonl_writes_non_ascii_as_itself(self, unicode_run, name):
        text = (unicode_run / name).read_text(encoding="utf-8")
        assert text.endswith("\n") and "\\u" not in text
        assert "dóc-1" in text and any(n in text for n in UNICODE_NAMES)
        for line in text.splitlines():
            assert line == json.dumps(json.loads(line), ensure_ascii=False)

    def test_et_jsonl_exact_line(self, unicode_run):
        first = (unicode_run / "et.jsonl").read_text(encoding="utf-8").splitlines()[0]
        assert first == ('{"doc_id": "dóc-1", "text": "Zürich und São Paulo", '
                         '"gold": ["São Paulo", "Zürich"], "gold_order": ["Zürich", "São Paulo"]}')
