import argparse
import csv
import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from ettag.catalog import EntityCatalog, build_vocabularies, nul_terminated
from ettag.cli import _FIELD_OF, build_parser, main
from ettag.decoding import DecodeConfig
from ettag.ingest import read_et_jsonl, write_et_jsonl
from ettag.synthetic import synthetic_benchmark
from ettag.toy_model import _CHECKPOINT, TrainConfig, load_checkpoint, save_checkpoint

from helpers import write_aida_file


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
        loss_rows = list(csv.reader((world["root"] / "model.bin.loss.csv").open()))
        assert loss_rows[0] == ["epoch", "mean_nll"]
        assert len(loss_rows) == 61
        runconfig = json.loads((world["root"] / "model.bin.runconfig.json").read_text())
        assert runconfig["command"] == "train"
        assert runconfig["config"]["epochs"] == 60
        assert runconfig["config"]["seed"] == 3

    def test_loss_decreases(self, world):
        rows = list(csv.reader((world["root"] / "model.bin.loss.csv").open()))[1:]
        losses = [float(r[1]) for r in rows]
        assert losses[-1] < losses[0]


class TestTagAndEval:
    def run_tag(self, world, out_name, extra=()):
        out = world["root"] / out_name
        rc = main(
            [
                "tag",
                "--model", str(world["model"]),
                "--kb", str(world["kb"]),
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
        cache = world["root"] / "kb2.trie"
        assert main(["build-kb", "--kb", str(world["kb"]), "--cache-out", str(cache)]) == 0
        capsys.readouterr()
        out = self.run_tag(world, "pred_cache.jsonl", ("--kb-cache", str(cache)))
        plain = self.run_tag(world, "pred_plain.jsonl")
        assert out.read_text() == plain.read_text()


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
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["beam", "micro_f1", "macro_f1"]
        assert [r[0] for r in rows[1:]] == ["1", "3", "5"]
        for r in rows[1:]:
            assert 0.0 <= float(r[1]) <= 1.0

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
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["strategy", "micro_f1", "macro_f1", "final_loss"]
        assert [r[0] for r in rows[1:]] == ["shuffle", "mention_order"]


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

    def test_duplicate_kb_exit_1(self, tmp_path, capsys):
        kb = tmp_path / "dup.txt"
        kb.write_text("Earth\nEarth\n", encoding="utf-8")
        rc = main(["build-kb", "--kb", str(kb), "--cache-out", str(tmp_path / "t.trie")])
        assert rc == 1

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
        ],
    )
    def test_out_of_range_setting_exit_1(self, world, tmp_path, capsys, command, bad, config):
        argv = [command, "--kb", str(world["kb"])]
        if command == "tag":
            argv += ["--model", str(world["model"]), "--in", str(world["eval"])]
            argv += ["--out", str(tmp_path / "p.jsonl")]
        else:
            argv += ["--train", str(world["train"]), "--model-out", str(tmp_path / "m.bin")]
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config), encoding="utf-8")
            argv = ["--config", str(cfg), *argv]
        capsys.readouterr()
        assert main(argv + bad) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert json.loads(err)["error"] == "InvalidConfig"
        assert not (tmp_path / "p.jsonl").exists() and not (tmp_path / "m.bin").exists()

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
        assert main(argv + ["--optimizer", "sgd", "--lr", "1e6", "--epochs", "3"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "InputError"
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("kind", ["kb", "text"])
    def test_non_utf8_input_exit_1(self, world, tmp_path, capsys, kind):
        bad = tmp_path / "bad"
        bad.write_bytes(VALID[kind](world).read_bytes() + b"\xff\n")
        assert main(CONSUMERS[kind](world, str(bad), str(tmp_path / "out"))) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "UnicodeDecodeError"

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
        ],
    )
    def test_wrongly_typed_field_exit_1(self, world, tmp_path, capsys, kind, record, field):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert main(CONSUMERS[kind](world, str(bad), str(tmp_path / "out"))) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SchemaError" and repr(field) in err["message"]

    def test_ablate_beam_duplicate_doc_id_exit_1(self, world, tmp_path, capsys):
        lines = world["eval"].read_text(encoding="utf-8").splitlines()
        docs = tmp_path / "dup.jsonl"
        docs.write_text("\n".join(lines[:5] + lines[2:3]) + "\n", encoding="utf-8")
        out = tmp_path / "beam.csv"
        assert main(CONSUMERS["et"](world, str(docs), str(out))) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "SchemaError"
        assert not out.exists()

    @pytest.mark.parametrize("beams, error", [("1,x", "InputError"), (",", "InputError"), ("1,0", "InvalidConfig")])
    def test_ablate_beam_bad_beams_exit_1(self, world, tmp_path, capsys, beams, error):
        argv = CONSUMERS["et"](world, str(world["eval"]), str(tmp_path / "beam.csv"))
        assert main(argv + ["--beams", beams]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == error


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
}

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
        assert run["config"]["epochs"] == 3  # flag wins
        assert run["config"]["dim"] == 8  # config fills the gap
        assert run["config"]["seed"] == 11

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
        for out, cls in ((pred, DecodeConfig), (model, TrainConfig)):
            recorded = json.loads(out.with_name(out.name + ".runconfig.json").read_text())["config"]
            for field in dataclasses.fields(cls):
                assert recorded[flag_of.get(field.name, field.name)] == getattr(cls(), field.name)


# Options of the decode/train commands that configure neither dataclass.
NON_CONFIG_DESTS = {
    "help", "model", "kb", "kb_format", "kb_cache", "in_path", "out",
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


class TestBenchAndEnv:
    def test_bench_synthetic(self, tmp_path, capsys):
        rc = main(["bench", "--synthetic", "1500", "--latency-samples", "1000"])
        assert rc == 0
        stats = json.loads(capsys.readouterr().out.strip())
        assert stats["entity_count"] == 1500
        assert stats["build_seconds"] >= 0
        assert {"p50", "p90", "p99"} <= set(stats["latency_us"])

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

    def test_build_kb_bit_reproducible(self, world, tmp_path):
        a, b = tmp_path / "a.trie", tmp_path / "b.trie"
        assert main(["build-kb", "--kb", str(world["kb"]), "--cache-out", str(a)]) == 0
        assert main(["build-kb", "--kb", str(world["kb"]), "--cache-out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


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
