"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selftest.py

Kept out of the package suite's ``test_*.py`` pattern: the smoke runs start
the CLI a few dozen times.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from run import Harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize(
    "workload,trace", [(w, 0) for w in sorted(WORKLOADS)] + [("kb-470k", 1)]
)
def test_smoke_emits_every_declared_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_smoke_counts_repeat_exactly():
    def counts(seed):
        proc = _run("--workload", "desk-tag", "--seed", str(seed), "--seconds", "1", "--trace", "0", "--smoke")
        lines = proc.stdout.strip().splitlines()
        metrics = json.loads(lines[-1])["metrics"]
        quality = {k: v["value"] for k, v in metrics.items() if k.startswith(("micro_f1", "final_nll"))}
        return json.loads(lines[-2])["prediction_sha256"], quality

    digests, quality = counts(4)
    assert (digests, quality) == counts(4)
    # Another seed reorders the same documents: the predictions and F1 hold.
    other_digests, other_quality = counts(5)
    assert other_digests == digests
    assert {k: v for k, v in other_quality.items() if k.startswith("micro_f1")} == {
        k: v for k, v in quality.items() if k.startswith("micro_f1")
    }


def _predictions(path: Path, records) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


GOOD = [
    {"doc_id": "a", "entities": ["x y"], "score": -1.0, "dropped": 0},
    {"doc_id": "b", "entities": [], "score": -2.0, "dropped": 0},
]


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda recs: recs[:1],                                        # a document without a prediction
        lambda recs: recs + recs[:1],                                 # a document predicted twice
        lambda recs: [{**recs[0], "entities": ["not in kb"]}, recs[1]],
        lambda recs: [{**recs[0], "dropped": 1}, recs[1]],
        lambda recs: [{**recs[0], "doc_id": "zz"}, recs[1]],
    ],
)
def test_corrupted_prediction_file_counts_as_failed(tmp_path, corrupt):
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    _predictions(good, GOOD)
    _predictions(bad, corrupt(GOOD))
    h = Harness(tmp_path, deadline=0.0)
    assert h.op("tag", checks.check_predictions(good, ["a", "b"], {"x y"}))
    assert not h.op("tag", checks.check_predictions(bad, ["a", "b"], {"x y"}))
    assert (h.attempted, h.failed) == (2, 1)


def test_truncated_prediction_file_counts_as_failed(tmp_path):
    path = tmp_path / "pred.jsonl"
    _predictions(path, GOOD)
    path.write_bytes(path.read_bytes()[:-20])
    assert checks.check_predictions(path, ["a", "b"], {"x y"})


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "desk-tag", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (tmp_path / ".bench_work").exists()
