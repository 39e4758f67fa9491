"""Make one run's inputs: fixtures (cached) and seeded documents.

    python3 perfbench/prepare.py --workload W --seed N --work DIR --cache DIR --src-digest HEX

A fixture is a KB file and a tagging scorer trained on it by the commit's
own ``ettag train``. Fixtures are built from a fixed seed once per checkout
and cached under ``.bench_cache`` keyed by the package source digest, so a
run pays for them only the first time and every seed decodes with the same
model. The documents each beam tags and the corpus the timed ``train``
commands learn from are fixed sets, also from the fixed seed, so micro-F1
and final NLL are quality guards that no seed moves far; ``--seed`` draws
the order in which each set's records arrive (which also moves the order
``train`` visits examples in). None of this is timed. It runs in a process of its own so that the runner, which spawns the
timed commands, never holds the generator's memory: a child's peak RSS as
``wait4`` reports it is at least its parent's at spawn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import BEAMS, WORKLOADS, Corpus, Workload, resolve

FIXTURE_SEED = 0
GOLD_RANGE = (2, 6)
NOISE_PROB = 0.4


@dataclass
class Fixture:
    kb: Path
    scorer: Path
    pool: list[str]    # names the documents draw from
    noise: list[str]   # words sprinkled between names


def _write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec, ensure_ascii=False) + "\n")


def spell_docs(rng: np.random.Generator, pool: list[str], noise: list[str], n: int, prefix: str) -> list[dict]:
    """Documents that spell 2-6 pool names in mention order, each followed by
    a noise word with probability 0.4 (the synthetic_benchmark recipe)."""
    docs = []
    for i in range(n):
        m = int(rng.integers(GOLD_RANGE[0], GOLD_RANGE[1] + 1))
        gold = [pool[int(j)] for j in rng.choice(len(pool), size=m, replace=False)]
        pieces = []
        for name in gold:
            pieces.append(name)
            if rng.random() < NOISE_PROB:
                pieces.append(noise[int(rng.integers(0, len(noise)))])
        docs.append({"doc_id": f"{prefix}-{i:05d}", "text": " ".join(pieces), "gold": sorted(gold), "gold_order": gold})
    return docs


def _fixture_corpus(corpus: Corpus):
    """(KB names, pool, noise words, scorer training records) from FIXTURE_SEED."""
    if corpus.kb_names == 0:
        from ettag.synthetic import synthetic_benchmark

        data = synthetic_benchmark(seed=FIXTURE_SEED, n_entities=50, n_train=corpus.scorer_docs, n_eval=0)
        names = list(data.catalog)
        train = [
            {
                "doc_id": ex.doc_id,
                "text": ex.text,
                "gold": sorted(names[e] for e in ex.gold),
                "gold_order": [names[e] for e in ex.gold_order],
            }
            for ex in data.train
        ]
        name_words = {t for n in names for t in n.split()}
        noise = sorted({t for r in train for t in r["text"].split()} - name_words)
        return names, names, noise, train
    from ettag.synthetic import synthetic_kb_names

    names = synthetic_kb_names(corpus.kb_names, seed=FIXTURE_SEED)
    rng = np.random.default_rng([FIXTURE_SEED, corpus.kb_names])
    alpha = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    noise = ["".join(rng.choice(alpha, size=int(rng.integers(4, 10)))) for _ in range(30)]
    pool = [names[int(i)] for i in rng.choice(len(names), size=50, replace=False)]
    return names, pool, noise, spell_docs(rng, pool, noise, corpus.scorer_docs, "fixture")


def fixture(corpus: Corpus, cache: Path, src_digest: str, train_scorer) -> Fixture:
    """Build the corpus fixture, or reuse the cached one for these sources.

    ``train_scorer(argv)`` runs ``ettag train`` and returns its exit code.
    """
    key = hashlib.sha256(repr((src_digest, corpus, FIXTURE_SEED)).encode()).hexdigest()[:20]
    final = cache / f"{corpus.name}-{key}"
    if not (final / "fixture.json").is_file():
        tmp = final.with_name(final.name + ".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        names, pool, noise, train = _fixture_corpus(corpus)
        (tmp / "kb.txt").write_text("".join(n + "\n" for n in names), encoding="utf-8")
        _write_jsonl(tmp / "train.jsonl", train)
        argv = [
            "train", "--train", str(tmp / "train.jsonl"), "--kb", str(tmp / "kb.txt"),
            "--model-out", str(tmp / "model.bin"), "--seed", str(FIXTURE_SEED),
            *corpus.model_args, *corpus.scorer_args,
        ]
        if train_scorer(argv) != 0:
            shutil.rmtree(tmp, ignore_errors=True)
            raise RuntimeError(f"training the {corpus.name} fixture scorer failed")
        (tmp / "fixture.json").write_text(json.dumps({"pool": pool, "noise": noise}), encoding="utf-8")
        shutil.rmtree(final, ignore_errors=True)
        tmp.rename(final)
    meta = json.loads((final / "fixture.json").read_text(encoding="utf-8"))
    return Fixture(kb=final / "kb.txt", scorer=final / "model.bin", pool=meta["pool"], noise=meta["noise"])


def make_inputs(w: Workload, seed: int, work: Path, fix: Fixture) -> dict:
    """Write the documents and training corpus under ``work``; returns the
    manifest the runner reads.

    Beam N tags the first N-count evaluation documents, in an order drawn
    from ``seed``. With 30-100 documents at beams 5 and 20, a fresh draw
    of documents per seed moved micro-F1 by up to a quarter between seeds,
    and a fresh corpus of 60-200 examples moved final NLL by up to 8 %.
    """
    evaluation = spell_docs(np.random.default_rng([FIXTURE_SEED, 1]), fix.pool, fix.noise, max(w.tag_docs), "doc")
    corpus = spell_docs(np.random.default_rng([FIXTURE_SEED, 2]), fix.pool, fix.noise, w.train_docs, "train")
    order = np.random.default_rng(seed)
    train = [corpus[int(i)] for i in order.permutation(len(corpus))]
    docs, doc_ids = {}, {}
    for beam, n in zip(BEAMS, w.tag_docs):
        tag = [evaluation[int(i)] for i in order.permutation(n)]
        docs[beam] = str(work / f"docs_b{beam}.jsonl")
        doc_ids[beam] = [r["doc_id"] for r in tag]
        _write_jsonl(Path(docs[beam]), tag)
    _write_jsonl(work / "train.jsonl", train)
    return {
        "kb": str(fix.kb),
        "scorer": str(fix.scorer),
        "docs": docs,
        "doc_ids": doc_ids,
        "train": str(work / "train.jsonl"),
        "n_train": len(train),
    }


def _numpy_build() -> dict:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--cache", type=Path, required=True)
    parser.add_argument("--src-digest", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    w = resolve(args.workload, args.smoke)

    def train_scorer(cli_argv):
        return subprocess.run([sys.executable, "-m", "ettag.cli", *cli_argv], stdout=subprocess.DEVNULL).returncode

    # Every workload's fixture is built on the first run in a checkout, so
    # that run alone pays for them (a kb-470k fixture adds about 45 s).
    fixtures = {
        corpus.name: fixture(corpus, args.cache, args.src_digest, train_scorer)
        for corpus in (resolve(name, args.smoke).corpus for name in sorted(WORKLOADS))
    }
    fix = fixtures[w.corpus.name]
    manifest = {**make_inputs(w, args.seed, args.work, fix), **_numpy_build()}
    (args.work / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
