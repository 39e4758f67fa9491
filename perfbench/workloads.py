"""The benchmark's workloads: what each run feeds to the CLI, and at what size.

Each workload runs every command (build-kb, tag at beam 1/5/20, eval, train
at batch size 1/16); the sizes decide which layer dominates. Inputs are made
by ``prepare.py``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path

BEAMS = (1, 5, 20)
BATCH_SIZES = (1, 16)


@dataclass(frozen=True)
class Corpus:
    """How a fixture is made. ``model_args`` shape every model trained on it."""

    name: str
    kb_names: int                   # 0: the 50-name synthetic_benchmark catalog
    scorer_docs: int
    scorer_args: tuple[str, ...]    # extra `ettag train` flags of the tagging scorer
    model_args: tuple[str, ...]


DESK = Corpus(
    name="desk",
    kb_names=0,
    scorer_docs=600,
    scorer_args=("--epochs", "30"),
    model_args=("--order-strategy", "shuffle", "--dim", "24", "--window", "10"),
)
KB = Corpus(
    name="kb",
    kb_names=470_578,
    scorer_docs=800,
    scorer_args=("--epochs", "8", "--batch-size", "4"),
    model_args=("--order-strategy", "shuffle", "--dim", "8", "--window", "10", "--lr", "0.03"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: Corpus
    tag_docs: tuple[int, int, int]   # documents tagged at beam 1, 5, 20 (prefixes of one fixed list)
    train_docs: int                  # examples of the timed train runs
    train_epochs: tuple[int, int]    # epochs of the timed train runs at batch size 1, 16
    min_passes: int                  # passes a run makes even when they overrun --seconds


# A pass runs every timed command once. A desk-tag pass takes about 6 s, so a
# 30 s run makes four to six and each timing is a median of that many
# samples. A kb-470k pass takes 30-40 s (build-kb and each tag's set-up
# cost 8 s and 4 s), so it makes the minimum two; its metrics are medians of
# two. kb-470k trains for several epochs so that most of a `train` command's
# time after it opens its corpus is training, not the vocabulary build over
# the catalog, whose time drifts more from run to run.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk-tag", DESK, tag_docs=(600, 250, 70), train_docs=200, train_epochs=(3, 6), min_passes=3),
        Workload("kb-470k", KB, tag_docs=(200, 64, 20), train_docs=60, train_epochs=(3, 6), min_passes=2),
    )
}


def smoke(w: Workload) -> Workload:
    """Tiny variant of a workload for the benchmark's own tests."""
    corpus = replace(
        w.corpus,
        kb_names=3000 if w.corpus.kb_names else 0,
        scorer_docs=20,
        scorer_args=("--epochs", "3"),
    )
    return replace(w, corpus=corpus, tag_docs=(6, 4, 3), train_docs=8, train_epochs=(1, 1), min_passes=2)


def resolve(name: str, smoke_sizes: bool) -> Workload:
    return smoke(WORKLOADS[name]) if smoke_sizes else WORKLOADS[name]


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()
