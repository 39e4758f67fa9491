"""Set-based precision/recall/F1 with micro and per-document macro aggregation.

Edge conventions: precision is 1 when nothing was predicted, recall is 1
when the gold set is empty, F1 is 0 when P+R is 0 (so two empty sets score
a perfect 1.0). Scores are fractions in [0, 1]; report formatting prints
percentages with one decimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import EmptyDataset

# report style -> the statistics it reports: table2 F1, table4 P and R
REPORT_STYLES = {"table2": ("f1",), "table4": ("precision", "recall")}


@dataclass(frozen=True)
class DocScore:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int) -> "DocScore":
        p = 1.0 if tp + fp == 0 else tp / (tp + fp)
        r = 1.0 if tp + fn == 0 else tp / (tp + fn)
        f1 = 0.0 if p + r == 0 else 2 * p * r / (p + r)
        return cls(tp=tp, fp=fp, fn=fn, precision=p, recall=r, f1=f1)


@dataclass(frozen=True)
class DatasetReport:
    per_doc: tuple[DocScore, ...]
    micro: DocScore
    macro_precision: float
    macro_recall: float
    macro_f1: float

    @property
    def n_docs(self) -> int:
        return len(self.per_doc)

    def as_dict(self) -> dict:
        return {
            "n_docs": self.n_docs,
            "micro": {
                "precision": self.micro.precision,
                "recall": self.micro.recall,
                "f1": self.micro.f1,
            },
            "macro": {
                "precision": self.macro_precision,
                "recall": self.macro_recall,
                "f1": self.macro_f1,
            },
        }


def prf1(pred: Iterable[int], gold: Iterable[int]) -> DocScore:
    """Precision/recall/F1 between two entity sets."""
    pred = set(pred)
    gold = set(gold)
    tp = len(pred & gold)
    return DocScore.from_counts(tp=tp, fp=len(pred) - tp, fn=len(gold) - tp)


def aggregate(scores: Sequence[DocScore]) -> DatasetReport:
    """Micro from summed counts, macro from per-document means."""
    if not scores:
        raise EmptyDataset("no documents to aggregate")
    micro = DocScore.from_counts(
        tp=sum(s.tp for s in scores),
        fp=sum(s.fp for s in scores),
        fn=sum(s.fn for s in scores),
    )
    n = len(scores)
    return DatasetReport(
        per_doc=tuple(scores),
        micro=micro,
        macro_precision=sum(s.precision for s in scores) / n,
        macro_recall=sum(s.recall for s in scores) / n,
        macro_f1=sum(s.f1 for s in scores) / n,
    )


def score_predictions(
    preds: Mapping[str, Iterable[int]], golds: Mapping[str, Iterable[int]]
) -> DatasetReport:
    """Join predictions and gold sets on document id and aggregate."""
    missing = sorted(set(golds) - set(preds))
    if missing:
        raise EmptyDataset(f"predictions missing for documents: {missing[:5]}")
    return aggregate([prf1(preds[doc], golds[doc]) for doc in sorted(golds)])


_LABELS = {"f1": "F1", "precision": "P", "recall": "R"}


def _statistic(report, which: str, stat: str) -> float:
    if stat == "f1" and isinstance(report, (int, float)):
        return float(report)
    return getattr(report.micro, stat) if which == "micro" else getattr(report, f"macro_{stat}")


def cross_dataset_average(
    reports: Mapping[str, "DatasetReport | float"], which: str = "micro"
) -> float:
    """Unweighted mean of per-dataset F1 (bare numbers pass through, so
    published scores can be averaged alongside computed reports)."""
    if not reports:
        raise EmptyDataset("no datasets to average")
    if which not in ("micro", "macro"):
        raise ValueError(f"unknown aggregation {which!r}")
    vals = [_statistic(r, which, "f1") for r in reports.values()]
    return sum(vals) / len(vals)


def format_report(reports: Mapping[str, "DatasetReport | float"], style: str = "table2") -> str:
    """Fixed-width text table, one decimal place, percent scale: a row per
    aggregation, a column per (dataset, statistic), then each statistic's
    unweighted mean over the datasets in an Avg. column.

    style=table2: one F1 column per dataset (a bare number is a published F1),
    so Avg. is the ``cross_dataset_average``.
    style=table4: P and R columns per dataset, so every report must be a
    DatasetReport; a bare number raises ValueError.
    """
    if style not in REPORT_STYLES:
        raise ValueError(f"unknown report style {style!r}")
    if not reports:
        raise EmptyDataset("nothing to format")
    stats = REPORT_STYLES[style]
    bare = [name for name, r in reports.items() if isinstance(r, (int, float))]
    if bare and stats != ("f1",):
        raise ValueError(f"dataset {bare[0]!r} is a bare F1, which style {style!r} cannot show")
    suffix = {s: "" if len(stats) == 1 else f" {_LABELS[s]}" for s in stats}
    header = ["aggregation", *(f"{n}{suffix[s]}" for n in reports for s in stats), *(f"Avg.{suffix[s]}" for s in stats)]
    rows = []
    for which in ("micro", "macro"):
        cols = [[_statistic(r, which, s) for r in reports.values()] for s in stats]
        cells = [x for per_dataset in zip(*cols) for x in per_dataset] + [sum(c) / len(c) for c in cols]
        rows.append([f"{which}-{'/'.join(_LABELS[s] for s in stats)}", *(f"{100.0 * x:.1f}" for x in cells)])
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    lines = [header, ["-" * w for w in widths], *rows]
    return "\n".join("  ".join(c.rjust(w) for c, w in zip(line, widths)) for line in lines)
