import numpy as np
import pytest

from ettag.errors import EmptyDataset
from ettag.metrics import (
    DocScore,
    aggregate,
    cross_dataset_average,
    format_report,
    prf1,
    score_predictions,
)

# Published per-dataset F1/P/R rows, kept as report-formatting fixtures; the
# only claim tested against them is that their unweighted mean reproduces the
# printed averages.
F1_ROWS = {
    "parallel-el/base": ([50.0, 12.5, 29.4, 23.2, 26.0], 28.2),
    "seq2seq/base": ([51.7, 14.1, 25.2, 27.8, 27.7], 29.3),
    "parallel-el/aug": ([63.5, 36.7, 36.2, 40.8, 40.1], 43.5),
    "seq2seq/aug": ([65.0, 36.7, 35.7, 45.5, 49.8], 46.5),
}

PR_ROWS = {
    "parallel-el/base": ([48.2, 37.6, 23.3, 40.0, 28.1], 35.4, [53.1, 31.6, 46.4, 30.3, 37.2], 39.7),
    "parallel-el/aug": ([58.3, 49.8, 32.1, 53.6, 44.9], 47.7, [69.7, 30.9, 47.5, 35.1, 39.0], 44.4),
    "seq2seq/base": ([59.7, 22.1, 24.5, 41.0, 36.6], 36.8, [50.2, 11.4, 30.4, 22.7, 25.2], 28.0),
    "seq2seq/aug": ([74.1, 59.7, 34.6, 64.5, 68.4], 60.3, [61.3, 28.5, 42.6, 37.1, 41.4], 42.2),
}


class TestPrf1:
    def test_perfect(self):
        s = prf1({1, 2}, {1, 2})
        assert (s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0)

    def test_direct_formula(self):
        s = prf1({1, 2, 3}, {1, 2, 4, 5})
        assert s.precision == pytest.approx(2 / 3)
        assert s.recall == pytest.approx(1 / 2)
        assert s.f1 == pytest.approx(4 / 7)

    def test_empty_prediction_convention(self):
        s = prf1(set(), {1})
        assert (s.precision, s.recall, s.f1) == (1.0, 0.0, 0.0)

    def test_empty_gold_convention(self):
        s = prf1({1}, set())
        assert (s.precision, s.recall, s.f1) == (0.0, 1.0, 0.0)

    def test_both_empty(self):
        s = prf1(set(), set())
        assert (s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0)

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            pred = set(rng.integers(0, 60, size=rng.integers(0, 50)).tolist())
            gold = set(rng.integers(0, 60, size=rng.integers(0, 50)).tolist())
            s = prf1(pred, gold)
            tp = sum(1 for e in pred if e in gold)
            fp = sum(1 for e in pred if e not in gold)
            fn = sum(1 for e in gold if e not in pred)
            assert (s.tp, s.fp, s.fn) == (tp, fp, fn)
            want = DocScore.from_counts(tp, fp, fn)
            assert (s.precision, s.recall, s.f1) == (want.precision, want.recall, want.f1)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            pred = set(rng.integers(0, 30, size=rng.integers(0, 20)).tolist())
            gold = set(rng.integers(0, 30, size=rng.integers(0, 20)).tolist())
            a, b = prf1(pred, gold), prf1(gold, pred)
            assert a.precision == b.recall and a.recall == b.precision
            assert a.f1 == pytest.approx(b.f1)

    def test_f1_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            pred = set(rng.integers(0, 30, size=rng.integers(0, 20)).tolist())
            gold = set(rng.integers(0, 30, size=rng.integers(0, 20)).tolist())
            s = prf1(pred, gold)
            p, r = s.precision, s.recall
            if p + r > 0:
                assert s.f1 == pytest.approx(2 * p * r / (p + r))
            assert s.f1 <= max(p, r) + 1e-12


class TestAggregate:
    def test_hand_arithmetic(self):
        a = DocScore.from_counts(1, 0, 0)
        b = DocScore.from_counts(0, 1, 1)
        rep = aggregate([a, b])
        assert rep.micro.precision == pytest.approx(0.5)
        assert rep.micro.recall == pytest.approx(0.5)
        assert rep.macro_precision == pytest.approx((1.0 + 0.0) / 2)
        assert rep.n_docs == 2

    def test_single_doc_micro_equals_macro(self):
        s = DocScore.from_counts(3, 1, 2)
        rep = aggregate([s])
        assert rep.micro == s
        assert rep.macro_f1 == pytest.approx(s.f1)

    def test_empty_errors(self):
        with pytest.raises(EmptyDataset):
            aggregate([])

    def test_micro_counts_are_sums(self):
        rng = np.random.default_rng(3)
        scores = [
            DocScore.from_counts(int(rng.integers(0, 5)), int(rng.integers(0, 5)), int(rng.integers(0, 5)))
            for _ in range(30)
        ]
        rep = aggregate(scores)
        assert rep.micro.tp == sum(s.tp for s in scores)
        assert rep.micro.fp == sum(s.fp for s in scores)
        assert rep.micro.fn == sum(s.fn for s in scores)


class TestCrossDatasetAverage:
    @pytest.mark.parametrize("row", list(F1_ROWS))
    def test_published_averages(self, row):
        values, want = F1_ROWS[row]
        got = cross_dataset_average({f"d{i}": v for i, v in enumerate(values)})
        assert abs(got - want) <= 0.05

    @pytest.mark.parametrize("row", list(PR_ROWS))
    def test_published_pr_averages(self, row):
        ps, want_p, rs, want_r = PR_ROWS[row]
        got_p = cross_dataset_average({f"d{i}": v for i, v in enumerate(ps)})
        got_r = cross_dataset_average({f"d{i}": v for i, v in enumerate(rs)})
        assert abs(got_p - want_p) <= 0.05
        assert abs(got_r - want_r) <= 0.05

    def test_identical_reports_pass_through(self):
        rep = aggregate([DocScore.from_counts(2, 1, 1)])
        avg = cross_dataset_average({"a": rep, "b": rep})
        assert avg == pytest.approx(rep.micro.f1)

    def test_nothing_to_average_and_unknown_aggregation_rejected(self):
        with pytest.raises(EmptyDataset):
            cross_dataset_average({})
        with pytest.raises(ValueError, match="unknown aggregation 'median'"):
            cross_dataset_average({"a": aggregate([DocScore.from_counts(1, 0, 0)])}, which="median")

    def test_macro_selector(self):
        rep1 = aggregate([DocScore.from_counts(1, 0, 0), DocScore.from_counts(0, 2, 2)])
        avg = cross_dataset_average({"a": rep1}, which="macro")
        assert avg == pytest.approx(rep1.macro_f1)


class TestScorePredictions:
    def test_joins_on_doc_id(self):
        preds = {"a": {1}, "b": {2, 3}}
        golds = {"a": {1}, "b": {2}}
        rep = score_predictions(preds, golds)
        assert rep.micro.tp == 2 and rep.micro.fp == 1 and rep.micro.fn == 0

    def test_missing_prediction_errors(self):
        with pytest.raises(EmptyDataset):
            score_predictions({}, {"a": {1}})


class TestFormatReport:
    def make_reports(self):
        rep1 = aggregate([DocScore.from_counts(2, 1, 0), DocScore.from_counts(1, 1, 1)])
        rep2 = aggregate([DocScore.from_counts(1, 0, 1)])
        return {"alpha": rep1, "beta": rep2}

    def test_table2_layout(self):
        text = format_report(self.make_reports(), style="table2")
        lines = text.splitlines()
        assert "alpha" in lines[0] and "beta" in lines[0] and "Avg." in lines[0]
        assert lines[2].startswith(" " * 0) and "micro-F1" in lines[2]
        assert "macro-F1" in lines[3]
        # one decimal place percentages
        for cell in lines[2].split()[1:]:
            assert "." in cell and len(cell.split(".")[1]) == 1
        assert text == (
            "aggregation  alpha  beta  Avg.\n"
            "-----------  -----  ----  ----\n"
            "   micro-F1   66.7  66.7  66.7\n"
            "   macro-F1   65.0  66.7  65.8"
        )
        published = {"alpha": self.make_reports()["alpha"], "published": 0.5}
        assert format_report(published, style="table2") == (
            "aggregation  alpha  published  Avg.\n"
            "-----------  -----  ---------  ----\n"
            "   micro-F1   66.7       50.0  58.3\n"
            "   macro-F1   65.0       50.0  57.5"
        )

    def test_table4_layout(self):
        text = format_report(self.make_reports(), style="table4")
        head = text.splitlines()[0]
        assert "alpha P" in head and "alpha R" in head
        assert "Avg. P" in head and "Avg. R" in head
        assert text == (
            "aggregation  alpha P  alpha R  beta P  beta R  Avg. P  Avg. R\n"
            "-----------  -------  -------  ------  ------  ------  ------\n"
            "  micro-P/R     60.0     75.0   100.0    50.0    80.0    62.5\n"
            "  macro-P/R     58.3     75.0   100.0    50.0    79.2    62.5"
        )

    def test_table2_avg_column_matches_cross_dataset_average(self):
        # the fixed pair, then seeded report sets, some with bare-number (published) F1s
        sets = [self.make_reports()]
        for seed in range(20):
            rng = np.random.default_rng(seed)
            reports = {}
            for i in range(int(rng.integers(1, 6))):
                if rng.random() < 0.3:
                    reports[f"d{i}"] = float(rng.random())
                else:
                    counts = rng.integers(0, 5, size=(int(rng.integers(1, 5)), 3))
                    reports[f"d{i}"] = aggregate([DocScore.from_counts(*map(int, c)) for c in counts])
            sets.append(reports)
        for reports in sets:
            lines = format_report(reports, style="table2").splitlines()
            for line, which in zip(lines[2:], ("micro", "macro")):
                assert line.split()[-1] == f"{100.0 * cross_dataset_average(reports, which):.1f}"

    def test_table4_rejects_a_bare_number(self):
        # a published F1 has no P or R to show
        for reports in ({"a": 0.5}, {**self.make_reports(), "published": 0.5}):
            name = next(n for n, r in reports.items() if isinstance(r, float))
            with pytest.raises(ValueError, match=repr(name)):
                format_report(reports, style="table4")

    def test_nothing_to_format(self):
        with pytest.raises(EmptyDataset):
            format_report({})

    def test_unknown_style(self):
        with pytest.raises(ValueError):
            format_report(self.make_reports(), style="table9")
