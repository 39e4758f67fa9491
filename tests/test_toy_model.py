import tracemalloc

import numpy as np
import pytest

from ettag.catalog import BOS, EOS, SEP, EntityCatalog, build_vocabularies, nul_terminated, tokenize
from ettag.decoding import DecodeConfig, greedy_decode, parse_output
from ettag.errors import CorruptCheckpoint, InputError, InvalidConfig, MissingMentionOrder, UnknownEntity
from ettag.ingest import ETExample, encode_examples
from ettag.synthetic import synthetic_benchmark
from ettag.toy_model import (
    ORDER_STRATEGIES,
    ToyScorer,
    TrainConfig,
    backward,
    batch_backward,
    build_target,
    encode_input,
    init_params,
    load_checkpoint,
    next_logprobs,
    nll_loss,
    sample_permutation,
    save_checkpoint,
    train,
)
from ettag import toy_model
from ettag.toy_model import _CHECKPOINT, _scatter_rows
from ettag.trie import build_trie
from helpers import reference_backward, reference_train

# chi-square 99.9% quantile, 5 degrees of freedom
CHI2_5DF_999 = 20.515


@pytest.fixture()
def small_world():
    cat = EntityCatalog(["red fox", "blue jay", "green frog"])
    vin, vout = build_vocabularies(
        cat, ["red fox and blue jay", "green frog alone", "blue jay blue jay"]
    )
    return cat, vin, vout


def example(cat, vin, text, gold, order=None):
    return ETExample(
        doc_id="d",
        text=text,
        gold=frozenset(gold),
        gold_order=None if order is None else tuple(order),
        input=tokenize(text, vin, mode="input"),
    )


class TestEncodeInput:
    def test_single_token_is_its_row(self, small_world):
        cat, vin, vout = small_world
        params = init_params(len(vin), len(vout), d=5, k=2, seed=0)
        ids = tokenize("fox", vin, mode="input")
        assert len(ids) == 1
        np.testing.assert_array_equal(encode_input(params, ids), params.e_in[ids[0]])

    def test_zero_params_zero_vector(self, small_world):
        cat, vin, vout = small_world
        params = init_params(len(vin), len(vout), d=5, k=2, seed=0)
        params.e_in[:] = 0.0
        assert not encode_input(params, [1, 2, 3]).any()

    def test_two_token_mean_by_hand(self, small_world):
        cat, vin, vout = small_world
        params = init_params(len(vin), len(vout), d=4, k=2, seed=1)
        ids = tokenize("red fox", vin, mode="input")
        want = (params.e_in[ids[0]] + params.e_in[ids[1]]) / 2.0
        np.testing.assert_allclose(encode_input(params, ids), want, rtol=0, atol=0)

    def test_empty_input_is_zero(self, small_world):
        cat, vin, vout = small_world
        params = init_params(len(vin), len(vout), d=4, k=2, seed=1)
        assert not encode_input(params, []).any()


class TestNextLogprobs:
    """``next_logprobs`` returns logits; the decoder normalizes them."""

    def test_zero_params_uniform(self, small_world):
        cat, vin, vout = small_world
        params = init_params(len(vin), len(vout), d=3, k=2, seed=0)
        params.flat[:] = 0.0
        logits = next_logprobs(params, encode_input(params, [1]), [[]])[0]
        np.testing.assert_array_equal(logits, np.zeros(len(vout)))

    def test_against_straight_line_reimplementation(self, small_world):
        # independent scalar-loop oracle for one 3-token case
        cat, vin, vout = small_world
        params = init_params(len(vin), len(vout), d=3, k=3, seed=5)
        input_ids = tokenize("red fox and", vin, mode="input")
        prefix = [4, 5, 6]
        enc = encode_input(params, input_ids)

        ctx = ([BOS] * params.k + prefix)[-params.k:]
        feat = []
        for x in enc:
            feat.append(x)
        for t in ctx:
            for x in params.e_out[t]:
                feat.append(x)
        logits = []
        for col in range(len(vout)):
            s = params.b[col]
            for i, x in enumerate(feat):
                s += x * params.w[i, col]
            logits.append(s)
        want = np.array(logits)

        got = next_logprobs(params, enc, [prefix])[0]
        np.testing.assert_allclose(got, want, atol=1e-12)


    def test_batch_rows_match_single_rows(self, small_world):
        # a lone prefix's logits equal its row of a batch bit for bit (seen on numpy
        # 2.4.6 with OpenBLAS 0.3.31, AVX-512, one and two threads); the hand-written
        # one-row product, one feature vector times W, rounds otherwise
        cat, vin, vout = small_world
        rng = np.random.default_rng(8)
        for seed in range(5):
            params = init_params(len(vin), len(vout), d=6, k=3, seed=seed)
            scorer = ToyScorer(params)
            enc = scorer.encode([2, 3])
            for t in (0, 2, 3, 5):
                prefixes = rng.integers(0, len(vout), size=(6, t))
                # equal lengths, then unequal ones: row i is its last lengths[i] tokens, BOS-padded on the left
                for lengths in (np.full(6, t), rng.integers(0, t + 1, size=6)):
                    prefixes[np.arange(t) < (t - lengths)[:, None]] = BOS
                    batch = scorer.next_logprobs_batch([enc] * len(prefixes), prefixes)
                    assert batch.shape == (6, len(vout))
                    for row, padded, n in zip(batch, prefixes.tolist(), lengths.tolist()):
                        prefix = padded[t - n:]
                        ctx = ([BOS] * params.k + prefix)[-params.k:]
                        want = np.concatenate((enc, params.e_out[ctx].ravel())) @ params.w + params.b
                        np.testing.assert_array_equal(scorer.next_logprobs(enc, prefix), row)
                        np.testing.assert_allclose(row, want, rtol=0, atol=1e-12)


class TestBuildTarget:
    def test_singleton(self, small_world):
        cat, vin, vout = small_world
        target = build_target({0}, [0], cat)
        assert target == tokenize("red fox", vout, mode="output") + [EOS]

    def test_order_respected(self, small_world):
        cat, vin, vout = small_world
        target = build_target({0, 1}, [1, 0], cat)
        want = (
            tokenize("blue jay", vout, mode="output")
            + [SEP]
            + tokenize("red fox", vout, mode="output")
            + [EOS]
        )
        assert target == want

    def test_sep_and_eos_counts(self, small_world):
        cat, vin, vout = small_world
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = int(rng.integers(1, 4))
            gold = list(rng.choice(3, size=m, replace=False))
            target = build_target(set(gold), gold, cat)
            assert target.count(SEP) == m - 1
            assert target.count(EOS) == 1 and target[-1] == EOS

    def test_not_a_permutation(self, small_world):
        cat, vin, vout = small_world
        with pytest.raises(ValueError):
            build_target({0, 1}, [0], cat)

    def test_unknown_entity(self, small_world):
        cat, vin, vout = small_world
        with pytest.raises(UnknownEntity):
            build_target({99}, [99], cat)


class TestSamplePermutation:
    def test_m1_identity(self):
        rng = np.random.default_rng(0)
        assert sample_permutation(rng, 1).tolist() == [0]

    def test_m0_is_the_empty_order_and_draws_nothing(self):
        rng, fresh = np.random.default_rng(0), np.random.default_rng(0)
        assert sample_permutation(rng, 0).tolist() == []
        assert rng.random() == fresh.random()
        with pytest.raises(ValueError):
            sample_permutation(rng, -1)

    def test_uniform_chi_square(self):
        rng = np.random.default_rng(42)
        counts: dict[tuple, int] = {}
        n = 60_000
        for _ in range(n):
            p = tuple(sample_permutation(rng, 3).tolist())
            counts[p] = counts.get(p, 0) + 1
        assert len(counts) == 6
        expected = n / 6
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < CHI2_5DF_999

    def test_seed_determinism(self):
        a = [sample_permutation(np.random.default_rng(9), 5).tolist() for _ in range(1)]
        b = [sample_permutation(np.random.default_rng(9), 5).tolist() for _ in range(1)]
        assert a == b
        r1, r2 = np.random.default_rng(9), np.random.default_rng(9)
        seq1 = [sample_permutation(r1, 4).tolist() for _ in range(20)]
        seq2 = [sample_permutation(r2, 4).tolist() for _ in range(20)]
        assert seq1 == seq2


class TestLoss:
    def test_uniform_model_loss(self, small_world):
        cat, vin, vout = small_world
        v = len(vout)
        params = init_params(len(vin), v, d=3, k=2, seed=0)
        params.flat[:] = 0.0
        ex = example(cat, vin, "red fox", {0})
        target = build_target({0}, [0], cat)
        assert nll_loss(params, ex, target) == pytest.approx(len(target) * np.log(v), rel=1e-12)

    def test_loss_nonnegative(self, small_world):
        cat, vin, vout = small_world
        for seed in range(10):
            params = init_params(len(vin), len(vout), d=4, k=2, seed=seed)
            ex = example(cat, vin, "blue jay and red fox", {0, 1})
            target = build_target({0, 1}, [0, 1], cat)
            assert nll_loss(params, ex, target) >= 0.0

    def test_loss_near_uniform_at_init(self, small_world):
        cat, vin, vout = small_world
        params = init_params(len(vin), len(vout), d=8, k=3, seed=3)
        ex = example(cat, vin, "green frog alone", {2})
        target = build_target({2}, [2], cat)
        uniform = len(target) * np.log(len(vout))
        assert abs(nll_loss(params, ex, target) - uniform) / uniform < 0.01


class TestBackward:
    def test_finite_differences(self, small_world):
        cat, vin, vout = small_world
        eps = 1e-5
        rng = np.random.default_rng(12)
        for seed in range(6):
            params = init_params(len(vin), len(vout), d=3, k=2, seed=seed)
            ex = example(cat, vin, "red fox and blue jay", {0, 1})
            target = build_target({0, 1}, [seed % 2, 1 - seed % 2], cat)
            _, grads = backward(params, ex, target)
            for arr, g in zip(params.arrays(), grads.arrays()):
                flat, gflat = arr.ravel(), g.ravel()
                for idx in rng.choice(len(flat), size=min(15, len(flat)), replace=False):
                    old = flat[idx]
                    flat[idx] = old + eps
                    lp = nll_loss(params, ex, target)
                    flat[idx] = old - eps
                    lm = nll_loss(params, ex, target)
                    flat[idx] = old
                    fd = (lp - lm) / (2 * eps)
                    denom = max(abs(fd), abs(gflat[idx]), 1e-8)
                    assert abs(fd - gflat[idx]) / denom < 1e-4

    def test_unused_output_column_gradient_by_hand(self):
        # d=2, V_out=3-ish world: for a one-step target, dW[:, j] for an
        # unchosen column j is softmax_j * feature
        cat = EntityCatalog(["a"])
        vin, vout = build_vocabularies(cat, ["a"])
        params = init_params(len(vin), len(vout), d=2, k=1, seed=0)
        ex = ETExample("d", "a", frozenset({0}), input=tokenize("a", vin, mode="input"))
        target = [tokenize("a", vout, mode="output")[0]]  # single step, no EOS
        _, grads = backward(params, ex, target)

        enc = encode_input(params, ex.input)
        feat = np.concatenate((enc, params.e_out[BOS]))
        logits = next_logprobs(params, enc, [[]])[0]
        p = np.exp(logits - logits.max())
        p /= p.sum()
        for col in range(len(vout)):
            want = p[col] * feat
            if col == target[0]:
                want = want - feat
            np.testing.assert_allclose(grads.w[:, col], want, atol=1e-12)

    def test_absent_input_tokens_get_zero_gradient(self, small_world):
        cat, vin, vout = small_world
        params = init_params(len(vin), len(vout), d=4, k=2, seed=2)
        ex = example(cat, vin, "red fox", {0})
        target = build_target({0}, [0], cat)
        _, grads = backward(params, ex, target)
        used = set(ex.input)
        for row in range(len(vin)):
            if row not in used:
                assert not grads.e_in[row].any()


def random_pairs(rng, n, v_in, v_out, k):
    """n (example, target) pairs over a few ids, so input ids and context
    ids repeat; inputs of 0-5 ids, targets of 1 to 2k+2 tokens."""
    return [
        (
            ETExample("d", "", frozenset(), input=rng.integers(0, min(v_in, 4), size=rng.integers(0, 6)).tolist()),
            rng.integers(0, min(v_out, 5), size=rng.integers(1, 2 * k + 3)).tolist(),
        )
        for _ in range(n)
    ]


@pytest.mark.parametrize("rows", [1, 30, 500, 700, 5000])
def test_scatter_rows_adds_as_add_at(rows):
    # from one column group up to one bincount per column
    rng = np.random.default_rng(rows)
    index, values = rng.integers(0, 7, size=(rows, 3)), rng.normal(size=(rows, 3, 5))
    want = np.zeros((7, 5))
    np.add.at(want, index, values)
    got = np.empty((7, 5))
    _scatter_rows(got, index, values)
    assert got.tobytes() == want.tobytes()


class TestBatchBackward:
    """``batch_backward`` against the per-example reference, summed."""

    def test_batch_of_one_is_the_reference_bit_for_bit(self, small_world):
        _, vin, vout = small_world
        rng = np.random.default_rng(31)
        seen = set()
        for seed in range(40):
            params = init_params(len(vin), len(vout), d=3, k=4, seed=seed)
            for ex, target in random_pairs(rng, 4, len(vin), len(vout), params.k):
                seen |= {
                    ("empty input", not ex.input), ("repeated input id", len(set(ex.input)) < len(ex.input)),
                    ("target shorter than k", len(target) < params.k),
                    ("repeated context id", len(set(target)) < len(target)),
                }
                loss, grads = batch_backward(params, [ex], [target])
                want_loss, want = reference_backward(params, ex, target)
                assert loss == want_loss
                assert grads.flat.tobytes() == want.flat.tobytes()
        assert {case for case, hit in seen if hit} == {
            "empty input", "repeated input id", "target shorter than k", "repeated context id"}

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 16])
    def test_batch_is_the_sum_of_its_examples(self, small_world, size):
        _, vin, vout = small_world
        rng = np.random.default_rng(size)
        for seed in range(10):
            params = init_params(len(vin), len(vout), d=3, k=4, seed=seed)
            pairs = random_pairs(rng, size, len(vin), len(vout), params.k)
            pairs[seed % size] = (ETExample("d", "", frozenset(), input=[]), pairs[seed % size][1])
            loss, grads = batch_backward(params, [ex for ex, _ in pairs], [t for _, t in pairs])
            want_loss, want = 0.0, params.zeros_like()
            for ex, target in pairs:
                one_loss, one = reference_backward(params, ex, target)
                want_loss += one_loss
                want.flat += one.flat
            assert loss == pytest.approx(want_loss, rel=1e-12)
            np.testing.assert_allclose(grads.flat, want.flat, rtol=1e-12, atol=1e-12 * np.abs(want.flat).max())

    @pytest.mark.parametrize("size", [1, 4, 16])
    def test_a_given_buffer_is_overwritten_whole(self, small_world, size):
        # train passes one buffer to every step: no stale or NaN element may survive
        _, vin, vout = small_world
        rng = np.random.default_rng(40 + size)
        params = init_params(len(vin), len(vout), d=3, k=4, seed=size)
        buf = params.zeros_like()
        buf.flat[:] = np.nan
        for all_empty in (True, False):
            pairs = random_pairs(rng, size, len(vin), len(vout), params.k)
            if all_empty:  # no input id at all: the e_in rows are still written
                pairs = [(ETExample("d", "", frozenset(), input=[]), t) for _, t in pairs]
            batch, targets = [ex for ex, _ in pairs], [t for _, t in pairs]
            loss, grads = batch_backward(params, batch, targets, buf)
            want_loss, want = batch_backward(params, batch, targets)
            assert grads is buf
            assert loss == want_loss
            assert buf.flat.tobytes() == want.flat.tobytes()

    def test_an_unencoded_example_rejected(self, small_world):
        _, vin, vout = small_world
        params = init_params(len(vin), len(vout), d=3, k=2, seed=0)
        batch = [ETExample("d", "", frozenset(), input=[]), ETExample("e", "red fox", frozenset())]
        with pytest.raises(ValueError, match="encode the corpus first"):
            batch_backward(params, batch, [[EOS], [EOS]])

    def test_finite_differences_of_a_batch(self, small_world):
        # the summed loss of three examples, perturbed one weight at a time
        cat, vin, vout = small_world
        eps = 1e-5
        rng = np.random.default_rng(13)
        for seed in range(3):
            params = init_params(len(vin), len(vout), d=3, k=2, seed=seed)
            batch = [example(cat, vin, "red fox and blue jay", {0, 1}), example(cat, vin, "", {2}),
                     example(cat, vin, "green frog blue jay green frog", {1, 2})]
            targets = [build_target(ex.gold, sorted(ex.gold, key=lambda g: (g + seed) % 3), cat) for ex in batch]
            _, grads = batch_backward(params, batch, targets)
            for idx in rng.choice(len(params.flat), size=60, replace=False):
                old = params.flat[idx]
                params.flat[idx] = old + eps
                lp, _ = batch_backward(params, batch, targets)
                params.flat[idx] = old - eps
                lm, _ = batch_backward(params, batch, targets)
                params.flat[idx] = old
                fd = (lp - lm) / (2 * eps)
                denom = max(abs(fd), abs(grads.flat[idx]), 1e-8)
                assert abs(fd - grads.flat[idx]) / denom < 1e-4


class TestTrain:
    def test_memorizes_single_example(self, small_world):
        cat, vin, vout = small_world
        ex = example(cat, vin, "red fox and blue jay", {0, 1})
        config = TrainConfig(epochs=500, seed=1, lr=1e-2, order_strategy="lexicographic", d=8, k=2)
        params, curve = train([ex], config, cat, vin)
        assert curve[-1] < 0.01
        trie = build_trie(cat)
        toks = greedy_decode(ToyScorer(params), trie, ex.input, DecodeConfig(beam_size=1))
        entities, dropped = parse_output(toks, trie)
        assert dropped == 0 and entities == set(ex.gold)

    def test_curve_always_finite(self, small_world):
        cat, vin, vout = small_world
        rng = np.random.default_rng(0)
        for seed in range(100):
            n = int(rng.integers(1, 5))
            corpus = []
            for i in range(n):
                gold = set(int(g) for g in rng.choice(3, size=rng.integers(1, 4), replace=False))
                text = " ".join(cat.name_of(g) for g in gold)
                corpus.append(example(cat, vin, text, gold, order=sorted(gold)))
            config = TrainConfig(
                epochs=3, seed=seed, lr=0.05,
                order_strategy=("shuffle", "mention_order", "lexicographic")[seed % 3],
                batch_size=1 + seed % 3, d=6, k=2,
            )
            _, curve = train(corpus, config, cat, vin)
            assert all(np.isfinite(v) for v in curve)

    @staticmethod
    def _train_benchmark(catalog, data):
        vin, _ = build_vocabularies(catalog, (ex.text for ex in data.train))
        config = TrainConfig(epochs=2, seed=3, batch_size=16, d=8, k=4)
        return train(encode_examples(data.train, vin), config, catalog, vin)

    def test_training_builds_no_name_table(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the catalog's name table was built")

        monkeypatch.setattr(EntityCatalog, "name_table", fail)
        data = synthetic_benchmark(seed=0)
        _, curve = self._train_benchmark(data.catalog, data)
        assert len(curve) == 2 and np.isfinite(curve).all()

    def test_a_built_name_table_leaves_training_unchanged(self):
        data = synthetic_benchmark(seed=0)
        fresh, tabled = EntityCatalog(tuple(data.catalog)), EntityCatalog(tuple(data.catalog))
        tabled.name_table()
        p1, c1 = self._train_benchmark(fresh, data)
        p2, c2 = self._train_benchmark(tabled, data)
        assert c1 == c2
        for a, b in zip(p1.arrays(), p2.arrays()):
            assert (a == b).all()

    def test_bitwise_determinism(self, small_world):
        cat, vin, vout = small_world
        ex1 = example(cat, vin, "red fox", {0})
        ex2 = example(cat, vin, "blue jay green frog", {1, 2}, order=[2, 1])
        config = TrainConfig(epochs=20, seed=7, order_strategy="shuffle", d=6, k=2)
        p1, c1 = train([ex1, ex2], config, cat, vin)
        p2, c2 = train([ex1, ex2], config, cat, vin)
        assert c1 == c2
        for a, b in zip(p1.arrays(), p2.arrays()):
            assert np.array_equal(a, b)

    @staticmethod
    def _corpus(cat, vin):
        return [
            example(cat, vin, "red fox", {0}, order=[0]),
            example(cat, vin, "blue jay green frog", {1, 2}, order=[1, 2]),
            example(cat, vin, "green frog and red fox", {0, 2}, order=[2, 0]),
            example(cat, vin, "", {0, 1, 2}, order=[1, 0, 2]),
            example(cat, vin, "blue jay blue jay", {1}, order=[1]),
        ]

    # each id names the optimizer too: the reference steps Adam as train does
    @pytest.mark.parametrize("strategy", ["shuffle", "mention_order", "lexicographic"], ids=lambda s: f"{s}-adam")
    def test_batch_one_is_the_reference_bit_for_bit(self, small_world, strategy):
        cat, vin, vout = small_world
        config = TrainConfig(epochs=6, seed=4, lr=0.05, order_strategy=strategy, d=5, k=3)
        params, curve = train(self._corpus(cat, vin), config, cat, vin)
        want, want_curve = reference_train(self._corpus(cat, vin), config, cat, vin)
        assert curve == want_curve
        assert params.flat.tobytes() == want.flat.tobytes()

    @pytest.mark.parametrize("batch_size", [2, 4, 16], ids=lambda b: f"adam-{b}")
    def test_larger_batches_follow_the_reference(self, small_world, batch_size):
        cat, vin, vout = small_world
        for strategy in ("shuffle", "mention_order", "lexicographic"):
            config = TrainConfig(epochs=6, seed=5, lr=0.05, order_strategy=strategy, batch_size=batch_size, d=5, k=3)
            params, curve = train(self._corpus(cat, vin) * 4, config, cat, vin)
            want, want_curve = reference_train(self._corpus(cat, vin) * 4, config, cat, vin)
            np.testing.assert_allclose(curve, want_curve, rtol=1e-9)
            np.testing.assert_allclose(params.flat, want.flat, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("batch_size", [1, 3])
    @pytest.mark.parametrize("strategy", ORDER_STRATEGIES)
    def test_name_reads_do_not_grow_with_epochs(self, small_world, monkeypatch, strategy, batch_size):
        cat, vin, vout = small_world
        corpus = self._corpus(cat, vin)
        calls = []
        name_of = EntityCatalog.name_of
        monkeypatch.setattr(EntityCatalog, "name_of", lambda self, eid: calls.append(eid) or name_of(self, eid))
        counts = []
        for epochs in (1, 4):
            calls.clear()
            train(corpus, TrainConfig(epochs=epochs, order_strategy=strategy, batch_size=batch_size, d=3, k=2),
                  cat, vin)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize("strategy", ORDER_STRATEGIES)
    def test_gold_ids_are_checked_as_build_target_checks_them(self, small_world, strategy):
        cat, vin, vout = small_world
        config = TrainConfig(epochs=1, order_strategy=strategy, d=3, k=2)
        with pytest.raises(UnknownEntity):  # name_of would read -1 as the last name
            train([example(cat, vin, "red fox", {0, -1}, order=[0, -1])], config, cat, vin)
        if strategy == "mention_order":
            with pytest.raises(ValueError, match="permutation"):
                train([example(cat, vin, "red fox", {0, 1}, order=[0])], config, cat, vin)

    def test_mention_order_requires_gold_order(self, small_world):
        cat, vin, vout = small_world
        ex = example(cat, vin, "red fox", {0}, order=None)
        config = TrainConfig(epochs=1, order_strategy="mention_order")
        with pytest.raises(MissingMentionOrder):
            train([ex], config, cat, vin)

    def test_divergence_raises(self, small_world):
        cat, vin, vout = small_world
        corpus = [example(cat, vin, "red fox", {0}), example(cat, vin, "blue jay green frog", {1, 2})]
        config = TrainConfig(epochs=3, lr=1e200, d=6, k=2)
        with pytest.raises(InputError, match="diverged"):
            train(corpus, config, cat, vin)

    def test_non_finite_weights_after_the_last_update_raise(self, small_world):
        # the epoch's loss is taken before its last update, so only the weights
        # show that this update overflowed: SEP occurs twice in the target, its
        # bias gradient is below -1, and Adam's first step multiplies lr by that
        # gradient before it divides by its magnitude, so 1.79e308 times it is inf
        cat, vin, vout = small_world
        corpus = [example(cat, vin, "red fox blue jay green frog", {0, 1, 2})]
        config = TrainConfig(epochs=1, lr=1.79e308, order_strategy="lexicographic", d=6, k=2)
        with pytest.raises(InputError, match="diverged"):
            train(corpus, config, cat, vin)

    def test_finite_divergence_raises(self, small_world):
        # the mean loss reaches about 1e12 in epoch 1 but stays finite
        cat, vin, vout = small_world
        corpus = [example(cat, vin, "red fox", {0}), example(cat, vin, "blue jay green frog", {1, 2})]
        config = TrainConfig(epochs=3, lr=1e6, d=6, k=2)
        with pytest.raises(InputError, match="diverged"):
            train(corpus, config, cat, vin)


def test_batch_backward_holds_two_logit_arrays():
    """At kb-470k's V_out of 3,424 and ΣT = 64, one step into a given gradient buffer
    peaks below 2.5 [ΣT, V_out] float64 arrays: the softmax chain runs in place in two."""
    v_out, lens = 3424, [16, 7, 30, 11]
    params = init_params(500, v_out, d=8, k=10, seed=0)
    rng = np.random.default_rng(0)
    batch = [ETExample("d", "", frozenset(), input=rng.integers(0, 500, size=9).tolist()) for _ in lens]
    targets = [rng.integers(3, v_out, size=n).tolist() for n in lens]
    grads = params.zeros_like()
    batch_backward(params, batch, targets, grads)
    tracemalloc.start()
    try:
        batch_backward(params, batch, targets, grads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * sum(lens) * v_out * 8


@pytest.mark.parametrize("batch_size", [1, 3, 16])
def test_adam_blocks_change_no_bit(small_world, monkeypatch, batch_size):
    """Adam over blocks of 7 weights, so that the buffer spans many and ends in a partial
    one, trains the weights and curve of the default block (the buffer whole), and at
    batch 1 the reference's, bit for bit."""
    cat, vin, _ = small_world
    corpus = TestTrain._corpus(cat, vin) * 4  # 20 examples: batches of 3 and 16 end in a smaller one
    config = TrainConfig(epochs=6, seed=5, lr=0.05, order_strategy="shuffle", batch_size=batch_size, d=5, k=3)
    whole, whole_curve = train(corpus, config, cat, vin)
    assert len(whole.flat) <= toy_model._ADAM_BLOCK
    monkeypatch.setattr(toy_model, "_ADAM_BLOCK", 7)
    assert len(whole.flat) > 20 * 7 and len(whole.flat) % 7
    params, curve = train(corpus, config, cat, vin)
    assert curve == whole_curve
    assert params.flat.tobytes() == whole.flat.tobytes()
    if batch_size == 1:
        want, want_curve = reference_train(corpus, config, cat, vin)
        assert curve == want_curve
        assert params.flat.tobytes() == want.flat.tobytes()


class TestCheckpoint:
    def test_round_trip(self, small_world, tmp_path):
        cat, vin, vout = small_world
        params = init_params(len(vin), len(vout), d=5, k=3, seed=4)
        path = tmp_path / "model.bin"
        save_checkpoint(params, path, vin, vout)
        loaded, vocab = load_checkpoint(path, vout)
        assert vocab.tokens == vin.tokens
        assert loaded.k == params.k
        for a, b in zip(params.arrays(), loaded.arrays()):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_rejects_junk(self, small_world, tmp_path):
        _, vin, vout = small_world
        path = tmp_path / "model.bin"
        save_checkpoint(init_params(len(vin), len(vout), d=3, k=2, seed=0), path, vin, vout)
        older = [magic + path.read_bytes()[6:] for magic in (b"ETMDL1", b"ETMDL2")]  # earlier formats
        for junk in (b"not a checkpoint", *older):
            path.write_bytes(junk)
            with pytest.raises(CorruptCheckpoint, match="not a model checkpoint"):
                load_checkpoint(path, vout)

    def test_rejects_truncated_padded_and_bad_dims(self, small_world, tmp_path):
        _, vin, vout = small_world
        path = tmp_path / "model.bin"
        save_checkpoint(init_params(len(vin), len(vout), d=3, k=2, seed=0), path, vin, vout)
        blob = path.read_bytes()
        zero_d = blob[:72] + (0).to_bytes(4, "little") + blob[76:]
        for bad in (blob[:5], blob[:54], blob[:200], blob[:-1], blob + b"\0", zero_d):
            path.write_bytes(bad)
            with pytest.raises(CorruptCheckpoint):
                load_checkpoint(path, vout)
        # dims that disagree with the body, under a valid SHA-256
        section = nul_terminated(vin.tokens)
        arrays = [bytes(8 * n) for n in (len(vin) * 3, len(vout) * 3, 9 * len(vout), len(vout))]  # d=3, k=2
        for dims in ((0, 2, len(vin), len(vout), len(section)), (3, 2, len(vin), len(vout) + 1, len(section))):
            _CHECKPOINT.write(path, vout.content_hash(), dims, [section, *arrays])
            with pytest.raises(CorruptCheckpoint, match="truncated or padded"):
                load_checkpoint(path, vout)

    def test_rejects_a_v_out_other_than_the_vocabularys(self, small_world, tmp_path):
        """A body sized for one more output token, under the output vocabulary's
        key and a valid SHA-256, is not that vocabulary's checkpoint."""
        _, vin, vout = small_world
        path = tmp_path / "model.bin"
        v_out = len(vout) + 1
        section = nul_terminated(vin.tokens)
        arrays = [bytes(8 * n) for n in (len(vin) * 3, v_out * 3, 9 * v_out, v_out)]  # d=3, k=2
        _CHECKPOINT.write(path, vout.content_hash(), (3, 2, len(vin), v_out, len(section)), [section, *arrays])
        with pytest.raises(CorruptCheckpoint, match=f"V_out {v_out} does not match the output vocabulary"):
            load_checkpoint(path, vout)

    def test_rejects_other_output_vocabulary(self, small_world, tmp_path):
        _, vin, vout = small_world
        path = tmp_path / "model.bin"
        save_checkpoint(init_params(len(vin), len(vout), d=3, k=2, seed=0), path, vin, vout)
        _, other = build_vocabularies(EntityCatalog(["red fox", "blue jay"]), [])
        with pytest.raises(InputError, match="different"):
            load_checkpoint(path, other)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("array", ["e_in", "e_out", "w", "b"])
    def test_rejects_non_finite_weights(self, small_world, tmp_path, array, value):
        _, vin, vout = small_world
        params = init_params(len(vin), len(vout), d=3, k=2, seed=0)
        getattr(params, array).flat[-1] = value
        path = tmp_path / "model.bin"
        save_checkpoint(params, path, vin, vout)
        with pytest.raises(CorruptCheckpoint, match="non-finite"):
            load_checkpoint(path, vout)

    @pytest.mark.parametrize(
        "section",
        [
            b"<bos>\0<eos>\0<sep>\0<unk>\0\xe2\x96\0",  # not UTF-8
            b"<bos>\0<eos>\0<sep>\0<unk>\0\xe2\x96\x81red",  # last token not terminated
            b"<eos>\0<bos>\0<sep>\0<unk>\0\xe2\x96\x81red\0",  # reserved tokens out of order
            b"<bos>\0<eos>\0<sep>\0<unk>\0<unk>\0",  # a token twice
            b"<bos>\0<eos>\0<sep>\0<unk>\0\xe2\x96\x81red\0\xe2\x96\x81fox\0",  # more tokens than rows
        ],
        ids=["not-utf8", "unterminated", "reserved-order", "repeated", "count"],
    )
    def test_rejects_bad_vocabulary_section(self, small_world, tmp_path, section):
        """A vocabulary section that does not spell V_in distinct tokens,
        reserved first, is rejected even under a valid SHA-256."""
        _, _, vout = small_world
        params = init_params(5, len(vout), d=3, k=2, seed=0)
        path = tmp_path / "model.bin"
        dims = (params.d, params.k, params.v_in, params.v_out, len(section))
        sections = [section] + [a.astype("<f8").tobytes() for a in params.arrays()]
        _CHECKPOINT.write(path, vout.content_hash(), dims, sections)
        with pytest.raises(CorruptCheckpoint, match="vocabulary section"):
            load_checkpoint(path, vout)


@pytest.mark.parametrize(
    "kwargs",
    [{"epochs": 0}, {"batch_size": -1}, {"d": 0}, {"k": 0}, {"seed": -1}, {"lr": 0.0},
     {"lr": float("nan")}, {"epochs": 2.0}, {"order_strategy": "random"}],
)
def test_train_config_rejects_out_of_range(kwargs):
    with pytest.raises(InvalidConfig):
        TrainConfig(**kwargs)
