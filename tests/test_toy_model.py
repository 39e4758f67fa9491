import numpy as np
import pytest

from ettag.catalog import BOS, EOS, SEP, EntityCatalog, build_vocabularies, nul_terminated, tokenize
from ettag.decoding import DecodeConfig, greedy_decode, parse_output
from ettag.errors import CorruptCheckpoint, InputError, InvalidConfig, MissingMentionOrder, UnknownEntity
from ettag.ingest import ETExample
from ettag.toy_model import (
    ToyModelParams,
    ToyScorer,
    TrainConfig,
    backward,
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
from ettag.toy_model import _CHECKPOINT
from ettag.trie import build_trie

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
    def test_zero_params_uniform(self, small_world):
        cat, vin, vout = small_world
        v = len(vout)
        params = ToyModelParams(
            e_in=np.zeros((len(vin), 3)),
            e_out=np.zeros((v, 3)),
            w=np.zeros((3 + 2 * 3, v)),
            b=np.zeros(v),
            k=2,
        )
        lp = next_logprobs(params, encode_input(params, [1]), [])
        np.testing.assert_allclose(lp, np.full(v, -np.log(v)), atol=1e-12)

    def test_normalized_for_random_params(self, small_world):
        cat, vin, vout = small_world
        for seed in range(20):
            params = init_params(len(vin), len(vout), d=6, k=3, seed=seed)
            rng = np.random.default_rng(seed)
            prefix = rng.integers(0, len(vout), size=rng.integers(0, 6)).tolist()
            lp = next_logprobs(params, encode_input(params, [2, 3]), prefix)
            assert np.all(np.isfinite(lp))
            assert abs(np.log(np.exp(lp).sum())) < 1e-6

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
        m = max(logits)
        z = sum(np.exp(v - m) for v in logits)
        want = np.array([v - m - np.log(z) for v in logits])

        got = next_logprobs(params, enc, prefix)
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestBuildTarget:
    def test_singleton(self, small_world):
        cat, vin, vout = small_world
        target = build_target({0}, [0], cat, vout)
        assert target == tokenize("red fox", vout, mode="output") + [EOS]

    def test_order_respected(self, small_world):
        cat, vin, vout = small_world
        target = build_target({0, 1}, [1, 0], cat, vout)
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
            target = build_target(set(gold), gold, cat, vout)
            assert target.count(SEP) == m - 1
            assert target.count(EOS) == 1 and target[-1] == EOS

    def test_not_a_permutation(self, small_world):
        cat, vin, vout = small_world
        with pytest.raises(ValueError):
            build_target({0, 1}, [0], cat, vout)

    def test_unknown_entity(self, small_world):
        cat, vin, vout = small_world
        with pytest.raises(UnknownEntity):
            build_target({99}, [99], cat, vout)


class TestSamplePermutation:
    def test_m1_identity(self):
        rng = np.random.default_rng(0)
        assert sample_permutation(rng, 1).tolist() == [0]

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
        params = ToyModelParams(
            e_in=np.zeros((len(vin), 3)),
            e_out=np.zeros((v, 3)),
            w=np.zeros((3 + 2 * 3, v)),
            b=np.zeros(v),
            k=2,
        )
        ex = example(cat, vin, "red fox", {0})
        target = build_target({0}, [0], cat, vout)
        assert nll_loss(params, ex, target) == pytest.approx(len(target) * np.log(v), rel=1e-12)

    def test_loss_nonnegative(self, small_world):
        cat, vin, vout = small_world
        for seed in range(10):
            params = init_params(len(vin), len(vout), d=4, k=2, seed=seed)
            ex = example(cat, vin, "blue jay and red fox", {0, 1})
            target = build_target({0, 1}, [0, 1], cat, vout)
            assert nll_loss(params, ex, target) >= 0.0

    def test_loss_near_uniform_at_init(self, small_world):
        cat, vin, vout = small_world
        params = init_params(len(vin), len(vout), d=8, k=3, seed=3)
        ex = example(cat, vin, "green frog alone", {2})
        target = build_target({2}, [2], cat, vout)
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
            target = build_target({0, 1}, [seed % 2, 1 - seed % 2], cat, vout)
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
        p = np.exp(next_logprobs(params, enc, []))
        for col in range(len(vout)):
            want = p[col] * feat
            if col == target[0]:
                want = want - feat
            np.testing.assert_allclose(grads.w[:, col], want, atol=1e-12)

    def test_absent_input_tokens_get_zero_gradient(self, small_world):
        cat, vin, vout = small_world
        params = init_params(len(vin), len(vout), d=4, k=2, seed=2)
        ex = example(cat, vin, "red fox", {0})
        target = build_target({0}, [0], cat, vout)
        _, grads = backward(params, ex, target)
        used = set(ex.input)
        for row in range(len(vin)):
            if row not in used:
                assert not grads.e_in[row].any()


class TestTrain:
    def test_memorizes_single_example(self, small_world):
        cat, vin, vout = small_world
        ex = example(cat, vin, "red fox and blue jay", {0, 1})
        config = TrainConfig(epochs=500, seed=1, lr=1e-2, order_strategy="lexicographic", d=8, k=2)
        params, curve = train([ex], config, cat, vin, vout)
        assert curve[-1] < 0.01
        trie = build_trie(cat, vout)
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
                optimizer=("adam", "sgd")[seed % 2],
                batch_size=1 + seed % 3, d=6, k=2,
            )
            _, curve = train(corpus, config, cat, vin, vout)
            assert all(np.isfinite(v) for v in curve)

    def test_bitwise_determinism(self, small_world):
        cat, vin, vout = small_world
        ex1 = example(cat, vin, "red fox", {0})
        ex2 = example(cat, vin, "blue jay green frog", {1, 2}, order=[2, 1])
        config = TrainConfig(epochs=20, seed=7, order_strategy="shuffle", d=6, k=2)
        p1, c1 = train([ex1, ex2], config, cat, vin, vout)
        p2, c2 = train([ex1, ex2], config, cat, vin, vout)
        assert c1 == c2
        for a, b in zip(p1.arrays(), p2.arrays()):
            assert np.array_equal(a, b)

    def test_mention_order_requires_gold_order(self, small_world):
        cat, vin, vout = small_world
        ex = example(cat, vin, "red fox", {0}, order=None)
        config = TrainConfig(epochs=1, order_strategy="mention_order")
        with pytest.raises(MissingMentionOrder):
            train([ex], config, cat, vin, vout)

    def test_divergence_raises(self, small_world):
        cat, vin, vout = small_world
        corpus = [example(cat, vin, "red fox", {0}), example(cat, vin, "blue jay green frog", {1, 2})]
        config = TrainConfig(epochs=3, optimizer="sgd", lr=1e200, d=6, k=2)
        with pytest.raises(InputError, match="diverged"):
            train(corpus, config, cat, vin, vout)


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
        etmdl1 = b"ETMDL1" + path.read_bytes()[8:]  # the magic of the earlier format
        for junk in (b"not a checkpoint", etmdl1):
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
     {"lr": float("nan")}, {"epochs": 2.0}, {"optimizer": "rmsprop"}],
)
def test_train_config_rejects_out_of_range(kwargs):
    with pytest.raises(InvalidConfig):
        TrainConfig(**kwargs)
