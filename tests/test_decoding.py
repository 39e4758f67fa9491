import itertools

import numpy as np
import pytest

from ettag.catalog import BOS, EOS, SEP, UNK, EntityCatalog, tokenize
from ettag.decoding import (
    DecodeConfig,
    _normalized,
    _top_k,
    beam_decode,
    beam_decode_many,
    greedy_decode,
    parse_output,
)
from ettag.errors import InvalidConfig, NoFinishedHypothesis, ScorerContractViolation
from ettag.toy_model import ToyScorer, init_params
from ettag.trie import ROOT, allowed_tokens

from helpers import (
    OracleScorer,
    RandomScorer,
    UniformScorer,
    brute_force_language,
    catalog_stack,
    exhaustive_best,
    log_softmax,
    name_token_seqs,
    oracle_prefix_allowed,
    random_catalog,
    reference_beam_decode,
)


class TestGreedy:
    def test_follows_an_oracle_scorer(self):
        cat, vout, trie = catalog_stack(EntityCatalog(["Earth", "Parsec"]))
        target = (
            tokenize("Earth", vout, mode="output")
            + [SEP]
            + tokenize("Parsec", vout, mode="output")
            + [EOS]
        )
        scorer = OracleScorer(len(vout), target)
        assert greedy_decode(scorer, trie, [], DecodeConfig(beam_size=1)) == target

    def test_forced_single_path(self):
        cat, vout, trie = catalog_stack(EntityCatalog(["Earth"]))
        toks = greedy_decode(UniformScorer(len(vout)), trie, [], DecodeConfig(beam_size=1))
        assert toks == tokenize("Earth", vout, mode="output") + [EOS]

    def test_uniform_tie_break_matches_enumeration(self):
        # under a uniform scorer with renormalization every step is a tie, so
        # greedy must repeatedly take the lowest allowed token id; derive the
        # expected sequence by walking the oracle allowed-set table
        cat, vout, trie = catalog_stack(EntityCatalog(["Earth", "Parsec"]))
        config = DecodeConfig(beam_size=1, max_entities=3)
        language = brute_force_language(name_token_seqs(cat, vout), 3)
        table = oracle_prefix_allowed(language)
        expected: list[int] = []
        while tuple(expected) in table:
            expected.append(table[tuple(expected)][0])
        got = greedy_decode(UniformScorer(len(vout)), trie, [], config)
        assert got == expected

    def test_budget_exhaustion_reports(self):
        cat, vout, trie = catalog_stack(EntityCatalog(["Alpha beta gamma delta"]))
        with pytest.raises(NoFinishedHypothesis):
            greedy_decode(UniformScorer(len(vout)), trie, [], DecodeConfig(beam_size=1, max_tokens=2))

    def test_scorer_contract_enforced(self):
        cat, vout, trie = catalog_stack(EntityCatalog(["a b", "a c", "d"]))

        class Constant:
            """Rows of one value of any size: unnormalized, yet uniform."""

            def __init__(self, value, width):
                self.value, self.width = value, width

            def encode(self, ids):
                return None

            def next_logprobs(self, enc, prefix):
                return np.full(self.width, self.value)

        class NonFinite(Constant):
            def next_logprobs(self, enc, prefix):
                v = super().next_logprobs(enc, prefix)
                v[0] = np.nan  # BOS, never an allowed token, is checked too
                return v

        for config in (DecodeConfig(beam_size=1), DecodeConfig(beam_size=3, renormalize_constrained=False)):
            want = beam_decode(UniformScorer(len(vout)), trie, [], config)
            got = beam_decode(Constant(0.0, len(vout)), trie, [], config)
            assert [t for t, _ in got] == [t for t, _ in want]
            np.testing.assert_allclose([s for _, s in got], [s for _, s in want], rtol=0, atol=1e-12)
            for bad in (NonFinite(0.0, len(vout)), Constant(0.0, 3), Constant(0.0, len(vout) + 1)):
                with pytest.raises(ScorerContractViolation):
                    beam_decode(bad, trie, [], config)


def _decode_or_error(decode, *args):
    try:
        return decode(*args)
    except NoFinishedHypothesis:
        return NoFinishedHypothesis


def _uniform_batch_scorer(v, damage):
    """Uniform scorer whose [B, V] matrix goes through ``damage`` once the beam has two rows."""

    class Scorer:
        def encode(self, ids):
            return None

        def next_logprobs(self, enc, prefix):
            return np.full(v, -np.log(v))

        def next_logprobs_batch(self, encodings, prefixes):
            lp = np.full((len(prefixes), v), -np.log(v))
            return damage(lp) if len(prefixes) >= 2 else lp

    return Scorer()


def _nan_row(lp):
    lp[1] = np.nan
    return lp


@pytest.mark.parametrize(
    "damage",
    [_nan_row, lambda lp: lp[:, 1:], lambda lp: np.hstack((lp, lp[:, :1])), lambda lp: lp[1:], lambda lp: lp[0]],
    ids=["nan-row", "narrow-row", "wide-row", "missing-row", "one-dimensional"],
)
def test_batched_scorer_contract_enforced(damage):
    cat, vout, trie = catalog_stack(EntityCatalog(["a b", "a c", "d"]))
    config = DecodeConfig(beam_size=2)
    assert beam_decode(_uniform_batch_scorer(len(vout), lambda lp: lp), trie, [], config)
    with pytest.raises(ScorerContractViolation):
        beam_decode(_uniform_batch_scorer(len(vout), damage), trie, [], config)


def test_non_numeric_logits_are_named():
    # equal-length rows of strings (a ValueError in numpy) or of other objects (a TypeError)
    cat, vout, trie = catalog_stack(EntityCatalog(["a b", "a c", "d"]))
    for entry in ("a", {}):
        scorer = _uniform_batch_scorer(len(vout), lambda lp: [[entry] * len(row) for row in lp])
        with pytest.raises(ScorerContractViolation, match=r"not a numeric \[B, V\] matrix"):
            beam_decode(scorer, trie, [], DecodeConfig(beam_size=2))


def test_ragged_fallback_rows_enforced():
    # without next_logprobs_batch the per-row vectors are stacked; rows of two lengths cannot be
    cat, vout, trie = catalog_stack(EntityCatalog(["a b", "a c", "d"]))
    a = tokenize("a", vout, mode="output")[0]

    class Ragged:
        def encode(self, ids):
            return None

        def next_logprobs(self, enc, prefix):
            n = len(vout) + (1 if list(prefix[-1:]) == [a] else 0)
            return np.full(n, -np.log(n))

    with pytest.raises(ScorerContractViolation):
        beam_decode(Ragged(), trie, [], DecodeConfig(beam_size=2))


class TestTopK:
    """``_top_k`` keeps exactly the first k of the full stable sort."""

    @staticmethod
    def _step(rng, n, kind):
        # tokens ascend within each parent row and repeat across rows, as in a beam step
        sizes = rng.multinomial(n, np.full(4, 0.25))
        cand = np.concatenate([np.sort(rng.choice(max(n, 8), size=s, replace=False)) for s in sizes])
        if kind == "continuous":
            neg = rng.normal(size=n)
        elif kind == "quantized":  # few distinct scores, so ties straddle the k-th one
            neg = rng.integers(0, 4, size=n) * 0.25
        elif kind == "signed-zero":
            neg = rng.choice([-0.0, 0.0, 0.5], size=n)
        else:
            neg = np.full(n, 1.5)
        return neg, cand.astype(np.int64)

    @pytest.mark.parametrize("kind", ["continuous", "quantized", "signed-zero", "constant"])
    def test_matches_the_full_sort(self, kind):
        rng = np.random.default_rng(["continuous", "quantized", "signed-zero", "constant"].index(kind))
        straddled = 0
        for k in (1, 2, 3, 5, 20):
            for n in sorted({max(k - 1, 1), k, k + 1, 3 * k, 97, 400, 401, 3200}):
                for _ in range(5):
                    neg, cand = self._step(rng, n, kind)
                    want = np.lexsort((cand, neg))[:k]
                    got = _top_k(neg, cand, k)
                    assert got.tolist() == want.tolist(), (k, n)
                    if n > k:
                        straddled += (neg <= np.sort(neg)[k - 1]).sum() > k
        if kind != "continuous":
            assert straddled > 0

    def test_negative_and_positive_zero_tie(self):
        # -0.0 == 0.0, so their order is the token's, then the index's
        neg = np.array([0.0, -0.0, 1.0, -0.0, 0.0, -1.0])
        cand = np.array([3, 3, 0, 1, 2, 7])
        assert _top_k(neg, cand, 3).tolist() == [5, 3, 4]
        assert _top_k(neg, cand, 4).tolist() == [5, 3, 4, 0]


@pytest.mark.parametrize("allowed_only", [True, False], ids=["allowed-only", "full-row"])
def test_a_row_normalizes_the_same_alone_or_among_others(allowed_only):
    # compared with ==: a row's normalized values must not depend on the other rows of its step
    rng = np.random.default_rng(2500 + allowed_only)
    v = 5000
    for _ in range(6):
        sizes = rng.integers(1, v + 1, size=int(rng.integers(2, 12)))
        logits = rng.normal(scale=4.0, size=(len(sizes), v))
        parts = [np.sort(rng.choice(v, size=n, replace=False)) for n in sizes]
        starts = [0, *np.cumsum(sizes)[:-1].tolist()]
        rows = np.arange(len(sizes)).repeat(sizes)
        together = _normalized(logits, rows, np.concatenate(parts), starts, allowed_only)
        for i, (cand, c0) in enumerate(zip(parts, starts)):
            alone = _normalized(logits[i:i + 1], np.zeros(len(cand), dtype=np.int64), cand, [0], allowed_only)
            assert np.array_equal(alone, together[c0:c0 + len(cand)]), (i, len(cand))


class _Shifted:
    """A scorer's rows, each plus a constant of up to 100 in size that
    depends on the prefix: the same distributions, unnormalized."""

    def __init__(self, base):
        self.base = base

    def encode(self, ids):
        return self.base.encode(ids)

    def next_logprobs(self, enc, prefix):
        shift = np.random.default_rng(abs(hash(tuple(prefix)))).uniform(-100.0, 100.0)
        return self.base.next_logprobs(enc, prefix) + shift


def _unpadded(prefixes):
    """Each row's prefix: its tokens other than BOS, which is never an output token."""
    return [[t for t in p if t != BOS] for p in prefixes.tolist()]


class _ShiftedBatch(_Shifted):
    def next_logprobs_batch(self, encodings, prefixes):
        return np.array([self.next_logprobs(enc, p) for enc, p in zip(encodings, _unpadded(prefixes))])


class TestBeam:
    @pytest.mark.parametrize("renormalize", [True, False])
    @pytest.mark.parametrize("shifted", [_Shifted, _ShiftedBatch], ids=["per-row", "batch"])
    def test_a_constant_added_to_a_row_decodes_the_same(self, shifted, renormalize):
        # the decoder normalizes every row itself, so scores are unnormalized log-probabilities
        for seed in range(6):
            rng = np.random.default_rng(1300 + seed)
            cat, vout, trie = catalog_stack(random_catalog(rng, int(rng.integers(3, 30)), n_words=30))
            base = RandomScorer(len(vout), seed=seed)
            for beam in (1, 2, 5):
                config = DecodeConfig(beam_size=beam, max_entities=3, renormalize_constrained=renormalize)
                want = beam_decode(base, trie, [seed], config)
                got = beam_decode(shifted(base), trie, [seed], config)
                assert [t for t, _ in got] == [t for t, _ in want]
                np.testing.assert_allclose([s for _, s in got], [s for _, s in want], rtol=0, atol=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_hypothesis_reference(self, seed):
        switches = [{}, {"no_repeat": False}, {"allow_empty": True}, {"renormalize_constrained": False},
                    {"length_normalize": True}, {"max_tokens": 4}, {"max_entities": 8}]
        for case in range(2):
            rng = np.random.default_rng(700 + 2 * seed + case)
            cat, vout, trie = catalog_stack(random_catalog(rng, int(rng.integers(2, 9))))
            # the uniform scorer ties every step, so the tie rule decides
            scorers = (RandomScorer(len(vout), seed=seed), UniformScorer(len(vout)))
            for scorer, switch, beam in itertools.product(scorers, switches, (1, 2, 3, 5, 8)):
                config = DecodeConfig(**{"beam_size": beam, "max_entities": 3, **switch})
                want = _decode_or_error(reference_beam_decode, scorer, trie, [case], config)
                got = _decode_or_error(beam_decode, scorer, trie, [case], config)
                if want is NoFinishedHypothesis:
                    assert got is NoFinishedHypothesis
                    continue
                assert got == want

    def test_beam_1_is_bit_identical_to_per_row_scoring(self):
        # compared with ==: the decoder normalizes a lone row as it does any row, and so does the reference
        for seed in range(120):
            rng = np.random.default_rng(1500 + seed)
            cat, vout, trie = catalog_stack(random_catalog(rng, int(rng.integers(10, 60)), n_words=30))
            scorer = RandomScorer(len(vout), seed=seed)
            for renormalize in (True, False):
                config = DecodeConfig(beam_size=1, max_entities=3, renormalize_constrained=renormalize)
                assert beam_decode(scorer, trie, [seed], config) == reference_beam_decode(scorer, trie, [seed], config)

    @pytest.mark.parametrize("beam", [2, 5, 20])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_reference_on_wide_steps(self, seed, beam):
        # hundreds of names over 60 words: a step offers many times beam_size candidates
        rng = np.random.default_rng(900 + seed)
        cat, vout, trie = catalog_stack(random_catalog(rng, int(rng.integers(150, 401)), n_words=60))
        assert len(allowed_tokens(trie, ROOT, frozenset(), DecodeConfig(), 0)) > 2 * 20
        scorers = (RandomScorer(len(vout), seed=seed), UniformScorer(len(vout)))
        for scorer, switch in itertools.product(scorers, ({}, {"renormalize_constrained": False})):
            config = DecodeConfig(**{"beam_size": beam, "max_entities": 3, **switch})
            want = reference_beam_decode(scorer, trie, [seed], config)
            assert beam_decode(scorer, trie, [seed], config) == want

    @pytest.mark.parametrize("renormalize", [True, False])
    def test_beam_matches_exhaustive_search(self, renormalize):
        for seed in range(10):
            rng = np.random.default_rng(seed + 100)
            cat = random_catalog(rng, int(rng.integers(2, 6)), max_len=2)
            cat, vout, trie = catalog_stack(cat)
            config = DecodeConfig(
                beam_size=1, max_entities=2, max_tokens=12,
                renormalize_constrained=renormalize,
            )
            language = {
                s for s in brute_force_language(name_token_seqs(cat, vout), 2)
                if len(s) <= config.max_tokens
            }
            scorer = RandomScorer(len(vout), seed=seed)
            best_seq, best_score = exhaustive_best(scorer, [7], language, renormalize)
            wide = DecodeConfig(
                beam_size=len(language), max_entities=2, max_tokens=12,
                renormalize_constrained=renormalize,
            )
            ranked = beam_decode(scorer, trie, [7], wide)
            assert tuple(ranked[0][0]) == best_seq
            assert ranked[0][1] == pytest.approx(best_score, abs=1e-9)

    def test_monotone_in_beam_size(self):
        # fixed-seed instances; with a retirement pool and fixed scoring the
        # best finished score never degrades as the beam widens
        for seed in range(25):
            rng = np.random.default_rng(seed + 500)
            cat = random_catalog(rng, int(rng.integers(2, 7)))
            cat, vout, trie = catalog_stack(cat)
            scorer = RandomScorer(len(vout), seed=seed)
            best = -np.inf
            for beam in (1, 2, 3, 5, 8):
                config = DecodeConfig(beam_size=beam, max_entities=3)
                score = beam_decode(scorer, trie, [3], config)[0][1]
                assert score >= best - 1e-12
                best = max(best, score)

    def test_ranked_pool_is_sorted_and_bounded(self):
        cat, vout, trie = catalog_stack(EntityCatalog(["a", "b", "c", "d"]))
        ranked = beam_decode(RandomScorer(len(vout), 0), trie, [], DecodeConfig(beam_size=3))
        assert len(ranked) <= 3
        scores = [s for _, s in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_no_finished_hypothesis(self):
        cat, vout, trie = catalog_stack(EntityCatalog(["Alpha beta gamma delta"]))
        with pytest.raises(NoFinishedHypothesis):
            beam_decode(UniformScorer(len(vout)), trie, [], DecodeConfig(beam_size=2, max_tokens=3))

    def test_length_normalized_ranking(self):
        cat, vout, trie = catalog_stack(EntityCatalog(["a", "a b c d"]))
        config = DecodeConfig(beam_size=8, max_entities=1, length_normalize=True)
        ranked = beam_decode(UniformScorer(len(vout)), trie, [], config)
        # normalized scores divide by length, so ranking differs from raw sums
        for tokens, score in ranked:
            assert score == pytest.approx(
                oracle_score_raw(UniformScorer(len(vout)), tokens, trie, config) / len(tokens)
            )


class _EndsByInput(_ShiftedBatch):
    """Shifted rows whose <eos> and <sep> logits follow the input: a document
    with an even number of input ids stops after its first name, any other
    one goes on to max_entities names, so documents decode to very different
    lengths."""

    def next_logprobs(self, enc, prefix):
        row = super().next_logprobs(enc, prefix)
        push = 30.0 if len(enc) % 2 == 0 else -30.0
        row[EOS] += push
        row[SEP] -= push
        return row


class _Recording(_EndsByInput):
    """Records the (encoding, prefix) pair of every row it scores. Each row
    of a batch call must be BOS padding followed by a prefix with no BOS."""

    def __init__(self, base):
        super().__init__(base)
        self.seen = []

    def next_logprobs(self, enc, prefix):
        assert isinstance(prefix, list)
        self.seen.append((enc, tuple(prefix)))
        return super().next_logprobs(enc, prefix)

    def next_logprobs_batch(self, encodings, prefixes):
        for row in prefixes.tolist():
            assert BOS not in itertools.dropwhile(lambda t: t == BOS, row)
        return super().next_logprobs_batch(encodings, prefixes)


def _scorer(kind, v, seed):
    """RandomScorer through the per-row fallback, shifted rows through a
    batch method, shifted rows whose documents end early or late, a ToyScorer
    whose weights are scaled up so its rows differ, or a uniform scorer,
    whose every step is a tie."""
    if kind == "uniform":
        return UniformScorer(v)
    if kind == "toy":
        params = init_params(50, v, d=6, k=3, seed=seed)
        params.flat *= 30.0
        return ToyScorer(params)
    base = RandomScorer(v, seed=seed)
    return {"per-row": base, "batch": _ShiftedBatch(base), "ragged": _EndsByInput(base)}[kind]


class _Targets:
    """Input [j] is near-certain of ``targets[j]``: a document's encoding is
    its oracle. Records the encodings it makes and the rows of each call."""

    def __init__(self, v, targets):
        self.v, self.targets = v, targets
        self.encoded, self.calls = [], []

    def encode(self, ids):
        self.encoded.append(ids[0])
        return OracleScorer(self.v, self.targets[ids[0]])

    def next_logprobs(self, oracle, prefix):
        return oracle.next_logprobs(None, prefix)

    def next_logprobs_batch(self, encodings, prefixes):
        self.calls.append(len(prefixes))
        return np.array([self.next_logprobs(e, p) for e, p in zip(encodings, _unpadded(prefixes))])


@pytest.fixture
def long_and_short():
    """A trie and two targets: input [0] decodes to 9 tokens, input [1] to 2."""
    cat, vout, trie = catalog_stack(EntityCatalog(["a", "b c d e", "f g h"]))
    a, b, c, d, e, f, g, h = (tokenize(w, vout, mode="output")[0] for w in "abcdefgh")
    return trie, len(vout), [[b, c, d, e, SEP, f, g, h, EOS], [a, EOS]]


class TestManyDocuments:
    """``beam_decode_many`` decodes each document as ``beam_decode`` does alone."""

    SWITCHES = [{}, {"renormalize_constrained": False}, {"length_normalize": True}, {"no_repeat": False},
                {"allow_empty": True}]

    @pytest.mark.parametrize("beam", [1, 2, 5, 20])
    @pytest.mark.parametrize("kind", ["per-row", "batch", "ragged", "toy", "uniform"])
    def test_matches_one_document_decodes(self, kind, beam, monkeypatch):
        rng = np.random.default_rng(2100 + beam)
        cat, vout, trie = catalog_stack(random_catalog(rng, 25, n_words=30))
        scorer = _scorer(kind, len(vout), beam)
        inputs = [rng.integers(0, 50, size=int(rng.integers(0, 4))).tolist() for _ in range(11)]
        # (row budget, document order): one live document at a time, three at
        # a time, and up to 64 rows' worth, every document at once below beam 6
        splits = [(1, np.arange(11)), (3 * beam, np.arange(11)[::-1]), (64, rng.permutation(11))]
        for i, switch in enumerate(self.SWITCHES):
            config = DecodeConfig(**{"beam_size": beam, "max_entities": 1 + i % 3, **switch})
            want = [beam_decode(scorer, trie, ids, config) for ids in inputs]
            if kind == "ragged" and config.max_entities == 3:
                lengths = [len(ranked[0][0]) for ranked in want]
                assert max(lengths) >= 4 * min(lengths)
            for group_rows, order in splits:
                monkeypatch.setattr("ettag.decoding._GROUP_ROWS", group_rows)
                got = beam_decode_many(scorer, trie, [inputs[j] for j in order], config)
                assert len(got) == len(inputs)
                for j, ranked in zip(order, got):
                    if kind == "toy":
                        # ToyScorer's matrix product rounds by the call's row count in the BLAS
                        # numpy ships, so its rows, and the scores built on them, move in the last bits
                        assert [t for t, _ in ranked] == [t for t, _ in want[j]]
                        np.testing.assert_allclose([s for _, s in ranked], [s for _, s in want[j]], rtol=0, atol=1e-12)
                    else:
                        assert ranked == want[j]

    def test_no_documents(self):
        cat, vout, trie = catalog_stack(EntityCatalog(["a b", "d"]))
        assert beam_decode_many(UniformScorer(len(vout)), trie, [], DecodeConfig()) == []

    def test_one_unfinished_document_raises(self):
        cat, vout, trie = catalog_stack(EntityCatalog(["a", "b c d e"]))
        a, b, c, d, e = (tokenize(w, vout, mode="output")[0] for w in "abcde")

        class ByInput:
            """Input [0] is near-certain of "a" <eos> and input [1] of "b c d e" <eos>:
            a document's encoding is its oracle."""

            def encode(self, ids):
                return OracleScorer(len(vout), [[a, EOS], [b, c, d, e, EOS]][ids[0]])

            def next_logprobs(self, oracle, prefix):
                return oracle.next_logprobs(None, prefix)

        config = DecodeConfig(beam_size=1, max_tokens=3)
        assert beam_decode_many(ByInput(), trie, [[0], [0]], config) == [beam_decode(ByInput(), trie, [0], config)] * 2
        with pytest.raises(NoFinishedHypothesis, match=r"document 1 .*max_tokens=3"):
            beam_decode_many(ByInput(), trie, [[0], [1], [0]], config)

    def test_an_unfinished_document_fails_when_it_retires(self, long_and_short, monkeypatch):
        # two documents live at a time: input 2, admitted at step 2, runs out
        # of tokens at step 4, when only 5 of the 8 documents are encoded
        trie, v, targets = long_and_short
        monkeypatch.setattr("ettag.decoding._GROUP_ROWS", 2)
        scorer = _Targets(v, targets)
        with pytest.raises(NoFinishedHypothesis, match=r"document 2 .*max_tokens=3"):
            beam_decode_many(scorer, trie, [[1], [1], [0]] + [[1]] * 5, DecodeConfig(beam_size=1, max_tokens=3))
        assert scorer.encoded == [1, 1, 0, 1, 1]

    def test_a_finished_document_is_replaced_at_the_next_step(self, long_and_short, monkeypatch):
        # four documents live at a time: the short ones share three slots
        # while the long one decodes, so every step is one of its own
        trie, v, targets = long_and_short
        monkeypatch.setattr("ettag.decoding._GROUP_ROWS", 4)
        inputs = [[0]] + [[1]] * 9
        scorer = _Targets(v, targets)
        got = beam_decode_many(scorer, trie, inputs, DecodeConfig(beam_size=1))
        assert [r[0][0] for r in got] == [targets[ids[0]] for ids in inputs]
        assert len(scorer.calls) == len(targets[0]) and sum(scorer.calls) == 9 + 9 * 2
        assert scorer.calls[:6] == [4] * 6 and scorer.calls[6:] == [1] * 3
        assert scorer.encoded == [0] + [1] * 9

    @pytest.mark.parametrize("group_rows", [1, 2, 3])
    def test_the_budget_counts_a_document_s_own_steps(self, long_and_short, group_rows, monkeypatch):
        # the long document is admitted after several steps and needs all of max_tokens
        trie, v, targets = long_and_short
        monkeypatch.setattr("ettag.decoding._GROUP_ROWS", group_rows)
        config = DecodeConfig(beam_size=1, max_tokens=len(targets[0]))
        got = beam_decode_many(_Targets(v, targets), trie, [[1]] * 5 + [[0]], config)
        assert got[-1] == beam_decode(_Targets(v, targets), trie, [0], config)
        assert got[-1][0][0] == targets[0]

    @pytest.mark.parametrize("beam", [1, 2, 5])
    def test_the_fallback_scores_the_unpadded_prefixes(self, beam, monkeypatch):
        # a per-row scorer is called with exactly the (encoding, prefix) pairs of the one-document decodes
        rng = np.random.default_rng(2200 + beam)
        cat, vout, trie = catalog_stack(random_catalog(rng, 25, n_words=30))

        class Recording(_Recording):
            next_logprobs_batch = None

        inputs = [[j] * (1 + j % 2) for j in range(9)]
        config = DecodeConfig(beam_size=beam, max_entities=3)
        alone = Recording(RandomScorer(len(vout), seed=beam))
        want = [beam_decode(alone, trie, ids, config) for ids in inputs]
        for group_rows in (2 * beam, 64):
            monkeypatch.setattr("ettag.decoding._GROUP_ROWS", group_rows)
            together = Recording(RandomScorer(len(vout), seed=beam))
            assert beam_decode_many(together, trie, inputs, config) == want
            assert sorted(together.seen) == sorted(alone.seen)

    @pytest.mark.parametrize("beam", [1, 2, 5])
    def test_batch_rows_are_bos_padded_prefixes(self, beam, monkeypatch):
        # BOS padding marks where a row's prefix starts: unpadded, the rows of
        # the batch calls are the (encoding, prefix) pairs of the one-document decodes
        rng = np.random.default_rng(2300 + beam)
        cat, vout, trie = catalog_stack(random_catalog(rng, 25, n_words=30))
        inputs = [[j] * (1 + j % 2) for j in range(9)]
        for i, switch in enumerate(self.SWITCHES):
            config = DecodeConfig(**{"beam_size": beam, "max_entities": 1 + i % 3, **switch})
            alone = _Recording(RandomScorer(len(vout), seed=beam))
            want = [beam_decode(alone, trie, ids, config) for ids in inputs]
            for group_rows in (2 * beam, 64):
                monkeypatch.setattr("ettag.decoding._GROUP_ROWS", group_rows)
                together = _Recording(RandomScorer(len(vout), seed=beam))
                got = beam_decode_many(together, trie, inputs, config)
                assert [[t for t, _ in ranked] for ranked in got] == [[t for t, _ in ranked] for ranked in want]
                assert sorted(together.seen) == sorted(alone.seen)

    @pytest.mark.parametrize("batched", [False, True], ids=["per-row", "batch"])
    def test_a_bad_row_of_the_second_document_is_a_violation(self, batched):
        cat, vout, trie = catalog_stack(EntityCatalog(["a b", "a c", "d"]))

        class NanForSecond(UniformScorer):
            """Uniform rows, except NaN rows for input [1] past the first step."""

            def encode(self, ids):
                return tuple(ids)

            def next_logprobs(self, enc, prefix):
                return np.full(self.v, np.nan if enc == (1,) and len(prefix) else -np.log(self.v))

        class NanForSecondBatch(NanForSecond):
            def next_logprobs_batch(self, encodings, prefixes):
                return np.array([self.next_logprobs(e, p) for e, p in zip(encodings, _unpadded(prefixes))])

        scorer = (NanForSecondBatch if batched else NanForSecond)(len(vout))
        for beam in (1, 2):
            config = DecodeConfig(beam_size=beam)
            assert len(beam_decode_many(scorer, trie, [[0], [2]], config)) == 2
            with pytest.raises(ScorerContractViolation):
                beam_decode_many(scorer, trie, [[0], [1], [2]], config)


def oracle_score_raw(scorer, tokens, trie, config):
    # recompute a hypothesis score by teacher-forcing the decoder's own rule
    from ettag.trie import advance, allowed_tokens

    cur = ROOT
    emitted: frozenset = frozenset()
    n_names = 0
    enc = scorer.encode([])
    total = 0.0
    for j, tok in enumerate(tokens):
        allowed = allowed_tokens(trie, cur, emitted, config, n_names)
        lp = scorer.next_logprobs(enc, tokens[:j])
        if config.renormalize_constrained:
            vals = lp[allowed]
            m = vals.max()
            vals = vals - (m + np.log(np.exp(vals - m).sum()))
        else:
            vals = log_softmax(lp)[allowed]
        total += float(vals[list(allowed).index(tok)])
        if tok == SEP:
            emitted = emitted | {trie.terminal_entity(cur)}
            n_names += 1
        if tok != EOS:
            cur = advance(trie, cur, tok)
    return total


class TestValidityFuzz:
    def test_decodes_always_parse(self):
        n_parsed = 0
        for seed in range(120):
            rng = np.random.default_rng(seed)
            cat = random_catalog(rng, int(rng.integers(2, 8)))
            cat, vout, trie = catalog_stack(cat)
            scorer = RandomScorer(len(vout), seed=seed)
            config = DecodeConfig(beam_size=1 + seed % 4, max_entities=3)
            if seed % 2:
                tokens = beam_decode(scorer, trie, [seed % 5], config)[0][0]
            else:
                tokens = greedy_decode(
                    scorer, trie, [seed % 5],
                    DecodeConfig(beam_size=1, max_entities=3),
                )
            entities, dropped = parse_output(tokens, trie)
            assert dropped == 0
            assert entities
            n_parsed += 1
        assert n_parsed == 120

    def test_termination_within_budget(self):
        for seed in range(40):
            rng = np.random.default_rng(seed + 900)
            cat = random_catalog(rng, int(rng.integers(1, 6)))
            cat, vout, trie = catalog_stack(cat)
            config = DecodeConfig(
                beam_size=2,
                max_entities=int(rng.integers(1, 5)),
                no_repeat=bool(seed % 3),
            )
            tokens = beam_decode(RandomScorer(len(vout), seed), trie, [], config)[0][0]
            assert len(tokens) <= config.max_tokens
            assert tokens[-1] == EOS


class TestParseOutput:
    def test_duplicates_collapse(self):
        cat, vout, trie = catalog_stack(EntityCatalog(["Earth", "Parsec"]))
        earth = tokenize("Earth", vout, mode="output")
        parsec = tokenize("Parsec", vout, mode="output")
        seq = earth + [SEP] + earth + [SEP] + parsec + [EOS]
        entities, dropped = parse_output(seq, trie)
        assert entities == {cat.id_of("Earth"), cat.id_of("Parsec")}
        assert dropped == 0

    def test_empty_output(self):
        cat, vout, trie = catalog_stack(EntityCatalog(["Earth"]))
        assert parse_output([EOS], trie) == (set(), 0)

    def test_garbage_segment_dropped_and_counted(self):
        cat, vout, trie = catalog_stack(EntityCatalog(["Earth", "Parsec"]))
        earth = tokenize("Earth", vout, mode="output")
        seq = earth + [SEP, UNK, EOS]
        entities, dropped = parse_output(seq, trie)
        assert entities == {cat.id_of("Earth")}
        assert dropped == 1

    def test_total_on_arbitrary_sequences(self):
        cat, vout, trie = catalog_stack(EntityCatalog(["Earth"]))
        rng = np.random.default_rng(4)
        for _ in range(200):
            seq = rng.integers(0, len(vout), size=rng.integers(0, 12)).tolist()
            entities, dropped = parse_output(seq, trie)
            assert dropped >= 0
            assert all(0 <= e < len(cat) for e in entities)


@pytest.mark.parametrize(
    "kwargs",
    [{"beam_size": 0}, {"beam_size": -3}, {"max_entities": 0}, {"max_tokens": 0},
     {"beam_size": True}, {"beam_size": "5"}, {"no_repeat": "false"}, {"allow_empty": 1}],
)
def test_decode_config_rejects_out_of_range(kwargs):
    with pytest.raises(InvalidConfig):
        DecodeConfig(**kwargs)
