"""Shared test scaffolding: deterministic scorers, random catalogs, and the
independent oracles the spec-level checks compare against, among them the
name-by-name trie insertion that the per-depth build must reproduce, the
depth-first walk that the trie's derived fields must reproduce, the
whole-file KB read that the streamed catalog load must reproduce, the
per-hypothesis beam search that the batched decoder must reproduce and the
per-example backward and training loop that batched training must reproduce.

The oracles here deliberately avoid the trie/decoder code paths: the legal
output language is enumerated straight from the name token sequences, and
exhaustive-search scoring normalizes each scorer row itself, over the
oracle-derived allowed set or over the whole row, as the decoder does.
"""

from __future__ import annotations

import itertools
from array import array

import numpy as np

from dataclasses import dataclass

from ettag.catalog import BOS, EOS, SEP, EntityCatalog, Vocabulary, canonicalize, nul_terminated, tokenize
from ettag.decoding import DecodeConfig
from ettag.errors import DuplicateName, InvalidName, MalformedLine, NoFinishedHypothesis, ScorerContractViolation
from ettag.toy_model import ToyModelParams, build_target, encode_input, sample_permutation
from ettag.trie import FINISHED, ROOT, TokenTrie, TrieCursor, advance, allowed_tokens, build_trie


def log_softmax(x: np.ndarray) -> np.ndarray:
    m = x.max()
    z = x - m
    return z - np.log(np.exp(z).sum())


class UniformScorer:
    def __init__(self, v: int):
        self.v = v

    def encode(self, input_ids):
        return None

    def next_logprobs(self, encoding, prefix):
        return np.full(self.v, -np.log(self.v))


class RandomScorer:
    """Normalized log-probs, deterministic in (seed, input, prefix).

    Integer tuple hashes are stable in CPython, so this is reproducible
    across runs without PYTHONHASHSEED pinning.
    """

    def __init__(self, v: int, seed: int):
        self.v = v
        self.seed = seed

    def encode(self, input_ids):
        return tuple(input_ids)

    def next_logprobs(self, encoding, prefix):
        key = (self.seed, 0x9E3779B9) + tuple(encoding) + (-1,) + tuple(prefix)
        rng = np.random.default_rng(abs(hash(key)))
        return log_softmax(rng.normal(scale=2.0, size=self.v))


class OracleScorer:
    """Puts nearly all probability mass on one target sequence."""

    def __init__(self, v: int, target, strength: float = 25.0):
        self.v = v
        self.target = tuple(target)
        self.strength = strength

    def encode(self, input_ids):
        return None

    def next_logprobs(self, encoding, prefix):
        logits = np.zeros(self.v)
        prefix = tuple(prefix)
        if prefix == self.target[: len(prefix)] and len(prefix) < len(self.target):
            logits[self.target[len(prefix)]] = self.strength
        return log_softmax(logits)


def random_catalog(
    rng: np.random.Generator,
    n_names: int,
    prefix_pairs: int = 3,
    n_words: int = 20,
    max_len: int = 3,
) -> EntityCatalog:
    """Random multi-word catalog guaranteed to contain token-prefix overlaps."""
    words = [f"w{i:02d}" for i in range(n_words)]
    names: list[str] = []
    seen: set[str] = set()
    while len(names) < n_names:
        length = int(rng.integers(1, max_len + 1))
        name = " ".join(words[int(i)] for i in rng.integers(0, n_words, size=length))
        if name not in seen:
            seen.add(name)
            names.append(name)
    made = 0
    for _ in range(200):
        if made >= prefix_pairs:
            break
        base = names[int(rng.integers(0, len(names)))]
        ext = base + " " + words[int(rng.integers(0, n_words))]
        if ext not in seen:
            seen.add(ext)
            names.append(ext)
            made += 1
    assert made >= prefix_pairs, "could not build enough prefix-overlapping pairs"
    return EntityCatalog(names)


def count_prefix_pairs(catalog, vocab) -> int:
    seqs = name_token_seqs(catalog, vocab)
    return sum(
        1
        for a in seqs
        for b in seqs
        if a != b and len(a) < len(b) and b[: len(a)] == a
    )


def catalog_stack(catalog: EntityCatalog):
    """(catalog, output vocab, trie) bundle for constraint tests."""
    trie = build_trie(catalog)
    return catalog, catalog.output_vocab(), trie


def decode_spans(monkeypatch, block_names: int) -> list[int]:
    """Make each pass over a catalog's names take them ``block_names`` at a time,
    and return the list that then records how many names each
    ``EntityCatalog._decode`` call decodes."""
    import ettag.catalog

    monkeypatch.setattr(ettag.catalog, "_BLOCK_NAMES", block_names)
    spans: list[int] = []
    decode = EntityCatalog._decode

    def recorded(catalog, lo, hi):
        spans.append(hi - lo)
        return decode(catalog, lo, hi)

    monkeypatch.setattr(EntityCatalog, "_decode", recorded)
    return spans


def every_id(catalog: EntityCatalog) -> dict[str, int]:
    """Each catalog name's id, from a decode of every name: the mapping
    ``EntityCatalog.ids_of`` gives for a query of every name."""
    return {name: i for i, name in enumerate(catalog)}


def name_token_seqs(catalog: EntityCatalog, vocab: Vocabulary) -> list[tuple[int, ...]]:
    return [tuple(tokenize(n, vocab, mode="output")) for n in catalog]


def reference_build_trie(seqs: list[tuple[int, ...]], vocab_size: int) -> TokenTrie:
    """The trie over these token sequences (entity ``i`` spells ``seqs[i]``),
    built by inserting them one token at a time in sorted order."""
    # inserting the names in sorted order creates the nodes in preorder, each
    # node's children in ascending key order; edge i creates node i + 1
    terminal = array("i", [-1])
    parents = array("i")
    keys = array("i")
    stack = [ROOT]
    prev: tuple[int, ...] = ()
    for seq, eid in sorted(zip(seqs, range(len(seqs)))):
        lcp = 0
        limit = min(len(prev), len(seq))
        while lcp < limit and prev[lcp] == seq[lcp]:
            lcp += 1
        del stack[lcp + 1:]
        for tok in seq[lcp:]:
            parents.append(stack[-1])
            keys.append(tok)
            stack.append(len(terminal))
            terminal.append(-1)
        assert terminal[stack[-1]] == -1, "duplicate token sequence in catalog"
        terminal[stack[-1]] = eid
        prev = seq

    parents_np = np.asarray(parents, dtype=np.int32)
    order = np.argsort(parents_np, kind="stable")
    return TokenTrie.from_arrays(
        terminal=np.asarray(terminal, dtype=np.int32),
        child_counts=np.bincount(parents_np, minlength=len(terminal)).astype(np.int32),
        child_keys=np.asarray(keys, dtype=np.int32)[order],
        child_vals=(order + 1).astype(np.int32),
        n_entities=len(seqs),
        vocab_size=vocab_size,
    )


def reference_preorder_fields(terminal, child_counts, child_vals) -> tuple[list[int], list[int], int] | None:
    """What ``TokenTrie.from_arrays`` derives from these arrays, read off a
    depth-first walk from the root in CSR order: each edge's entity-rank
    interval (``child_lo``, ``child_hi``) and ``max_depth``. None when the
    walk does not reach every node once and in index order, that is when the
    arrays are not a preorder trie."""
    n, vals = len(terminal), [int(v) for v in child_vals]
    start = [0, *itertools.accumulate(int(c) for c in child_counts)]
    lo, hi, order, rank, max_depth = [0] * n, [0] * n, [], 0, 0
    stack = [(ROOT, 0)]
    while stack:
        node, depth = stack.pop()
        if node < 0:  # leaving the subtree of ~node
            hi[~node] = rank
            continue
        order.append(node)
        if len(order) > n:
            return None
        lo[node], max_depth = rank, max(max_depth, depth)
        rank += int(terminal[node] >= 0)
        stack.append((~node, depth))
        stack.extend((child, depth + 1) for child in reversed(vals[start[node]: start[node + 1]]))
    if order != list(range(n)):
        return None
    return [lo[v] for v in vals], [hi[v] for v in vals], max_depth


def reference_names_section(names) -> bytes:
    """The names section of a catalog of ``names``, checked over one list of
    them all: InvalidName for the first name that is empty once canonical,
    else for the first canonical name holding a reserved glyph, else
    DuplicateName listing every repeat in order."""
    canonical = [canonicalize(name) for name in names]
    for name in canonical:
        if "\u2581" in name:
            raise InvalidName(f"name contains the boundary marker U+2581: {name!r}")
        if "<sep>" in name:
            raise InvalidName(f"name contains the separator literal: {name!r}")
        if "\0" in name:
            raise InvalidName(f"name contains NUL: {name!r}")
    seen: set[str] = set()
    dups = []
    for name in canonical:
        if name in seen:
            dups.append(name)
        seen.add(name)
    if dups:
        raise DuplicateName(dups)
    return nul_terminated(canonical)


def reference_kb_names(path) -> list[str]:
    """The raw names of the KB file at ``path``, read whole in text mode
    (universal newlines, a leading byte-order mark skipped) and split on "\\n".
    The first line that is neither empty nor a '#' comment decides the layout:
    if it holds a tab, every such line must be ``id<TAB>name``."""
    with open(path, "r", encoding="utf-8-sig") as f:
        lines = f.read().split("\n")
    named = [(line_no, line) for line_no, line in enumerate(lines, 1) if line and not line.startswith("#")]
    if not named or "\t" not in named[0][1]:
        return [line for _, line in named]
    for line_no, line in named:
        if "\t" not in line:
            raise MalformedLine(line_no, f"expected id<TAB>name, as line {named[0][0]} has")
    return [line.split("\t", 1)[1] for _, line in named]


def brute_force_language(
    seqs: list[tuple[int, ...]],
    max_entities: int,
    allow_empty: bool = False,
) -> set[tuple[int, ...]]:
    """All no-repeat outputs: up to max_entities distinct names in any order,
    joined by SEP, ended by EOS. Enumerated straight from the name lists."""
    language: set[tuple[int, ...]] = set()
    if allow_empty:
        language.add((EOS,))
    for k in range(1, max_entities + 1):
        for combo in itertools.permutations(range(len(seqs)), k):
            out: list[int] = []
            for j, idx in enumerate(combo):
                if j:
                    out.append(SEP)
                out.extend(seqs[idx])
            out.append(EOS)
            language.add(tuple(out))
    return language


def enumerate_trie_language(
    trie: TokenTrie, config: DecodeConfig, cap: int = 2_000_000
) -> set[tuple[int, ...]]:
    """Everything reachable through allowed_tokens/advance until EOS."""
    out: set[tuple[int, ...]] = set()
    stack: list[tuple[TrieCursor, frozenset, int, tuple[int, ...]]] = [
        (ROOT, frozenset(), 0, ())
    ]
    while stack:
        cursor, emitted, n_names, prefix = stack.pop()
        for token in allowed_tokens(trie, cursor, emitted, config, n_names).tolist():
            if token == EOS:
                out.add(prefix + (EOS,))
                if len(out) > cap:
                    raise AssertionError("language blew past the enumeration cap")
                continue
            if token == SEP:
                term = trie.terminal_entity(cursor)
                stack.append(
                    (advance(trie, cursor, token), emitted | {term}, n_names + 1, prefix + (token,))
                )
            else:
                stack.append(
                    (advance(trie, cursor, token), emitted, n_names, prefix + (token,))
                )
    return out


def oracle_prefix_allowed(language: set[tuple[int, ...]]) -> dict[tuple[int, ...], list[int]]:
    """prefix -> sorted next tokens, derived purely from the enumerated language."""
    table: dict[tuple[int, ...], set[int]] = {}
    for seq in language:
        for j in range(len(seq)):
            table.setdefault(seq[:j], set()).add(seq[j])
    return {k: sorted(v) for k, v in table.items()}


def oracle_sequence_score(
    scorer,
    input_ids,
    seq: tuple[int, ...],
    allowed_map: dict[tuple[int, ...], list[int]],
    renormalize: bool,
) -> float:
    encoding = scorer.encode(input_ids)
    total = 0.0
    for j, tok in enumerate(seq):
        lp = scorer.next_logprobs(encoding, seq[:j])
        if renormalize:
            vals = lp[allowed_map[seq[:j]]]
            m = vals.max()
            total += lp[tok] - (m + np.log(np.exp(vals - m).sum()))
        else:
            total += log_softmax(lp)[tok]
    return float(total)


def exhaustive_best(
    scorer,
    input_ids,
    language: set[tuple[int, ...]],
    renormalize: bool,
) -> tuple[tuple[int, ...], float]:
    """Argmax over the full constrained language with the decoder's tie rule
    (higher score, then lexicographically smaller token sequence)."""
    allowed_map = oracle_prefix_allowed(language)
    best_seq, best_score = None, -np.inf
    for seq in sorted(language):
        score = oracle_sequence_score(scorer, input_ids, seq, allowed_map, renormalize)
        if score > best_score:
            best_seq, best_score = seq, score
    return best_seq, best_score


AIDA_KB_NAMES = ["Germany", "European Union", "Black hole", "BBC", "London"]


def write_aida_file(path, n_train: int, n_testa: int, n_testb: int) -> None:
    """Synthetic corpus in the AIDA CoNLL-YAGO column layout, replicating the
    published split structure (train docs plain-numbered, testa/testb docs
    with suffixed ids)."""
    lines: list[str] = []

    def doc(doc_id: str, idx: int):
        lines.append(f"-DOCSTART- ({doc_id})")
        kb = AIDA_KB_NAMES[idx % len(AIDA_KB_NAMES)]
        lines.append(f"{kb.split()[0]}\tB\t{kb}\t{kb.replace(' ', '_')}\thttp://en.wikipedia.org/wiki/{kb.replace(' ', '_')}\t{1000 + idx}\t/m/0{idx}")
        for extra in kb.split()[1:]:
            lines.append(f"{extra}\tI\t{kb}\t{kb.replace(' ', '_')}\thttp://en.wikipedia.org/wiki/{kb.replace(' ', '_')}\t{1000 + idx}\t/m/0{idx}")
        lines.append("said")
        lines.append(f"nobody\tB\tnobody\t--NME--")
        lines.append("")
        lines.append("The")
        lines.append("end")
        lines.append("")

    for i in range(n_train):
        doc(f"{i + 1} TRAINDOC", i)
    for i in range(n_testa):
        doc(f"{i + 947}testa VALDOC", i)
    for i in range(n_testb):
        doc(f"{i + 1163}testb TESTDOC", i)
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


@dataclass(frozen=True)
class Hypothesis:
    tokens: tuple[int, ...]
    score: float
    cursor: TrieCursor
    emitted: frozenset[int]
    n_names: int = 0
    finished: bool = False

    def final_score(self, config: DecodeConfig) -> float:
        if config.length_normalize and self.tokens:
            return self.score / len(self.tokens)
        return self.score


def _checked_logprobs(scorer, encoding, prefix, vocab_size: int) -> np.ndarray:
    """The scorer's unnormalized row for this prefix: V finite values."""
    lp = np.asarray(scorer.next_logprobs(encoding, prefix), dtype=np.float64)
    if lp.shape != (vocab_size,):
        raise ScorerContractViolation(f"logprob vector has shape {lp.shape}")
    if not np.all(np.isfinite(lp)):
        raise ScorerContractViolation("non-finite log-probabilities")
    return lp


def _step_logprobs(lp: np.ndarray, allowed: np.ndarray, config: DecodeConfig) -> np.ndarray:
    """The allowed tokens' log-probabilities, normalized over the allowed
    tokens or, with renormalization off, over the whole row, in the
    decoder's arithmetic: the allowed tokens are summed as one segment of
    ``np.add.reduceat``, and a value is ``x - (max + log Σ)``."""
    if not config.renormalize_constrained:
        m = lp.max()
        return lp[allowed] - (m + np.log(np.exp(lp - m).sum()))
    vals = lp[allowed]
    m = vals.max()
    return vals - (m + np.log(np.add.reduceat(np.exp(vals - m), [0])[0]))


def _extend(trie: TokenTrie, hyp: Hypothesis, token: int, score: float) -> Hypothesis:
    if token == EOS:
        term = trie.terminal_entity(hyp.cursor)
        emitted = hyp.emitted if term is None else hyp.emitted | {term}
        n_names = hyp.n_names if term is None else hyp.n_names + 1
        return Hypothesis(
            tokens=hyp.tokens + (token,),
            score=score,
            cursor=TrieCursor(FINISHED),
            emitted=emitted,
            n_names=n_names,
            finished=True,
        )
    if token == SEP:
        term = trie.terminal_entity(hyp.cursor)
        return Hypothesis(
            tokens=hyp.tokens + (token,),
            score=score,
            cursor=advance(trie, hyp.cursor, token),
            emitted=hyp.emitted | {term},
            n_names=hyp.n_names + 1,
        )
    return Hypothesis(
        tokens=hyp.tokens + (token,),
        score=score,
        cursor=advance(trie, hyp.cursor, token),
        emitted=hyp.emitted,
        n_names=hyp.n_names,
    )


def reference_beam_decode(scorer, trie: TokenTrie, input_ids, config: DecodeConfig):
    """Constrained beam search one hypothesis at a time: one scorer call,
    contract check and normalization per hypothesis, one immutable
    Hypothesis per kept candidate. ``ettag.decoding.beam_decode`` does the
    same search on the whole beam at once and must return the same ranking."""
    beam_size = config.beam_size
    encoding = scorer.encode(input_ids)
    active: list[Hypothesis] = [Hypothesis((), 0.0, ROOT, frozenset())]
    pool: list[Hypothesis] = []

    for _ in range(config.max_tokens):
        scores_parts: list[np.ndarray] = []
        tokens_parts: list[np.ndarray] = []
        parent_parts: list[np.ndarray] = []
        for i, hyp in enumerate(active):
            allowed = allowed_tokens(trie, hyp.cursor, hyp.emitted, config, hyp.n_names)
            if len(allowed) == 0:
                continue
            lp = _checked_logprobs(scorer, encoding, hyp.tokens, trie.vocab_size)
            vals = _step_logprobs(lp, allowed, config)
            scores_parts.append(hyp.score + vals)
            tokens_parts.append(allowed)
            parent_parts.append(np.full(len(allowed), i, dtype=np.int64))
        if not scores_parts:
            break
        scores = np.concatenate(scores_parts)
        tokens = np.concatenate(tokens_parts)
        parents = np.concatenate(parent_parts)
        # primary: score desc; ties: token id, then parent order (all active
        # prefixes have equal length within a step)
        order = np.lexsort((parents, tokens, -scores))[:beam_size]

        next_active: list[Hypothesis] = []
        for idx in order:
            hyp = _extend(
                trie, active[int(parents[idx])], int(tokens[idx]), float(scores[idx])
            )
            if hyp.finished:
                pool.append(hyp)
            else:
                next_active.append(hyp)
        active = next_active
        if not active:
            break
        if not config.length_normalize and len(pool) >= beam_size:
            # token logprobs are <= 0, so no active hypothesis can improve
            kth_best = sorted(h.score for h in pool)[-beam_size]
            if max(h.score for h in active) <= kth_best:
                break

    if not pool:
        raise NoFinishedHypothesis(
            f"no hypothesis reached EOS within max_tokens={config.max_tokens}"
        )
    pool.sort(key=lambda h: (-h.final_score(config), h.tokens))
    return [(list(h.tokens), h.final_score(config)) for h in pool[:beam_size]]


def reference_backward(params: ToyModelParams, example, target):
    """Loss and gradient of one example: its own feature matrix, softmax and
    ``np.add.at`` scatters. ``ettag.toy_model.batch_backward`` does a whole
    batch in one pass and must return the sum of these."""
    t, d, k = len(target), params.d, params.k
    padded = np.concatenate((np.full(k, BOS, dtype=np.int64), np.asarray(target, dtype=np.int64)))
    ctx = np.lib.stride_tricks.sliding_window_view(padded, k)[:t]
    encoding = encode_input(params, example.input)
    feats = np.concatenate((encoding[None].repeat(t, axis=0), params.e_out[ctx].reshape(t, -1)), axis=1)
    logits = feats @ params.w + params.b
    z = logits - logits.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    idx, tgt = np.arange(t), np.asarray(target, dtype=np.int64)
    loss = -float(logp[idx, tgt].sum())
    dlogits = np.exp(logp)
    dlogits[idx, tgt] -= 1.0

    grads = params.zeros_like()
    grads.w[:] = feats.T @ dlogits
    grads.b[:] = dlogits.sum(axis=0)
    dfeats = dlogits @ params.w.T
    np.add.at(grads.e_out, ctx, dfeats[:, d:].reshape(t, k, d))
    if len(example.input) > 0:
        d_enc = dfeats[:, :d].sum(axis=0) / len(example.input)
        np.add.at(grads.e_in, np.asarray(example.input), d_enc)
    return loss, grads


def reference_train(corpus, config, catalog, vocab_in):
    """The training loop one example at a time: ``reference_backward`` per
    example, gradients summed into a fresh buffer per batch, and Adam applied
    to the four arrays one by one. Initial weights are four draws in
    turn. Each step orders and tokenizes its example's names anew: sorted by
    name, in ``gold_order``, or a permutation of the sorted names.
    ``ettag.toy_model.train`` must return the same curve and weights (bit for
    bit at batch size 1). No divergence check."""
    rng = np.random.default_rng(config.seed)
    v_in, v_out, d, k = len(vocab_in), len(catalog.output_vocab()), config.d, config.k
    init = np.random.default_rng(config.seed)
    sizes = (v_in * d, v_out * d, (d + k * d) * v_out, v_out)
    params = ToyModelParams(np.concatenate([init.uniform(-0.1, 0.1, size=n) for n in sizes]), d, k, v_in, v_out)
    m, v = params.zeros_like(), params.zeros_like()
    b1, b2, eps = 0.9, 0.999, 1e-8
    steps = 0
    curve: list[float] = []
    n = len(corpus)
    for _ in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for lo in range(0, n, config.batch_size):
            batch = order[lo: lo + config.batch_size]
            acc = params.zeros_like()
            for idx in batch:
                ex = corpus[int(idx)]
                ex_order = sorted(ex.gold, key=catalog.name_of)
                if config.order_strategy == "mention_order":
                    ex_order = list(ex.gold_order)
                elif config.order_strategy == "shuffle":
                    ex_order = [ex_order[i] for i in sample_permutation(rng, len(ex_order))]
                loss, grads = reference_backward(params, ex, build_target(ex.gold, ex_order, catalog))
                epoch_loss += loss
                for a, g in zip(acc.arrays(), grads.arrays()):
                    a += g
            for a in acc.arrays():
                a *= 1.0 / len(batch)
            steps += 1
            c1, c2 = 1.0 - b1 ** steps, 1.0 - b2 ** steps
            for p, g, mm, vv in zip(params.arrays(), acc.arrays(), m.arrays(), v.arrays()):
                mm *= b1
                mm += (1 - b1) * g
                vv *= b2
                vv += (1 - b2) * g * g
                p -= config.lr * (mm / c1) / (np.sqrt(vv / c2) + eps)
        curve.append(epoch_loss / n)
    return params, curve
