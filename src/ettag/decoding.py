"""Greedy and beam-constrained autoregressive decoding over a token trie.

The scorer is any object producing unnormalized next-token log-probabilities;
the trie restricts each step to legal continuations, so every finished
decode parses back into catalog entities. Only the decoder normalizes, so a
constant added to a row changes nothing. All tie-breaking is deterministic.
Within a beam step the candidates are ranked by score (higher first), then
token id (lower first), then the rank of their parent in the beam (lower
first). The pool of finished hypotheses is ranked by final score (higher
first), then token sequence (lexicographically smaller first).

Documents are decoded in lockstep groups of ``max(1, _GROUP_ROWS // beam_size)``
documents: each step makes one scorer call, one contract check and one
normalization over the active rows of the whole group, while selection, the
pool and the early stop stay each document's own. So a document decodes as
it would alone, unless the scorer's rounding depends on how many rows a call
has: the bundled scorer's matrix product does, which moves scores in the
last bits (about 1e-14).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate, islice
from typing import Any, Callable, Protocol, Sequence

import numpy as np

from .catalog import EOS, SEP, TokenSeq
from .errors import InvalidConfig, NoFinishedHypothesis, ScorerContractViolation, require_ints
from .trie import TokenTrie, advance, allowed_tokens

# up to this many candidates a full sort costs no more than partition, select
# and sort: they cross between 384 and 512 candidates at beams 5 and 20, at
# about 10 us each (numpy 2.4, 2-core Xeon VM), and below that the partial
# path costs up to 6 us more per step, which a small KB's steps would pay
_FULL_SORT_MAX = 400

# the active rows one scorer call may get in a group: a [B, 88] by [88, 3424]
# float64 product (the kb-470k scorer, one BLAS thread, 2-core Xeon VM) costs
# 89 us at B=1, 16 us a row at B=32, 15 at B=64 and 13 at B=128
_GROUP_ROWS = 64


class Scorer(Protocol):
    """Contract for pluggable autoregressive models.

    ``next_logprobs`` returns V finite, unnormalized log-probabilities. A
    scorer may also define ``next_logprobs_batch(encodings, prefixes)``: the
    [B, V] matrix whose row i is ``next_logprobs(encodings[i], prefixes[i])``,
    for B encodings and a [B, t] matrix of equal-length prefixes. Without it
    the decoder calls ``next_logprobs`` once per row.
    """

    def encode(self, input_ids: Sequence[int]) -> Any: ...

    def next_logprobs(self, encoding: Any, prefix: Sequence[int]) -> np.ndarray: ...


@dataclass(frozen=True)
class DecodeConfig:
    beam_size: int = 20
    max_entities: int = 64
    max_tokens: int = 256
    no_repeat: bool = True
    allow_empty: bool = False
    length_normalize: bool = False
    renormalize_constrained: bool = True

    def __post_init__(self):
        require_ints(self, 1, "beam_size", "max_entities", "max_tokens")
        for name in ("no_repeat", "allow_empty", "length_normalize", "renormalize_constrained"):
            if not isinstance(getattr(self, name), bool):
                raise InvalidConfig(f"{name} must be true or false, got {getattr(self, name)!r}")


def _checked_logits(score_batch: Callable, encodings: list, prefixes: np.ndarray, vocab_size: int) -> np.ndarray:
    """The [B, V] next-token logits of the B prefixes, checked to be finite."""
    logits = score_batch(encodings, prefixes)
    try:
        logits = np.asarray(logits, dtype=np.float64)
    except ValueError:  # rows of different lengths
        raise ScorerContractViolation("next-token logit rows differ in length") from None
    if logits.shape != (len(prefixes), vocab_size):
        raise ScorerContractViolation(f"logits have shape {logits.shape}, not ({len(prefixes)}, {vocab_size})")
    if not np.isfinite(logits).all():
        raise ScorerContractViolation("non-finite next-token logits")
    return logits


def _normalized(logits: np.ndarray, rows: np.ndarray, cand: np.ndarray, sizes: list[int], allowed_only: bool):
    """``logits[rows, cand]`` minus the log-sum-exp of each row's candidates
    (``sizes`` counts them per row) if ``allowed_only``, else of its whole row."""
    vals = logits[rows, cand]
    if not allowed_only:
        m = logits.max(axis=1)
        return vals - (m + np.log(np.exp(logits - m[:, None]).sum(axis=1)))[rows]
    if len(sizes) == 1:  # np.sum's pairwise order keeps beam 1 bit-identical to per-row scoring
        m = vals.max()
        return vals - (m + np.log(np.exp(vals - m).sum()))
    starts = list(accumulate(sizes[:-1], initial=0))
    m = np.maximum.reduceat(vals, starts)
    return vals - (m + np.log(np.add.reduceat(np.exp(vals - m[rows]), starts)))[rows]


def _top_k(neg_scores: np.ndarray, cand: np.ndarray, k: int) -> np.ndarray:
    """The indices of the k best candidates, in rank order: ``neg_scores``
    ascending, then ``cand`` ascending, then index ascending, exactly the
    first k of ``np.lexsort((cand, neg_scores))``. With more than k (and
    ``_FULL_SORT_MAX``) candidates only those scoring at least the k-th best
    score, ties included, are sorted; they stay in index order, so the stable
    sort ranks them as the full sort does."""
    if len(neg_scores) > max(k, _FULL_SORT_MAX):
        kth = np.partition(neg_scores, k - 1)[k - 1]
        kept = np.flatnonzero(neg_scores <= kth)
        return kept[np.lexsort((cand[kept], neg_scores[kept]))[:k]]
    return np.lexsort((cand, neg_scores))[:k]


def greedy_decode(
    scorer: Scorer,
    trie: TokenTrie,
    input_ids: Sequence[int],
    config: DecodeConfig | None = None,
) -> TokenSeq:
    """The most likely legal token at each step until EOS: beam search at
    beam 1. Ties go to the lowest token id. Raises NoFinishedHypothesis when
    max_tokens runs out before EOS."""
    config = replace(config or DecodeConfig(), beam_size=1)
    return beam_decode(scorer, trie, input_ids, config)[0][0]


def beam_decode(
    scorer: Scorer,
    trie: TokenTrie,
    input_ids: Sequence[int],
    config: DecodeConfig | None = None,
) -> list[tuple[TokenSeq, float]]:
    """Constrained beam search of one document: ``beam_decode_many`` of one."""
    return beam_decode_many(scorer, trie, [input_ids], config)[0]


def beam_decode_many(
    scorer: Scorer,
    trie: TokenTrie,
    inputs: Sequence[Sequence[int]],
    config: DecodeConfig | None = None,
) -> list[list[tuple[TokenSeq, float]]]:
    """Constrained beam search of each document, in lockstep groups of
    ``max(1, _GROUP_ROWS // beam_size)`` documents in input order.

    Each step scores every active hypothesis of the group in one scorer
    call, expands it over its allowed tokens and keeps each document's top
    beam_size candidates; candidates that chose EOS retire to their
    document's pool. Returns, for each document, up to beam_size finished
    hypotheses ranked by final score (length-normalized when configured);
    the first one is the prediction.
    """
    config = config or DecodeConfig()
    group = max(1, _GROUP_ROWS // config.beam_size)
    score_batch = getattr(scorer, "next_logprobs_batch", None) or (
        lambda encodings, prefixes: [scorer.next_logprobs(e, p) for e, p in zip(encodings, prefixes.tolist())]
    )
    ranked: list[list[tuple[TokenSeq, float]]] = []
    for start in range(0, len(inputs), group):
        encodings = [scorer.encode(ids) for ids in inputs[start:start + group]]
        ranked += _decode_group(score_batch, encodings, trie, config)
    return ranked


def _first_max_per_row(cand_scores: np.ndarray, rows: np.ndarray, sizes: list[int]) -> np.ndarray:
    """Each row's first maximum: a row's tokens ascend, so ties go to the lowest id."""
    if len(sizes) == 1:
        return cand_scores.argmax(keepdims=True)
    best = np.maximum.reduceat(cand_scores, list(accumulate(sizes[:-1], initial=0)))
    hits = np.flatnonzero(cand_scores == best[rows])
    return hits[np.searchsorted(rows[hits], np.arange(len(sizes)))]


def _decode_group(
    score_batch: Callable, encodings: list, trie: TokenTrie, config: DecodeConfig
) -> list[list[tuple[TokenSeq, float]]]:
    """The ranked pools of the documents with these encodings, decoded
    together from the first step, so every active prefix has one length t."""
    beam_size = config.beam_size
    n_docs = len(encodings)
    # the active rows, document by document in input order and each
    # document's in rank order: row i is document docs[i]'s prefix
    # tokens[i, :t] with the given score, trie cursor, entities emitted and
    # names finalized; live[j] is the j-th unfinished document, with counts[j] rows
    tokens = np.empty((n_docs, 8), dtype=np.int64)
    scores = np.zeros(n_docs)
    cursors = [trie.start_cursor()] * n_docs
    emitted: list[frozenset[int]] = [frozenset()] * n_docs
    n_names = [0] * n_docs
    docs = live = list(range(n_docs))
    counts = [1] * n_docs
    pools: list[list[tuple[float, tuple[int, ...]]]] = [[] for _ in range(n_docs)]

    for t in range(config.max_tokens):
        # a live hypothesis always has a legal token: no-repeat pruning never reaches a dead end
        allowed = [allowed_tokens(trie, c, e, config, n) for c, e, n in zip(cursors, emitted, n_names)]
        sizes = list(map(len, allowed))
        if len(sizes) == 1:  # one row, as at beam 1 on one document: nothing to concatenate
            cand, rows = allowed[0], np.zeros(sizes[0], dtype=np.intp)
        else:
            cand, rows = np.concatenate(allowed), np.arange(len(sizes)).repeat(sizes)
        logits = _checked_logits(score_batch, [encodings[d] for d in docs], tokens[: len(sizes), :t], trie.vocab_size)
        cand_scores = scores[rows] + _normalized(logits, rows, cand, sizes, config.renormalize_constrained)
        if beam_size == 1:  # each document has one row
            top, n_top = _first_max_per_row(cand_scores, rows, sizes), counts
        else:
            # a document's candidates are contiguous and in parent order, so
            # index order within them is parent rank
            cand_at = list(accumulate(sizes, initial=0))
            row_at = list(accumulate(counts, initial=0))
            picks = [c0 + _top_k(-cand_scores[c0:c1], cand[c0:c1], beam_size)
                     for c0, c1 in ((cand_at[a], cand_at[b]) for a, b in zip(row_at, row_at[1:]))]
            top, n_top = np.concatenate(picks), list(map(len, picks))

        keep: list[int] = []
        next_live, next_counts = [], []
        picked = zip(top.tolist(), rows[top].tolist(), cand[top].tolist())
        for d, n in zip(live, n_top):
            pool, kept = pools[d], []
            for i, p, token in islice(picked, n):
                if token == EOS:
                    pool.append((cand_scores.item(i), (*tokens[p, :t].tolist(), EOS)))
                else:
                    kept.append(i)
            if not kept:
                continue
            if not config.length_normalize and len(pool) >= beam_size:
                # token logprobs are <= 0, so none of the document's active hypotheses can improve
                if cand_scores[kept].max() <= sorted(s for s, _ in pool)[-beam_size]:
                    continue
            keep += kept
            next_live.append(d)
            next_counts.append(len(kept))
        if not keep:
            break
        parents, next_tokens = rows[keep].tolist(), cand[keep].tolist()
        next_cursors, next_emitted, next_names = [], [], []
        for p, token in zip(parents, next_tokens):
            next_cursors.append(advance(trie, cursors[p], token))
            if token == SEP:
                next_emitted.append(emitted[p] | {trie.terminal_entity(cursors[p])})
                next_names.append(n_names[p] + 1)
            else:
                next_emitted.append(emitted[p])
                next_names.append(n_names[p])
        if parents != list(range(len(parents))):
            tokens = tokens[parents]
        if t == tokens.shape[1]:
            tokens = np.concatenate((tokens, np.empty_like(tokens)), axis=1)
        tokens[: len(parents), t] = next_tokens
        scores = cand_scores[keep]
        cursors, emitted, n_names = next_cursors, next_emitted, next_names
        docs, live, counts = [docs[p] for p in parents], next_live, next_counts

    ranked = []
    for pool in pools:
        if not pool:
            raise NoFinishedHypothesis(f"no hypothesis reached EOS within max_tokens={config.max_tokens}")
        if config.length_normalize:
            pool = [(s / len(t), t) for s, t in pool]
        pool.sort(key=lambda st: (-st[0], st[1]))
        ranked.append([(list(t), s) for s, t in pool[:beam_size]])
    return ranked


def parse_output(tokens: Sequence[int], trie: TokenTrie) -> tuple[set[int], int]:
    """Split a generated sequence on SEP, map segments to entities.

    Total on arbitrary sequences: generation stops at the first EOS,
    segments that do not spell a catalog name are dropped and counted.
    Returns (entity id set, dropped segment count).
    """
    body: list[int] = []
    for t in tokens:
        if t == EOS:
            break
        body.append(t)
    entities: set[int] = set()
    dropped = 0
    if not body:
        return entities, dropped
    segment: list[int] = []
    for t in body + [SEP]:
        if t == SEP:
            ent = trie.lookup(segment) if segment else None
            if ent is None:
                dropped += 1
            else:
                entities.add(ent)
            segment = []
        else:
            segment.append(t)
    return entities, dropped
