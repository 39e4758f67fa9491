"""Greedy and beam-constrained autoregressive decoding over a token trie.

The scorer is any object producing unnormalized next-token log-probabilities;
the trie restricts each step to legal continuations, so every finished
decode parses back into catalog entities. Only the decoder normalizes, so a
constant added to a row changes nothing. All tie-breaking is deterministic.
Within a beam step the candidates are ranked by score (higher first), then
token id (lower first), then the rank of their parent in the beam (lower
first). The pool of finished hypotheses is ranked by final score (higher
first), then token sequence (lexicographically smaller first).

Up to ``max(1, _GROUP_ROWS // beam_size)`` documents decode at once, and when
one finishes the next in input order takes its place at the next step
(iteration-level scheduling, as in Orca and vLLM's continuous batching). Each
step makes one scorer call, one contract check and one normalization over the
rows of every live document, while selection, the pool, the early stop and
the max_tokens budget stay each document's own. The rows' prefixes may differ
in length: each is left-padded with BOS, which is never an output token, so
the padding marks where a prefix starts. The decoder normalizes and selects
every row the same way, whatever else shares its step, so it equals scoring
one hypothesis at a time bit for bit at every beam, and a document's ranked
list does not depend on its batch whenever the scorer's rows do not. The
per-row fallback's rows never do, nor do the bundled scorer's on the BLAS
build its tests name, so there a document's ranked list is bit for bit its
own.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import accumulate, islice, takewhile
from typing import Any, Callable, Protocol, Sequence

import numpy as np

from .catalog import BOS, EOS, SEP, TokenSeq
from .errors import InvalidConfig, NoFinishedHypothesis, ScorerContractViolation, require_ints
from .trie import ROOT, TokenTrie, TrieCursor, advance, allowed_tokens

# the rows one scorer call may get: up to _GROUP_ROWS // beam_size documents
# are live at once. A [B, 88] by [88, 3424] float64 product (the kb-470k
# scorer, one BLAS thread, 2-core Xeon VM) costs 89 us at B=1, 16 us a row at
# B=32, 15 at B=64 and 13 at B=128
_GROUP_ROWS = 64


class Scorer(Protocol):
    """Contract for pluggable autoregressive models.

    ``next_logprobs`` returns V finite, unnormalized log-probabilities. A
    scorer may also define ``next_logprobs_batch(encodings, prefixes)``: the
    [B, V] matrix whose row i is ``next_logprobs(encodings[i], prefix_i)``,
    for B encodings and a [B, t] token matrix whose row i is ``prefix_i``
    left-padded with BOS. BOS is never an output token, so a row's prefix is
    what follows its padding. Without the method the decoder calls
    ``next_logprobs`` once per row, with that unpadded prefix.
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
    """The [B, V] next-token logits of the B left-padded prefixes, checked to be finite."""
    logits = score_batch(encodings, prefixes)
    try:
        logits = np.asarray(logits, dtype=np.float64)
    except (TypeError, ValueError):  # ragged rows, or entries that are not numbers
        raise ScorerContractViolation("next-token logits are not a numeric [B, V] matrix") from None
    if logits.shape != (len(prefixes), vocab_size):
        raise ScorerContractViolation(f"logits have shape {logits.shape}, not ({len(prefixes)}, {vocab_size})")
    if not np.isfinite(logits).all():
        raise ScorerContractViolation("non-finite next-token logits")
    return logits


def _normalized(logits: np.ndarray, rows: np.ndarray, cand: np.ndarray, starts: list[int], allowed_only: bool):
    """``logits[rows, cand]`` minus the log-sum-exp of each row's candidates,
    row i's from ``starts[i]`` on, if ``allowed_only``, else of its whole row."""
    vals = logits[rows, cand]
    if not allowed_only:
        m = logits.max(axis=1)
        return vals - (m + np.log(np.exp(logits - m[:, None]).sum(axis=1)))[rows]
    m = np.maximum.reduceat(vals, starts)
    return vals - (m + np.log(np.add.reduceat(np.exp(vals - m[rows]), starts)))[rows]


def _top_k(neg_scores: np.ndarray, cand: np.ndarray, k: int) -> np.ndarray:
    """The indices of the k best candidates, in rank order: ``neg_scores``
    ascending, then ``cand`` ascending, then index ascending, exactly the
    first k of ``np.lexsort((cand, neg_scores))``. With more than k
    candidates only those scoring at least the k-th best score, ties
    included, are sorted; they stay in index order, so the stable sort ranks
    them as the full sort does."""
    if len(neg_scores) > k:
        kth = np.partition(neg_scores, k - 1)[k - 1]
        kept = np.flatnonzero(neg_scores <= kth)
        return kept[np.lexsort((cand[kept], neg_scores[kept]))[:k]]
    return np.lexsort((cand, neg_scores))[:k]


@dataclass(eq=False, slots=True)
class _Document:
    """A live document: its position in the input, the scheduler step of its
    first token, its encoding, shared by its rows, how many rows it has and
    its pool of finished (score, tokens)."""

    index: int
    start: int
    encoding: Any
    rows: int = 1
    pool: list[tuple[float, tuple[int, ...]]] = field(default_factory=list)


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
    """Constrained beam search of each document, with up to
    ``max(1, _GROUP_ROWS // beam_size)`` documents live at once: when one
    finishes, the next in input order takes its place at the next step.

    Each step scores every live hypothesis in one scorer call, expands it
    over its allowed tokens and keeps each document's top beam_size
    candidates; candidates that chose EOS retire to their document's pool,
    and a document retires after max_tokens steps of its own. Returns, for
    each document in input order, up to beam_size finished hypotheses ranked
    by final score (length-normalized when configured); the first one is the
    prediction. Raises NoFinishedHypothesis, naming the document, as soon as
    one retires with none.
    """
    config = config or DecodeConfig()
    beam_size, max_live = config.beam_size, max(1, _GROUP_ROWS // config.beam_size)
    score_batch = getattr(scorer, "next_logprobs_batch", None) or (
        lambda encodings, prefixes: [
            scorer.next_logprobs(e, p[len(p) - n:])
            for e, p, n in zip(encodings, prefixes.tolist(), np.count_nonzero(prefixes != BOS, axis=1).tolist())
        ]
    )
    ranked: list[list[tuple[TokenSeq, float]]] = [[] for _ in inputs]
    # the rows, document by document in input order and each document's in
    # rank order: row i has prefix tokens[i, :w] after its BOS padding, where
    # column 0 is step `base`, the given score and the state (trie node,
    # entities emitted, names finalized)
    tokens = np.empty((0, 8), dtype=np.int64)
    scores = np.zeros(0)
    states: list[tuple[TrieCursor, frozenset[int], int]] = []
    live: list[_Document] = []
    base = step = admitted = 0

    while True:
        new = range(admitted, min(admitted + max_live - len(live), len(inputs)))
        live += [_Document(j, step, scorer.encode(inputs[j])) for j in new]
        if not live:
            return ranked
        if live[0].start > base:  # no row reads the columns before the earliest live document's first step
            tokens, base = tokens[:, live[0].start - base:], live[0].start
        if new:
            admitted = new.stop
            tokens = np.concatenate((tokens, np.full((len(new), tokens.shape[1]), BOS)))
            scores = np.concatenate((scores, np.zeros(len(new))))
            states += [(ROOT, frozenset(), 0)] * len(new)
        w = step - base

        # a live hypothesis always has a legal token: no-repeat pruning never reaches a dead end
        allowed = [allowed_tokens(trie, c, e, config, n) for c, e, n in states]
        sizes = list(map(len, allowed))
        cand, rows = np.concatenate(allowed), np.arange(len(sizes)).repeat(sizes)
        cand_at = list(accumulate(sizes, initial=0))  # row i's candidates are cand[cand_at[i]:cand_at[i + 1]]
        encodings = [doc.encoding for doc in live for _ in range(doc.rows)]
        logits = _checked_logits(score_batch, encodings, tokens[:, :w], trie.vocab_size)
        cand_scores = scores[rows] + _normalized(logits, rows, cand, cand_at[:-1], config.renormalize_constrained)
        counts = [doc.rows for doc in live]
        if beam_size == 1:  # each document has one row
            top, n_top = _first_max_per_row(cand_scores, rows, cand_at[:-1]), counts
        else:
            # a document's candidates are contiguous and in parent order, so
            # index order within them is parent rank
            row_at = list(accumulate(counts, initial=0))
            picks = [c0 + _top_k(-cand_scores[c0:c1], cand[c0:c1], beam_size)
                     for c0, c1 in ((cand_at[a], cand_at[b]) for a, b in zip(row_at, row_at[1:]))]
            top, n_top = np.concatenate(picks), list(map(len, picks))

        keep: list[int] = []
        still_live = []
        picked = zip(top.tolist(), rows[top].tolist(), cand[top].tolist())
        for doc, n in zip(live, n_top):
            pool, kept = doc.pool, []
            for i, p, token in islice(picked, n):
                if token == EOS:
                    pool.append((cand_scores.item(i), (*tokens[p, doc.start - base:w].tolist(), EOS)))
                else:
                    kept.append(i)
            retires = not kept or step - doc.start + 1 == config.max_tokens or (
                # token logprobs are <= 0, so none of the document's live hypotheses can improve
                not config.length_normalize and len(pool) >= beam_size
                and cand_scores[kept].max() <= sorted(s for s, _ in pool)[-beam_size]
            )
            if retires:
                ranked[doc.index] = _ranked_pool(doc, config)
            else:
                keep += kept
                doc.rows = len(kept)
                still_live.append(doc)

        parents, next_tokens = rows[keep], cand[keep]
        next_states = []
        for p, token in zip(parents.tolist(), next_tokens.tolist()):
            node, emitted, n_names = states[p]
            if token == SEP:
                emitted, n_names = emitted | {trie.terminal_entity(node)}, n_names + 1
            next_states.append((advance(trie, node, token), emitted, n_names))
        tokens = tokens[parents]
        if w == tokens.shape[1]:
            tokens = np.concatenate((tokens, np.empty((len(tokens), max(w, 8)), dtype=np.int64)), axis=1)
        tokens[:, w] = next_tokens
        scores, states, live = cand_scores[keep], next_states, still_live
        step += 1


def _first_max_per_row(cand_scores: np.ndarray, rows: np.ndarray, starts: list[int]) -> np.ndarray:
    """Each row's first maximum, row i's from ``starts[i]`` on: its tokens ascend, so ties go to the lowest id."""
    best = np.maximum.reduceat(cand_scores, starts)
    hits = np.flatnonzero(cand_scores == best[rows])
    return hits[np.searchsorted(rows[hits], np.arange(len(starts)))]


def _ranked_pool(doc: _Document, config: DecodeConfig) -> list[tuple[TokenSeq, float]]:
    """A retired document's best beam_size finished hypotheses, in rank order."""
    pool = doc.pool
    if not pool:
        raise NoFinishedHypothesis(
            f"document {doc.index} (0-based, in input order): no hypothesis reached EOS "
            f"within max_tokens={config.max_tokens}"
        )
    if config.length_normalize:
        pool = [(s / len(t), t) for s, t in pool]
    pool.sort(key=lambda st: (-st[0], st[1]))
    return [(list(t), s) for s, t in pool[: config.beam_size]]


def parse_output(tokens: Sequence[int], trie: TokenTrie) -> tuple[set[int], int]:
    """Split a generated sequence on SEP, map segments to entities.

    Total on arbitrary sequences: generation stops at the first EOS,
    segments that do not spell a catalog name are dropped and counted.
    Returns (entity id set, dropped segment count).
    """
    body = list(takewhile(lambda t: t != EOS, tokens))
    if not body:
        return set(), 0
    cuts = [i for i, t in enumerate(body) if t == SEP]
    found = [trie.lookup(body[a + 1: b]) for a, b in zip([-1, *cuts], [*cuts, len(body)])]
    return set(found) - {None}, found.count(None)
