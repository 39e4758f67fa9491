"""Greedy and beam-constrained autoregressive decoding over a token trie.

The scorer is any object producing normalized next-token log-probabilities;
the trie restricts each step to legal continuations, so every finished
decode parses back into catalog entities. All tie-breaking is deterministic:
better score first, then lower token id, then shorter prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Protocol, Sequence

import numpy as np

from .catalog import EOS, SEP, TokenSeq
from .errors import InvalidConfig, NoFinishedHypothesis, ScorerContractViolation, require_ints
from .trie import FINISHED, TokenTrie, TrieCursor, advance, allowed_tokens

_LSE_TOL = 1e-6


class Scorer(Protocol):
    """Contract for pluggable autoregressive models."""

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


def _checked_logprobs(scorer: Scorer, encoding: Any, prefix: Sequence[int]) -> np.ndarray:
    lp = np.asarray(scorer.next_logprobs(encoding, prefix), dtype=np.float64)
    if lp.ndim != 1:
        raise ScorerContractViolation(f"logprob vector has shape {lp.shape}")
    if not np.all(np.isfinite(lp)):
        raise ScorerContractViolation("non-finite log-probabilities")
    m = lp.max()
    lse = m + np.log(np.exp(lp - m).sum())
    if abs(lse) > _LSE_TOL:
        raise ScorerContractViolation(f"log-probabilities sum to exp({lse}), not 1")
    return lp


def _step_logprobs(lp: np.ndarray, allowed: np.ndarray, config: DecodeConfig) -> np.ndarray:
    vals = lp[allowed]
    if config.renormalize_constrained:
        m = vals.max()
        vals = vals - (m + np.log(np.exp(vals - m).sum()))
    return vals


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


def greedy_decode(
    scorer: Scorer,
    trie: TokenTrie,
    input_ids: Sequence[int],
    config: DecodeConfig | None = None,
) -> TokenSeq:
    """Pick the most likely legal token at each step until EOS.

    Ties go to the lowest token id. Raises NoFinishedHypothesis when
    max_tokens runs out before EOS.
    """
    config = config or DecodeConfig(beam_size=1)
    encoding = scorer.encode(input_ids)
    hyp = Hypothesis((), 0.0, trie.start_cursor(), frozenset())
    for _ in range(config.max_tokens):
        allowed = allowed_tokens(trie, hyp.cursor, hyp.emitted, config, hyp.n_names)
        lp = _checked_logprobs(scorer, encoding, hyp.tokens)
        vals = _step_logprobs(lp, allowed, config)
        pick = int(np.argmax(vals))  # first max = lowest allowed id
        token = int(allowed[pick])
        hyp = _extend(trie, hyp, token, hyp.score + float(vals[pick]))
        if hyp.finished:
            return list(hyp.tokens)
    raise NoFinishedHypothesis(f"no EOS within max_tokens={config.max_tokens}")


def beam_decode(
    scorer: Scorer,
    trie: TokenTrie,
    input_ids: Sequence[int],
    config: DecodeConfig | None = None,
) -> list[tuple[TokenSeq, float]]:
    """Constrained beam search.

    Each step expands every active hypothesis over its allowed tokens and
    keeps the top beam_size candidates; candidates that chose EOS retire to
    a pool. Returns up to beam_size finished hypotheses ranked by final
    score (length-normalized when configured); the first one is the
    prediction.
    """
    config = config or DecodeConfig()
    beam_size = config.beam_size
    encoding = scorer.encode(input_ids)
    active: list[Hypothesis] = [Hypothesis((), 0.0, trie.start_cursor(), frozenset())]
    pool: list[Hypothesis] = []

    for _ in range(config.max_tokens):
        scores_parts: list[np.ndarray] = []
        tokens_parts: list[np.ndarray] = []
        parent_parts: list[np.ndarray] = []
        for i, hyp in enumerate(active):
            allowed = allowed_tokens(trie, hyp.cursor, hyp.emitted, config, hyp.n_names)
            if len(allowed) == 0:
                continue
            lp = _checked_logprobs(scorer, encoding, hyp.tokens)
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
