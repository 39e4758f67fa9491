"""Prefix tree over tokenized entity names and the decoding constraint automaton.

The trie is a flat arena in depth-first preorder: per-node sorted child
arrays live in one CSR-style block, so child lookup is a binary search and
the whole structure is a handful of numpy arrays shared read-only across
decoders. Each node also carries the half-open interval of entity ranks
(positions in sorted-name order) reachable below it; that makes "is this
subtree fully emitted already?" an O(|emitted|) question, which is what the
no-repeat pruning needs to never paint a decoder into a dead end.
"""

from __future__ import annotations

import hashlib
import struct
from array import array
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .catalog import EOS, N_RESERVED, SEP, EntityCatalog, Vocabulary, tokenize
from .errors import CacheMismatch, DisallowedToken, EmptyCatalog, OutputOOV
from .sealed import SealedFormat

ROOT = 0
FINISHED = -1

# dims (n nodes, e edges); body: terminal, child counts (n), child keys, child values (e), int32
_CACHE = SealedFormat(
    b"ETRIE2\0\0", "trie cache", CacheMismatch, struct.Struct("<ii"),
    lambda n, e: 8 * (n + e) if n >= 1 and e >= 0 else -1,
)


class TrieCursor(NamedTuple):
    """Position inside the automaton. The root doubles as the entity boundary."""

    node: int

    @property
    def at_boundary(self) -> bool:
        return self.node == ROOT

    @property
    def finished(self) -> bool:
        return self.node == FINISHED


@dataclass
class TokenTrie:
    terminal: np.ndarray      # int32 [n_nodes], entity id or -1
    child_start: np.ndarray   # int64 [n_nodes + 1], CSR offsets
    child_keys: np.ndarray    # int32 [n_edges], token ids, sorted per node
    child_vals: np.ndarray    # int32 [n_edges], child node indices
    ent_lo: np.ndarray        # int64 [n_nodes], first entity rank under node
    ent_hi: np.ndarray        # int64 [n_nodes], one past last entity rank
    child_lo: np.ndarray      # int64 [n_edges], ent_lo gathered per edge
    child_hi: np.ndarray      # int64 [n_edges]
    entity_rank: np.ndarray   # int64 [n_entities], catalog id -> rank
    entity_count: int
    max_depth: int

    @classmethod
    def from_arrays(
        cls,
        terminal: np.ndarray,
        child_counts: np.ndarray,
        child_keys: np.ndarray,
        child_vals: np.ndarray,
        n_entities: int,
        vocab_size: int,
    ) -> TokenTrie:
        """The trie stored as ``terminal``, per-node child counts and the CSR
        edge arrays, with every derived field worked out one depth level at a
        time. Raises CacheMismatch unless the arrays are a preorder trie whose
        terminals are exactly the ids ``0..n_entities-1`` and whose keys are
        content ids below ``vocab_size``."""

        def require(ok, what: str) -> None:
            if not ok:
                raise CacheMismatch(what)

        n, n_edges = len(terminal), len(child_keys)
        require(child_counts.min() >= 0 and child_counts.sum() == n_edges,
                "child counts do not sum to the edge count")
        term_nodes = np.flatnonzero(terminal >= 0)
        require(terminal[ROOT] == -1 and terminal.min() >= -1
                and np.array_equal(np.sort(terminal[term_nodes]), np.arange(n_entities)),
                "terminal ids are not the catalog ids, each once and none at the root")
        # a non-terminal leaf would be a decode dead end; the root is one unless it has children
        require((terminal[child_counts == 0] >= 0).all(), "a leaf is not terminal")

        child_start = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(child_counts, out=child_start[1:])
        first = child_start[:-1][child_counts > 0]  # edge index of each node's first child
        rising = np.diff(child_keys) > 0
        rising[first[1:] - 1] = True  # keys restart at each node's first child
        require(child_keys.min() >= N_RESERVED and child_keys.max() < vocab_size and rising.all(),
                "child keys are not increasing content ids of the output vocabulary")
        require(child_vals.min() > ROOT and child_vals.max() < n, "child index out of range")

        # breadth-first levels; more visits than nodes means a node has two parents
        levels = [np.array([ROOT], dtype=np.int32)]
        visited = 1
        while True:
            starts, counts = child_start[levels[-1]], child_counts[levels[-1]]
            total = int(counts.sum())
            if total == 0:
                break
            visited += total
            require(visited <= n, "a node has more than one parent")
            offsets = np.repeat(starts - (np.cumsum(counts) - counts), counts)
            levels.append(child_vals[offsets + np.arange(total)])

        # subtree of v is the index range [v, end[v]) when the nodes are in preorder
        end = np.arange(1, n + 1, dtype=np.int32)
        for level in reversed(levels):
            inner = level[child_counts[level] > 0]
            end[inner] = end[child_vals[child_start[inner + 1] - 1]]
        expected = np.empty(n_edges, dtype=np.int32)
        expected[1:] = end[child_vals[:-1]]
        expected[first] = np.flatnonzero(child_counts) + 1
        require(end[ROOT] == n and np.array_equal(expected, child_vals), "nodes are not in preorder")

        # preorder visits terminals in sorted-name order, so the terminals
        # before a node are its entity rank
        rank = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(terminal >= 0, out=rank[1:])
        ent_lo, ent_hi = rank[:n], rank[end]
        entity_rank = np.empty(n_entities, dtype=np.int64)
        entity_rank[terminal[term_nodes]] = rank[term_nodes]
        return cls(
            terminal=terminal,
            child_start=child_start,
            child_keys=child_keys,
            child_vals=child_vals,
            ent_lo=ent_lo,
            ent_hi=ent_hi,
            child_lo=ent_lo[child_vals],
            child_hi=ent_hi[child_vals],
            entity_rank=entity_rank,
            entity_count=n_entities,
            max_depth=len(levels) - 1,
        )

    @property
    def node_count(self) -> int:
        return len(self.terminal)

    def start_cursor(self) -> TrieCursor:
        return TrieCursor(ROOT)

    def terminal_entity(self, cursor: TrieCursor) -> int | None:
        t = int(self.terminal[cursor.node])
        return None if t < 0 else t

    def child(self, node: int, token: int) -> int:
        """Child node index for a content token, or -1."""
        s, e = self.child_start[node], self.child_start[node + 1]
        i = s + np.searchsorted(self.child_keys[s:e], token)
        if i < e and self.child_keys[i] == token:
            return int(self.child_vals[i])
        return -1

    def lookup(self, tokens: Sequence[int]) -> int | None:
        """Entity id spelled by exactly this content-token sequence, if any."""
        node = ROOT
        for t in tokens:
            node = self.child(node, t)
            if node < 0:
                return None
        ent = int(self.terminal[node])
        return None if ent < 0 or node == ROOT else ent


def build_trie(catalog: EntityCatalog, vocab: Vocabulary) -> TokenTrie:
    """Build the prefix tree recognizing exactly the tokenized catalog names."""
    n_entities = len(catalog)
    if n_entities == 0:
        raise EmptyCatalog("cannot build a trie over an empty catalog")
    seqs: list[tuple[tuple[int, ...], int]] = []
    for eid, name in enumerate(catalog):
        try:
            ids = tokenize(name, vocab, mode="output")
        except OutputOOV as exc:
            raise OutputOOV(f"catalog name {name!r} not covered by vocabulary: {exc}") from exc
        seqs.append((tuple(ids), eid))
    seqs.sort()

    # inserting the names in sorted order creates the nodes in preorder, each
    # node's children in ascending key order; edge i creates node i + 1
    terminal = array("i", [-1])
    parents = array("i")
    keys = array("i")
    stack = [ROOT]
    prev: tuple[int, ...] = ()
    for seq, eid in seqs:
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
        # distinct canonical names cannot tokenize identically (tokenize is
        # invertible on canonical text), so the terminal slot is free
        assert terminal[stack[-1]] == -1, "duplicate token sequence in catalog"
        terminal[stack[-1]] = eid
        prev = seq
    del seqs

    parents_np = np.asarray(parents, dtype=np.int32)
    # a stable sort on parent alone keeps each node's children in key order
    order = np.argsort(parents_np, kind="stable")
    return TokenTrie.from_arrays(
        terminal=np.asarray(terminal, dtype=np.int32),
        child_counts=np.bincount(parents_np, minlength=len(terminal)).astype(np.int32),
        child_keys=np.asarray(keys, dtype=np.int32)[order],
        child_vals=(order + 1).astype(np.int32),
        n_entities=n_entities,
        vocab_size=len(vocab),
    )


_EOS_ARR = np.array([EOS], dtype=np.int32)
_SEP_EOS_ARR = np.array([EOS, SEP], dtype=np.int32)
_EMPTY = np.empty(0, dtype=np.int32)


def _blocked_child_positions(trie: TokenTrie, node: int, emitted, s: int, e: int) -> list[int]:
    """Positions (relative to the child slice) whose subtree is fully emitted."""
    lo_n = trie.ent_lo[node]
    hi_n = trie.ent_hi[node]
    rk = trie.entity_rank
    inside = sorted(int(rk[ent]) for ent in emitted if lo_n <= rk[ent] < hi_n)
    if not inside:
        return []
    child_lo = trie.child_lo[s:e]
    child_hi = trie.child_hi[s:e]
    per_child: dict[int, int] = {}
    for r in inside:
        pos = int(np.searchsorted(child_lo, r, side="right")) - 1
        if pos >= 0 and r < child_hi[pos]:
            per_child[pos] = per_child.get(pos, 0) + 1
    return [
        pos
        for pos, cnt in per_child.items()
        if cnt == int(child_hi[pos] - child_lo[pos])
    ]


def allowed_tokens(
    trie: TokenTrie,
    cursor: TrieCursor,
    emitted,
    config,
    n_generated: int | None = None,
) -> np.ndarray:
    """Sorted array of token ids legal at this cursor.

    ``emitted`` is the set of entity ids already finalized by the hypothesis;
    ``n_generated`` is how many names were finalized (differs from
    len(emitted) only when no_repeat is off and a name repeated).
    """
    node = cursor.node
    if node == FINISHED:
        return _EMPTY
    cs = trie.child_start
    s = cs[node]
    e = cs[node + 1]
    keys = trie.child_keys[s:e]
    no_repeat = config.no_repeat

    if no_repeat and emitted:
        blocked = _blocked_child_positions(trie, node, emitted, s, e)
        if blocked:
            keys = np.delete(keys, blocked)
    if node == ROOT:
        if not emitted and config.allow_empty:
            return np.concatenate((_EOS_ARR, keys))
        return keys

    term = int(trie.terminal[node])
    if term < 0:
        return keys
    if no_repeat and term in emitted:
        return keys
    # finalizing this entity is legal; EOS always ends here, SEP only when
    # another name can still follow
    done = len(emitted) if n_generated is None else n_generated
    can_continue = done + 1 < config.max_entities
    if can_continue and no_repeat:
        remaining = trie.entity_count - len(emitted) - (0 if term in emitted else 1)
        can_continue = remaining > 0
    head = _SEP_EOS_ARR if can_continue else _EOS_ARR
    if len(keys) == 0:
        return head
    return np.concatenate((head, keys))


def advance(trie: TokenTrie, cursor: TrieCursor, token: int) -> TrieCursor:
    """Move the cursor by one token. SEP returns to the boundary, EOS finishes."""
    node = cursor.node
    if node == FINISHED:
        raise DisallowedToken("cursor already finished")
    if token == EOS:
        if node != ROOT and trie.terminal[node] < 0:
            raise DisallowedToken("EOS is only legal at a terminal or the empty boundary")
        return TrieCursor(FINISHED)
    if token == SEP:
        if node == ROOT or trie.terminal[node] < 0:
            raise DisallowedToken("SEP is only legal at a terminal")
        return TrieCursor(ROOT)
    nxt = trie.child(node, token)
    if nxt < 0:
        raise DisallowedToken(f"token {token} is not a continuation at node {node}")
    return TrieCursor(nxt)


def trie_stats(trie: TokenTrie) -> dict[str, int]:
    return {
        "node_count": trie.node_count,
        "max_depth": trie.max_depth,
        "entity_count": trie.entity_count,
    }


def content_hash(catalog: EntityCatalog, vocab: Vocabulary) -> bytes:
    h = hashlib.sha256()
    h.update(catalog.content_hash())
    h.update(vocab.content_hash())
    return h.digest()


def save_trie_cache(trie: TokenTrie, path, catalog: EntityCatalog, vocab: Vocabulary) -> None:
    """Write the ``ETRIE2`` cache of ``trie`` over this catalog and output vocabulary."""
    sections = [
        np.asarray(a, dtype="<i4").tobytes()
        for a in (trie.terminal, np.diff(trie.child_start), trie.child_keys, trie.child_vals)
    ]
    _CACHE.write(path, content_hash(catalog, vocab), (trie.node_count, len(trie.child_keys)), sections)


def load_trie_cache(path, catalog: EntityCatalog, vocab: Vocabulary) -> TokenTrie:
    """Read a cache written by save_trie_cache for this catalog and output
    vocabulary. Raises CacheMismatch unless the file is intact and holds a
    well-formed trie over the catalog."""
    (n, n_edges), body = _CACHE.read(path, content_hash(catalog, vocab))
    terminal, counts, keys, vals = np.split(np.frombuffer(body, dtype="<i4"), [n, 2 * n, 2 * n + n_edges])
    try:
        return TokenTrie.from_arrays(terminal, counts, keys, vals, len(catalog), len(vocab))
    except CacheMismatch as exc:
        raise CacheMismatch(f"{path}: {exc}") from None
