"""Prefix tree over tokenized entity names and the decoding constraint automaton.

The trie is a flat arena in depth-first preorder: per-node sorted child
arrays live in one CSR-style block, so child lookup is a binary search and
the whole structure is a handful of numpy arrays. A decoder row's queries
(``child``, ``advance``, ``allowed_tokens``) read them through memoryviews
made once, with no copy, when the trie is made: a memoryview indexes to a
Python int, so a node's bounds, its terminal and its child are Python ints,
a child is found by ``bisect`` over the node's keys, and numpy is called only
to slice out the keys ``allowed_tokens`` returns and to count emitted ranks
per child. Each edge also carries the half-open interval of entity ranks
(positions in sorted-name order) below the child it leads to. A node's
child intervals tile its subtree after its own terminal, so no-repeat
pruning is one count of the emitted ranks per child interval: a child whose
count equals its size has nothing left to emit, and pruning exactly those
never paints a decoder into a dead end.

``build_trie`` works from the catalog's name table one token depth at a
time: stable sorts by length and by the token at each depth, from the last
depth up, put the names in sorted order, an equality test gives each name's
common prefix with the one before, the tokens past it are new nodes in
preorder, a running maximum finds their parents, and a stable sort by parent
gives each node's children in token order. Every stable sort is by 16-bit
digits, the width numpy radix-sorts in linear time. A depth touches only
the names longer than it, so time and memory grow with the total number of
name tokens. The build and the cache load both end in
``TokenTrie.from_arrays``, which checks the preorder and derives the rank
intervals in one pass down from the root. Both derivations index in int32,
the cache's width, and free each temporary before the next large one is made.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .catalog import (
    EOS,
    N_RESERVED,
    SEP,
    EntityCatalog,
    nul_terminated,
    read_catalog,
    read_vocabulary,
)
from .errors import CacheMismatch, DisallowedToken
from .sealed import SealedFormat

ROOT = 0
FINISHED = -1

# key: the SHA-256 of the KB file the cache was built from.
# dims (n nodes, e edges, v vocabulary bytes, w names bytes); sections: terminal,
# child counts (n), child keys, child values (e) as int32, then the output
# vocabulary (v) and the catalog's names (w), each NUL-terminated UTF-8
_CACHE = SealedFormat(
    b"ETRIE6\0\0", "trie cache", CacheMismatch, struct.Struct("<iiii"),
    lambda n, e, v, w: (4 * n, 4 * n, 4 * e, 4 * e, v, w) if n >= 1 and min(e, v, w) >= 0 else None,
)

TrieCursor = int  # a position in the automaton is its node; ROOT is the entity boundary, FINISHED follows EOS


@dataclass
class TokenTrie:
    terminal: np.ndarray      # int32 [n_nodes], entity id or -1
    child_start: np.ndarray   # int64 [n_nodes + 1], CSR offsets
    child_keys: np.ndarray    # int32 [n_edges], token ids, sorted per node
    child_vals: np.ndarray    # int32 [n_edges], child node indices
    child_lo: np.ndarray      # int32 [n_edges], first entity rank under the child
    child_hi: np.ndarray      # int32 [n_edges], one past its last entity rank
    entity_rank: np.ndarray   # int32 [n_entities], catalog id -> rank
    entity_count: int
    max_depth: int
    vocab_size: int           # output vocabulary size, the width of a scorer row

    def __post_init__(self) -> None:
        # views of the arrays, not copies, for the per-row queries: each index is a Python int
        self._terminal, self._start, self._keys, self._vals, self._lo, self._hi, self._rank = map(
            memoryview, (self.terminal, self.child_start, self.child_keys, self.child_vals,
                         self.child_lo, self.child_hi, self.entity_rank))

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
        """The trie stored as ``terminal``, per-node child counts and the CSR edge
        arrays; one pass down from the root checks the preorder and derives the
        entity-rank intervals. Raises CacheMismatch unless the arrays are a preorder
        trie whose terminals are exactly the ids ``0..n_entities-1`` and whose keys
        are content ids below ``vocab_size``."""

        def require(ok, what: str) -> None:
            if not ok:
                raise CacheMismatch(what)

        n, n_edges = len(terminal), len(child_keys)
        require(child_counts.min() >= 0 and child_counts.sum() == n_edges,
                "child counts do not sum to the edge count")
        # preorder visits terminals in sorted-name order, so a name's rank is its
        # terminal's place among the terminals; entity_rank, filled from the
        # terminal ids in node order, is also the mask of the ids seen
        ids = terminal[terminal >= 0]
        bad_ids = "terminal ids are not the catalog ids, each once and none at the root"
        require(terminal[ROOT] == -1 and terminal.min() >= -1 and len(ids) == n_entities
                and ids.max(initial=-1) < n_entities, bad_ids)
        entity_rank = np.full(n_entities, -1, dtype=np.int32)
        entity_rank[ids] = np.arange(n_entities, dtype=np.int32)
        del ids
        require((entity_rank >= 0).all(), bad_ids)
        # a non-terminal leaf would be a decode dead end; the root is one unless it has children
        require((terminal[child_counts == 0] >= 0).all(), "a leaf is not terminal")

        child_start = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(child_counts, out=child_start[1:])
        rising = np.diff(child_keys) > 0
        rising[child_start[1:-1][child_counts[1:] > 0] - 1] = True  # keys restart at each node's first child
        require(child_keys.min() >= N_RESERVED and child_keys.max() < vocab_size and rising.all(),
                "child keys are not increasing content ids of the output vocabulary")
        del rising
        require(child_vals.min() > ROOT and child_vals.max() < n, "child index out of range")

        # one breadth-first pass writes each node's subtree end (the subtree is
        # [v, end[v]) in preorder) when it reaches the node: its next sibling, or for
        # a last child its parent's end. At each depth it checks that a parent's first
        # child and a leaf's end are the node after it; as every end written is a
        # reached node or n, that reaches every node, and more visits than nodes
        # means a node has two parents
        end = np.empty(n, dtype=np.int32)
        end[ROOT] = n
        level, visited, max_depth = np.array([ROOT], dtype=np.int32), 1, 0  # the depth's parents
        while len(level):
            max_depth += 1
            counts = child_counts[level]
            last = np.cumsum(counts, dtype=np.int32)  # one past each parent's last child in kids
            visited += int(last[-1])
            require(visited <= n, "a node has more than one parent")
            require(np.array_equal(child_vals[child_start[level]], level + 1), "nodes are not in preorder")
            # the depth's edges, in int32: each parent's run starts at its child_start
            edges = np.repeat(child_start[level].astype(np.int32) - last + counts, counts)
            edges += np.arange(len(edges), dtype=np.int32)
            kids = child_vals[edges]
            del counts, edges
            end[kids[:-1]] = kids[1:]  # a last child's entry is rewritten on the next line
            end[kids[last - 1]] = end[level]
            del last
            inner = child_counts[kids] > 0
            span = end[kids]
            span -= kids  # a leaf's subtree is the leaf alone
            require((inner | (span == 1)).all(), "nodes are not in preorder")
            level = kids[inner]
            del kids, inner, span

        # the terminals before a node are its entity rank
        rank = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(terminal >= 0, dtype=np.int32, out=rank[1:])
        end = end[child_vals]  # the first node past each child's subtree
        child_hi = rank[end]
        del end  # before child_lo is made, so at most three arrays of the edges' size are alive here
        return cls(
            terminal=terminal,
            child_start=child_start,
            child_keys=child_keys,
            child_vals=child_vals,
            child_lo=rank[child_vals],
            child_hi=child_hi,
            entity_rank=entity_rank,
            entity_count=n_entities,
            max_depth=max_depth,
            vocab_size=vocab_size,
        )

    @property
    def node_count(self) -> int:
        return len(self.terminal)

    def terminal_entity(self, node: TrieCursor) -> int | None:
        t = self._terminal[node]
        return None if t < 0 else t

    def child(self, node: int, token: int) -> int:
        """Child node index for a content token, or -1: any other int, even one
        outside the vocabulary, has no child."""
        keys, e = self._keys, self._start[node + 1]
        i = bisect_left(keys, token, self._start[node], e)
        if i < e and keys[i] == token:
            return self._vals[i]
        return -1

    def lookup(self, tokens: Sequence[int]) -> int | None:
        """Entity id spelled by exactly this content-token sequence, if any."""
        node = ROOT
        for t in tokens:
            node = self.child(node, t)
            if node < 0:
                return None
        return self.terminal_entity(node)


def build_trie(catalog: EntityCatalog) -> TokenTrie:
    """Build the prefix tree recognizing exactly the catalog names, tokenized in its output
    vocabulary. Raises EmptyCatalog on an empty catalog. The name table and the build's
    temporaries are freed before ``from_arrays`` makes its own."""
    return TokenTrie.from_arrays(*_preorder_arrays(catalog), len(catalog), len(catalog.output_vocab()))


def _preorder_arrays(catalog: EntityCatalog) -> tuple[np.ndarray, ...]:
    """The ``TokenTrie.from_arrays`` arrays of the trie over the catalog's name table.
    The table is made here, so each part of it is freed as soon as it has been read."""
    offsets, ids = catalog.name_table()
    start = offsets[:-1].astype(np.int32)
    length = np.subtract(offsets[1:], offsets[:-1], dtype=np.int32)
    del offsets
    n, depth = len(length), int(length.max())

    # sorted order by stable sorts from the last depth; names of length d + 1 have not moved yet
    by_length = _stable_order(length)
    at_most = np.cumsum(np.bincount(length, minlength=depth + 1))  # names of at most d tokens
    order = by_length[:0]
    for d in range(depth - 1, -1, -1):
        order = np.concatenate((by_length[at_most[d]: at_most[d + 1]], order))
        order = order[_stable_order(ids[start[order] + d])]
    del by_length
    start, length = start[order], length[order]

    # common prefix with the name before (sorted, so a name equal up to d is as long as it)
    lcp, same = np.zeros(n, dtype=np.int32), np.arange(1, n, dtype=np.int32)
    for d in range(depth):
        same = same[length[same - 1] > d]
        same = same[ids[start[same] + d] == ids[start[same - 1] + d]]
        lcp[same] += 1
    del same

    # the tokens past that prefix are new nodes, numbered in preorder, so a name's
    # last node is its terminal and a node shared with earlier names is the running maximum
    added = length - lcp
    last = np.cumsum(added, dtype=np.int32)
    first = last - added + 1
    terminal = np.full(int(last[-1]) + 1, -1, dtype=np.int32)
    terminal[last] = order
    del added, last, order
    parents, keys = np.empty((2, len(terminal) - 1), dtype=np.int32)  # of node i + 1
    alive, path = np.arange(n, dtype=np.int32), np.zeros(n, dtype=np.int32)  # names longer than d, their nodes at d - 1
    for d in range(depth):
        alive = alive[length[alive] > d]
        new = lcp[alive] <= d
        node = np.where(new, first[alive] + d - lcp[alive], 0)
        parents[node[new] - 1], keys[node[new] - 1] = path[alive[new]], ids[start[alive[new]] + d]
        path[alive] = np.maximum.accumulate(node)
    del ids, start, length, lcp, first, alive, path, new, node

    # a stable sort on parent alone keeps each node's children in key order
    child_counts = np.bincount(parents, minlength=len(terminal)).astype(np.int32)
    by_parent = _stable_order(parents)
    del parents
    keys = keys[by_parent]
    by_parent += 1
    return terminal, child_counts, keys, by_parent


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """The order ``np.argsort(keys, kind="stable")`` gives for int32 keys >= 0, as int32, sorted
    by 16-bit digits, least significant first: numpy's stable sort of 16-bit keys is a radix
    sort, linear in the keys, where int32 keys take a timsort. Keys below 2**16 take one pass."""
    order = np.argsort(keys.astype(np.uint16), kind="stable").astype(np.int32)
    if keys.max(initial=0) >> 16:
        digit = keys[order]
        digit >>= 16
        digit = digit.astype(np.uint16)
        by_digit = np.argsort(digit, kind="stable")
        del digit
        order = order[by_digit]
    return order


_EOS_ARR = np.array([EOS], dtype=np.int32)
_SEP_EOS_ARR = np.array([EOS, SEP], dtype=np.int32)
_EMPTY = np.empty(0, dtype=np.int32)


def allowed_tokens(trie: TokenTrie, node: TrieCursor, emitted, config, n_generated: int) -> np.ndarray:
    """Sorted array of token ids legal at this node.

    ``emitted`` is the set of entity ids already finalized by the hypothesis;
    ``n_generated`` is how many names were finalized (differs from
    len(emitted) only when no_repeat is off and a name repeated).
    """
    if node == FINISHED:
        return _EMPTY
    s, e = trie._start[node], trie._start[node + 1]
    keys = trie.child_keys[s:e]
    no_repeat = config.no_repeat

    if no_repeat and emitted and e > s:
        # emitted ranks below the children (the node's own terminal rank comes
        # first in preorder, so it falls outside), counted per child interval
        first, past = trie._lo[s], trie._hi[e - 1]
        ranks = [r for r in map(trie._rank.__getitem__, emitted) if first <= r < past]
        if ranks:
            lo, hi = trie.child_lo[s:e], trie.child_hi[s:e]
            counts = np.bincount(lo.searchsorted(ranks, "right") - 1, minlength=e - s)
            keys = keys[counts < hi - lo]
    if node == ROOT:
        if not emitted and config.allow_empty:
            return np.concatenate((_EOS_ARR, keys))
        return keys

    term = trie._terminal[node]
    if term < 0 or (no_repeat and term in emitted):
        return keys
    # finalizing this entity is legal; EOS always ends here, SEP only when
    # another name can still follow
    can_continue = n_generated + 1 < config.max_entities
    if can_continue and no_repeat:
        can_continue = len(emitted) + 1 < trie.entity_count
    head = _SEP_EOS_ARR if can_continue else _EOS_ARR
    if len(keys) == 0:
        return head
    return np.concatenate((head, keys))


def advance(trie: TokenTrie, node: TrieCursor, token: int) -> TrieCursor:
    """The node after one token: SEP returns to ROOT, the boundary, and EOS to FINISHED."""
    if node == FINISHED:
        raise DisallowedToken("decode already finished")
    if token == EOS:
        if node != ROOT and trie._terminal[node] < 0:
            raise DisallowedToken("EOS is only legal at a terminal or the empty boundary")
        return FINISHED
    if token == SEP:
        if node == ROOT or trie._terminal[node] < 0:
            raise DisallowedToken("SEP is only legal at a terminal")
        return ROOT
    nxt = trie.child(node, token)
    if nxt < 0:
        raise DisallowedToken(f"token {token} is not a continuation at node {node}")
    return nxt


def trie_stats(trie: TokenTrie) -> dict[str, int]:
    return {
        "node_count": trie.node_count,
        "max_depth": trie.max_depth,
        "entity_count": trie.entity_count,
    }


def save_trie_cache(trie: TokenTrie, path, catalog: EntityCatalog, kb_sha256: bytes) -> None:
    """Write the ``ETRIE6`` cache of ``trie``, the output vocabulary of ``catalog``
    and its names as it holds them, keyed by ``kb_sha256``, the SHA-256 of the KB
    file they were read from."""
    counts = np.subtract(trie.child_start[1:], trie.child_start[:-1], dtype=np.int32)
    ints = (trie.terminal, counts, trie.child_keys, trie.child_vals)
    tokens, names = nul_terminated(catalog.output_vocab().tokens), catalog.names_section
    dims = (trie.node_count, len(trie.child_keys), len(tokens), len(names))
    # the int32 arrays go out as buffers: hashing and writing them makes no copy
    sections = [*(np.asarray(a, dtype="<i4") for a in ints), tokens, names]
    _CACHE.write(path, kb_sha256, dims, sections)


def load_trie_cache(path, kb_sha256: bytes | None = None) -> tuple[EntityCatalog, TokenTrie]:
    """The catalog and the trie of a cache written by save_trie_cache; the
    catalog is a view of the cache's names section and holds its output
    vocabulary. Raises CacheMismatch unless the file is intact, was built from
    the KB file whose SHA-256 is ``kb_sha256`` when one is given, and holds
    strict UTF-8 names, a vocabulary covering the trie and a well-formed trie
    whose terminals are the names."""
    _, (terminal, counts, keys, vals, vocab, names) = _CACHE.read(path, kb_sha256)
    vocab = read_vocabulary(bytes(vocab))
    catalog = read_catalog(names, vocab)
    if catalog is None:
        raise CacheMismatch(f"{path}: bad names section")
    if vocab is None:
        raise CacheMismatch(f"{path}: bad vocabulary section")
    arrays = (np.frombuffer(a, dtype="<i4") for a in (terminal, counts, keys, vals))
    try:
        return catalog, TokenTrie.from_arrays(*arrays, len(catalog), len(vocab))
    except CacheMismatch as exc:
        raise CacheMismatch(f"{path}: {exc}") from None
