import dataclasses
import gc
import hashlib
import itertools
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from ettag.catalog import (
    EOS,
    N_RESERVED,
    SEP,
    EntityCatalog,
    Vocabulary,
    build_vocabularies,
    kb_sha256,
    nul_terminated,
    tokenize,
    word_tokens,
)
from ettag.cli import main
from ettag.decoding import DecodeConfig
from ettag.errors import CacheMismatch, CorruptCheckpoint, DisallowedToken, EmptyCatalog, InputError
from ettag.synthetic import synthetic_kb_names
from ettag.toy_model import ToyModelParams, init_params, load_checkpoint, save_checkpoint
from ettag.trie import (
    _CACHE,
    _stable_order,
    FINISHED,
    ROOT,
    TokenTrie,
    TrieCursor,
    advance,
    allowed_tokens,
    build_trie,
    load_trie_cache,
    save_trie_cache,
    trie_stats,
)

from helpers import (
    brute_force_language,
    catalog_stack,
    count_prefix_pairs,
    enumerate_trie_language,
    name_token_seqs,
    random_catalog,
    reference_build_trie,
    reference_preorder_fields,
)


# the KB file's SHA-256 recorded in caches of catalogs that were built in memory
KB_DIGEST = bytes(range(32))


def walk(trie, tokens, cursor=None):
    cur = cursor or ROOT
    for t in tokens:
        cur = advance(trie, cur, t)
    return cur


class TestBuild:
    def test_prefix_overlap_terminal_with_children(self):
        cat, vout, trie = catalog_stack(EntityCatalog(["Paris", "Paris Métro"]))
        paris = tokenize("Paris", vout, mode="output")
        cur = walk(trie, paris)
        ids = cat.ids_of(["Paris", "Paris Métro"])
        assert trie.terminal_entity(cur) == ids["Paris"]
        metro = tokenize("Paris Métro", vout, mode="output")[-1]
        child = advance(trie, cur, metro)
        assert trie.terminal_entity(child) == ids["Paris Métro"]

    def test_empty_catalog(self):
        with pytest.raises(EmptyCatalog):
            build_trie(EntityCatalog([]))

    def test_recognizes_exactly_the_catalog(self):
        rng = np.random.default_rng(5)
        cat = random_catalog(rng, 40)
        cat, vout, trie = catalog_stack(cat)
        seqs = name_token_seqs(cat, vout)
        seq_set = set(seqs)
        for eid, seq in enumerate(seqs):
            assert trie.lookup(seq) == eid
        assert trie.lookup([]) is None
        for seq in seqs:
            ext = seq + (seq[0],)
            if ext not in seq_set:
                assert trie.lookup(list(ext)) is None
        assert trie_stats(trie)["entity_count"] == len(cat)

    def test_stats(self):
        cat, vout, trie = catalog_stack(EntityCatalog(["a b c", "a b", "x"]))
        stats = trie_stats(trie)
        assert stats["entity_count"] == 3
        assert stats["max_depth"] == 3
        # root + a,b,c + x
        assert stats["node_count"] == 5

    def test_derived_fields_match_the_sorted_names(self):
        # names of up to 4 tokens, and names of 1 to 8 tokens in prefix chains
        catalogs = [random_catalog(np.random.default_rng(11), 60)]
        catalogs += [_punctuated_catalog(np.random.default_rng(seed), 60) for seed in range(3)]
        depths = {_assert_derived_fields(cat) for cat in catalogs}
        assert max(depths) == 8, depths

    def test_a_vocabulary_past_16_bits(self):
        """More than 65,536 distinct one-word names: the sort by token takes two
        16-bit digits, as on no benchmark KB."""
        words = [f"w{i}" for i in np.random.default_rng(2).permutation(70_000)]
        cat = EntityCatalog(words)
        assert len(cat.output_vocab()) > 1 << 16
        assert _assert_derived_fields(cat) == 1

    def test_deterministic_build(self):
        rng = np.random.default_rng(9)
        cat = random_catalog(rng, 60)
        cat, vout, t1 = catalog_stack(cat)
        t2 = build_trie(cat)
        assert trie_stats(t1) == trie_stats(t2)
        config = DecodeConfig()
        sample = np.random.default_rng(1).integers(0, t1.node_count, size=1000)
        for node in sample:
            a1 = allowed_tokens(t1, TrieCursor(int(node)), frozenset(), config, 0)
            a2 = allowed_tokens(t2, TrieCursor(int(node)), frozenset(), config, 0)
            assert np.array_equal(a1, a2)


class TestAllowedTokens:
    def test_boundary_lists_first_tokens(self):
        cat, vout, trie = catalog_stack(EntityCatalog(["Earth", "Parsec"]))
        allowed = allowed_tokens(trie, ROOT, frozenset(), DecodeConfig(), 0)
        first = {tokenize(n, vout, mode="output")[0] for n in ("Earth", "Parsec")}
        assert set(allowed.tolist()) == first

    def test_terminal_with_children_offers_sep_eos(self):
        cat, vout, trie = catalog_stack(EntityCatalog(["Paris", "Paris Métro"]))
        cur = walk(trie, tokenize("Paris", vout, mode="output"))
        allowed = set(allowed_tokens(trie, cur, frozenset(), DecodeConfig(), 0).tolist())
        metro = tokenize("Paris Métro", vout, mode="output")[-1]
        assert allowed == {metro, SEP, EOS}

    def test_no_repeat_blocks_finished_entity(self):
        # derived by enumerating the constrained language on the toy catalog:
        # with "Earth" emitted, the cursor after "Earth" must offer nothing
        # (the node is fully blocked), and the boundary must not offer Earth
        cat, vout, trie = catalog_stack(EntityCatalog(["Earth", "Parsec"]))
        earth = cat.ids_of(["Earth"])["Earth"]
        cur = walk(trie, tokenize("Earth", vout, mode="output"))
        config = DecodeConfig()
        allowed = allowed_tokens(trie, cur, frozenset({earth}), config, 1)
        assert allowed.tolist() == []
        at_root = allowed_tokens(trie, ROOT, frozenset({earth}), config, 1)
        parsec_first = tokenize("Parsec", vout, mode="output")[0]
        assert at_root.tolist() == [parsec_first]

        # a terminal with children: with "Paris" emitted its node offers only
        # the way on to "Paris Métro", and the root still leads there; with
        # both emitted the root no longer offers their first token
        cat, vout, trie = catalog_stack(EntityCatalog(["Paris", "Paris Métro"]))
        ids = cat.ids_of(["Paris", "Paris Métro"])
        paris, metro = ids["Paris"], ids["Paris Métro"]
        paris_tok, metro_tok = tokenize("Paris Métro", vout, mode="output")
        cur = walk(trie, [paris_tok])
        assert allowed_tokens(trie, cur, frozenset({paris}), config, 1).tolist() == [metro_tok]
        at_root = allowed_tokens(trie, ROOT, frozenset({paris}), config, 1)
        assert at_root.tolist() == [paris_tok]
        both = frozenset({paris, metro})
        assert allowed_tokens(trie, ROOT, both, config, 2).tolist() == []

    def test_last_entity_forces_eos(self):
        cat, vout, trie = catalog_stack(EntityCatalog(["Earth"]))
        cur = walk(trie, tokenize("Earth", vout, mode="output"))
        allowed = allowed_tokens(trie, cur, frozenset(), DecodeConfig(), 0)
        assert allowed.tolist() == [EOS]

    def test_max_entities_gates_sep(self):
        cat, vout, trie = catalog_stack(EntityCatalog(["Earth", "Parsec"]))
        cur = walk(trie, tokenize("Earth", vout, mode="output"))
        allowed = allowed_tokens(trie, cur, frozenset(), DecodeConfig(max_entities=1), 0)
        assert allowed.tolist() == [EOS]

    def test_allow_empty_adds_eos_at_start_only(self):
        cat, vout, trie = catalog_stack(EntityCatalog(["Earth", "Parsec"]))
        config = DecodeConfig(allow_empty=True)
        at_start = allowed_tokens(trie, ROOT, frozenset(), config, 0)
        assert EOS in at_start.tolist()
        # after one entity + SEP the boundary must demand another name
        earth = cat.ids_of(["Earth"])["Earth"]
        post_sep = allowed_tokens(trie, ROOT, frozenset({earth}), config, 1)
        assert EOS not in post_sep.tolist()

    def test_finished_cursor_has_no_tokens(self):
        cat, vout, trie = catalog_stack(EntityCatalog(["Earth"]))
        assert allowed_tokens(trie, TrieCursor(FINISHED), frozenset(), DecodeConfig(), 0).size == 0

    def test_no_repeat_off_allows_repeat(self):
        cat, vout, trie = catalog_stack(EntityCatalog(["Earth"]))
        earth = cat.ids_of(["Earth"])["Earth"]
        config = DecodeConfig(no_repeat=False, max_entities=3)
        cur = walk(trie, tokenize("Earth", vout, mode="output"))
        allowed = allowed_tokens(trie, cur, frozenset({earth}), config, 1)
        assert allowed.tolist() == [EOS, SEP]
        # but the generated-name budget still gates SEP
        allowed = allowed_tokens(trie, cur, frozenset({earth}), config, 2)
        assert allowed.tolist() == [EOS]


class TestAdvance:
    def test_sep_returns_to_boundary(self):
        cat, vout, trie = catalog_stack(EntityCatalog(["Earth", "Parsec"]))
        cur = walk(trie, tokenize("Earth", vout, mode="output"))
        assert advance(trie, cur, SEP) == ROOT

    def test_eos_finishes(self):
        cat, vout, trie = catalog_stack(EntityCatalog(["Earth"]))
        cur = walk(trie, tokenize("Earth", vout, mode="output"))
        assert advance(trie, cur, EOS) == TrieCursor(FINISHED)

    def test_disallowed(self):
        cat, vout, trie = catalog_stack(EntityCatalog(["Black hole", "Earth"]))
        hole = tokenize("Black hole", vout, mode="output")[1]
        with pytest.raises(DisallowedToken):
            advance(trie, ROOT, hole)
        with pytest.raises(DisallowedToken):
            advance(trie, ROOT, SEP)
        black = walk(trie, tokenize("Black hole", vout, mode="output")[:1])
        with pytest.raises(DisallowedToken):
            advance(trie, black, EOS)  # mid-name, not terminal
        done = advance(trie, walk(trie, tokenize("Earth", vout, mode="output")), EOS)
        with pytest.raises(DisallowedToken):
            advance(trie, done, EOS)


class TestLanguage:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        cat = random_catalog(rng, int(rng.integers(2, 9)))
        cat, vout, trie = catalog_stack(cat)
        config = DecodeConfig(max_entities=3)
        got = enumerate_trie_language(trie, config)
        want = brute_force_language(name_token_seqs(cat, vout), 3)
        assert got == want

    def test_allow_empty_language(self):
        cat, vout, trie = catalog_stack(EntityCatalog(["a b", "a"]))
        config = DecodeConfig(max_entities=2, allow_empty=True)
        got = enumerate_trie_language(trie, config)
        want = brute_force_language(name_token_seqs(cat, vout), 2, allow_empty=True)
        assert got == want

    def test_no_dead_ends_exhaustive(self):
        # every reachable (cursor, emitted) state must reach EOS
        rng = np.random.default_rng(17)
        cat = random_catalog(rng, 7)
        cat, vout, trie = catalog_stack(cat)
        config = DecodeConfig(max_entities=3)
        seen = set()
        stack = [(ROOT, frozenset(), 0)]
        while stack:
            cursor, emitted, n_names = stack.pop()
            key = (cursor, emitted, n_names)
            if key in seen:
                continue
            seen.add(key)
            allowed = allowed_tokens(trie, cursor, emitted, config, n_names)
            if cursor == FINISHED:
                continue
            assert allowed.size > 0, f"dead end at {key}"
            for token in allowed.tolist():
                if token == EOS:
                    continue
                if token == SEP:
                    term = trie.terminal_entity(cursor)
                    stack.append((advance(trie, cursor, token), emitted | {term}, n_names + 1))
                else:
                    stack.append((advance(trie, cursor, token), emitted, n_names))


def _assert_derived_fields(cat: EntityCatalog) -> int:
    """Assert the trie's ranks, depth and entity intervals against those read off the
    sorted token sequences of the names; returns the depth."""
    cat, vout, trie = catalog_stack(cat)
    seqs = name_token_seqs(cat, vout)
    rank = {eid: r for r, eid in enumerate(sorted(range(len(seqs)), key=seqs.__getitem__))}
    assert trie.entity_rank.tolist() == [rank[eid] for eid in range(len(seqs))]
    assert trie.max_depth == max(len(seq) for seq in seqs)
    under: dict[int, list[int]] = {}
    for eid, seq in enumerate(seqs):
        path = [0]
        for tok in seq:
            path.append(trie.child(path[-1], tok))
        for node in path:
            under.setdefault(node, []).append(rank[eid])
    assert sorted(under) == list(range(trie.node_count))
    assert trie.child_lo.tolist() == [min(under[v]) for v in trie.child_vals.tolist()]
    assert trie.child_hi.tolist() == [max(under[v]) + 1 for v in trie.child_vals.tolist()]
    return trie.max_depth


@pytest.mark.parametrize("high", [1 << 8, 1 << 16, (1 << 16) + 1, 1 << 31], ids=["8-bit", "16-bit", "2**16", "31-bit"])
def test_stable_order_is_the_stable_argsort(high):
    """The 16-bit-digit sort gives np.argsort(kind="stable")'s order, as int32, for keys
    below ``high`` and up to its largest (2**16 itself, and 2**31 - 1), ties and no keys among them."""
    rng = np.random.default_rng(high)
    cases = [np.empty(0, dtype=np.int32), np.array([high - 1], dtype=np.int32)]
    for n in (2, 17, 1000, 70_000):
        keys = rng.integers(0, high, size=n, dtype=np.int32)
        keys[rng.integers(0, n, size=max(n // 4, 1))] = high - 1  # the largest key, tied
        cases += [keys, keys[: n // 2].repeat(2), np.sort(keys)[::-1].copy()]
    for keys in cases:
        got = _stable_order(keys)
        assert got.dtype == np.int32 and np.array_equal(got, np.argsort(keys, kind="stable"))


def _punctuated_catalog(rng, n_names: int) -> EntityCatalog:
    """Names of 1 to 8 tokens from words that peel into several tokens, with
    some names extended by one word, so that they are prefixes of others."""
    pieces = ["Alpha", "beta-9", "w1", "O'Neill", "(x)", "Q.", "&", "東京", "été", "St."]
    names: dict[str, None] = {}
    while len(names) < n_names:
        name = " ".join(rng.choice(pieces, size=int(rng.integers(1, 5))))
        chain = [name, name + " " + str(rng.choice(pieces))] if rng.random() < 0.4 else [name]
        for candidate in chain:
            if len(word_tokens(candidate)) <= 8 and len(names) < n_names:
                names.setdefault(candidate)
    return EntityCatalog(names)


def test_build_matches_the_insertion_reference():
    lengths: set[int] = set()
    prefix_pairs = 0
    for seed in range(240):
        rng = np.random.default_rng(seed)
        cat = _punctuated_catalog(rng, 1 if seed == 0 else int(rng.integers(2, 40)))
        vout = cat.output_vocab()
        seqs = name_token_seqs(cat, vout)
        want = reference_build_trie(seqs, len(vout))
        got = build_trie(cat)
        for field in ("terminal", "child_start", "child_keys", "child_vals", "child_lo", "child_hi", "entity_rank"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and np.array_equal(a, b), (seed, field)
        assert got.max_depth == want.max_depth
        lengths.update(map(len, seqs))
        prefix_pairs += count_prefix_pairs(cat, vout)
    assert lengths == set(range(1, 9)) and prefix_pairs > 0


def _assert_queries_match_brute_force(trie: TokenTrie, seqs: list[tuple[int, ...]], rng) -> None:
    """Every per-row query at every node against a brute-force answer: ``child``,
    ``lookup``, ``terminal_entity`` and ``advance`` against a scan of the CSR arrays
    for each token in [-1, vocab_size], each an int or None; ``allowed_tokens``
    against the tokens read off the names ``seqs`` for seeded emitted sets."""
    terminal, start = trie.terminal.tolist(), trie.child_start.tolist()
    keys, vals = trie.child_keys.tolist(), trie.child_vals.tolist()
    paths = {ROOT: ()}  # preorder: a node's parent comes before it
    for node in range(trie.node_count):
        edges = list(zip(keys[start[node]: start[node + 1]], vals[start[node]: start[node + 1]]))
        paths.update((v, paths[node] + (t,)) for t, v in edges)
        term = None if terminal[node] < 0 else terminal[node]
        assert type(trie.terminal_entity(node)) is type(term) and trie.terminal_entity(node) == term
        for token in range(-1, trie.vocab_size + 1):
            want = next((v for t, v in edges if t == token), -1)
            got = trie.child(node, token)
            assert type(got) is int and got == want, (node, token)
            found = None if want < 0 or terminal[want] < 0 else terminal[want]
            assert type(trie.lookup([*paths[node], token])) is type(found)
            assert trie.lookup([*paths[node], token]) == found, (node, token)
            want = None if want < 0 else want  # FINISHED is -1 too
            if token == EOS:
                want = FINISHED if node == ROOT or term is not None else None
            elif token == SEP:
                want = ROOT if node != ROOT and term is not None else None
            if want is None:
                with pytest.raises(DisallowedToken):
                    advance(trie, node, token)
            else:
                got = advance(trie, node, token)
                assert type(got) is int and got == want, (node, token)

    # allowed_tokens from the names alone: the next tokens of the names under a
    # node's path that are not all emitted, then EOS and SEP where one may end here
    n = len(seqs)
    under: dict[tuple[int, ...], set[int]] = {}
    for eid, seq in enumerate(seqs):
        for d in range(len(seq) + 1):
            under.setdefault(seq[:d], set()).add(eid)
    spelled = {seq: eid for eid, seq in enumerate(seqs)}
    draws = [set(), {int(rng.integers(n))}, set(rng.permutation(n)[: n - 1].tolist()),
             set(rng.permutation(n)[:64].tolist())]
    for emitted, no_repeat, max_entities, allow_empty in itertools.product(
            map(frozenset, draws), (True, False), (1, 2, 64), (False, True)):
        config = DecodeConfig(no_repeat=no_repeat, max_entities=max_entities, allow_empty=allow_empty)
        blocked = emitted if no_repeat else frozenset()
        for node, path in paths.items():
            nexts = {seq[len(path)] for seq in seqs if len(seq) > len(path) and seq[: len(path)] == path}
            want = sorted(t for t in nexts if under[path + (t,)] - blocked)
            eid = spelled.get(path)
            if node == ROOT:
                want = [EOS] * (allow_empty and not emitted) + want
            elif eid is not None and eid not in blocked:
                more = len(emitted) + 1 < max_entities and (not no_repeat or len(emitted) + 1 < n)
                want = [EOS, SEP][: 1 + more] + want
            got = allowed_tokens(trie, node, emitted, config, len(emitted))
            assert got.dtype == np.int32 and got.tolist() == want, (node, sorted(emitted), config)


@pytest.mark.parametrize("n_names", [1, 9, 90])
def test_row_queries_match_brute_force(tmp_path, n_names):
    """The per-node oracle, on a punctuated catalog's trie as built and as loaded
    from its cache, whose file-backed arrays are read-only views."""
    rng = np.random.default_rng(n_names)
    cat = _punctuated_catalog(rng, n_names)
    seqs = [tuple(seq) for seq in name_token_seqs(cat, cat.output_vocab())]
    trie = build_trie(cat)
    save_trie_cache(trie, tmp_path / "kb.trie", cat, KB_DIGEST)
    loaded = load_trie_cache(tmp_path / "kb.trie")[1]
    assert not any(a.flags.writeable for a in (loaded.terminal, loaded.child_keys, loaded.child_vals))
    for t in (trie, loaded):
        _assert_queries_match_brute_force(t, seqs, rng)


def _structures():
    """Child counts and child values: every structure of up to 5 nodes with one
    edge fewer than nodes and of up to 4 nodes with as many edges as nodes, then
    near-valid ones of 6 to 12 nodes, each a random preorder tree with 0 to 2
    counts or values changed."""
    for n, n_edges in [(n, n - 1) for n in range(2, 6)] + [(n, n) for n in range(2, 5)]:
        for cuts in itertools.combinations_with_replacement(range(n_edges + 1), n - 1):
            counts = np.diff((0, *cuts, n_edges))
            for vals in itertools.product(range(1, n), repeat=n_edges):
                yield counts, vals
    rng = np.random.default_rng(34)
    for _ in range(3000):
        n = int(rng.integers(6, 13))
        parents, path = [], [ROOT]  # node i + 1 hangs off the path from the root to node i
        for node in range(1, n):
            del path[int(rng.integers(1, len(path) + 1)):]
            parents.append(path[-1])
            path.append(node)
        counts = np.bincount(parents, minlength=n)
        vals = np.argsort(parents, kind="stable") + 1
        for _ in range(int(rng.integers(0, 3))):
            i, j = rng.integers(0, n, size=2)
            if rng.random() < 0.5:
                vals[i % (n - 1)] = j
            elif counts[i] > 0:
                counts[i] -= 1
                counts[j] += 1
        yield counts, vals


def test_from_arrays_accepts_exactly_the_preorder_tries():
    """``from_arrays`` raises CacheMismatch exactly when a depth-first walk from
    the root finds that the arrays are not a preorder trie, and otherwise derives
    the walk's rank intervals and depth. Leaves are terminal and each node's keys
    ascend, so only the structure can be at fault."""
    outcomes = {True: 0, False: 0}
    for counts, vals in _structures():
        counts, vals = np.asarray(counts, dtype=np.int32), np.asarray(vals, dtype=np.int32)
        terminal = np.full(len(counts), -1, dtype=np.int32)
        leaves = np.flatnonzero(counts[1:] == 0) + 1
        terminal[leaves] = np.arange(len(leaves))
        keys = np.concatenate([N_RESERVED + np.arange(c, dtype=np.int32) for c in counts])
        want = reference_preorder_fields(terminal, counts, vals)
        try:
            trie = TokenTrie.from_arrays(terminal, counts, keys, vals, len(leaves), N_RESERVED + len(counts))
        except CacheMismatch:
            assert want is None, (counts.tolist(), vals.tolist())
        else:
            got = (trie.child_lo.tolist(), trie.child_hi.tolist(), trie.max_depth)
            assert got == want, (counts.tolist(), vals.tolist())
        outcomes[want is not None] += 1
    assert outcomes[True] > 1000 and outcomes[False] > 10_000, outcomes


TRIE_ARRAYS = ("terminal", "child_start", "child_keys", "child_vals", "child_lo", "child_hi", "entity_rank")


@pytest.fixture(scope="module")
def cache_100k(tmp_path_factory):
    """The trie cache of a 100,000-name synthetic KB and the trie's node count."""
    cat = EntityCatalog(synthetic_kb_names(100_000, seed=0))
    path = tmp_path_factory.mktemp("kb100k") / "kb.trie"
    trie = build_trie(cat)
    save_trie_cache(trie, path, cat, KB_DIGEST)
    return path, trie.node_count


class TestCache:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(23)
        cat = random_catalog(rng, 50)
        cat, vout, trie = catalog_stack(cat)
        path = tmp_path / "kb.trie"
        save_trie_cache(trie, path, cat, KB_DIGEST)
        loaded_cat, loaded = load_trie_cache(path, KB_DIGEST)
        assert tuple(loaded_cat) == tuple(cat) and loaded_cat.names_section == cat.names_section
        assert loaded_cat.output_vocab().tokens == vout.tokens
        assert trie_stats(loaded) == trie_stats(trie)
        for field in TRIE_ARRAYS:
            a, b = getattr(loaded, field), getattr(trie, field)
            assert a.dtype == b.dtype and np.array_equal(a, b), field
        assert loaded.max_depth == trie.max_depth
        config = DecodeConfig(max_entities=3)
        assert enumerate_trie_language(loaded, config) == enumerate_trie_language(trie, config)

    def test_build_kb_writes_the_same_bytes_under_any_hash_seed(self, tmp_path):
        """Python salts ``hash`` of a str per process: token and word ids, and so the
        cache, must not follow a set's order. Two build-kb runs of a 9,000-name KB,
        three blocks of punctuated and non-ASCII names, write the same bytes."""
        words = ["Alpha", "beta-9", "(x)", "O'Neill", "Q.", "&", "été", "東京", "Zürich,", "«Ωmega»"]
        names = [" ".join(name) for name in itertools.product(words, repeat=4)]
        kb = tmp_path / "kb.txt"
        kb.write_text("".join(names[i] + "\n" for i in np.random.default_rng(0).permutation(len(names))[:9000]),
                      encoding="utf-8")
        caches = []
        for seed in ("1", "2"):
            cache = tmp_path / f"kb.{seed}.trie"
            proc = subprocess.run([sys.executable, "-m", "ettag.cli", "build-kb", "--kb", str(kb), "--cache-out",
                                   str(cache)], capture_output=True, text=True, env={**os.environ, "PYTHONHASHSEED": seed})
            assert proc.returncode == 0, proc.stderr
            caches.append(cache.read_bytes())
        assert caches[0] == caches[1]

    def test_index_arrays_are_int32(self, tmp_path):
        """Built or loaded, every index array has the cache's int32 width,
        except the CSR offsets ``child_start``, which stay int64: as int32 they
        slowed kb-470k ``tag`` at beam 1 from 907 to 810 documents/s (perfbench
        medians of 6 alternating runs, 2-core Xeon VM)."""
        cat, vout, trie = catalog_stack(random_catalog(np.random.default_rng(3), 30))
        save_trie_cache(trie, tmp_path / "kb.trie", cat, KB_DIGEST)
        for t in (trie, load_trie_cache(tmp_path / "kb.trie")[1]):
            assert {f: getattr(t, f).dtype for f in TRIE_ARRAYS} == {
                f: np.dtype(np.int64 if f == "child_start" else np.int32) for f in TRIE_ARRAYS}

    def test_a_loaded_catalog_holds_no_name_strings(self, cache_100k):
        """Loading the cache of a 100,000-name KB allocates objects for the
        vocabulary's tokens, not one per name: the catalog is the names section."""
        path, _ = cache_100k
        gc.collect()
        before = sys.getallocatedblocks()
        loaded_cat, _ = load_trie_cache(path, KB_DIGEST)
        gc.collect()
        assert sys.getallocatedblocks() - before < 10_000
        assert len(loaded_cat) == 100_000

    def test_loading_needs_little_memory_past_the_file(self, cache_100k):
        """Loading a cache peaks, past the file's own bytes, below 60 bytes per
        trie node: the derived arrays take about 18 (the int64 CSR offsets, two
        int32 rank bounds per edge, an int32 rank per name), and no temporary
        of the derivation is wider than one of them."""
        path, n_nodes = cache_100k
        gc.collect()
        tracemalloc.start()
        try:
            load_trie_cache(path, KB_DIGEST)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - path.stat().st_size) / n_nodes < 60

    def test_hash_mismatch(self, tmp_path):
        """A cache checked against a KB file other than its own is rejected;
        unchecked, it loads its own names."""
        cat, vout, trie = catalog_stack(EntityCatalog(["Earth", "Mars"]))
        path = tmp_path / "kb.trie"
        save_trie_cache(trie, path, cat, KB_DIGEST)
        with pytest.raises(CacheMismatch, match="trie cache was made for a different KB"):
            load_trie_cache(path, bytes(32))
        assert tuple(load_trie_cache(path)[0]) == ("Earth", "Mars")

    def test_a_load_hashes_the_file_once(self, tmp_path, monkeypatch):
        """The seal is the one SHA-256 a load computes: the names it covers are not hashed again."""
        cat, vout, trie = catalog_stack(EntityCatalog(["Earth", "Mars"]))
        path = tmp_path / "kb.trie"
        save_trie_cache(trie, path, cat, KB_DIGEST)
        calls = []
        sha256 = hashlib.sha256
        monkeypatch.setattr(hashlib, "sha256", lambda *data: calls.append(data) or sha256(*data))
        load_trie_cache(path, KB_DIGEST)
        assert len(calls) == 1

    def test_dims_too_large_to_write(self, tmp_path):
        """A dim past int32, such as a names section of 2 GiB or more, is an
        InputError naming the file, the artifact and the dims; no file is made."""
        path = tmp_path / "kb.trie"
        with pytest.raises(InputError, match=r"kb\.trie: a trie cache cannot hold dims \(2147483648, 0, 0, 0\)"):
            _CACHE.write(path, bytes(32), (2**31, 0, 0, 0), [])
        assert not path.exists()

    def test_not_a_cache(self, tmp_path):
        cat, vout, trie = catalog_stack(EntityCatalog(["Earth"]))
        path = tmp_path / "junk"
        save_trie_cache(trie, path, cat, KB_DIGEST)
        # the magics of the earlier formats
        earlier = [magic + path.read_bytes()[6:] for magic in (b"ETRIE2", b"ETRIE3", b"ETRIE4", b"ETRIE5")]
        for junk in (b"hello world", *earlier):
            path.write_bytes(junk)
            with pytest.raises(CacheMismatch, match="not a trie cache"):
                load_trie_cache(path)

    def test_sections_equal_the_built_trie(self, tmp_path):
        """The key is the KB file's SHA-256, and after the 88-byte header come
        the int32 sections, which are the trie's own arrays, the catalog's
        output vocabulary and its names."""
        cat, vout, trie = catalog_stack(random_catalog(np.random.default_rng(5), 40))
        path = tmp_path / "kb.trie"
        save_trie_cache(trie, path, cat, KB_DIGEST)
        blob = path.read_bytes()
        assert blob[8:40] == KB_DIGEST
        n, n_edges = trie.node_count, len(trie.child_keys)
        ints = np.frombuffer(blob, dtype="<i4", offset=88, count=2 * (n + n_edges))
        expected = (trie.terminal, np.diff(trie.child_start), trie.child_keys, trie.child_vals)
        assert ints.tobytes() == b"".join(np.asarray(a, dtype="<i4").tobytes() for a in expected)
        vocab, names = nul_terminated(vout.tokens), nul_terminated(tuple(cat))
        assert blob[88 + 4 * len(ints):] == vocab + names
        loaded_cat, _ = load_trie_cache(path)
        assert loaded_cat.output_vocab().tokens == build_vocabularies(cat, [])[1].tokens

    def test_artifact_bytes_are_pinned(self, tmp_path):
        """The cache of the tiny catalog and a checkpoint with hand-set weights
        have these exact bytes, so a change to either layout fails here. The
        cache's body, past its 88-byte header, is the ``ETRIE5`` body past its
        124-byte header: the layouts differ only in the key, the dims and the
        ``ETRIE5`` built-from section."""
        cat, vout, trie = catalog_stack(EntityCatalog(TINY_NAMES))
        save_trie_cache(trie, tmp_path / "kb.trie", cat, KB_DIGEST)
        vin, d, k = Vocabulary(["▁red"]), 2, 1
        size = len(vin) * d + len(vout) * d + (d + k * d) * len(vout) + len(vout)  # E_in, E_out, W, b
        params = ToyModelParams(np.arange(size) / 8, d, k, len(vin), len(vout))
        save_checkpoint(params, tmp_path / "m.bin", vin, vout)
        digests = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in ("kb.trie", "m.bin")}
        assert digests == {
            "kb.trie": "5b9958b9473e4d7dcdfa71f8506c9151ff47bed9d54d3c238fa684e069071304",
            "m.bin": "b465415c2de5b81a2445c81989a55247f01eacd1e4f11fbb5ee56268932b8ed2",
        }
        body = (tmp_path / "kb.trie").read_bytes()[88:]
        assert hashlib.sha256(body).hexdigest() == "003ede31fccb5678ecdd8424f8eaefe7b3079b0ed9a32794fc2cc7b9869e0629"

    def test_every_byte_is_checked(self, tmp_path):
        """Every single-byte flip, truncation and padding of a trie cache or
        of a (tiny) model checkpoint is rejected."""
        cat, vout, trie = catalog_stack(EntityCatalog(["Earth", "Mars", "Mars rover"]))
        vin = Vocabulary(["▁red"])
        params = init_params(len(vin), len(vout), d=1, k=1, seed=0)
        other, vout2, trie2 = catalog_stack(EntityCatalog(["Earth", "Mars", "Venus"]))
        params2 = init_params(len(vin), len(vout2), d=1, k=1, seed=0)
        artifacts = [
            (lambda p: save_trie_cache(trie, p, cat, KB_DIGEST),
             lambda p: save_trie_cache(trie2, p, other, bytes(32)),
             lambda p: load_trie_cache(p, KB_DIGEST), CacheMismatch, "made for a different KB"),
            (lambda p: save_checkpoint(params, p, vin, vout), lambda p: save_checkpoint(params2, p, vin, vout2),
             lambda p: load_checkpoint(p, vout), CorruptCheckpoint, "made for a different KB"),
        ]
        path = tmp_path / "artifact"
        for save, save_foreign, load, error, foreign in artifacts:
            save(path)
            good = path.read_bytes()
            load(path)
            damaged = [good[:i] + bytes([good[i] ^ 0x10]) + good[i + 1:] for i in range(len(good))]
            damaged += [good[:cut] for cut in (0, 40, len(good) - 1)] + [good + b"\0\0\0\0"]
            for i, bad in enumerate(damaged):
                path.write_bytes(bad)
                # the SHA-256 covers the key, so a damaged key is not a foreign KB
                message = "contents do not match their SHA-256" if 8 <= i < 40 else None
                with pytest.raises(error, match=message):
                    load(path)
            save_foreign(path)
            with pytest.raises(error, match=foreign):
                load(path)


# The trie over "a b", "a c" and "d" (tokens a=4, b=5, c=6, d=7), nodes in
# preorder root, a, b, c, d:
#   terminal      [-1, -1, 0, 1, 2]
#   child counts  [ 2,  2, 0, 0, 0]
#   child keys    [ 4,  7, 5, 6]
#   child values  [ 1,  4, 2, 3]
TINY_NAMES = ["a b", "a c", "d"]


def _add_edge_from_b_to_a(t):
    t.child_start[3:] += 1
    t.child_keys = np.insert(t.child_keys, 4, 4)
    t.child_vals = np.insert(t.child_vals, 4, 1)


def _set(name, index, value):
    def tamper(t):
        getattr(t, name)[index] = value
    return tamper


TAMPERS = [
    pytest.param(_set("child_start", [2, 3, 4, 5], 5), "child counts", id="counts-sum-past-edges"),
    pytest.param(_set("child_start", 2, 5), "child counts", id="negative-count"),
    pytest.param(_set("child_keys", [0, 1], [7, 4]), "child keys", id="keys-descending"),
    pytest.param(_set("child_keys", 3, 5), "child keys", id="keys-repeated"),
    pytest.param(_set("child_keys", 2, SEP), "child keys", id="reserved-key"),
    pytest.param(_set("child_keys", 3, 8), "child keys", id="key-past-vocab"),
    pytest.param(_set("child_vals", 3, 99), "child index out of range", id="child-out-of-range"),
    pytest.param(_set("child_vals", 1, 0), "child index out of range", id="child-is-root"),
    pytest.param(_set("child_vals", 1, 2), "preorder", id="two-parents-one-orphan"),
    pytest.param(_set("child_vals", [2, 3], [3, 2]), "preorder", id="siblings-swapped"),
    pytest.param(_add_edge_from_b_to_a, "more than one parent", id="cycle"),
    pytest.param(_set("terminal", 0, 0), "terminal ids", id="root-terminal"),
    pytest.param(_set("terminal", 2, 1), "terminal ids", id="id-twice"),
    pytest.param(_set("terminal", 4, 3), "terminal ids", id="id-past-catalog"),
    pytest.param(_set("terminal", 1, -2), "terminal ids", id="below-minus-one"),
    pytest.param(_set("terminal", [1, 4], [2, -1]), "leaf is not terminal", id="leaf-not-terminal"),
]


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """The tiny catalog, its trie, a model trained on it for ``tag``, and its KB file as a cache records it."""
    root = tmp_path_factory.mktemp("tiny")
    kb, docs, model = root / "kb.txt", root / "docs.jsonl", root / "m.bin"
    kb.write_text("".join(n + "\n" for n in TINY_NAMES), encoding="utf-8")
    docs.write_text(json.dumps({"doc_id": "x", "text": "a b", "gold": ["a b"]}) + "\n", encoding="utf-8")
    argv = ["train", "--train", str(docs), "--kb", str(kb), "--model-out", str(model)]
    assert main(argv + ["--epochs", "1", "--dim", "4", "--window", "2"]) == 0
    cat, vout, trie = catalog_stack(EntityCatalog.load(kb))
    assert trie.terminal.tolist() == [-1, -1, 0, 1, 2]
    assert np.diff(trie.child_start).tolist() == [2, 2, 0, 0, 0]
    assert trie.child_keys.tolist() == [4, 7, 5, 6] and trie.child_vals.tolist() == [1, 4, 2, 3]
    assert len(vout) == 8
    tag = ["tag", "--model", str(model), "--kb", str(kb), "--in", str(docs), "--out", str(root / "p.jsonl")]
    return cat, vout, trie, tag, kb_sha256(kb)


def _without_kb(tag):
    i = tag.index("--kb")
    return tag[:i] + tag[i + 2:]


def _write_cache(path, trie, kb_digest, vocab_section, names_section):
    """A cache of these sections for the KB file ``kb_digest``, under a valid SHA-256."""
    ints = [
        np.asarray(a, dtype="<i4").tobytes()
        for a in (trie.terminal, np.diff(trie.child_start), trie.child_keys, trie.child_vals)
    ]
    dims = (trie.node_count, len(trie.child_keys), len(vocab_section), len(names_section))
    _CACHE.write(path, kb_digest, dims, [*ints, vocab_section, names_section])


def _assert_tag_rejects(tag, path, capsys, error="CacheMismatch"):
    capsys.readouterr()
    assert main(tag + ["--kb-cache", str(path)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == error
    return json.loads(err)["message"]


class TestCacheStructure:
    """Each structural check: a tampered trie saved with a valid hash is
    rejected on load, and ``tag --kb-cache`` on it exits 1 with one JSON line."""

    def test_untampered_cache_tags(self, tiny, tmp_path, capsys):
        cat, vout, trie, tag, kb_digest = tiny
        save_trie_cache(trie, tmp_path / "kb.trie", cat, kb_digest)
        assert main(tag + ["--kb-cache", str(tmp_path / "kb.trie")]) == 0

    def test_tag_with_cache_builds_no_vocabulary(self, tiny, tmp_path, capsys, monkeypatch):
        """With a cache, with or without --kb, ``tag`` makes no pass over the
        names: the output vocabulary is the cache's. It canonicalizes and
        looks no name up either: build-kb checked them."""
        cat, vout, trie, tag, kb_digest = tiny
        save_trie_cache(trie, tmp_path / "kb.trie", cat, kb_digest)

        def fail(*args, **kwargs):
            raise AssertionError("the output vocabulary was rebuilt, or a name canonicalized or looked up")

        monkeypatch.setattr("ettag.cli.build_vocabularies", fail)
        monkeypatch.setattr(EntityCatalog, "_tokenize_words", fail)
        monkeypatch.setattr("ettag.catalog.canonicalize", fail)
        monkeypatch.setattr(EntityCatalog, "ids_of", fail)
        for argv in (tag, _without_kb(tag)):
            assert main(argv + ["--kb-cache", str(tmp_path / "kb.trie")]) == 0

    @pytest.mark.parametrize("tamper, message", TAMPERS)
    def test_tampered_cache_rejected(self, tiny, tmp_path, capsys, tamper, message):
        cat, vout, trie, tag, kb_digest = tiny
        bad = dataclasses.replace(
            trie,
            terminal=trie.terminal.copy(),
            child_start=trie.child_start.copy(),
            child_keys=trie.child_keys.copy(),
            child_vals=trie.child_vals.copy(),
        )
        tamper(bad)
        path = tmp_path / "kb.trie"
        save_trie_cache(bad, path, cat, kb_digest)
        with pytest.raises(CacheMismatch, match=message):
            load_trie_cache(path, kb_digest)
        _assert_tag_rejects(tag, path, capsys)

    @pytest.mark.parametrize(
        "section, message",
        [
            (lambda toks: nul_terminated(toks[4:]), "vocabulary section"),
            (lambda toks: nul_terminated((*toks, toks[4])), "vocabulary section"),
            (lambda toks: nul_terminated(toks[:-1]) + b"\xe2\x96\0", "vocabulary section"),
            (lambda toks: nul_terminated(toks[:-1]), "child keys"),
        ],
        ids=["no-reserved", "repeated", "not-utf8", "shorter-than-keys"],
    )
    def test_bad_vocabulary_rejected(self, tiny, tmp_path, capsys, section, message):
        """A vocabulary section that is not distinct UTF-8 tokens, reserved
        first, covering every child key is rejected under a valid SHA-256."""
        cat, vout, trie, tag, kb_digest = tiny
        path = tmp_path / "kb.trie"
        _write_cache(path, trie, kb_digest, section(vout.tokens), nul_terminated(tuple(cat)))
        with pytest.raises(CacheMismatch, match=message):
            load_trie_cache(path, kb_digest)
        _assert_tag_rejects(tag, path, capsys)

    @pytest.mark.parametrize(
        "names, message",
        [
            (b"a b\0a c\0", "terminal ids"),
            (b"a b\0a c\0d\0\0", "terminal ids"),  # a doubled NUL adds an empty name
            (b"a b\0a c\0d", "bad names section"),
            (b"a b\0a c\0\xe2\x96\0", "bad names section"),
            (b"a b\0a c\0d\0e\0", "terminal ids"),
        ],
        ids=["too-few", "too-many", "no-final-nul", "not-utf8", "more-than-the-trie"],
    )
    def test_bad_names_rejected(self, tiny, tmp_path, capsys, names, message):
        """A names section that is not strict UTF-8 ending in NUL, or that does
        not hold exactly one name per trie terminal, is rejected under a valid
        SHA-256."""
        cat, vout, trie, tag, kb_digest = tiny
        path = tmp_path / "kb.trie"
        _write_cache(path, trie, kb_digest, nul_terminated(vout.tokens), names)
        with pytest.raises(CacheMismatch, match=message):
            load_trie_cache(path, kb_digest)
        _assert_tag_rejects(tag, path, capsys)
        _assert_tag_rejects(_without_kb(tag), path, capsys)

    @pytest.mark.parametrize("other", ["other-bytes", "other-format"])
    def test_other_kb_rejected(self, tiny, tmp_path, capsys, other):
        """``tag --kb`` with a KB file other than the cache's exits 1, as a
        checkpoint for another KB does; the KB file is not parsed. Here the other
        file holds the same names, after a comment or in the other layout, TSV."""
        cat, vout, trie, tag, kb_digest = tiny
        path = tmp_path / "kb.trie"
        save_trie_cache(trie, path, cat, kb_digest)
        kb = tmp_path / "other.txt"
        if other == "other-bytes":
            kb.write_text("# a comment\n" + "".join(n + "\n" for n in TINY_NAMES), encoding="utf-8")
        else:
            kb.write_text("".join(f"{i}\t{n}\n" for i, n in enumerate(TINY_NAMES)), encoding="utf-8")
            assert list(EntityCatalog.load(kb)) == list(cat)
        i = tag.index("--kb") + 1
        argv = [*tag[:i], str(kb), *tag[i + 1:]]
        message = _assert_tag_rejects(argv, path, capsys)
        assert message == f"{path}: trie cache was made for a different KB"
