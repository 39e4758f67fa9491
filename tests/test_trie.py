import dataclasses
import json

import numpy as np
import pytest

from ettag.catalog import EOS, SEP, EntityCatalog, Vocabulary, build_vocabularies, tokenize
from ettag.cli import main
from ettag.decoding import DecodeConfig
from ettag.errors import CacheMismatch, CorruptCheckpoint, DisallowedToken, EmptyCatalog, OutputOOV
from ettag.toy_model import init_params, load_checkpoint, save_checkpoint
from ettag.trie import (
    FINISHED,
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
    enumerate_trie_language,
    name_token_seqs,
    random_catalog,
)


def walk(trie, tokens, cursor=None):
    cur = cursor or trie.start_cursor()
    for t in tokens:
        cur = advance(trie, cur, t)
    return cur


class TestBuild:
    def test_prefix_overlap_terminal_with_children(self):
        cat, vout, trie = catalog_stack(EntityCatalog(["Paris", "Paris Métro"]))
        paris = tokenize("Paris", vout, mode="output")
        cur = walk(trie, paris)
        assert trie.terminal_entity(cur) == cat.id_of("Paris")
        metro = tokenize("Paris Métro", vout, mode="output")[-1]
        child = advance(trie, cur, metro)
        assert trie.terminal_entity(child) == cat.id_of("Paris Métro")

    def test_empty_catalog(self):
        cat = EntityCatalog(["Earth"])
        _, vout = build_vocabularies(cat, [])
        with pytest.raises(EmptyCatalog):
            build_trie(EntityCatalog([]), vout)

    def test_vocab_gap_is_contract_violation(self):
        cat_small = EntityCatalog(["Earth"])
        _, vout_small = build_vocabularies(cat_small, [])
        with pytest.raises(OutputOOV):
            build_trie(EntityCatalog(["Earth", "Mars"]), vout_small)

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
        # reference: ranks, depth and entity intervals read off the sorted token sequences
        rng = np.random.default_rng(11)
        cat, vout, trie = catalog_stack(random_catalog(rng, 60))
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
        assert trie.ent_lo.tolist() == [min(under[v]) for v in range(trie.node_count)]
        assert trie.ent_hi.tolist() == [max(under[v]) + 1 for v in range(trie.node_count)]
        assert np.array_equal(trie.child_lo, trie.ent_lo[trie.child_vals])
        assert np.array_equal(trie.child_hi, trie.ent_hi[trie.child_vals])

    def test_deterministic_build(self):
        rng = np.random.default_rng(9)
        cat = random_catalog(rng, 60)
        cat, vout, t1 = catalog_stack(cat)
        t2 = build_trie(cat, vout)
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
        allowed = allowed_tokens(trie, trie.start_cursor(), frozenset(), DecodeConfig(), 0)
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
        earth = cat.id_of("Earth")
        cur = walk(trie, tokenize("Earth", vout, mode="output"))
        config = DecodeConfig()
        allowed = allowed_tokens(trie, cur, frozenset({earth}), config, 1)
        assert allowed.tolist() == []
        at_root = allowed_tokens(trie, trie.start_cursor(), frozenset({earth}), config, 1)
        parsec_first = tokenize("Parsec", vout, mode="output")[0]
        assert at_root.tolist() == [parsec_first]

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
        at_start = allowed_tokens(trie, trie.start_cursor(), frozenset(), config, 0)
        assert EOS in at_start.tolist()
        # after one entity + SEP the boundary must demand another name
        earth = cat.id_of("Earth")
        post_sep = allowed_tokens(trie, trie.start_cursor(), frozenset({earth}), config, 1)
        assert EOS not in post_sep.tolist()

    def test_finished_cursor_has_no_tokens(self):
        cat, vout, trie = catalog_stack(EntityCatalog(["Earth"]))
        assert allowed_tokens(trie, TrieCursor(FINISHED), frozenset(), DecodeConfig(), 0).size == 0

    def test_no_repeat_off_allows_repeat(self):
        cat, vout, trie = catalog_stack(EntityCatalog(["Earth"]))
        earth = cat.id_of("Earth")
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
        assert advance(trie, cur, SEP).at_boundary

    def test_eos_finishes(self):
        cat, vout, trie = catalog_stack(EntityCatalog(["Earth"]))
        cur = walk(trie, tokenize("Earth", vout, mode="output"))
        assert advance(trie, cur, EOS).finished

    def test_disallowed(self):
        cat, vout, trie = catalog_stack(EntityCatalog(["Black hole", "Earth"]))
        hole = tokenize("Black hole", vout, mode="output")[1]
        with pytest.raises(DisallowedToken):
            advance(trie, trie.start_cursor(), hole)
        with pytest.raises(DisallowedToken):
            advance(trie, trie.start_cursor(), SEP)
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
        stack = [(trie.start_cursor(), frozenset(), 0)]
        while stack:
            cursor, emitted, n_names = stack.pop()
            key = (cursor.node, emitted, n_names)
            if key in seen:
                continue
            seen.add(key)
            allowed = allowed_tokens(trie, cursor, emitted, config, n_names)
            if cursor.finished:
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


class TestCache:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(23)
        cat = random_catalog(rng, 50)
        cat, vout, trie = catalog_stack(cat)
        path = tmp_path / "kb.trie"
        save_trie_cache(trie, path, cat, vout)
        loaded = load_trie_cache(path, cat, vout)
        assert trie_stats(loaded) == trie_stats(trie)
        assert np.array_equal(loaded.terminal, trie.terminal)
        assert np.array_equal(loaded.child_keys, trie.child_keys)
        assert np.array_equal(loaded.child_vals, trie.child_vals)
        assert np.array_equal(loaded.ent_lo, trie.ent_lo)
        assert np.array_equal(loaded.ent_hi, trie.ent_hi)
        assert np.array_equal(loaded.child_lo, trie.child_lo)
        assert np.array_equal(loaded.child_hi, trie.child_hi)
        assert loaded.max_depth == trie.max_depth
        assert np.array_equal(loaded.entity_rank, trie.entity_rank)
        config = DecodeConfig(max_entities=3)
        assert enumerate_trie_language(loaded, config) == enumerate_trie_language(trie, config)

    def test_hash_mismatch(self, tmp_path):
        cat, vout, trie = catalog_stack(EntityCatalog(["Earth", "Mars"]))
        path = tmp_path / "kb.trie"
        save_trie_cache(trie, path, cat, vout)
        other = EntityCatalog(["Earth", "Venus"])
        _, vout2 = build_vocabularies(other, [])
        with pytest.raises(CacheMismatch):
            load_trie_cache(path, other, vout2)

    def test_not_a_cache(self, tmp_path):
        cat, vout, _ = catalog_stack(EntityCatalog(["Earth"]))
        path = tmp_path / "junk"
        path.write_bytes(b"hello world")
        with pytest.raises(CacheMismatch, match="not a trie cache"):
            load_trie_cache(path, cat, vout)

    def test_every_byte_is_checked(self, tmp_path):
        """Every single-byte flip, truncation and padding of a trie cache or
        of a (tiny) model checkpoint is rejected."""
        cat, vout, trie = catalog_stack(EntityCatalog(["Earth", "Mars", "Mars rover"]))
        vin = Vocabulary(["▁red"])
        params = init_params(len(vin), len(vout), d=1, k=1, seed=0)
        artifacts = [
            (lambda p: save_trie_cache(trie, p, cat, vout), lambda p: load_trie_cache(p, cat, vout), CacheMismatch),
            (lambda p: save_checkpoint(params, p, vin, vout), lambda p: load_checkpoint(p, vout), CorruptCheckpoint),
        ]
        path = tmp_path / "artifact"
        for save, load, error in artifacts:
            save(path)
            good = path.read_bytes()
            load(path)
            damaged = [good[:i] + bytes([good[i] ^ 0x10]) + good[i + 1:] for i in range(len(good))]
            damaged += [good[:cut] for cut in (0, 40, len(good) - 1)] + [good + b"\0\0\0\0"]
            for bad in damaged:
                path.write_bytes(bad)
                with pytest.raises(error):
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
    """The tiny catalog, its trie, and a model trained on it for ``tag``."""
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
    return cat, vout, trie, tag


class TestCacheStructure:
    """Each structural check: a tampered trie saved with a valid hash is
    rejected on load, and ``tag --kb-cache`` on it exits 1 with one JSON line."""

    def test_untampered_cache_tags(self, tiny, tmp_path, capsys):
        cat, vout, trie, tag = tiny
        save_trie_cache(trie, tmp_path / "kb.trie", cat, vout)
        assert main(tag + ["--kb-cache", str(tmp_path / "kb.trie")]) == 0

    @pytest.mark.parametrize("tamper, message", TAMPERS)
    def test_tampered_cache_rejected(self, tiny, tmp_path, capsys, tamper, message):
        cat, vout, trie, tag = tiny
        bad = dataclasses.replace(
            trie,
            terminal=trie.terminal.copy(),
            child_start=trie.child_start.copy(),
            child_keys=trie.child_keys.copy(),
            child_vals=trie.child_vals.copy(),
        )
        tamper(bad)
        path = tmp_path / "kb.trie"
        save_trie_cache(bad, path, cat, vout)
        with pytest.raises(CacheMismatch, match=message):
            load_trie_cache(path, cat, vout)
        capsys.readouterr()
        assert main(tag + ["--kb-cache", str(path)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "CacheMismatch"
