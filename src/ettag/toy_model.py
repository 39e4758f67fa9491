"""A small trainable autoregressive scorer with hand-written gradients.

Mean-of-embeddings encoder, fixed-window feedforward decoder. It exists to
exercise target construction, permutation-shuffled training, and constrained
decoding end to end at desk scale; anything satisfying the Scorer contract
can replace it. Everything runs in float64 so gradient checks are meaningful.
"""

from __future__ import annotations

import math
import numbers
import struct
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .catalog import BOS, EOS, SEP, EntityCatalog, TokenSeq, Vocabulary, nul_terminated, read_vocabulary, tokenize
from .errors import CorruptCheckpoint, InputError, InvalidConfig, UnknownEntity, require_ints
from .ingest import ETExample
from .sealed import SealedFormat


@dataclass
class ToyModelParams:
    e_in: np.ndarray   # (V_in, d) input embeddings
    e_out: np.ndarray  # (V_out, d) output embeddings, used as decoder context features
    w: np.ndarray      # (d + k*d, V_out) projection
    b: np.ndarray      # (V_out,) bias
    k: int             # decoder context window

    @property
    def d(self) -> int:
        return self.e_in.shape[1]

    @property
    def v_in(self) -> int:
        return self.e_in.shape[0]

    @property
    def v_out(self) -> int:
        return self.e_out.shape[0]

    def zeros_like(self) -> "ToyModelParams":
        return ToyModelParams(
            e_in=np.zeros_like(self.e_in),
            e_out=np.zeros_like(self.e_out),
            w=np.zeros_like(self.w),
            b=np.zeros_like(self.b),
            k=self.k,
        )

    def arrays(self) -> tuple[np.ndarray, ...]:
        return (self.e_in, self.e_out, self.w, self.b)


def init_params(v_in: int, v_out: int, d: int, k: int, seed: int) -> ToyModelParams:
    rng = np.random.default_rng(seed)
    return ToyModelParams(
        e_in=rng.uniform(-0.1, 0.1, size=(v_in, d)),
        e_out=rng.uniform(-0.1, 0.1, size=(v_out, d)),
        w=rng.uniform(-0.1, 0.1, size=(d + k * d, v_out)),
        b=rng.uniform(-0.1, 0.1, size=v_out),
        k=k,
    )


def encode_input(params: ToyModelParams, input_ids: Sequence[int]) -> np.ndarray:
    """Arithmetic mean of input embeddings; empty input encodes to zero."""
    if len(input_ids) == 0:
        return np.zeros(params.d)
    return params.e_in[np.asarray(input_ids)].mean(axis=0)


def _context_windows(target: Sequence[int], k: int) -> np.ndarray:
    """Row j is the k-token window preceding step j, BOS-padded on the left."""
    padded = np.concatenate(
        (np.full(k, BOS, dtype=np.int64), np.asarray(target, dtype=np.int64))
    )
    return np.lib.stride_tricks.sliding_window_view(padded, k)[: len(target)]


def _features(params: ToyModelParams, encoding: np.ndarray, ctx: np.ndarray) -> np.ndarray:
    t = ctx.shape[0]
    return np.concatenate((encoding[None].repeat(t, axis=0), params.e_out[ctx].reshape(t, -1)), axis=1)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    m = logits.max(axis=-1, keepdims=True)
    z = logits - m
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def next_logprobs(params: ToyModelParams, encoding: np.ndarray, prefixes) -> np.ndarray:
    """[B, V_out] normalized log-probabilities of the token after each of the
    B equal-length prefixes (a [B, t] token matrix), in one matmul."""
    prefixes = np.asarray(prefixes, dtype=np.int64)
    (b, t), k = prefixes.shape, params.k
    pad = max(k - t, 0)
    ctx = np.empty((b, k), dtype=np.int64)  # the last k tokens, BOS-padded on the left
    ctx[:, :pad] = BOS
    ctx[:, pad:] = prefixes[:, t - k + pad:]
    return _log_softmax(_features(params, encoding, ctx) @ params.w + params.b)


def build_target(
    gold: Iterable[int],
    order: Sequence[int],
    catalog: EntityCatalog,
    vocab: Vocabulary,
) -> TokenSeq:
    """name tokens, SEP between names, EOS at the end, names ordered by ``order``."""
    gold_set = set(gold)
    if set(order) != gold_set or len(order) != len(gold_set):
        raise ValueError("order must be a permutation of gold")
    for eid in order:
        if not 0 <= eid < len(catalog):
            raise UnknownEntity(f"entity id {eid} outside catalog")
    out: TokenSeq = []
    for i, eid in enumerate(order):
        if i:
            out.append(SEP)
        out.extend(tokenize(catalog.name_of(eid), vocab, mode="output"))
    out.append(EOS)
    return out


def sample_permutation(rng: np.random.Generator, m: int) -> np.ndarray:
    """Uniform permutation of range(m) drawn from the given stream."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return rng.permutation(m)


def _forward(params: ToyModelParams, encoding: np.ndarray, target: Sequence[int]):
    ctx = _context_windows(target, params.k)
    feats = _features(params, encoding, ctx)
    logits = feats @ params.w + params.b
    logp = _log_softmax(logits)
    idx = np.arange(len(target))
    tgt = np.asarray(target, dtype=np.int64)
    loss = -float(logp[idx, tgt].sum())
    return loss, ctx, feats, logp, tgt


def nll_loss(params: ToyModelParams, example: ETExample, target: Sequence[int]) -> float:
    """Teacher-forced negative log-likelihood of the whole target (EOS included)."""
    if example.input is None:
        raise ValueError("example.input is unbound; encode the corpus first")
    loss, *_ = _forward(params, encode_input(params, example.input), target)
    return loss


def backward(
    params: ToyModelParams, example: ETExample, target: Sequence[int]
) -> tuple[float, ToyModelParams]:
    """Loss and its exact analytic gradient with the same shapes as the params."""
    if example.input is None:
        raise ValueError("example.input is unbound; encode the corpus first")
    encoding = encode_input(params, example.input)
    loss, ctx, feats, logp, tgt = _forward(params, encoding, target)
    t = len(tgt)
    dlogits = np.exp(logp)
    dlogits[np.arange(t), tgt] -= 1.0

    grads = params.zeros_like()
    grads.w[:] = feats.T @ dlogits
    grads.b[:] = dlogits.sum(axis=0)
    dfeats = dlogits @ params.w.T
    np.add.at(grads.e_out, ctx, dfeats[:, params.d:].reshape(t, params.k, params.d))
    if len(example.input) > 0:
        d_enc = dfeats[:, : params.d].sum(axis=0) / len(example.input)
        np.add.at(grads.e_in, np.asarray(example.input), d_enc)
    return loss, grads


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    seed: int = 0
    lr: float = 1e-2
    order_strategy: str = "shuffle"  # shuffle | mention_order | lexicographic
    batch_size: int = 1
    optimizer: str = "adam"  # adam(0.9, 0.999, 1e-8) | sgd
    d: int = 32
    k: int = 3

    def __post_init__(self):
        require_ints(self, 1, "epochs", "batch_size", "d", "k")
        require_ints(self, 0, "seed")
        lr = self.lr
        if isinstance(lr, bool) or not isinstance(lr, numbers.Real) or not 0 < lr < math.inf:
            raise InvalidConfig(f"lr must be a finite number > 0, got {lr!r}")
        if self.order_strategy not in ("shuffle", "mention_order", "lexicographic"):
            raise InvalidConfig(f"unknown order_strategy {self.order_strategy!r}")
        if self.optimizer not in ("adam", "sgd"):
            raise InvalidConfig(f"unknown optimizer {self.optimizer!r}")


class _Adam:
    def __init__(self, params: ToyModelParams, lr: float):
        self.lr = lr
        self.t = 0
        self.m = params.zeros_like()
        self.v = params.zeros_like()

    def step(self, params: ToyModelParams, grads: ToyModelParams) -> None:
        b1, b2, eps = 0.9, 0.999, 1e-8
        self.t += 1
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for p, g, m, v in zip(params.arrays(), grads.arrays(), self.m.arrays(), self.v.arrays()):
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + eps)


class _Sgd:
    def __init__(self, params: ToyModelParams, lr: float):
        self.lr = lr

    def step(self, params: ToyModelParams, grads: ToyModelParams) -> None:
        for p, g in zip(params.arrays(), grads.arrays()):
            p -= self.lr * g


def _example_order(
    example: ETExample,
    strategy: str,
    rng: np.random.Generator,
    catalog: EntityCatalog,
) -> list[int]:
    base = sorted(example.gold, key=catalog.name_of)
    if strategy == "lexicographic":
        return base
    if strategy == "mention_order":
        return list(example.require_order())
    perm = sample_permutation(rng, len(base))
    return [base[i] for i in perm]


# an epoch whose mean loss exceeds this multiple of the uniform model's has diverged
_DIVERGED = 10.0


@np.errstate(over="ignore", invalid="ignore")  # divergence is reported once, as an InputError
def train(
    corpus: Sequence[ETExample],
    config: TrainConfig,
    catalog: EntityCatalog,
    vocab_in: Vocabulary,
    vocab_out: Vocabulary,
) -> tuple[ToyModelParams, list[float]]:
    """Optimize the NLL of one freshly-ordered target per example per epoch.

    With the shuffle strategy a new uniform permutation is drawn every epoch;
    mention_order and lexicographic targets are fixed. Returns the trained
    parameters and the per-epoch mean loss curve. Fully deterministic in the
    config seed. Raises InputError when the optimizer diverged: an epoch ends
    with a non-finite parameter, or with a mean loss above ten times that of
    the uniform model (mean target length × ln V_out).
    """
    if not corpus:
        raise ValueError("empty training corpus")
    if config.order_strategy == "mention_order":
        for ex in corpus:
            ex.require_order()
    rng = np.random.default_rng(config.seed)
    params = init_params(len(vocab_in), len(vocab_out), config.d, config.k, seed=config.seed)
    opt = _Adam(params, config.lr) if config.optimizer == "adam" else _Sgd(params, config.lr)

    curve: list[float] = []
    n = len(corpus)
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        epoch_loss = 0.0
        epoch_tokens = 0
        for lo in range(0, n, config.batch_size):
            batch = order[lo: lo + config.batch_size]
            acc = params.zeros_like()
            for idx in batch:
                ex = corpus[int(idx)]
                target = build_target(
                    ex.gold, _example_order(ex, config.order_strategy, rng, catalog), catalog, vocab_out
                )
                loss, grads = backward(params, ex, target)
                epoch_loss += loss
                epoch_tokens += len(target)
                for a, g in zip(acc.arrays(), grads.arrays()):
                    a += g
            scale = 1.0 / len(batch)
            for a in acc.arrays():
                a *= scale
            opt.step(params, acc)
        curve.append(epoch_loss / n)
        uniform = epoch_tokens / n * math.log(len(vocab_out))
        if not (curve[-1] <= _DIVERGED * uniform and all(np.isfinite(a).all() for a in params.arrays())):
            raise InputError(
                f"training diverged: epoch {epoch} ended with mean loss {curve[-1]} "
                f"(a uniform model scores {uniform:.4g}); lower lr"
            )
    return params, curve


class ToyScorer:
    """Adapter exposing the Scorer contract over frozen parameters."""

    def __init__(self, params: ToyModelParams):
        self.params = params

    def encode(self, input_ids: Sequence[int]) -> np.ndarray:
        return encode_input(self.params, input_ids)

    def next_logprobs(self, encoding: np.ndarray, prefix: Sequence[int]) -> np.ndarray:
        return next_logprobs(self.params, encoding, [prefix])[0]

    def next_logprobs_batch(self, encoding: np.ndarray, prefixes: np.ndarray) -> np.ndarray:
        return next_logprobs(self.params, encoding, prefixes)


def _shapes(d: int, k: int, v_in: int, v_out: int) -> list[tuple[int, ...]]:
    return [(v_in, d), (v_out, d), (d + k * d, v_out), (v_out,)]


def _checkpoint_body_size(d: int, k: int, v_in: int, v_out: int, vocab_bytes: int) -> int:
    ok = min(d, k, v_in, v_out, vocab_bytes) >= 1
    return vocab_bytes + 8 * sum(map(math.prod, _shapes(d, k, v_in, v_out))) if ok else -1


_CHECKPOINT = SealedFormat(
    b"ETMDL3\0\0", "model checkpoint", CorruptCheckpoint, struct.Struct("<iiiii"), _checkpoint_body_size
)


def save_checkpoint(params: ToyModelParams, path, vocab_in: Vocabulary, vocab_out: Vocabulary) -> None:
    """Write the ``ETMDL3`` checkpoint, keyed by ``vocab_out``: dims (d, k, V_in, V_out, vocabulary
    bytes), ``vocab_in`` as NUL-terminated UTF-8, then E_in, E_out, W, b as little-endian float64."""
    vocab = nul_terminated(vocab_in.tokens)
    dims = (params.d, params.k, params.v_in, params.v_out, len(vocab))
    arrays = [np.ascontiguousarray(a, dtype="<f8").tobytes() for a in params.arrays()]
    _CHECKPOINT.write(path, vocab_out.content_hash(), dims, [vocab, *arrays])


def load_checkpoint(path, vocab_out: Vocabulary) -> tuple[ToyModelParams, Vocabulary]:
    """The parameters and input vocabulary of a checkpoint trained on
    ``vocab_out``. Raises CorruptCheckpoint unless the file is intact, its
    vocabulary section spells V_in distinct tokens (reserved first) and every
    weight is finite; a checkpoint for another output vocabulary is rejected
    too."""
    (d, k, v_in, v_out, n_vocab), body = _CHECKPOINT.read(path, vocab_out.content_hash())
    vocab_in = read_vocabulary(bytes(body[:n_vocab]))
    if vocab_in is None or len(vocab_in) != v_in:
        raise CorruptCheckpoint(f"{path}: bad vocabulary section")
    if v_out != len(vocab_out):
        raise CorruptCheckpoint(f"{path}: V_out {v_out} does not match the output vocabulary")
    flat = np.frombuffer(body, dtype="<f8", offset=n_vocab).astype(np.float64)
    if not np.isfinite(flat).all():
        raise CorruptCheckpoint(f"{path}: non-finite weights")
    shapes = _shapes(d, k, v_in, v_out)
    arrays = np.split(flat, np.cumsum([math.prod(shape) for shape in shapes])[:-1])
    return ToyModelParams(*(a.reshape(shape) for a, shape in zip(arrays, shapes)), k=k), vocab_in
