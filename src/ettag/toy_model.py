"""A small trainable autoregressive scorer with hand-written gradients.

Mean-of-embeddings encoder, fixed-window feedforward decoder. It exists to
exercise target construction, permutation-shuffled training, and constrained
decoding end to end at desk scale; anything satisfying the Scorer contract
can replace it. Everything runs in float64 so gradient checks are meaningful.
"""

from __future__ import annotations

import itertools
import math
import numbers
import struct
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .catalog import BOS, EOS, SEP, EntityCatalog, TokenSeq, Vocabulary, nul_terminated, read_vocabulary, tokenize
from .errors import CorruptCheckpoint, InputError, InvalidConfig, UnknownEntity, require_ints
from .ingest import ETExample
from .sealed import SealedFormat


def _shapes(d: int, k: int, v_in: int, v_out: int) -> list[tuple[int, ...]]:
    return [(v_in, d), (v_out, d), (d + k * d, v_out), (v_out,)]


@dataclass(eq=False)
class ToyModelParams:
    """Every weight in one float64 buffer, in checkpoint order; the four
    arrays are views into it, so an optimizer step is one pass over ``flat``."""

    flat: np.ndarray
    d: int
    k: int  # decoder context window
    v_in: int
    v_out: int
    e_in: np.ndarray = field(init=False, repr=False)   # (V_in, d) input embeddings
    e_out: np.ndarray = field(init=False, repr=False)  # (V_out, d) output embeddings, the decoder context features
    w: np.ndarray = field(init=False, repr=False)      # (d + k*d, V_out) projection
    b: np.ndarray = field(init=False, repr=False)      # (V_out,) bias

    def __post_init__(self):
        shapes = _shapes(self.d, self.k, self.v_in, self.v_out)
        parts = np.split(self.flat, np.cumsum([math.prod(shape) for shape in shapes])[:-1])
        self.e_in, self.e_out, self.w, self.b = (a.reshape(shape) for a, shape in zip(parts, shapes))

    def zeros_like(self) -> "ToyModelParams":
        return replace(self, flat=np.zeros_like(self.flat))

    def arrays(self) -> tuple[np.ndarray, ...]:
        return (self.e_in, self.e_out, self.w, self.b)


def init_params(v_in: int, v_out: int, d: int, k: int, seed: int) -> ToyModelParams:
    """Weights drawn uniformly from [-0.1, 0.1). Raises InvalidConfig, before
    allocating, if their bytes are more than numpy can size."""
    size = sum(map(math.prod, _shapes(d, k, v_in, v_out)))
    if size > np.iinfo(np.intp).max // np.dtype(np.float64).itemsize:
        raise InvalidConfig(f"d={d} and k={k} make {size} float64 weights, more bytes than numpy can size")
    return ToyModelParams(np.random.default_rng(seed).uniform(-0.1, 0.1, size=size), d, k, v_in, v_out)


def encode_input(params: ToyModelParams, input_ids: Sequence[int]) -> np.ndarray:
    """Arithmetic mean of input embeddings; empty input encodes to zero."""
    if len(input_ids) == 0:
        return np.zeros(params.d)
    return params.e_in[np.asarray(input_ids)].mean(axis=0)


def _features(params: ToyModelParams, encodings: np.ndarray, ctx: np.ndarray) -> np.ndarray:
    """One row per step: its input encoding, then the embeddings of its k context tokens."""
    return np.concatenate((encodings, params.e_out[ctx].reshape(len(ctx), -1)), axis=1)


def next_logprobs(params: ToyModelParams, encoding: np.ndarray, prefixes) -> np.ndarray:
    """[B, V_out] unnormalized log-probabilities (logits) of the token after
    each of the B prefixes (a [B, t] token matrix, a shorter prefix BOS-padded
    on the left, as the context window is), in one matmul.
    ``encoding`` is one [d] encoding for every row, or a [B, d] one per row."""
    prefixes = np.asarray(prefixes, dtype=np.int64)
    (b, t), k = prefixes.shape, params.k
    pad = max(k - t, 0)
    ctx = np.empty((b, k), dtype=np.int64)  # the last k tokens, BOS-padded on the left
    ctx[:, :pad] = BOS
    ctx[:, pad:] = prefixes[:, t - k + pad:]
    return _features(params, np.broadcast_to(encoding, (b, params.d)), ctx) @ params.w + params.b


def build_target(
    gold: Iterable[int],
    order: Sequence[int],
    catalog: EntityCatalog,
) -> TokenSeq:
    """name tokens, SEP between names, EOS at the end, names ordered by ``order``."""
    return _join(_name_tokens(gold, order, catalog))


def _name_tokens(gold: Iterable[int], order: Sequence[int], catalog: EntityCatalog) -> list[TokenSeq]:
    """The tokens of each name in ``order``, a permutation of ``gold``, in the
    catalog's output vocabulary: training never builds the name table."""
    gold_set = set(gold)
    if set(order) != gold_set or len(order) != len(gold_set):
        raise ValueError("order must be a permutation of gold")
    for eid in order:
        if not 0 <= eid < len(catalog):
            raise UnknownEntity(f"entity id {eid} outside catalog")
    vocab = catalog.output_vocab()
    return [tokenize(catalog.name_of(eid), vocab, mode="output") for eid in order]


def _join(names: Iterable[TokenSeq]) -> TokenSeq:
    """The target spelling of tokenized names: SEP between them, EOS at the end."""
    out: TokenSeq = []
    for tokens in names:
        out += [SEP, *tokens]
    return out[1:] + [EOS]


def sample_permutation(rng: np.random.Generator, m: int) -> np.ndarray:
    """Uniform permutation of range(m) drawn from the given stream (empty, drawing nothing, at m = 0)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return rng.permutation(m)


def _scatter_rows(out: np.ndarray, index: np.ndarray, rows: np.ndarray) -> None:
    """out[i] = the sum of the rows whose index is i, added in row order as
    ``np.add.at`` adds them: one ``bincount`` per group of columns, each group
    narrow enough that its temporaries stay small (a large one is page-faulted in)."""
    n, d = out.shape
    index = index.reshape(-1, 1)
    width = max(1, 4096 // max(len(index), 1))
    for lo in range(0, d, width):
        cols = np.arange(min(width, d - lo))
        sums = np.bincount((index * len(cols) + cols).ravel(), rows[..., lo: lo + len(cols)].ravel(),
                           minlength=n * len(cols))
        out[:, lo: lo + len(cols)] = sums.reshape(n, len(cols))


def batch_backward(
    params: ToyModelParams,
    examples: Sequence[ETExample],
    targets: Sequence[Sequence[int]],
    grads: ToyModelParams | None = None,
) -> tuple[float, ToyModelParams]:
    """Summed teacher-forced NLL of each example's target (EOS included) and
    its exact analytic gradient, in one forward/backward over all ΣT steps.
    The gradient is written over every element of ``grads`` when given (its
    previous contents are never read), else into a new buffer."""
    if any(ex.input is None for ex in examples):
        raise ValueError("example.input is unbound; encode the corpus first")
    d, k = params.d, params.k
    lens = np.array([len(t) for t in targets], dtype=np.int64)
    ends = np.cumsum(lens)
    tgt = np.fromiter(itertools.chain.from_iterable(targets), dtype=np.int64)
    steps = np.arange(len(tgt))
    # the k tokens before each step inside its own target, BOS-padded on the left
    window = steps[:, None] + np.arange(-k, 0)
    ctx = np.where(window >= np.repeat(ends - lens, lens)[:, None], tgt[np.maximum(window, 0)], BOS)
    encodings = np.array([encode_input(params, ex.input) for ex in examples])
    feats = _features(params, np.repeat(encodings, lens, axis=0), ctx)
    # two [ΣT, V_out] arrays: logits -> z -> log-probabilities in one, exp(z) then dlogits in the other
    logp = feats @ params.w
    logp += params.b
    logp -= logp.max(axis=-1, keepdims=True)
    dlogits = np.exp(logp)
    logp -= np.log(dlogits.sum(axis=-1, keepdims=True))
    loss = -float(logp[steps, tgt].sum())
    np.exp(logp, out=dlogits)
    dlogits[steps, tgt] -= 1.0
    dfeats = dlogits @ params.w.T

    if grads is None:
        grads = replace(params, flat=np.empty_like(params.flat))  # every part is written below
    np.matmul(feats.T, dlogits, out=grads.w)
    dlogits.sum(axis=0, out=grads.b)
    _scatter_rows(grads.e_out, ctx, dfeats[:, d:].reshape(len(ctx), k, d))
    in_ids: list[int] = []
    d_enc: list[np.ndarray] = []
    for ex, n, end in zip(examples, lens, ends):
        if len(ex.input):  # its own row sum: a reduceat over the batch's rows moves a batch of one's bits
            in_ids.extend(ex.input)
            d_enc.extend([dfeats[end - n: end, :d].sum(axis=0) / len(ex.input)] * len(ex.input))
    _scatter_rows(grads.e_in, np.array(in_ids, dtype=np.int64), np.array(d_enc).reshape(-1, d))
    return loss, grads


def backward(
    params: ToyModelParams, example: ETExample, target: Sequence[int]
) -> tuple[float, ToyModelParams]:
    """Loss and its exact analytic gradient with the same shapes as the params."""
    return batch_backward(params, [example], [target])


def nll_loss(params: ToyModelParams, example: ETExample, target: Sequence[int]) -> float:
    """Teacher-forced negative log-likelihood of the whole target (EOS included)."""
    return backward(params, example, target)[0]


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    seed: int = 0
    lr: float = 1e-2
    order_strategy: str = "shuffle"  # one of ORDER_STRATEGIES
    batch_size: int = 1
    d: int = 32
    k: int = 3

    def __post_init__(self):
        require_ints(self, 1, "epochs", "batch_size", "d", "k")
        require_ints(self, 0, "seed")
        lr = self.lr
        if isinstance(lr, bool) or not isinstance(lr, numbers.Real) or not 0 < lr < math.inf:
            raise InvalidConfig(f"lr must be a finite number > 0, got {lr!r}")
        if self.order_strategy not in ORDER_STRATEGIES:
            raise InvalidConfig(f"unknown order_strategy {self.order_strategy!r}")


# Adam updates this many weights at a time, so that a block's moments, gradient,
# weights and two scratch buffers (1.7 MB) stay in a 2 MB L2 through its passes.
# Every op is elementwise, so the blocks change no bit; a buffer of at most this
# many weights is one block. At kb-470k's 333,544 weights, blocks of 33K-49K took
# 2.1-2.3 ms a step against 3.0-3.3 ms for the whole buffer (Xeon, numpy 2.4).
_ADAM_BLOCK = 36_864


class _Adam:
    """Adam(0.9, 0.999, 1e-8) in place on the flat buffer, one block of
    ``_ADAM_BLOCK`` weights at a time through two block-sized scratch buffers."""

    def __init__(self, flat: np.ndarray, lr: float):
        self.lr = lr
        self.t = 0
        self.m, self.v = np.zeros_like(flat), np.zeros_like(flat)
        self._s, self._r = (np.empty(min(len(flat), _ADAM_BLOCK)) for _ in range(2))

    def step(self, p: np.ndarray, g: np.ndarray, scale: float) -> None:
        """One update of ``p`` from the gradient ``g``, which is first
        multiplied in place by ``scale`` (the batch mean) unless that is 1.0."""
        b1, b2, eps = 0.9, 0.999, 1e-8
        self.t += 1
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for lo in range(0, len(p), _ADAM_BLOCK):
            hi = lo + _ADAM_BLOCK
            p_, g_, m, v = p[lo:hi], g[lo:hi], self.m[lo:hi], self.v[lo:hi]
            s, r = self._s[:len(p_)], self._r[:len(p_)]
            if scale != 1.0:
                g_ *= scale
            m *= b1
            m += np.multiply(1 - b1, g_, out=s)
            v *= b2
            v += np.multiply(np.multiply(1 - b2, g_, out=s), g_, out=s)
            # p -= lr * (m / c1) / (sqrt(v / c2) + eps), associated as written
            np.sqrt(np.divide(v, c2, out=s), out=s)
            s += eps
            np.multiply(self.lr, np.divide(m, c1, out=r), out=r)
            r /= s
            p_ -= r


ORDER_STRATEGIES = ("shuffle", "mention_order", "lexicographic")
# an epoch whose mean loss exceeds this multiple of the uniform model's has diverged
_DIVERGED = 10.0


@np.errstate(over="ignore", invalid="ignore")  # divergence is reported once, as an InputError
def train(
    corpus: Sequence[ETExample],
    config: TrainConfig,
    catalog: EntityCatalog,
    vocab_in: Vocabulary,
) -> tuple[ToyModelParams, list[float]]:
    """Optimize with Adam the NLL of one freshly-ordered target per example
    per epoch, over the catalog's output vocabulary.

    Each example's gold names are ordered and tokenized before the first
    epoch, in mention order or else in name order, and never read again. With
    the shuffle strategy a step draws a new uniform permutation of them;
    mention_order and lexicographic targets are fixed. Returns the trained
    parameters and the per-epoch mean loss curve. Fully deterministic in the
    config seed. Raises InputError on an empty corpus, and when the optimizer
    diverged: an epoch ends with a non-finite parameter, or with a mean loss
    above ten times that of the uniform model (mean target length × ln V_out).
    """
    if not corpus:
        raise InputError("empty training corpus")
    if config.order_strategy == "mention_order":
        orders = [ex.require_order() for ex in corpus]
    else:
        orders = [sorted(ex.gold, key=catalog.name_of) for ex in corpus]
    names = [_name_tokens(ex.gold, ids, catalog) for ex, ids in zip(corpus, orders)]
    fixed = [_join(tokens) for tokens in names]  # a target's length does not depend on its order
    shuffle = config.order_strategy == "shuffle"
    rng = np.random.default_rng(config.seed)
    vocab_out = catalog.output_vocab()
    params = init_params(len(vocab_in), len(vocab_out), config.d, config.k, seed=config.seed)
    opt = _Adam(params.flat, config.lr)
    # the first step allocates the gradient buffer and each later one rewrites it
    # whole; allocated up front, before any step's temporaries, it doubled the page
    # faults of a kb-470k-shaped batch-16 training (8,200 against 4,100) and was no faster
    grads = None

    curve: list[float] = []
    n = len(corpus)
    uniform = sum(map(len, fixed)) / n * math.log(len(vocab_out))
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for lo in range(0, n, config.batch_size):
            idx = order[lo: lo + config.batch_size].tolist()
            targets = [_join([names[i][j] for j in sample_permutation(rng, len(names[i]))]) if shuffle else fixed[i]
                       for i in idx]
            loss, grads = batch_backward(params, [corpus[i] for i in idx], targets, grads)
            epoch_loss += loss
            opt.step(params.flat, grads.flat, 1.0 / len(idx))  # the update follows the batch's mean gradient
        curve.append(epoch_loss / n)
        if not (curve[-1] <= _DIVERGED * uniform and np.isfinite(params.flat).all()):
            raise InputError(
                f"training diverged: epoch {epoch} ended with mean loss {curve[-1]} "
                f"(a uniform model scores {uniform:.4g}); lower lr"
            )
    return params, curve


class ToyScorer:
    """Adapter exposing the Scorer contract over frozen parameters.

    A row's logits do not depend on the rows scored beside it. The projection
    and bias are padded once with zero columns to a multiple of 8, and a lone
    row is scored as two identical rows, so every call is a matrix-matrix
    product whose rows round alike whatever their number (seen on numpy 2.4.6
    with OpenBLAS 0.3.31, one and two threads; see the tests)."""

    def __init__(self, params: ToyModelParams):
        self.params = self._padded = params
        if pad := -params.v_out % 8:
            v_out = params.v_out + pad
            size = sum(map(math.prod, _shapes(params.d, params.k, params.v_in, v_out)))
            self._padded = ToyModelParams(np.zeros(size), params.d, params.k, params.v_in, v_out)
            for padded, a in zip(self._padded.arrays(), params.arrays()):
                padded[tuple(map(slice, a.shape))] = a  # E_out gains zero rows too, which no token reads

    def encode(self, input_ids: Sequence[int]) -> np.ndarray:
        return encode_input(self.params, input_ids)

    def next_logprobs(self, encoding: np.ndarray, prefix: Sequence[int]) -> np.ndarray:
        return self.next_logprobs_batch([encoding], np.array([prefix], dtype=np.int64))[0]

    def next_logprobs_batch(self, encodings: Sequence[np.ndarray], prefixes: np.ndarray) -> np.ndarray:
        # the context window is BOS-padded on the left too, so the padded rows need no trimming
        b, encodings = len(prefixes), np.array(encodings)
        if b == 1:
            encodings, prefixes = np.repeat(encodings, 2, axis=0), np.repeat(prefixes, 2, axis=0)
        return next_logprobs(self._padded, encodings, prefixes)[:b, :self.params.v_out]


_CHECKPOINT = SealedFormat(
    b"ETMDL3\0\0", "model checkpoint", CorruptCheckpoint, struct.Struct("<iiiii"),
    lambda d, k, v_in, v_out, vocab_bytes: ((vocab_bytes, 8 * sum(map(math.prod, _shapes(d, k, v_in, v_out))))
                                           if min(d, k, v_in, v_out, vocab_bytes) >= 1 else None),
)


def save_checkpoint(params: ToyModelParams, path, vocab_in: Vocabulary, vocab_out: Vocabulary) -> None:
    """Write the ``ETMDL3`` checkpoint, keyed by ``vocab_out``: dims (d, k, V_in, V_out, vocabulary
    bytes), ``vocab_in`` as NUL-terminated UTF-8, then E_in, E_out, W, b as little-endian float64."""
    vocab = nul_terminated(vocab_in.tokens)
    dims = (params.d, params.k, params.v_in, params.v_out, len(vocab))
    weights = np.ascontiguousarray(params.flat, dtype="<f8").tobytes()
    _CHECKPOINT.write(path, vocab_out.content_hash(), dims, [vocab, weights])


def load_checkpoint(path, vocab_out: Vocabulary) -> tuple[ToyModelParams, Vocabulary]:
    """The parameters and input vocabulary of a checkpoint trained on
    ``vocab_out``. Raises CorruptCheckpoint unless the file is intact, its
    vocabulary section spells V_in distinct tokens (reserved first) and every
    weight is finite; a checkpoint for another output vocabulary is rejected
    too."""
    (d, k, v_in, v_out, _), (vocab, weights) = _CHECKPOINT.read(path, vocab_out.content_hash())
    vocab_in = read_vocabulary(bytes(vocab))
    if vocab_in is None or len(vocab_in) != v_in:
        raise CorruptCheckpoint(f"{path}: bad vocabulary section")
    if v_out != len(vocab_out):
        raise CorruptCheckpoint(f"{path}: V_out {v_out} does not match the output vocabulary")
    flat = np.frombuffer(weights, dtype="<f8").astype(np.float64)
    if not np.isfinite(flat).all():
        raise CorruptCheckpoint(f"{path}: non-finite weights")
    return ToyModelParams(flat, d, k, v_in, v_out), vocab_in
