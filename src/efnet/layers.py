"""Model building blocks: scaled attention, multi-head wrappers, GRU cells,
the capsule projection, and the relative-position embedding table.

Parameter containers are plain dataclasses holding trainable Tensors; each
has a seeded ``create`` factory. Functions take inputs first and parameters
after, and everything runs on the autodiff primitives from ``tensor``.
``ParamBuffer`` packs trainable tensors into one flat array; the multi-head
projections always live in one, as [H, d, d_head] blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tx
from .tensor import DEFAULT_DTYPE, ShapeError, Tensor

REGION_COUNT = 49


class ConfigError(ValueError):
    """A configuration value is inconsistent (head counts, widths, ...)."""


class InternalError(RuntimeError):
    """An internal invariant was violated; indicates a defect, not bad input."""


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int, dtype=DEFAULT_DTYPE) -> Tensor:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    w = rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype)
    return Tensor(w, requires_grad=True)


def zeros_param(shape, dtype=DEFAULT_DTYPE) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)


@dataclass(eq=False, repr=False)
class ParamBuffer:
    """Trainable tensors packed into one flat array.

    ``pack`` takes groups of (name, tensor) pairs: the tensors of a group
    share a shape, and all tensors share a dtype. Group j becomes
    ``blocks[j]``, a [len(group), *shape] slice of ``flat``, and each
    tensor's ``data`` becomes its row of that block, a C-contiguous view,
    so ``data.reshape(-1)`` is a view too and writes through to ``flat``.

    Code outside the buffer may still rebind a tensor's ``data``. ``sync``
    finds such a tensor by identity, copies its values into its row and
    points ``data`` back there, so ``flat`` and ``blocks`` are current only
    after a ``sync``. Rebinding to another shape or dtype is an
    ``InternalError``.
    """

    flat: np.ndarray
    blocks: list
    names: list
    tensors: list
    views: list

    @classmethod
    def pack(cls, groups) -> "ParamBuffer":
        names = [name for group in groups for name, _ in group]
        tensors = [t for group in groups for _, t in group]
        flat = np.empty(sum(t.data.size for t in tensors), dtype=tensors[0].data.dtype)
        blocks = []
        lo = 0
        for group in groups:
            shape = (len(group),) + group[0][1].data.shape
            blocks.append(flat[lo:lo + math.prod(shape)].reshape(shape))
            lo += blocks[-1].size
        buffer = cls(flat, blocks, names, tensors, [row for b in blocks for row in b])
        buffer.sync()
        return buffer

    @classmethod
    def of(cls, params) -> "ParamBuffer":
        """The synced buffer of a parameter set: its ``buffer``, or for a
        set without one, such as a test double of plain tensors, one packed
        from ``named_parameters()`` (one tensor per block) on first use."""
        buffer = getattr(params, "buffer", None)
        if buffer is None:
            buffer = params.buffer = cls.pack([[item] for item in params.named_parameters()])
        buffer.sync()
        return buffer

    def part(self, start: int, stop: int) -> "ParamBuffer":
        """Blocks ``start`` to ``stop - 1`` as a buffer of their own that
        shares this one's memory and views."""
        rows = [len(b) for b in self.blocks]
        first, last = sum(rows[:start]), sum(rows[:stop])
        lo = sum(b.size for b in self.blocks[:start])
        hi = lo + sum(b.size for b in self.blocks[start:stop])
        return ParamBuffer(self.flat[lo:hi], self.blocks[start:stop], self.names[first:last],
                           self.tensors[first:last], self.views[first:last])

    def sync(self) -> None:
        for name, t, view in zip(self.names, self.tensors, self.views):
            if t.data is not view:
                if t.data.shape != view.shape or t.data.dtype != view.dtype:
                    raise InternalError(
                        f"parameter {name} is {t.data.dtype} of shape {t.data.shape}; "
                        f"its slot in the buffer is {view.dtype} of shape {view.shape}"
                    )
                view[...] = t.data
                t.data = view


@dataclass
class MHAParams:
    """Per-head projection triples; output width is head_count * d_head.

    Construction packs the heads of each role into one [H, d, d_head]
    block: each head's ``data`` becomes a row of its role's block, and the
    attention op reads the blocks (``packed``)."""

    wq: list
    wk: list
    wv: list
    buffer: ParamBuffer = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (len(self.wq) == len(self.wk) == len(self.wv)) or not self.wq:
            raise ConfigError("need one (wq, wk, wv) triple per head")
        d_head = self.wq[0].shape[1]
        for w in (*self.wq, *self.wk, *self.wv):
            if w.data.ndim != 2 or w.shape[1] != d_head:
                raise ConfigError("all heads must share one d_head")
        for role in (self.wq, self.wk, self.wv):
            if any(w.shape != role[0].shape for w in role):
                raise ConfigError("the heads of one projection must share one input width")
        self.buffer = ParamBuffer.pack([
            [(f"{name}[{h}]", w) for h, w in enumerate(role)]
            for name, role in (("wq", self.wq), ("wk", self.wk), ("wv", self.wv))
        ])

    def packed(self) -> ParamBuffer:
        """The synced buffer whose blocks are wq, wk and wv, in that order."""
        self.buffer.sync()
        return self.buffer

    @property
    def head_count(self) -> int:
        return len(self.wq)

    @property
    def d_head(self) -> int:
        return self.wq[0].shape[1]

    @classmethod
    def create(cls, rng, head_count: int, d_q: int, d_kv: int, d_model: int, dtype=DEFAULT_DTYPE):
        if head_count < 1:
            raise ConfigError(f"head count must be >= 1, got {head_count}")
        if d_model % head_count != 0:
            raise ConfigError(
                f"model width {d_model} is not divisible by head count {head_count}"
            )
        d_head = d_model // head_count
        return cls(
            wq=[glorot(rng, d_q, d_head, dtype) for _ in range(head_count)],
            wk=[glorot(rng, d_kv, d_head, dtype) for _ in range(head_count)],
            wv=[glorot(rng, d_kv, d_head, dtype) for _ in range(head_count)],
        )


@dataclass
class GRUParams:
    """Gate weights for one recurrence direction (update z, reset r, candidate)."""

    wz: Tensor
    uz: Tensor
    bz: Tensor
    wr: Tensor
    ur: Tensor
    br: Tensor
    wh: Tensor
    uh: Tensor
    bh: Tensor

    @classmethod
    def create(cls, rng, d_in: int, d_hidden: int, dtype=DEFAULT_DTYPE):
        def w():
            return glorot(rng, d_in, d_hidden, dtype)

        def u():
            return glorot(rng, d_hidden, d_hidden, dtype)

        return cls(
            wz=w(), uz=u(), bz=zeros_param(d_hidden, dtype),
            wr=w(), ur=u(), br=zeros_param(d_hidden, dtype),
            wh=w(), uh=u(), bh=zeros_param(d_hidden, dtype),
        )


@dataclass
class CapsuleParams:
    w: Tensor
    b: Tensor | None = None

    @classmethod
    def create(cls, rng, d_in: int, d_cap: int, dtype=DEFAULT_DTYPE):
        return cls(w=glorot(rng, d_in, d_cap, dtype), b=zeros_param(d_cap, dtype))


@dataclass
class PositionTable:
    """Rows indexed by clipped relative distance; physical row = distance + clip."""

    rows: Tensor
    clip: int

    @classmethod
    def create(cls, rng, clip: int, d_p: int, dtype=DEFAULT_DTYPE):
        if clip < 1:
            raise ConfigError(f"position clip must be >= 1, got {clip}")
        table = rng.uniform(-0.05, 0.05, size=(2 * clip + 1, d_p)).astype(dtype)
        return cls(rows=Tensor(table, requires_grad=True), clip=clip)


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor, mask=None, return_weights: bool = False):
    """softmax(q k^T / sqrt(d_k)) v with optional key mask (True = attend).
    Operands are [n, d], or [B, n, d] for a batch."""
    rank = q.data.ndim
    if rank not in (2, 3) or k.data.ndim != rank or v.data.ndim != rank:
        raise ShapeError("attention operands must be rank 2, or rank 3 with a batch axis")
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"query width {q.shape[-1]} != key width {k.shape[-1]}")
    if k.shape[:-1] != v.shape[:-1]:
        raise ShapeError(f"key count {k.shape[-2]} != value count {v.shape[-2]}")
    scores = tx.scale(tx.matmul(q, tx.transpose(k)), 1.0 / math.sqrt(q.shape[-1]))
    weights = tx.softmax(scores, axis=-1, mask=mask)
    out = tx.matmul(weights, v)
    return (out, weights) if return_weights else out


def multi_head(q: Tensor, k: Tensor, v: Tensor, params: MHAParams, mask=None, return_weights: bool = False):
    """Heads attend in parallel subspaces; outputs concatenate, no extra
    projection afterwards. All heads run as one fused op; the per-head
    weights it returns ([(B,) n_q, n_kv] each) are detached values, not
    tape nodes."""
    buffer = params.packed()
    out, weights = tx.multi_head_attention(
        q, k, v, buffer.blocks, buffer.tensors, mask=mask
    )
    if not return_weights:
        return out
    return out, [Tensor(weights[..., i, :, :]) for i in range(params.head_count)]


def mhsa(x: Tensor, params: MHAParams, mask=None, return_weights: bool = False):
    """Self-attention: queries, keys, and values are all the same sequence."""
    return multi_head(x, x, x, params, mask=mask, return_weights=return_weights)


def _gru_weights(p: GRUParams) -> tuple:
    return (p.wz, p.uz, p.bz, p.wr, p.ur, p.br, p.wh, p.uh, p.bh)


def gru_cell(x: Tensor, h_prev: Tensor, params: GRUParams) -> Tensor:
    if x.data.ndim != 1 or h_prev.data.ndim != 1:
        raise ShapeError("gru_cell expects rank-1 input and state")
    x_row = tx.reshape(x, (1, x.shape[0]))
    h = tx.gru_sequence(x_row, h_prev, _gru_weights(params))
    return tx.reshape(h, (h_prev.shape[0],))


def bigru_encode(target_embeds: Tensor, aspect_embed: Tensor, fwd: GRUParams, bwd: GRUParams,
                 mask=None) -> Tensor:
    """Run both directions over the target tokens, each step reading the
    token embedding concatenated with the (fixed) aspect vector, and
    concatenate the two hidden states per position.

    ``target_embeds`` is [m, d] with ``aspect_embed`` [d], or [B, m, d] with
    [B, d] for a batch; ``mask`` ([(B,) m]) marks real tokens, which must
    precede the padding in each row."""
    rank = target_embeds.data.ndim
    if rank not in (2, 3) or target_embeds.shape[-2] < 1:
        raise ShapeError(
            f"target embeddings must be [(B x) m x d] with m >= 1, got {target_embeds.shape}"
        )
    if aspect_embed.data.ndim != rank - 1:
        raise ShapeError(
            f"aspect embedding must be rank {rank - 1}, got {aspect_embed.shape}"
        )
    return tx.bigru_sequence(target_embeds, _gru_weights(fwd), _gru_weights(bwd),
                             context=aspect_embed, mask=mask)


def capsule_layer(regions: Tensor, params: CapsuleParams) -> Tensor:
    """Project each region row and squash it to a norm in [0, 1).
    ``regions`` is [49, d_in], or [B, 49, d_in] for a batch. The projection
    is the capsule half of ``tx.capsule_region_attention``, the op the
    model's image stage runs."""
    d_in = params.w.shape[0]
    if regions.data.ndim not in (2, 3) or regions.shape[-2:] != (REGION_COUNT, d_in):
        raise ShapeError(
            f"capsule input must be [(B x) {REGION_COUNT} x {d_in}], got {regions.shape}"
        )
    s, _, _ = tx.capsule_region_attention(regions, params.w, params.b)
    return tx.squash_rows(s)


def position_embeddings(span, n: int, table: PositionTable) -> Tensor:
    """Embed each token's signed distance to the target span (0 inside it).

    ``span`` is (start, end) as integers, or as two [B] arrays for a batch
    of rows padded to length ``n``; the result is [(B,) n, d_p]."""
    start, end = np.asarray(span[0])[..., None], np.asarray(span[1])[..., None]
    if not ((0 <= start) & (start < end) & (end <= n)).all():
        raise ShapeError(f"span [{span[0]}, {span[1]}) invalid for sentence length {n}")
    clip = table.clip
    # token i, shifted by clip: its row is clip + (i - start clamped to
    # [-clip, 0]) + (i - (end - 1) clamped to [0, clip])
    idx = np.arange(clip, n + clip)
    before = np.maximum(np.minimum(idx - start, clip), 0)
    after = np.minimum(np.maximum(idx - (end - 1), clip), 2 * clip)
    return tx.embedding_lookup(table.rows, before + after - clip)
