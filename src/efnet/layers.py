"""Model building blocks: scaled attention, multi-head wrappers, GRU cells,
the capsule projection, and the relative-position embedding table.

Parameter containers are plain dataclasses holding trainable Tensors; each
has a seeded ``create`` factory. Functions take inputs first and parameters
after, and everything runs on the autodiff primitives from ``tensor``.
``ParamBuffer`` packs trainable tensors into one flat array; the multi-head
projections always live in one, as [H, d, d_head] blocks, and a Bi-GRU's
gates do once the pair has run, as [6, d, d_h] blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tx
from .tensor import DEFAULT_DTYPE, InternalError, ShapeError, Tensor

REGION_COUNT = 49


class ConfigError(ValueError):
    """A configuration value is inconsistent (head counts, widths, ...)."""


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
    ``blocks[j]``, a [len(group), *shape] slice of ``flat``. Each tensor is
    bound by name to its row of that block, a C-contiguous view, so both
    ``data.reshape(-1)`` and assigning ``data`` write through to ``flat``.
    """

    flat: np.ndarray
    blocks: list
    tensors: list

    @classmethod
    def pack(cls, groups) -> "ParamBuffer":
        tensors = [t for group in groups for _, t in group]
        flat = np.empty(sum(t.data.size for t in tensors), dtype=tensors[0].data.dtype)
        blocks = []
        lo = 0
        for group in groups:
            shape = (len(group),) + group[0][1].data.shape
            blocks.append(flat[lo:lo + math.prod(shape)].reshape(shape))
            lo += blocks[-1].size
            for (name, t), row in zip(group, blocks[-1]):
                t.bind(row, name)
        return cls(flat, blocks, tensors)

    def part(self, start: int, stop: int) -> "ParamBuffer":
        """Blocks ``start`` to ``stop - 1`` as a buffer of their own that
        shares this one's memory and tensors."""
        rows = [len(b) for b in self.blocks]
        first, last = sum(rows[:start]), sum(rows[:stop])
        lo = sum(b.size for b in self.blocks[:start])
        hi = lo + sum(b.size for b in self.blocks[start:stop])
        return ParamBuffer(self.flat[lo:hi], self.blocks[start:stop], self.tensors[first:last])


@dataclass
class MHAParams:
    """Per-head projection triples; output width is head_count * d_head.

    Construction packs the heads of each role into one [H, d, d_head]
    block: each head's ``data`` becomes a row of its role's block. The wk
    and wv blocks are adjacent, so ``blocks``, what the attention op reads,
    views them as one [2, H, d, d_head] array; keys and values therefore
    share one input width."""

    wq: list
    wk: list
    wv: list
    buffer: ParamBuffer = field(init=False, repr=False, compare=False)
    blocks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (len(self.wq) == len(self.wk) == len(self.wv)) or not self.wq:
            raise ConfigError("need one (wq, wk, wv) triple per head")
        d_head = self.wq[0].shape[1]
        for w in (*self.wq, *self.wk, *self.wv):
            if w.data.ndim != 2 or w.shape[1] != d_head:
                raise ConfigError("all heads must share one d_head")
        for role in (self.wq, self.wk + self.wv):
            if any(w.shape != role[0].shape for w in role):
                raise ConfigError("the wq heads, and the wk and wv heads, must each "
                                  "share one input width")
        self.place(ParamBuffer.pack(self.groups("")))

    def groups(self, prefix: str) -> list:
        """``ParamBuffer.pack`` groups for the wq, wk and wv blocks, in that
        order, each head named ``{prefix}h{i}.{role}``."""
        return [[(f"{prefix}h{h}.{name}", w) for h, w in enumerate(role)]
                for name, role in (("wq", self.wq), ("wk", self.wk), ("wv", self.wv))]

    def place(self, buffer: ParamBuffer) -> None:
        """Read the projections from ``buffer``, whose blocks are wq, wk
        and wv in that order and nothing else."""
        self.buffer = buffer
        w_q, w_k, _ = buffer.blocks
        self.blocks = (w_q, buffer.flat[w_q.size:].reshape((2,) + w_k.shape))

    @property
    def head_count(self) -> int:
        return len(self.wq)

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
    """Gate weights for one recurrence direction (update z, reset r,
    candidate h).

    The two directions of a Bi-GRU share one ``buffer``, None until the
    pair is packed, whose three blocks are the input weights [6, d_in,
    d_h], the recurrent weights [6, d_h, d_h] and the biases [6, d_h],
    rows z, r, h of the forward direction first (``gate_groups``), so the
    Bi-GRU op reads them without a copy. A direction alone packs nothing."""

    wz: Tensor
    uz: Tensor
    bz: Tensor
    wr: Tensor
    ur: Tensor
    br: Tensor
    wh: Tensor
    uh: Tensor
    bh: Tensor
    buffer: ParamBuffer | None = field(default=None, init=False, repr=False, compare=False)

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


def gate_groups(directions) -> list:
    """``ParamBuffer.pack`` groups for the gate blocks of the (name prefix,
    ``GRUParams``) pairs in ``directions``: the input weights, then the
    recurrent weights, then the biases, each direction by direction in
    gate order z, r, h."""
    return [[(prefix + kind + gate, getattr(p, kind + gate))
             for prefix, p in directions for gate in "zrh"] for kind in "wub"]


@dataclass
class CapsuleParams:
    w: Tensor
    b: Tensor

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


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor, return_weights: bool = False):
    """softmax(q k^T / sqrt(d_k)) v. Operands are [n, d], or [B, n, d] for a
    batch."""
    rank = q.data.ndim
    if rank not in (2, 3) or k.data.ndim != rank or v.data.ndim != rank:
        raise ShapeError("attention operands must be rank 2, or rank 3 with a batch axis")
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"query width {q.shape[-1]} != key width {k.shape[-1]}")
    if k.shape[:-1] != v.shape[:-1]:
        raise ShapeError(f"key count {k.shape[-2]} != value count {v.shape[-2]}")
    scores = tx.scale(tx.matmul(q, tx.transpose(k)), 1.0 / math.sqrt(q.shape[-1]))
    weights = tx.softmax(scores)
    out = tx.matmul(weights, v)
    return (out, weights) if return_weights else out


def multi_head(q: Tensor, k: Tensor, v: Tensor, params: MHAParams, mask=None, return_weights: bool = False):
    """Heads attend in parallel subspaces; outputs concatenate, no extra
    projection afterwards. All heads run as one fused op; the per-head
    weights it returns ([(B,) n_q, n_kv] each) are detached values, not
    tape nodes."""
    out, weights = tx.multi_head_attention(
        q, k, v, params.blocks, params.buffer.tensors, mask=mask
    )
    if not return_weights:
        return out
    return out, [Tensor(weights[..., i, :, :]) for i in range(params.head_count)]


def mhsa(x: Tensor, params: MHAParams, mask=None, return_weights: bool = False):
    """Self-attention: queries, keys, and values are all the same sequence."""
    return multi_head(x, x, x, params, mask=mask, return_weights=return_weights)


def gru_cell(x: Tensor, h_prev: Tensor, params: GRUParams) -> Tensor:
    if x.data.ndim != 1 or h_prev.data.ndim != 1:
        raise ShapeError("gru_cell expects rank-1 input and state")
    groups = gate_groups([("", params)])
    blocks = [np.stack([t.data for _, t in group]) for group in groups]
    x_row = tx.reshape(x, (1, x.shape[0]))
    h = tx.gru_sequence(x_row, h_prev, blocks, [t for group in groups for _, t in group])
    return tx.reshape(h, (h_prev.shape[0],))


def bigru_encode(target_embeds: Tensor, aspect_embed: Tensor, fwd: GRUParams, bwd: GRUParams,
                 mask=None) -> Tensor:
    """Run both directions over the target tokens, each step reading the
    token embedding concatenated with the (fixed) aspect vector, and
    concatenate the two hidden states per position.

    ``target_embeds`` is [m, d] with ``aspect_embed`` [d], or [B, m, d] with
    [B, d] for a batch; ``mask`` ([(B,) m]) marks real tokens, which must
    precede the padding in each row."""
    buffer = fwd.buffer
    if buffer is None or buffer.tensors[0] is not fwd.wz or buffer.tensors[3] is not bwd.wz:
        # both directions into one buffer, the forward rows first
        buffer = fwd.buffer = bwd.buffer = ParamBuffer.pack(
            gate_groups([("fwd.", fwd), ("bwd.", bwd)]))
    return tx.bigru_sequence(target_embeds, buffer.blocks, buffer.tensors,
                             context=aspect_embed, mask=mask)


def capsule_layer(regions: Tensor, params: CapsuleParams) -> Tensor:
    """Project each region row and squash it to a norm in [0, 1):
    squash(regions w + b). ``regions`` is [49, d_in], or [B, 49, d_in] for
    a batch. The model's image stage runs the same rule inside
    ``tx.capsule_region_attention``."""
    d_in = params.w.shape[0]
    if regions.data.ndim not in (2, 3) or regions.shape[-2:] != (REGION_COUNT, d_in):
        raise ShapeError(
            f"capsule input must be [(B x) {REGION_COUNT} x {d_in}], got {regions.shape}"
        )
    lead = regions.shape[:-1]
    rows = tx.matmul(tx.reshape(regions, (math.prod(lead), d_in)), params.w)
    return tx.squash(tx.reshape(tx.add(rows, params.b), lead + params.w.shape[1:]))


def position_embeddings(span, n: int, table: PositionTable) -> Tensor:
    """Embed each token's signed distance to the target span (0 inside it).

    ``span`` is (start, end) as integers, or as two [B, 1] arrays for a
    batch of rows padded to length ``n``; the result is [(B,) n, d_p]."""
    start, end = span
    inner = end - 1 - start
    # start, end - 1 - start and n - end are all >= 0 when no sign bit is set
    if np.minimum.reduce(start | inner | (n - end), axis=None) < 0:
        raise ShapeError(f"span [{span[0]}, {span[1]}) invalid for sentence length {n}")
    clip = table.clip
    # token i's row is clip plus its distance, clipped to [0, 2 clip]: below
    # the span the first minimum is the larger, above it the second, and in
    # it both are at most clip, which the first is
    shifted = np.arange(clip, n + clip) - start
    rows = np.maximum(np.minimum(shifted, clip), np.minimum(shifted - inner, 2 * clip))
    return tx.embedding_lookup(table.rows, np.maximum(rows, 0, out=rows))
