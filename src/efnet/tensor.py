"""Dense real tensors with reverse-mode automatic differentiation.

A ``Tape`` records operations as they execute; ``backward`` replays the
record in reverse to accumulate gradients. Tensors that are not attached
to a tape are plain immutable values, so evaluation-mode forward passes
cost nothing extra. One tape is a single-writer structure: never record
onto the same tape from two threads; independent workers each get their
own tape.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32
_F32 = np.dtype(np.float32)
_F64 = np.dtype(np.float64)


class ShapeError(ValueError):
    """Operand shapes (or ranks) are incompatible with the operation."""


class MaskError(ValueError):
    """A mask leaves no entry for a group that must be normalized or pooled."""


class TapeError(RuntimeError):
    """Tensor/tape wiring is wrong (detached loss, mixed tapes, ...)."""


class Tensor:
    """N-dimensional real array, optionally attached to a tape node.

    ``data`` is a numpy array (float32 by default, float64 in gradient-check
    mode). ``requires_grad`` marks trainable leaves; a tensor with
    ``requires_grad=False`` never accumulates a gradient. ``tape``/``node``
    are set once the tensor is recorded on a tape.
    """

    __slots__ = ("data", "requires_grad", "tape", "node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if dtype is None and type(data) is np.ndarray:
            dt = data.dtype
            self.data = data if (dt == _F32 or dt == _F64) else data.astype(DEFAULT_DTYPE)
        elif dtype is not None:
            self.data = np.asarray(data, dtype=dtype)
        elif isinstance(data, np.generic):
            arr = np.asarray(data)
            self.data = arr if arr.dtype in (_F32, _F64) else arr.astype(DEFAULT_DTYPE)
        else:
            self.data = np.asarray(data, dtype=DEFAULT_DTYPE)
        self.requires_grad = requires_grad
        self.tape: Tape | None = None
        self.node: int | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


class _Node:
    """One recorded operation: parent handles plus per-parent gradient rules."""

    __slots__ = ("parents", "grad_fns", "shape")

    def __init__(self, parents: tuple[int, ...], grad_fns, shape):
        self.parents = parents
        self.grad_fns = grad_fns
        self.shape = shape


class Tape:
    """Append-only record of operations; parents always precede children."""

    def __init__(self):
        self._nodes: list[_Node] = []

    def __len__(self) -> int:
        return len(self._nodes)

    def watch(self, t: Tensor) -> Tensor:
        """Register ``t`` as a leaf on this tape so gradients reach it."""
        if not t.requires_grad:
            raise TapeError("cannot watch a tensor with requires_grad=False")
        if t.tape is self:
            return t
        if t.tape is not None:
            raise TapeError("tensor is already recorded on a different tape")
        t.tape = self
        t.node = self._append(_Node((), (), t.data.shape))
        return t

    def _append(self, node: _Node) -> int:
        self._nodes.append(node)
        return len(self._nodes) - 1

    def backward(self, loss: Tensor) -> "GradientMap":
        """Reverse-accumulate gradients of a scalar loss over this tape."""
        if loss.data.ndim != 0:
            raise ShapeError(f"loss must be a scalar, got shape {loss.data.shape}")
        if loss.tape is not self or loss.node is None:
            raise TapeError("loss is not recorded on this tape")
        slots: dict[int, np.ndarray] = {loss.node: np.ones((), dtype=loss.data.dtype)}
        for idx in range(loss.node, -1, -1):
            grad = slots.get(idx)
            if grad is None:
                continue
            node = self._nodes[idx]
            for parent, fn in zip(node.parents, node.grad_fns):
                g = fn(grad)
                if g is None:
                    continue
                pshape = self._nodes[parent].shape
                if g.shape != pshape:
                    raise TapeError(
                        f"gradient shape {g.shape} does not match node shape {pshape}"
                    )
                if parent in slots:
                    slots[parent] = slots[parent] + g
                else:
                    slots[parent] = g
        return GradientMap(self, slots)


class GradientMap:
    """Gradients keyed by tape node, addressable by the tensors themselves."""

    def __init__(self, tape: Tape, slots: dict[int, np.ndarray]):
        self._tape = tape
        self._slots = slots

    def __contains__(self, t: Tensor) -> bool:
        return t.tape is self._tape and t.node in self._slots

    def __getitem__(self, t: Tensor) -> np.ndarray:
        if t.tape is not self._tape or t.node is None:
            raise TapeError("tensor is not recorded on the tape this map came from")
        return self._slots[t.node]

    def get(self, t: Tensor, default=None):
        return self[t] if t in self else default


def _find_tape(inputs: Sequence[Tensor]) -> Tape | None:
    tape = None
    for t in inputs:
        if t.tape is not None:
            if tape is None:
                tape = t.tape
            elif tape is not t.tape:
                raise TapeError("operands are recorded on different tapes")
    return tape


def _record(tape: Tape, out: Tensor, inputs: Sequence[Tensor],
            grad_fns: Sequence[Callable | None]) -> Tensor:
    """Record an op on ``tape`` (from ``_find_tape``); lazily watch grad leaves.

    Ops call this only when some input lives on a tape, so untaped passes
    build no backward closures at all.
    """
    for t in inputs:
        if t.requires_grad and t.node is None:
            tape.watch(t)
    parents = []
    fns = []
    for t, fn in zip(inputs, grad_fns):
        if t.node is not None and fn is not None:
            parents.append(t.node)
            fns.append(fn)
    out.requires_grad = True
    out.tape = tape
    out.node = tape._append(_Node(tuple(parents), tuple(fns), out.data.shape))
    return out


def _joint(backward: Callable, count: int) -> list:
    """Per-parent gradient rules sharing one joint backward computation.

    ``backward(g)`` returns one gradient per parent. The tape calls a node's
    rules back to back with the same ``g``, so it runs once per node.
    """
    memo = [None, None]

    def part(i):
        def fn(g):
            if memo[0] is not g:
                memo[0], memo[1] = g, backward(g)
            return memo[1][i]

        return fn

    return [part(i) for i in range(count)]


def as_tensor(x, dtype=None) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x, dtype=dtype)


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes of ``a`` and ``b``.

    ``a`` may carry leading batch axes. With a rank-2 ``b`` they fold into
    the rows of one product; a ``b`` of the same rank as ``a`` is multiplied
    per batch entry.
    """
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim not in (2, ad.ndim) or ad.shape[-1] != bd.shape[-2] \
            or (bd.ndim > 2 and ad.shape[:-2] != bd.shape[:-2]):
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    if bd.ndim == 2 and ad.ndim > 2:
        rows = ad.reshape(-1, ad.shape[-1])
        out = Tensor((rows @ bd).reshape(ad.shape[:-1] + bd.shape[-1:]))
        if (tape := _find_tape((a, b))) is None:
            return out
        n = bd.shape[-1]
        return _record(tape, out, (a, b), (
            lambda g: (g.reshape(-1, n) @ bd.T).reshape(ad.shape),
            lambda g: rows.T @ g.reshape(-1, n),
        ))
    out = Tensor(ad @ bd)
    if (tape := _find_tape((a, b))) is None:
        return out
    return _record(tape, out, (a, b), (lambda g: g @ np.swapaxes(bd, -1, -2),
                                       lambda g: np.swapaxes(ad, -1, -2) @ g))


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; a rank-1 ``b`` broadcasts as a bias over the last
    axis of ``a``."""
    bias = a.data.ndim >= 2 and b.data.ndim == 1 and a.shape[-1] == b.shape[0]
    if a.shape != b.shape and not bias:
        raise ShapeError(f"add: incompatible shapes {a.shape} + {b.shape}")
    out = Tensor(a.data + b.data)
    if (tape := _find_tape((a, b))) is None:
        return out
    if not bias:
        return _record(tape, out, (a, b), (lambda g: g, lambda g: g))
    n = b.shape[0]
    return _record(tape, out, (a, b), (lambda g: g, lambda g: g.reshape(-1, n).sum(axis=0)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub: incompatible shapes {a.shape} - {b.shape}")
    out = Tensor(a.data - b.data)
    if (tape := _find_tape((a, b))) is None:
        return out
    return _record(tape, out, (a, b), (lambda g: g, lambda g: -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (Hadamard) product of same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"mul: incompatible shapes {a.shape} * {b.shape}")
    out = Tensor(a.data * b.data)
    if (tape := _find_tape((a, b))) is None:
        return out
    ad, bd = a.data, b.data
    return _record(tape, out, (a, b), (lambda g: g * bd, lambda g: g * ad))


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a non-trainable scalar constant."""
    c = a.data.dtype.type(c)
    out = Tensor(a.data * c)
    if (tape := _find_tape((a,))) is None:
        return out
    return _record(tape, out, (a,), (lambda g: g * c,))


def concat(parts: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate along ``axis`` (last axis by default; axis 0 stacks rows)."""
    parts = list(parts)
    try:
        out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    except ValueError as e:
        shapes = ", ".join(str(p.shape) for p in parts)
        raise ShapeError(f"concat: cannot join [{shapes}] along axis {axis}: {e}") from None
    if (tape := _find_tape(parts)) is None:
        return out
    ndim = out.data.ndim
    ax = axis % ndim
    fns = []
    lo = 0
    for p in parts:
        index = [slice(None)] * ndim
        index[ax] = slice(lo, lo + p.shape[ax])
        fns.append(lambda g, index=tuple(index): g[index])
        lo += p.shape[ax]
    return _record(tape, out, parts, fns)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    if math.prod(a.shape) != math.prod(shape):
        raise ShapeError(f"reshape: cannot reshape {a.shape} to {shape}")
    out = Tensor(a.data.reshape(shape))
    if (tape := _find_tape((a,))) is None:
        return out
    in_shape = a.shape
    return _record(tape, out, (a,), (lambda g: g.reshape(in_shape),))


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    if a.data.ndim < 2:
        raise ShapeError(f"transpose: expected rank >= 2, got shape {a.shape}")
    out = Tensor(np.swapaxes(a.data, -1, -2).copy())
    if (tape := _find_tape((a,))) is None:
        return out
    return _record(tape, out, (a,), (lambda g: np.swapaxes(g, -1, -2),))


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    y = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    y = y.astype(x.dtype)
    out = Tensor(y)
    if (tape := _find_tape((a,))) is None:
        return out
    return _record(tape, out, (a,), (lambda g: g * y * (1.0 - y),))


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    out = Tensor(y)
    if (tape := _find_tape((a,))) is None:
        return out
    return _record(tape, out, (a,), (lambda g: g * (1.0 - y * y),))


def log(a: Tensor, floor: float | None = None) -> Tensor:
    """Natural log; with ``floor`` the input is clamped below at ``floor``.

    In the clamped region the gradient is zero, consistent with the
    clamped forward value.
    """
    x = a.data
    if floor is not None:
        clamped = np.maximum(x, x.dtype.type(floor))
    else:
        clamped = x
    out = Tensor(np.log(clamped))
    if (tape := _find_tape((a,))) is None:
        return out
    active = None if floor is None else x >= floor

    def fn(g):
        base = g / clamped
        return base if active is None else base * active

    return _record(tape, out, (a,), (fn,))


def dropout(a: Tensor, rate: float, train: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: scales survivors by 1/(1-rate); identity in eval mode."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return a
    if rng is None:
        raise ValueError("dropout in training mode needs an rng")
    keep = (rng.random(a.shape) >= rate).astype(a.data.dtype)
    factor = keep / a.data.dtype.type(1.0 - rate)
    out = Tensor(a.data * factor)
    if (tape := _find_tape((a,))) is None:
        return out
    return _record(tape, out, (a,), (lambda g: g * factor,))


def _prepare_mask(mask, shape, axis):
    m = np.asarray(mask)
    if m.dtype != np.bool_:
        raise ShapeError("mask must be boolean")
    if m.shape == shape:
        return m
    if m.ndim == 1 and m.shape[0] == shape[axis] and axis == len(shape) - 1:
        return np.broadcast_to(m, shape)
    raise ShapeError(f"mask shape {m.shape} does not fit tensor shape {shape}")


def softmax(a: Tensor, axis: int = -1, mask=None) -> Tensor:
    """Normalized exponentials along ``axis``, computed with max-subtraction.

    ``mask`` marks entries to keep (True); masked positions come out exactly
    zero and each unmasked group sums to one. A fully masked group is an
    error rather than a NaN.
    """
    x = a.data
    ax = axis if axis >= 0 else x.ndim + axis
    if not 0 <= ax < x.ndim:
        raise ShapeError(f"softmax: axis {axis} out of range for shape {x.shape}")
    if mask is not None:
        m = _prepare_mask(mask, x.shape, ax)
        if not m.any(axis=ax).all():
            raise MaskError("softmax: a group is fully masked")
        neg = np.array(-np.inf, dtype=x.dtype)
        shifted = np.where(m, x, neg) - np.where(m, x, neg).max(axis=ax, keepdims=True)
        e = np.where(m, np.exp(np.where(m, shifted, 0.0)), 0.0).astype(x.dtype)
    else:
        shifted = x - x.max(axis=ax, keepdims=True)
        e = np.exp(shifted)
    y = e / e.sum(axis=ax, keepdims=True)
    out = Tensor(y)
    if (tape := _find_tape((a,))) is None:
        return out

    def fn(g):
        return y * (g - (g * y).sum(axis=ax, keepdims=True))

    return _record(tape, out, (a,), (fn,))


def mean_pool(a: Tensor, mask=None) -> Tensor:
    """Mean over the rows (axis -2) of ``a``, skipping rows whose ``mask``
    entry is False. ``a`` is [n, d] or carries leading batch axes, and
    ``mask`` has the shape of ``a`` without its last axis."""
    x = a.data
    if x.ndim < 2:
        raise ShapeError(f"mean_pool: expected rank >= 2, got shape {a.shape}")
    groups = x.shape[:-1]
    if mask is not None:
        m = np.asarray(mask)
        if m.dtype != np.bool_ or m.shape != groups:
            raise ShapeError(f"mean_pool: mask must be boolean of shape {groups}")
        count = m.sum(axis=-1, keepdims=True)
        if not count.all():
            raise MaskError("mean_pool: every row is masked")
        weights = (m / count).astype(x.dtype)
    else:
        weights = np.full(groups, 1.0 / groups[-1], dtype=x.dtype)
    out = Tensor(np.matmul(weights[..., None, :], x)[..., 0, :])
    if (tape := _find_tape((a,))) is None:
        return out
    return _record(tape, out, (a,), (lambda g: weights[..., :, None] * g[..., None, :],))


def sum_all(a: Tensor) -> Tensor:
    """Sum of every element, as a scalar tensor."""
    out = Tensor(a.data.sum())
    if (tape := _find_tape((a,))) is None:
        return out
    shape, dtype = a.shape, a.data.dtype
    return _record(tape, out, (a,), (lambda g: np.full(shape, g, dtype=dtype),))


def sum_squares(parts: Sequence[Tensor]) -> Tensor:
    """Sum of squared elements over a list of tensors, as one scalar node."""
    parts = list(parts)
    if not parts:
        raise ShapeError("sum_squares: need at least one tensor")
    dtype = parts[0].data.dtype
    # vdot reads each tensor in place: no squared temporary per tensor
    total = sum(np.vdot(p.data, p.data) for p in parts)
    out = Tensor(np.asarray(total, dtype=dtype))
    if (tape := _find_tape(parts)) is None:
        return out
    return _record(tape, out, parts,
                   [lambda g, d=p.data: g * 2.0 * d for p in parts])


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of ``table`` by integer id, for an id array of any shape;
    gradients scatter-add back."""
    if table.data.ndim != 2:
        raise ShapeError(f"embedding_lookup: table must be rank 2, got {table.shape}")
    idx = np.asarray(ids, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeError(
            f"embedding_lookup: id out of range for table with {table.shape[0]} rows"
        )
    out = Tensor(table.data[idx])
    if (tape := _find_tape((table,))) is None:
        return out
    shape = table.shape
    flat = idx.reshape(-1)

    def fn(g):
        full = np.zeros(shape, dtype=g.dtype)
        np.add.at(full, flat, g.reshape(-1, shape[1]))
        return full

    return _record(tape, out, (table,), (fn,))


def squash_rows(a: Tensor) -> Tensor:
    """Capsule squash per row (last axis): v = (|s|^2 / (1 + |s|^2)) * s / |s|.

    Output row norms lie in [0, 1) and directions are preserved; a zero
    input row maps to a zero output row (with zero gradient there).
    """
    if a.data.ndim < 2:
        raise ShapeError(f"squash_rows: expected rank >= 2, got shape {a.shape}")
    s = a.data
    u = (s * s).sum(axis=-1, keepdims=True)
    nonzero = u > 0
    safe_u = np.where(nonzero, u, 1.0)
    coef = np.where(nonzero, np.sqrt(safe_u) / (1.0 + safe_u), 0.0).astype(s.dtype)
    out = Tensor(coef * s)
    if (tape := _find_tape((a,))) is None:
        return out

    # d(coef)/d(u) for the chain through u = |s|^2
    dcoef = np.where(
        nonzero, (1.0 - safe_u) / (2.0 * np.sqrt(safe_u) * (1.0 + safe_u) ** 2), 0.0
    ).astype(s.dtype)

    def fn(g):
        inner = (g * s).sum(axis=-1, keepdims=True)
        return coef * g + 2.0 * dcoef * inner * s

    return _record(tape, out, (a,), (fn,))


# ---------------------------------------------------------------------------
# fused layers: one tape node each, with hand-written backward rules


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor, wq: Sequence[Tensor],
                         wk: Sequence[Tensor], wv: Sequence[Tensor], mask=None):
    """Multi-head scaled dot-product attention as one op.

    Head i attends with softmax(q wq[i] (k wk[i])^T / sqrt(d_head)) v wv[i].
    The per-head [d, d_head] projections sit side by side as one
    [d, H * d_head] matrix, so each role is one matrix product for all
    heads and all batch rows (Vaswani et al. 2017). ``q``, ``k`` and ``v``
    are [n, d], or [B, n, d] for a batch; they may be one tensor
    (self-attention). ``mask`` ([n_kv] or [n_q, n_kv], with a leading B for
    a batch; True = attend) applies to every head. Masked weights are
    exactly zero, and a query row with no key left is a MaskError.

    Returns the head outputs concatenated along features, [(B,) n_q,
    H * d_head], and the attention weights as a plain [(B,) H, n_q, n_kv]
    array.
    """
    heads = len(wq)
    if heads < 1 or len(wk) != heads or len(wv) != heads:
        raise ShapeError("multi_head_attention: need one (wq, wk, wv) triple per head")
    rank = q.data.ndim
    if rank not in (2, 3) or k.data.ndim != rank or v.data.ndim != rank:
        raise ShapeError("attention operands must be rank 2, or rank 3 with a batch axis")
    qd, kd, vd = (t.data if rank == 3 else t.data[None] for t in (q, k, v))
    b, n_q, n_kv = qd.shape[0], qd.shape[1], kd.shape[1]
    if kd.shape[0] != b or vd.shape[0] != b:
        raise ShapeError(f"batch sizes differ: {q.shape}, {k.shape}, {v.shape}")
    if vd.shape[1] != n_kv:
        raise ShapeError(f"key count {n_kv} != value count {vd.shape[1]}")
    d_head = wq[0].shape[1]
    if any(w.data.ndim != 2 or w.shape[1] != d_head for w in (*wq, *wk, *wv)):
        raise ShapeError("multi_head_attention: heads must share one d_head")
    w_q, w_k, w_v = (np.concatenate([w.data for w in ws], axis=1) for ws in (wq, wk, wv))
    q2, k2, v2 = (x.reshape(-1, x.shape[2]) for x in (qd, kd, vd))
    try:
        qh, kh, vh = (
            (x @ w).reshape(b, n, heads, d_head).transpose(0, 2, 1, 3)
            for x, w, n in ((q2, w_q, n_q), (k2, w_k, n_kv), (v2, w_v, n_kv))
        )
    except ValueError as e:
        raise ShapeError(f"multi_head_attention: {e}") from None
    c = 1.0 / math.sqrt(d_head)
    scores = (qh @ kh.transpose(0, 1, 3, 2)) * c
    if mask is not None:
        m = np.asarray(mask)
        want = ((n_kv,), (n_q, n_kv)) if rank == 2 else ((b, n_kv), (b, n_q, n_kv))
        if m.dtype != np.bool_ or m.shape not in want:
            raise ShapeError(
                f"mask must be boolean of shape {' or '.join(map(str, want))}, got {m.shape}"
            )
        if not m.any(axis=-1).all():
            raise MaskError("multi_head_attention: a query has every key masked")
        m = m.reshape((b, 1, -1, n_kv))
        scores = np.where(m, scores, -np.inf)
    e = np.exp(scores - scores.max(axis=3, keepdims=True))
    attn = e / e.sum(axis=3, keepdims=True)
    out = Tensor((attn @ vh).transpose(0, 2, 1, 3).reshape(q.shape[:-1] + (heads * d_head,)))
    inputs = (q, k, v, *wq, *wk, *wv)
    if (tape := _find_tape(inputs)) is None:
        return out, attn if rank == 3 else attn[0]
    q_shape, k_shape, v_shape = q.shape, k.shape, v.shape

    def rows(d, n):
        # [b, H, n, d_head] -> [b * n, H * d_head], the layout of the projections
        return d.transpose(0, 2, 1, 3).reshape(b * n, heads * d_head)

    def backward(g):
        g_heads = g.reshape(b, n_q, heads, d_head).transpose(0, 2, 1, 3)
        d_attn = g_heads @ vh.transpose(0, 1, 3, 2)
        d_vh = attn.transpose(0, 1, 3, 2) @ g_heads
        d_scores = attn * (d_attn - (d_attn * attn).sum(axis=3, keepdims=True)) * c
        d_q = rows(d_scores @ kh, n_q)
        d_k = rows(d_scores.transpose(0, 1, 3, 2) @ qh, n_kv)
        d_v = rows(d_vh, n_kv)
        return (
            (d_q @ w_q.T).reshape(q_shape),
            (d_k @ w_k.T).reshape(k_shape),
            (d_v @ w_v.T).reshape(v_shape),
            *_col_blocks(q2.T @ d_q, heads), *_col_blocks(k2.T @ d_k, heads),
            *_col_blocks(v2.T @ d_v, heads),
        )

    out = _record(tape, out, inputs, _joint(backward, len(inputs)))
    return out, attn if rank == 3 else attn[0]


def region_attention(query: Tensor, r: Tensor, w_r: Tensor):
    """One query vector attending over projected regions, as one op.

    Computes softmax(q (r w_r)^T / sqrt(a)) (r w_r) without forming the
    [n, a] keys r w_r. The key projection is folded into the query, so the
    scores are r (q w_r^T), and applied once after pooling, so the output is
    (weights r) w_r (the weight absorption of DeepSeek-V2, arXiv:2405.04434).
    ``r`` is read by two matrix-vector passes forward and two backward,
    O(n C) per row instead of O(n C a). ``query`` is [a] with ``r`` [n, C],
    or [B, a] with [B, n, C]; ``w_r`` is [C, a]. Returns the attended
    vector, [(B,) a], and the region weights as a plain [(B,) n] array.
    The gradient of ``r`` is formed only when ``r`` is on a tape.
    """
    rank = r.data.ndim
    if rank not in (2, 3) or query.data.ndim != rank - 1 or w_r.data.ndim != 2:
        raise ShapeError(
            f"region_attention: need query [a] with regions [n, C], or [B, a] with "
            f"[B, n, C], and a rank-2 projection; got {query.shape}, {r.shape}, {w_r.shape}"
        )
    rd = r.data if rank == 3 else r.data[None]
    qd = query.data.reshape(-1, query.shape[-1])
    wd = w_r.data
    b, n, width = rd.shape
    if qd.shape[0] != b or wd.shape != (width, qd.shape[1]):
        raise ShapeError(
            f"region_attention: query {query.shape} and regions {r.shape} do not fit "
            f"projection {w_r.shape}"
        )
    c = 1.0 / math.sqrt(wd.shape[1])
    qk = qd @ wd.T
    scores = (rd @ qk[:, :, None])[:, :, 0] * c
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    attn = e / e.sum(axis=1, keepdims=True)
    pooled = (attn[:, None, :] @ rd)[:, 0]
    out = Tensor((pooled @ wd).reshape(query.shape))
    weights = attn if rank == 3 else attn[0]
    inputs = (query, r, w_r)
    if (tape := _find_tape(inputs)) is None:
        return out, weights
    want_r = r.requires_grad or r.tape is not None
    q_shape, r_shape = query.shape, r.shape

    def backward(g):
        g = g.reshape(b, -1)
        d_pooled = g @ wd.T
        d_attn = (rd @ d_pooled[:, :, None])[:, :, 0]
        d_scores = attn * (d_attn - (d_attn * attn).sum(axis=1, keepdims=True)) * c
        d_qk = (d_scores[:, None, :] @ rd)[:, 0]
        d_r = None
        if want_r:
            # both paths through r as one rank-2 update per batch row
            d_r = (np.stack([d_scores, attn], axis=2)
                   @ np.stack([qk, d_pooled], axis=1)).reshape(r_shape)
        # both products into w_r as one matrix product with 2b inner terms
        d_w = np.concatenate([pooled, d_qk]).T @ np.concatenate([g, qd])
        return (d_qk @ wd).reshape(q_shape), d_r, d_w

    return _record(tape, out, inputs, _joint(backward, 3)), weights


def _col_blocks(a: np.ndarray, count: int) -> list:
    """``a`` [n, count * w] as ``count`` [n, w] column blocks (views)."""
    n, width = a.shape[0], a.shape[1] // count
    return list(a.reshape(n, count, width).transpose(1, 0, 2))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # the tanh form cannot overflow, for any sign or magnitude
    return 0.5 * np.tanh(0.5 * x) + 0.5


def gru_sequence(x: Tensor, h0: Tensor | None, weights: Sequence[Tensor],
                 context: Tensor | None = None, reverse: bool = False,
                 mask=None) -> Tensor:
    """A GRU run over the rows of ``x`` as one op, for one direction.

    ``weights`` is (wz, uz, bz, wr, ur, br, wh, uh, bh): input weights
    [d_in, d_h], recurrent weights [d_h, d_h] and biases [d_h] of the update
    gate z, the reset gate r and the candidate. Step t reads row t of ``x``
    followed by ``context`` (a vector shared by every step, or None) and
    updates the state h:

        z = sigmoid(x_t wz + h uz + bz)    r = sigmoid(x_t wr + h ur + br)
        cand = tanh(x_t wh + (r * h) uh + bh)    h' = h + z * (cand - h)

    The input projections of every step are one matmul, and the shared
    context adds one row product (Appleyard et al. 2016). Backpropagation
    through time is written out below. ``h0`` is the initial state (None:
    zeros); ``reverse`` runs from the last row to the first.

    ``x`` is [m, d_x], or [B, m, d_x] for a batch, where ``h0`` and
    ``context`` gain the same leading B. ``mask`` ([m], or [B, m]) marks
    real steps; a masked step keeps the state as it is, so rows padded at
    the end leave both directions exact. Returns the state after each row,
    [(B,) m, d_h], in row order.
    """
    wz, uz, bz, wr, ur, br, wh, uh, bh = weights
    rank = x.data.ndim
    if rank not in (2, 3) or x.shape[-2] < 1:
        raise ShapeError(
            f"gru_sequence: input must be [m x d] or [B x m x d] with m >= 1, got {x.shape}"
        )
    xd = x.data if rank == 3 else x.data[None]
    b, m, d_x = xd.shape
    lead = x.shape[:-2]
    d_h = uz.shape[0]
    if context is not None and (context.data.ndim != rank - 1 or context.shape[:-1] != lead):
        raise ShapeError(
            f"gru_sequence: context must be one vector per input sequence, got {context.shape}"
        )
    d_ctx = 0 if context is None else context.shape[-1]
    if h0 is not None and h0.shape != lead + (d_h,):
        raise ShapeError(
            f"gru_sequence: initial state must have shape {lead + (d_h,)}, got {h0.shape}"
        )
    keep = None
    if mask is not None:
        mk = np.asarray(mask)
        if mk.dtype != np.bool_ or mk.shape != x.shape[:-1]:
            raise ShapeError(f"gru_sequence: mask must be boolean of shape {x.shape[:-1]}")
        keep = mk.reshape(b, m).T[:, :, None].astype(xd.dtype)
    try:
        w_in = np.concatenate([wz.data, wr.data, wh.data], axis=1)
        u_zr = np.concatenate([uz.data, ur.data], axis=1)
        bias = np.concatenate([bz.data, br.data, bh.data])
    except ValueError as e:
        raise ShapeError(f"gru_sequence: gate weights disagree: {e}") from None
    if w_in.shape != (d_x + d_ctx, 3 * d_h) or u_zr.shape != (d_h, 2 * d_h) or \
            uh.shape != (d_h, d_h) or bias.shape != (3 * d_h,):
        raise ShapeError(
            f"gru_sequence: weights do not fit input width {d_x + d_ctx} and state width {d_h}"
        )
    w_x, w_ctx = w_in[:d_x], w_in[d_x:]
    # time-major inside: step t reads [b, ...] slices at index t
    x2 = xd.transpose(1, 0, 2).reshape(m * b, d_x)
    proj = (x2 @ w_x + bias).reshape(m, b, 3 * d_h)
    ctx = None if context is None else context.data.reshape(b, d_ctx)
    if ctx is not None:
        proj += ctx @ w_ctx
    p_zr, p_c = proj[:, :, : 2 * d_h], proj[:, :, 2 * d_h :]
    u_c = uh.data
    h = np.zeros((b, d_h), dtype=xd.dtype) if h0 is None else h0.data.reshape(b, d_h)
    states = np.empty((m, b, d_h), dtype=proj.dtype)
    prev = np.empty_like(states)
    gates = np.empty((m, b, 2 * d_h), dtype=proj.dtype)
    cands = np.empty_like(states)
    steps = range(m - 1, -1, -1) if reverse else range(m)
    for t in steps:
        prev[t] = h
        zr = _sigmoid(p_zr[t] + h @ u_zr)
        cand = np.tanh(p_c[t] + (zr[:, d_h:] * h) @ u_c)
        z = zr[:, :d_h] if keep is None else zr[:, :d_h] * keep[t]
        h = h + z * (cand - h)
        gates[t], cands[t], states[t] = zr, cand, h
    out = Tensor(states.transpose(1, 0, 2).reshape(x.shape[:-1] + (d_h,)))
    inputs = [x] + [t for t in (h0, context) if t is not None] + list(weights)
    if (tape := _find_tape(inputs)) is None:
        return out
    x_shape = x.shape
    h0_shape = None if h0 is None else h0.shape
    ctx_shape = None if context is None else context.shape

    def backward(g):
        g = g.reshape(b, m, d_h).transpose(1, 0, 2)
        d_proj = np.empty_like(proj)
        d_h_next = np.zeros((b, d_h), dtype=g.dtype)
        for t in reversed(steps):
            dh = g[t] + d_h_next
            zr, cand, hp = gates[t], cands[t], prev[t]
            z, r = zr[:, :d_h], zr[:, d_h:]
            d_z = dh * (cand - hp)
            if keep is not None:
                z, d_z = z * keep[t], d_z * keep[t]
            d_c = dh * z * (1.0 - cand * cand)
            d_rh = d_c @ u_c.T
            d_zr = np.concatenate([d_z, d_rh * hp], axis=1) * zr * (1.0 - zr)
            d_h_next = dh * (1.0 - z) + d_rh * r + d_zr @ u_zr.T
            d_proj[t, :, : 2 * d_h] = d_zr
            d_proj[t, :, 2 * d_h :] = d_c
        d_flat = d_proj.reshape(m * b, 3 * d_h)
        d_bias = d_flat.sum(axis=0)
        d_w = x2.T @ d_flat
        if ctx is not None:
            d_ctx_proj = d_proj.sum(axis=0)
            d_w = np.concatenate([d_w, ctx.T @ d_ctx_proj])
        d_u_zr = prev.reshape(m * b, d_h).T @ d_flat[:, : 2 * d_h]
        d_u_c = (gates[:, :, d_h:] * prev).reshape(m * b, d_h).T @ d_flat[:, 2 * d_h :]
        d_xs = (d_flat @ w_x.T).reshape(m, b, d_x).transpose(1, 0, 2)
        grads = [d_xs.reshape(x_shape)]
        if h0_shape is not None:
            grads.append(d_h_next.reshape(h0_shape))
        if ctx is not None:
            grads.append((d_ctx_proj @ w_ctx.T).reshape(ctx_shape))
        recurrent = _col_blocks(d_u_zr, 2) + [d_u_c]
        for i, d_w_gate in enumerate(_col_blocks(d_w, 3)):
            grads += [d_w_gate, recurrent[i], d_bias[i * d_h:(i + 1) * d_h]]
        return grads

    return _record(tape, out, inputs, _joint(backward, len(inputs)))
