"""Dense real tensors with reverse-mode automatic differentiation.

A ``Tape`` records operations as they execute; ``backward`` replays the
record in reverse to accumulate gradients. Tensors that are not attached
to a tape are plain immutable values, so evaluation-mode forward passes
cost nothing extra. One tape is a single-writer structure: never record
onto the same tape from two threads; independent workers each get their
own tape.
"""

from __future__ import annotations

import functools
import itertools
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


class InternalError(RuntimeError):
    """An internal invariant was violated; indicates a defect, not bad input."""


class Tensor:
    """N-dimensional real array, optionally attached to a tape node.

    ``data`` is a numpy array (float32 by default, float64 in gradient-check
    mode). ``requires_grad`` marks trainable leaves; a tensor with
    ``requires_grad=False`` never accumulates a gradient. ``tape``/``node``
    are set once the tensor is recorded on a tape, and ``name`` once
    ``bind`` makes it a parameter.
    """

    __slots__ = ("_data", "name", "requires_grad", "tape", "node")

    def __init__(self, data, requires_grad: bool = False):
        if type(data) is not np.ndarray:
            # a numpy scalar keeps its dtype; anything else takes the default
            data = np.asarray(data, None if isinstance(data, np.generic) else DEFAULT_DTYPE)
        dt = data.dtype
        self._data = data if dt == _F32 or dt == _F64 else data.astype(DEFAULT_DTYPE)
        self.name: str | None = None
        self.requires_grad = requires_grad
        self.tape: Tape | None = None
        self.node: int | None = None

    @property
    def data(self) -> np.ndarray:
        return self._data

    @data.setter
    def data(self, value: np.ndarray) -> None:
        row = self._data
        if self.name is None:
            self._data = value
        elif value.shape == row.shape and value.dtype == row.dtype:
            row[...] = value
        else:
            raise InternalError(f"parameter {self.name} is {value.dtype} of shape {value.shape}; "
                                f"its slot in the buffer is {row.dtype} of shape {row.shape}")

    def bind(self, row: np.ndarray, name: str) -> None:
        """Move ``data`` into ``row`` as the parameter ``name``: assigning ``data``
        then copies into ``row``, and rejects another shape or dtype."""
        value, self._data, self.name = self._data, row, name
        self.data = value

    @property
    def shape(self) -> tuple[int, ...]:
        return self._data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


class _Node:
    """One recorded operation: the node ids of its inputs that are on the
    tape, their positions among its inputs, and one backward rule. The rule
    maps the output gradient to a gradient, or None, for each input."""

    __slots__ = ("parents", "positions", "backward", "shape")

    def __init__(self, parents: tuple[int, ...], positions: tuple[int, ...],
                 backward: Callable | None, shape):
        self.parents = parents
        self.positions = positions
        self.backward = backward
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
        t.node = self._append(_Node((), (), None, t.data.shape))
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
            if not node.parents:
                continue
            grads = node.backward(grad)
            for parent, pos in zip(node.parents, node.positions):
                g = grads[pos]
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


def _record(tape: Tape, out: Tensor, inputs: Sequence[Tensor], backward: Callable) -> Tensor:
    """Record an op on ``tape`` (from ``_find_tape``); lazily watch grad leaves.

    ``backward(g)`` returns a gradient, or None, for each of ``inputs``; the
    tape calls it once per pass and reads the entries of inputs on the tape.
    Ops call this only when some input lives on a tape, so untaped passes
    build no backward closures at all.
    """
    parents, positions = [], []
    for i, t in enumerate(inputs):
        if t.requires_grad and t.node is None:
            tape.watch(t)
        if t.node is not None:
            parents.append(t.node)
            positions.append(i)
    out.requires_grad = True
    out.tape = tape
    out.node = tape._append(_Node(tuple(parents), tuple(positions), backward, out.data.shape))
    return out


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes of ``a`` and ``b``.

    A rank-1 ``a`` is one row against a rank-2 ``b``, as numpy's ``@``
    takes it, and the result is rank 1. Leading batch axes must be the
    same on both: each batch entry of ``a`` is multiplied by its own entry
    of ``b``.
    """
    ad, bd = a.data, b.data
    if ad.ndim < 1 or bd.ndim != max(ad.ndim, 2) or ad.shape[-1] != bd.shape[-2] \
            or ad.shape[:-2] != bd.shape[:-2]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    out = Tensor(ad @ bd)
    if (tape := _find_tape((a, b))) is None:
        return out
    if ad.ndim == 1:
        return _record(tape, out, (a, b), lambda g: (bd @ g, np.outer(ad, g)))
    return _record(tape, out, (a, b), lambda g: (g @ np.swapaxes(bd, -1, -2),
                                                 np.swapaxes(ad, -1, -2) @ g))


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
        return _record(tape, out, (a, b), lambda g: (g, g))
    n = b.shape[0]
    return _record(tape, out, (a, b), lambda g: (g, g.reshape(-1, n).sum(axis=0)))


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a non-trainable scalar constant."""
    c = a.data.dtype.type(c)
    out = Tensor(a.data * c)
    if (tape := _find_tape((a,))) is None:
        return out
    return _record(tape, out, (a,), lambda g: (g * c,))


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate along the last axis."""
    parts = list(parts)
    try:
        out = Tensor(np.concatenate([p.data for p in parts], axis=-1))
    except ValueError as e:
        shapes = ", ".join(str(p.shape) for p in parts)
        raise ShapeError(f"concat: cannot join [{shapes}] along the last axis: {e}") from None
    if (tape := _find_tape(parts)) is None:
        return out
    bounds = [0, *itertools.accumulate(p.shape[-1] for p in parts)]
    spans = list(zip(bounds, bounds[1:]))
    return _record(tape, out, parts, lambda g: [g[..., lo:hi] for lo, hi in spans])


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    if math.prod(a.shape) != math.prod(shape):
        raise ShapeError(f"reshape: cannot reshape {a.shape} to {shape}")
    out = Tensor(a.data.reshape(shape))
    if (tape := _find_tape((a,))) is None:
        return out
    in_shape = a.shape
    return _record(tape, out, (a,), lambda g: (g.reshape(in_shape),))


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    if a.data.ndim < 2:
        raise ShapeError(f"transpose: expected rank >= 2, got shape {a.shape}")
    out = Tensor(np.swapaxes(a.data, -1, -2).copy())
    if (tape := _find_tape((a,))) is None:
        return out
    return _record(tape, out, (a,), lambda g: (np.swapaxes(g, -1, -2),))


def dropout(a: Tensor, rate: float, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: scales survivors by 1/(1-rate). It runs when an
    ``rng`` is given (training) and is the identity without one."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rng is None or rate == 0.0:
        return a
    keep = (rng.random(a.shape) >= rate).astype(a.data.dtype)
    factor = keep / a.data.dtype.type(1.0 - rate)
    out = Tensor(a.data * factor)
    if (tape := _find_tape((a,))) is None:
        return out
    return _record(tape, out, (a,), lambda g: (g * factor,))


def softmax(a: Tensor) -> Tensor:
    """Normalized exponentials along the last axis, computed with
    max-subtraction."""
    x = a.data
    if x.ndim < 1:
        raise ShapeError(f"softmax: expected rank >= 1, got shape {x.shape}")
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y)
    if (tape := _find_tape((a,))) is None:
        return out
    return _record(tape, out, (a,), lambda g: (y * (g - (g * y).sum(axis=-1, keepdims=True)),))


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
        out = Tensor(np.matmul(weights[..., None, :], x)[..., 0, :])
    else:
        # one weight row serves every batch row
        weights = _mean_row(groups[-1], x.dtype)
        out = Tensor(weights @ x)
    if (tape := _find_tape((a,))) is None:
        return out
    return _record(tape, out, (a,), lambda g: (weights[..., :, None] * g[..., None, :],))


@functools.lru_cache(maxsize=256)
def _mean_row(n: int, dtype: np.dtype) -> np.ndarray:
    """n weights of 1/n, read-only, as ``mean_pool`` reads them."""
    row = np.full(n, 1.0 / n, dtype=dtype)
    row.flags.writeable = False
    return row


def cross_entropy(probs: Tensor, labels) -> Tensor:
    """Mean of -log p over the picked probabilities, as a scalar.

    ``probs`` holds one row of class probabilities per label: [C] for one
    label or [N, C] for N. Row i picks its entry ``labels[i]``, clamped
    below at 1e-12 so a saturated softmax cannot give a NaN; a clamped pick
    gets zero gradient, consistent with its clamped value. The other
    entries get zero gradient too.
    """
    floor = 1e-12
    idx = np.asarray(labels, dtype=np.int64).reshape(-1)
    n = idx.size
    p = probs.data
    if not (p.ndim == 1 and n == 1 or p.ndim == 2 and p.shape[0] == n > 0):
        raise ShapeError(f"cross_entropy: need [C] or [N, C] rows for {n} labels, "
                         f"got shape {probs.shape}")
    rows = p.reshape(n, -1)
    values = idx.tolist()
    if min(values) < 0 or max(values) >= rows.shape[1]:
        raise ShapeError(f"cross_entropy: a label is outside 0..{rows.shape[1] - 1}")
    at = np.arange(n)
    picked = rows[at, idx]
    clamped = np.maximum(picked, p.dtype.type(floor))
    c = p.dtype.type(-1.0 / n)
    out = Tensor(np.log(clamped).sum() * c)
    if (tape := _find_tape((probs,))) is None:
        return out

    def backward(g):
        d = np.zeros_like(rows)
        d[at, idx] = np.where(picked >= floor, g * c / clamped, 0.0)
        return (d.reshape(p.shape),)

    return _record(tape, out, (probs,), backward)


def sum_squares(parts: Sequence[Tensor], flat: np.ndarray) -> Tensor:
    """Sum of squared elements over a list of tensors, as one scalar node.

    ``flat`` holds the values of every part and nothing else, in any order,
    such as a flat parameter buffer that the parts' data are views of. The
    sum is one dot product over it; each part's gradient is 2 g times its
    own data.
    """
    parts = list(parts)
    if not parts:
        raise ShapeError("sum_squares: need at least one tensor")
    out = Tensor(np.asarray(np.vdot(flat, flat), dtype=parts[0].data.dtype))
    if (tape := _find_tape(parts)) is None:
        return out
    data = [p.data for p in parts]
    return _record(tape, out, parts, lambda g: [g * 2.0 * d for d in data])


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of ``table`` by integer id, for an id array of any shape;
    gradients scatter-add back."""
    if table.data.ndim != 2:
        raise ShapeError(f"embedding_lookup: table must be rank 2, got {table.shape}")
    idx = np.asarray(ids, dtype=np.int64)
    try:
        # indexing rejects ids past the end; only negative ids need a check
        if idx.size and idx.min() < 0:
            raise IndexError
        out = Tensor(table.data[idx])
    except IndexError:
        raise ShapeError(
            f"embedding_lookup: id out of range for table with {table.shape[0]} rows"
        ) from None
    if (tape := _find_tape((table,))) is None:
        return out
    shape = table.shape
    flat = idx.reshape(-1)

    def backward(g):
        full = np.zeros(shape, dtype=g.dtype)
        np.add.at(full, flat, g.reshape(-1, shape[1]))
        return (full,)

    return _record(tape, out, (table,), backward)


# ---------------------------------------------------------------------------
# fused layers: one tape node each, with hand-written backward rules


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor, blocks: Sequence[np.ndarray],
                         leaves: Sequence[Tensor], mask=None):
    """Multi-head scaled dot-product attention as one op.

    Head i attends with softmax(q wq[i] (k wk[i])^T / sqrt(d_head)) v wv[i].
    ``blocks`` is (w_q, w_kv): the query projections as one [H, d_q,
    d_head] array and the key and value projections as one [2, H, d_kv,
    d_head] array, so each role is one broadcast product for all heads and
    all batch rows (Vaswani et al. 2017), and keys and values given as one
    tensor take a single product. ``leaves`` are the 3H trainable tensors
    whose data are the blocks' rows, the wq heads first, then wk, then wv;
    the op reads only the blocks and gives each leaf its row of the block
    gradient. ``q``, ``k`` and ``v`` are [n, d], or [B, n, d] for a batch;
    they may be one tensor (self-attention).
    ``mask`` is a key mask only, [n_kv] or [B, n_kv] for a batch (True =
    attend), applied to every head and query. Masked weights are exactly
    zero, and a mask with no key left is a MaskError.

    Returns the head outputs concatenated along features, [(B,) n_q,
    H * d_head], and the attention weights as a plain [(B,) H, n_q, n_kv]
    array.
    """
    w_q, w_kv = blocks
    heads, d_head = w_q.shape[0], w_q.shape[-1]
    if w_q.ndim != 3 or w_kv.ndim != 4 or w_kv.shape[:2] != (2, heads) \
            or w_kv.shape[3] != d_head or len(leaves) != 3 * heads:
        raise ShapeError(
            "multi_head_attention: need [H, d_q, d_head] and [2, H, d_kv, d_head] blocks "
            "with one H and d_head, and 3H leaves"
        )
    q2, k2, v2 = q.data, k.data, v.data
    shapes = q2.shape, k2.shape, v2.shape
    q_shape, k_shape, v_shape = shapes
    rank = len(q_shape)
    if rank not in (2, 3) or len(k_shape) != rank or len(v_shape) != rank:
        raise ShapeError("multi_head_attention: attention operands must be rank 2, "
                         "or rank 3 with a batch axis")
    b = q_shape[0] if rank == 3 else 1
    n_kv = k_shape[-2]
    if k_shape[:-2] != q_shape[:-2] or v_shape[:-2] != q_shape[:-2]:
        raise ShapeError("multi_head_attention: batch sizes differ: "
                         f"{q_shape}, {k_shape}, {v_shape}")
    if v_shape[-2] != n_kv:
        raise ShapeError(f"multi_head_attention: key count {n_kv} != value count {v_shape[-2]}")
    if rank == 3:
        # the batch folds into the rows of each projection
        q2, k2, v2 = q2.reshape(-1, q2.shape[-1]), k2.reshape(-1, k2.shape[-1]), \
            v2.reshape(-1, v2.shape[-1])
    try:
        # [rows, d] against [H, d, d_head] give [H, rows, d_head]
        qh = np.matmul(q2, w_q)
        kh, vh = np.matmul(k2, w_kv) if k is v else (np.matmul(k2, w_kv[0]),
                                                     np.matmul(v2, w_kv[1]))
    except ValueError as e:
        raise ShapeError(f"multi_head_attention: {e}") from None
    if rank == 3:
        # [H, b, n, d_head]; each head output goes back beside the others
        qh, kh, vh = (a.reshape(heads, b, -1, d_head) for a in (qh, kh, vh))
        heads_last, heads_first = (1, 2, 0, 3), (2, 0, 1, 3)
    else:
        heads_last = heads_first = (1, 0, 2)
    c = 1.0 / math.sqrt(d_head)
    scores = qh @ kh.swapaxes(-1, -2)
    scores *= c
    if mask is not None:
        m = np.asarray(mask)
        want = (n_kv,) if rank == 2 else (b, n_kv)
        if m.dtype != np.bool_ or m.shape != want:
            raise ShapeError(f"multi_head_attention: mask must be boolean of shape {want}, "
                             f"got {m.shape}")
        if not m.any(axis=-1).all():
            raise MaskError("multi_head_attention: a query has every key masked")
        scores = np.where(m if rank == 2 else m[:, None], scores, -np.inf)
    scores -= scores.max(axis=-1, keepdims=True)
    attn = np.exp(scores, out=scores)
    attn /= attn.sum(axis=-1, keepdims=True)
    out = Tensor((attn @ vh).transpose(heads_last).reshape(q_shape[:-1] + (heads * d_head,)))
    weights = attn.transpose(1, 0, 2, 3) if rank == 3 else attn
    inputs = (q, k, v, *leaves)
    if (tape := _find_tape(inputs)) is None:
        return out, weights

    def backward(g):
        g_heads = g.reshape(q_shape[:-1] + (heads, d_head)).transpose(heads_first)
        d_attn = g_heads @ vh.swapaxes(-1, -2)
        d_scores = attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True)) * c
        d_heads = (d_scores @ kh, d_scores.swapaxes(-1, -2) @ qh,
                   attn.swapaxes(-1, -2) @ g_heads)
        d_inputs, d_leaves = [], []
        for x, w, d, shape in zip((q2, k2, v2), (w_q, *w_kv), d_heads, shapes):
            d = d.reshape(heads, -1, d_head)
            d_inputs.append(np.matmul(d, w.swapaxes(1, 2)).sum(axis=0).reshape(shape))
            d_leaves.extend(np.matmul(x.T, d))
        return d_inputs + d_leaves

    return _record(tape, out, inputs, backward), weights


def squash(s: Tensor) -> Tensor:
    """Each row (the last axis) of ``s`` squashed into a capsule: its norm
    mapped into [0, 1), its direction kept. The rule is ``_squash``, which
    ``capsule_region_attention`` shares."""
    x = s.data
    if x.ndim < 1:
        raise ShapeError(f"squash: expected rank >= 1, got shape {s.shape}")
    v, u, coef = _squash(x)
    out = Tensor(v)
    if (tape := _find_tape((s,))) is None:
        return out
    return _record(tape, out, (s,), lambda g: (_squash_grad(g, x, u, coef),))


def _squash(s: np.ndarray):
    """Rows (the last axis) of ``s`` squashed to v = |s|^2 / (1 + |s|^2)
    s / |s| (Sabour et al. 2017, arXiv:1710.09829): row norms lie in
    [0, 1), directions are kept, and a zero row stays zero, with zero
    gradient there. Returns v with the squared norms u = |s|^2 and the
    coefficients |s| / (1 + u) that ``_squash_grad`` reads."""
    u = (s * s).sum(axis=-1, keepdims=True)
    coef = np.sqrt(u) / (1.0 + u)  # 0 for a zero row
    return coef * s, u, coef


def _squash_grad(g: np.ndarray, s: np.ndarray, u: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """The gradient ``g`` of ``_squash``'s v taken back to ``s``."""
    nonzero = u > 0
    safe_u = np.where(nonzero, u, 1.0)
    # d(coef)/d(u) for the chain through u = |s|^2
    dcoef = np.where(
        nonzero, (1.0 - safe_u) / (2.0 * np.sqrt(safe_u) * (1.0 + safe_u) ** 2), 0.0
    ).astype(s.dtype)
    inner = (g * s).sum(axis=-1, keepdims=True)
    return coef * g + 2.0 * dcoef * inner * s


def capsule_region_attention(grids, w_cap: Tensor, b_cap: Tensor, query: Tensor, w_r: Tensor):
    """Squashed capsules and one query's attention over the same region
    grids, as one op that reads each grid once.

    For a grid r [n, C] the capsules are the rows of s = r w_cap + b_cap
    [n, K], each squashed by ``_squash``. The query q [a] attends over the
    projected regions as softmax(q (r w_r)^T / sqrt(a)) (r w_r), without
    forming the [n, a] keys: the key projection folds into the query,
    q~ = w_r q [C], and is applied once after pooling, so the output is
    (weights r) w_r (the weight absorption of DeepSeek-V2,
    arXiv:2405.04434). The capsule product and the scores are one product,
    [w_cap^T; q~] r^T [K + 1, n], followed by the softmax and the pooled
    regions, all while the grid is in cache.

    ``grids`` is a list of B grids, each an [n, C] array, used as it is, or
    a function ``read(out)`` that returns the grid as an [n, C] array and
    may use ``out`` (None, or an array an earlier function returned) as its
    storage. Without a tape one such array serves every grid, so no
    [B, n, C] array is formed; under a tape each grid keeps its own, for
    the backward pass. The grids are constants: they get no gradient.
    ``query`` is [B, a], or [a] with one grid, whose outputs then have no
    batch axis. Returns the squashed capsules [(B,) n, K], the attended
    vector [(B,) a] and the region weights as a plain [(B,) n] array. The
    two outputs are two tape nodes; the second hands its gradient to the
    first, which runs the joint backward.
    """
    b = len(grids)
    if not b or w_cap.data.ndim != 2 or w_r.data.ndim != 2 or b_cap.shape != w_cap.shape[1:] \
            or w_r.shape[0] != w_cap.shape[0] \
            or query.shape not in ((b, w_r.shape[1]), (w_r.shape[1],) if b == 1 else None):
        raise ShapeError(
            f"capsule_region_attention: weights {w_cap.shape}, {b_cap.shape}, {w_r.shape} "
            f"and query {query.shape} do not fit {b} grid(s)"
        )
    lead = query.shape[:-1]
    inputs = (w_cap, b_cap, query, w_r)
    tape = _find_tape(inputs)
    (width, k), dtype = w_cap.shape, w_cap.data.dtype
    qd, wd = query.data.reshape(b, -1), w_r.data
    c = 1.0 / math.sqrt(wd.shape[1])
    qk = qd @ wd.T
    # [w_cap^T; q~] for the grid at hand
    lhs = np.empty((k + 1, width), dtype=dtype)
    lhs[:k] = w_cap.data.T
    kept, buf = [], None
    for i, src in enumerate(grids):
        if callable(src):
            r = buf = src(buf if tape is None else None)
        else:
            r = src
        if i == 0:
            n = r.shape[0] if r.ndim == 2 else -1
        if r.shape != (n, width):
            raise ShapeError(f"capsule_region_attention: grid {i} is {r.shape}, "
                             f"expected [{n if n > 0 else 'n'}, {width}]")
        if i == 0:
            s = np.empty((b, n, k), dtype=dtype)
            attn = np.empty((b, n), dtype=dtype)
            pooled = np.empty((b, width), dtype=dtype)
        lhs[k] = qk[i]
        prod = lhs @ r.T
        np.add(prod[:k].T, b_cap.data, out=s[i])
        e = prod[k] * c
        e -= e.max()
        np.exp(e, out=e)
        np.divide(e, e.sum(), out=attn[i])
        pooled[i] = attn[i] @ r
        if tape is not None:
            kept.append(r)
    s = s.reshape(lead + s.shape[1:])
    v, u, coef = _squash(s)
    v_out = Tensor(v)
    out = Tensor((pooled @ wd).reshape(query.shape))
    weights = attn.reshape(lead + (n,))
    if tape is None:
        return v_out, out, weights
    # backward rules hold arrays and shapes, never tensors, so nothing on
    # the tape points back at it
    q_shape, stash = query.shape, []

    def backward(g):
        g_s = _squash_grad(g, s, u, coef).reshape(b, n, k)
        g_out = stash.pop() if stash else None
        if g_out is not None:
            g2 = g_out.reshape(b, -1)
            d_pooled = g2 @ wd.T
            d_qk = np.empty((b, width), dtype=dtype)
        d_wcap_t = np.zeros((k, width), dtype=dtype)
        # [g_s^T; d_scores] for the grid at hand
        lhs_g = np.empty((k + (g_out is not None), n), dtype=dtype)
        for i, r in enumerate(kept):
            lhs_g[:k] = g_s[i].T
            if g_out is not None:
                d_attn = r @ d_pooled[i]
                lhs_g[k] = attn[i] * (d_attn - d_attn @ attn[i]) * c
            prod = lhs_g @ r
            d_wcap_t += prod[:k]
            if g_out is not None:
                d_qk[i] = prod[k]
        grads = [np.ascontiguousarray(d_wcap_t.T), g_s.sum(axis=(0, 1))]
        if g_out is None:
            return grads + [None, None]
        # both products into w_r as one matrix product with 2b inner terms
        return grads + [(d_qk @ wd).reshape(q_shape),
                        np.concatenate([pooled, d_qk]).T @ np.concatenate([g2, qd])]

    head = _record(tape, v_out, inputs, backward)
    zero, v_shape = np.zeros((), dtype=dtype), head.shape

    def hand_off(g):
        stash.append(g)
        return (np.broadcast_to(zero, v_shape),)

    return v_out, _record(tape, out, (v_out,), hand_off), weights


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # the tanh form cannot overflow, for any sign or magnitude
    return 0.5 * np.tanh(0.5 * x) + 0.5


def gru_sequence(x: Tensor, h0: Tensor | None, blocks: Sequence[np.ndarray],
                 leaves: Sequence[Tensor]) -> Tensor:
    """A GRU run over the rows of ``x`` as one op, for one direction.

    ``blocks`` is (w, u, b): the input weights [3, d_x, d_h], the
    recurrent weights [3, d_h, d_h] and the biases [3, d_h] of the update
    gate z, the reset gate r and the candidate, one row each in that order.
    ``leaves`` are the 9 trainable tensors whose data are the blocks' rows,
    the three of w first, then u, then b; the op reads only the blocks and
    gives each leaf its row of the block gradient. Step t reads row t of
    ``x`` and updates the state h:

        z = sigmoid(x_t wz + h uz + bz)    r = sigmoid(x_t wr + h ur + br)
        cand = tanh(x_t wh + (r * h) uh + bh)    h' = h + z * (cand - h)

    The input projections of every step are one matmul (Appleyard et al.
    2016), and backpropagation through time is written out in ``_gru``.
    ``h0`` is the initial state (None: zeros). ``x`` is [m, d_x], or
    [B, m, d_x] for a batch, where ``h0`` gains the same leading B. Returns
    the state after each row, [(B,) m, d_h].
    """
    return _gru("gru_sequence", x, h0, blocks, leaves, (False,), None, None)


def bigru_sequence(x: Tensor, blocks: Sequence[np.ndarray], leaves: Sequence[Tensor],
                   context: Tensor | None = None, mask=None) -> Tensor:
    """Both directions of a bidirectional GRU as one op: ``gru_sequence``
    from a zero state over the rows of ``x``, and again over them reversed,
    from the last row to the first. ``blocks`` holds both directions'
    gates, the forward rows first: [6, d_x + d_ctx, d_h], [6, d_h, d_h]
    and [6, d_h], with 18 ``leaves`` in block order.

    Each step reads its row of ``x`` followed by ``context``, one vector
    per sequence shared by every step ([(B,) d_ctx], or None), which adds
    one row product per direction. ``mask`` ([(B,) m]) marks real steps; a
    masked step keeps the state as it is, so rows padded at the end leave
    both directions exact. The directions step together, one [2, ...]
    state against both directions' blocks, so a step costs one pass of
    array calls instead of two. Returns both states of each row side by
    side, [(B,) m, 2 d_h], the forward state first.
    """
    return _gru("bigru_sequence", x, None, blocks, leaves, (False, True), context, mask)


def _reverse_steps(a: np.ndarray, reverse) -> None:
    """Flip the step axis (0) of each reversed direction (axis 1) of ``a``
    in place; row order becomes step order and back again."""
    for j, rev in enumerate(reverse):
        if rev:
            a[:, j] = a[::-1, j]


def _gru(name, x, h0, blocks, leaves, reverse, context, mask) -> Tensor:
    """GRU directions j = 0..D-1 over the rows of ``x``, stepped together.

    Inside, arrays are step-major and gate-major, [m, D, gates, b, d_h]:
    step s of a reversed direction reads row m-1-s. Returns the states in
    row order, the directions side by side on the last axis.
    """
    dirs = len(reverse)
    rank = x.data.ndim
    if rank not in (2, 3) or x.shape[-2] < 1:
        raise ShapeError(
            f"{name}: input must be [m x d] or [B x m x d] with m >= 1, got {x.shape}"
        )
    xd = x.data if rank == 3 else x.data[None]
    b, m, d_x = xd.shape
    lead = x.shape[:-2]
    if context is not None and (context.data.ndim != rank - 1 or context.shape[:-1] != lead):
        raise ShapeError(
            f"{name}: context must be one vector per input sequence, got {context.shape}"
        )
    d_ctx = 0 if context is None else context.shape[-1]
    w_all, u_all, bias = blocks
    rows, d_h = 3 * dirs, bias.shape[-1] if bias.ndim else 0
    if w_all.shape != (rows, d_x + d_ctx, d_h) or u_all.shape != (rows, d_h, d_h) \
            or bias.shape != (rows, d_h) or len(leaves) != 3 * rows:
        raise ShapeError(
            f"{name}: need {rows} gate rows and {3 * rows} leaves that fit input width "
            f"{d_x + d_ctx} and state width {d_h}"
        )
    if h0 is not None and h0.shape != lead + (d_h,):
        raise ShapeError(
            f"{name}: initial state must have shape {lead + (d_h,)}, got {h0.shape}"
        )
    keep = None
    if mask is not None:
        mk = np.asarray(mask)
        if mk.dtype != np.bool_ or mk.shape != x.shape[:-1]:
            raise ShapeError(f"{name}: mask must be boolean of shape {x.shape[:-1]}")
        keep = np.empty((m, dirs, 1, b, 1), dtype=xd.dtype)
        keep[...] = mk.reshape(b, m).T[:, None, None, :, None]
        _reverse_steps(keep, reverse)
    # [D, 3, d, d_h] views
    w = w_all.reshape(dirs, 3, -1, d_h)
    u = u_all.reshape(dirs, 3, d_h, d_h)
    w_x, w_ctx = w[:, :, :d_x], w[:, :, d_x:]
    u_zr, u_c = u[:, :2], u[:, 2:]
    # rows of every step, time-major, projected at once: [D, 3, m * b, d_h]
    x2 = xd.transpose(1, 0, 2).reshape(m * b, d_x)
    proj = np.matmul(x2, w_x) + bias.reshape(dirs, 3, 1, d_h)
    steps_proj = proj.reshape(dirs, 3, m, b, d_h).transpose(2, 0, 1, 3, 4)
    ctx = None if context is None else context.data.reshape(b, d_ctx)
    if ctx is not None:
        steps_proj += np.matmul(ctx, w_ctx)
    _reverse_steps(steps_proj, reverse)
    p_zr, p_c = steps_proj[:, :, :2], steps_proj[:, :, 2:]
    if h0 is None:
        h = np.zeros((dirs, 1, b, d_h), dtype=xd.dtype)
    else:
        h = h0.data.reshape(1, 1, b, d_h)
    inputs = [x] + [t for t in (h0, context) if t is not None] + list(leaves)
    tape = _find_tape(inputs)
    states = np.empty((m, dirs, 1, b, d_h), dtype=proj.dtype)
    if tape is not None:
        # what the backward pass reads: each step's incoming state and gates
        prev = np.empty_like(states)
        gates = np.empty((m, dirs, 2, b, d_h), dtype=proj.dtype)
        cands = np.empty_like(states)
    for s in range(m):
        zr = _sigmoid(p_zr[s] + h @ u_zr)
        cand = np.tanh(p_c[s] + (zr[:, 1:] * h) @ u_c)
        if tape is not None:
            prev[s], gates[s], cands[s] = h, zr, cand
        z = zr[:, :1] if keep is None else zr[:, :1] * keep[s]
        h = h + z * (cand - h)
        states[s] = h
    _reverse_steps(states, reverse)
    out = Tensor(states.transpose(3, 0, 1, 2, 4).reshape(x.shape[:-1] + (dirs * d_h,)))
    if tape is None:
        return out
    x_shape = x.shape
    h0_shape = None if h0 is None else h0.shape
    ctx_shape = None if context is None else context.shape

    def backward(g):
        # the steps run with each direction's gates side by side, [D, b, 3 d_h],
        # so one product per step takes the state gradient through z and r
        g = g.reshape(b, m, dirs, d_h).transpose(1, 2, 0, 3).copy()
        _reverse_steps(g, reverse)
        zrs = gates.transpose(0, 1, 3, 2, 4).reshape(m, dirs, b, 2 * d_h)
        cs, hps = cands.reshape(m, dirs, b, d_h), prev.reshape(m, dirs, b, d_h)
        ks = None if keep is None else keep.reshape(m, dirs, b, 1)
        d_proj = np.empty((m, dirs, b, 3 * d_h), dtype=g.dtype)
        d_h_next = np.zeros((dirs, b, d_h), dtype=g.dtype)
        # the z and r rows transposed and stacked, [D, 2 d_h, d_h]
        u_zr_t = u_zr.swapaxes(-1, -2).reshape(dirs, 2 * d_h, d_h)
        u_c_t = u_c[:, 0].swapaxes(-1, -2)
        for s in range(m - 1, -1, -1):
            dh = g[s] + d_h_next
            zr, cand, hp = zrs[s], cs[s], hps[s]
            z, r = zr[..., :d_h], zr[..., d_h:]
            d_z = dh * (cand - hp)
            if ks is not None:
                z, d_z = z * ks[s], d_z * ks[s]
            d_c = dh * z * (1.0 - cand * cand)
            d_rh = d_c @ u_c_t
            d_zr = np.concatenate([d_z, d_rh * hp], axis=-1) * zr * (1.0 - zr)
            d_h_next = dh * (1.0 - z) + d_rh * r + d_zr @ u_zr_t
            d_proj[s, ..., : 2 * d_h] = d_zr
            d_proj[s, ..., 2 * d_h :] = d_c

        def per_dir(a):
            # [m, D, b, w] -> [D, m * b, w]
            return a.transpose(1, 0, 2, 3).reshape(dirs, m * b, a.shape[-1])

        def gate_major(a):
            # [D, n, 3 d_h] -> [D, 3, n, d_h], a view
            return a.reshape(dirs, a.shape[1], 3, d_h).transpose(0, 2, 1, 3)

        # the products below give the block gradients gate-major and contiguous
        d_steps = gate_major(per_dir(d_proj))
        d_bias = d_steps.sum(axis=2)
        d_u = np.concatenate([per_dir(hps).swapaxes(1, 2)[:, None] @ d_steps[:, :2],
                              per_dir(zrs[..., d_h:] * hps).swapaxes(1, 2)[:, None]
                              @ d_steps[:, 2:]], axis=1)
        _reverse_steps(d_proj, reverse)
        d_rows = gate_major(per_dir(d_proj))
        d_w = np.matmul(x2.T, d_rows)
        if ctx is not None:
            d_ctx_proj = gate_major(d_proj.sum(axis=0))
            d_w = np.concatenate([d_w, np.matmul(ctx.T, d_ctx_proj)], axis=2)
        d_xs = np.matmul(d_rows, w_x.swapaxes(-1, -2)).sum(axis=(0, 1))
        grads = [d_xs.reshape(m, b, d_x).transpose(1, 0, 2).reshape(x_shape)]
        if h0_shape is not None:
            grads.append(d_h_next.reshape(h0_shape))
        if ctx is not None:
            grads.append(np.matmul(d_ctx_proj, w_ctx.swapaxes(-1, -2)).sum(axis=(0, 1))
                         .reshape(ctx_shape))
        # each leaf's gradient is a contiguous row of its block's
        for d in (d_w, d_u, d_bias):
            grads.extend(d.reshape((rows,) + d.shape[2:]))
        return grads

    return _record(tape, out, inputs, backward)
