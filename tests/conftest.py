"""Shared oracles for the test suites.

``fd_check`` compares tape gradients against a central finite-difference
oracle that never touches the tape (the function under test is re-run on
plain detached tensors). ``loop_collate`` pads encoded samples into a batch
one row at a time: the reference ``make_batches`` is checked against, and
the way tests batch ``EncodedSample``s. ``mha_loop_reference`` is the
independent per-head numpy implementation the batched attention is checked
against, and ``forward_loss_reference`` is the whole forward pass plus loss
in plain numpy, the yardstick for the engine's speed in the gradient gate.
"""

import os

# Tier-1 runs numpy on one BLAS thread, as the benchmark does; set before
# numpy loads, and an explicit setting in the environment wins
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from efnet import tensor as tx
from efnet.data import FEATURE_SHAPE, PAD_INDEX, Batch, EncodedSample
from efnet.layers import REGION_COUNT
from efnet.gradcheck import fd_gradient, max_rel_error
from efnet.model import EFNetParams, ModelConfig
from efnet.tensor import Tape, Tensor

GRAD_TOL = 1e-4


def tiny_config(**overrides) -> ModelConfig:
    """Smallest config the full pipeline runs at; double precision for oracles."""
    base = dict(
        embed_dim=8, hidden_dim=8, head_count=2, capsule_dim=4, att_dim=8,
        dropout=0.0, l2_lambda=0.0, max_len=8, text_only=False, seed=0,
        precision="double",
    )
    base.update(overrides)
    return ModelConfig(**base)


def tiny_params(cfg, rng, vocab=10) -> EFNetParams:
    matrix = rng.uniform(-0.1, 0.1, (vocab, cfg.embed_dim)).astype(cfg.dtype)
    matrix[0] = 0.0
    return EFNetParams.create(cfg, rng, Tensor(matrix, requires_grad=True))


def tiny_sample(cfg, rng, n=4, span=(1, 3), label=1, vocab=10) -> EncodedSample:
    features = None
    if not cfg.text_only:
        features = rng.uniform(0.0, 1.0, FEATURE_SHAPE).astype(cfg.dtype)
    return EncodedSample(
        id="t0",
        token_ids=rng.integers(2, vocab, size=n),
        mask=np.ones(n, dtype=bool),
        span=span,
        aspect_ids=rng.integers(2, vocab, size=2),
        label=label,
        features=features,
    )


def ragged_samples(cfg, rng, count=5, vocab=10):
    """Samples that pad in every direction when batched: token counts 3-7,
    target widths 1-3 and aspect lengths 1-3, all differing row to row."""
    out = []
    for i in range(count):
        n = 3 + (2 * i) % 5
        width = 1 + i % 3
        start = int(rng.integers(0, n - width + 1))
        sample = tiny_sample(cfg, rng, n=n, span=(start, start + width),
                             label=int(rng.integers(0, 3)), vocab=vocab)
        sample.id = f"r{i}"
        sample.aspect_ids = rng.integers(2, vocab, size=1 + (i + 1) % 3)
        out.append(sample)
    return out


def loop_collate(encoded):
    """Reference batch: the samples padded one row at a time."""
    def pad(rows, masks=None):
        width = max(len(r) for r in rows)
        ids = np.full((len(rows), width), PAD_INDEX, dtype=np.int64)
        mask = np.zeros((len(rows), width), dtype=bool)
        for i, r in enumerate(rows):
            ids[i, : len(r)] = r
            mask[i, : len(r)] = True if masks is None else masks[i]
        return ids, mask

    token_ids, mask = pad([e.token_ids for e in encoded], [e.mask for e in encoded])
    target_ids, target_mask = pad([e.token_ids[e.span[0] : e.span[1]] for e in encoded])
    aspect_ids, aspect_mask = pad([e.aspect_ids for e in encoded])
    return Batch(
        ids=[e.id for e in encoded], token_ids=token_ids, mask=mask,
        spans=np.array([e.span for e in encoded], dtype=np.int64),
        target_ids=target_ids, target_mask=target_mask,
        aspect_ids=aspect_ids, aspect_mask=aspect_mask,
        labels=np.array([e.label for e in encoded], dtype=np.int64),
        features=[e.features for e in encoded],
    )


def rand(rng, *shape):
    return rng.standard_normal(shape)


def weighted_sum(t, w):
    """Σ t·w as a scalar tensor, one matmul of the flattened ``t`` against
    ``w`` as a column."""
    n = t.data.size
    return tx.reshape(tx.matmul(tx.reshape(t, (n,)), Tensor(np.reshape(w, (n, 1)))), ())


def total(t):
    """Σ t as a scalar tensor."""
    return weighted_sum(t, np.ones(t.shape, dtype=t.data.dtype))


def fd_check(op, *arrays, seed=0, tol=GRAD_TOL):
    """Tape gradients of a weighted readout of ``op`` vs central differences."""
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    rng = np.random.default_rng(seed)

    tape = Tape()
    leaves = [tape.watch(Tensor(a.copy(), requires_grad=True)) for a in arrays]
    out = op(*leaves)
    if out.data.ndim == 0:
        w = None
        loss = out
    else:
        w = rng.standard_normal(out.shape)
        loss = weighted_sum(out, w)
    grads = tape.backward(loss)

    def f(*arrs):
        res = op(*[Tensor(a) for a in arrs])
        if w is None:
            return float(res.data)
        return float((res.data * w).sum())

    numeric = fd_gradient(f, arrays)
    for leaf, num in zip(leaves, numeric):
        err = max_rel_error(grads[leaf], num)
        assert err < tol, f"gradient mismatch {err:.2e} for {op}"


def softmax_rows(x, keep=None):
    """Softmax over the last axis; ``keep`` masks entries (True = keep)."""
    if keep is not None:
        x = np.where(keep, x, -np.inf)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def mha_loop_reference(q, k, v, wqs, wks, wvs):
    """Head-by-head attention in plain numpy, concatenated along features."""
    outs = []
    for wq, wk, wv in zip(wqs, wks, wvs):
        qi, ki, vi = q @ wq, k @ wk, v @ wv
        scores = qi @ ki.T / np.sqrt(qi.shape[1])
        outs.append(softmax_rows(scores) @ vi)
    return np.concatenate(outs, axis=-1)


def _mha_reference(q, k, v, mha, keep=None):
    """All heads at once, the per-head projections stacked to [H, d, d_head]."""
    wq = np.stack([w.data for w in mha.wq])
    wk = np.stack([w.data for w in mha.wk])
    wv = np.stack([w.data for w in mha.wv])
    qh, kh, vh = q @ wq, k @ wk, v @ wv
    attn = softmax_rows(qh @ kh.transpose(0, 2, 1) / np.sqrt(qh.shape[2]), keep)
    return (attn @ vh).transpose(1, 0, 2).reshape(q.shape[0], -1)


def gru_reference(x, gru, reverse=False, h0=None):
    """One GRU direction over the rows of ``x`` from state ``h0`` (None:
    zeros), in plain numpy; returns the states in row order."""
    d_h = gru.uz.data.shape[0]
    xz = x @ gru.wz.data + gru.bz.data
    xr = x @ gru.wr.data + gru.br.data
    xh = x @ gru.wh.data + gru.bh.data
    h = np.zeros(d_h) if h0 is None else h0
    states = np.empty((x.shape[0], d_h))
    for t in (reversed(range(x.shape[0])) if reverse else range(x.shape[0])):
        z = 1.0 / (1.0 + np.exp(-(xz[t] + h @ gru.uz.data)))
        r = 1.0 / (1.0 + np.exp(-(xr[t] + h @ gru.ur.data)))
        cand = np.tanh(xh[t] + (r * h) @ gru.uh.data)
        h = (1.0 - z) * h + z * cand
        states[t] = h
    return states


def forward_loss_reference(sample, params, cfg):
    """What ``model.forward`` plus ``model.loss`` compute for one sample, in
    plain numpy: no tape and no ``efnet.tensor``. Every parameter's ``.data``
    is read afresh on each call. Dropout is off; ``sample.features`` must be
    an array, not a path."""
    ids = np.asarray(sample.token_ids)
    keep = np.asarray(sample.mask, dtype=bool)
    start, end = sample.span
    table = params.embed.data

    idx = np.arange(len(ids))
    dist = np.where(idx < start, idx - start, np.where(idx >= end, idx - (end - 1), 0))
    clip = params.pos.clip
    pos = params.pos.rows.data[np.clip(dist, -clip, clip) + clip]
    x = np.concatenate([table[ids], pos], axis=1)
    h_c = _mha_reference(x, x, x, params.ctx_mhsa, keep)
    h_avg_c = h_c[keep].mean(axis=0)

    target = table[ids[start:end]]
    aspect = table[np.asarray(sample.aspect_ids)].mean(axis=0)
    xt = np.concatenate([target, np.tile(aspect, (len(target), 1))], axis=1)
    h_ta = np.concatenate([gru_reference(xt, params.gru_fwd),
                           gru_reference(xt, params.gru_bwd, reverse=True)], axis=1)

    h_tac = _mha_reference(h_ta, h_c, h_c, params.inter_ctx, keep)
    tail = []
    values = h_tac
    if not cfg.text_only:
        regions = np.asarray(sample.features).reshape(REGION_COUNT, -1)
        s = regions @ params.capsule.w.data + params.capsule.b.data
        norm2 = (s * s).sum(axis=1, keepdims=True)
        h_i = s * np.sqrt(norm2) / (1.0 + norm2)
        query = h_ta.mean(axis=0) @ params.img_w_ta.data
        keys = regions @ params.img_w_r.data
        tail.append(softmax_rows(keys @ query / np.sqrt(query.shape[0])) @ keys)
        values = _mha_reference(h_ta, h_i, h_i, params.inter_img)
    h_taci = _mha_reference(h_ta, h_tac, values, params.fusion)
    fused = np.concatenate([h_avg_c, h_taci.mean(axis=0), *tail])
    probs = softmax_rows(fused @ params.cls_w.data + params.cls_b.data)
    loss = -np.log(max(probs[sample.label], 1e-12))
    if cfg.l2_lambda:
        loss += cfg.l2_lambda * sum(np.vdot(p.data, p.data)
                                    for _, p in params.named_parameters())
    return float(loss)
