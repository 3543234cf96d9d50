"""The full network: context self-attention, target/aspect Bi-GRU, capsule
visual encoding, image-region attention, cross-modal interaction, fusion,
and the softmax classifier, plus the training loss and checkpoint I/O.

Every trainable tensor is reachable through ``EFNetParams.named_parameters``
under a stable name; the optimizer, the L2 term, and the checkpoint format
all cover exactly that list. Its tensors are views into one flat
``ParamBuffer``, which the L2 term and the optimizer read whole. In
text_only mode the visual parameters are never created, so their gradients
are structurally absent rather than zero.
``forward`` runs a whole padded batch at once, [B, ...] per stage; a single
encoded sample runs the same stages without the batch axis.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import layers as ly
from . import tensor as tx
from .data import Batch, FormatError, InputError, load_image_features
from .layers import (
    REGION_COUNT,
    CapsuleParams,
    ConfigError,
    GRUParams,
    InternalError,
    MHAParams,
    ParamBuffer,
    PositionTable,
)
from .tensor import MaskError, ShapeError, TapeError, Tensor

NUM_CLASSES = 3

CHECKPOINT_MAGIC = b"EFCK"
CHECKPOINT_VERSION = 1


class CheckpointMismatch(ValueError):
    """Checkpoint contents disagree with the model's parameter names/shapes."""


@dataclass
class ModelConfig:
    embed_dim: int = 50
    hidden_dim: int = 32
    head_count: int = 4
    capsule_dim: int = 16
    att_dim: int = 32
    dropout: float = 0.3
    l2_lambda: float = 1e-5
    max_len: int = 36
    text_only: bool = False
    seed: int = 0
    precision: str = "single"

    @property
    def dtype(self):
        return np.float64 if self.precision == "double" else np.float32

    @property
    def context_width(self) -> int:
        # word and position embeddings share a width and are concatenated
        return 2 * self.embed_dim

    @property
    def target_width(self) -> int:
        return 2 * self.hidden_dim

    @property
    def fused_width(self) -> int:
        base = self.context_width + self.target_width
        return base if self.text_only else base + self.att_dim

    def validate(self, name=str) -> None:
        """Range-check every field; raises ``ConfigError``. ``name`` maps a
        field to the text its error starts with, the field itself by default."""
        counts = ("embed_dim", "hidden_dim", "head_count", "capsule_dim", "att_dim", "max_len")
        for field, ok, rule in (
            *((f, getattr(self, f) >= 1, ">= 1") for f in counts),
            ("dropout", 0.0 <= self.dropout < 1.0, "in [0, 1)"),
            ("l2_lambda", 0.0 <= self.l2_lambda < math.inf, "finite and >= 0"),
            ("seed", self.seed >= 0, ">= 0"),
            ("precision", self.precision in ("single", "double"), "single or double"),
        ):
            if not ok:
                raise ConfigError(f"{name(field)} must be {rule}, got {getattr(self, field)!r}")
        for width, what in ((self.context_width, "context"), (self.target_width, "target")):
            if width % self.head_count != 0:
                raise ConfigError(f"{name('head_count')} = {self.head_count} does not divide "
                                  f"the {what} width {width}")


@dataclass
class AttentionTrace:
    """Detached attention weights captured during one forward pass."""

    interaction_heads: list
    fusion_heads: list
    image_grid: np.ndarray | None


@dataclass
class ForwardOutput:
    probs: Tensor
    logits: Tensor
    trace: AttentionTrace | None = None


@dataclass
class EFNetParams:
    embed: Tensor
    pos: PositionTable
    ctx_mhsa: MHAParams
    gru_fwd: GRUParams
    gru_bwd: GRUParams
    inter_ctx: MHAParams
    fusion: MHAParams
    cls_w: Tensor
    cls_b: Tensor
    capsule: CapsuleParams | None = None
    inter_img: MHAParams | None = None
    img_w_ta: Tensor | None = None
    img_w_r: Tensor | None = None
    buffer: ParamBuffer = field(init=False, repr=False, compare=False)
    _named: list | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        # Every parameter moves into one flat buffer. A multi-head role stays
        # one [H, d, d_head] block, now a slice of this buffer, and its
        # MHAParams reads the block there.
        named = self.named_parameters()
        mhas = [m for m in (self.ctx_mhsa, self.inter_ctx, self.inter_img, self.fusion)
                if m is not None]
        in_mha = {id(w) for m in mhas for w in m.buffer.tensors}
        names = {id(p): name for name, p in named}
        groups = [[(name, p)] for name, p in named if id(p) not in in_mha]
        first = len(groups)
        for m in mhas:
            groups += [[(names[id(w)], w) for w in ws] for ws in (m.wq, m.wk, m.wv)]
        self.buffer = ParamBuffer.pack(groups)
        for i, m in enumerate(mhas):
            m.buffer = self.buffer.part(first + 3 * i, first + 3 * i + 3)

    @classmethod
    def create(cls, config: ModelConfig, rng, embed_matrix: Tensor) -> "EFNetParams":
        config.validate()
        dtype = config.dtype
        if embed_matrix.data.ndim != 2 or embed_matrix.shape[1] != config.embed_dim:
            raise ConfigError(
                f"embedding matrix is {embed_matrix.shape}, expected [V x {config.embed_dim}]"
            )
        if embed_matrix.data.dtype != dtype:
            embed_matrix = Tensor(embed_matrix.data.astype(dtype), requires_grad=True)
        d_c = config.context_width
        d_t = config.target_width
        # the draws keep this order, so a seed gives the same weights
        fields = dict(
            embed=embed_matrix,
            pos=PositionTable.create(rng, config.max_len, config.embed_dim, dtype),
            ctx_mhsa=MHAParams.create(rng, config.head_count, d_c, d_c, d_c, dtype),
            gru_fwd=GRUParams.create(rng, d_c, config.hidden_dim, dtype),
            gru_bwd=GRUParams.create(rng, d_c, config.hidden_dim, dtype),
            inter_ctx=MHAParams.create(rng, config.head_count, d_t, d_c, d_t, dtype),
            fusion=MHAParams.create(rng, config.head_count, d_t, d_t, d_t, dtype),
            cls_w=ly.glorot(rng, config.fused_width, NUM_CLASSES, dtype),
            cls_b=ly.zeros_param(NUM_CLASSES, dtype),
        )
        if not config.text_only:
            fields.update(
                capsule=CapsuleParams.create(rng, 2048, config.capsule_dim, dtype),
                img_w_ta=ly.glorot(rng, d_t, config.att_dim, dtype),
                img_w_r=ly.glorot(rng, 2048, config.att_dim, dtype),
                inter_img=MHAParams.create(
                    rng, config.head_count, d_t, config.capsule_dim, d_t, dtype
                ),
            )
        return cls(**fields)

    def named_parameters(self) -> list:
        """(name, tensor) pairs in registry order. Fields are assigned only
        at construction, so the list is built once; callers must not mutate
        it."""
        if self._named is None:
            self._named = self._build_named()
        return self._named

    def _build_named(self) -> list:
        items = [("embed.table", self.embed), ("pos.rows", self.pos.rows)]
        items += _mha_items("ctx_mhsa", self.ctx_mhsa)
        items += _gru_items("gru_fwd", self.gru_fwd)
        items += _gru_items("gru_bwd", self.gru_bwd)
        if self.capsule is not None:
            items.append(("capsule.w", self.capsule.w))
            if self.capsule.b is not None:
                items.append(("capsule.b", self.capsule.b))
            items.append(("img_attn.w_ta", self.img_w_ta))
            items.append(("img_attn.w_r", self.img_w_r))
        items += _mha_items("inter_ctx", self.inter_ctx)
        if self.inter_img is not None:
            items += _mha_items("inter_img", self.inter_img)
        items += _mha_items("fusion", self.fusion)
        items += [("cls.w", self.cls_w), ("cls.b", self.cls_b)]
        return items


def _mha_items(prefix: str, params: MHAParams):
    out = []
    for i in range(params.head_count):
        out += [
            (f"{prefix}.h{i}.wq", params.wq[i]),
            (f"{prefix}.h{i}.wk", params.wk[i]),
            (f"{prefix}.h{i}.wv", params.wv[i]),
        ]
    return out


def _gru_items(prefix: str, params: GRUParams):
    names = ("wz", "uz", "bz", "wr", "ur", "br", "wh", "uh", "bh")
    return [(f"{prefix}.{n}", getattr(params, n)) for n in names]


# ---------------------------------------------------------------------------
# pipeline stages


def encode_context(word_embeds: Tensor, pos_embeds: Tensor, mask, params: MHAParams,
                   dropout_rate: float = 0.0, train: bool = False, rng=None):
    """Self-attend over [word, position] features; also return the masked mean."""
    x = tx.concat([word_embeds, pos_embeds])
    x = tx.dropout(x, dropout_rate, train, rng)
    h_c = ly.mhsa(x, params, mask=mask)
    return h_c, tx.mean_pool(h_c, mask)


def _grid_source(sid, ref, dtype):
    """One 7x7 feature grid as a row source of the image op: its 49 region
    rows (row-major) as an array, or for a file path a function that reads
    them, into the array it is given when the dtype allows. Read errors
    name the sample."""
    if isinstance(ref, (str, Path)):
        def read(out):
            try:
                if dtype == np.float32:
                    return load_image_features(ref, out=out).data.reshape(REGION_COUNT, -1)
                return load_image_features(ref).data.reshape(REGION_COUNT, -1).astype(dtype)
            except (InputError, FormatError) as e:
                raise type(e)(f"sample {sid}: {e}") from None

        return read
    if ref is None:
        raise InputError(f"sample {sid} has no image features")
    values = ref.data if isinstance(ref, Tensor) else np.asarray(ref)
    if values.ndim != 3 or values.shape[0] * values.shape[1] != REGION_COUNT:
        raise ShapeError(f"sample {sid}: visual features must be a 7x7 grid of rank 3, "
                         f"got shape {values.shape}")
    return np.ascontiguousarray(values.reshape(REGION_COUNT, -1), dtype=dtype)


def _region_query(h_ta: Tensor, w_ta: Tensor, w_r: Tensor, mask) -> Tensor:
    """The image attention's query: the pooled target encoding times w_ta."""
    if w_ta.shape[1] != w_r.shape[1]:
        raise ConfigError(
            f"image attention widths differ: {w_ta.shape[1]} vs {w_r.shape[1]}"
        )
    return tx.matmul(tx.mean_pool(h_ta, mask), w_ta)


def encode_visual(features, h_ta: Tensor, params: EFNetParams, mask=None, ids=None):
    """The image route as one stage, one pass over each feature grid.

    Each 7x7 grid flattens to 49 region rows (row-major), which run through
    the capsule projection, and the query (the pooled target encoding
    ``h_ta`` times ``img_attn.w_ta``) attends over them, both in one
    ``tx.capsule_region_attention``. ``features`` is one grid, as a file
    path or a loaded array, with ``h_ta`` [m, d]; or a list of them, one
    per batch row, with [B, m, d]. Paths are read here, one grid at a time;
    ``ids`` names the samples in errors (row numbers by default), and
    ``mask`` ([(B,) m]) marks the target rows that are pooled.

    Returns the squashed capsules [(B,) 49, K], the attended vector
    [(B,) att] and the region weights as a plain [(B,) 49] array. Non-finite
    capsules make this stage re-read the grids and raise an ``InputError``
    naming the first sample whose grid is not finite.
    """
    batch = isinstance(features, list)
    refs = features if batch else [features]
    ids = ids if ids is not None else range(len(refs))
    dtype = params.capsule.w.data.dtype
    sources = [_grid_source(sid, ref, dtype) for sid, ref in zip(ids, refs)]
    if not batch:
        regions = Tensor(sources[0](None) if callable(sources[0]) else sources[0])
    query = _region_query(h_ta, params.img_w_ta, params.img_w_r, mask)
    # a non-finite grid makes NaNs in the softmax and the squash, named below
    with np.errstate(invalid="ignore"):
        v, h_att, weights = tx.capsule_region_attention(
            sources if batch else regions, params.capsule.w, params.capsule.b, query,
            params.img_w_r,
        )
    if not np.isfinite(v.data).all():
        # any non-finite region value ends as a NaN here (inf * 0, inf / inf);
        # only then are the grids, which were not kept, scanned
        for sid, ref, src in zip(ids, refs, sources):
            if not np.isfinite(src(None) if callable(src) else src).all():
                where = f"feature file {ref}" if callable(src) else "feature grid"
                raise InputError(f"sample {sid}: {where} holds non-finite values")
    return v, h_att, weights


def image_attention(h_ta: Tensor, r: Tensor, w_ta: Tensor, w_r: Tensor, mask=None):
    """One query (pooled target encoding) attends over projected regions;
    keys and values are the same projection, which the fused op never
    forms. Returns the attended vector and the region weights, a detached
    value. ``h_ta`` is [m, d] with ``r`` [49, C], or [B, m, d] with
    [B, 49, C]; ``mask`` ([(B,) m]) marks the target rows that are pooled.
    This is ``encode_visual``'s op without the capsule half."""
    _, out, weights = tx.capsule_region_attention(
        r, query=_region_query(h_ta, w_ta, w_r, mask), w_r=w_r)
    return out, Tensor(weights)


def interact(h_ta: Tensor, h_c: Tensor, h_i, params: EFNetParams, ctx_mask=None,
             return_weights: bool = False):
    """Let the target encoding attend into the context and (when present)
    into the capsule regions."""
    h_tac = ly.multi_head(
        h_ta, h_c, h_c, params.inter_ctx, mask=ctx_mask, return_weights=return_weights
    )
    if return_weights:
        h_tac, ctx_w = h_tac
    h_tai = None
    if h_i is not None:
        if params.inter_img is None:
            raise ConfigError("visual input given but model has no visual parameters")
        h_tai = ly.multi_head(h_ta, h_i, h_i, params.inter_img)
    return (h_tac, h_tai, ctx_w) if return_weights else (h_tac, h_tai)


def fuse(h_ta: Tensor, h_tac: Tensor, h_tai, h_avg_c: Tensor, h_att_i,
         params: EFNetParams, dropout_rate: float = 0.0, train: bool = False,
         rng=None, return_weights: bool = False, target_mask=None):
    """Cross-attend queries h^ta against keys h^tac with values h^tai (the
    asymmetric role split is deliberate), pool, and concatenate the pooled
    context, pooled fusion, and image-attention vectors. ``target_mask``
    ([(B,) m]) marks the real target rows, both as keys and when pooling."""
    values = h_tai if h_tai is not None else h_tac
    if values.shape[:-1] != h_tac.shape[:-1]:
        raise InternalError(
            f"fusion key/value row counts differ: {h_tac.shape[:-1]} vs {values.shape[:-1]}"
        )
    h_taci = ly.multi_head(
        h_ta, h_tac, values, params.fusion, mask=target_mask, return_weights=return_weights
    )
    if return_weights:
        h_taci, weights = h_taci
    parts = [h_avg_c, tx.mean_pool(h_taci, target_mask)]
    if h_att_i is not None:
        parts.append(h_att_i)
    fused = tx.concat(parts)
    fused = tx.dropout(fused, dropout_rate, train, rng)
    return (fused, weights) if return_weights else fused


def classify(fused: Tensor, w_o: Tensor, b_o: Tensor) -> ForwardOutput:
    """Class probabilities for a fused vector [d] ([3] out) or a batch of
    them [B, d] ([B, 3] out)."""
    if fused.data.ndim not in (1, 2) or fused.shape[-1] != w_o.shape[0]:
        raise ConfigError(
            f"classifier expects [(B x) {w_o.shape[0]}] input, got shape {fused.shape}"
        )
    logits = tx.add(tx.matmul(fused, w_o), b_o)
    return ForwardOutput(probs=tx.softmax(logits), logits=logits)


def loss(predictions, labels, params, l2_lambda: float) -> Tensor:
    """Mean cross-entropy of the true-class probabilities, one
    ``tx.cross_entropy`` node, plus an L2 penalty over every named
    parameter, one dot product over the flat parameter buffer.
    ``predictions`` is a list of one tensor: a probability vector [3] or a
    batch of them [B, 3], with one label per vector. Probabilities are
    clamped at 1e-12 inside the log so a saturated softmax cannot produce a
    NaN."""
    if l2_lambda < 0.0:
        raise ConfigError(f"l2_lambda must be >= 0, got {l2_lambda}")
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if len(predictions) != 1 or not labels.size or predictions[0].shape[-1] != NUM_CLASSES \
            or predictions[0].data.size != NUM_CLASSES * labels.size:
        raise InputError("need one prediction tensor with one label per vector")
    values = labels.tolist()
    if min(values) < 0 or max(values) >= NUM_CLASSES:
        bad = next(label for label in values if not 0 <= label < NUM_CLASSES)
        raise InputError(f"label {bad} outside {{0, 1, 2}}")
    ce = tx.cross_entropy(predictions[0], labels)
    if l2_lambda == 0.0:
        return ce
    buffer = params.buffer.sync()
    reg = tx.sum_squares(buffer.tensors, buffer.flat)
    return tx.add(ce, tx.scale(reg, l2_lambda))


def _unless_full(mask: np.ndarray):
    # an all-True mask selects nothing, and without it the ops skip the masking
    return None if mask.all() else mask


def _inputs(sample):
    """Sample ids, token ids, token mask, (start, end), target ids, target
    mask, aspect ids, aspect mask and feature refs of a ``Batch``; or of one
    ``EncodedSample``, without the batch axis (one sample id in a list, one
    feature ref). Masks that keep every entry come out None."""
    if isinstance(sample, Batch):
        b = sample
        return (b.ids, b.token_ids, _unless_full(b.mask), (b.spans[:, 0], b.spans[:, 1]),
                b.target_ids, _unless_full(b.target_mask), b.aspect_ids,
                _unless_full(b.aspect_mask), b.features)
    start, end = sample.span
    ids = np.asarray(sample.token_ids, dtype=np.int64)
    return ([sample.id], ids, _unless_full(np.asarray(sample.mask, dtype=bool)), (start, end),
            ids[start:end], None, np.asarray(sample.aspect_ids, dtype=np.int64), None,
            sample.features)


def forward(sample, params: EFNetParams, config: ModelConfig, train: bool = False,
            rng=None, want_trace: bool = False) -> ForwardOutput:
    """Run a batch through the whole pipeline, every stage over [B, ...]
    with per-row masks; probabilities come out [B, 3].

    ``sample`` is a ``Batch``, or one ``EncodedSample``: that runs the same
    stages without the batch axis, and its probabilities come out [3].
    Feature grids given as paths are read here. Stage errors are re-raised
    with the stage name prefixed.
    """
    sids, ids, ctx_mask, span, t_ids, t_mask, a_ids, a_mask, features = _inputs(sample)
    stage = "encode_context"
    try:
        word = tx.embedding_lookup(params.embed, ids)
        pos = ly.position_embeddings(span, ids.shape[-1], params.pos)
        h_c, h_avg_c = encode_context(
            word, pos, ctx_mask, params.ctx_mhsa, config.dropout, train, rng
        )

        stage = "bigru_encode"
        target = tx.embedding_lookup(params.embed, t_ids)
        aspect = tx.mean_pool(tx.embedding_lookup(params.embed, a_ids), a_mask)
        h_ta = ly.bigru_encode(target, aspect, params.gru_fwd, params.gru_bwd, mask=t_mask)

        h_i = h_att = grid = None
        if not config.text_only:
            stage = "encode_visual"
            h_i, h_att, grid = encode_visual(features, h_ta, params, mask=t_mask, ids=sids)

        stage = "interact"
        inter = interact(h_ta, h_c, h_i, params, ctx_mask=ctx_mask, return_weights=want_trace)
        h_tac, h_tai = inter[:2]

        stage = "fuse"
        fused = fuse(
            h_ta, h_tac, h_tai, h_avg_c, h_att, params,
            dropout_rate=config.dropout, train=train, rng=rng, return_weights=want_trace,
            target_mask=t_mask,
        )
        if want_trace:
            fused, fusion_w = fused

        stage = "classify"
        out = classify(fused, params.cls_w, params.cls_b)
    except (ShapeError, MaskError, TapeError, ConfigError, InputError, FloatingPointError) as e:
        raise type(e)(f"{stage}: {e}") from None

    if want_trace:
        side = int(np.sqrt(REGION_COUNT))
        out.trace = AttentionTrace(
            interaction_heads=[w.data.copy() for w in inter[2]],
            fusion_heads=[w.data.copy() for w in fusion_w],
            image_grid=None if grid is None
            else grid.reshape(grid.shape[:-1] + (side, side)).copy(),
        )
    return out


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, params: EFNetParams) -> None:
    """Write every named parameter, in registry order, as float32 records.

    The records go to a temporary file beside ``path``, which is flushed,
    synced and then renamed over ``path``, so a crash or kill mid-write
    leaves the previous checkpoint whole. The directory is synced after the
    rename, which makes the rename itself durable. On error the temporary
    is removed.
    """
    tmp = Path(f"{os.fspath(path)}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", CHECKPOINT_VERSION))
            for name, p in params.named_parameters():
                encoded = name.encode("utf-8")
                fh.write(struct.pack("<I", len(encoded)))
                fh.write(encoded)
                fh.write(struct.pack("<I", p.data.ndim))
                fh.write(struct.pack(f"<{p.data.ndim}I", *p.data.shape))
                fh.write(np.ascontiguousarray(p.data, dtype="<f4").tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        folder = os.open(tmp.parent, os.O_RDONLY)
        try:
            os.fsync(folder)
        finally:
            os.close(folder)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_checkpoint_records(blob: bytes, path) -> dict:
    def need(n, what):
        if offset + n > len(blob):
            raise FormatError(f"{path}: truncated {what}")

    if len(blob) < 4 or blob[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad magic, expected {CHECKPOINT_MAGIC!r}")
    offset = 4
    need(4, "version")
    (version,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    records: dict = {}
    while offset < len(blob):
        need(4, "record header")
        (name_len,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        need(name_len, "record name")
        name = blob[offset : offset + name_len].decode("utf-8")
        offset += name_len
        need(4, "record rank")
        (rank,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        need(4 * rank, "record dims")
        dims = struct.unpack_from(f"<{rank}I", blob, offset)
        offset += 4 * rank
        count = int(np.prod(dims, dtype=np.int64)) if rank else 1
        need(4 * count, "record payload")
        values = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
        offset += 4 * count
        if name in records:
            raise FormatError(f"{path}: duplicate record {name!r}")
        if not np.isfinite(values).all():
            raise FormatError(f"{path}: record {name!r} holds non-finite values")
        records[name] = values.reshape(dims)
    return records


def load_checkpoint(path, params: EFNetParams) -> None:
    """Copy saved values into ``params``' buffer views, in place. Structural
    damage raises a format error; any name/shape disagreement with the model
    raises CheckpointMismatch. Either leaves every parameter as it was."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as e:
        raise InputError(f"cannot read checkpoint {path}: {e}") from None
    records = _read_checkpoint_records(blob, path)
    named = params.named_parameters()
    expected = {name for name, _ in named}
    extra = set(records) - expected
    missing = expected - set(records)
    if extra or missing:
        raise CheckpointMismatch(
            f"{path}: parameter names disagree with the model"
            + (f"; unexpected {sorted(extra)}" if extra else "")
            + (f"; missing {sorted(missing)}" if missing else "")
        )
    params.buffer.sync()  # every p.data is its buffer view again
    for name, p in named:
        if records[name].shape != p.data.shape:
            raise CheckpointMismatch(
                f"{path}: {name} has shape {records[name].shape}, model expects {p.data.shape}"
            )
    for name, p in named:
        p.data[...] = records[name]
