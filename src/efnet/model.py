"""The full network: context self-attention, target/aspect Bi-GRU, capsule
visual encoding, image-region attention, cross-modal interaction, fusion,
and the softmax classifier, plus the training loss and checkpoint I/O.

Every trainable tensor is reachable through ``EFNetParams.named_parameters``
under a stable name; the optimizer, the L2 term, and the checkpoint format
all cover exactly that list. Its tensors are views into one flat
``ParamBuffer``, in the list's order, which the L2 term and the optimizer
read whole. In text_only mode the visual parameters are never created, so
their gradients are structurally absent rather than zero.
``forward`` runs a whole padded batch at once, [B, ...] per stage; a single
encoded sample runs the same stages without the batch axis.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import layers as ly
from . import tensor as tx
from .data import (FEATURE_SHAPE, Batch, FormatError, InputError, load_image_features,
                   write_files)
from .layers import (
    REGION_COUNT,
    CapsuleParams,
    ConfigError,
    GRUParams,
    MHAParams,
    ParamBuffer,
    PositionTable,
    gate_groups,
)
from .tensor import MaskError, ShapeError, TapeError, Tensor

NUM_CLASSES = 3

# The most trainable parameters a config may ask for, the embedding table
# aside: 200 MB of float32 weights, and as much again for the gradients and
# each of Adam's two moments.
MAX_PARAMETERS = 50_000_000

CHECKPOINT_MAGIC = b"EFCK"
CHECKPOINT_VERSION = 1
CHECKPOINT_MAX_RANK = 32  # numpy 1.24's limit on array dimensions


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
        count = self.parameter_count()
        if count > MAX_PARAMETERS:
            # the width whose least value shrinks the model most is to blame
            widths = ("embed_dim", "hidden_dim", "capsule_dim", "att_dim", "max_len")
            blame = min(widths, key=lambda f: replace(self, **{f: 1}).parameter_count())
            raise ConfigError(f"{name(blame)} = {getattr(self, blame)} makes a model of "
                              f"{count:,} parameters, more than {MAX_PARAMETERS:,}")

    def parameter_count(self) -> int:
        """Trainable parameters of the model this config builds, apart from
        the embedding table, whose rows the embedding file gives."""
        d_c, d_t, d_h = self.context_width, self.target_width, self.hidden_dim
        count = (2 * self.max_len + 1) * self.embed_dim  # position rows
        count += 3 * d_c * d_c + 6 * (d_c + d_h + 1) * d_h  # ctx_mhsa, the Bi-GRU
        count += d_t * d_t + 2 * d_c * d_t + 3 * d_t * d_t  # inter_ctx, fusion
        count += 3 * (self.fused_width + 1)  # the classifier
        if not self.text_only:
            # the capsule, img_attn and inter_img
            r, k, a = FEATURE_SHAPE[-1], self.capsule_dim, self.att_dim
            count += (r + 1) * k + (d_t + r) * a + d_t * (d_t + 2 * k)
        return count


@dataclass
class ForwardOutput:
    """Class probabilities and logits, and from ``forward`` the attention
    weights as the ops returned them (plain arrays, shared with the
    backward pass, so read only): the context interaction [(B,) H, m, n],
    the fusion [(B,) H, m, m] and the image regions [(B,) 49], None in
    text_only mode."""

    probs: Tensor
    logits: Tensor
    interaction_weights: np.ndarray | None = None
    fusion_weights: np.ndarray | None = None
    region_weights: np.ndarray | None = None


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
    _named: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # One pass in pipeline order moves every parameter into one flat
        # buffer: a tensor of its own is a group of one, and a multi-head
        # container or the Bi-GRU pair adds its three blocks, which it then
        # reads as its part of the buffer.
        pair = [("gru_fwd.", self.gru_fwd), ("gru_bwd.", self.gru_bwd)]
        fields = [("embed.table", self.embed), ("pos.rows", self.pos.rows),
                  ("ctx_mhsa.", self.ctx_mhsa), ("gru", pair)]
        if self.capsule is not None:
            fields += [("capsule.w", self.capsule.w), ("capsule.b", self.capsule.b),
                       ("img_attn.w_ta", self.img_w_ta), ("img_attn.w_r", self.img_w_r)]
        fields += [("inter_ctx.", self.inter_ctx), ("inter_img.", self.inter_img),
                   ("fusion.", self.fusion), ("cls.w", self.cls_w), ("cls.b", self.cls_b)]
        groups, parts = [], []
        for name, item in fields:
            if isinstance(item, Tensor):
                groups.append([(name, item)])
            elif item is pair:
                parts.append((self._place_gru, len(groups)))
                groups += gate_groups(pair)
            elif item is not None:
                parts.append((item.place, len(groups)))
                groups += item.groups(name)
        self.buffer = ParamBuffer.pack(groups)
        self._named = [(t.name, t) for t in self.buffer.tensors]
        for place, start in parts:
            place(self.buffer.part(start, start + 3))

    def _place_gru(self, buffer: ParamBuffer) -> None:
        self.gru_fwd.buffer = self.gru_bwd.buffer = buffer

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
                capsule=CapsuleParams.create(rng, FEATURE_SHAPE[-1], config.capsule_dim, dtype),
                img_w_ta=ly.glorot(rng, d_t, config.att_dim, dtype),
                img_w_r=ly.glorot(rng, FEATURE_SHAPE[-1], config.att_dim, dtype),
                inter_img=MHAParams.create(
                    rng, config.head_count, d_t, config.capsule_dim, d_t, dtype
                ),
            )
        return cls(**fields)

    def named_parameters(self) -> list:
        """(name, tensor) pairs in buffer order, the order of the tensors'
        rows in ``buffer.flat``. Fields are assigned only at construction,
        so the list is built once; callers must not mutate it."""
        return self._named


# ---------------------------------------------------------------------------
# pipeline stages


def encode_context(word_embeds: Tensor, pos_embeds: Tensor, mask, params: MHAParams,
                   dropout_rate: float = 0.0, rng=None):
    """Self-attend over [word, position] features; also return the masked mean."""
    x = tx.concat([word_embeds, pos_embeds])
    x = tx.dropout(x, dropout_rate, rng)
    h_c = ly.mhsa(x, params, mask=mask)
    return h_c, tx.mean_pool(h_c, mask)


def _grid_source(sid, ref, dtype, width):
    """One 7x7 feature grid of ``width`` channels as a row source of the
    image op: its 49 region rows (row-major) as an array, or for a file
    path a function that reads them, into the array it is given when the
    dtype allows. Read and shape errors name the sample."""
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
    values = np.asarray(ref)
    if values.ndim != 3 or values.shape[0] * values.shape[1] != REGION_COUNT \
            or values.shape[2] != width:
        raise ShapeError(f"sample {sid}: visual features must be a 7x7 grid of rank 3 "
                         f"with {width} channels, got shape {values.shape}")
    return np.ascontiguousarray(values.reshape(REGION_COUNT, -1), dtype=dtype)


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
    w_cap = params.capsule.w.data
    sources = [_grid_source(sid, ref, w_cap.dtype, w_cap.shape[0])
               for sid, ref in zip(ids, refs)]
    query = tx.matmul(tx.mean_pool(h_ta, mask), params.img_w_ta)
    # a non-finite grid makes NaNs in the softmax and the squash, named below
    with np.errstate(invalid="ignore"):
        v, h_att, weights = tx.capsule_region_attention(
            sources, params.capsule.w, params.capsule.b, query, params.img_w_r
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
    keys and values are the same projection, r w_r, formed here as the
    fused op of ``encode_visual`` never forms it. Returns the attended
    vector and the region weights, a detached value. ``h_ta`` is [m, d]
    with ``r`` [49, C], or [B, m, d] with [B, 49, C]; ``mask`` ([(B,) m])
    marks the target rows that are pooled."""
    query = tx.matmul(tx.mean_pool(h_ta, mask), w_ta)
    lead = query.shape[:-1]
    if r.data.ndim != len(lead) + 2 or r.shape[:-2] != lead:
        raise ShapeError(f"image_attention: regions {r.shape} do not fit the query {query.shape}")
    (n, width), att = r.shape[-2:], w_r.shape[1]
    keys = tx.reshape(tx.matmul(tx.reshape(r, (math.prod(lead) * n, width)), w_r),
                      lead + (n, att))
    scores = tx.reshape(tx.matmul(keys, tx.reshape(query, query.shape + (1,))), lead + (n,))
    weights = tx.softmax(tx.scale(scores, 1.0 / math.sqrt(att)))
    out = tx.matmul(tx.reshape(weights, lead + (1, n)), keys)
    return tx.reshape(out, lead + (att,)), Tensor(weights.data)


def _attend(q: Tensor, k: Tensor, v: Tensor, params: MHAParams, mask=None):
    """``tx.multi_head_attention`` with the heads of ``params``: the head
    outputs and the [(B,) H, n_q, n_kv] weights as the op returns them."""
    return tx.multi_head_attention(q, k, v, params.blocks, params.buffer.tensors, mask=mask)


def interact(h_ta: Tensor, h_c: Tensor, h_i, params: EFNetParams, ctx_mask=None):
    """Let the target encoding attend into the context and (when present)
    into the capsule regions. Returns h^tac, h^tai (None without regions)
    and the context attention's weights [(B,) H, m, n]."""
    h_tac, ctx_w = _attend(h_ta, h_c, h_c, params.inter_ctx, mask=ctx_mask)
    h_tai = None if h_i is None else _attend(h_ta, h_i, h_i, params.inter_img)[0]
    return h_tac, h_tai, ctx_w


def fuse(h_ta: Tensor, h_tac: Tensor, h_tai, h_avg_c: Tensor, h_att_i,
         params: EFNetParams, dropout_rate: float = 0.0, rng=None, target_mask=None):
    """Cross-attend queries h^ta against keys h^tac with values h^tai (the
    asymmetric role split is deliberate), pool, and concatenate the pooled
    context, pooled fusion, and image-attention vectors. ``target_mask``
    ([(B,) m]) marks the real target rows, both as keys and when pooling.
    Returns the fused vectors and the fusion weights [(B,) H, m, m]."""
    values = h_tai if h_tai is not None else h_tac
    h_taci, weights = _attend(h_ta, h_tac, values, params.fusion, mask=target_mask)
    parts = [h_avg_c, tx.mean_pool(h_taci, target_mask)]
    if h_att_i is not None:
        parts.append(h_att_i)
    fused = tx.concat(parts)
    return tx.dropout(fused, dropout_rate, rng), weights


def classify(fused: Tensor, w_o: Tensor, b_o: Tensor) -> ForwardOutput:
    """Class probabilities for a fused vector [d] ([3] out) or a batch of
    them [B, d] ([B, 3] out)."""
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
    if len(predictions) != 1 or predictions[0].shape[-1] != NUM_CLASSES:
        raise InputError(f"need one prediction tensor of {NUM_CLASSES} classes")
    ce = tx.cross_entropy(predictions[0], labels)
    if l2_lambda == 0.0:
        return ce
    reg = tx.sum_squares(params.buffer.tensors, params.buffer.flat)
    return tx.add(ce, tx.scale(reg, l2_lambda))


def _unless_full(mask: np.ndarray):
    # an all-True mask selects nothing, and without it the ops skip the masking
    return None if mask.all() else mask


def _inputs(sample):
    """Sample ids, token ids, token mask, (start, end) as [B, 1] columns,
    target ids, target mask, aspect ids, aspect mask and feature refs of a
    ``Batch``; or of one ``EncodedSample``, without the batch axis (one
    sample id in a list, integer span ends, one feature ref). Masks that
    keep every entry come out None."""
    if isinstance(sample, Batch):
        b = sample
        return (b.ids, b.token_ids, _unless_full(b.mask), (b.spans[:, :1], b.spans[:, 1:]),
                b.target_ids, _unless_full(b.target_mask), b.aspect_ids,
                _unless_full(b.aspect_mask), b.features)
    start, end = sample.span
    ids = np.asarray(sample.token_ids, dtype=np.int64)
    return ([sample.id], ids, _unless_full(np.asarray(sample.mask, dtype=bool)), (start, end),
            ids[start:end], None, np.asarray(sample.aspect_ids, dtype=np.int64), None,
            sample.features)


def forward(sample, params: EFNetParams, config: ModelConfig, rng=None) -> ForwardOutput:
    """Run a batch through the whole pipeline, every stage over [B, ...]
    with per-row masks; probabilities come out [B, 3], beside the
    interaction, fusion and region weights (see ``ForwardOutput``).

    ``sample`` is a ``Batch``, or one ``EncodedSample``: that runs the same
    stages without the batch axis, and its outputs have no batch axis.
    Feature grids given as paths are read here. Dropout runs when ``rng``
    is given. Stage errors are re-raised with the stage name prefixed;
    parameters whose visual fields do not match ``config.text_only`` are a
    ``ConfigError`` before any stage runs.
    """
    visual = (params.capsule, params.img_w_ta, params.img_w_r, params.inter_img)
    if visual.count(None) != len(visual) * config.text_only:
        raise ConfigError(
            f"text_only = {config.text_only}, but the parameters "
            f"{'hold' if config.text_only else 'lack'} the visual fields "
            "(capsule, img_w_ta, img_w_r, inter_img)"
        )
    sids, ids, ctx_mask, span, t_ids, t_mask, a_ids, a_mask, features = _inputs(sample)
    stage = "encode_context"
    try:
        word = tx.embedding_lookup(params.embed, ids)
        pos = ly.position_embeddings(span, ids.shape[-1], params.pos)
        h_c, h_avg_c = encode_context(
            word, pos, ctx_mask, params.ctx_mhsa, config.dropout, rng
        )

        stage = "bigru_encode"
        target = tx.embedding_lookup(params.embed, t_ids)
        aspect = tx.mean_pool(tx.embedding_lookup(params.embed, a_ids), a_mask)
        h_ta = ly.bigru_encode(target, aspect, params.gru_fwd, params.gru_bwd, mask=t_mask)

        h_i = h_att = region_w = None
        if not config.text_only:
            stage = "encode_visual"
            h_i, h_att, region_w = encode_visual(features, h_ta, params, mask=t_mask, ids=sids)

        stage = "interact"
        h_tac, h_tai, ctx_w = interact(h_ta, h_c, h_i, params, ctx_mask=ctx_mask)

        stage = "fuse"
        fused, fusion_w = fuse(h_ta, h_tac, h_tai, h_avg_c, h_att, params,
                               dropout_rate=config.dropout, rng=rng, target_mask=t_mask)

        stage = "classify"
        out = classify(fused, params.cls_w, params.cls_b)
    except (ShapeError, MaskError, TapeError, InputError, FloatingPointError) as e:
        raise type(e)(f"{stage}: {e}") from None
    out.interaction_weights, out.fusion_weights, out.region_weights = ctx_w, fusion_w, region_w
    return out


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, params: EFNetParams, *others) -> None:
    """Write every named parameter, in buffer order, as float32 records
    streamed through ``write_files`` (none for a ``path`` of None), with the
    (path, content) pairs ``others`` renamed after it in the same call; a
    failed or killed save leaves the previous checkpoint whole."""
    def records():
        yield CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION)
        for name, p in params.named_parameters():
            encoded = name.encode("utf-8")
            yield struct.pack(f"<I{len(encoded)}sI{p.data.ndim}I", len(encoded), encoded,
                              p.data.ndim, *p.data.shape)
            yield np.ascontiguousarray(p.data, dtype="<f4")

    write_files([(path, records()), *others])


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
        try:
            name = blob[offset : offset + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{path}: record {len(records) + 1}: name is not UTF-8 "
                              "text") from None
        offset += name_len
        need(4, "record rank")
        (rank,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        if rank > CHECKPOINT_MAX_RANK:
            raise FormatError(f"{path}: record {len(records) + 1}: rank {rank} is above "
                              f"{CHECKPOINT_MAX_RANK}")
        need(4 * rank, "record dims")
        dims = struct.unpack_from(f"<{rank}I", blob, offset)
        offset += 4 * rank
        count = math.prod(dims)  # exact, so no product wraps past the payload check
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
        blob = Path(path).read_bytes()
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
    for name, p in named:
        if records[name].shape != p.data.shape:
            raise CheckpointMismatch(
                f"{path}: {name} has shape {records[name].shape}, model expects {p.data.shape}"
            )
    for name, p in named:
        p.data[...] = records[name]
