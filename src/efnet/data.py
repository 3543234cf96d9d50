"""Ingestion and serialization: embedding tables, JSONL datasets, binary
region-feature files, batching with span-preserving truncation, and the
planted-rule synthetic corpus generator.

All binary payloads are little-endian; all text is UTF-8.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .tensor import DEFAULT_DTYPE, Tensor

LABELS = ("negative", "neutral", "positive")
PAD_INDEX = 0
UNK_INDEX = 1

FEATURE_MAGIC = b"EFVF"
FEATURE_VERSION = 1
FEATURE_SHAPE = (7, 7, 2048)
# a well-formed feature file: this header, then the float32 payload
_FEATURE_HEADER = FEATURE_MAGIC + struct.pack("<II3I", FEATURE_VERSION, 3, *FEATURE_SHAPE)
_FEATURE_FILE_BYTES = len(_FEATURE_HEADER) + 4 * math.prod(FEATURE_SHAPE)

BRIGHT_CELLS = ((1, 1), (3, 3), (5, 5))
CUE_TOKENS = ("negcue", "neucue", "poscue")


class InputError(ValueError):
    """Input data is missing or unusable (empty file, absent feature, ...)."""


class ParseError(ValueError):
    """A text input (embeddings, dataset) is malformed; names the location."""


class FormatError(ValueError):
    """A binary file violates its layout; names the offending field."""


def text_lines(path, error: type, unit: str = "line"):
    """(number, line) for each line of the UTF-8 text file at ``path``,
    numbered from 1. A byte that is not UTF-8 raises ``error`` naming the
    file and the line (or record, for ``unit``) that holds it; text mode
    decodes ahead of the line it hands out, so the file is read again to
    find it."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError:
            blob = Path(path).read_bytes()
            try:
                blob.decode("utf-8")
            except UnicodeDecodeError as e:
                head = blob[:e.start].decode("utf-8")
                number = len(head.replace("\r\n", "\n").replace("\r", "\n").split("\n"))
                raise error(f"{path}: {unit} {number}: byte {blob[e.start]:#04x} is not "
                            "UTF-8 text") from None
            raise


@dataclass
class Sample:
    id: str
    tokens: list
    target_span: tuple[int, int]
    aspect_tokens: list
    label: int
    image_ref: str | None = None


@dataclass
class EncodedSample:
    """A sample resolved to indices and arrays, ready for the model.

    ``features`` is the feature grid, or the path of its file."""

    id: str
    token_ids: np.ndarray
    mask: np.ndarray
    span: tuple[int, int]
    aspect_ids: np.ndarray
    label: int
    features: np.ndarray | str | None = None


class EmbeddingTable:
    """Token to row map over a trainable matrix.

    Row 0 is padding (all zero, re-zeroed by the optimizer after each step)
    and row 1 is the unknown-token fallback, so lookup never fails.
    """

    def __init__(self, index: dict, matrix: Tensor):
        self.index = index
        self.matrix = matrix

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def token_ids(self, tokens) -> np.ndarray:
        return np.fromiter(map(self.index.get, tokens, repeat(UNK_INDEX)), np.int64)


def load_embeddings(path) -> EmbeddingTable:
    """Read "token v1 ... vd" lines into a float32 table with pad/unk rows
    prepended.

    The unknown row is drawn uniform in +-0.05 from a generator seeded
    with 0, so loading is deterministic. A value that is not finite in
    float32 (nan, inf, or beyond its range) is a ``ParseError`` naming the
    file, the line and the token.
    """
    index: dict = {}
    rows = []
    linenos = []
    dim = None
    for lineno, line in text_lines(path, ParseError):
        parts = line.split()
        if not parts:
            continue
        token, values = parts[0], parts[1:]
        if dim is None:
            if not values:
                raise ParseError(f"{path}: line {lineno}: token {token!r} has no values")
            dim = len(values)
        if len(values) != dim:
            raise ParseError(f"{path}: line {lineno}: token {token!r} has "
                             f"{len(values)} values, expected {dim}")
        if token in index:
            raise ParseError(f"{path}: line {lineno}: duplicate token {token!r}")
        try:
            row = [float(v) for v in values]
        except ValueError:
            raise ParseError(
                f"{path}: line {lineno}: token {token!r} has a non-numeric value") from None
        index[token] = len(rows) + 2
        rows.append(row)
        linenos.append(lineno)
    if dim is None:
        raise InputError(f"{path}: empty embedding file")
    matrix = np.zeros((len(rows) + 2, dim), dtype=DEFAULT_DTYPE)
    matrix[UNK_INDEX] = np.random.default_rng(0).uniform(-0.05, 0.05, size=dim)
    with np.errstate(over="ignore"):
        matrix[2:] = np.asarray(rows, dtype=DEFAULT_DTYPE)
    bad = np.argwhere(~np.isfinite(matrix[2:]))
    if bad.size:
        r, c = bad[0]
        raise ParseError(
            f"{path}: line {linenos[r]}: token {list(index)[r]!r} has value {rows[r][c]!r}, "
            f"not finite as {np.dtype(DEFAULT_DTYPE).name}"
        )
    return EmbeddingTable(index, Tensor(matrix, requires_grad=True))


def _parse_record(path, i: int, obj) -> Sample:
    def fail(why):
        raise ParseError(f"{path}: record {i}: {why}")

    if not isinstance(obj, dict):
        fail("not an object")
    for key in ("id", "tokens", "target", "aspect", "label"):
        if key not in obj:
            fail(f"missing field {key!r}")
    tokens = obj["tokens"]
    if not isinstance(tokens, list) or not tokens or not all(isinstance(t, str) for t in tokens):
        fail("tokens must be a non-empty list of strings")
    target = obj["target"]
    if not isinstance(target, dict) or "start" not in target or "end" not in target:
        fail("target must carry start and end")
    start, end = target["start"], target["end"]
    if not (isinstance(start, int) and isinstance(end, int) and 0 <= start < end <= len(tokens)):
        fail(f"target span [{start}, {end}) out of range for {len(tokens)} tokens")
    aspect = obj["aspect"]
    if not isinstance(aspect, list) or not aspect or not all(isinstance(t, str) for t in aspect):
        fail("aspect must be a non-empty list of strings")
    if obj["label"] not in LABELS:
        fail(f"label {obj['label']!r} is not one of {', '.join(LABELS)}")
    image = obj.get("image")
    if image is not None and not isinstance(image, str):
        fail("image must be a path string")
    if image is not None and "\0" in image:
        fail("image path holds a NUL character")
    return Sample(
        id=str(obj["id"]),
        tokens=tokens,
        target_span=(start, end),
        aspect_tokens=aspect,
        label=LABELS.index(obj["label"]),
        image_ref=image,
    )


def load_dataset(path) -> list:
    """Read newline-delimited records; image paths resolve against the file's
    directory so downstream loaders can open them as-is."""
    base = Path(path).parent
    samples = []
    for i, line in text_lines(path, ParseError, "record"):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            raise ParseError(f"{path}: record {i}: not valid JSON") from None
        sample = _parse_record(path, i, obj)
        if sample.image_ref is not None:
            sample.image_ref = str(base / sample.image_ref)
        samples.append(sample)
    return samples


def write_dataset(path, samples) -> None:
    """Inverse of load_dataset; image paths are stored relative to ``path``."""
    base = Path(path).parent
    with open(path, "w", encoding="utf-8") as fh:
        for s in samples:
            obj = {
                "id": s.id,
                "tokens": s.tokens,
                "target": {"start": s.target_span[0], "end": s.target_span[1]},
                "aspect": s.aspect_tokens,
                "label": LABELS[s.label],
            }
            if s.image_ref is not None:
                obj["image"] = os.path.relpath(s.image_ref, base)
            fh.write(json.dumps(obj) + "\n")


def load_image_features(path, out=None) -> Tensor:
    """Read one region-feature file (magic EFVF, version 1, dims 7x7x2048).

    The payload goes straight into ``out`` when one is given: a C-contiguous
    little-endian float32 array of 7*7*2048 values, in any shape. A file
    costs one scatter read, into the header, the payload and one spare byte
    that catches trailing data; only a file that fails the one comparison
    with the expected header and size is taken apart, field by field, to
    name what is wrong (on an error, ``out`` may hold part of the payload).
    """
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            values = np.empty(FEATURE_SHAPE, dtype="<f4") if out is None else out
            if values.dtype != np.dtype("<f4") or values.size != math.prod(FEATURE_SHAPE) \
                    or not values.flags.c_contiguous:
                raise ValueError(f"cannot read {path} into {values.dtype} {values.shape}")
            head = bytearray(len(_FEATURE_HEADER))
            got = os.preadv(fd, [head, values, bytearray(1)], 0)
            if got != _FEATURE_FILE_BYTES or head != _FEATURE_HEADER:
                _check_feature_header(path, bytes(head[:got]), os.fstat(fd).st_size)
                raise FormatError(f"{path}: payload is {got - len(head)} bytes, "
                                  f"expected {values.nbytes}")
        finally:
            os.close(fd)
    except OSError as e:
        # a failed read names no file; name it, as a failed open does
        e.filename = e.filename or os.fspath(path)
        raise InputError(f"cannot read feature file {path}: {e}") from None
    return Tensor(values.reshape(FEATURE_SHAPE))


def _check_feature_header(path, head: bytes, size: int) -> None:
    if len(head) < 4 or head[:4] != FEATURE_MAGIC:
        raise FormatError(f"{path}: bad magic, expected {FEATURE_MAGIC!r}")
    if len(head) < 12:
        raise FormatError(f"{path}: truncated header (version/ndims)")
    version, ndims = struct.unpack_from("<II", head, 4)
    if version != FEATURE_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if ndims != 3:
        raise FormatError(f"{path}: ndims must be 3, got {ndims}")
    if len(head) < 24:
        raise FormatError(f"{path}: truncated dims")
    dims = struct.unpack_from("<III", head, 12)
    if dims != FEATURE_SHAPE:
        raise FormatError(f"{path}: dims {dims} do not match {FEATURE_SHAPE}")
    if size != _FEATURE_FILE_BYTES:
        raise FormatError(
            f"{path}: payload is {size - 24} bytes, expected {_FEATURE_FILE_BYTES - 24}"
        )


def write_image_features(path, values) -> None:
    arr = np.asarray(values, dtype="<f4")
    if arr.shape != FEATURE_SHAPE:
        raise FormatError(f"feature payload must be {FEATURE_SHAPE}, got {arr.shape}")
    with open(path, "wb") as fh:
        fh.write(_FEATURE_HEADER)
        fh.write(arr.tobytes())


def _truncate(tokens, span, max_len):
    """Window of at most max_len tokens centered on (and containing) the span."""
    n = len(tokens)
    if n <= max_len:
        return tokens, span
    start, end = span
    lo = (start + end) // 2 - max_len // 2
    lo = max(0, min(lo, n - max_len))
    lo = min(lo, start)
    lo = max(lo, end - max_len)
    return tokens[lo : lo + max_len], (start - lo, end - lo)


def _window(sample: Sample, max_len: int, with_image: bool):
    """The sample's tokens truncated to ``max_len`` around its target, the
    span in them, and its image path (None unless ``with_image``). A target
    wider than ``max_len``, or no image where one is wanted, is an
    ``InputError`` naming the sample."""
    start, end = sample.target_span
    if end - start > max_len:
        raise InputError(f"sample {sample.id}: target span exceeds max_len {max_len}")
    if with_image and sample.image_ref is None:
        raise InputError(f"sample {sample.id}: no image in multimodal mode")
    tokens, span = _truncate(sample.tokens, sample.target_span, max_len)
    return tokens, span, sample.image_ref if with_image else None


def encode_sample(sample: Sample, table: EmbeddingTable, max_len: int, with_features: bool) -> EncodedSample:
    tokens, span, image = _window(sample, max_len, with_features)
    return EncodedSample(
        id=sample.id,
        token_ids=table.token_ids(tokens),
        mask=np.ones(len(tokens), dtype=bool),
        span=span,
        aspect_ids=table.token_ids(sample.aspect_tokens),
        label=sample.label,
        features=None if image is None else load_image_features(image).data,
    )


@dataclass
class Batch:
    """Samples padded to common lengths; every mask is True on real entries.

    ``token_ids`` and ``mask`` are [B, L]; ``spans`` is [B, 2] (start, end)
    into the token rows; ``target_ids`` and ``aspect_ids`` hold each row's
    target tokens and aspect tokens, padded to [B, T] and [B, A] with their
    own masks. Padding uses index 0. ``features`` holds each row's feature
    grid, as an array or as the path of its file, read when the batch runs
    (None for every row in text-only mode).
    """

    ids: list
    token_ids: np.ndarray
    mask: np.ndarray
    spans: np.ndarray
    target_ids: np.ndarray
    target_mask: np.ndarray
    aspect_ids: np.ndarray
    aspect_mask: np.ndarray
    labels: np.ndarray
    features: list

    def __len__(self) -> int:
        return len(self.ids)


def _pad(flat, lengths, masks=None):
    """Rows of ``lengths[i]`` ids each, taken in order from ``flat``, padded
    to the longest: ids [B, L] and the mask of the real entries, or of the
    entries that ``masks`` (one boolean row per row) keeps."""
    real = np.arange(lengths.max()) < lengths[:, None]
    ids = np.full(real.shape, PAD_INDEX, dtype=np.int64)
    ids[real] = flat
    if masks is None:
        return ids, real
    mask = np.zeros_like(real)
    mask[real] = np.concatenate(masks)
    return ids, mask


def _batch(ids, token_ids, lengths, masks, spans, aspect_ids, aspect_lengths,
           labels, features) -> Batch:
    """One batch from its rows' ids laid end to end (``token_ids``,
    ``aspect_ids``) and their lengths; target ids are read from the padded
    token rows, by span."""
    tokens, mask = _pad(token_ids, lengths, masks)
    column = np.arange(tokens.shape[1])
    in_span = (column >= spans[:, :1]) & (column < spans[:, 1:])
    target_ids, target_mask = _pad(tokens[in_span], spans[:, 1] - spans[:, 0])
    aspects, aspect_mask = _pad(aspect_ids, aspect_lengths)
    return Batch(ids=ids, token_ids=tokens, mask=mask, spans=spans, target_ids=target_ids,
                 target_mask=target_mask, aspect_ids=aspects, aspect_mask=aspect_mask,
                 labels=labels, features=features)


def _lengths(rows) -> np.ndarray:
    return np.fromiter(map(len, rows), np.int64)


def collate(encoded) -> Batch:
    """Pad a list of encoded samples into one batch."""
    return _batch(
        [e.id for e in encoded],
        np.concatenate([e.token_ids for e in encoded]), _lengths(e.token_ids for e in encoded),
        [e.mask for e in encoded],
        np.array([e.span for e in encoded], dtype=np.int64),
        np.concatenate([e.aspect_ids for e in encoded]),
        _lengths(e.aspect_ids for e in encoded),
        np.array([e.label for e in encoded], dtype=np.int64),
        [e.features for e in encoded],
    )


def make_batches(samples, table: EmbeddingTable, *, batch_size: int, max_len: int,
                 text_only: bool, rng=None) -> list:
    """Chunk and pad, in a ``rng`` permutation or, without one, in order.
    The last batch may be ragged. Each batch maps all of its tokens to ids
    in one pass and pads them as whole arrays. Feature grids are not read
    here: each row carries its file path, read when its batch runs."""
    order = range(len(samples)) if rng is None else rng.permutation(len(samples))
    batches = []
    for at in range(0, len(samples), batch_size):
        chunk = [samples[i] for i in order[at : at + batch_size]]
        tokens, spans, images = zip(*(_window(s, max_len, not text_only) for s in chunk))
        aspects = [s.aspect_tokens for s in chunk]
        lengths, aspect_lengths = _lengths(tokens), _lengths(aspects)
        ids = np.fromiter(map(table.index.get, chain(*tokens, *aspects), repeat(UNK_INDEX)),
                          np.int64)
        split = lengths.sum()
        batches.append(_batch(
            [s.id for s in chunk], ids[:split], lengths, None,
            np.array(spans, dtype=np.int64), ids[split:], aspect_lengths,
            np.array([s.label for s in chunk], dtype=np.int64), list(images),
        ))
    return batches


def synth_generate(out_dir, seed: int, n: int, vocab_size: int = 40,
                   grid_rule: str = "both", embed_dim: int = 50) -> dict:
    """Write a corpus whose labels follow a planted, machine-checkable rule.

    grid_rule picks where the signal lives: "none" puts it in a cue token
    next to the target (text only, no images), "cell" in which of three
    fixed feature-grid cells is bright, "both" in (cue + cell) mod 3.
    The rule is written out as rule.json so a test can relabel the corpus
    independently. Everything derives from ``seed``; a fixed seed fixes
    every output byte. A count out of range is an ``InputError`` naming its
    command-line flag.
    """
    if grid_rule not in ("none", "cell", "both"):
        raise InputError(f"unknown grid_rule {grid_rule!r}")
    for flag, value, low in (("--n", n, 0), ("--seed", seed, 0), ("--vocab", vocab_size, 1),
                             ("--embed-dim", embed_dim, 1)):
        if value < low:
            raise InputError(f"{flag} must be >= {low}, got {value}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    vocab = [f"w{i}" for i in range(vocab_size)]
    with open(out / "embeddings.txt", "w", encoding="utf-8") as fh:
        for token in list(CUE_TOKENS) + vocab:
            vec = rng.uniform(-0.5, 0.5, size=embed_dim)
            fh.write(token + " " + " ".join(f"{v:.6f}" for v in vec) + "\n")

    with_images = grid_rule in ("cell", "both")
    if with_images and n > 0:
        (out / "features").mkdir(exist_ok=True)

    samples = []
    for i in range(n):
        sid = f"s{i:04d}"
        length = int(np.clip(round(rng.normal(13.0, 3.0)), 5, 30))
        tokens = [vocab[j] for j in rng.integers(0, vocab_size, size=length)]
        span_len = int(rng.integers(1, 3))
        start = int(rng.integers(0, length - span_len + 1))
        span = (start, start + span_len)
        aspect = [vocab[int(rng.integers(0, vocab_size))]]

        cue = int(rng.integers(0, 3)) if grid_rule in ("none", "both") else None
        cell = int(rng.integers(0, 3)) if with_images else None
        if grid_rule == "none":
            label = cue
        elif grid_rule == "cell":
            label = cell
        else:
            label = (cue + cell) % 3

        if cue is not None:
            # keep the cue adjacent to the span so truncation cannot drop it
            if rng.random() < 0.5 and span[0] > 0:
                tokens.insert(span[0] - 1, CUE_TOKENS[cue])
                span = (span[0] + 1, span[1] + 1)
            else:
                tokens.insert(span[1], CUE_TOKENS[cue])

        image_ref = None
        if with_images:
            feats = rng.uniform(0.0, 0.1, size=FEATURE_SHAPE).astype(np.float32)
            r, c = BRIGHT_CELLS[cell]
            # brighten one cell on a cell-specific channel band; region
            # attention is content-based, so the class signal must live in
            # the channels, not in the grid position alone
            band = FEATURE_SHAPE[2] // 3
            at = cell * band
            feats[r, c, at : at + band] = rng.uniform(
                0.9, 1.0, size=band).astype(np.float32)
            image_ref = str(out / "features" / f"{sid}.efvf")
            write_image_features(image_ref, feats)

        samples.append(
            Sample(
                id=sid, tokens=tokens, target_span=span,
                aspect_tokens=aspect, label=int(label), image_ref=image_ref,
            )
        )

    write_dataset(out / "dataset.jsonl", samples)
    rule = {
        "grid_rule": grid_rule,
        "cue_tokens": list(CUE_TOKENS),
        "bright_cells": [list(rc) for rc in BRIGHT_CELLS],
        "formula": {
            "none": "label = index of the cue token present in the sentence",
            "cell": "label = index of the bright grid cell (bright on its own channel band)",
            "both": "label = (cue index + cell index) mod 3",
        }[grid_rule],
    }
    with open(out / "rule.json", "w", encoding="utf-8") as fh:
        json.dump(rule, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return rule
