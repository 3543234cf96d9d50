"""Optimization loop, evaluation metrics, and the head-count sweep."""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from .data import Batch, InputError, make_batches, write_files
from .layers import InternalError, ParamBuffer
from .model import EFNetParams, ModelConfig, forward, save_checkpoint
from .model import loss as batch_loss
from .tensor import Tape, Tensor

METRICS_HEADER = "epoch,split,loss,accuracy,macro_f1"
SWEEP_HEADER = "heads,accuracy,macro_f1"
EVAL_BATCH = 32  # rows per evaluation forward; results do not depend on it
# Steps between flushes of subnormal moment entries to zero (see adam_step).
# A moment whose gradient stays zero shrinks by BETA1 = 0.9 a step: from
# 1e-4 it turns subnormal in float32 after 742 steps and then sticks near
# 6e-45, where a multiply over 67,131 such entries took 461 us against 11 us
# for normal ones. Flushing both moments of that size takes about 38 us,
# 2.4 us a step at 16, and an entry then stays subnormal for at most 16
# steps of the 742 it took to get there.
FLUSH_EVERY = 16
# Adam's moment decay rates and the epsilon added outside the square root
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class TrainError(RuntimeError):
    """Optimization aborted, e.g. the loss stopped being finite."""


@dataclasses.dataclass
class OptimizerState:
    """Adaptive-moment descent state: the first and second moments ``m``
    and ``v``, each one flat array laid out as the flat parameter buffer,
    updated in place (None before the first step, which allocates them);
    ``t`` strictly increases, one tick per step.
    """

    lr: float = 1e-3
    t: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


@dataclasses.dataclass
class EvalReport:
    accuracy: float
    macro_f1: float
    precision: list
    recall: list
    f1: list
    confusion: list

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def adam_step(params: EFNetParams, grads, state: OptimizerState) -> None:
    """Apply one bias-corrected moment update to every named parameter.

    The update runs on the flat parameter buffer and two flat moment
    buffers, in place, so every parameter's ``data`` array changes in
    place. The arithmetic is the same, element by element, as a loop over
    parameters, so the result is bitwise equal to it. A non-finite gradient
    or update raises ``TrainError`` naming the first parameter it reaches,
    before any parameter changes (after a non-finite update the moments
    have advanced). Every ``FLUSH_EVERY``-th step, moment entries below the
    dtype's smallest normal value become zero before the update reads them.
    The padding embedding row is re-zeroed afterwards so index 0 never
    drifts away from zero.
    """
    buffer = params.buffer
    dtype = buffer.flat.dtype
    flat_grads = []
    for p in buffer.tensors:
        g = grads.get(p)
        if g is None:
            raise InternalError(f"missing gradient for parameter {p.name}")
        if g.shape != p.data.shape:
            raise InternalError(
                f"gradient shape {g.shape} does not match parameter "
                f"{p.name} with shape {p.data.shape}"
            )
        if g.dtype != dtype:
            raise InternalError(f"parameter {p.name} has a {g.dtype} gradient; it is {dtype}")
        flat_grads.append(g)
    g = np.concatenate(flat_grads, axis=None)
    if not np.isfinite(g).all():
        raise TrainError(f"non-finite gradient for parameter {_first_non_finite(g, buffer)}")
    if state.m is None:
        state.m, state.v = np.zeros_like(g), np.zeros_like(g)
    m, v = state.m, state.v
    state.t += 1
    c1 = 1.0 - BETA1 ** state.t
    c2 = 1.0 - BETA2 ** state.t
    # in-place forms of m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2 and
    # p - lr (m / c1) / (sqrt(v / c2) + eps), rounding for rounding; a
    # non-finite update is named below, so numpy need not warn of it
    with np.errstate(all="ignore"):
        m *= BETA1
        m += (1.0 - BETA1) * g
        g *= g
        g *= 1.0 - BETA2
        v *= BETA2
        v += g
        if state.t % FLUSH_EVERY == 0:
            tiny = np.finfo(dtype).tiny
            m[np.abs(m) < tiny] = 0.0
            v[v < tiny] = 0.0
        step = m / c1
        step *= state.lr
        root = v / c2
        np.sqrt(root, out=root)
        # epsilon sits outside the square root
        root += EPS
        step /= root
        updated = np.subtract(buffer.flat, step, out=step)
    if not np.isfinite(updated).all():
        raise TrainError(
            f"non-finite update for parameter {_first_non_finite(updated, buffer)}"
        )
    buffer.flat[...] = updated
    params.embed.data[0] = 0.0


def _first_non_finite(flat: np.ndarray, buffer: ParamBuffer) -> str:
    parts = np.split(flat, list(itertools.accumulate(t.data.size for t in buffer.tensors)))
    return next(t.name for t, part in zip(buffer.tensors, parts) if not np.isfinite(part).all())


def _release(params: EFNetParams) -> None:
    # Drop tape links after a step so evaluation forwards (and the next
    # batch's fresh tape) do not keep recording onto a dead tape.
    for _, p in params.named_parameters():
        p.tape = None
        p.node = None


def metrics_from_pairs(truths, predictions) -> EvalReport:
    """Confusion-matrix metrics over the three polarity classes.

    Per-class precision or recall with an empty denominator counts as 0,
    and a zero precision+recall sum gives F1 = 0.
    """
    if len(truths) != len(predictions):
        raise InputError("metrics: truth/prediction length mismatch")
    if len(truths) == 0:
        raise InputError("metrics: empty dataset")
    confusion = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    for t, p in zip(truths, predictions):
        confusion[int(t)][int(p)] += 1
    total = len(truths)
    correct = confusion[0][0] + confusion[1][1] + confusion[2][2]
    precision, recall, f1 = [], [], []
    for c in range(3):
        col = confusion[0][c] + confusion[1][c] + confusion[2][c]
        row = confusion[c][0] + confusion[c][1] + confusion[c][2]
        p = confusion[c][c] / col if col else 0.0
        r = confusion[c][c] / row if row else 0.0
        f = 2.0 * p * r / (p + r) if p + r else 0.0
        precision.append(p)
        recall.append(r)
        f1.append(f)
    return EvalReport(
        accuracy=correct / total,
        macro_f1=(f1[0] + f1[1] + f1[2]) / 3.0,
        precision=precision,
        recall=recall,
        f1=f1,
        confusion=confusion,
    )


def evaluate(params: EFNetParams, table, samples, config: ModelConfig) -> EvalReport:
    """Argmax predictions over ``samples`` and score them.

    Samples run in order, ``EVAL_BATCH`` at a time. Padding is masked out,
    so a prediction does not depend on the batch it ran in, except for the
    order of float summation. A non-finite class probability is a
    ``TrainError`` naming the batch's samples and the stage where the
    first non-finite value appeared.
    """
    truths = []
    preds = []
    for batch in make_batches(samples, table, batch_size=EVAL_BATCH,
                              max_len=config.max_len, text_only=config.text_only):
        # a non-finite probability is named below, so numpy need not warn of it
        with np.errstate(all="ignore"):
            out = forward(batch, params, config)
        _check_finite(out, batch, params, config)
        truths += batch.labels.tolist()
        preds += np.argmax(out.probs.data, axis=1).tolist()
    return metrics_from_pairs(truths, preds)


def _check_finite(out, sample, params, config) -> None:
    """Raise ``TrainError`` when the evaluation forward ``out`` of ``sample``
    (a ``Batch`` or one ``EncodedSample``) holds a non-finite probability."""
    if not np.isfinite(out.probs.data).all():
        ids = sample.ids if isinstance(sample, Batch) else [sample.id]
        raise TrainError(f"non-finite class probabilities (samples {', '.join(ids)}): "
                         f"{_replay(sample, params, config)}")


def train(params: EFNetParams, table, train_samples, val_samples,
          config: ModelConfig, *, epochs: int, lr: float = 1e-3,
          batch_size: int = 128, checkpoint_path=None, log_path=None,
          on_epoch=None, stop_accuracy=None):
    """Optimize on the train split, scoring the val split once per epoch.

    As each epoch ends, its metrics row (train loss with the validation
    accuracy and macro-F1) joins the earlier ones and ``log_path`` is
    rewritten whole, in one ``write_files`` call with the checkpoint when
    validation accuracy improved; 0 epochs write a header and the untrained
    model. So a row is whole or absent, a failed write leaves the previous
    log and checkpoint, and a rerun keeps an earlier run's files until its
    first epoch ends. Each batch is one forward over all of its rows.
    Returns the best validation report, or None when no epoch ran.
    ``on_epoch`` receives each row once it is written; ``stop_accuracy``
    ends the run once validation accuracy reaches it. A negative
    ``epochs``, a ``batch_size`` below 1, an ``lr`` that is not finite and
    greater than 0, or an empty train or val split, is an ``InputError``
    before anything is written. A non-finite validation probability stops
    the run with a ``TrainError`` before its epoch writes anything.
    """
    for split, samples in (("train", train_samples), ("val", val_samples)):
        if not samples:
            raise InputError(f"train: the {split} split has no samples")
    if epochs < 0:
        raise InputError(f"train: epochs must be >= 0, got {epochs}")
    if batch_size < 1:
        raise InputError(f"train: batch_size must be at least 1, got {batch_size}")
    if not 0.0 < lr < math.inf:
        raise InputError(f"train: lr must be finite and greater than 0, got {lr}")
    rng = np.random.default_rng(config.seed)
    state = OptimizerState(lr=lr)
    named = params.named_parameters()
    if epochs == 0:
        save_checkpoint(checkpoint_path, params, (log_path, METRICS_HEADER + "\n"))
        return None
    rows = [METRICS_HEADER]
    best = None
    for epoch in range(1, epochs + 1):
        batches = make_batches(train_samples, table, batch_size=batch_size,
                               max_len=config.max_len, text_only=config.text_only, rng=rng)
        total = 0.0
        seen = 0
        for at, batch in enumerate(batches):
            tape = Tape()
            for _, p in named:
                tape.watch(p)
            draws = rng.bit_generator.state
            # a non-finite loss is named here, with the replay's stage, and a
            # non-finite gradient by adam_step, so numpy need not warn of them
            with np.errstate(all="ignore"):
                out = forward(batch, params, config, rng=rng)
                value = batch_loss([out.probs], batch.labels, params, config.l2_lambda)
                if not np.isfinite(value.data):
                    rng.bit_generator.state = draws
                    raise TrainError(
                        f"non-finite loss at epoch {epoch}, batch {at} (samples "
                        f"{', '.join(batch.ids)}): {_replay(batch, params, config, rng)}")
                grads = tape.backward(value)
            adam_step(params, grads, state)
            _release(params)
            total += float(value.data) * len(batch)
            seen += len(batch)
        try:
            report = evaluate(params, table, val_samples, config)
        except TrainError as e:
            raise TrainError(f"validation at epoch {epoch}: {e}") from None
        rows.append(f"{epoch},val,{total / seen:.6f},"
                    f"{report.accuracy:.6f},{report.macro_f1:.6f}")
        log = (log_path, "\n".join(rows) + "\n")
        if best is None or report.accuracy > best.accuracy:
            best = report
            save_checkpoint(checkpoint_path, params, log)
        else:
            write_files([log])
        if on_epoch is not None:
            on_epoch(rows[-1])
        if stop_accuracy is not None and report.accuracy >= stop_accuracy:
            break
    return best


def _replay(batch, params, config, rng=None) -> str:
    """Where a batch's non-finite output began: its forward rerun with
    numpy's floating-point errors raised; with ``rng``, the training
    forward, drawing the same dropout masks, and its loss. A non-finite
    value made from finite ones is an overflow, an invalid operation or a
    division by zero, so the first error names the stage where one first
    appeared."""
    _release(params)
    where = ""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            out = forward(batch, params, config, rng=rng)
            if rng is not None:
                where = "loss: "
                batch_loss([out.probs], batch.labels, params, config.l2_lambda)
    except FloatingPointError as e:
        return f"first non-finite value in {where}{e}"
    return "no operation made one from finite values; an input or a parameter holds one"


def head_sweep(table, train_samples, val_samples, base_config: ModelConfig,
               head_list, *, epochs: int, lr: float = 1e-3,
               batch_size: int = 128, out_path=None):
    """Train one model per head count with a shared seed and data.

    Every head count is validated against the model widths before any
    training starts. Returns (heads, accuracy, macro_f1) tuples and
    optionally writes them as a CSV table.
    """
    if not head_list:
        raise InputError("head_sweep: empty head list")
    configs = []
    for h in head_list:
        cfg = dataclasses.replace(base_config, head_count=int(h))
        cfg.validate()
        configs.append(cfg)
    rows = []
    for cfg in configs:
        rng = np.random.default_rng(cfg.seed)
        embed = Tensor(table.matrix.data.copy(), requires_grad=True)
        params = EFNetParams.create(cfg, rng, embed)
        report = train(params, table, train_samples, val_samples, cfg,
                       epochs=epochs, lr=lr, batch_size=batch_size)
        if report is None:
            report = evaluate(params, table, val_samples, cfg)
        rows.append((cfg.head_count, report.accuracy, report.macro_f1))
    write_files([(out_path, SWEEP_HEADER + "\n" + "".join(
        f"{heads},{accuracy:.6f},{macro_f1:.6f}\n" for heads, accuracy, macro_f1 in rows))])
    return rows
