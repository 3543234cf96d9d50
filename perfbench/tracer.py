"""Span recorder for the traced benchmark run.

The tracer wraps EF-Net from outside the package: every public module-level
function of ``efnet.data``, ``efnet.model``, ``efnet.layers`` and
``efnet.train`` becomes a span named ``<module>.<function>`` (so the model
stages read ``model.encode_context``, ``layers.bigru_encode``, ...,
``model.loss``, the stage names the pipeline uses), ``Tape.backward``
becomes the span ``tensor.backward``, and every public op of
``efnet.tensor`` is counted, not spanned, because a sample makes about two
hundred of them.

Spans are kept in memory as ``[name, start, end, parent, ops, matmuls,
extra]`` and written out once, at the end of the run. ``ops`` and
``matmuls`` are inclusive: a closing span adds its counts to its parent.
``extra`` holds one number that some spans record about their result:
1 when a forward or loss output lives on a tape, the node count of the tape
a backward replays, the size of the feature file a load read.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import time

NAME, START, END, PARENT, OPS, MATMULS, EXTRA = range(7)

# Public names of efnet.tensor that are not ops: a conversion helper and
# the module-level alias of Tape.backward (spanned through the method).
NOT_OPS = ("as_tensor", "backward")


def _taped_output(args, result):
    probs = getattr(result, "probs", result)
    return 1 if getattr(probs, "tape", None) is not None else 0


def _file_size(args, result):
    return os.stat(args[0]).st_size


def _tape_nodes(args, result):
    return len(args[0])


POST = {
    "model.forward": _taped_output,
    "model.loss": _taped_output,
    "data.load_image_features": _file_size,
    "tensor.backward": _tape_nodes,
}


class Tracer:
    """In-memory span recorder; ``install`` patches the efnet modules."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark opens around one of its own phases."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, 0, 0, 0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self.stack.pop()
        if rec[PARENT] >= 0:
            parent = self.spans[rec[PARENT]]
            parent[OPS] += rec[OPS]
            parent[MATMULS] += rec[MATMULS]

    def _spanned(self, fn, name: str):
        post = POST.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if post is not None:
                rec[EXTRA] = post(args, result)
            return result

        return wrapper

    def _counted(self, fn, is_matmul: bool):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                rec = spans[stack[-1]]
                rec[OPS] += 1
                if is_matmul:
                    rec[MATMULS] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap the public functions of ``modules`` ({short name: module}).

        Every module-level binding of a wrapped function is replaced, so
        names copied by ``from .x import f`` are traced as well.
        """
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                if short == "tensor":
                    if attr not in NOT_OPS:
                        wrappers[obj] = self._counted(obj, attr == "matmul")
                else:
                    wrappers[obj] = self._spanned(obj, f"{short}.{attr}")
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
        tape_cls = modules["tensor"].Tape
        tape_cls.backward = self._spanned(tape_cls.backward, "tensor.backward")

    def write(self, path) -> None:
        """One JSON line per span: name, start/end in microseconds, parent."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps({
                    "name": rec[NAME],
                    "start_us": round((rec[START] - t0) * 1e6, 3),
                    "end_us": round((rec[END] - t0) * 1e6, 3),
                    "parent": rec[PARENT],
                }) + "\n")

    def _child_durations(self) -> list:
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        return child

    def self_times(self) -> dict:
        """Per span name: calls, total and self milliseconds (self time is
        the span's duration minus that of its direct children)."""
        child = self._child_durations()
        table: dict = {}
        for i, rec in enumerate(self.spans):
            row = table.setdefault(rec[NAME], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            dur = rec[END] - rec[START]
            row["calls"] += 1
            row["total_ms"] += dur * 1e3
            row["self_ms"] += (dur - child[i]) * 1e3
        return table

    def layer_metrics(self) -> dict:
        """The per-layer metrics of BENCHMARK.json, from the recorded spans.

        A "sample" is one ``model.forward`` call; an "fd eval" is one
        ``bench.fd_eval`` span (forward plus loss without a tape); an
        "epoch" is one ``data.make_batches`` call inside ``train.train``.
        Layers a workload never runs report 0.
        """
        spans = self.spans
        child = self._child_durations()
        in_train = [False] * len(spans)
        by_name: dict = {}
        for i, rec in enumerate(spans):
            parent = rec[PARENT]
            in_train[i] = rec[NAME] == "train.train" or (parent >= 0 and in_train[parent])
            by_name.setdefault(rec[NAME], []).append(i)

        def dur(i):
            return spans[i][END] - spans[i][START]

        def pick(name, where=lambda i: True):
            return [i for i in by_name.get(name, ()) if where(i)]

        def ratio(num, den):
            return num / den if den else 0.0

        def us_per(name, den, where=lambda i: True):
            return ratio(sum(dur(i) for i in pick(name, where)) * 1e6, den)

        def under(parent_name):
            return lambda i: spans[i][PARENT] >= 0 and spans[spans[i][PARENT]][NAME] == parent_name

        forwards = pick("model.forward")
        n_fwd = len(forwards)
        n_taped = sum(spans[i][EXTRA] for i in forwards)
        fd_evals = pick("bench.fd_eval")
        n_fd = len(fd_evals)
        epochs = len(pick("data.make_batches", lambda i: in_train[i]))
        trains = len(pick("train.train"))
        loads = pick("data.load_image_features", lambda i: in_train[i])
        containers = pick("train.train") + pick("bench.taped_pass")

        def taped(i):
            return spans[i][EXTRA] == 1

        def per_call(name, scale, where=lambda i: True):
            calls = pick(name, where)
            return ratio(sum(dur(i) for i in calls) * scale, len(calls))

        return {
            "tensor.ops_per_sample": ratio(sum(spans[i][OPS] for i in forwards), n_fwd),
            "tensor.matmul.calls_per_sample": ratio(sum(spans[i][MATMULS] for i in forwards), n_fwd),
            "tensor.tape_nodes_per_sample": ratio(
                sum(spans[i][EXTRA] for i in pick("tensor.backward")), n_taped),
            "layers.multi_head.calls_per_sample": ratio(len(pick("layers.multi_head")), n_fwd),
            "layers.multi_head.us_per_call": per_call("layers.multi_head", 1e6),
            "layers.bigru_encode.us_per_sample": us_per("layers.bigru_encode", n_fwd),
            "model.encode_context.us_per_sample": us_per("model.encode_context", n_fwd),
            "model.interact.us_per_sample": us_per("model.interact", n_fwd),
            "model.fuse.us_per_sample": us_per("model.fuse", n_fwd),
            "model.classify.us_per_sample": us_per("model.classify", n_fwd),
            "model.forward.us_per_sample": us_per("model.forward", n_fwd),
            "tensor.ops_per_fd_eval": ratio(sum(spans[i][OPS] for i in fd_evals), n_fd),
            "model.forward.us_per_fd_eval": us_per("model.forward", n_fd, under("bench.fd_eval")),
            "model.loss.us_per_fd_eval": us_per("model.loss", n_fd, under("bench.fd_eval")),
            "tensor.backward.us_per_batch": per_call("tensor.backward", 1e6),
            "model.loss.us_per_batch": per_call("model.loss", 1e6, taped),
            "model.encode_visual.us_per_sample": us_per("model.encode_visual", n_fwd),
            "layers.capsule_layer.us_per_call": per_call("layers.capsule_layer", 1e6),
            "model.image_attention.us_per_sample": us_per("model.image_attention", n_fwd),
            "data.load_image_features.us_per_call": per_call("data.load_image_features", 1e6),
            "data.load_image_features.calls_per_epoch": ratio(len(loads), epochs),
            "data.feature_mb_read_per_epoch": ratio(
                sum(spans[i][EXTRA] for i in loads) / 1e6, epochs),
            "data.make_batches.ms_per_epoch": us_per(
                "data.make_batches", epochs, lambda i: in_train[i]) / 1e3,
            "train.adam_step.us_per_step": per_call("train.adam_step", 1e6),
            "model.save_checkpoint.ms_per_call": per_call("model.save_checkpoint", 1e3),
            "model.save_checkpoint.calls": ratio(len(pick("model.save_checkpoint")), trains),
            "train.evaluate.ms_per_call": per_call("train.evaluate", 1e3),
            "trace.coverage": ratio(sum(child[i] for i in containers),
                                    sum(dur(i) for i in containers)),
        }

