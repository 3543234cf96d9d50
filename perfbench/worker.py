"""The measured process of the EF-Net benchmark: one workload, one seed.

``run.py`` starts this script; it is not meant to be run by hand.

    worker.py generate --workload W --seed N --corpus DIR [--samples N]
    worker.py setup    --workload W --corpus DIR
    worker.py measure  --workload W --seed N --corpus DIR --seconds S
                       --trace 0|1 --out FILE [--spans FILE] [--inject-fault]

``generate`` writes the seeded corpus, ``setup`` loads it and prints the
monotonic clock once the first step could start, and ``measure`` runs the
workload for ``--seconds`` and writes its numbers as JSON to ``--out``;
``--inject-fault`` makes every forward pass raise, for the self-test.
EF-Net is imported from ``src/`` of the checkout this script sits in.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

WORKLOADS = ("train_mm", "train_text", "fd_tiny")
CORPUS_SAMPLES = 300
EPOCHS = 1            # one epoch per unit keeps train_loss_final steady across seeds
LR = 3e-3
BATCH_SIZE = 8
EVAL_REPEATS = 4      # train.evaluate calls on the test split per unit
FD_REPEATS = 4        # untaped forward+loss passes over the test split per unit
FD_STEP = 1e-5        # the gradient gate's step and tolerance, never loosened
GRAD_TOL = 1e-4
FD_CHUNK = 16         # coordinates between two taped passes on fd_tiny


def import_efnet() -> SimpleNamespace:
    import efnet
    from efnet import data, gradcheck, layers, model, tensor, train

    here = Path(efnet.__file__).resolve()
    if ROOT / "src" not in here.parents:
        raise ImportError(f"efnet imported from {here}, not from {ROOT / 'src'}")
    return SimpleNamespace(data=data, gradcheck=gradcheck, layers=layers, model=model,
                           tensor=tensor, train=train)


def model_config(ef, workload: str):
    if workload == "fd_tiny":
        # the full-network section of the gradient gate: tiny, double precision
        return ef.model.ModelConfig(
            embed_dim=8, hidden_dim=8, head_count=2, capsule_dim=4, att_dim=8,
            dropout=0.0, l2_lambda=1e-2, max_len=8, text_only=False, seed=0,
            precision="double")
    # the overfit gate's config
    return ef.model.ModelConfig(
        embed_dim=16, hidden_dim=16, head_count=2, capsule_dim=8, att_dim=16,
        dropout=0.0, l2_lambda=0.0, max_len=32, seed=0,
        text_only=workload == "train_text")


def fresh_params(ef, cfg, table):
    embed = ef.tensor.Tensor(table.matrix.data.copy(), requires_grad=True)
    return ef.model.EFNetParams.create(cfg, np.random.default_rng(cfg.seed), embed)


def tiny_model(ef, cfg):
    """The gate's model and sample: rng seed 2, ten-token vocabulary."""
    rng = np.random.default_rng(2)
    matrix = rng.uniform(-0.1, 0.1, (10, cfg.embed_dim)).astype(cfg.dtype)
    matrix[0] = 0.0
    params = ef.model.EFNetParams.create(
        cfg, rng, ef.tensor.Tensor(matrix, requires_grad=True))
    features = rng.uniform(0.0, 1.0, ef.data.FEATURE_SHAPE).astype(cfg.dtype)
    sample = ef.data.EncodedSample(
        id="t0", token_ids=rng.integers(2, 10, size=4), mask=np.ones(4, dtype=bool),
        span=(1, 3), aspect_ids=rng.integers(2, 10, size=2), label=1,
        features=features)
    return params, sample


def split_sizes(n: int):
    n_train = n * 8 // 10
    n_val = (n - n_train) // 2
    return n_train, n_val


def setup(ef, workload: str, corpus: Path) -> SimpleNamespace:
    """Everything before the first step: what ``setup_s`` covers."""
    cfg = model_config(ef, workload)
    if workload == "fd_tiny":
        params, sample = tiny_model(ef, cfg)
        return SimpleNamespace(cfg=cfg, params=params, sample=sample)
    table = ef.data.load_embeddings(corpus / "embeddings.txt")
    samples = ef.data.load_dataset(corpus / "dataset.jsonl")
    n_train, n_val = split_sizes(len(samples))
    return SimpleNamespace(
        cfg=cfg, table=table, params=fresh_params(ef, cfg, table),
        train=samples[:n_train], val=samples[n_train:n_train + n_val],
        test=samples[n_train + n_val:])


class Tally:
    """Attempted and failed operations; failures are reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def crashed(self, ops: int) -> None:
        traceback.print_exc(file=sys.stderr)
        self.attempted += ops
        self.failed += ops


def brute_force_scores(truths, preds):
    """Accuracy and macro-F1 recounted from scratch, class by class."""
    f1s = []
    for c in range(3):
        tp = sum(1 for t, p in zip(truths, preds) if t == c and p == c)
        fp = sum(1 for t, p in zip(truths, preds) if t != c and p == c)
        fn = sum(1 for t, p in zip(truths, preds) if t == c and p != c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2.0 * precision * recall / (precision + recall)
                   if precision + recall else 0.0)
    correct = sum(1 for t, p in zip(truths, preds) if t == p)
    return correct / len(truths), (f1s[0] + f1s[1] + f1s[2]) / 3.0


def params_equal(a, b) -> bool:
    return all(np.array_equal(p.data, q.data)
               for (_, p), (_, q) in zip(a.named_parameters(), b.named_parameters()))


# ---------------------------------------------------------------------------
# train_mm / train_text


def fd_pass(ef, params, encoded, cfg, phase):
    """Forward plus loss without a tape over encoded samples, as the
    gradient gate evaluates; returns the predictions, the losses and the
    seconds each sample took."""
    preds, losses, seconds = [], [], []
    for enc in encoded:
        t0 = time.perf_counter()
        with phase("bench.fd_eval"):
            out = ef.model.forward(enc, params, cfg)
            value = ef.model.loss([out.probs], [enc.label], params, cfg.l2_lambda)
        seconds.append(time.perf_counter() - t0)
        preds.append(int(np.argmax(out.probs.data)))
        losses.append(float(value.data))
    return preds, losses, seconds


def train_unit(ef, st, workdir: Path, phase, tally: Tally) -> dict:
    """One training run the way ``efnet train`` does it, then evaluation of
    its checkpoint the way ``efnet eval`` does it, with output checks."""
    cfg = st.cfg
    ckpt, log = workdir / "model.efck", workdir / "metrics.csv"
    params = fresh_params(ef, cfg, st.table)
    rows = []
    marks = [time.perf_counter()]

    def on_epoch(row):
        rows.append(row)
        marks.append(time.perf_counter())

    real_step = ef.train.adam_step

    def timed_step(*args, **kwargs):
        real_step(*args, **kwargs)
        marks.append(time.perf_counter())

    # one clock read per batch splits the training time into segments
    ef.train.adam_step = timed_step
    try:
        with phase("bench.train"):
            ef.train.train(params, st.table, st.train, st.val, cfg, epochs=EPOCHS,
                           lr=LR, batch_size=BATCH_SIZE, checkpoint_path=ckpt,
                           log_path=log, on_epoch=on_epoch)
    finally:
        ef.train.adam_step = real_step
    marks.append(time.perf_counter())
    tally.attempted += len(rows) * math.ceil(len(st.train) / BATCH_SIZE)
    losses = [float(r.split(",")[2]) for r in rows]
    tally.check(len(rows) == EPOCHS and all(math.isfinite(x) for x in losses),
                f"metrics rows {rows}")
    tally.check(log.read_text(encoding="utf-8").splitlines()
                == [ef.train.METRICS_HEADER] + rows, "metrics.csv differs from the epoch rows")

    reloaded = fresh_params(ef, cfg, st.table)
    ef.model.load_checkpoint(ckpt, reloaded)
    # one epoch: the checkpoint holds the final parameters
    tally.check(params_equal(params, reloaded), "checkpoint differs from the trained parameters")
    eval_rates = []
    reports = []
    for _ in range(EVAL_REPEATS):
        t0 = time.perf_counter()
        with phase("bench.eval"):
            reports.append(ef.train.evaluate(reloaded, st.table, st.test, cfg))
        eval_rates.append(len(st.test) / (time.perf_counter() - t0))
    report = reports[0].as_dict()
    tally.attempted += EVAL_REPEATS
    tally.check(all(r.as_dict() == report for r in reports), "repeated evaluations differ")
    live = ef.train.evaluate(params, st.table, st.test, cfg).as_dict()
    tally.check(live == report, "reloaded checkpoint does not reproduce the evaluation")

    with phase("bench.prepare"):
        encoded = [ef.data.encode_sample(s, st.table, cfg.max_len, not cfg.text_only)
                   for s in st.test]
    truths = [e.label for e in encoded]
    passes = [fd_pass(ef, reloaded, encoded, cfg, phase) for _ in range(FD_REPEATS)]
    preds, fd_losses, _ = passes[0]
    for _, pass_losses, _ in passes:
        for x in pass_losses:
            tally.check(math.isfinite(x), f"non-finite loss {x}")
    tally.check(all(p[:2] == passes[0][:2] for p in passes), "repeated forward passes differ")
    scores = ef.train.metrics_from_pairs(truths, preds)
    accuracy, macro_f1 = brute_force_scores(truths, preds)
    tally.check(scores.accuracy == accuracy == report["accuracy"]
                and abs(scores.macro_f1 - macro_f1) <= 1e-12
                and abs(report["macro_f1"] - macro_f1) <= 1e-12,
                f"scores {scores.accuracy}/{scores.macro_f1} vs recount {accuracy}/{macro_f1}")
    return {
        "train_segments": [b - a for a, b in zip(marks, marks[1:])],
        "eval_rates": eval_rates,
        "fd_segments": [p[2] for p in passes],
        "outputs": (losses[-1], report, fd_losses),
    }


def best_sum(runs) -> float:
    """Sum over positions of the fastest time at that position."""
    return sum(min(times) for times in zip(*runs))


def run_train(ef, st, seconds: float, workdir: Path, phase, tally: Tally) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    deadline = time.perf_counter() + seconds
    units = []
    first = None
    while not units or time.perf_counter() < deadline:
        try:
            unit = train_unit(ef, st, workdir, phase, tally)
        except Exception:
            tally.crashed(math.ceil(len(st.train) / BATCH_SIZE) * EPOCHS)
            if time.perf_counter() >= deadline:
                break
            continue
        if first is None:
            first = unit["outputs"]
        else:
            tally.check(unit["outputs"] == first, "a rerun changed the outputs")
        units.append(unit)
    if not units:
        return {"units": 0, "windows": {}, "metrics": {}}
    loss, report, _ = first
    # Every unit repeats the same batches in the same order, so segment j
    # (a batch, the validation pass, a checkpoint write) is identical work
    # in every unit; likewise sample j of every pass over the test split.
    # Those times count each segment at its fastest.
    train_s = best_sum(u["train_segments"] for u in units)
    fd_s = best_sum(seg for u in units for seg in u["fd_segments"])
    # The plain rates of whole units and passes, which keep every cost the
    # fastest segments drop, go on the info line.
    medians = {
        "train_samples_per_s.median": float(np.median(
            [len(st.train) * EPOCHS / sum(u["train_segments"]) for u in units])),
        "fd_evals_per_s.median": float(np.median(
            [len(st.test) / sum(seg) for u in units for seg in u["fd_segments"]])),
    }
    return {
        "units": len(units),
        "windows": {"eval_samples_per_s": [r for u in units for r in u["eval_rates"]]},
        "metrics": {"train_loss_final": loss,
                    "train_samples_per_s": len(st.train) * EPOCHS / train_s,
                    "fd_evals_per_s": len(st.test) / fd_s},
        "checks": {"eval_accuracy": report["accuracy"], "eval_macro_f1": report["macro_f1"],
                   **medians},
    }


# ---------------------------------------------------------------------------
# fd_tiny


def coordinate_order(params, seed: int):
    """Every coordinate of every named parameter in a seeded order that
    visits the parameters round-robin, so the first ones cover them all."""
    rng = np.random.default_rng(seed)
    perms = [rng.permutation(p.data.size) for _, p in params.named_parameters()]
    order = []
    for k in range(max(len(perm) for perm in perms)):
        order += [(pi, int(perm[k])) for pi, perm in enumerate(perms) if k < len(perm)]
    return order


def run_fd(ef, st, seed: int, seconds: float, phase, tally: Tally) -> dict:
    cfg, params, sample = st.cfg, st.params, st.sample
    named = params.named_parameters()

    def run_loss():
        with phase("bench.fd_eval"):
            out = ef.model.forward(sample, params, cfg)
            return float(ef.model.loss([out.probs], [sample.label], params,
                                       cfg.l2_lambda).data)

    def taped_pass():
        with phase("bench.taped_pass"):
            tape = ef.tensor.Tape()
            try:
                for _, p in named:
                    tape.watch(p)
                out = ef.model.forward(sample, params, cfg)
                grads = tape.backward(
                    ef.model.loss([out.probs], [sample.label], params, cfg.l2_lambda))
                return [np.array(grads[p]).reshape(-1) for _, p in named]
            finally:
                # untie the parameters so the plain evaluations stay off this tape
                for _, p in named:
                    p.tape = None
                    p.node = None

    try:
        base_loss = run_loss()
        analytic = taped_pass()
    except Exception:
        tally.crashed(2)
        return {"units": 0, "windows": {}, "metrics": {}}
    tally.check(math.isfinite(base_loss), f"non-finite loss {base_loss}")
    order = coordinate_order(params, seed)
    fd_rates, taped_s, forward_s = [], [], []
    worst = 0.0
    at = 0
    deadline = time.perf_counter() + seconds
    while at < len(named) or time.perf_counter() < deadline:
        chunk = [order[(at + k) % len(order)] for k in range(FD_CHUNK)]
        at += FD_CHUNK
        try:
            t0 = time.perf_counter()
            for pi, i in chunk:
                data = named[pi][1].data
                orig = data.flat[i]
                data.flat[i] = orig + FD_STEP
                hi = run_loss()
                data.flat[i] = orig - FD_STEP
                lo = run_loss()
                data.flat[i] = orig
                num = (hi - lo) / (2.0 * FD_STEP)
                ana = analytic[pi][i]
                err = ef.gradcheck.max_rel_error([ana], [num])
                worst = max(worst, err)
                tally.check(err < GRAD_TOL, f"{named[pi][0]}[{i}]: relative error {err:.2e}")
            fd_rates.append(2 * FD_CHUNK / (time.perf_counter() - t0))

            t0 = time.perf_counter()
            again = taped_pass()
            taped_s.append(time.perf_counter() - t0)
            tally.check(all(np.array_equal(a, b) for a, b in zip(again, analytic)),
                        "a taped rerun changed the gradient")

            t0 = time.perf_counter()
            with phase("bench.forward"):
                probs = ef.model.forward(sample, params, cfg).probs.data
            forward_s.append(time.perf_counter() - t0)
            tally.check(bool(np.isfinite(probs).all()), "non-finite probabilities")
        except Exception:
            tally.crashed(FD_CHUNK + 2)
            if time.perf_counter() >= deadline:
                break
    if not fd_rates:
        return {"units": 0, "windows": {}, "metrics": {}}
    return {
        "units": len(fd_rates),
        "windows": {
            "train_samples_per_s": [1.0 / t for t in taped_s],
            "eval_samples_per_s": [1.0 / t for t in forward_s],
            "fd_evals_per_s": fd_rates,
        },
        "metrics": {"train_loss_final": base_loss},
        "checks": {"grad_max_rel_err": worst, "coordinates_checked": min(at, len(order)),
                   "coordinates_total": len(order)},
    }


# ---------------------------------------------------------------------------


def environment() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def inject_fault(ef) -> None:
    """Make every forward pass raise, so that every operation fails."""
    def broken(*args, **kwargs):
        raise RuntimeError("injected fault")

    ef.model.forward = ef.train.forward = broken


def cmd_generate(args) -> None:
    if args.workload == "fd_tiny":
        return  # the tiny model is built from its own seed; --seed picks coordinates
    ef = import_efnet()
    ef.data.synth_generate(args.corpus, seed=args.seed, n=args.samples,
                           grid_rule="both" if args.workload == "train_mm" else "none",
                           embed_dim=16)


def cmd_setup(args) -> None:
    setup(import_efnet(), args.workload, Path(args.corpus))
    print(time.clock_gettime(time.CLOCK_MONOTONIC), flush=True)


def cmd_measure(args) -> None:
    ef = import_efnet()
    if args.inject_fault:
        inject_fault(ef)
    tracer = None
    phase = contextlib.nullcontext
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install({"data": ef.data, "model": ef.model, "layers": ef.layers,
                        "tensor": ef.tensor, "train": ef.train})
        phase = tracer.span
    st = setup(ef, args.workload, Path(args.corpus))
    tally = Tally()
    if args.workload == "fd_tiny":
        result = run_fd(ef, st, args.seed, args.seconds, phase, tally)
    else:
        result = run_train(ef, st, args.seconds, Path(args.corpus) / "run", phase, tally)
    # A rate is the best window of the run. Other tenants of the machine put
    # it into slower states that last seconds (1.5-1.7x slower); the run's
    # median follows how long those lasted, the best window does not.
    result["metrics"].update(
        (name, max(rates)) for name, rates in result["windows"].items())
    result.setdefault("checks", {}).update(
        (f"{name}.median", float(np.median(rates)))
        for name, rates in result["windows"].items())
    result.update(
        attempted=tally.attempted, failed=tally.failed,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=environment())
    if tracer is not None:
        result["per_layer"] = tracer.layer_metrics()
        result["self_times"] = tracer.self_times()
        if args.spans:
            tracer.write(args.spans)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("generate", "setup", "measure"))
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=CORPUS_SAMPLES)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--spans")
    parser.add_argument("--inject-fault", action="store_true")
    args = parser.parse_args(argv)
    {"generate": cmd_generate, "setup": cmd_setup, "measure": cmd_measure}[args.command](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
