import errno
import math
import os
import re
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import tiny_config, tiny_params, tiny_sample

from efnet import model as md
from efnet import train as tr
from efnet.data import (
    InputError,
    encode_sample,
    load_dataset,
    load_embeddings,
    make_batches,
    synth_generate,
)
from efnet.layers import ConfigError, InternalError, ParamBuffer
from efnet.tensor import Tape, Tensor
from efnet.train import (
    EvalReport,
    OptimizerState,
    TrainError,
    adam_step,
    evaluate,
    head_sweep,
    metrics_from_pairs,
    train,
)


class FakeParams(SimpleNamespace):
    """Plain tensors as a parameter set, packed one tensor per block."""

    def __init__(self, items, **fields):
        super().__init__(items=items, buffer=ParamBuffer.pack([[item] for item in items]),
                         **fields)

    def named_parameters(self):
        return self.items


class FakeGrads:
    def __init__(self, mapping):
        self.mapping = mapping

    def get(self, t):
        return self.mapping.get(id(t))


def fake_model(**named):
    embed = Tensor(np.zeros((3, 2)), requires_grad=True)
    items = [("embed.table", embed)] + list(named.items())
    return FakeParams(embed=embed, items=items)


class TestAdamStep:
    def test_first_step_magnitude(self):
        w = Tensor(np.array([2.0, -1.0, 0.25]), requires_grad=True)
        params = fake_model(w=w)
        g = np.array([0.5, -0.2, 3.0])
        grads = FakeGrads({id(params.embed): np.zeros((3, 2)), id(w): g})
        state = OptimizerState(lr=1e-3)
        adam_step(params, grads, state)
        # first step collapses to -lr * g / (|g| + eps), i.e. -lr * sign(g)
        np.testing.assert_allclose(
            w.data, np.array([2.0, -1.0, 0.25]) - 1e-3 * np.sign(g), atol=1e-9
        )
        assert state.t == 1
        # one flat moment each, laid out as the buffer: the embedding's 6
        # entries, then w's
        assert state.m.shape == state.v.shape == (9,)
        np.testing.assert_allclose(state.m[6:], (1.0 - tr.BETA1) * g, rtol=1e-12)
        np.testing.assert_allclose(state.v[6:], (1.0 - tr.BETA2) * g * g, rtol=1e-12)

    def test_zero_gradient_is_fixed_point(self):
        w = Tensor(np.array([[1.5, -2.0]]), requires_grad=True)
        params = fake_model(w=w)
        grads = FakeGrads({id(params.embed): np.zeros((3, 2)), id(w): np.zeros((1, 2))})
        state = OptimizerState()
        for _ in range(3):
            adam_step(params, grads, state)
        np.testing.assert_array_equal(w.data, [[1.5, -2.0]])
        assert state.t == 3

    def test_zero_gradient_moments_flush_to_zero(self):
        # a first moment that only decays turns subnormal after about 820
        # steps here; the flush makes it zero instead of leaving it stuck
        embed = Tensor(np.zeros((3, 2), np.float32), requires_grad=True)
        w = Tensor(np.array([0.5, -0.5], np.float32), requires_grad=True)
        params = FakeParams([("embed.table", embed), ("w", w)], embed=embed)
        state = OptimizerState()
        zero = FakeGrads({id(params.embed): np.zeros((3, 2), np.float32),
                          id(w): np.zeros(2, np.float32)})
        adam_step(params, FakeGrads({id(params.embed): np.zeros((3, 2), np.float32),
                                     id(w): np.ones(2, np.float32)}), state)
        for _ in range(999):
            adam_step(params, zero, state)
        np.testing.assert_array_equal(state.m[6:], 0.0)
        tiny = np.finfo(np.float32).tiny
        assert (state.v[6:] >= tiny).all()

    def test_pad_row_rezeroed(self):
        params = fake_model()
        grads = FakeGrads({id(params.embed): np.ones((3, 2))})
        adam_step(params, grads, OptimizerState(lr=0.1))
        np.testing.assert_array_equal(params.embed.data[0], 0.0)
        assert (params.embed.data[1:] != 0.0).all()

    def test_missing_gradient(self):
        params = fake_model(w=Tensor(np.zeros(2), requires_grad=True))
        grads = FakeGrads({id(params.embed): np.zeros((3, 2))})
        with pytest.raises(InternalError, match="missing gradient"):
            adam_step(params, grads, OptimizerState())

    def test_shape_mismatch(self):
        w = Tensor(np.zeros(2), requires_grad=True)
        params = fake_model(w=w)
        grads = FakeGrads({id(params.embed): np.zeros((3, 2)), id(w): np.zeros(3)})
        with pytest.raises(InternalError, match="shape"):
            adam_step(params, grads, OptimizerState())

    def test_identical_inputs_identical_updates(self):
        outs = []
        for _ in range(2):
            w = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
            params = fake_model(w=w)
            grads = FakeGrads(
                {id(params.embed): np.zeros((3, 2)), id(w): np.array([0.1, -0.4, 0.9])}
            )
            state = OptimizerState()
            for _ in range(5):
                adam_step(params, grads, state)
            outs.append(w.data.copy())
        np.testing.assert_array_equal(outs[0], outs[1])


def loop_adam_step(params, grads, state):
    """Adam one parameter at a time, the per-parameter loop ``adam_step``
    must match bit for bit; ``state`` holds name-keyed moments."""
    state.t += 1
    c1 = 1.0 - tr.BETA1 ** state.t
    c2 = 1.0 - tr.BETA2 ** state.t
    for name, p in params.named_parameters():
        g = grads.get(p)
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m = tr.BETA1 * m + (1.0 - tr.BETA1) * g
        v = tr.BETA2 * v + (1.0 - tr.BETA2) * (g * g)
        state.m[name] = m
        state.v[name] = v
        p.data = p.data - state.lr * (m / c1) / (np.sqrt(v / c2) + tr.EPS)
    params.embed.data[0] = 0.0


def loop_state_of(lr):
    return SimpleNamespace(lr=lr, t=0, m={}, v={})


def tape_gradients(params, cfg, sample):
    for _, p in params.named_parameters():
        p.tape = p.node = None
    tape = Tape()
    for _, p in params.named_parameters():
        tape.watch(p)
    out = md.forward(sample, params, cfg)
    return tape.backward(md.loss([out.probs], [sample.label], params, cfg.l2_lambda))


class TestFlatAdam:
    def models(self, precision):
        cfg = tiny_config(precision=precision, l2_lambda=1e-2)
        rng = np.random.default_rng(5)
        flat = tiny_params(cfg, rng)
        sample = tiny_sample(cfg, rng)
        loop = tiny_params(cfg, np.random.default_rng(5))
        return cfg, flat, loop, sample

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_bitwise_equal_to_per_parameter_loop(self, precision):
        cfg, flat, loop, sample = self.models(precision)
        flat_state, loop_state = OptimizerState(lr=3e-2), loop_state_of(3e-2)
        for step in range(6):
            adam_step(flat, tape_gradients(flat, cfg, sample), flat_state)
            loop_adam_step(loop, tape_gradients(loop, cfg, sample), loop_state)
            for (name, p), (_, q) in zip(flat.named_parameters(), loop.named_parameters()):
                assert p.data.dtype == cfg.dtype and p.data.shape == q.data.shape
                np.testing.assert_array_equal(p.data, q.data, err_msg=f"{name}, step {step}")
            names = [name for name, _ in loop.named_parameters()]
            for moments, want in ((flat_state.m, loop_state.m), (flat_state.v, loop_state.v)):
                np.testing.assert_array_equal(
                    moments, np.concatenate([want[name] for name in names], axis=None))
        assert flat_state.t == loop_state.t == 6

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_rebound_parameter_updated_as_the_loop_does(self, precision):
        cfg, flat, loop, sample = self.models(precision)
        flat_state, loop_state = OptimizerState(lr=3e-2), loop_state_of(3e-2)
        for step in range(3):
            grads = tape_gradients(flat, cfg, sample)
            loop_grads = tape_gradients(loop, cfg, sample)
            for model in (flat, loop):
                model.embed.data = model.embed.data * 2
                model.inter_ctx.wq[1].data = model.inter_ctx.wq[1].data + 0.25
            adam_step(flat, grads, flat_state)
            loop_adam_step(loop, loop_grads, loop_state)
            for (name, p), (_, q) in zip(flat.named_parameters(), loop.named_parameters()):
                np.testing.assert_array_equal(p.data, q.data, err_msg=f"{name}, step {step}")
            assert np.shares_memory(flat.embed.data, flat.buffer.blocks[0])

    def test_nan_gradient_names_parameter_and_changes_nothing(self):
        cfg, params, _, sample = self.models("single")
        state = OptimizerState()
        adam_step(params, tape_gradients(params, cfg, sample), state)
        before = {name: p.data.copy() for name, p in params.named_parameters()}
        moments = state.m.copy()
        grads = tape_gradients(params, cfg, sample)
        grads[params.fusion.wk[1]][0, 1] = np.nan
        with pytest.raises(TrainError, match=r"non-finite gradient for parameter fusion\.h1\.wk"):
            adam_step(params, grads, state)
        assert state.t == 1
        for name, p in params.named_parameters():
            np.testing.assert_array_equal(p.data, before[name], err_msg=name)
        np.testing.assert_array_equal(state.m, moments)

    def test_infinite_rate_names_first_parameter(self):
        cfg, params, _, sample = self.models("double")
        before = {name: p.data.copy() for name, p in params.named_parameters()}
        with pytest.raises(TrainError, match=r"non-finite update for parameter embed\.table"):
            adam_step(params, tape_gradients(params, cfg, sample), OptimizerState(lr=np.inf))
        for name, p in params.named_parameters():
            np.testing.assert_array_equal(p.data, before[name], err_msg=name)

    def test_mixed_dtypes_rejected(self):
        w = Tensor(np.zeros(2), requires_grad=True)
        params = fake_model(w=w)
        with pytest.raises(InternalError, match="parameter w is float32"):
            w.data = np.zeros(2, dtype=np.float32)
        assert w.data.dtype == np.float64 and np.shares_memory(w.data, params.buffer.flat)
        grads = FakeGrads({id(params.embed): np.zeros((3, 2)), id(w): np.zeros(2, np.float32)})
        with pytest.raises(InternalError, match="parameter w has a float32 gradient"):
            adam_step(params, grads, OptimizerState())


class TestMetrics:
    def test_perfect(self):
        report = metrics_from_pairs([0, 1, 2, 1], [0, 1, 2, 1])
        assert report.accuracy == 1.0
        assert report.macro_f1 == 1.0
        assert report.f1 == [1.0, 1.0, 1.0]

    def test_all_one_class_on_balanced_truth(self):
        truths = [0] * 5 + [1] * 5 + [2] * 5
        report = metrics_from_pairs(truths, [0] * 15)
        assert report.macro_f1 == 1.0 / 6.0
        assert report.precision[0] == 1.0 / 3.0
        assert report.recall[0] == 1.0
        assert report.f1 == [0.5, 0.0, 0.0]

    def test_confusion_row_sums_are_truth_counts(self):
        rng = np.random.default_rng(0)
        truths = rng.integers(0, 3, 200)
        preds = rng.integers(0, 3, 200)
        report = metrics_from_pairs(truths, preds)
        for c in range(3):
            assert sum(report.confusion[c]) == int((truths == c).sum())
        trace = sum(report.confusion[c][c] for c in range(3))
        assert report.accuracy == trace / 200

    def test_matches_brute_force_oracle_exactly(self):
        # independent reimplementation, same zero-division convention
        def oracle(truths, preds):
            f1s = []
            for c in range(3):
                tp = sum(1 for t, p in zip(truths, preds) if t == c and p == c)
                fp = sum(1 for t, p in zip(truths, preds) if t != c and p == c)
                fn = sum(1 for t, p in zip(truths, preds) if t == c and p != c)
                prec = tp / (tp + fp) if tp + fp else 0.0
                rec = tp / (tp + fn) if tp + fn else 0.0
                f1s.append(2.0 * prec * rec / (prec + rec) if prec + rec else 0.0)
            return (f1s[0] + f1s[1] + f1s[2]) / 3.0

        rng = np.random.default_rng(1)
        for trial in range(40):
            n = int(rng.integers(1, 30))
            truths = [int(x) for x in rng.integers(0, 3, n)]
            preds = [int(x) for x in rng.integers(0, 3, n)]
            got = metrics_from_pairs(truths, preds).macro_f1
            assert got == oracle(truths, preds), f"trial {trial}"

    def test_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            truths = rng.integers(0, 3, 30)
            preds = rng.integers(0, 3, 30)
            report = metrics_from_pairs(truths, preds)
            assert 0.0 <= report.accuracy <= 1.0
            assert 0.0 <= report.macro_f1 <= 1.0

    def test_input_validation(self):
        with pytest.raises(InputError):
            metrics_from_pairs([], [])
        with pytest.raises(InputError):
            metrics_from_pairs([0, 1], [0])


def synth_corpus(tmp_path, seed=0, n=12, rule="both", embed_dim=8):
    out = tmp_path / f"corpus{seed}{rule}"
    synth_generate(out, seed=seed, n=n, vocab_size=20, grid_rule=rule,
                   embed_dim=embed_dim)
    table = load_embeddings(out / "embeddings.txt")
    samples = load_dataset(out / "dataset.jsonl")
    return table, samples


def corpus_config(**overrides):
    base = dict(embed_dim=8, hidden_dim=8, head_count=2, capsule_dim=4,
                att_dim=8, dropout=0.0, l2_lambda=0.0, max_len=12, seed=0)
    base.update(overrides)
    return md.ModelConfig(**base)


def corpus_params(cfg, table):
    rng = np.random.default_rng(cfg.seed)
    embed = Tensor(table.matrix.data.copy(), requires_grad=True)
    return md.EFNetParams.create(cfg, rng, embed)


class TestEvaluate:
    def test_report_shape_and_consistency(self, tmp_path):
        table, samples = synth_corpus(tmp_path)
        cfg = corpus_config()
        params = corpus_params(cfg, table)
        report = evaluate(params, table, samples, cfg)
        assert isinstance(report, EvalReport)
        assert 0.0 <= report.accuracy <= 1.0
        total = sum(sum(row) for row in report.confusion)
        assert total == len(samples)
        for c in range(3):
            want = sum(1 for s in samples if s.label == c)
            assert sum(report.confusion[c]) == want

    def test_deterministic(self, tmp_path):
        table, samples = synth_corpus(tmp_path)
        cfg = corpus_config(text_only=True)
        params = corpus_params(cfg, table)
        a = evaluate(params, table, samples, cfg)
        b = evaluate(params, table, samples, cfg)
        assert a == b

    @pytest.mark.parametrize("text_only", [False, True])
    def test_batched_predictions_match_per_sample_forward(self, tmp_path, text_only):
        table, samples = synth_corpus(tmp_path, n=tr.EVAL_BATCH + 9,
                                      rule="none" if text_only else "both")
        cfg = corpus_config(text_only=text_only, max_len=9)
        params = corpus_params(cfg, table)
        single = []
        for s in samples:
            enc = encode_sample(s, table, cfg.max_len, not text_only)
            single.append(int(np.argmax(md.forward(enc, params, cfg).probs.data)))
        batches = make_batches(samples, table, batch_size=tr.EVAL_BATCH,
                               max_len=cfg.max_len, text_only=text_only)
        assert [len(b) for b in batches] == [tr.EVAL_BATCH, 9]
        batched = []
        for b in batches:
            batched += np.argmax(md.forward(b, params, cfg).probs.data, axis=1).tolist()
        assert batched == single
        truths = [s.label for s in samples]
        assert evaluate(params, table, samples, cfg) == metrics_from_pairs(truths, single)

    def test_empty_dataset(self, tmp_path):
        table, _ = synth_corpus(tmp_path)
        cfg = corpus_config()
        params = corpus_params(cfg, table)
        with pytest.raises(InputError, match="empty"):
            evaluate(params, table, [], cfg)


ROW_RE = re.compile(r"^\d+,val,\d+\.\d{6},[01]\.\d{6},[01]\.\d{6}$")


class TestTrain:
    def test_initial_loss_near_uniform(self, tmp_path):
        table, samples = synth_corpus(tmp_path, n=24)
        cfg = corpus_config()
        params = corpus_params(cfg, table)
        rows = []
        train(params, table, samples, samples, cfg, epochs=1, batch_size=64,
              on_epoch=rows.append)
        first_loss = float(rows[0].split(",")[2])
        assert abs(first_loss - math.log(3.0)) < 0.15

    def test_metrics_log_format(self, tmp_path):
        table, samples = synth_corpus(tmp_path, rule="none")
        cfg = corpus_config(text_only=True)
        params = corpus_params(cfg, table)
        log = tmp_path / "metrics.csv"
        train(params, table, samples, samples, cfg, epochs=3, batch_size=8,
              log_path=log)
        lines = log.read_text().splitlines()
        assert lines[0] == tr.METRICS_HEADER
        assert len(lines) == 4
        for i, line in enumerate(lines[1:], start=1):
            assert ROW_RE.match(line), line
            assert line.split(",")[0] == str(i)

    def test_metrics_log_keeps_rows_of_finished_epochs(self, tmp_path):
        table, samples = synth_corpus(tmp_path, rule="none")
        cfg = corpus_config(text_only=True)
        params = corpus_params(cfg, table)
        log = tmp_path / "metrics.csv"
        rows = []

        def poison(row):
            rows.append(row)
            params.cls_b.data[:] = np.nan

        with pytest.raises(TrainError, match="epoch 2"):
            train(params, table, samples, samples, cfg, epochs=3, batch_size=4,
                  log_path=log, on_epoch=poison)
        assert len(rows) == 1
        assert log.read_text().splitlines() == [tr.METRICS_HEADER] + rows

    def test_zero_epochs(self, tmp_path):
        table, samples = synth_corpus(tmp_path, rule="none")
        cfg = corpus_config(text_only=True)
        params = corpus_params(cfg, table)
        before = {n: p.data.copy() for n, p in params.named_parameters()}
        log = tmp_path / "metrics.csv"
        ck = tmp_path / "model.efck"
        report = train(params, table, samples, samples, cfg, epochs=0,
                       checkpoint_path=ck, log_path=log)
        assert report is None
        assert log.read_text() == tr.METRICS_HEADER + "\n"
        for n, p in params.named_parameters():
            np.testing.assert_array_equal(p.data, before[n], err_msg=n)
        md.load_checkpoint(ck, params)

    def test_loss_strictly_decreases_per_step(self):
        failures = 0
        for trial in range(20):
            rng = np.random.default_rng(100 + trial)
            cfg = tiny_config(precision="single")
            params = tiny_params(cfg, rng)
            sample = tiny_sample(cfg, rng)

            def current_loss():
                out = md.forward(sample, params, cfg)
                return float(md.loss([out.probs], [sample.label], params, 0.0).data)

            from efnet.tensor import Tape

            before = current_loss()
            tape = Tape()
            for _, p in params.named_parameters():
                tape.watch(p)
            out = md.forward(sample, params, cfg)
            grads = tape.backward(md.loss([out.probs], [sample.label], params, 0.0))
            adam_step(params, grads, OptimizerState(lr=1e-3))
            for _, p in params.named_parameters():
                p.tape = None
                p.node = None
            if current_loss() >= before:
                failures += 1
        assert failures <= 1

    def test_same_seed_same_artifacts(self, tmp_path):
        outs = []
        for run in range(2):
            table, samples = synth_corpus(tmp_path, seed=run * 0)
            cfg = corpus_config(dropout=0.2)
            params = corpus_params(cfg, table)
            log = tmp_path / f"metrics{run}.csv"
            ck = tmp_path / f"model{run}.efck"
            train(params, table, samples, samples, cfg, epochs=2, batch_size=4,
                  checkpoint_path=ck, log_path=log)
            outs.append((log.read_bytes(), ck.read_bytes()))
        assert outs[0] == outs[1]

    def test_non_finite_loss_names_first_batch(self, tmp_path):
        table, samples = synth_corpus(tmp_path, rule="none")
        cfg = corpus_config(text_only=True)
        params = corpus_params(cfg, table)
        params.embed.data[1:, :] = np.nan
        with pytest.raises(TrainError, match=r"epoch 1, batch 0"):
            train(params, table, samples, samples, cfg, epochs=1, batch_size=4)

    def test_non_finite_loss_names_stage_and_samples(self, tmp_path, monkeypatch):
        # one parameter driven into overflow: the capsule squash in the
        # image stage is the first to make a non-finite value
        table, samples = synth_corpus(tmp_path)
        cfg = corpus_config(dropout=0.2)
        params = corpus_params(cfg, table)
        w = params.capsule.w.data
        w[...] = np.finfo(w.dtype).max ** 0.75
        first = make_batches(samples, table, batch_size=4, max_len=cfg.max_len,
                             text_only=False, rng=np.random.default_rng(cfg.seed))[0]
        draws = []

        def spy(*args, rng, **kwargs):
            draws.append(rng.bit_generator.state)
            return md.forward(*args, rng=rng, **kwargs)

        monkeypatch.setattr(tr, "forward", spy)
        with pytest.raises(TrainError) as caught:
            train(params, table, samples, samples, cfg, epochs=1, batch_size=4)
        assert str(caught.value).startswith(
            f"non-finite loss at epoch 1, batch 0 (samples {', '.join(first.ids)}): "
            "first non-finite value in encode_visual: overflow encountered in ")
        # the replay draws the failing forward's dropout masks, off the tape
        assert len(draws) == 2 and draws[0] == draws[1]
        assert all(p.tape is None for _, p in params.named_parameters())

    def test_failed_first_epoch_leaves_earlier_files(self, tmp_path):
        # nothing is written before the first epoch ends, so a run that
        # fails in it keeps what an earlier run left
        table, samples = synth_corpus(tmp_path, rule="none")
        cfg = corpus_config(text_only=True)
        params = corpus_params(cfg, table)
        log, ck = tmp_path / "metrics.csv", tmp_path / "model.efck"
        log.write_text("earlier log\n")
        ck.write_bytes(b"earlier checkpoint")
        params.cls_b.data[:] = np.nan
        with pytest.raises(TrainError, match=r"epoch 1, batch 0 .*an input or a parameter"):
            train(params, table, samples, samples, cfg, epochs=1, batch_size=4,
                  checkpoint_path=ck, log_path=log)
        assert log.read_text() == "earlier log\n"
        assert ck.read_bytes() == b"earlier checkpoint"

    @pytest.mark.parametrize("split", ["train", "val"])
    def test_empty_split_is_input_error_before_writing(self, tmp_path, split):
        table, samples = synth_corpus(tmp_path, rule="none")
        cfg = corpus_config(text_only=True)
        params = corpus_params(cfg, table)
        log, ck = tmp_path / "metrics.csv", tmp_path / "model.efck"
        splits = {"train": samples, "val": samples, split: []}
        with pytest.raises(InputError, match=f"train: the {split} split has no samples"):
            train(params, table, splits["train"], splits["val"], cfg, epochs=1, batch_size=4,
                  checkpoint_path=ck, log_path=log)
        assert not log.exists() and not ck.exists()

    @pytest.mark.parametrize("setting, value, rule", [
        ("epochs", -1, "epochs must be >= 0, got -1"),
        ("batch_size", 0, "batch_size must be at least 1, got 0"),
        ("lr", math.nan, "lr must be finite and greater than 0, got nan"),
        ("lr", math.inf, "lr must be finite and greater than 0, got inf"),
        ("lr", 0.0, "lr must be finite and greater than 0, got 0.0"),
    ])
    def test_bad_setting_is_input_error_before_writing(self, tmp_path, setting, value, rule):
        table, samples = synth_corpus(tmp_path, rule="none")
        cfg = corpus_config(text_only=True)
        params = corpus_params(cfg, table)
        log, ck = tmp_path / "metrics.csv", tmp_path / "model.efck"
        settings = {"epochs": 1, "batch_size": 4, "lr": 1e-3}
        settings[setting] = value
        with pytest.raises(InputError, match=f"^train: {re.escape(rule)}$"):
            train(params, table, samples, samples, cfg, checkpoint_path=ck, log_path=log,
                  **settings)
        assert not log.exists() and not ck.exists()

    def test_failed_write_at_an_epoch_end_keeps_the_previous_pair(self, tmp_path, monkeypatch):
        table, samples = synth_corpus(tmp_path, rule="none")
        cfg = corpus_config(text_only=True)
        ref, out = tmp_path / "ref", tmp_path / "run"
        ref.mkdir()
        out.mkdir()
        train(corpus_params(cfg, table), table, samples, samples, cfg, epochs=1,
              batch_size=4, checkpoint_path=ref / "model.efck", log_path=ref / "metrics.csv")
        syncs = []
        real_fsync = os.fsync

        def fsync(fd):
            # epoch 1 syncs its checkpoint, its log and their directory;
            # the disk fails at epoch 2's first sync
            syncs.append(fd)
            if len(syncs) == 4:
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        with pytest.raises(OSError) as caught:
            train(corpus_params(cfg, table), table, samples, samples, cfg, epochs=2,
                  batch_size=4, checkpoint_path=out / "model.efck", log_path=out / "metrics.csv")
        assert caught.value.errno == errno.EIO
        assert caught.value.filename in (str(out / "model.efck"), str(out / "metrics.csv"))
        assert sorted(p.name for p in out.iterdir()) == ["metrics.csv", "model.efck"]
        for name in ("metrics.csv", "model.efck"):
            assert (out / name).read_bytes() == (ref / name).read_bytes(), name

    def test_stop_accuracy_short_circuits(self, tmp_path):
        table, samples = synth_corpus(tmp_path, rule="none")
        cfg = corpus_config(text_only=True)
        params = corpus_params(cfg, table)
        rows = []
        train(params, table, samples, samples, cfg, epochs=5, batch_size=8,
              on_epoch=rows.append, stop_accuracy=0.0)
        assert len(rows) == 1


class TestHeadSweep:
    def test_bad_head_fails_before_training(self, tmp_path):
        table, samples = synth_corpus(tmp_path, rule="none")
        cfg = corpus_config(text_only=True)
        # head 5 does not divide width 16; samples=None would crash training
        with pytest.raises(ConfigError, match="divide"):
            head_sweep(table, None, None, cfg, [2, 5], epochs=1)

    def test_rows_and_table(self, tmp_path):
        table, samples = synth_corpus(tmp_path, rule="none")
        cfg = corpus_config(text_only=True)
        out = tmp_path / "sweep.csv"
        rows = head_sweep(table, samples, samples, cfg, [1, 2], epochs=1,
                          batch_size=8, out_path=out)
        assert [r[0] for r in rows] == [1, 2]
        lines = out.read_text().splitlines()
        assert lines[0] == tr.SWEEP_HEADER
        assert len(lines) == 3
        for line, (heads, accuracy, macro_f1) in zip(lines[1:], rows):
            assert line == f"{heads},{accuracy:.6f},{macro_f1:.6f}"

    def test_deterministic(self, tmp_path):
        table, samples = synth_corpus(tmp_path, rule="none")
        cfg = corpus_config(text_only=True)
        tables = []
        for run in range(2):
            out = tmp_path / f"sweep{run}.csv"
            head_sweep(table, samples, samples, cfg, [1, 2], epochs=1,
                       batch_size=8, out_path=out)
            tables.append(out.read_bytes())
        assert tables[0] == tables[1]

    def test_zero_epochs_scores_the_untrained_models(self, tmp_path):
        table, samples = synth_corpus(tmp_path, rule="none")
        rows = head_sweep(table, samples, samples, corpus_config(text_only=True), [1, 2],
                          epochs=0)
        assert [r[0] for r in rows] == [1, 2]
        for heads, accuracy, macro_f1 in rows:
            cfg = corpus_config(text_only=True, head_count=heads)
            report = evaluate(corpus_params(cfg, table), table, samples, cfg)
            assert (accuracy, macro_f1) == (report.accuracy, report.macro_f1)

    def test_empty_list(self, tmp_path):
        table, samples = synth_corpus(tmp_path, rule="none")
        with pytest.raises(InputError):
            head_sweep(table, samples, samples, corpus_config(), [], epochs=1)
