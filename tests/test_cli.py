import dataclasses
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import efnet
from efnet.cli import RunConfig, main
from efnet.data import (
    collate,
    encode_sample,
    load_dataset,
    load_embeddings,
    load_image_features,
    write_image_features,
)
from efnet.layers import ConfigError
from efnet.model import EFNetParams, ModelConfig, forward, load_checkpoint, save_checkpoint
from efnet.tensor import Tensor
from efnet.train import METRICS_HEADER, SWEEP_HEADER, train

CONFIG_TEMPLATE = """\
embed_dim = 8
hidden_dim = 8
heads = 2
capsule_dim = 4
att_dim = 8
dropout = 0.0
lr = 0.003
l2_lambda = 0.0
batch_size = 8
max_len = 12
epochs = 2
seed = 0
text_only = {text_only}
embeddings = corpus/embeddings.txt
train = corpus/dataset.jsonl
val = corpus/dataset.jsonl
test = corpus/dataset.jsonl
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Synthetic corpus, config file, and one trained checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    code = main(["synth", "--seed", "1", "--n", "10", "--out", str(root / "corpus"),
                 "--vocab", "20", "--embed-dim", "8"])
    assert code == 0
    cfg = root / "run.cfg"
    cfg.write_text(CONFIG_TEMPLATE.format(text_only="false"))
    assert main(["train", "--config", str(cfg), "--out", str(root / "run")]) == 0
    return root


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestRunConfig:
    def write(self, tmp_path, text):
        path = tmp_path / "t.cfg"
        path.write_text(text)
        return path

    def test_types_and_defaults(self, tmp_path):
        # heads must divide the default widths (100 and 64), so 2, not 8
        cfg = RunConfig.load(self.write(tmp_path, "heads = 2\nlr = 0.01\n"))
        assert cfg.model.head_count == 2 and cfg.lr == 0.01
        assert cfg.model.embed_dim == 50 and cfg.model.text_only is False
        assert cfg.embeddings is None

    def test_comments_and_blanks_skipped(self, tmp_path):
        cfg = RunConfig.load(self.write(tmp_path, "# note\n\nseed = 9\n"))
        assert cfg.model.seed == 9

    def test_paths_resolve_against_config_dir(self, tmp_path):
        cfg = RunConfig.load(self.write(tmp_path, "embeddings = vec.txt\n"))
        assert cfg.embeddings == str((tmp_path / "vec.txt").resolve())

    def test_bool_values(self, tmp_path):
        assert RunConfig.load(self.write(tmp_path, "text_only = TRUE\n")).model.text_only
        assert not RunConfig.load(self.write(tmp_path, "text_only = 0\n")).model.text_only
        with pytest.raises(ConfigError, match="text_only"):
            RunConfig.load(self.write(tmp_path, "text_only = maybe\n"))

    def test_unknown_key_named(self, tmp_path):
        with pytest.raises(ConfigError, match="bogus"):
            RunConfig.load(self.write(tmp_path, "bogus = 1\n"))

    def test_malformed_values_name_the_key(self, tmp_path):
        with pytest.raises(ConfigError, match="epochs"):
            RunConfig.load(self.write(tmp_path, "epochs = soon\n"))
        with pytest.raises(ConfigError, match="lr"):
            RunConfig.load(self.write(tmp_path, "lr = fast\n"))

    def test_duplicate_and_malformed_lines(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            RunConfig.load(self.write(tmp_path, "seed = 1\nseed = 2\n"))
        with pytest.raises(ConfigError, match="line 1"):
            RunConfig.load(self.write(tmp_path, "just words\n"))
        with pytest.raises(ConfigError, match="line 2: expected 'key = value'"):
            RunConfig.load(self.write(tmp_path, "seed = 1\nembeddings =\n"))

    def test_model_config_mapping(self, tmp_path):
        cfg = RunConfig.load(self.write(tmp_path, "heads = 2\nembed_dim = 8\n"))
        assert cfg.model.head_count == 2 and cfg.model.embed_dim == 8

    def test_file_keys_are_the_schema_fields(self, tmp_path):
        model_keys = {f.name for f in dataclasses.fields(ModelConfig)} - {"precision"}
        model_keys = (model_keys - {"head_count"}) | {"heads"}
        run_keys = {"lr", "batch_size", "epochs", "embeddings", "train", "val", "test"}
        assert set(RunConfig().file_fields()) == model_keys | run_keys
        with pytest.raises(ConfigError, match="unknown config key 'precision'"):
            RunConfig.load(self.write(tmp_path, "precision = double\n"))


class TestSynth:
    def test_zero_samples(self, tmp_path, capsys):
        assert main(["synth", "--n", "0", "--out", str(tmp_path / "empty")]) == 0
        assert (tmp_path / "empty" / "dataset.jsonl").read_text() == ""
        assert "wrote 0 samples" in capsys.readouterr().out

    def test_same_seed_same_bytes(self, tmp_path):
        for name in ("a", "b"):
            main(["synth", "--seed", "7", "--n", "4", "--out", str(tmp_path / name),
                  "--vocab", "15", "--embed-dim", "6"])
        for rel in ("dataset.jsonl", "embeddings.txt", "rule.json"):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    @pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--vocab", "0"),
                                             ("--embed-dim", "0")])
    def test_out_of_range_flag_is_exit_2(self, tmp_path, capsys, flag, value):
        assert main(["synth", "--n", "2", "--out", str(tmp_path / "c"), flag, value]) == 2
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err
        assert not (tmp_path / "c").exists()

    def test_unwritable_out(self, capsys):
        assert main(["synth", "--n", "1", "--out", "/proc/nowhere"]) == 2
        assert "error:" in capsys.readouterr().err


def bad(file, old, new, *names, command="train", code=2):
    """A row of the bad-input table: ``file`` with the first ``old`` replaced
    by ``new`` (or ``new`` appended as a line when ``old`` is None), run
    through ``command``; stderr must hold the file's path and ``names``."""
    suffix = "" if command == "train" else f"-{command}"
    return pytest.param(file, old, new, names, command, code,
                        id=f"{old}-{new}-{names[0]}{suffix}")


BAD_INPUTS = [
    bad("run.cfg", None, "just words", "line 18", "key = value"),
    bad("run.cfg", None, "mystery = 1", "line 18", "mystery"),
    bad("run.cfg", "seed = 0", "seed = 1.5", "line 12: seed"),
    bad("run.cfg", "seed = 0", "seed = -1", "line 12: seed"),
    bad("run.cfg", "seed = 0", "seed = -1", "line 12: seed", command="sweep-heads"),
    bad("run.cfg", "batch_size = 8", "batch_size = 0", "batch_size", "line 9: batch_size"),
    bad("run.cfg", "lr = 0.003", "lr = -1", "lr", "line 7: lr"),
    bad("run.cfg", "lr = 0.003", "lr = nan", "lr", "line 7: lr"),
    bad("run.cfg", "lr = 0.003", "lr = 1e400", "line 7: lr", "inf"),
    bad("run.cfg", "l2_lambda = 0.0", "l2_lambda = inf", "line 8: l2_lambda"),
    bad("run.cfg", "l2_lambda = 0.0", "l2_lambda = nan", "line 8: l2_lambda"),
    bad("run.cfg", "epochs = 2", "epochs = -1", "line 11: epochs"),
    bad("run.cfg", "heads = 2", "heads = 3", "line 3: heads", "divide"),
    bad("run.cfg", "dropout = 0.0", "dropout = 1", "line 6: dropout"),
    bad("run.cfg", "max_len = 12", "max_len = 0", "line 10: max_len"),
    bad("run.cfg", "embed_dim = 8", "embed_dim = 16", "embed_dim",
        "{corpus}/embeddings.txt"),
    bad("run.cfg", "embeddings = ", "# embeddings = ", "missing required key 'embeddings'"),
    bad("dataset.jsonl", '"label": "neutral"', '"label": "great"', "record 1: label"),
    bad("embeddings.txt", None, "short 1 2 3", "line 24: token 'short'"),
    bad("embeddings.txt", None, "nonfinite 1 2 3 nan 5 6 7 8", "embeddings.txt",
        "line 24: token 'nonfinite'"),
    bad("run.cfg", "hidden_dim = 8", "hidden_dim = 4", "gru_fwd", command="eval", code=3),
    bad("run.cfg", "capsule_dim = 4", "capsule_dim = 99999999999", "line 4: capsule_dim",
        "more than 50,000,000"),
]


class TestTrainEval:
    def test_metrics_log_written(self, workdir):
        lines = (workdir / "run" / "metrics.csv").read_text().splitlines()
        assert lines[0] == METRICS_HEADER
        assert len(lines) == 3

    def test_eval_prints_one_line_and_writes_report(self, workdir, capsys):
        out = workdir / "report.json"
        code = main(["eval", "--config", str(workdir / "run.cfg"),
                     "--checkpoint", str(workdir / "run" / "model.efck"),
                     "--split", "val", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out.strip().splitlines()
        assert len(printed) == 1
        assert re.match(r"^val accuracy=[01]\.\d{6} macro_f1=[01]\.\d{6}$", printed[0])
        report = read_json(out)
        assert set(report) == {"accuracy", "macro_f1", "precision", "recall",
                               "f1", "confusion"}
        assert sum(sum(row) for row in report["confusion"]) == 10

    def test_eval_twice_identical_bytes(self, workdir):
        outs = []
        for name in ("r1.json", "r2.json"):
            out = workdir / name
            assert main(["eval", "--config", str(workdir / "run.cfg"),
                         "--checkpoint", str(workdir / "run" / "model.efck"),
                         "--split", "val", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_missing_split_file(self, workdir, capsys):
        self.check_missing_file(workdir, capsys, "test", "test = corpus/dataset.jsonl")

    def test_missing_embeddings_file(self, workdir, capsys):
        self.check_missing_file(workdir, capsys, "embeddings",
                                "embeddings = corpus/embeddings.txt")

    def check_missing_file(self, workdir, capsys, key, old):
        cfg = workdir / "gone.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(text_only="false").replace(
            old, f"{key} = corpus/absent.file"))
        capsys.readouterr()
        code = main(["eval", "--config", str(cfg),
                     "--checkpoint", str(workdir / "run" / "model.efck"),
                     "--split", "test", "--out", str(workdir / "x.json")])
        assert code == 2
        err = capsys.readouterr().err
        absent = workdir / "corpus" / "absent.file"
        assert err.startswith(f"error: {cfg}: {key} = {absent}: No such file or directory")
        assert "Traceback" not in err
        assert not (workdir / "x.json").exists()

    def test_truncated_feature_file_is_exit_2(self, tmp_path, capsys):
        # grids are read when their batch runs, so a damaged file stops the
        # epoch at that batch, named
        assert main(["synth", "--seed", "1", "--n", "10", "--out", str(tmp_path / "corpus"),
                     "--vocab", "20", "--embed-dim", "8"]) == 0
        damaged = tmp_path / "corpus" / "features" / "s0005.efvf"
        damaged.write_bytes(damaged.read_bytes()[:5000])
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(text_only="false"))
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert "s0005.efvf" in capsys.readouterr().err
        assert not (tmp_path / "run" / "metrics.csv").exists()

    @pytest.mark.parametrize("bad_value", [np.nan, np.inf])
    def test_non_finite_feature_grid_is_exit_2(self, tmp_path, capsys, bad_value):
        # the image stage checks its capsule pre-activations and names the
        # sample and the file whose grid holds a NaN or an infinity; numpy
        # warns of nothing on the way there
        assert main(["synth", "--seed", "1", "--n", "10", "--out", str(tmp_path / "corpus"),
                     "--vocab", "20", "--embed-dim", "8"]) == 0
        bad = tmp_path / "corpus" / "features" / "s0005.efvf"
        values = load_image_features(bad).data.copy()
        values[2, 3, 17] = bad_value
        write_image_features(bad, values)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(text_only="false"))
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert re.search(r"error: encode_visual: sample s0005: feature file \S*s0005\.efvf "
                         r"holds non-finite values", err), err
        assert "Traceback" not in err

    def test_non_finite_loss_is_one_error_line(self, workdir, tmp_path):
        # an update that overflows the parameters: the run stops with one
        # line naming the batch and the stage, and numpy warns of nothing
        corpus = (workdir / "corpus").resolve()
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(text_only="false")
                       .replace("corpus/", f"{corpus}/").replace("lr = 0.003", "lr = 1e30"))
        env = dict(os.environ, PYTHONPATH=str(Path(efnet.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "efnet.cli", "train", "--config", str(cfg),
             "--out", str(tmp_path / "run")],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert re.fullmatch(r"error: non-finite loss at epoch 1, batch 1 \(samples [^)]+\): "
                            r"first non-finite value in encode_context: [^\n]+\n",
                            done.stderr), done.stderr

    def test_non_finite_validation_is_one_error_line(self, workdir, tmp_path, capsys):
        # the updates stay finite but the first validation pass overflows:
        # the epoch is not scored, and no row or checkpoint is written
        corpus = (workdir / "corpus").resolve()
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(text_only="false")
                       .replace("corpus/", f"{corpus}/").replace("lr = 0.003", "lr = 1e9"))
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: validation at epoch 1: non-finite class probabilities "
                            r"\(samples s0000, [^)]+\): first non-finite value in "
                            r"encode_context: [^\n]+\n", err), err
        assert not (tmp_path / "run" / "model.efck").exists()
        assert not (tmp_path / "run" / "metrics.csv").exists()

    @pytest.mark.parametrize("command", ["eval", "dump-attention"])
    def test_overflowing_checkpoint_is_exit_2(self, workdir, tmp_path, capsys, command):
        cfg = RunConfig.load(workdir / "run.cfg")
        table = load_embeddings(cfg.embeddings)
        params = EFNetParams.create(cfg.model, np.random.default_rng(0), table.matrix)
        load_checkpoint(workdir / "run" / "model.efck", params)
        for name, p in params.named_parameters():
            if name.startswith("ctx_mhsa."):
                p.data *= 1e30
        checkpoint = tmp_path / "overflow.efck"
        save_checkpoint(checkpoint, params)
        out = tmp_path / "out.json"
        argv = {"eval": ["eval", "--split", "val"],
                "dump-attention": ["dump-attention", "--sample-id", "s0003"]}[command]
        capsys.readouterr()
        assert main(argv + ["--config", str(workdir / "run.cfg"), "--checkpoint",
                            str(checkpoint), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: {re.escape(str(checkpoint))}: non-finite class "
                            r"probabilities \(samples s0[^)]*\): first non-finite value in "
                            r"encode_context: [^\n]+\n", err), err
        assert not out.exists()

    @pytest.mark.parametrize("file, old, new, names, command, code", BAD_INPUTS)
    def test_bad_run_input_is_exit_2(self, workdir, tmp_path, capsys,
                                     file, old, new, names, command, code):
        """One input file mutated: the error names the file and the field,
        with no traceback, and nothing is written."""
        corpus = (workdir / "corpus").resolve()
        tmp_path = tmp_path.resolve()
        config = CONFIG_TEMPLATE.format(text_only="false").replace("corpus/", f"{corpus}/")
        target = tmp_path / file
        if file == "run.cfg":
            text = config
        else:
            text = (corpus / file).read_text(encoding="utf-8")
            config = config.replace(str(corpus / file), str(target))
            (tmp_path / "run.cfg").write_text(config, encoding="utf-8")
        target.write_text(text + new + "\n" if old is None else text.replace(old, new, 1),
                          encoding="utf-8")
        checkpoint = workdir / "run" / "model.efck"
        out = tmp_path / "out"
        argv = {"train": ["train"],
                "sweep-heads": ["sweep-heads", "--heads", "1,2"],
                "eval": ["eval", "--checkpoint", str(checkpoint), "--split", "val"]}[command]
        capsys.readouterr()
        assert main(argv + ["--config", str(tmp_path / "run.cfg"), "--out", str(out)]) == code
        err = capsys.readouterr().err
        named = checkpoint if code == 3 else target
        assert err.startswith(f"error: {named}: ") and "Traceback" not in err
        for name in names:
            assert name.format(corpus=corpus) in err
        assert not out.exists()

    def test_checkpoint_mismatch_is_exit_3(self, workdir, capsys):
        cfg = workdir / "narrow.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(text_only="false").replace(
            "hidden_dim = 8", "hidden_dim = 4"))
        code = main(["eval", "--config", str(cfg),
                     "--checkpoint", str(workdir / "run" / "model.efck"),
                     "--split", "val", "--out", str(workdir / "y.json")])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_text_only_model_builds_no_capsule(self, workdir, tmp_path):
        # the capsule width is not counted when no capsule is built
        corpus = (workdir / "corpus").resolve()
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(text_only="true").replace("corpus/", f"{corpus}/")
                       .replace("capsule_dim = 4", "capsule_dim = 99999999999"))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        assert (tmp_path / "run" / "model.efck").exists()

    @pytest.mark.parametrize("key, command", [("train", "train"), ("val", "train"),
                                              ("test", "eval")])
    def test_empty_split_is_exit_2_before_anything_runs(self, workdir, tmp_path, capsys,
                                                        key, command):
        corpus = (workdir / "corpus").resolve()
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(text_only="false").replace("corpus/", f"{corpus}/")
                       .replace(f"{key} = {corpus}/dataset.jsonl", f"{key} = {empty}"))
        argv = {"train": ["train"],
                "eval": ["eval", "--checkpoint", str(workdir / "run" / "model.efck"),
                         "--split", key]}[command]
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}: {key} = {empty}: no samples\n"
        assert not out.exists()

    def test_unknown_config_key_is_exit_2(self, workdir, capsys):
        cfg = workdir / "bad.cfg"
        cfg.write_text("mystery = 1\n")
        assert main(["train", "--config", str(cfg), "--out", str(workdir / "z")]) == 2
        assert "mystery" in capsys.readouterr().err

    def test_non_utf8_config_is_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"epochs = 1\n\xff\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {cfg}: line 2: byte 0xff is not UTF-8 text\n"


# `efnet train` in a child process that stops at one point and prints
# "hold" there, so the parent's SIGKILL lands at that point every run.
# argv[1] names the point: "write:N" is the N-th write of the second
# checkpoint save (the first after an epoch), flushed so the temporary file
# is half written; "batches:N" the N-th `make_batches` call; "step:N" the
# N-th `adam_step` call.
KILLABLE_TRAIN = """
import builtins, sys, time
from efnet import cli, model, train

what, at = sys.argv.pop(1).split(":")
counts = {"write": 0, "batches": 0, "step": 0, "save": 0}


def tick(name, flush=None):
    counts[name] += 1
    if name == what and counts[name] == int(at):
        if flush is not None:
            flush()
        print("hold")
        time.sleep(60)


class SaveFile:
    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)

    def write(self, data):
        tick("write", self.fh.flush)
        return self.fh.write(data)

    def __getattr__(self, name):
        return getattr(self.fh, name)


def save_open(path, mode="r", *args, **kwargs):
    fh = builtins.open(path, mode, *args, **kwargs)
    if mode != "wb":
        return fh
    counts["save"] += 1
    return SaveFile(fh) if counts["save"] == 1 else fh


def counted(name, fn):
    def call(*args, **kwargs):
        tick(name)
        return fn(*args, **kwargs)
    return call


model.open = save_open
train.make_batches = counted("batches", train.make_batches)
train.adam_step = counted("step", train.adam_step)
sys.exit(cli.main(sys.argv[1:]))
"""


class TestKill:
    """SIGKILL `efnet train` during a save, between epochs and mid-epoch:
    the best checkpoint still loads, metrics.csv holds whole rows of the
    finished epochs, and a rerun over the leftovers ends as an unbroken
    run does. A rerun killed before its first epoch ends leaves the
    earlier run's files as they were."""

    STEPS = 5  # per epoch: 10 samples in batches of 2

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("kill")
        assert main(["synth", "--seed", "1", "--n", "10", "--out", str(root / "corpus"),
                     "--vocab", "20", "--embed-dim", "8"]) == 0
        (root / "run.cfg").write_text(CONFIG_TEMPLATE.format(text_only="false")
                                      .replace("batch_size = 8", "batch_size = 2"))
        assert main(["train", "--config", str(root / "run.cfg"), "--out", str(root / "ref")]) == 0
        return root

    def kill_at(self, root, out, point, delay):
        env = dict(os.environ, PYTHONPATH=str(Path(efnet.__file__).parents[1]))
        child = subprocess.Popen(
            [sys.executable, "-u", "-c", KILLABLE_TRAIN, point, "train",
             "--config", str(root / "run.cfg"), "--out", str(out)],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        try:
            lines = []
            for line in child.stdout:
                lines.append(line)
                if line == "hold\n":
                    break
            assert lines[-1:] == ["hold\n"], lines
            time.sleep(delay)
            child.send_signal(signal.SIGKILL)
            assert child.wait(timeout=30) == -signal.SIGKILL
        finally:
            child.kill()
            child.stdout.close()
            child.wait()

    @pytest.mark.parametrize("case", ["save", "between_epochs", "mid_epoch"])
    def test_kill_leaves_a_loadable_checkpoint_and_whole_rows(self, runs, tmp_path, case):
        rng = np.random.default_rng(["save", "between_epochs", "mid_epoch"].index(case))
        point = {"save": f"write:{rng.integers(2, 40)}",
                 # the third call: epoch 1's batches, its validation, epoch 2's
                 "between_epochs": "batches:3",
                 "mid_epoch": f"step:{self.STEPS + rng.integers(1, self.STEPS)}"}[case]
        out = tmp_path / "run"
        ref = runs / "ref"
        if case == "save":
            # the first save replaces an earlier run's checkpoint
            shutil.copytree(ref, out)
        self.kill_at(runs, out, point, delay=rng.uniform(0.0, 0.01))
        tmp = out / "model.efck.tmp"
        assert tmp.exists() == (case == "save")
        if case == "save":
            assert tmp.stat().st_size < (ref / "model.efck").stat().st_size
        # epoch 1 finished before every kill point, epoch 2 did not
        text = (out / "metrics.csv").read_text()
        assert text.splitlines() == (ref / "metrics.csv").read_text().splitlines()[:2]
        assert text.endswith("\n")
        assert main(["eval", "--config", str(runs / "run.cfg"), "--checkpoint",
                     str(out / "model.efck"), "--split", "test",
                     "--out", str(tmp_path / "report.json")]) == 0
        assert main(["train", "--config", str(runs / "run.cfg"), "--out", str(out)]) == 0
        assert not tmp.exists()
        for name in ("metrics.csv", "model.efck"):
            assert (out / name).read_bytes() == (ref / name).read_bytes(), name

    def test_rerun_killed_before_its_first_epoch_keeps_earlier_files(self, runs, tmp_path):
        out = tmp_path / "run"
        shutil.copytree(runs / "ref", out)
        self.kill_at(runs, out, "batches:1", delay=0.0)
        for name in ("metrics.csv", "model.efck"):
            assert (out / name).read_bytes() == (runs / "ref" / name).read_bytes(), name


class TestSweep:
    def test_table_written(self, workdir, capsys):
        out = workdir / "sweep.csv"
        cfg = workdir / "fast.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(text_only="true").replace(
            "epochs = 2", "epochs = 1"))
        assert main(["sweep-heads", "--config", str(cfg), "--heads", "1,2",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 3
        assert lines[1].startswith("1,") and lines[2].startswith("2,")
        printed = capsys.readouterr().out.strip().splitlines()
        assert len(printed) == 2

    def test_bad_head_count_is_exit_2(self, workdir, capsys):
        self.check_bad_heads(workdir, capsys, "1,5", "--heads = 5 does not divide")

    def test_zero_head_count_is_exit_2(self, workdir, capsys):
        self.check_bad_heads(workdir, capsys, "0,2", "--heads must be >= 1, got 0")

    def check_bad_heads(self, workdir, capsys, heads, rule):
        capsys.readouterr()
        code = main(["sweep-heads", "--config", str(workdir / "run.cfg"),
                     "--heads", heads, "--out", str(workdir / "s.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {rule}") and "head_count" not in err
        assert not (workdir / "s.csv").exists()

    def test_unparseable_heads(self, workdir, capsys):
        code = main(["sweep-heads", "--config", str(workdir / "run.cfg"),
                     "--heads", "1,two", "--out", str(workdir / "s2.csv")])
        assert code == 2
        assert "--heads" in capsys.readouterr().err


class TestDumpAttention:
    def sample_id(self, workdir):
        line = (workdir / "corpus" / "dataset.jsonl").read_text().splitlines()[0]
        return json.loads(line)["id"]

    def test_dump_contents(self, workdir):
        out = workdir / "dump.json"
        code = main(["dump-attention", "--config", str(workdir / "run.cfg"),
                     "--checkpoint", str(workdir / "run" / "model.efck"),
                     "--sample-id", self.sample_id(workdir), "--out", str(out)])
        assert code == 0
        dump = read_json(out)
        assert set(dump) == {"id", "tokens", "interaction_heads", "fusion_heads",
                             "image_grid"}
        n = len(dump["tokens"])
        assert len(dump["interaction_heads"]) == 2
        for head in dump["interaction_heads"]:
            for row in head:
                assert len(row) == n
                assert abs(sum(row) - 1.0) < 1e-6
        for head in dump["fusion_heads"]:
            for row in head:
                assert abs(sum(row) - 1.0) < 1e-6
        grid = np.array(dump["image_grid"])
        assert grid.shape == (7, 7)
        assert abs(grid.sum() - 1.0) < 1e-6

    def test_dump_matches_batched_trace(self, workdir):
        # the dump runs one sample through the rank-2 attention path; a batch
        # of one runs the batched path, and both must give the same weights
        out = workdir / "dump_b.json"
        sample_id = self.sample_id(workdir)
        assert main(["dump-attention", "--config", str(workdir / "run.cfg"),
                     "--checkpoint", str(workdir / "run" / "model.efck"),
                     "--sample-id", sample_id, "--out", str(out)]) == 0
        dump = read_json(out)
        cfg = RunConfig.load(workdir / "run.cfg")
        table = load_embeddings(cfg.embeddings)
        params = EFNetParams.create(cfg.model, np.random.default_rng(0), table.matrix)
        load_checkpoint(workdir / "run" / "model.efck", params)
        sample = next(s for s in load_dataset(cfg.train) if s.id == sample_id)
        batch = collate([encode_sample(sample, table, cfg.model.max_len, True)])
        trace = forward(batch, params, cfg.model, want_trace=True).trace
        for key in ("interaction_heads", "fusion_heads"):
            want = [w[0] for w in getattr(trace, key)]
            np.testing.assert_allclose(np.array(dump[key]), want, atol=1e-6)
        np.testing.assert_allclose(dump["image_grid"], trace.image_grid[0], atol=1e-6)

    def test_unknown_sample_id(self, workdir, capsys):
        code = main(["dump-attention", "--config", str(workdir / "run.cfg"),
                     "--checkpoint", str(workdir / "run" / "model.efck"),
                     "--sample-id", "missing", "--out", str(workdir / "d.json")])
        assert code == 2
        assert "missing" in capsys.readouterr().err


DUMP_CONFIG = """\
embed_dim = 16
hidden_dim = 16
heads = 2
capsule_dim = 8
att_dim = 16
dropout = 0.0
max_len = 32
seed = 0
embeddings = embeddings.txt
train = dataset.jsonl
"""


class TestPlantedCueAlignment:
    def test_bright_cell_attracts_max_weight(self, tmp_path):
        """After training on the bright-cell rule, the region attention
        maximum should sit on the planted cell in at least 8 of 10 seeded
        runs (checked on a label-1 sample, whose cell is (3, 3))."""
        hits = 0
        last = None
        for seed in range(10):
            out = tmp_path / f"cue{seed}"
            assert main(["synth", "--seed", str(200 + seed), "--n", "32",
                         "--out", str(out), "--rule", "cell",
                         "--vocab", "30", "--embed-dim", "16"]) == 0
            table = load_embeddings(out / "embeddings.txt")
            samples = load_dataset(out / "dataset.jsonl")
            cfg = ModelConfig(embed_dim=16, hidden_dim=16, head_count=2,
                              capsule_dim=8, att_dim=16, dropout=0.0,
                              l2_lambda=0.0, max_len=32, seed=seed)
            params = EFNetParams.create(
                cfg, np.random.default_rng(cfg.seed),
                Tensor(table.matrix.data.copy(), requires_grad=True))
            train(params, table, samples, samples, cfg, epochs=60, lr=3e-3,
                  batch_size=8, stop_accuracy=0.95,
                  checkpoint_path=out / "model.efck")
            target = next(s for s in samples if s.label == 1)
            enc = encode_sample(target, table, cfg.max_len, True)
            trace = forward(enc, params, cfg, want_trace=True).trace
            cell = np.unravel_index(int(np.argmax(trace.image_grid)), (7, 7))
            if cell == (3, 3):
                hits += 1
                last = (out, target.id)
        assert hits >= 8, f"bright-cell alignment in only {hits}/10 runs"

        # the dump subcommand must expose the same grid for the checkpoint
        out, sample_id = last
        cfg_file = out / "run.cfg"
        cfg_file.write_text(DUMP_CONFIG)
        dump_file = out / "dump.json"
        assert main(["dump-attention", "--config", str(cfg_file),
                     "--checkpoint", str(out / "model.efck"),
                     "--sample-id", sample_id, "--out", str(dump_file)]) == 0
        grid = np.array(read_json(dump_file)["image_grid"])
        assert np.unravel_index(int(np.argmax(grid)), (7, 7)) == (3, 3)


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_bad_split_choice(self, workdir, capsys):
        assert main(["eval", "--config", str(workdir / "run.cfg"),
                     "--checkpoint", "x", "--split", "dev", "--out", "y"]) == 2
        capsys.readouterr()

    def test_help_is_success(self, capsys):
        assert main(["--help"]) == 0
        assert "synth" in capsys.readouterr().out

    def test_missing_config_file(self, workdir, capsys):
        assert main(["train", "--config", str(workdir / "nope.cfg"),
                     "--out", str(workdir / "o")]) == 2
        capsys.readouterr()
