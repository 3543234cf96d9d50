import json
import re

import numpy as np
import pytest

from efnet.cli import RunConfig, main
from efnet.data import encode_sample, load_dataset, load_embeddings
from efnet.layers import ConfigError
from efnet.model import EFNetParams, ModelConfig, forward
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
        cfg = RunConfig.load(self.write(tmp_path, "heads = 8\nlr = 0.01\n"))
        assert cfg.heads == 8 and cfg.lr == 0.01
        assert cfg.embed_dim == 50 and cfg.text_only is False
        assert cfg.embeddings is None

    def test_comments_and_blanks_skipped(self, tmp_path):
        cfg = RunConfig.load(self.write(tmp_path, "# note\n\nseed = 9\n"))
        assert cfg.seed == 9

    def test_paths_resolve_against_config_dir(self, tmp_path):
        cfg = RunConfig.load(self.write(tmp_path, "embeddings = vec.txt\n"))
        assert cfg.embeddings == str((tmp_path / "vec.txt").resolve())

    def test_bool_values(self, tmp_path):
        assert RunConfig.load(self.write(tmp_path, "text_only = TRUE\n")).text_only
        assert not RunConfig.load(self.write(tmp_path, "text_only = 0\n")).text_only
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

    def test_model_config_mapping(self, tmp_path):
        cfg = RunConfig.load(self.write(tmp_path, "heads = 2\nembed_dim = 8\n"))
        mc = cfg.model_config()
        assert mc.head_count == 2 and mc.embed_dim == 8


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

    def test_unwritable_out(self, capsys):
        assert main(["synth", "--n", "1", "--out", "/proc/nowhere"]) == 2
        assert "error:" in capsys.readouterr().err


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
        cfg = workdir / "gone.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(text_only="false").replace(
            "test = corpus/dataset.jsonl", "test = corpus/absent.jsonl"))
        code = main(["eval", "--config", str(cfg),
                     "--checkpoint", str(workdir / "run" / "model.efck"),
                     "--split", "test", "--out", str(workdir / "x.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

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
        assert (tmp_path / "run" / "metrics.csv").read_text() == METRICS_HEADER + "\n"

    def test_checkpoint_mismatch_is_exit_3(self, workdir, capsys):
        cfg = workdir / "narrow.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(text_only="false").replace(
            "hidden_dim = 8", "hidden_dim = 4"))
        code = main(["eval", "--config", str(cfg),
                     "--checkpoint", str(workdir / "run" / "model.efck"),
                     "--split", "val", "--out", str(workdir / "y.json")])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_unknown_config_key_is_exit_2(self, workdir, capsys):
        cfg = workdir / "bad.cfg"
        cfg.write_text("mystery = 1\n")
        assert main(["train", "--config", str(cfg), "--out", str(workdir / "z")]) == 2
        assert "mystery" in capsys.readouterr().err


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
        code = main(["sweep-heads", "--config", str(workdir / "run.cfg"),
                     "--heads", "1,5", "--out", str(workdir / "s.csv")])
        assert code == 2
        assert "divide" in capsys.readouterr().err

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
