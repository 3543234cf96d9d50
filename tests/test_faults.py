"""Seeded write faults on the command line.

Each trial runs one command (``efnet train``, ``eval``, ``dump-attention``
or ``sweep-heads``) on the command-line tests' 10-sample corpus, in a child
process that sets its own file-size limit (``RLIMIT_FSIZE``) before it
starts, with SIGXFSZ ignored. A write past the limit then fails with EFBIG,
as a write to a full disk fails with ENOSPC; the limit acts on the child
only. The output paths are either new or hold an earlier run's files.

A run must end in exit 0 with the bytes of an unlimited run, or in exit 2
with exactly one ``error:`` line naming one of its output files. It must
leave no temporary file, and leave either the earlier files byte for byte,
or (``train``) whole rows of the unlimited run with the checkpoint of their
best epoch, which ``efnet eval`` scores at that row's accuracy.

Limits are drawn up to a quarter past the bytes each command writes,
beside fixed edges: 0, inside the metrics header, inside its first row and
inside the checkpoint. A trial draws everything from ``(seed, index)``, so a failing
one is rerun alone by passing its seed and index to ``trial``.
"""

import contextlib
import io
import json
import os
import re
import resource
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from test_cli import CONFIG_TEMPLATE

import efnet
from efnet.cli import main
from efnet.train import METRICS_HEADER

SEED = 22
TRIALS = 16
COMMANDS = ("train", "eval", "dump-attention", "sweep-heads")
# (command, limit, rerun) of the failures a write fault once caused: an
# error naming no file, a metrics log torn inside its header or its first
# row, and a rerun's new rows beside the earlier run's checkpoint
EDGES = {
    "names_the_file": ("train", 0, False),
    "tears_no_header": ("train", 20, False),
    "tears_no_row": ("train", 40, False),
    "rerun_keeps_earlier_files": ("train", 60_000, True),
}
CHILDREN = 2  # child processes run at once
ERROR = re.compile(r"error: \[Errno 27\] File too large: '([^'\n]*)'\n")


def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """The corpus and run config (2 epochs), the outputs of an unlimited
    run of each command, and the files of an earlier, different run."""
    root = tmp_path_factory.mktemp("faults")
    assert quiet_main(["synth", "--seed", "1", "--n", "10", "--out", str(root / "corpus"),
                       "--vocab", "20", "--embed-dim", "8"]) == 0
    (root / "run.cfg").write_text(CONFIG_TEMPLATE.format(text_only="false"))
    (root / "earlier.cfg").write_text(
        CONFIG_TEMPLATE.format(text_only="false").replace("seed = 0", "seed = 1"))
    ref = root / "ref"
    ref.mkdir()
    for command in COMMANDS:
        assert quiet_main(argv(root, command, ref)) == 0
    assert quiet_main(["train", "--config", str(root / "earlier.cfg"),
                       "--out", str(root / "earlier")]) == 0
    # the earlier run's checkpoint scores apart from this run's best
    # accuracy after any epoch, so a mix of the two runs shows
    accuracy = [row.split(",")[3] for row in rows_of(ref / "run/metrics.csv")]
    bests = {max(accuracy[:epochs]) for epochs in range(1, len(accuracy) + 1)}
    assert best_accuracy(root, root / "earlier/model.efck") not in bests
    return root


def argv(root, command, where):
    """``command``'s arguments, writing its outputs under ``where``."""
    config = ["--config", str(root / "run.cfg")]
    checkpoint = ["--checkpoint", str(root / "ref/run/model.efck")]
    return {
        "train": ["train", *config, "--out", str(where / "run")],
        "eval": ["eval", *config, *checkpoint, "--split", "val",
                 "--out", str(where / "report.json")],
        "dump-attention": ["dump-attention", *config, *checkpoint, "--sample-id", "s0003",
                           "--out", str(where / "dump.json")],
        "sweep-heads": ["sweep-heads", *config, "--heads", "1,2",
                        "--out", str(where / "sweep.csv")],
    }[command]


def outputs(command):
    """The files ``command`` writes, relative to its output place."""
    return {"train": ("run/model.efck", "run/metrics.csv"), "eval": ("report.json",),
            "dump-attention": ("dump.json",), "sweep-heads": ("sweep.csv",)}[command]


def rows_of(path):
    lines = path.read_text().split("\n")
    assert lines[0] == METRICS_HEADER and lines[-1] == ""
    return lines[1:-1]


def best_accuracy(root, checkpoint):
    """The validation accuracy ``efnet eval`` gives ``checkpoint``, as a
    metrics row prints it."""
    report = checkpoint.parent / "eval.json"
    assert quiet_main(["eval", "--config", str(root / "run.cfg"), "--checkpoint",
                       str(checkpoint), "--split", "val", "--out", str(report)]) == 0
    accuracy = json.loads(report.read_text())["accuracy"]
    report.unlink()
    return f"{accuracy:.6f}"


def snapshot(where, command):
    return {name: (where / name).read_bytes() if (where / name).exists() else None
            for name in outputs(command)}


def trial(root, seed, index):
    """The (command, limit, rerun) of trial ``index``: each command in
    turn, a limit drawn up to a quarter past the bytes an unlimited run of
    it writes, so some runs end well, and whether its outputs hold an
    earlier run's files."""
    rng = np.random.default_rng([seed, index])
    command = COMMANDS[index % len(COMMANDS)]
    total = sum(map(len, snapshot(root / "ref", command).values()))
    return command, int(rng.integers(total + total // 4 + 1)), bool(rng.integers(2))


def start(root, where, command, limit, rerun):
    """Lay out ``where`` (an earlier run's files when ``rerun``) and start
    ``command`` in a child limited to ``limit`` bytes per file."""
    where.mkdir()
    if rerun:
        if command == "train":
            shutil.copytree(root / "earlier", where / "run")
        else:
            (where / outputs(command)[0]).write_bytes(b"an earlier run's output\n")
    before = snapshot(where, command)

    def limit_file_size():
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, hard))

    env = dict(os.environ, PYTHONPATH=str(Path(efnet.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    child = subprocess.Popen([sys.executable, "-m", "efnet.cli", *argv(root, command, where)],
                             cwd=where, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.PIPE, text=True, preexec_fn=limit_file_size)
    return child, before


def check(root, where, command, child, before):
    """The faults of one finished run, as a list of lines."""
    _, err = child.communicate(timeout=120)
    code = child.returncode
    after = snapshot(where, command)
    faults = [f"temporary {p.relative_to(where)} left" for p in where.rglob("*.tmp")]
    if code == 0:
        ref = snapshot(root / "ref", command)
        faults += [f"{name} differs from an unlimited run's" for name in after
                   if after[name] != ref[name]]
        return faults + ([f"exit 0 with stderr {err!r}"] if err else [])
    named = ERROR.fullmatch(err)
    if code != 2 or not named or named[1] not in {str(where / n) for n in outputs(command)}:
        faults.append(f"exit {code} with stderr {err!r}, not one error line naming an output")
    if after == before:
        return faults
    if command != "train":
        return faults + [f"{name} changed" for name in after if after[name] != before[name]]
    # not the earlier files: whole rows of the unlimited run, and the
    # checkpoint of their best epoch
    text = after["run/metrics.csv"]
    lines = (text or b"").decode("utf-8", "replace").split("\n")
    rows = lines[1:-1]
    if lines[0] != METRICS_HEADER or lines[-1] != "" or not rows \
            or rows != rows_of(root / "ref/run/metrics.csv")[:len(rows)]:
        return faults + [f"metrics.csv is not whole rows of the run: {text!r}"]
    if after["run/model.efck"] is None:
        return faults + ["no model.efck beside the rows"]
    best = max(row.split(",")[3] for row in rows)
    got = best_accuracy(root, where / "run/model.efck")
    if got != best:
        faults.append(f"the checkpoint scores {got}, its log's best row {best}")
    return faults


def run_trials(root, trials):
    """Run (label, command, limit, rerun) trials, ``CHILDREN`` at a time,
    and return the faults of each trial that has any."""
    failures, running = [], []
    try:
        for at, (label, command, limit, rerun) in enumerate(trials):
            where = root / f"trial-{at}"
            running.append((label, where, command, limit, rerun,
                            *start(root, where, command, limit, rerun)))
            if len(running) < CHILDREN and at < len(trials) - 1:
                continue
            for label, where, command, limit, rerun, child, before in running:
                faults = check(root, where, command, child, before)
                if faults:
                    failures.append(f"{label}: {command}, limit {limit}, "
                                    f"{'rerun' if rerun else 'new'}: {'; '.join(faults)}")
                shutil.rmtree(where)
            running = []
    finally:
        # a check that raised leaves its batch's children to stop here
        for *_, child, _ in running:
            child.kill()
            child.communicate()
    return failures


@pytest.mark.parametrize("edges", [("names_the_file", "rerun_keeps_earlier_files"),
                                   ("tears_no_header", "tears_no_row")],
                         ids=["named_and_rerun", "header_and_row"])
def test_edge_write_faults(corpus, edges):
    failures = run_trials(corpus, [(name, *EDGES[name]) for name in edges])
    assert not failures, "\n".join(failures)


def test_seeded_write_faults(corpus):
    trials = [(f"seed {SEED}, trial {index}", *trial(corpus, SEED, index))
              for index in range(TRIALS)]
    failures = run_trials(corpus, trials)
    assert not failures, "\n".join(failures)
