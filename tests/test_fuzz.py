"""Seeded input fuzzing of the command line.

Each trial mutates one of the five inputs of a small run in place (the
config, the dataset, the embeddings, one feature file or the checkpoint),
runs ``efnet train`` or ``efnet eval`` in-process and restores the file.
Whatever the mutation, the run must end in exit 0, 2 or 3 without an
exception escaping ``main``, an error must be exactly one ``error: `` line
on stderr, and numpy must not warn. The mutations are AFL's deterministic
stages: bit flips, truncation, inserted bytes, deleted spans, duplicated
lines, and "interesting" values put in place of numbers.

A trial draws everything from ``(seed, index)``, so a failing one is rerun
alone by passing its seed and index to ``run_trial``.
"""

import contextlib
import io
import re
import shutil
import struct
import traceback
import warnings

import numpy as np
import pytest
from test_cli import CONFIG_TEMPLATE

from efnet.cli import main

SEED = 19
TRIALS = 300
FILES = ("run.cfg", "corpus/dataset.jsonl", "corpus/embeddings.txt", "feature",
         "run/model.efck")
NUMBER = re.compile(rb"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")
TEXT_VALUES = (b"nan", b"inf", b"1e999", b"99999999999")
# a binary word becomes a float32 nan or inf, or the largest count a
# little-endian header word holds
WORD_VALUES = (struct.pack("<f", np.nan), struct.pack("<f", np.inf), b"\xff\xff\xff\xff")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """The command-line tests' synthetic corpus, run config with one epoch,
    and one trained checkpoint."""
    root = tmp_path_factory.mktemp("fuzz")
    assert main(["synth", "--seed", "1", "--n", "10", "--out", str(root / "corpus"),
                 "--vocab", "20", "--embed-dim", "8"]) == 0
    (root / "run.cfg").write_text(
        CONFIG_TEMPLATE.format(text_only="false").replace("epochs = 2", "epochs = 1"))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--config", str(root / "run.cfg"), "--out", str(root / "run")]) == 0
    return root


def mutate(data: bytes, rng, name: str):
    """``data`` with one mutation, and the mutation's description."""
    kind = int(rng.integers(6))
    at = int(rng.integers(len(data) + 1))
    if kind == 0:
        flipped = bytearray(data)
        offsets = sorted(int(i) for i in rng.integers(len(data), size=int(rng.integers(1, 9))))
        for i in offsets:
            flipped[i] ^= 1 << int(rng.integers(8))
        return bytes(flipped), f"bit flips at {offsets}"
    if kind == 1:
        return data[:at], f"truncated to {at} bytes"
    if kind == 2:
        extra = rng.integers(256, size=int(rng.integers(1, 9)), dtype=np.uint8).tobytes()
        return data[:at] + extra + data[at:], f"{extra!r} inserted at {at}"
    if kind == 3:
        end = min(len(data), at + int(rng.integers(1, 65)))
        return data[:at] + data[end:], f"bytes [{at}, {end}) deleted"
    if kind == 4:
        lines = data.splitlines(keepends=True)
        i = int(rng.integers(len(lines)))
        return b"".join(lines[:i + 1] + lines[i:]), f"line {i + 1} duplicated"
    if name.endswith((".cfg", ".jsonl", ".txt")):
        # an epochs value is never replaced: a huge one is a valid run
        # that does not end, not bad input
        spans = [m.span() for m in NUMBER.finditer(data)
                 if not data.startswith(b"epochs", data.rfind(b"\n", 0, m.start()) + 1)]
        lo, hi = spans[int(rng.integers(len(spans)))]
        value = TEXT_VALUES[int(rng.integers(len(TEXT_VALUES)))]
        return data[:lo] + value + data[hi:], f"number at {lo} replaced by {value.decode()}"
    lo = 4 * int(rng.integers(len(data) // 4))
    value = WORD_VALUES[int(rng.integers(len(WORD_VALUES)))]
    return data[:lo] + value + data[lo + 4:], f"word at {lo} replaced by {value.hex()}"


def run_trial(root, seed: int, index: int):
    """Mutate one input of the run under ``root``, run the command and
    restore the input. Returns the exit code, stderr, and the trial's
    description; an exception escaping ``main`` is reported as exit None,
    with its traceback in place of stderr."""
    rng = np.random.default_rng([seed, index])
    name = FILES[index % len(FILES)]
    path = root / name if name != "feature" else sorted((root / "corpus/features").iterdir())[0]
    command = "eval" if name.endswith(".efck") or index // len(FILES) % 2 else "train"
    original = path.read_bytes()
    mutated, how = mutate(original, rng, path.name)
    where = f"seed {seed}, trial {index}: {command} with {path.relative_to(root)}: {how}"
    out = root / "out"
    argv = [command, "--config", str(root / "run.cfg"), "--out", str(out)]
    if command == "eval":
        argv += ["--checkpoint", str(root / "run/model.efck"), "--split", "val"]
    err = io.StringIO()
    path.write_bytes(mutated)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv)
    except Exception:  # noqa: BLE001 - any escape is the finding
        code, err = None, io.StringIO(traceback.format_exc())
    finally:
        path.write_bytes(original)
        if out.is_dir():
            shutil.rmtree(out)
        else:
            out.unlink(missing_ok=True)
    return code, err.getvalue(), where


def test_mutated_inputs_exit_cleanly(corpus):
    failures = []
    for index in range(TRIALS):
        code, err, where = run_trial(corpus, SEED, index)
        if code is None:
            failures.append(f"{where}: escaped {err}")
        elif code not in (0, 2, 3):
            failures.append(f"{where}: exit {code}")
        elif code and not re.fullmatch(r"error: [^\n]*\n", err):
            failures.append(f"{where}: exit {code} with stderr {err!r}")
    assert not failures, "\n".join(failures)
