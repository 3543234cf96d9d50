"""EF-Net benchmark: one seeded workload, every metric by name with its unit.

    python3 perfbench/run.py --workload train_mm --seed 1 --seconds 30 --trace 0

Workloads: ``train_mm``, ``train_text``, ``fd_tiny`` (see perfbench/README.md).
With ``--trace 0`` the last stdout line reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it reports the per-layer metrics, from a
traced process that runs after an untraced one of the same length.

The corpus is generated from ``--seed`` in a scratch directory under
``.perfbench_work/`` in the checkout and deleted afterwards; span files of
traced runs stay in ``.perfbench_work/traces/``. The script uses only the
standard library: all EF-Net work happens in ``worker.py`` processes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
# Set-up probes per run, each timed between two reference starts: a fresh
# interpreter that only imports numpy. The machine's speed drifts by up to a
# third between runs minutes apart, and it moves a probe and its neighbouring
# reference starts alike, so setup_s is the median ratio of probe to
# reference, in units of REFERENCE_S.
SETUP_PROBES = 12
REFERENCE = ("-c", "import numpy")
REFERENCE_S = 0.2     # nominal: the reference start's typical time on the recorded machine
# One BLAS thread: on two cores the default threading ran train_mm about 15%
# slower and made every run compete with whatever else holds the other core.
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                  MKL_NUM_THREADS="1")


class BenchError(RuntimeError):
    """A worker process failed; the run has no result."""


def worker(*args, timeout: float, capture: bool = False) -> str:
    proc = subprocess.run(
        [sys.executable, str(WORKER), *map(str, args)],
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr, env=WORKER_ENV, text=True, timeout=timeout, check=False)
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited with code {proc.returncode}")
    return proc.stdout or ""


def setup_seconds(workload: str, corpus: Path) -> float:
    """Interpreter start to the first step, in a fresh process."""
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    out = worker("setup", "--workload", workload, "--corpus", corpus,
                 timeout=60, capture=True)
    return float(out.split()[-1]) - started


def reference_seconds() -> float:
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, *REFERENCE], env=WORKER_ENV, timeout=60,
                          check=False)
    if proc.returncode != 0:
        raise BenchError(f"reference start exited with code {proc.returncode}")
    return time.clock_gettime(time.CLOCK_MONOTONIC) - started


def setup_probes(workload: str, corpus: Path) -> tuple:
    """Set-up seconds of each probe and of the reference starts around them."""
    refs = [reference_seconds()]
    setups = []
    for _ in range(SETUP_PROBES):
        setups.append(setup_seconds(workload, corpus))
        refs.append(reference_seconds())
    return setups, refs


def measure(workload: str, seed: int, corpus: Path, seconds: float, trace: bool,
            spans: Path | None = None, fault: bool = False) -> dict:
    out = corpus.parent / f"measure-{int(trace)}.json"
    args = ["measure", "--workload", workload, "--seed", seed, "--corpus", corpus,
            "--seconds", seconds, "--trace", int(trace), "--out", out]
    if spans is not None:
        args += ["--spans", spans]
    if fault:
        args.append("--inject-fault")
    worker(*args, timeout=seconds + 100)
    return json.loads(out.read_text(encoding="utf-8"))


def summary(result: dict) -> None:
    """Human-readable lines ahead of the JSON result."""
    env = result["env"]
    print(f"env: python {env['python']}, numpy {env['numpy']}, {env['blas']}, "
          f"BLAS threads {env['blas_threads']}, nproc {env['nproc']}")
    failed_frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    checks = ", ".join(f"{k} {v}" for k, v in sorted(result.get("checks", {}).items()))
    print(f"units {result['units']}, attempted {result['attempted']}, "
          f"failed {result['failed']}, failed_frac {failed_frac}; {checks}")


def run(args) -> dict:
    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    corpus = work / "corpus"
    try:
        work.mkdir(parents=True)
        worker("generate", "--workload", args.workload, "--seed", args.seed,
               "--corpus", corpus, "--samples", args.samples, timeout=120)
        if not args.trace:
            res = measure(args.workload, args.seed, corpus, args.seconds, False,
                          fault=args.inject_fault)
            setups, refs = setup_probes(args.workload, corpus)
            ratios = [s / ((a + b) / 2) for s, a, b in zip(setups, refs, refs[1:])]
            summary(res)
            print(f"set-up: median probe {statistics.median(setups):.4f} s, median reference "
                  f"start {statistics.median(refs):.4f} s, median ratio {statistics.median(ratios):.4f}")
            metrics = dict(res["metrics"], setup_s=statistics.median(ratios) * REFERENCE_S,
                           peak_rss_mb=res["peak_rss_mb"],
                           ok_frac=1.0 - res["failed"] / max(res["attempted"], 1))
            section = "end_to_end"
            attempted, failed = res["attempted"], res["failed"]
        else:
            traces = ROOT / ".perfbench_work" / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            stem = f"{args.workload}-seed{args.seed}"
            plain = measure(args.workload, args.seed, corpus, args.seconds / 2, False,
                            fault=args.inject_fault)
            traced = measure(args.workload, args.seed, corpus, args.seconds / 2, True,
                             spans=traces / f"{stem}-spans.jsonl", fault=args.inject_fault)
            summary(traced)
            (traces / f"{stem}-self.json").write_text(
                json.dumps(traced["self_times"], indent=1, sort_keys=True), encoding="utf-8")
            for name, row in sorted(traced["self_times"].items(),
                                    key=lambda kv: -kv[1]["self_ms"])[:12]:
                print(f"self time {name}: {row['self_ms']:.1f} ms over {row['calls']} calls")
            untraced_rate = plain["metrics"].get("train_samples_per_s", math.nan)
            traced_rate = traced["metrics"].get("train_samples_per_s", math.nan)
            metrics = dict(traced["per_layer"],
                           **{"trace.overhead_frac": 1.0 - traced_rate / untraced_rate})
            section = "per_layer"
            attempted = plain["attempted"] + traced["attempted"]
            failed = plain["failed"] + traced["failed"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[section]
    # A run whose operations all failed has no rates: it still reports its
    # tally, without the metrics it could not measure, as incorrect.
    report = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
              for m in declared if math.isfinite(metrics.get(m["name"], math.nan))}
    correct = failed == 0 and attempted > 0 and len(report) == len(declared)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": report}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--samples", type=int, default=300,
                        help="corpus size; smaller only for the self-test")
    parser.add_argument("--inject-fault", action="store_true",
                        help="make every forward pass raise; for the self-test")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.samples < 10:
        parser.error("--seconds must be positive and --samples at least 10")
    if not (ROOT / "src" / "efnet").is_dir():
        print(f"no EF-Net sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
