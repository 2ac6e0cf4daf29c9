#!/usr/bin/env python3
"""Benchmark of the secrsel study pipeline.

    python3 perfbench/run.py --workload {full_fit,full_cell} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  Builds the workload's inputs from the seed,
repeats whole rounds of its operations for about S seconds, checks the
first round's outputs against the benchmark's own references, and prints as
its last line one JSON object with the operations attempted and failed and
the end-to-end metrics (``--trace 0``) or the per-layer metrics of a traced
run (``--trace 1``), exactly the metrics BENCHMARK.json lists.  A failed
check, or a listed metric the run could not measure, stops the run with exit
code 1 and names it; a missing package source exits with code 2.
"""

from __future__ import annotations

import os

# One BLAS thread: the package's matrix products are small, and a second
# thread only adds run-to-run noise on a shared machine.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import Probe, to_reference

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
SETUP_PROBES = 3  # probe samples before the first process and after each


def load_manifest() -> dict:
    """The checkout's BENCHMARK.json: the metrics a result line must hold."""
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def load_package() -> None:
    """Import secrsel from this checkout's source tree, and only from there."""
    if not (SRC / "secrsel" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import secrsel

    if Path(secrsel.__file__).resolve().parent != SRC / "secrsel":
        print(f"error: secrsel imported from {secrsel.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("full_fit", "full_cell"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def measure_setup(args) -> tuple[float, float]:
    """Median wall time of fresh processes that import and build the inputs,
    and the probe time over samples taken before and after each."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    probe = Probe()
    for _ in range(SETUP_PROBES):
        probe.sample()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
        for _ in range(SETUP_PROBES):
            probe.sample()
    return statistics.median(times), probe.seconds_since(0)


def median_sum(per_round) -> float:
    """Sum over operations of each operation's median over the rounds.

    Rounds repeat the same operations, so a slow spell of the machine that
    hits one operation in one round is voted out by the other rounds.
    """
    return sum(statistics.median(ops) for ops in zip(*per_round))


def timings(rounds, scaled: bool) -> tuple[float, float]:
    """(cell_s, fit_iter_per_s) of a run.

    A round's time is its operations' medians plus the median time outside
    them.  Scaled, each round's times are put on the reference-speed scale
    with the probe taken over that round, and each fit with the probe
    samples that bracket it (see speed.py).
    """
    def ref(seconds, probe_s):
        return to_reference(seconds, probe_s if scaled else None)

    ops = [[ref(t, r.probe_s) for t in r.op_seconds] for r in rounds]
    rest = statistics.median(ref(r.seconds - sum(r.op_seconds), r.probe_s) for r in rounds)
    fits = [[ref(t, p) for t, p in zip(r.fit_seconds, r.fit_probe_s)] for r in rounds]
    return (median_sum(ops) + rest) / rounds[0].cells, rounds[0].iterations / median_sum(fits)


def run(args, manifest: dict) -> dict:
    import layers
    from checks import CheckFailed, require
    from spans import Tracer
    from workloads import WORKLOADS

    work_dir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workload = WORKLOADS[args.workload]
    # untraced runs sample the speed probe next to the timed operations
    workload.setup(args.seed, work_dir, None if args.trace or args.setup_only else Probe())
    if args.setup_only:
        return {}
    setup_s, setup_probe_s = (None, None) if args.trace else measure_setup(args)
    tracer = Tracer() if args.trace else None
    if tracer:
        layers.install(tracer)
    try:
        rounds = []
        timed = 0.0
        while True:
            r = workload.run_round()
            if rounds:
                r.outputs = {}  # only the first round's outputs are checked
            rounds.append(r)
            timed += r.seconds
            # whole rounds only: stop where the next one would end nearer
            # past the run length than this one ends before it
            if timed + statistics.median(x.seconds for x in rounds) / 2 >= args.seconds:
                break
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.restore()  # the checks are not part of the workload
        digests = {r.digest for r in rounds}
        require(len(digests) == 1, "determinism", f"{len(digests)} output digests over {len(rounds)} identical rounds")
        if tracer:
            layers.check_self_times(tracer)
        chain_kib = workload.check(rounds[0].outputs)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        raise SystemExit(1)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    cell_s, iter_per_s = timings(rounds, scaled=False)
    print(
        f"# {args.workload} seed {args.seed}: {len(rounds)} rounds of "
        + ", ".join(f"{r.seconds:.3f}" for r in rounds)
        + f" s; digest {rounds[0].digest[:16]}; wall cell_s {cell_s:.4f}; wall fit_iter_per_s {iter_per_s:.2f}"
        + (" (traced)" if tracer else f"; wall setup_s {setup_s:.4f}")
    )
    if not tracer:
        probes = [r.probe_s for r in rounds]
        print(f"# probe {setup_probe_s:.4f} s in set-up, {min(probes):.4f}-{max(probes):.4f} s in rounds")
    if tracer:
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(trace_path)
        print(f"# spans written to {trace_path.relative_to(HERE.parent)}")
        metrics = layers.metrics(tracer, len(rounds))
    else:
        # times on the reference-speed scale (see speed.py)
        cell_s, iter_per_s = timings(rounds, scaled=True)
        metrics = {
            "setup_s": {"value": to_reference(setup_s, setup_probe_s), "unit": "s"},
            "cell_s": {"value": cell_s, "unit": "s"},
            "fit_iter_per_s": {"value": iter_per_s, "unit": "1/s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
            "chain_kib_per_draw": {"value": chain_kib, "unit": "KiB"},
        }
    want = [m["name"] for m in manifest["per_layer" if tracer else "end_to_end"]]
    missing = [name for name in want if name not in metrics]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        raise SystemExit(1)
    return {
        "correct": True,
        "attempted": sum(r.ops for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: metrics[name] for name in want},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    manifest = load_manifest()
    load_package()
    result = run(args, manifest)
    if not args.setup_only:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
