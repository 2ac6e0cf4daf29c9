#!/usr/bin/env python3
"""Run the replicated model-selection study and print its summary tables.

Defaults reproduce the desk-scale acceptance configuration: the small survey
geometry, the low/high-information scenario pair, 5 replicates, 5000
iterations with 1500 burn-in, master seed 20260814.  Pass ``--full`` for the
full-scale configuration (12 scenarios, 10 replicates, and `McmcConfig`'s
default chain of 30000 iterations with 5000 burn-in on the large geometry) —
expect that one to run for days on a single core, so use ``--workers`` and
keep the output directory around: re-running with the same directory and
seed resumes from its checkpoints.
"""

import argparse
import sys
import time
from pathlib import Path

from secrsel.cli import main as cli_main
from secrsel.mcmc import McmcConfig
from secrsel.simulate import scaled_design, scaled_scenarios, scenario_table, standard_design
from secrsel.study import run_study


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="study output directory")
    parser.add_argument("--seed", type=int, default=20260814,
                        help="master seed (default %(default)s)")
    parser.add_argument("--n-sim", type=int, default=None,
                        help="replicates per scenario (default 5, or 10 with --full)")
    parser.add_argument("--iterations", type=int, default=None,
                        help="MCMC iterations (default 5000, or McmcConfig's "
                             f"{McmcConfig.n_iter} with --full)")
    parser.add_argument("--burn-in", type=int, default=None,
                        help="burn-in iterations (default 1500, or McmcConfig's "
                             f"{McmcConfig.burn_in} with --full)")
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel worker processes (default %(default)s)")
    parser.add_argument("--full", action="store_true",
                        help="full-scale design and all 12 scenarios")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.full:
        design, scenarios = standard_design(), scenario_table()
        n_sim = args.n_sim or 10
        mcmc = McmcConfig(n_iter=args.iterations or McmcConfig.n_iter,
                          burn_in=args.burn_in or McmcConfig.burn_in)
    else:
        design, scenarios = scaled_design(), scaled_scenarios()
        n_sim = args.n_sim or 5
        mcmc = McmcConfig(n_iter=args.iterations or 5000,
                          burn_in=args.burn_in or 1500)

    out = Path(args.out)
    t0 = time.perf_counter()
    results = run_study(design, scenarios, n_sim, mcmc, args.seed,
                        out_dir=out, workers=args.workers)
    print(f"study finished in {time.perf_counter() - t0:.0f}s; "
          f"{len(results.complete_cells())}/{len(results.cells)} cells ok; "
          f"results in {out}", file=sys.stderr)
    for scenario_id, replicate, message in results.failures:
        print(f"  failed cell {scenario_id}/{replicate}: {message}",
              file=sys.stderr)
    return cli_main(["report", "--results", str(out)])


if __name__ == "__main__":
    sys.exit(main())
