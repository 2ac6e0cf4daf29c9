"""The benchmark's two workloads, driven through the package's public functions.

Both workloads run whole study cells through `study.run_study` with an
output directory, so every layer (simulate, mcmc, marglik, criteria, study,
io) is crossed in every run, and then write each cell's four chains with
`io.save_chain` and read them back with `io.load_chain`, as ``secrsel fit``
and ``secrsel select`` do.  They differ in where a cell spends its time:
`full_fit` scores a few thinned draws of long chains, so the sampler does
nearly all the work; `full_cell` scores every retained draw, as the study
does, so the scorers dominate.

Each workload builds its inputs from the run's seed (`setup`), then runs
identical *rounds* (`run_round`), and finally checks the first round's
outputs (`check`).  Every round repeats the same operations on the same
inputs, so every round must produce the same output digest.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
from secrsel import io, study
from secrsel.mcmc import McmcConfig
from secrsel.model import ModelId
from secrsel.simulate import scenario_table, standard_design
from speed import Probe

MODELS = study.MODEL_ORDER


@dataclass
class Round:
    """Timed outcome of one round of a workload's operations."""

    seconds: float  # probe samples taken inside the round are left out of every time
    op_seconds: list[float]  # each operation's share of `seconds`, in a fixed order
    fit_seconds: list[float]  # each model fit plus its chain write and read, in a fixed order
    fit_probe_s: list[float | None]  # probe time next to each fit (None without a probe)
    probe_s: float | None  # probe time over the round (None without a probe)
    ops: int
    failed: int
    iterations: int  # sampler iterations run inside the round
    digest: str
    cells: int
    outputs: dict = field(default_factory=dict)


class Capture:
    """Keeps the datasets and unthinned chains that `evaluate_cell` builds
    internally, and the wall time of each cell and of each model fit.

    The checks and the chain round trips need each cell's dataset and
    chains, which `evaluate_cell` does not return, so the module attributes
    it calls them through are wrapped for the whole run, traced or not.
    Given a speed probe, each fit is bracketed by a probe sample, and the
    sampling time is left out of the cell's time.
    """

    def __init__(self, probe: Probe | None = None):
        self.cells: list[tuple[object, dict]] = []
        self.cell_seconds: list[float] = []
        self.fit_seconds: list[float] = []
        self.fit_probe_s: list[float | None] = []
        simulate, fit, evaluate = study.simulate_dataset, study.fit, study.evaluate_cell

        def simulate_kept(*args, **kwargs):
            out = simulate(*args, **kwargs)
            self.cells.append((out[0], {}))
            return out

        def fit_kept(model, data, config):
            before = probe.sample() if probe else None
            t0 = time.perf_counter()
            chain = fit(model, data, config)
            self.fit_seconds.append(time.perf_counter() - t0)
            self.fit_probe_s.append((before + probe.sample()) / 2 if probe else None)
            self.cells[-1][1][ModelId(model).value] = chain
            return chain

        def evaluate_timed(*args, **kwargs):
            spent = probe.spent if probe else 0.0
            t0 = time.perf_counter()
            cell = evaluate(*args, **kwargs)
            self.cell_seconds.append(time.perf_counter() - t0 - ((probe.spent - spent) if probe else 0.0))
            return cell

        study.simulate_dataset, study.fit, study.evaluate_cell = simulate_kept, fit_kept, evaluate_timed

    def clear(self) -> None:
        self.cells.clear()
        self.cell_seconds.clear()
        self.fit_seconds.clear()
        self.fit_probe_s.clear()


def _cell_digest(cell) -> str:
    record = cell.to_json()
    record.pop("wall_time_s")
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def _cell_failed(cell) -> bool:
    return not cell.ok or bool(cell.tool_errors)


@dataclass
class CellWorkload:
    """`run_study` of `n_sim` full-scale cells of one scenario, then a write
    and read-back of every chain the cells fitted."""

    name: str
    scenario_id: str
    n_sim: int
    n_iter: int
    burn_in: int
    thin: int

    def setup(self, seed: int, out_dir: Path, probe: Probe | None = None) -> None:
        self.seed, self.out_dir, self.probe = seed, out_dir, probe
        self.design = standard_design()
        self.scenarios = [s for s in scenario_table() if s.scenario_id == self.scenario_id]
        self.mcmc = McmcConfig(n_iter=self.n_iter, burn_in=self.burn_in)
        self.capture = Capture(probe)

    def run_round(self) -> Round:
        target = self.out_dir / "study"
        shutil.rmtree(target, ignore_errors=True)
        self.capture.clear()
        probe = self.probe
        if probe:
            mark, spent = len(probe.samples), probe.spent
            probe.sample()
        t0 = time.perf_counter()
        results = study.run_study(
            self.design, self.scenarios, self.n_sim, self.mcmc, self.seed,
            out_dir=target, thin=self.thin, workers=1,
        )
        op_seconds = list(self.capture.cell_seconds)
        io_seconds = []
        round_trips = []  # (cell index, model, chain, loaded chain, file size)
        failed_io = 0
        for c, (_, chains) in enumerate(self.capture.cells):
            for model, chain in chains.items():
                path = target / f"{c}_{model}.chain"
                t_op = time.perf_counter()
                try:
                    io.save_chain(path, chain)
                    loaded = io.load_chain(path)
                except Exception as exc:  # a failed operation is counted and reported, not fatal
                    print(f"# {self.name} chain {c}/{model} failed: {exc!r}", file=sys.stderr)
                    failed_io += 1
                    loaded = None
                io_seconds.append(time.perf_counter() - t_op)
                if loaded is not None:
                    round_trips.append((c, model, chain, loaded, path.stat().st_size))
        seconds = time.perf_counter() - t0
        if probe:
            seconds -= probe.spent - spent
            probe.sample()
        h = hashlib.sha256()
        for cell in results.cells:
            h.update(_cell_digest(cell).encode())
        for name in ("selections.csv", "rmse.csv", "correlations.csv", "marglik.csv", "criteria.csv"):
            h.update((target / name).read_bytes())
        for c, model, *_ in round_trips:
            h.update((target / f"{c}_{model}.chain").read_bytes())
        n = len(results.cells)
        return Round(
            seconds,
            op_seconds + io_seconds,
            [f + i for f, i in zip(self.capture.fit_seconds, io_seconds)],
            list(self.capture.fit_probe_s),
            probe.seconds_since(mark) if probe else None,
            n + n * len(MODELS),
            sum(map(_cell_failed, results.cells)) + failed_io,
            n * len(MODELS) * self.n_iter,
            h.hexdigest(),
            n,
            {"cells": results.cells, "captured": list(self.capture.cells), "round_trips": round_trips},
        )

    def check(self, outputs: dict) -> float:
        """Checks of the first round; returns chain file KiB per draw."""
        cells, captured = outputs["cells"], outputs["captured"]
        checks.require(len(cells) == len(captured), "capture", "cells and captured datasets differ")
        for cell, (data, chains) in zip(cells, captured):
            if _cell_failed(cell):
                continue
            for chain in chains.values():
                checks.check_chain(chain, data, self.mcmc.prior.sigma_upper)
            scored = {m: study.thin_chain(chain, self.thin) for m, chain in chains.items()}
            checks.check_cell(cell, scored, data)
        size = draws = 0
        for _, _, chain, loaded, nbytes in outputs["round_trips"]:
            checks.check_round_trip(chain, loaded)
            size += nbytes
            draws += chain.n_draws
        checks.require(draws > 0, "capture", "no chain was written and read back")
        return size / 1024.0 / draws


# Chain lengths keep the burn-in share of ``scripts/run_scaled_study.py
# --full`` (5000 of 30000 iterations burned in).  `full_fit` scores every
# 5th retained draw, 10 per chain, the fewest the six-parameter tuning
# densities of M1 accept with a margin, so that a round fits many models;
# `full_cell` scores all 20 retained draws, so each stage's share of a cell
# matches a paper-scale cell.
WORKLOADS = {
    w.name: w
    for w in (
        CellWorkload("full_fit", "1", n_sim=2, n_iter=60, burn_in=10, thin=5),
        CellWorkload("full_cell", "9", n_sim=1, n_iter=24, burn_in=4, thin=1),
    )
}
