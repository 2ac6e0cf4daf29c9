"""Command-line front end over the file formats: simulate, fit, select, study, report.

Exit codes: 0 success, 1 usage error (bad flags, bad config values), 2 data
error (missing/malformed/mismatched files), 3 numerical failure.  A config
file that cannot be parsed at all is a data error; a config that parses but
carries an invalid value is a usage error.

Every subcommand that consumes randomness takes ``--seed``; without it a
seed is generated, printed, and stored in the output manifest so the run
can be reproduced after the fact.  Config files are looked up first as
given, then in the directories listed in the ``SECRSEL_CONFIG_PATH``
environment variable (colon-separated).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import time
import warnings
from pathlib import Path

from .errors import DataError, NumericalError, UsageError
from .io import (
    load_config,
    load_chain,
    load_dataset,
    load_manifest,
    read_csv,
    save_chain,
    save_dataset,
    save_truth,
    sha256_file,
    write_csv,
    write_manifest,
)
from .mcmc import McmcConfig, fit
from .model import ModelId, PriorSpec, StateSpace
from .simulate import (
    Scenario,
    SurveyDesign,
    make_trap_grid,
    scaled_design,
    scaled_scenarios,
    scenario_table,
    simulate_dataset,
    standard_design,
)
from .study import (
    MODEL_ORDER,
    ToolId,
    _checkpoint_path,
    run_study,
    score_tools,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse parser whose failures map onto exit code 1, not argparse's 2."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------


def _resolve_config(name: str) -> Path:
    path = Path(name)
    if path.exists():
        return path
    for directory in os.environ.get("SECRSEL_CONFIG_PATH", "").split(":"):
        if directory and (Path(directory) / name).exists():
            return Path(directory) / name
    raise DataError(
        f"config {name!r} not found (searched the path as given and "
        "$SECRSEL_CONFIG_PATH)"
    )


def _cast(cfg: dict, key: str, cast, default):
    if key not in cfg:
        if default is None:
            raise UsageError(f"config is missing required key {key!r}")
        return default
    raw = cfg[key]
    try:
        if cast is bool:
            if raw.lower() in ("1", "true", "yes"):
                return True
            if raw.lower() in ("0", "false", "no"):
                return False
            raise ValueError(raw)
        return cast(raw)
    except ValueError:
        raise UsageError(f"config key {key} = {raw!r} is not a valid {cast.__name__}")


_DESIGN_KEYS = (
    "x_min", "x_max", "y_min", "y_max", "grid_resolution",
    "trap_buffer", "traps_x", "traps_y", "trap_spacing_x", "trap_spacing_y",
    "n_occasions", "n_augmented", "n_individuals", "n_male",
)
_KNOWN_KEYS = frozenset(
    ("design", "scenario", "scenarios", "n_sim", "n_iter", "burn_in", "thin",
     "sigma_upper", "s_walk_scale", "il_resolution", "sex_obs", "seed", "tools")
    + _DESIGN_KEYS
)


def _check_keys(cfg: dict) -> None:
    unknown = [
        k for k in cfg if k not in _KNOWN_KEYS and not k.startswith(("scenario_", "proposal_scale_"))
    ]
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")


def _design_from_config(cfg: dict) -> SurveyDesign:
    preset = cfg.get("design", "scaled")
    if preset == "scaled":
        return scaled_design()
    if preset == "standard":
        return standard_design()
    if preset != "custom":
        raise UsageError(
            f"design = {preset!r}; expected 'scaled', 'standard', or 'custom'"
        )
    space = StateSpace(
        _cast(cfg, "x_min", float, None),
        _cast(cfg, "x_max", float, None),
        _cast(cfg, "y_min", float, None),
        _cast(cfg, "y_max", float, None),
        grid_resolution=_cast(cfg, "grid_resolution", float, 0.25),
    )
    traps = make_trap_grid(
        space,
        buffer=_cast(cfg, "trap_buffer", float, None),
        n_x=_cast(cfg, "traps_x", int, None),
        n_y=_cast(cfg, "traps_y", int, None),
        spacing_x=_cast(cfg, "trap_spacing_x", float, None),
        spacing_y=_cast(cfg, "trap_spacing_y", float, None),
    )
    return SurveyDesign(
        statespace=space,
        traps=traps,
        n_occasions=_cast(cfg, "n_occasions", int, None),
        n_augmented=_cast(cfg, "n_augmented", int, None),
        n_individuals=_cast(cfg, "n_individuals", int, None),
        n_male=_cast(cfg, "n_male", int, None),
    )


def _scenario_map(cfg: dict) -> dict[str, Scenario]:
    """Built-in scenarios by id, plus any ``scenario_<id> = w p sm sf`` lines."""
    table = {sc.scenario_id: sc for sc in scenario_table()}
    table.update({sc.scenario_id: sc for sc in scaled_scenarios()})
    for key, raw in cfg.items():
        if not key.startswith("scenario_"):
            continue
        sid = key[len("scenario_"):]
        parts = raw.split()
        if len(parts) != 4:
            raise UsageError(
                f"config key {key} must hold 4 values "
                f"(omega0 phi sigma_m sigma_f), got {raw!r}"
            )
        try:
            table[sid] = Scenario(sid, *(float(v) for v in parts))
        except ValueError:
            raise UsageError(f"config key {key} = {raw!r} has a non-numeric value")
    return table


def _mcmc_from_config(cfg: dict) -> McmcConfig:
    mcfg = McmcConfig(
        n_iter=_cast(cfg, "n_iter", int, McmcConfig.n_iter),
        burn_in=_cast(cfg, "burn_in", int, McmcConfig.burn_in),
        prior=PriorSpec(sigma_upper=_cast(cfg, "sigma_upper", float, 3.0)),
        s_walk_scale=_cast(cfg, "s_walk_scale", float, 0.2),
    )
    overrides = {
        key[len("proposal_scale_"):]: _cast(cfg, key, float, None)
        for key in cfg
        if key.startswith("proposal_scale_")
    }
    if overrides:
        unknown = set(overrides) - set(mcfg.proposal_scales)
        if unknown:
            raise UsageError(
                f"proposal scale overrides for unknown parameters: {sorted(unknown)}"
            )
        scales = dict(mcfg.proposal_scales)
        scales.update(overrides)
        mcfg = dataclasses.replace(mcfg, proposal_scales=scales)
    return mcfg


def _parse_tools(spec: str) -> tuple[ToolId, ...]:
    if spec.strip() == "all":
        return tuple(ToolId)
    by_value = {t.value: t for t in ToolId}
    out = []
    for name in spec.split(","):
        name = name.strip()
        if name not in by_value:
            raise UsageError(
                f"unknown tool {name!r}; valid tools: all, {', '.join(by_value)}"
            )
        out.append(by_value[name])
    if not out:
        raise UsageError("empty tool list")
    return tuple(out)


def _ensure_seed(seed: int | None) -> int:
    if seed is None:
        seed = int.from_bytes(os.urandom(6), "big")
        print(f"generated seed: {seed}")
    return seed


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    config_path = _resolve_config(args.config)
    cfg = load_config(config_path)
    _check_keys(cfg)
    design = _design_from_config(cfg)
    scenarios = _scenario_map(cfg)
    sid = args.scenario or cfg.get("scenario")
    if not sid:
        raise UsageError("no scenario given (use --scenario or a 'scenario =' config line)")
    if sid not in scenarios:
        raise UsageError(f"unknown scenario {sid!r}; known: {', '.join(scenarios)}")
    seed = args.seed
    if seed is None and "seed" in cfg:
        seed = _cast(cfg, "seed", int, None)
    seed = _ensure_seed(seed)
    sex_obs = cfg.get("sex_obs", "captured")
    data, truth = simulate_dataset(scenarios[sid], design, seed, sex_obs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_dataset(out / "dataset.txt", data)
    save_truth(out / "truth.txt", truth)
    write_manifest(
        out,
        subcommand="simulate",
        seed=seed,
        config_text=config_path.read_text(),
        inputs=[config_path],
        outputs=["dataset.txt", "truth.txt"],
        wall_time_s=time.perf_counter() - t0,
        extra={"scenario": sid},
    )
    n_cap = int((data.y1.any(axis=(1, 2)) | data.y2.any(axis=(1, 2))).sum())
    print(
        f"simulated scenario {sid}: {truth.n_individuals} individuals "
        f"({n_cap} capture histories) -> {out}"
    )
    return 0


def cmd_fit(args) -> int:
    t0 = time.perf_counter()
    data = load_dataset(args.data)
    model = ModelId(args.model)
    if not model.has_sex_effect and (data.u_obs >= 0).any():
        warnings.warn(
            f"dataset carries sex labels but model {model.value} has no sex "
            "effect; the labels are ignored",
            stacklevel=2,
        )
    seed = _ensure_seed(args.seed)
    mcfg = McmcConfig(
        n_iter=args.iterations,
        burn_in=args.burn_in,
        prior=PriorSpec(sigma_upper=args.sigma_upper),
        s_walk_scale=args.s_walk_scale,
        seed=seed,
    )
    chain = fit(model, data, mcfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_chain(out / "chain.bin", chain)
    write_manifest(
        out,
        subcommand="fit",
        seed=seed,
        inputs=[args.data],
        outputs=["chain.bin"],
        wall_time_s=time.perf_counter() - t0,
        extra={"model": model.value, "n_draws": chain.n_draws},
    )
    print(f"fitted {model.value}: {chain.n_draws} retained draws -> {out}")
    return 0


def _verify_chain_manifest(chain_path: Path, data_sha: str) -> None:
    """Refuse chains whose recorded provenance does not match the dataset."""
    manifest = load_manifest(chain_path.parent)
    recorded = manifest.get("outputs", {}).get(chain_path.name)
    if recorded is None:
        raise DataError(
            f"{chain_path}: not listed in its directory's manifest outputs"
        )
    if recorded != sha256_file(chain_path):
        raise DataError(f"{chain_path}: file does not match its manifest digest")
    if data_sha not in manifest.get("inputs", {}).values():
        raise DataError(
            f"{chain_path}: was not fitted to the given dataset "
            "(manifest input digest mismatch)"
        )


def cmd_select(args) -> int:
    t0 = time.perf_counter()
    data = load_dataset(args.data)
    data_sha = sha256_file(args.data)
    chains = {}
    for path in args.chains:
        path = Path(path)
        chain = load_chain(path)
        if chain.model in chains:
            raise DataError(f"two chains for model {chain.model.value} given")
        if not args.no_verify:
            _verify_chain_manifest(path, data_sha)
        chains[chain.model] = chain
    missing = [m.value for m in MODEL_ORDER if m not in chains]
    if missing:
        raise DataError(f"need one chain per model; missing {', '.join(missing)}")
    tools = _parse_tools(args.tools)
    result = score_tools(data, chains, tools, grid_resolution=args.resolution)
    rows = []
    for tool in tools:
        per_model = result.scores[tool.value]
        row = [tool.value]
        for model in MODEL_ORDER:
            v = per_model.get(model.value, math.nan)
            row.append("NA" if math.isnan(v) else float(v))
        row.append(result.selected[tool.value] or "NA")
        row.append(int(result.tie[tool.value]))
        rows.append(row)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(
        out / "scores.csv",
        "scores",
        ["tool"] + [f"score_{m.value}" for m in MODEL_ORDER] + ["selected", "tie"],
        rows,
    )
    write_manifest(
        out,
        subcommand="select",
        seed=args.seed if args.seed is not None else 0,
        inputs=[args.data] + list(args.chains),
        outputs=["scores.csv"],
        wall_time_s=time.perf_counter() - t0,
        extra={"tool_errors": result.tool_errors},
    )
    for tool in tools:
        print(f"{tool.value}: {result.selected[tool.value] or 'undefined'}")
    if result.tool_errors:
        print(f"({len(result.tool_errors)} tool/model evaluations failed; see manifest)",
              file=sys.stderr)
    return 0


def cmd_study(args) -> int:
    config_path = _resolve_config(args.config)
    cfg = load_config(config_path)
    _check_keys(cfg)
    design = _design_from_config(cfg)
    scenario_ids = [s.strip() for s in cfg.get("scenarios", "").split(",") if s.strip()]
    if not scenario_ids:
        raise UsageError("config must list scenarios (e.g. 'scenarios = low, high')")
    table = _scenario_map(cfg)
    unknown = [sid for sid in scenario_ids if sid not in table]
    if unknown:
        raise UsageError(f"unknown scenarios: {', '.join(unknown)}")
    scenarios = [table[sid] for sid in scenario_ids]
    n_sim = _cast(cfg, "n_sim", int, None)
    mcfg = _mcmc_from_config(cfg)
    out = Path(args.out)
    checkpoints = out / "checkpoints"
    if checkpoints.exists() and any(checkpoints.iterdir()) and not args.resume:
        raise UsageError(
            f"{out} already holds checkpoints; pass --resume to continue that "
            "run or choose a fresh output directory"
        )
    seed = args.seed
    if seed is None and "seed" in cfg:
        seed = _cast(cfg, "seed", int, None)
    seed = _ensure_seed(seed)
    resolution = _cast(cfg, "il_resolution", float, 0.0)
    keys = [(sc.scenario_id, rep) for sc in scenarios for rep in range(n_sim)]
    n_loaded = sum(_checkpoint_path(out, *key).exists() for key in keys)
    results = run_study(
        design,
        scenarios,
        n_sim,
        mcfg,
        seed,
        out_dir=out,
        thin=_cast(cfg, "thin", int, 1),
        grid_resolution=resolution if resolution > 0 else None,
        sex_obs=cfg.get("sex_obs", "captured"),
        tools=_parse_tools(cfg.get("tools", "all")),
        workers=args.workers,
        progress=_StudyProgress(len(keys), n_loaded, args.workers),
    )
    n_done = len(results.complete_cells())
    print(f"study complete: {n_done}/{len(results.cells)} cells -> {out}")
    for sid, rep, message in results.failures:
        print(f"FAILED {sid}/{rep}: {message}", file=sys.stderr)
    return 0


def _duration(seconds: float) -> str:
    minutes, s = divmod(round(seconds), 60)
    h, minutes = divmod(minutes, 60)
    if h:
        return f"{h}h{minutes:02d}m"
    return f"{minutes}m{s:02d}s" if minutes else f"{s}s"


class _StudyProgress:
    """`run_study`'s progress callback: one stderr line per computed cell.

    Each line shows done/total and an ETA from the mean `wall_time_s` of the
    cells computed so far; cells loaded from checkpoints count as done but
    stay out of the mean.
    """

    def __init__(self, total: int, n_loaded: int, workers: int = 1):
        self.total, self.done, self.workers = total, n_loaded, max(workers, 1)
        self.times: list[float] = []

    def __call__(self, cell) -> None:
        self.done += 1
        self.times.append(cell.wall_time_s)
        rounds = math.ceil((self.total - self.done) / self.workers)
        eta = sum(self.times) / len(self.times) * rounds
        print(
            f"cell {cell.scenario_id}/{cell.replicate}: {cell.status} "
            f"({cell.wall_time_s:.1f}s) {self.done}/{self.total} done, "
            f"ETA {_duration(eta)}",
            file=sys.stderr,
        )


def _print_table(header: list[str], rows: list[list[str]]) -> None:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(header)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())


def cmd_report(args) -> int:
    results_dir = Path(args.results)
    _, rows = read_csv(results_dir / "selections.csv", "selections")
    if not rows:
        raise DataError(f"{results_dir}: selections table is empty (no completed cells)")
    tools: list[str] = []
    scenarios: list[str] = []
    picks: dict[tuple[str, str], list[str]] = {}
    for scenario, _rep, tool, *_scores, selected, _tie in rows:
        if tool not in tools:
            tools.append(tool)
        if scenario not in scenarios:
            scenarios.append(scenario)
        if selected != "NA":
            picks.setdefault((tool, scenario), []).append(selected)
    if args.tool != "all":
        if args.tool not in tools:
            raise UsageError(f"tool {args.tool!r} not in this results set: {tools}")
        tools = [args.tool]
    for tool in tools:
        print(f"selection proportions: {tool}")
        table = []
        for sid in scenarios:
            chosen = picks.get((tool, sid), [])
            row = [sid, str(len(chosen))]
            for model in MODEL_ORDER:
                share = chosen.count(model.value) / len(chosen) if chosen else math.nan
                row.append(f"{share:.3f}" if chosen else "NA")
            table.append(row)
        _print_table(["scenario", "n"] + [m.value for m in MODEL_ORDER], table)
        print()
    _, rmse_rows = read_csv(results_dir / "rmse.csv", "rmse")
    n_rows = [r for r in rmse_rows if r[2] == "N" and r[3] != "NA"]
    if n_rows:
        print("average RMSE of the population size N")
        by_scenario: dict[str, dict[str, str]] = {}
        for scenario, model, _param, value, _n in n_rows:
            by_scenario.setdefault(scenario, {})[model] = f"{float(value):.3f}"
        table = [
            [sid] + [by_scenario[sid].get(m.value, "NA") for m in MODEL_ORDER]
            for sid in by_scenario
        ]
        _print_table(["scenario"] + [m.value for m in MODEL_ORDER], table)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="secrsel",
        description=(
            "Dual-detector spatial capture-recapture: simulate data, fit the "
            "four competing models, and compare 25 Bayesian model-selection tools."
        ),
        epilog=(
            "Config files use 'key = value' lines; bare config names are also "
            "searched in $SECRSEL_CONFIG_PATH (colon-separated directories)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("simulate", help="simulate one dataset under the known truth")
    p.add_argument("--config", required=True, help="design/scenario config file")
    p.add_argument("--scenario", help="scenario id (overrides the config's 'scenario')")
    p.add_argument("--seed", type=int, help="RNG seed (generated and printed if absent)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit one model to a dataset by MCMC")
    p.add_argument("--data", required=True, help="dataset file")
    p.add_argument("--model", required=True, choices=[m.value for m in MODEL_ORDER])
    p.add_argument("--iterations", type=int, default=McmcConfig.n_iter,
                   help="total MCMC iterations (default %(default)s)")
    p.add_argument("--burn-in", type=int, default=McmcConfig.burn_in,
                   help="discarded initial iterations (default %(default)s)")
    p.add_argument("--sigma-upper", type=float, default=3.0,
                   help="upper bound of the movement-scale priors (default %(default)s)")
    p.add_argument("--s-walk-scale", type=float, default=0.2,
                   help="random-walk step for activity centres (default %(default)s)")
    p.add_argument("--seed", type=int, help="RNG seed (generated and printed if absent)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("select", help="score selection tools over four fitted chains")
    p.add_argument("--data", required=True, help="dataset file the chains were fitted to")
    p.add_argument("--chains", required=True, nargs=4, metavar="CHAIN",
                   help="four chain files, one per model")
    p.add_argument("--tools", default="all",
                   help="comma-separated tool names, or 'all' (default)")
    p.add_argument("--resolution", type=float,
                   help="integration grid resolution for the IL estimators")
    p.add_argument("--seed", type=int,
                   help="seed recorded in the manifest (default 0); scoring draws "
                        "no random numbers")
    p.add_argument("--no-verify", action="store_true",
                   help="skip manifest-based dataset/chain consistency checks")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("study", help="run the replicated selection study")
    p.add_argument("--config", required=True, help="study config file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int,
                   help="master seed (overrides config; generated if absent)")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel worker processes (default %(default)s)")
    p.add_argument("--resume", action="store_true",
                   help="continue from the checkpoints already in --out")
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("report", help="print summary tables from a study directory")
    p.add_argument("--results", required=True, help="study output directory")
    p.add_argument("--tool", default="all", help="restrict to one tool (default all)")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
