"""Replicated model-selection study: simulate, fit all models, score 25 tools.

One *cell* of the study is a (scenario, replicate) pair: a dataset is
simulated under the sex-effect trap-entry truth, all four models are fitted
to it, and every selection tool scores the four fits.  Cells are independent
and deterministic given the master seed, so they can run in any order, in
parallel, and be checkpointed per cell; aggregation (selection proportions,
average RMSE, posterior correlations) happens over the immutable cell
results.

Seed hierarchy: every random stream is derived from the master seed and a
textual path with a keyed hash, so any cell can be rerun in isolation:

* dataset:  ``derive_seed(master, "dataset", scenario_id, replicate)``
* chain:    ``derive_seed(master, "chain", scenario_id, replicate, model)``
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .criteria import dic, posterior_predictive_loss, waic
from .errors import DataError
from .io import write_csv, write_manifest
from .marglik import (
    MapEstimate,
    TuningKind,
    gd_il,
    gd_map,
    harmonic_mean,
    integrated_loglik_draws,
    map_refine,
    tuning_grid,
)
from .mcmc import Chain, McmcConfig, fit
from .model import CaptureDataset, ModelId, active_param_names
from .simulate import Scenario, SurveyDesign, TruthRecord, simulate_dataset

__all__ = [
    "ToolId",
    "MODEL_ORDER",
    "COMPLEXITY_ORDER",
    "RMSE_PARAMETERS",
    "StudyConfig",
    "CellResult",
    "StudyResults",
    "ToolScores",
    "derive_seed",
    "thin_chain",
    "select_model",
    "correlation_matrix",
    "score_tools",
    "evaluate_cell",
    "run_study",
    "selection_proportions",
    "average_rmse",
    "write_results_csvs",
]

#: Reporting order of the candidate models.
MODEL_ORDER = (ModelId.M1, ModelId.M2, ModelId.M3, ModelId.M4)

#: Fewest scalar parameters first; ties in a tool's scores break toward the
#: earliest entry.
COMPLEXITY_ORDER = (ModelId.M4, ModelId.M3, ModelId.M2, ModelId.M1)


class ToolId(Enum):
    """The 25 model-selection tools compared by the study.

    Two marginal-likelihood families over the nine tuning densities, the
    harmonic-mean estimator, and six posterior-sample criteria.  Marginal
    tools select the model with the largest estimate; criteria select the
    smallest value.
    """

    GD_MAP_NORMAL = "gd_map_normal"
    GD_MAP_T10 = "gd_map_t10"
    GD_MAP_T100 = "gd_map_t100"
    GD_MAP_T500 = "gd_map_t500"
    GD_MAP_T1000 = "gd_map_t1000"
    GD_MAP_T10000 = "gd_map_t10000"
    GD_MAP_TRUNCNORM90 = "gd_map_truncnorm90"
    GD_MAP_TRUNCNORM95 = "gd_map_truncnorm95"
    GD_MAP_TRUNCNORM99 = "gd_map_truncnorm99"
    GD_IL_NORMAL = "gd_il_normal"
    GD_IL_T10 = "gd_il_t10"
    GD_IL_T100 = "gd_il_t100"
    GD_IL_T500 = "gd_il_t500"
    GD_IL_T1000 = "gd_il_t1000"
    GD_IL_T10000 = "gd_il_t10000"
    GD_IL_TRUNCNORM90 = "gd_il_truncnorm90"
    GD_IL_TRUNCNORM95 = "gd_il_truncnorm95"
    GD_IL_TRUNCNORM99 = "gd_il_truncnorm99"
    HM = "hm"
    DIC1 = "dic1"
    DIC2 = "dic2"
    WAIC1 = "waic1"
    WAIC2 = "waic2"
    WAIC3 = "waic3"
    PPL = "ppl"

    @property
    def family(self) -> str:
        v = self.value
        if v.startswith("gd_map_"):
            return "gd_map"
        if v.startswith("gd_il_"):
            return "gd_il"
        if v == "hm":
            return "hm"
        if v.startswith("dic"):
            return "dic"
        if v.startswith("waic"):
            return "waic"
        return "ppl"

    @property
    def tuning(self) -> TuningKind | None:
        """Tuning density of a Gelfand-Dey tool; None for the rest."""
        if self.family not in ("gd_map", "gd_il"):
            return None
        label = self.value.split("_", 2)[2]
        return _TUNING_BY_LABEL[label]

    @property
    def higher_is_better(self) -> bool:
        return self.family in ("gd_map", "gd_il", "hm")


_TUNING_BY_LABEL = {kind.label: kind for kind in tuning_grid()}

#: Estimands whose generating truth is known, and the models that carry them.
#: sigma (single-scale models) and p0 (direct-detection models) have no true
#: value under the sex-effect trap-entry truth and are deliberately absent.
_SEXED = (ModelId.M1, ModelId.M2)
_RMSE_MODELS = {
    "psi": MODEL_ORDER,
    "theta": _SEXED,
    "phi": (ModelId.M1, ModelId.M3),
    "omega0": (ModelId.M1, ModelId.M3),
    "sigma_m": _SEXED,
    "sigma_f": _SEXED,
    "N": MODEL_ORDER,
    "n_male": _SEXED,
}
RMSE_PARAMETERS = tuple(_RMSE_MODELS)


def derive_seed(master: int, *path) -> int:
    """Deterministic child seed for the stream named by `path`.

    Hashes the master seed and the path components, so streams are
    independent across cells, models, and tools, and any one of them can be
    reconstructed without running the rest of the study.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(master)).encode())
    for part in path:
        h.update(b"/")
        h.update(str(part).encode())
    return int.from_bytes(h.digest(), "big") >> 1  # nonnegative int64


def thin_chain(chain: Chain, step: int) -> Chain:
    """Every `step`-th draw of the chain (step 1 returns it unchanged)."""
    if step < 1:
        raise ValueError(f"thinning step must be >= 1, got {step}")
    if step == 1:
        return chain
    sl = slice(None, None, step)
    return dataclasses.replace(
        chain,
        params={k: v[sl].copy() for k, v in chain.params.items()},
        z=chain.z[sl].copy(),
        u=chain.u[sl].copy(),
        s=chain.s[sl].copy(),
        perm=chain.perm[sl].copy(),
        loglik=chain.loglik[sl].copy(),
        logprior=chain.logprior[sl].copy(),
        perind=chain.perind[sl].copy(),
    )


def select_model(
    scores: Mapping[ModelId, float], higher_is_better: bool = True
) -> tuple[ModelId, bool]:
    """Pick the winning model from one tool's scores.

    Exact ties break toward the model with fewer parameters and are flagged.
    Scores must be comparable: a NaN anywhere makes the selection undefined.
    """
    if not scores:
        raise ValueError("no scores to select from")
    items = [(m, float(scores[m])) for m in COMPLEXITY_ORDER if m in scores]
    if len(items) != len(scores):
        raise ValueError(f"scores keyed by unknown model: {set(scores)}")
    if any(math.isnan(s) for _, s in items):
        raise ValueError("cannot select a model from NaN scores")
    best_model, best_score = items[0]
    for model, score in items[1:]:
        if (score > best_score) if higher_is_better else (score < best_score):
            best_model, best_score = model, score
    tie = any(s == best_score for m, s in items if m is not best_model)
    return best_model, tie


def _estimand_draws(chain: Chain, name: str) -> np.ndarray:
    """Per-draw values of a scalar parameter or derived population quantity."""
    if name == "N":
        return chain.inclusion_counts().astype(float)
    if name == "n_male":
        return (chain.z.astype(np.int64) * chain.u).sum(axis=1).astype(float)
    if name in chain.params:
        return chain.params[name]
    raise ValueError(f"model {chain.model.value} has no estimand {name!r}")


def _truth_value(truth: TruthRecord, name: str) -> float:
    if name == "psi":
        return truth.psi_true
    if name == "theta":
        return truth.theta_true
    if name == "N":
        return float(truth.n_individuals)
    if name == "n_male":
        return float(truth.n_male)
    return float(getattr(truth.scenario, name))


def correlation_matrix(chain: Chain, parameters: Sequence[str]) -> np.ndarray:
    """Pearson correlations of the named per-draw sequences.

    `parameters` may name active scalar parameters or the derived counts
    ``N`` and ``n_male``.  A zero-variance sequence gets NaN in its whole row
    and column (its correlations are undefined); every other diagonal entry
    is exactly 1.
    """
    if chain.n_draws < 2:
        raise ValueError("correlation needs at least two draws")
    cols = np.column_stack([_estimand_draws(chain, p) for p in parameters])
    dev = cols - cols.mean(axis=0)
    ss = (dev * dev).sum(axis=0)
    defined = ss > 0
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = (dev.T @ dev) / np.sqrt(np.outer(ss, ss))
    corr = np.clip(corr, -1.0, 1.0)
    corr[~defined, :] = np.nan
    corr[:, ~defined] = np.nan
    np.fill_diagonal(corr, np.where(defined, 1.0, np.nan))
    return corr


# ---------------------------------------------------------------------------
# Study configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StudyConfig:
    """Everything that determines the study's outputs (hashable fingerprint)."""

    design: SurveyDesign
    scenarios: tuple[Scenario, ...]
    n_sim: int
    mcmc: McmcConfig
    master_seed: int
    thin: int = 1
    grid_resolution: float | None = None
    sex_obs: str = "captured"
    tools: tuple[ToolId, ...] = tuple(ToolId)

    def __post_init__(self):
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        object.__setattr__(self, "tools", tuple(self.tools))
        if self.n_sim < 1:
            raise ValueError(f"n_sim must be >= 1, got {self.n_sim}")
        if self.thin < 1:
            raise ValueError(f"thin must be >= 1, got {self.thin}")
        ids = [sc.scenario_id for sc in self.scenarios]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate scenario ids: {ids}")
        for sid in ids:
            if not sid or not sid.replace("-", "").replace("_", "").isalnum():
                raise ValueError(
                    f"scenario id {sid!r} is not usable in checkpoint file names"
                )
        if not self.tools:
            raise ValueError("tool list is empty")

    def fingerprint_text(self) -> str:
        """Canonical text of every output-determining setting."""
        d = self.design
        sp = d.statespace
        lines = [
            "statespace "
            + " ".join(
                repr(v) for v in (sp.x_min, sp.x_max, sp.y_min, sp.y_max, sp.grid_resolution)
            ),
            "traps " + hashlib.sha256(np.ascontiguousarray(d.traps.locations).tobytes()).hexdigest(),
            f"n_occasions {d.n_occasions}",
            f"n_augmented {d.n_augmented}",
            f"n_individuals {d.n_individuals}",
            f"n_male {d.n_male}",
        ]
        for sc in self.scenarios:
            lines.append(
                f"scenario {sc.scenario_id} "
                + " ".join(repr(v) for v in (sc.omega0, sc.phi, sc.sigma_m, sc.sigma_f))
            )
        lines.append(f"n_sim {self.n_sim}")
        lines.append(f"master_seed {self.master_seed}")
        lines.append(f"thin {self.thin}")
        lines.append(f"grid_resolution {self.grid_resolution!r}")
        lines.append(f"sex_obs {self.sex_obs}")
        lines.append("tools " + " ".join(t.value for t in self.tools))
        # estimator version: refuses cells scored by the replicate-based PPL
        lines.append("ppl exact")
        m = self.mcmc
        lines.append(f"mcmc n_iter {m.n_iter} burn_in {m.burn_in}")
        lines.append(f"mcmc sigma_upper {m.prior.sigma_upper!r}")
        for k in sorted(m.proposal_scales):
            lines.append(f"mcmc scale {k} {m.proposal_scales[k]!r}")
        lines.append(f"mcmc s_walk_scale {m.s_walk_scale!r}")
        lines.append(f"mcmc sample_scalars {m.sample_scalars}")
        lines.append(f"mcmc flat_likelihood {m.flat_likelihood}")
        if m.s_grid is not None:
            lines.append(
                "mcmc s_grid " + hashlib.sha256(np.ascontiguousarray(m.s_grid).tobytes()).hexdigest()
            )
        if m.init_params is not None:
            lines.append(f"mcmc init_params {m.init_params}")
        return "\n".join(lines) + "\n"

    def fingerprint(self) -> str:
        return hashlib.blake2b(self.fingerprint_text().encode(), digest_size=16).hexdigest()


# ---------------------------------------------------------------------------
# One cell
# ---------------------------------------------------------------------------


@dataclass
class CellResult:
    """Everything retained from one (scenario, replicate) evaluation.

    All fields are JSON-representable (floats round-trip through ``repr``),
    so a checkpointed cell reloads bit-identically.
    """

    scenario_id: str
    replicate: int
    status: str  # "ok" | "failed"
    message: str  # failure detail, "" when ok
    dataset_seed: int
    truth: dict[str, float]
    scores: dict[str, dict[str, float]]  # tool value -> model value -> score
    selected: dict[str, str]  # tool value -> model value, "" if undefined
    tie: dict[str, bool]
    tool_errors: dict[str, str]  # "tool/model" -> message
    marglik_rows: list[dict]
    criteria_rows: list[dict]
    mse: dict[str, dict[str, float]]  # model value -> estimand -> mean sq err
    summaries: dict[str, dict[str, list[float]]]  # model -> estimand -> [mean, sd]
    corr_rows: list[dict]
    wall_time_s: float

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, record: dict) -> "CellResult":
        return cls(**record)


def _failed_cell(scenario: Scenario, replicate: int, seed: int, message: str, t0: float) -> CellResult:
    return CellResult(
        scenario_id=scenario.scenario_id,
        replicate=replicate,
        status="failed",
        message=message,
        dataset_seed=seed,
        truth={},
        scores={},
        selected={},
        tie={},
        tool_errors={},
        marglik_rows=[],
        criteria_rows=[],
        mse={},
        summaries={},
        corr_rows=[],
        wall_time_s=time.perf_counter() - t0,
    )


def _marglik_row(model: ModelId, est) -> dict:
    return {
        "model": model.value,
        "method": est.method,
        "tuning": est.tuning,
        "value": float(est.value),
        "mc_se": float(est.mc_se),
        "n_draws": int(est.n_draws),
        "n_dropped": int(est.n_dropped),
        "unreliable": bool(est.unreliable),
    }


def _criterion_row(model: ModelId, res) -> dict:
    return {
        "model": model.value,
        "criterion": res.criterion,
        "value": float(res.value),
        "fit_term": float(res.fit_term),
        "penalty": float(res.penalty),
    }


@dataclass
class ToolScores:
    """Scores and selections of one tool set over one dataset's four fits."""

    scores: dict[str, dict[str, float]]  # tool value -> model value -> score
    selected: dict[str, str]  # tool value -> model value, "" if undefined
    tie: dict[str, bool]
    tool_errors: dict[str, str]  # "tool/model" -> message
    marglik_rows: list[dict]
    criteria_rows: list[dict]


def score_tools(
    data: CaptureDataset,
    chains: Mapping[ModelId, Chain],
    tools: Sequence[ToolId],
    grid_resolution: float | None = None,
) -> ToolScores:
    """Score every requested tool on the four fitted chains and select.

    Shared work (posterior-mode refinement, the integrated-likelihood sweep)
    is computed once per model and reused across the tools that need it.  A
    failure inside one tool is recorded per (tool, model) and makes only that
    tool's selection undefined; the other tools are unaffected.
    """
    tools = tuple(tools)
    missing = [m.value for m in MODEL_ORDER if m not in chains]
    if missing:
        raise ValueError(f"chains missing for models: {missing}")
    families = {t.family for t in tools}
    need_map = bool(families & {"gd_map", "dic"})
    need_il = "gd_il" in families

    maps: dict[ModelId, MapEstimate] = {}
    ils: dict[ModelId, np.ndarray] = {}
    shared_errors: dict[ModelId, dict[str, str]] = {m: {} for m in MODEL_ORDER}
    for model in MODEL_ORDER:
        if need_map:
            try:
                maps[model] = map_refine(chains[model], data)
            except Exception as exc:
                shared_errors[model]["map"] = f"mode refinement: {exc}"
        if need_il:
            try:
                ils[model] = integrated_loglik_draws(
                    chains[model], data, grid_resolution
                )
            except Exception as exc:
                shared_errors[model]["il"] = f"integrated likelihood: {exc}"

    scores: dict[str, dict[str, float]] = {t.value: {} for t in tools}
    tool_errors: dict[str, str] = {}
    marglik_rows: list[dict] = []
    criteria_rows: list[dict] = []

    def record_error(tool: ToolId, model: ModelId, message: str) -> None:
        tool_errors[f"{tool.value}/{model.value}"] = message
        scores[tool.value][model.value] = math.nan

    for model in MODEL_ORDER:
        chain = chains[model]
        for tool in tools:
            fam = tool.family
            try:
                if fam == "hm":
                    est = harmonic_mean(chain)
                    marglik_rows.append(_marglik_row(model, est))
                    value = est.value
                elif fam == "gd_map":
                    if "map" in shared_errors[model]:
                        raise RuntimeError(shared_errors[model]["map"])
                    est = gd_map(chain, data, tool.tuning, map_estimate=maps[model])
                    marglik_rows.append(_marglik_row(model, est))
                    value = est.value
                elif fam == "gd_il":
                    if "il" in shared_errors[model]:
                        raise RuntimeError(shared_errors[model]["il"])
                    est = gd_il(
                        chain,
                        data,
                        tool.tuning,
                        resolution=grid_resolution,
                        il_values=ils[model],
                    )
                    marglik_rows.append(_marglik_row(model, est))
                    value = est.value
                elif fam == "dic":
                    if "map" in shared_errors[model]:
                        raise RuntimeError(shared_errors[model]["map"])
                    res = dic(chain, maps[model], int(tool.value[-1]))
                    criteria_rows.append(_criterion_row(model, res))
                    value = res.value
                elif fam == "waic":
                    res = waic(chain, int(tool.value[-1]))
                    criteria_rows.append(_criterion_row(model, res))
                    value = res.value
                else:  # ppl
                    res = posterior_predictive_loss(chain, data)
                    criteria_rows.append(_criterion_row(model, res))
                    value = res.value
            except Exception as exc:
                record_error(tool, model, str(exc))
            else:
                scores[tool.value][model.value] = float(value)

    selected: dict[str, str] = {}
    ties: dict[str, bool] = {}
    for tool in tools:
        per_model = scores[tool.value]
        if any(math.isnan(v) for v in per_model.values()):
            selected[tool.value] = ""
            ties[tool.value] = False
            continue
        winner, tie = select_model(
            {m: per_model[m.value] for m in MODEL_ORDER}, tool.higher_is_better
        )
        selected[tool.value] = winner.value
        ties[tool.value] = tie

    return ToolScores(
        scores=scores,
        selected=selected,
        tie=ties,
        tool_errors=tool_errors,
        marglik_rows=marglik_rows,
        criteria_rows=criteria_rows,
    )


def evaluate_cell(config: StudyConfig, scenario: Scenario, replicate: int) -> CellResult:
    """Simulate one dataset, fit all four models, and score every tool.

    A failed model fit marks the whole cell failed (every tool needs all
    four fits); a failure inside a single tool is recorded per (tool, model)
    and only that tool's selection becomes undefined.
    """
    t0 = time.perf_counter()
    master = config.master_seed
    sid = scenario.scenario_id
    ds_seed = derive_seed(master, "dataset", sid, replicate)
    data, truth = simulate_dataset(scenario, config.design, ds_seed, config.sex_obs)

    chains: dict[ModelId, Chain] = {}
    for model in MODEL_ORDER:
        chain_seed = derive_seed(master, "chain", sid, replicate, model.value)
        mcfg = dataclasses.replace(config.mcmc, seed=chain_seed)
        try:
            chains[model] = thin_chain(fit(model, data, mcfg), config.thin)
        except Exception as exc:  # any fit failure leaves the cell incomplete
            return _failed_cell(
                scenario, replicate, ds_seed, f"fit {model.value}: {exc}", t0
            )

    tool_scores = score_tools(data, chains, config.tools, grid_resolution=config.grid_resolution)

    mse: dict[str, dict[str, float]] = {}
    summaries: dict[str, dict[str, list[float]]] = {}
    corr_rows: list[dict] = []
    for model in MODEL_ORDER:
        chain = chains[model]
        mse[model.value] = {
            name: float(np.mean((_estimand_draws(chain, name) - _truth_value(truth, name)) ** 2))
            for name, models in _RMSE_MODELS.items()
            if model in models
        }
        summaries[model.value] = {}
        names = ("N",) + active_param_names(model)
        for name in names:
            draws = _estimand_draws(chain, name)
            summaries[model.value][name] = [float(draws.mean()), float(draws.std())]
        corr = correlation_matrix(chain, names)
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                corr_rows.append(
                    {
                        "model": model.value,
                        "param_a": names[i],
                        "param_b": names[j],
                        "corr": float(corr[i, j]),
                    }
                )

    return CellResult(
        scenario_id=sid,
        replicate=replicate,
        status="ok",
        message="",
        dataset_seed=ds_seed,
        truth={
            "psi_true": float(truth.psi_true),
            "theta_true": float(truth.theta_true),
            "n_true": float(truth.n_individuals),
            "n_male_true": float(truth.n_male),
        },
        scores=tool_scores.scores,
        selected=tool_scores.selected,
        tie=tool_scores.tie,
        tool_errors=tool_scores.tool_errors,
        marglik_rows=tool_scores.marglik_rows,
        criteria_rows=tool_scores.criteria_rows,
        mse=mse,
        summaries=summaries,
        corr_rows=corr_rows,
        wall_time_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Study driver with per-cell checkpoints
# ---------------------------------------------------------------------------


@dataclass
class StudyResults:
    """Aggregated cell results in scenario-major, replicate-minor order."""

    fingerprint: str
    scenario_ids: list[str]
    n_sim: int
    tools: tuple[ToolId, ...]
    cells: list[CellResult] = field(default_factory=list)

    @property
    def failures(self) -> list[tuple[str, int, str]]:
        return [(c.scenario_id, c.replicate, c.message) for c in self.cells if not c.ok]

    def complete_cells(self, scenario_id: str | None = None) -> list[CellResult]:
        return [
            c
            for c in self.cells
            if c.ok and (scenario_id is None or c.scenario_id == scenario_id)
        ]


def _checkpoint_path(out_dir: Path, scenario_id: str, replicate: int) -> Path:
    return out_dir / "checkpoints" / f"cell_{scenario_id}_{replicate}.json"


def _load_checkpoint(path: Path, fingerprint: str) -> CellResult:
    record = json.loads(path.read_text())
    if record.get("fingerprint") != fingerprint:
        raise DataError(
            f"checkpoint {path} was produced under a different study "
            "configuration; use a fresh output directory or delete it"
        )
    return CellResult.from_json(record["cell"])


def _write_checkpoint(path: Path, fingerprint: str, cell: CellResult) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"fingerprint": fingerprint, "cell": cell.to_json()}
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload))
    tmp.replace(path)


def _cell_worker(args) -> tuple[tuple[str, int], CellResult]:
    config, scenario, replicate = args
    return (scenario.scenario_id, replicate), evaluate_cell(config, scenario, replicate)


def run_study(
    design: SurveyDesign,
    scenarios: Sequence[Scenario],
    n_sim: int,
    mcmc_config: McmcConfig,
    seed: int,
    out_dir=None,
    *,
    thin: int = 1,
    grid_resolution: float | None = None,
    sex_obs: str = "captured",
    tools: Sequence[ToolId] | None = None,
    workers: int = 1,
    progress=None,
) -> StudyResults:
    """Run (or resume) the full study and, given `out_dir`, emit its files.

    With an output directory every finished cell is checkpointed, already
    checkpointed cells are loaded instead of recomputed (after verifying the
    configuration fingerprint), and the five results CSVs plus a manifest
    are written at the end.  `workers` > 1 evaluates cells in a process
    pool and checkpoints each as it finishes; results are identical to a
    sequential run because every cell is independently seeded.  If a worker
    fails (say, a killed process breaks the pool), the cells that finished
    are checkpointed and the first error is raised, so a rerun resumes.
    """
    t0 = time.perf_counter()
    config = StudyConfig(
        design=design,
        scenarios=tuple(scenarios),
        n_sim=n_sim,
        mcmc=mcmc_config,
        master_seed=seed,
        thin=thin,
        grid_resolution=grid_resolution,
        sex_obs=sex_obs,
        tools=tuple(tools) if tools is not None else tuple(ToolId),
    )
    fingerprint = config.fingerprint()
    keys = [(sc, rep) for sc in config.scenarios for rep in range(n_sim)]

    done: dict[tuple[str, int], CellResult] = {}
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for sc, rep in keys:
            path = _checkpoint_path(out_dir, sc.scenario_id, rep)
            if path.exists():
                done[(sc.scenario_id, rep)] = _load_checkpoint(path, fingerprint)

    pending = [(sc, rep) for sc, rep in keys if (sc.scenario_id, rep) not in done]

    def finish(key: tuple[str, int], cell: CellResult) -> None:
        done[key] = cell
        if out_dir is not None:
            _write_checkpoint(_checkpoint_path(out_dir, *key), fingerprint, cell)
        if progress is not None:
            progress(cell)

    if workers > 1 and pending:
        first_error = None
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_cell_worker, (config, sc, rep)) for sc, rep in pending]
            for future in as_completed(futures):
                try:
                    key, cell = future.result()
                except Exception as exc:  # raised once every finished cell is kept
                    if first_error is None:
                        first_error = exc
                    continue
                finish(key, cell)
        if first_error is not None:
            raise first_error
    else:
        for sc, rep in pending:
            finish((sc.scenario_id, rep), evaluate_cell(config, sc, rep))

    results = StudyResults(
        fingerprint=fingerprint,
        scenario_ids=[sc.scenario_id for sc in config.scenarios],
        n_sim=n_sim,
        tools=config.tools,
        cells=[done[(sc.scenario_id, rep)] for sc, rep in keys],
    )
    if out_dir is not None:
        outputs = write_results_csvs(results, out_dir)
        write_manifest(
            out_dir,
            subcommand="study",
            seed=seed,
            config_text=config.fingerprint_text(),
            outputs=outputs,
            wall_time_s=time.perf_counter() - t0,
            status="ok" if not results.failures else "incomplete",
            extra={
                "failures": [
                    {"scenario": s, "replicate": r, "message": m}
                    for s, r, m in results.failures
                ],
                "n_cells": len(results.cells),
                "n_complete": len(results.complete_cells()),
            },
        )
    return results


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def selection_proportions(results: StudyResults, tool: ToolId) -> list[dict]:
    """Empirical model-choice frequencies per scenario for one tool.

    Cells that failed, or where this tool's selection is undefined, are
    excluded; the denominator actually used is reported in the ``n`` column.
    """
    rows = []
    for sid in results.scenario_ids:
        picks = [
            c.selected.get(tool.value, "")
            for c in results.complete_cells(sid)
            if c.selected.get(tool.value, "")
        ]
        if not picks:
            raise ValueError(
                f"no completed replicate has a defined {tool.value} selection "
                f"in scenario {sid}"
            )
        row = {"scenario": sid, "n": len(picks)}
        for model in MODEL_ORDER:
            row[model.value] = picks.count(model.value) / len(picks)
        rows.append(row)
    return rows


def average_rmse(
    results: StudyResults, scenario_id: str, model: ModelId, parameter: str
) -> float | None:
    """Square root of the replicate-mean posterior MSE against the truth.

    Returns None when the estimand has no true value under `model` (the
    not-applicable marker).  Raises when no completed replicates exist.
    """
    if parameter not in _RMSE_MODELS:
        raise ValueError(f"unknown estimand {parameter!r}; choose from {RMSE_PARAMETERS}")
    if ModelId(model) not in _RMSE_MODELS[parameter]:
        return None
    cells = results.complete_cells(scenario_id)
    if not cells:
        raise ValueError(f"no completed replicates in scenario {scenario_id}")
    values = [c.mse[ModelId(model).value][parameter] for c in cells]
    return math.sqrt(math.fsum(values) / len(values))


def write_results_csvs(results: StudyResults, out_dir) -> list[str]:
    """Write the five results tables; returns the file names written.

    Rows follow the fixed (scenario, replicate, model, tool) order, and all
    floats are written losslessly, so reruns with the same seed produce
    byte-identical files.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tool_values = [t.value for t in results.tools]

    sel_rows = []
    for cell in results.cells:
        if not cell.ok:
            continue
        for tool in tool_values:
            per_model = cell.scores.get(tool, {})
            row = [cell.scenario_id, cell.replicate, tool]
            for model in MODEL_ORDER:
                v = per_model.get(model.value, math.nan)
                row.append("NA" if math.isnan(v) else float(v))
            row.append(cell.selected.get(tool, "") or "NA")
            row.append(int(cell.tie.get(tool, False)))
            sel_rows.append(row)
    write_csv(
        out_dir / "selections.csv",
        "selections",
        ["scenario", "replicate", "tool"]
        + [f"score_{m.value}" for m in MODEL_ORDER]
        + ["selected", "tie"],
        sel_rows,
    )

    rmse_rows = []
    for sid in results.scenario_ids:
        have = bool(results.complete_cells(sid))
        for model in MODEL_ORDER:
            for name in RMSE_PARAMETERS:
                if not have:
                    value, n_used = "NA", 0
                else:
                    rmse = average_rmse(results, sid, model, name)
                    value = "NA" if rmse is None else float(rmse)
                    n_used = len(results.complete_cells(sid))
                rmse_rows.append([sid, model.value, name, value, n_used])
    write_csv(
        out_dir / "rmse.csv",
        "rmse",
        ["scenario", "model", "parameter", "avg_rmse", "n_replicates"],
        rmse_rows,
    )

    corr_rows = []
    for cell in results.cells:
        if not cell.ok:
            continue
        for row in cell.corr_rows:
            corr_rows.append(
                [
                    cell.scenario_id,
                    cell.replicate,
                    row["model"],
                    row["param_a"],
                    row["param_b"],
                    float(row["corr"]),
                ]
            )
    write_csv(
        out_dir / "correlations.csv",
        "correlations",
        ["scenario", "replicate", "model", "param_a", "param_b", "corr"],
        corr_rows,
    )

    marglik_rows = []
    for cell in results.cells:
        if not cell.ok:
            continue
        for row in cell.marglik_rows:
            marglik_rows.append(
                [
                    cell.scenario_id,
                    cell.replicate,
                    row["model"],
                    row["method"],
                    row["tuning"],
                    float(row["value"]),
                    float(row["mc_se"]),
                    row["n_draws"],
                    row["n_dropped"],
                    int(row["unreliable"]),
                ]
            )
    write_csv(
        out_dir / "marglik.csv",
        "marglik",
        [
            "scenario",
            "replicate",
            "model",
            "method",
            "tuning",
            "value",
            "mc_se",
            "n_draws",
            "n_dropped",
            "unreliable",
        ],
        marglik_rows,
    )

    criteria_rows = []
    for cell in results.cells:
        if not cell.ok:
            continue
        for row in cell.criteria_rows:
            criteria_rows.append(
                [
                    cell.scenario_id,
                    cell.replicate,
                    row["model"],
                    row["criterion"],
                    float(row["value"]),
                    float(row["fit_term"]),
                    float(row["penalty"]),
                ]
            )
    write_csv(
        out_dir / "criteria.csv",
        "criteria",
        ["scenario", "replicate", "model", "criterion", "value", "fit_term", "penalty"],
        criteria_rows,
    )

    return ["selections.csv", "rmse.csv", "correlations.csv", "marglik.csv", "criteria.csv"]
