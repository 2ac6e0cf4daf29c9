"""Per-layer metrics of a traced run.

Each public function is wrapped at the module attribute through which its
caller reaches it (``secrsel.study.fit``, ``secrsel.io.save_chain`` and so
on).  A wrapper that never fires leaves its metrics absent rather than zero,
and the run then stops without a result.
"""

from __future__ import annotations

import statistics

import checks
from secrsel import io, study
from secrsel.model import ModelId
from spans import Tracer

MODELS = ("M1", "M2", "M3", "M4")


def _fit(args, kwargs, chain):
    return args[2].n_iter, {
        "model": ModelId(args[0]).value,
        "accept_s": chain.accept.get("s"),
        "accept_perm": chain.accept.get("perm"),
    }


def _per_chain(args, kwargs, result):
    chain = args[0]
    attrs = {"model": chain.model.value}
    for key in ("n_rounds", "n_dropped"):
        if hasattr(result, key):
            attrs[key] = getattr(result, key)
    return chain.n_draws, attrs


def install(tracer: Tracer) -> None:
    """Route every layer boundary the workloads cross through `tracer`."""
    w = tracer.wrap
    w(study, "run_study", "study.run_study")
    w(study, "evaluate_cell", "study.evaluate_cell")
    w(study, "simulate_dataset", "simulate.simulate_dataset")
    w(study, "fit", "mcmc.fit", _fit)
    w(study, "score_tools", "study.score_tools",
      lambda a, k, r: (sum(c.n_draws for c in a[1].values()), {}))
    for name in ("map_refine", "integrated_loglik_draws", "gd_map", "gd_il", "harmonic_mean"):
        w(study, name, f"marglik.{name}", _per_chain)
    for name in ("dic", "waic", "posterior_predictive_loss"):
        w(study, name, f"criteria.{name}", _per_chain)
    w(study, "write_results_csvs", "io.write_results_csvs")
    w(io, "save_chain", "io.save_chain", lambda a, k, r: (a[1].n_draws, {}))
    w(io, "load_chain", "io.load_chain", lambda a, k, r: (r.n_draws, {}))


def check_self_times(tracer: Tracer) -> None:
    """In every traced cell the self times of its subtree add up to its span."""
    own = tracer.self_times()
    children: dict[int, list[int]] = {}
    for s in tracer.spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s.span_id)
    for cell in tracer.named("study.evaluate_cell"):
        total, stack = 0.0, [cell.span_id]
        while stack:
            sid = stack.pop()
            checks.require(own[sid] >= -1e-6, "trace", f"span {sid} has negative self time")
            total += own[sid]
            stack.extend(children.get(sid, ()))
        checks.require(
            abs(total - cell.duration) <= 1e-6 * max(1.0, cell.duration),
            "trace",
            f"self times {total!r} do not account for the cell span {cell.duration!r}",
        )


def metrics(tracer: Tracer, n_rounds: int) -> dict[str, dict]:
    """Per-layer metrics over every round of the run; absent when never fired."""
    out: dict[str, dict] = {}
    own = tracer.self_times()

    def put(name: str, value, unit: str) -> None:
        if value is not None:
            out[name] = {"value": float(value), "unit": unit}

    def ms_per_unit(spans) -> float | None:
        work = sum(s.count for s in spans)
        return 1e3 * sum(s.duration for s in spans) / work if spans and work else None

    def median(values) -> float | None:
        return statistics.median(values) if values else None

    put("simulate.simulate_dataset_ms", median([1e3 * s.duration for s in tracer.named("simulate.simulate_dataset")]), "ms")
    for m in MODELS:
        fits = tracer.named("mcmc.fit", model=m)
        put(f"mcmc.fit_ms_per_iter.{m}", ms_per_unit(fits), "ms")
        if fits:
            put(f"mcmc.accept.s.{m}", fits[0].attrs["accept_s"], "ratio")
            put(f"mcmc.accept.perm.{m}", fits[0].attrs["accept_perm"], "ratio")
        refine = tracer.named("marglik.map_refine", model=m)
        put(f"marglik.map_refine_ms_per_draw.{m}", ms_per_unit(refine), "ms")
        if refine:
            put(f"marglik.map_refine_rounds.{m}", refine[0].attrs["n_rounds"], "count")
        put(f"marglik.integrated_loglik_draws_ms_per_draw.{m}",
            ms_per_unit(tracer.named("marglik.integrated_loglik_draws", model=m)), "ms")
        put(f"criteria.posterior_predictive_loss_ms_per_draw.{m}",
            ms_per_unit(tracer.named("criteria.posterior_predictive_loss", model=m)), "ms")
    put("marglik.gd_map_ms_per_draw", ms_per_unit(tracer.named("marglik.gd_map")), "ms")
    put("marglik.gd_il_ms_per_draw", ms_per_unit(tracer.named("marglik.gd_il")), "ms")
    hm = tracer.named("marglik.harmonic_mean")
    put("marglik.harmonic_mean_ms", median([1e3 * s.duration for s in hm]), "ms")
    estimates = tracer.named("marglik.gd_map") + tracer.named("marglik.gd_il") + hm
    if estimates:
        put("marglik.n_dropped", sum(s.attrs["n_dropped"] for s in estimates) / n_rounds, "count")
    put("criteria.dic_ms", median([1e3 * s.duration for s in tracer.named("criteria.dic")]), "ms")
    put("criteria.waic_ms", median([1e3 * s.duration for s in tracer.named("criteria.waic")]), "ms")
    scoring = tracer.named("study.score_tools")
    put("study.score_tools_s", median([s.duration for s in scoring]), "s")
    put("study.evaluate_cell_self_s", median([own[s.span_id] for s in tracer.named("study.evaluate_cell")]), "s")
    put("study.run_study_self_s", median([own[s.span_id] for s in tracer.named("study.run_study")]), "s")
    put("io.save_chain_ms_per_draw", ms_per_unit(tracer.named("io.save_chain")), "ms")
    put("io.load_chain_ms_per_draw", ms_per_unit(tracer.named("io.load_chain")), "ms")
    put("io.write_results_csvs_ms", median([1e3 * s.duration for s in tracer.named("io.write_results_csvs")]), "ms")
    fits = tracer.named("mcmc.fit")
    if fits:
        put("mcmc.iterations", sum(s.count for s in fits) / n_rounds, "count")
    if scoring:
        put("study.draws_scored", sum(s.count for s in scoring) / n_rounds, "count")
    return out
