"""Checks of the package's outputs against computations made apart from it.

Every reference here is written from the model and method definitions with
plain NumPy/SciPy, sharing no code with ``secrsel`` beyond reading its
public data classes.  A failed check raises `CheckFailed` with the check's
name, which stops the benchmark run.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import logsumexp, xlogy

#: Fewest parameters first: ties go to the earliest entry.
SIMPLER_FIRST = ("M4", "M3", "M2", "M1")
_SEX_MODELS = ("M1", "M2")
_ENTRY_MODELS = ("M1", "M3")
_CHAIN_ARRAYS = ("z", "u", "s", "perm", "loglik", "logprior", "perind")


class CheckFailed(Exception):
    """An output of the package disagrees with the benchmark's reference."""


def require(ok, check: str, detail: str) -> None:
    if not ok:
        raise CheckFailed(f"{check}: {detail}")


def _close(a: float, b: float, rel: float = 1e-9, abs_: float = 1e-9) -> bool:
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# Selection, harmonic mean, DIC, WAIC
# ---------------------------------------------------------------------------


def reference_selection(scores: dict[str, float], higher_is_better: bool) -> tuple[str, bool]:
    """Winner of one tool's four scores and whether another model tied it."""
    best, best_v = None, None
    for model in SIMPLER_FIRST:
        v = scores[model]
        if best is None or (v > best_v if higher_is_better else v < best_v):
            best, best_v = model, v
    return best, any(scores[m] == best_v for m in SIMPLER_FIRST if m != best)


def check_selections(cell) -> None:
    """Each tool's pick is the argmax (marginal tools) or argmin (criteria)."""
    for tool, per_model in cell.scores.items():
        if any(math.isnan(v) for v in per_model.values()):
            require(cell.selected[tool] == "", "selection", f"{tool} picked from NaN scores")
            continue
        higher = tool.startswith(("gd_map_", "gd_il_")) or tool == "hm"
        want, tie = reference_selection(per_model, higher)
        require(
            (cell.selected[tool], cell.tie[tool]) == (want, tie),
            "selection",
            f"{tool}: package picked {cell.selected[tool]} (tie {cell.tie[tool]}), "
            f"reference {want} (tie {tie}) from {per_model}",
        )


def reference_harmonic_mean(loglik: np.ndarray) -> float:
    """log of the inverse posterior mean of 1/likelihood."""
    x = -np.asarray(loglik, dtype=float)
    return math.log(x.size) - float(logsumexp(x))


def reference_dic(loglik: np.ndarray, fit_term: float, variant: int) -> float:
    """DIC from the mode deviance `fit_term` = -2 loglik(mode)."""
    if variant == 1:
        p = 2.0 * (-fit_term / 2.0 - float(np.mean(loglik)))
    else:
        p = 2.0 * float(np.var(loglik))
    return fit_term + 2.0 * p


def reference_waic(perind: np.ndarray, variant: int) -> tuple[float, float]:
    """(value, penalty) of WAIC from the (draws, individuals) log-likelihoods."""
    n = perind.shape[0]
    lme = logsumexp(perind, axis=0) - math.log(n)
    mean = perind.mean(axis=0)
    if variant == 1:
        p = 2.0 * float(np.sum(lme - mean))
    elif variant == 2:
        p = float(np.sum(perind.var(axis=0)))
    else:
        p = 2.0 * float(np.sum(np.mean(np.abs(perind - mean), axis=0)))
    fit = -2.0 * float(np.sum(lme))
    return fit + 2.0 * p, 2.0 * p


def check_marglik_and_criteria(cell, chains: dict) -> None:
    """HM, DIC2 (and DIC1 from its mode) and WAIC1-3 against the reference."""
    for row in cell.marglik_rows:
        if row["method"] == "HM":
            want = reference_harmonic_mean(chains[row["model"]].loglik)
            require(_close(row["value"], want), "hm", f"{row['model']}: {row['value']!r} vs {want!r}")
    by_key = {(r["model"], r["criterion"]): r for r in cell.criteria_rows}
    for (model, crit), row in by_key.items():
        chain = chains[model]
        if crit.startswith("DIC"):
            want = reference_dic(chain.loglik, row["fit_term"], int(crit[-1]))
            require(_close(row["value"], want), "dic", f"{model} {crit}: {row['value']!r} vs {want!r}")
            other = by_key.get((model, "DIC1" if crit == "DIC2" else "DIC2"))
            if other is not None:
                require(row["fit_term"] == other["fit_term"], "dic", f"{model}: DIC1/DIC2 modes differ")
        elif crit.startswith("WAIC"):
            want, penalty = reference_waic(chain.perind, int(crit[-1]))
            require(_close(row["value"], want), "waic", f"{model} {crit}: {row['value']!r} vs {want!r}")
            require(_close(row["penalty"], penalty), "waic", f"{model} {crit} penalty")
            require(row["penalty"] >= -1e-9, "waic", f"{model} {crit} penalty {row['penalty']!r} < 0")


# ---------------------------------------------------------------------------
# Posterior predictive loss
# ---------------------------------------------------------------------------


def _cell_probabilities(chain, data, lo: int, hi: int) -> np.ndarray:
    """Per-draw probability that an individual is recorded by one detector at
    a trap on one occasion, (draws, M, J): z * omega0 * kernel * phi under
    trap entry, z * p0 * kernel under direct detection."""
    model = chain.model.value
    traps = np.asarray(data.traps.locations, dtype=float)
    s = chain.s[lo:hi]
    d2 = ((s[:, :, None, :] - traps[None, None, :, :]) ** 2).sum(axis=-1)
    if model in _SEX_MODELS:
        sig = np.where(
            chain.u[lo:hi] == 1, chain.params["sigma_m"][lo:hi, None], chain.params["sigma_f"][lo:hi, None]
        )
    else:
        sig = np.broadcast_to(chain.params["sigma"][lo:hi, None], s.shape[:2])
    kern = np.exp(-d2 / (2.0 * sig[:, :, None] ** 2))
    if model in _ENTRY_MODELS:
        base = (chain.params["omega0"][lo:hi] * chain.params["phi"][lo:hi])[:, None, None]
    else:
        base = chain.params["p0"][lo:hi][:, None, None]
    return base * kern * chain.z[lo:hi, :, None]


def reference_ppl(chain, data, chunk: int = 16) -> tuple[float, float]:
    """Exact D-infinity and a standard-error bound for one replicate per draw.

    D = sum over both lists' cells of (y - mu)^2 + mu (1 - mu), with mu the
    posterior mean cell probability (detector 2 routed through `perm`).  The
    simulated loss is linear in each cell's replicate mean, so it is unbiased
    for D; its variance given the draws is at most
    4 K sum_d sum_ij p (1 - p) / n^2 (the two lists may covary).
    """
    n = chain.n_draws
    m, j, k = data.y1.shape
    mu1 = np.zeros((m, j))
    mu2 = np.zeros((m, j))
    var = 0.0
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        p = _cell_probabilities(chain, data, lo, hi)
        mu1 += p.sum(axis=0)
        owner = chain.perm[lo:hi].astype(np.int64)
        mu2 += np.take_along_axis(p, owner[:, :, None], axis=1).sum(axis=0)
        var += float((p * (1.0 - p)).sum())
    mu1 /= n
    mu2 /= n
    c1 = data.y1.sum(axis=2, dtype=np.int64)
    c2 = data.y2.sum(axis=2, dtype=np.int64)
    total = float(np.sum(c1 - 2.0 * c1 * mu1 + k * mu1) + np.sum(c2 - 2.0 * c2 * mu2 + k * mu2))
    return total, math.sqrt(4.0 * k * var) / n


def check_ppl(cell, chains: dict, data, n_se: float = 6.0) -> None:
    for row in cell.criteria_rows:
        if row["criterion"] != "PPL":
            continue
        want, se = reference_ppl(chains[row["model"]], data)
        require(
            abs(row["value"] - want) <= n_se * se + 1e-9 * abs(want),
            "ppl",
            f"{row['model']}: {row['value']!r} is {abs(row['value'] - want) / max(se, 1e-300):.1f} "
            f"standard errors from the exact D {want!r} (se {se:.3g})",
        )


# ---------------------------------------------------------------------------
# Likelihood and support of the draws
# ---------------------------------------------------------------------------


def reference_loglik(model: str, data, params: dict, z, u, s, perm) -> float:
    """Joint log-density of both capture lists, occasion by occasion.

    Trap entry: on each occasion the outcome pair (detector 1, detector 2) at
    a trap has probability 1 - eta + eta (1-phi)^2 for (0, 0), eta phi (1-phi)
    for each single record and eta phi^2 for both.  Direct detection: the two
    detectors are independent Bernoulli(p) trials.  Included individuals add
    their sex's Bernoulli(theta) term under sex models.
    """
    n_full = data.n_full
    perm = np.asarray(perm, dtype=np.int64)
    if np.any(perm[:n_full] != np.arange(n_full)):
        return -math.inf
    y1 = data.y1.astype(bool)
    y2 = np.empty_like(y1)
    y2[perm] = data.y2.astype(bool)
    captured = (y1 | y2).any(axis=(1, 2))
    if np.any(captured & (np.asarray(z) == 0)):
        return -math.inf
    on = np.asarray(z) == 1
    k = y1.shape[2]
    traps = np.asarray(data.traps.locations, dtype=float)
    d2 = ((np.asarray(s)[on, None, :] - traps[None, :, :]) ** 2).sum(axis=-1)
    if model in _SEX_MODELS:
        sig = np.where(np.asarray(u)[on] == 1, params["sigma_m"], params["sigma_f"])
    else:
        sig = np.full(int(on.sum()), params["sigma"])
    kern = np.exp(-d2 / (2.0 * sig[:, None] ** 2))
    a, b = y1[on], y2[on]
    if model in _ENTRY_MODELS:
        phi = params["phi"]
        eta = params["omega0"] * kern
        n11 = (a & b).sum(axis=2)
        n_one = (a ^ b).sum(axis=2)
        n00 = k - n11 - n_one
        ll = (
            xlogy(n00, 1.0 - eta + eta * (1.0 - phi) ** 2)
            + xlogy(n_one, eta * phi * (1.0 - phi))
            + xlogy(n11, eta * phi * phi)
        ).sum()
    else:
        p = params["p0"] * kern
        c = a.sum(axis=2) + b.sum(axis=2)
        ll = (xlogy(c, p) + xlogy(2 * k - c, 1.0 - p)).sum()
    if model in _SEX_MODELS:
        uo = np.asarray(u)[on]
        ll += float((xlogy(uo, params["theta"]) + xlogy(1 - uo, 1.0 - params["theta"])).sum())
    return float(ll)


def check_chain(chain, data, sigma_upper: float, n_loglik: int = 3) -> None:
    """Support, pinned links, captured rows included, cached likelihoods."""
    model = chain.model.value
    n, m = chain.z.shape
    require(n > 0, "support", f"{model}: empty chain")
    for name, v in chain.params.items():
        upper = sigma_upper if name.startswith("sigma") else 1.0
        require(np.all((v > 0) & (v < upper)), "support", f"{model}: {name} outside (0, {upper})")
    require(np.isin(chain.z, (0, 1)).all() and np.isin(chain.u, (0, 1)).all(), "support", f"{model}: z/u not 0/1")
    perm = chain.perm.astype(np.int64)
    require((np.sort(perm, axis=1) == np.arange(m)).all(), "support", f"{model}: perm not a permutation")
    require(
        (perm[:, : data.n_full] == np.arange(data.n_full)).all(),
        "support",
        f"{model}: perm unpins a fully identified row",
    )
    a_any = data.y1.any(axis=(1, 2))
    b_nonzero = np.flatnonzero(data.y2.any(axis=(1, 2)))
    require((chain.z[:, a_any] == 1).all(), "support", f"{model}: a detector-1 captured row has z = 0")
    owners = np.take_along_axis(chain.z, perm[:, b_nonzero], axis=1)
    require((owners == 1).all(), "support", f"{model}: the owner of a detector-2 record has z = 0")
    sp = data.statespace
    inside = (
        (chain.s[..., 0] >= sp.x_min) & (chain.s[..., 0] <= sp.x_max)
        & (chain.s[..., 1] >= sp.y_min) & (chain.s[..., 1] <= sp.y_max)
    )
    require(inside.all(), "support", f"{model}: activity centre outside the state space")
    require(np.isfinite(chain.loglik).all(), "support", f"{model}: non-finite loglik")
    require(
        np.allclose(chain.loglik, chain.perind.sum(axis=1), rtol=1e-12, atol=1e-9),
        "loglik_sum",
        f"{model}: loglik differs from perind summed over individuals",
    )
    for d in np.unique(np.linspace(0, n - 1, n_loglik).astype(int)):
        params = {k: float(v[d]) for k, v in chain.params.items()}
        want = reference_loglik(model, data, params, chain.z[d], chain.u[d], chain.s[d], chain.perm[d])
        require(
            _close(float(chain.loglik[d]), want, rel=1e-9, abs_=1e-7),
            "loglik",
            f"{model} draw {d}: cached {chain.loglik[d]!r}, reference {want!r}",
        )
    for block in ("s", "perm"):
        require(0.0 <= chain.accept.get(block, 0.0) <= 1.0, "support", f"{model}: accept {block} outside [0, 1]")


def check_round_trip(chain, loaded) -> None:
    """Every array and header field survives save_chain -> load_chain bit for bit."""
    model = chain.model.value
    same = lambda x, y: x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
    for name in _CHAIN_ARRAYS:
        require(same(getattr(chain, name), getattr(loaded, name)), "round_trip", f"{model}: {name} changed")
    require(chain.params.keys() == loaded.params.keys(), "round_trip", f"{model}: parameter names changed")
    for name, v in chain.params.items():
        require(same(v, loaded.params[name]), "round_trip", f"{model}: {name} changed")
    for attr in ("model", "prior", "seed", "n_iter", "burn_in", "accept"):
        require(getattr(chain, attr) == getattr(loaded, attr), "round_trip", f"{model}: {attr} changed")


def check_correlations(cell, chains: dict) -> None:
    """Correlations lie in [-1, 1]; NaN only where a sequence is constant."""
    for row in cell.corr_rows:
        r = row["corr"]
        if math.isnan(r):
            chain = chains[row["model"]]
            flat = [
                np.ptp(chain.z.sum(axis=1) if p == "N" else chain.params[p]) == 0
                for p in (row["param_a"], row["param_b"])
            ]
            require(any(flat), "correlation", f"{row}: NaN between two varying sequences")
        else:
            require(-1.0 <= r <= 1.0, "correlation", f"{row} outside [-1, 1]")


def check_cell(cell, chains: dict, data) -> None:
    """All scorer checks on one evaluated cell."""
    check_selections(cell)
    check_marglik_and_criteria(cell, chains)
    check_ppl(cell, chains, data)
    check_correlations(cell, chains)
