"""Marginal-likelihood estimation for the fitted models.

Three estimator families share one numerical core:

* ``harmonic_mean`` -- reciprocal of the posterior mean of 1/likelihood.
* ``gd_map`` -- generalized harmonic mean (reciprocal importance sampling)
  with a tuning density fitted over the transformed scalar parameters and
  every latent variable pinned at a refined posterior-mode estimate.
* ``gd_il`` -- the same construction, but with inclusion flags, sexes, and
  activity centres integrated out of the likelihood per individual (centres
  by a Riemann average over the state-space grid), so that only the
  detector-2 row assignment is carried along from each draw.

Every estimator is read-only over a chain, uses compensated summation (so
the estimate is invariant to the order of the draws), and reports a batch
-means Monte Carlo standard error.  A tuning density equal to the parameter
prior makes all tuning factor ratios cancel, and both GD estimators then
collapse onto the plain harmonic-mean code path, reproducing its output bit
for bit.  Detection terms, linked capture counts and the latent prior come
from `model` (`detection_loglik`, `CaptureDataset.counts`,
`_latent_log_prior`); only the integrated likelihood contracts the same
terms over its grid by a matrix product of its own.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import gammaln, logsumexp, xlogy
from scipy.stats import chi2

from .errors import NumericalError
from .mcmc import Chain
from .model import (
    _COMP_FLOOR,
    _check_permutation,
    _gaussian,
    _latent_log_prior,
    _log_jacobian_draws,
    _logit,
    _per_individual,
    _per_trap,
    _phi_terms,
    _sigma_rows,
    _scale_upper_bounds,
    CaptureDataset,
    LatentState,
    ModelId,
    ModelParams,
    detection_loglik,
    log_latent_prior,
    log_likelihood,
    log_prior,
    squared_distances,
)

#: Number of consecutive batches used for Monte Carlo standard errors.
N_BATCHES = 30

#: Fraction of dropped (non-finite summand) draws above which an estimate is
#: marked unreliable.
_DROP_LIMIT = 0.01

_T_DFS = (10, 100, 500, 1000, 10000)
_TRUNC_ALPHAS = (0.90, 0.95, 0.99)


# ---------------------------------------------------------------------------
# Tuning densities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TuningKind:
    """Which member of the tuning-density family to use.

    ``family`` is one of ``normal`` (multivariate normal), ``t``
    (multivariate t with ``df`` degrees of freedom; the sample covariance is
    used directly as the scale matrix), ``truncnorm`` (normal restricted to
    its central ``alpha``-probability ellipsoid and renormalized by alpha),
    or ``prior`` (the parameter prior itself, which is never fitted: the
    estimators special-case it, collapsing to the plain harmonic mean).
    """

    family: str
    df: int = 0
    alpha: float = 0.0

    def __post_init__(self):
        if self.family not in ("normal", "t", "truncnorm", "prior"):
            raise ValueError(f"unknown tuning family {self.family!r}")
        if self.family == "t" and self.df <= 0:
            raise ValueError("t tuning density requires a positive df")
        if self.family == "truncnorm" and not 0.0 < self.alpha < 1.0:
            raise ValueError("truncated-normal tuning requires alpha in (0, 1)")

    @property
    def label(self) -> str:
        if self.family == "t":
            return f"t{self.df}"
        if self.family == "truncnorm":
            return f"truncnorm{round(self.alpha * 100):02d}"
        return self.family


PRIOR_TUNING = TuningKind("prior")


def tuning_grid() -> tuple[TuningKind, ...]:
    """The nine tuning densities compared by the model-selection study."""
    return (
        (TuningKind("normal"),)
        + tuple(TuningKind("t", df=d) for d in _T_DFS)
        + tuple(TuningKind("truncnorm", alpha=a) for a in _TRUNC_ALPHAS)
    )


@dataclass(frozen=True)
class TuningDensity:
    """A fitted tuning density on the unconstrained parameter scale."""

    kind: TuningKind
    location: np.ndarray  # (p,)
    scale: np.ndarray  # (p, p), symmetric positive definite
    chol: np.ndarray  # lower Cholesky factor of `scale`
    half_logdet: float
    radius2: float  # squared Mahalanobis truncation radius (truncnorm only)

    @property
    def dimension(self) -> int:
        return self.location.shape[0]

    def log_density(self, x: np.ndarray) -> np.ndarray | float:
        """Log density at `x`, an (n, p) array of points or a single (p,) point."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = np.atleast_2d(x)
        if pts.shape[1] != self.dimension:
            raise ValueError(
                f"points have dimension {pts.shape[1]}, tuning density {self.dimension}"
            )
        dev = solve_triangular(self.chol, (pts - self.location).T, lower=True)
        d2 = np.einsum("ij,ij->j", dev, dev)
        p = self.dimension
        if self.kind.family == "t":
            nu = float(self.kind.df)
            out = (
                gammaln((nu + p) / 2.0)
                - gammaln(nu / 2.0)
                - 0.5 * p * math.log(nu * math.pi)
                - self.half_logdet
                - 0.5 * (nu + p) * np.log1p(d2 / nu)
            )
        else:
            out = -0.5 * (p * math.log(2.0 * math.pi) + d2) - self.half_logdet
            if self.kind.family == "truncnorm":
                out = np.where(d2 <= self.radius2, out - math.log(self.kind.alpha), -np.inf)
        return float(out[0]) if single else out


def fit_tuning(source, kind: TuningKind) -> TuningDensity:
    """Fit a tuning density by moment matching on the unconstrained scale.

    `source` is either a chain (whose active scalars are transformed first)
    or an (n, p) matrix of points already on the unconstrained scale.  The
    location is the sample mean and the scale matrix the sample covariance;
    a covariance too singular to factor is ridge-regularized with a warning.
    Requires at least p + 2 points.
    """
    if kind.family == "prior":
        raise ValueError("the prior tuning density is implicit and cannot be fitted")
    x = transformed_param_draws(source) if isinstance(source, Chain) else np.asarray(source, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"expected an (n, p) matrix of draws, got shape {x.shape}")
    n, p = x.shape
    if n < p + 2:
        raise ValueError(
            f"need at least {p + 2} draws to fit a {p}-dimensional tuning density, got {n}"
        )
    location = x.mean(axis=0)
    cov = np.atleast_2d(np.cov(x, rowvar=False, ddof=1))
    base = float(np.mean(np.diag(cov)))
    if not base > 0.0:
        base = 1.0
    scale = cov
    ridge = 0.0
    chol = None
    pivot_floor = math.sqrt(base) * 1e-7  # a smaller pivot means numerically singular
    for _ in range(12):
        try:
            candidate = np.linalg.cholesky(scale)
        except np.linalg.LinAlgError:
            candidate = None
        if candidate is not None and float(np.min(np.diag(candidate))) > pivot_floor:
            chol = candidate
            break
        ridge = base * 1e-10 if ridge == 0.0 else ridge * 100.0
        scale = cov + ridge * np.eye(p)
    if chol is None:
        raise NumericalError(
            f"sample covariance for the {kind.label} tuning density cannot be factored"
        )
    if ridge:
        warnings.warn(
            f"sample covariance for the {kind.label} tuning density is singular; "
            f"added ridge {ridge:.3e} to the diagonal",
            RuntimeWarning,
            stacklevel=2,
        )
    half_logdet = float(np.log(np.diag(chol)).sum())
    radius2 = float(chi2.ppf(kind.alpha, df=p)) if kind.family == "truncnorm" else math.inf
    return TuningDensity(kind, location, scale, chol, half_logdet, radius2)


def transformed_param_draws(chain: Chain) -> np.ndarray:
    """Active scalars of every draw mapped to the unconstrained scale, (n, p).

    Probabilities go through the logit; movement scales through
    logit(sigma / R) with R the prior upper bound.
    """
    return _logit(chain.param_matrix() / _scale_upper_bounds(chain.model, chain.prior))


# ---------------------------------------------------------------------------
# Estimator core
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LogMarginal:
    """A log marginal-likelihood estimate with its Monte Carlo uncertainty."""

    value: float
    method: str  # "GD-MAP" | "GD-IL" | "HM"
    tuning: str  # tuning-density label, or "none"
    mc_se: float
    n_draws: int  # draws entering the mean (zero contributions included)
    n_dropped: int  # draws discarded because their summand was not finite
    unreliable: bool  # more than 1% of the chain was dropped


def _log_sum_exp_exact(values: np.ndarray) -> float:
    """log(sum(exp(values))) with exactly rounded, order-independent summation."""
    if values.size == 0:
        return -math.inf
    hi = float(values.max())
    if hi == -math.inf:
        return -math.inf
    return hi + math.log(math.fsum(np.exp(values - hi)))


def marginal_from_log_ratios(log_ratios, method: str, tuning: str = "none") -> LogMarginal:
    """Turn per-draw log summands log(g / (f * prior)) into a marginal estimate.

    The estimate is ``log n - log sum(exp(ratios))``: the log of the inverse
    mean summand.  Ratios of -inf are valid zero contributions (a draw the
    tuning density does not cover) and stay in the divisor; non-finite
    summands (+inf or NaN ratios, i.e. zero denominators) are dropped with a
    warning, counted, and mark the result unreliable once they exceed 1% of
    the chain.  The Monte Carlo standard error comes from 30 consecutive
    batch means mapped to the relative scale.
    """
    ratios = np.asarray(log_ratios, dtype=float).ravel()
    total = ratios.size
    if total == 0:
        raise ValueError("cannot estimate a marginal likelihood from zero draws")
    bad = np.isnan(ratios) | np.isposinf(ratios)
    n_dropped = int(bad.sum())
    if n_dropped:
        warnings.warn(
            f"{method} ({tuning}): dropped {n_dropped} of {total} draws whose "
            "summand was not finite",
            RuntimeWarning,
            stacklevel=2,
        )
        ratios = ratios[~bad]
    n = ratios.size
    if n == 0 or np.isneginf(ratios).all():
        raise NumericalError(
            f"{method} with tuning density {tuning}: every summand is zero; "
            "the tuning density shares no support with the posterior draws"
        )
    log_mean = _log_sum_exp_exact(ratios) - math.log(n)
    n_batches = min(N_BATCHES, n)
    if n_batches >= 2:
        bounds = np.linspace(0, n, n_batches + 1).astype(int)
        devs = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            log_batch = _log_sum_exp_exact(ratios[lo:hi]) - math.log(hi - lo)
            devs.append(math.expm1(log_batch - log_mean) if log_batch > -math.inf else -1.0)
        mc_se = math.sqrt(math.fsum(d * d for d in devs) / (n_batches * (n_batches - 1)))
    else:
        mc_se = 0.0
    return LogMarginal(
        value=-log_mean,
        method=method,
        tuning=tuning,
        mc_se=mc_se,
        n_draws=n,
        n_dropped=n_dropped,
        unreliable=n_dropped > _DROP_LIMIT * total,
    )


def _estimate_from_loglik(loglik: np.ndarray, method: str, tuning: str) -> LogMarginal:
    """Shared harmonic-mean path: summands 1/likelihood from cached values."""
    return marginal_from_log_ratios(-np.asarray(loglik, dtype=float), method, tuning)


def harmonic_mean(chain: Chain) -> LogMarginal:
    """Harmonic mean of the per-draw likelihoods (from the chain's cache).

    Draws with zero likelihood cannot contribute a finite summand and are
    excluded with a warning counter.
    """
    return _estimate_from_loglik(chain.loglik, "HM", "none")


def bayes_factor(a: LogMarginal, b: LogMarginal) -> float:
    """Log Bayes factor of the model behind `a` over the model behind `b`."""
    return a.value - b.value


# ---------------------------------------------------------------------------
# Plug-in likelihood and latent prior at a pinned latent state
# ---------------------------------------------------------------------------


def _safe_log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def plug_in_loglik_draws(
    model: ModelId,
    data: CaptureDataset,
    latent: LatentState,
    params: Mapping[str, np.ndarray],
) -> np.ndarray:
    """Data log-likelihood at each draw's scalars with the latent state fixed.

    `params` maps active scalar names to (n_draws,) arrays.  Vectorized over
    draws in chunks; returns (n_draws,).  If the pinned latent state is
    inconsistent with the data (an excluded or unlinked captured individual)
    the likelihood is zero for every draw.
    """
    model = ModelId(model)
    b, o = data.counts.linked(latent.perm)
    captured = data.counts.a_any | b.any(axis=1)
    n_draws = next(iter(params.values())).shape[0]
    broken_link = data.n_full and np.any(
        latent.perm[: data.n_full] != np.arange(data.n_full)
    )
    if np.any((latent.z == 0) & captured) or broken_link:
        return np.full(n_draws, -np.inf)
    out = np.zeros(n_draws)
    on = np.flatnonzero(latent.z == 1)
    if model.has_sex_effect:
        males_on = int(latent.u[on].sum())
        theta = np.asarray(params["theta"], dtype=float)
        out += xlogy(males_on, theta) + xlogy(on.size - males_on, 1.0 - theta)
    if on.size == 0:
        return out
    dist2 = squared_distances(latent.s[on], data.traps)  # (N, J)
    a, b, o = data.counts.a[on], b[on], o[on]
    chunk = max(1, 1_000_000 // dist2.size)
    for lo in range(0, n_draws, chunk):
        draws = {k: np.asarray(v, dtype=float)[lo : lo + chunk, None] for k, v in params.items()}
        kernel = _gaussian(dist2, _per_trap(_sigma_rows(model, draws, latent.u[on])))
        ll = detection_loglik(model, kernel, a, b, o, data.n_occasions, draws)
        out[lo : lo + chunk] += ll.sum(axis=-1)
    return out


def _latent_log_prior_draws(
    model: ModelId,
    latent: LatentState,
    data: CaptureDataset,
    psi: np.ndarray,
    theta: np.ndarray | None,
) -> np.ndarray:
    """Latent-state log prior of a fixed state under each draw's scalars."""
    return _latent_log_prior(model, latent.z, latent.u, psi, theta, data.statespace.area)


# ---------------------------------------------------------------------------
# Posterior-mode refinement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MapEstimate:
    """Joint posterior-mode estimate assembled from chain draws."""

    mu_p_hat: ModelParams
    mu_s_hat: LatentState
    achieved: float  # joint log posterior: likelihood + scalar and latent priors
    n_rounds: int
    loglik: float  # data log-likelihood component at the estimate
    # plug_in_loglik_draws at mu_s_hat over the draws of `sweep_params`
    plug_in_loglik: np.ndarray | None = field(default=None, compare=False, repr=False)
    sweep_params: Mapping[str, np.ndarray] | None = field(default=None, compare=False, repr=False)


def _joint_at_latents(chain: Chain, data: CaptureDataset, params: ModelParams) -> np.ndarray:
    """Joint log posterior of (fixed scalars, each draw's latent state).

    The scalars are checked once; each draw's likelihood is that of
    `log_likelihood` without re-checking the chain's own states.
    """
    model = chain.model
    params.validate(model)
    vals = _latent_log_prior(
        model, chain.z, chain.u, params.psi, params.theta, data.statespace.area
    ) + log_prior(model, params, chain.prior)
    for d in range(chain.n_draws):
        per = _per_individual(model, data, params, chain.z[d], chain.u[d], chain.s[d], chain.perm[d])
        vals[d] += float(per.sum())
    return vals


def map_refine(chain: Chain, data: CaptureDataset) -> MapEstimate:
    """Refine the posterior-mode estimate by recombining chain draws.

    Starts from the draw with the best recorded joint log posterior, then
    alternates two sweeps: holding the latent state fixed, every draw's
    scalars are tried; holding the scalars fixed, every draw's latent state
    is tried.  Only strict improvements are accepted and each comparison is
    made within a single batch evaluation, so the achieved value is monotone
    over rounds and never below the best single draw.  Stops after the first
    full alternation without improvement, whose first sweep is kept as the
    estimate's `plug_in_loglik`.
    """
    if chain.n_draws == 0:
        raise ValueError("cannot refine the posterior mode of an empty chain")
    model = chain.model
    d_star = int(np.argmax(chain.loglik + chain.logprior))
    e_star = d_star
    lp_scalar = log_prior(model, chain.params, chain.prior)
    theta = chain.params.get("theta")
    n_rounds = 0
    improved = True
    while improved:  # strict improvement over a finite set terminates
        n_rounds += 1
        improved = False
        latent = chain.latent_at(e_star)
        plug_in = plug_in_loglik_draws(model, data, latent, chain.params)
        vals = (
            plug_in
            + _latent_log_prior_draws(model, latent, data, chain.params["psi"], theta)
            + lp_scalar
        )
        cand = int(np.argmax(vals))
        if vals[cand] > vals[d_star]:
            d_star = cand
            improved = True
        vals = _joint_at_latents(chain, data, chain.params_at(d_star))
        cand = int(np.argmax(vals))
        if vals[cand] > vals[e_star]:
            e_star = cand
            improved = True
    mu_p = chain.params_at(d_star)
    mu_s = chain.latent_at(e_star)
    loglik = log_likelihood(model, data, mu_p, mu_s)
    achieved = (
        loglik
        + log_prior(model, mu_p, chain.prior)
        + log_latent_prior(model, mu_s, mu_p, data.statespace)
    )
    return MapEstimate(mu_p, mu_s, float(achieved), n_rounds, float(loglik), plug_in, chain.params)


# ---------------------------------------------------------------------------
# Generalized harmonic mean with latents pinned at the mode
# ---------------------------------------------------------------------------


def gd_map(
    chain: Chain,
    data: CaptureDataset,
    tuning: TuningKind | TuningDensity,
    map_estimate: MapEstimate | None = None,
) -> LogMarginal:
    """Generalized harmonic mean with latent variables pinned at the mode.

    Averages g(v_d) / (f(Y | mu_p^d, mu_s_hat) * prior(mu_p^d)
    * prior(mu_s_hat | mu_p^d) * |Jacobian(v_d)|) over the draws and returns
    the log of its inverse; g is evaluated on the unconstrained scale, and
    the Jacobian keeps the ratio scale-consistent.  With `tuning` equal to
    the prior every factor except the likelihood cancels, and the call
    reuses the harmonic-mean code path (bit-identical output).  The
    likelihood sweep carried by `map_estimate` is reused when it was made
    over this chain's draws.
    """
    if isinstance(tuning, TuningKind) and tuning.family == "prior":
        return _estimate_from_loglik(chain.loglik, "GD-MAP", "prior")
    model = chain.model
    if map_estimate is None:
        map_estimate = map_refine(chain, data)
    fitted = tuning if isinstance(tuning, TuningDensity) else fit_tuning(chain, tuning)
    latent = map_estimate.mu_s_hat
    if not data.statespace.contains(latent.s).all():
        raise ValueError("mode latent state has centres outside the state space")
    if map_estimate.sweep_params is chain.params:
        plug_in = map_estimate.plug_in_loglik
    else:
        plug_in = plug_in_loglik_draws(model, data, latent, chain.params)
    v = transformed_param_draws(chain)
    upper = _scale_upper_bounds(model, chain.prior)
    log_g = fitted.log_density(v)
    denom = (
        plug_in
        + log_prior(model, chain.params, chain.prior)
        + _latent_log_prior_draws(model, latent, data, chain.params["psi"], chain.params.get("theta"))
        + _log_jacobian_draws(v, upper)
    )
    return marginal_from_log_ratios(log_g - denom, "GD-MAP", fitted.kind.label)


# ---------------------------------------------------------------------------
# Integrated likelihood and the estimator built on it
# ---------------------------------------------------------------------------


class _GridGeometry:
    """State-space integration grid and its distances to the traps."""

    def __init__(self, data: CaptureDataset, resolution: float | None = None):
        self.cells = data.statespace.grid_cells(resolution)
        self.n_cells = self.cells.shape[0]
        if self.n_cells == 0:
            raise ValueError("state-space grid is empty")
        self.dist2 = squared_distances(self.cells, data.traps)  # (G, J)


def _il_total(
    model: ModelId,
    data: CaptureDataset,
    geom: _GridGeometry,
    params: ModelParams,
    perm: np.ndarray,
) -> float:
    """Integrated log likelihood given scalars and a row assignment.

    Inclusion, sex, and activity centre are summed/averaged out per
    individual; observed sexes restrict the sex sum to the recorded value
    (contributing their Bernoulli factor without renormalization).  Detection
    terms are a (rows x traps) @ (traps x cells) product over the grid.
    """
    b, o = data.counts.linked(perm)
    a = data.counts.a
    captured = data.counts.a_any | b.any(axis=1)
    cap_rows = np.flatnonzero(captured)
    k_occ = data.n_occasions
    log_psi = _safe_log(params.psi)
    log_1mpsi = _safe_log(1.0 - params.psi)
    sexes = (1, 0) if model.has_sex_effect else (0,)
    avg_cap = {}
    avg_empty = {}
    for sex in sexes:
        if model.has_sex_effect:
            sigma = params.sigma_m if sex == 1 else params.sigma_f
        else:
            sigma = params.sigma
        log_kern = geom.dist2 / (-2.0 * sigma * sigma)  # (G, J)
        if model.has_trap_entry:
            log_eta = _safe_log(params.omega0) + log_kern
            comp = 1.0 - np.exp(log_eta) * (params.phi * (2.0 - params.phi))
            np.clip(comp, _COMP_FLOOR, None, out=comp)
            log_comp = np.log(comp)
            if cap_rows.size:
                n_mat = (a + b - o)[cap_rows].astype(float)
                ll = n_mat @ log_eta.T + (k_occ - n_mat) @ log_comp.T
                y_tot = (a + b)[cap_rows].sum(axis=1)
                ll += _phi_terms(y_tot, n_mat.sum(axis=1), params.phi)[:, None]
            empty = k_occ * log_comp.sum(axis=1)  # (G,)
        else:
            log_p = _safe_log(params.p0) + log_kern
            log_q = np.log1p(-np.exp(log_p))
            if cap_rows.size:
                y_mat = (a + b)[cap_rows].astype(float)
                ll = y_mat @ log_p.T + (2 * k_occ - y_mat) @ log_q.T
            empty = (2 * k_occ) * log_q.sum(axis=1)
        if cap_rows.size:
            avg_cap[sex] = logsumexp(ll, axis=1) - math.log(geom.n_cells)
        else:
            avg_cap[sex] = np.zeros(0)
        avg_empty[sex] = float(logsumexp(empty) - math.log(geom.n_cells))
    uncaptured = ~captured
    if model.has_sex_effect:
        log_wm = _safe_log(params.theta)
        log_wf = _safe_log(1.0 - params.theta)
        uo_cap = data.u_obs[cap_rows]
        term_m = log_wm + log_psi + avg_cap[1]
        term_f = log_wf + log_psi + avg_cap[0]
        cap_vals = np.where(
            uo_cap == 1, term_m, np.where(uo_cap == 0, term_f, np.logaddexp(term_m, term_f))
        )
        v_m = log_wm + np.logaddexp(log_1mpsi, log_psi + avg_empty[1])
        v_f = log_wf + np.logaddexp(log_1mpsi, log_psi + avg_empty[0])
        v_unknown = np.logaddexp(v_m, v_f)
        c_m = int((uncaptured & (data.u_obs == 1)).sum())
        c_f = int((uncaptured & (data.u_obs == 0)).sum())
        c_u = int(uncaptured.sum()) - c_m - c_f
        return float(cap_vals.sum() + c_m * v_m + c_f * v_f + c_u * v_unknown)
    cap_vals = log_psi + avg_cap[0]
    v_unc = np.logaddexp(log_1mpsi, log_psi + avg_empty[0])
    return float(cap_vals.sum() + int(uncaptured.sum()) * v_unc)


def integrated_log_likelihood(
    model: ModelId,
    data: CaptureDataset,
    params: ModelParams,
    perm: np.ndarray,
    resolution: float | None = None,
) -> float:
    """Data log-density given only the scalars and the detector-2 assignment.

    Each individual's inclusion flag and (for sex models) sex are summed out
    analytically, and its activity centre is integrated by a Riemann average
    over the regular state-space grid; the row assignment `perm` stays
    fixed.  The assignment's own uniform prior (1/M!) is *not* included.
    """
    model = ModelId(model)
    params.validate(model)
    perm = np.asarray(perm, dtype=np.int64)
    _check_permutation(perm, data.n_augmented)
    return _il_total(model, data, _GridGeometry(data, resolution), params, perm)


def integrated_loglik_draws(
    chain: Chain, data: CaptureDataset, resolution: float | None = None
) -> np.ndarray:
    """Integrated log likelihood at every draw's (scalars, row assignment).

    This is the expensive shared input of `gd_il`; compute it once per chain
    and pass it to each tuning variant.
    """
    geom = _GridGeometry(data, resolution)
    il = np.empty(chain.n_draws)
    for d in range(chain.n_draws):
        il[d] = _il_total(chain.model, data, geom, chain.params_at(d), chain.perm[d])
    return il


def gd_il(
    chain: Chain,
    data: CaptureDataset,
    tuning: TuningKind | TuningDensity,
    resolution: float | None = None,
    il_values: np.ndarray | None = None,
) -> LogMarginal:
    """Generalized harmonic mean on the integrated likelihood.

    The summand is g(v_d) / (f_IL(Y | mu_p^d, L_d) * prior(mu_p^d)
    * |Jacobian(v_d)|): the row assignment L_d is retained from each draw,
    and its uniform prior 1/M! cancels against the (necessarily uniform)
    assignment component of the tuning density.  With `tuning` equal to the
    prior this is the harmonic mean of the integrated likelihoods.
    `il_values` takes the output of `integrated_loglik_draws` so the grid
    sweep is shared across tuning variants.
    """
    model = chain.model
    il = integrated_loglik_draws(chain, data, resolution) if il_values is None else np.asarray(il_values, dtype=float)
    if il.shape != (chain.n_draws,):
        raise ValueError("il_values does not match the chain's draw count")
    if isinstance(tuning, TuningKind) and tuning.family == "prior":
        return _estimate_from_loglik(il, "GD-IL", "prior")
    fitted = tuning if isinstance(tuning, TuningDensity) else fit_tuning(chain, tuning)
    v = transformed_param_draws(chain)
    upper = _scale_upper_bounds(model, chain.prior)
    denom = il + log_prior(model, chain.params, chain.prior) + _log_jacobian_draws(v, upper)
    return marginal_from_log_ratios(fitted.log_density(v) - denom, "GD-IL", fitted.kind.label)
