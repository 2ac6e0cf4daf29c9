"""Metropolis-within-Gibbs sampler for the four capture-recapture models.

Update sweep per iteration:

1. psi by its conjugate Beta full conditional;
2. each remaining scalar by a Gaussian random walk on the transformed scale
   (logit for probabilities, logit(sigma/R) for movement scales), with the
   transformation Jacobian in the acceptance ratio;
3. inclusion flags z by their exact Bernoulli full conditional (individuals
   with captures under the current assignment stay included);
4. unobserved sexes by their exact two-point full conditional (sex models);
5. all activity centres jointly by independent reflected Gaussian walks --
   the conditional factorises over individuals, so element-wise acceptance is
   a valid product update;
6. a sweep of 2M random transpositions of the detector-2 assignment among
   the non-fully-identified rows.

The sampler caches, per row, squared trap distances, Gaussian kernels (under
both sexes for sex models) and the detection log-likelihood, so that most
updates are cheap arithmetic.  Between two z updates only included rows
(z = 1) enter any acceptance ratio, so every block but the z update reads and
writes the caches of included rows only, and the detection terms of included
rows are refreshed from scratch at the end of every iteration.  Excluded rows
are all uncaptured (captured rows always stay included), their centre moves
have an acceptance ratio of exactly 1, and the rest of their caches are stale
until the z update, which recomputes their distances, kernels and detection
terms from the current centres and scalars with the zero-count closed form
`detection_loglik_uncaptured`.  That form equals `detection_loglik` at
a = b = o = 0 bit for bit, and every cache is an element-wise or per-row
function of its inputs, so the z update sees the same values as if all rows
had been kept up to date, and the recorded values are bit-equal to a fresh
evaluation: detection terms, linked counts and log priors come from `model`
(`detection_loglik`, `CaptureDataset.counts`, `log_prior`,
`_latent_log_prior`), as in `audit_chain`.

Validation knobs in `McmcConfig` (`flat_likelihood`, `s_grid`,
`sample_scalars`) exist so tests can compare the sampler against exact
enumeration or the prior; they are not used in normal fitting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import (
    CaptureDataset,
    LatentState,
    ModelId,
    ModelParams,
    PriorSpec,
    _gaussian,
    _latent_log_prior,
    _logit,
    _sex_loglik,
    _sigmoid,
    active_param_names,
    detection_loglik,
    detection_loglik_uncaptured,
    log_latent_prior,
    log_prior,
    per_individual_log_likelihood,
    squared_distances,
)

__all__ = ["McmcConfig", "Chain", "fit", "audit_chain"]


def _default_scales() -> dict[str, float]:
    # Random-walk standard deviations on the transformed scale, tuned on
    # pilot runs of the scaled design to keep acceptance rates near 0.2-0.5.
    return {
        "theta": 0.60,
        "phi": 0.45,
        "omega0": 0.45,
        "p0": 0.45,
        "sigma": 0.45,
        "sigma_m": 0.45,
        "sigma_f": 0.45,
    }


@dataclass
class McmcConfig:
    """Sampler settings; defaults match the full-scale study."""

    n_iter: int = 30000
    burn_in: int = 5000
    prior: PriorSpec = field(default_factory=PriorSpec)
    proposal_scales: dict[str, float] = field(default_factory=_default_scales)
    s_walk_scale: float = 0.2
    seed: int = 0
    # validation-mode switches (exact-enumeration and prior-recovery tests)
    sample_scalars: bool = True
    flat_likelihood: bool = False
    s_grid: np.ndarray | None = None
    init_params: ModelParams | None = None

    def __post_init__(self):
        if self.n_iter <= 0 or not 0 <= self.burn_in < self.n_iter:
            raise ValueError(
                f"need 0 <= burn_in < n_iter, got {self.burn_in}, {self.n_iter}"
            )
        for k, v in self.proposal_scales.items():
            if not v > 0:
                raise ValueError(f"proposal scale {k} must be positive, got {v}")
        if not self.s_walk_scale > 0:
            raise ValueError("s_walk_scale must be positive")
        if self.s_grid is not None:
            self.s_grid = np.atleast_2d(np.asarray(self.s_grid, dtype=float))
            if self.s_grid.ndim != 2 or self.s_grid.shape[1] != 2:
                raise ValueError("s_grid must be (G, 2)")


@dataclass
class Chain:
    """Posterior draws plus cached evaluations, one row per retained iteration."""

    model: ModelId
    prior: PriorSpec
    seed: int
    n_iter: int
    burn_in: int
    params: dict[str, np.ndarray]  # active scalars, each (n_draws,)
    z: np.ndarray  # (n_draws, M) uint8
    u: np.ndarray  # (n_draws, M) uint8
    s: np.ndarray  # (n_draws, M, 2)
    perm: np.ndarray  # (n_draws, M) int32
    loglik: np.ndarray  # (n_draws,) data log-density
    logprior: np.ndarray  # (n_draws,) scalar prior + latent prior
    perind: np.ndarray  # (n_draws, M) per-individual log-likelihood
    accept: dict[str, float]

    @property
    def n_draws(self) -> int:
        return self.loglik.shape[0]

    @property
    def n_augmented(self) -> int:
        return self.z.shape[1]

    def params_at(self, d: int) -> ModelParams:
        return ModelParams(**{k: float(v[d]) for k, v in self.params.items()})

    def latent_at(self, d: int) -> LatentState:
        return LatentState(
            z=self.z[d].copy(),
            u=self.u[d].copy(),
            s=self.s[d].copy(),
            perm=self.perm[d].astype(np.int64),
        )

    def param_matrix(self) -> np.ndarray:
        """Active scalars as an (n_draws, p) matrix in canonical order."""
        names = active_param_names(self.model)
        return np.column_stack([self.params[k] for k in names])

    def inclusion_counts(self) -> np.ndarray:
        """Population size (number of included individuals) per draw."""
        return self.z.sum(axis=1).astype(np.int64)


def _reflect(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    width = hi - lo
    t = np.mod(x - lo, 2.0 * width)
    return lo + np.where(t > width, 2.0 * width - t, t)


class _Sampler:
    """Mutable sampler state; one instance per fit, never shared."""

    def __init__(self, model: ModelId, data: CaptureDataset, config: McmcConfig):
        self.model = ModelId(model)
        self.data = data
        self.cfg = config
        self.rng = np.random.default_rng(config.seed)
        self.space = data.statespace
        self.m = data.n_augmented
        self.k_occ = data.n_occasions
        self.flat = config.flat_likelihood
        self.sex = self.model.has_sex_effect

        # immutable per-row data summaries, shared with every other consumer
        self.counts = data.counts
        self.a = self.counts.a  # (M, J) detector-1 counts
        self.b_rows = self.counts.b_rows  # (M, J) per detector-2 row
        self.a_any = self.counts.a_any
        self.row_nonzero = self.counts.row_nonzero

        names = active_param_names(self.model)
        self.active = names
        self.mh_names = [n for n in names if n != "psi"]
        self.scale_names = {n for n in names if n.startswith("sigma")}
        self.upper = {
            n: (config.prior.sigma_upper if n in self.scale_names else 1.0)
            for n in names
        }
        self.n_prop = {n: 0 for n in self.mh_names}
        self.n_acc = {n: 0 for n in self.mh_names}
        self.n_prop["s"] = self.n_acc["s"] = 0
        self.n_prop["perm"] = self.n_acc["perm"] = 0

        self._init_state(config)
        self.on = np.flatnonzero(self.z == 1)
        self.kernels = _gaussian(self.dist2[None, :, :], self._sigma_values()[:, None, None])
        self.det = np.zeros(self.m)  # excluded rows' terms wait for the z update
        if not self.flat:
            self._refresh_included()
        self._refresh_sexterm()

    # -- initialisation ----------------------------------------------------

    def _init_state(self, config: McmcConfig):
        rng = self.rng
        if config.init_params is not None:
            config.init_params.validate(self.model)
            self.params = {
                k: float(getattr(config.init_params, k)) for k in self.active
            }
        else:
            # prior means
            self.params = {
                k: (self.upper[k] / 2.0) for k in self.active
            }
        m = self.m
        data = self.data

        # detector-2 assignment: forced links first, then greedy matching of
        # unlinked observed rows to unmatched detector-1 rows by centroid
        perm = np.full(m, -1, dtype=np.int64)
        perm[: data.n_full] = np.arange(data.n_full)
        locs = data.traps.locations
        unlinked = [
            b for b in range(data.n_full, m) if self.row_nonzero[b]
        ]
        cand = [
            i for i in range(data.n_full, m) if self.a_any[i]
        ]

        def centroid(counts):
            w = counts.astype(float)
            return (locs * w[:, None]).sum(0) / w.sum()

        used = set(perm[: data.n_full].tolist())
        for b in unlinked:
            c_b = centroid(self.b_rows[b])
            best, best_d = None, np.inf
            for i in cand:
                if i in used:
                    continue
                d = float(((centroid(self.a[i]) - c_b) ** 2).sum())
                if d < best_d:
                    best, best_d = i, d
            if best is None:  # no free detector-1 row: park on a fresh index
                for i in range(data.n_full, m):
                    if i not in used and not self.a_any[i]:
                        best = i
                        break
            used.add(best)
            perm[b] = best
        free = [i for i in range(m) if i not in used]
        perm[perm < 0] = np.array(free, dtype=np.int64)[: (perm < 0).sum()]
        self.perm = perm
        self.inv = np.argsort(perm)
        self.bs, self.os = self.counts.linked(perm)  # linked detector-2 counts, overlaps
        self.captured = self.a_any | self.row_nonzero[self.inv]
        if self.flat:
            self.captured = np.zeros(m, dtype=bool)

        self.z = np.where(
            self.captured, 1, rng.random(m) < 0.5 * self.params["psi"]
        ).astype(np.int8)

        u = rng.integers(0, 2, m).astype(np.int8)
        obs = data.u_obs >= 0
        u[obs] = data.u_obs[obs]
        self.u = u

        if config.s_grid is not None:
            idx = rng.integers(0, config.s_grid.shape[0], m)
            s = config.s_grid[idx].copy()
        else:
            s = np.column_stack(
                [
                    rng.uniform(self.space.x_min, self.space.x_max, m),
                    rng.uniform(self.space.y_min, self.space.y_max, m),
                ]
            )
            tot = self.a + self.bs
            has = tot.sum(axis=1) > 0
            w = tot[has].astype(float)
            s[has] = (w[:, :, None] * locs[None, :, :]).sum(1) / w.sum(1)[:, None]
        self.s = s
        self.dist2 = squared_distances(self.s, data.traps)

    # -- cached quantities --------------------------------------------------

    def _sigma_values(self) -> np.ndarray:
        if self.sex:
            return np.array([self.params["sigma_f"], self.params["sigma_m"]])
        return np.array([self.params["sigma"]])

    def _kernel(self, rows) -> np.ndarray:
        """Cached kernels of `rows` (an index array) under their current sexes."""
        if self.sex:
            return self.kernels[self.u[rows], rows]
        return self.kernels[0, rows]

    def _det(self, kernel, rows, params=None) -> np.ndarray:
        """Detection log-likelihood of `rows` under the current linked counts."""
        params = self.params if params is None else params
        return detection_loglik(
            self.model, kernel, self.a[rows], self.bs[rows], self.os[rows], self.k_occ, params
        )

    def _refresh_included(self):
        """Recompute the detection terms of included rows from the caches."""
        on = self.on
        self.det[on] = self._det(self._kernel(on), on)

    def _refresh_excluded(self):
        """Bring distances, kernels and detection terms of excluded rows up to date.

        Captured rows always stay included, so every excluded row has zero
        counts and takes the closed form.
        """
        off = np.flatnonzero(self.z == 0)
        self.dist2[off] = squared_distances(self.s[off], self.data.traps)
        self.kernels[:, off] = _gaussian(
            self.dist2[off][None, :, :], self._sigma_values()[:, None, None]
        )
        self.det[off] = detection_loglik_uncaptured(
            self.model, self._kernel(off), self.k_occ, self.params
        )

    def _refresh_sexterm(self):
        if self.sex:
            self.sexterm = _sex_loglik(self.u, self.params["theta"])
        else:
            self.sexterm = np.zeros(self.m)

    # -- scalar updates ------------------------------------------------------

    def _update_psi(self):
        n_on = int(self.z.sum())
        p = self.rng.beta(1 + n_on, 1 + self.m - n_on)
        self.params["psi"] = float(np.clip(p, 1e-12, 1.0 - 1e-12))

    def _update_scalar(self, name: str):
        self.n_prop[name] += 1
        cur = self.params[name]
        upper = self.upper[name]
        scale = self.cfg.proposal_scales[name]
        v_new = _logit(cur / upper) + scale * self.rng.standard_normal()
        new = _sigmoid(v_new) * upper
        if not 0.0 < new < upper:  # numerically saturated proposal
            return

        if name == "theta":
            # likelihood terms (included rows) and latent-prior terms
            # (excluded rows) combine to a Bernoulli count over all rows
            n_male = int(self.u.sum())
            delta = n_male * (math.log(new) - math.log(cur)) + (
                self.m - n_male
            ) * (math.log1p(-new) - math.log1p(-cur))
        elif self.flat:
            delta = 0.0
        else:
            prop = dict(self.params)
            prop[name] = new
            rows = self.on
            if name in self.scale_names:
                sex_idx = 1 if name == "sigma_m" else 0
                if self.sex:
                    rows = rows[self.u[rows] == sex_idx]
                kern = _gaussian(self.dist2[rows], new)
            else:
                kern = self._kernel(rows)
            det_new = self._det(kern, rows, prop)
            delta = float(det_new.sum() - self.det[rows].sum())

        # uniform prior densities cancel; the jacobian of the logit walk stays
        log_jac = (
            math.log(new) + math.log1p(-new / upper)
            - math.log(cur) - math.log1p(-cur / upper)
        )
        if math.log(self.rng.random()) < delta + log_jac:
            self.params[name] = new
            self.n_acc[name] += 1
            if name == "theta":
                self._refresh_sexterm()
            elif not self.flat:
                # the proposal evaluated every detection term that changes;
                # a sex's kernels are kept for included rows of both sexes
                if name in self.scale_names:
                    self.kernels[sex_idx, self.on] = _gaussian(self.dist2[self.on], new)
                self.det[rows] = det_new

    # -- latent updates -------------------------------------------------------

    def _update_z(self):
        free = ~self.captured
        if not free.any():
            return
        if not self.flat:
            self._refresh_excluded()
        lo = _logit(self.params["psi"])
        p_on = _sigmoid(lo + self.det[free])
        self.z[free] = (self.rng.random(int(free.sum())) < p_on).astype(np.int8)
        self.on = np.flatnonzero(self.z == 1)

    def _update_u(self):
        if not self.sex:
            return
        free = self.data.u_obs < 0
        if not free.any():
            return
        idx = np.flatnonzero(free)
        th = self.params["theta"]
        if self.flat:
            self.u[idx] = (self.rng.random(idx.size) < th).astype(np.int8)
            self._refresh_sexterm()
            return
        # excluded rows draw their sex from the prior
        on = self.z[idx] == 1
        rows = idx[on]
        det_f = np.zeros(idx.size)
        det_m = np.zeros(idx.size)
        det_f[on] = self._det(self.kernels[0, rows], rows)
        det_m[on] = self._det(self.kernels[1, rows], rows)
        w_m = math.log(th) + det_m
        w_f = math.log1p(-th) + det_f
        pick_m = self.rng.random(idx.size) < _sigmoid(w_m - w_f)
        self.u[idx] = pick_m.astype(np.int8)
        self.det[rows] = np.where(pick_m[on], det_m[on], det_f[on])
        self._refresh_sexterm()

    def _update_s(self):
        m = self.m
        self.n_prop["s"] += m
        if self.cfg.s_grid is not None:
            grid = self.cfg.s_grid
            s_new = grid[self.rng.integers(0, grid.shape[0], m)]
        else:
            step = self.cfg.s_walk_scale * self.rng.standard_normal((m, 2))
            s_new = np.column_stack(
                [
                    _reflect(self.s[:, 0] + step[:, 0], self.space.x_min, self.space.x_max),
                    _reflect(self.s[:, 1] + step[:, 1], self.space.y_min, self.space.y_max),
                ]
            )
        if self.flat:
            accept = np.ones(m, dtype=bool)
        else:
            on = self.on
            d2_new = squared_distances(s_new[on], self.data.traps)
            sig = self._sigma_values()
            sig_rows = sig[self.u[on], None] if self.sex else sig[0]
            det_new = self._det(_gaussian(d2_new, sig_rows), on)
            # an excluded row's term is not in the target: its ratio is 1
            delta = np.zeros(m)
            delta[on] = det_new - self.det[on]
            accept = np.log(self.rng.random(m)) < delta
        self.n_acc["s"] += int(accept.sum())
        if not accept.any():
            return
        self.s[accept] = s_new[accept]
        if not self.flat:
            hit = accept[on]
            rows = on[hit]
            self.dist2[rows] = d2_new[hit]
            self.det[rows] = det_new[hit]
            for c in range(sig.shape[0]):
                self.kernels[c, rows] = _gaussian(self.dist2[rows], sig[c])

    def _row_det(self, i: int, bs_row, os_row) -> float:
        kern = self.kernels[self.u[i] if self.sex else 0, i]
        return float(
            detection_loglik(self.model, kern, self.a[i], bs_row, os_row, self.k_occ, self.params)
        )

    def _update_perm(self):
        n_full = self.data.n_full
        n_elig = self.m - n_full
        if n_elig < 2:
            return
        n_prop = 2 * self.m
        first = self.rng.integers(n_full, self.m, n_prop)
        # uniform over distinct partners
        offset = self.rng.integers(1, n_elig, n_prop)
        second = n_full + (first - n_full + offset) % n_elig
        # most proposals are null swaps: run the sweep on Python lists and
        # write the assignment back once
        perm = self.perm.tolist()
        inv = self.inv.tolist()
        nz = self.row_nonzero.tolist()
        a_any = self.a_any.tolist()
        z = self.z.tolist()
        det = self.det
        n_acc = n_null = 0
        for b1, b2 in zip(first.tolist(), second.tolist()):
            if not (nz[b1] or nz[b2]):
                # swapping two all-zero rows changes nothing measurable, so it
                # is applied but counts as neither proposed nor accepted
                i1, i2 = perm[b1], perm[b2]
                perm[b1], perm[b2] = i2, i1
                inv[i1], inv[i2] = b2, b1
                n_null += 1
                continue
            i1 = perm[b1]
            i2 = perm[b2]
            cap1_new = a_any[i1] or nz[b2]
            cap2_new = a_any[i2] or nz[b1]
            if (z[i1] == 0 and cap1_new) or (z[i2] == 0 and cap2_new):
                continue  # an excluded individual cannot receive captures
            delta = 0.0
            if not self.flat:
                # excluded rows end up uncaptured and their terms wait for
                # the z update
                ov1 = self.counts.overlap(i1, b2)
                ov2 = self.counts.overlap(i2, b1)
                if z[i1] == 1:
                    det1_new = self._row_det(i1, self.b_rows[b2], ov1)
                    delta += det1_new - det[i1]
                if z[i2] == 1:
                    det2_new = self._row_det(i2, self.b_rows[b1], ov2)
                    delta += det2_new - det[i2]
            if delta >= 0.0 or math.log(self.rng.random()) < delta:
                perm[b1], perm[b2] = i2, i1
                inv[i1], inv[i2] = b2, b1
                self.bs[i1] = self.b_rows[b2]
                self.bs[i2] = self.b_rows[b1]
                if not self.flat:
                    self.os[i1] = ov1
                    self.os[i2] = ov2
                    if z[i1] == 1:
                        det[i1] = det1_new
                    if z[i2] == 1:
                        det[i2] = det2_new
                    self.captured[i1] = cap1_new
                    self.captured[i2] = cap2_new
                n_acc += 1
        self.perm[:] = perm
        self.inv[:] = inv
        self.n_prop["perm"] += n_prop - n_null
        self.n_acc["perm"] += n_acc

    # -- main loop -------------------------------------------------------------

    def run(self) -> Chain:
        cfg = self.cfg
        n_draws = cfg.n_iter - cfg.burn_in
        m = self.m
        rec_params = {k: np.empty(n_draws) for k in self.active}
        rec_z = np.empty((n_draws, m), dtype=np.uint8)
        rec_u = np.empty((n_draws, m), dtype=np.uint8)
        rec_s = np.empty((n_draws, m, 2))
        rec_perm = np.empty((n_draws, m), dtype=np.int32)
        rec_ll = np.empty(n_draws)
        rec_lp = np.empty(n_draws)
        rec_perind = np.empty((n_draws, m))

        for it in range(cfg.n_iter):
            if cfg.sample_scalars:
                self._update_psi()
                for name in self.mh_names:
                    self._update_scalar(name)
            self._update_z()
            self._update_u()
            self._update_s()
            self._update_perm()
            # refresh detection cache: keeps recorded values equal to a fresh
            # evaluation and stops float drift across incremental updates
            if not self.flat:
                self._refresh_included()
            if it >= cfg.burn_in:
                d = it - cfg.burn_in
                for k in self.active:
                    rec_params[k][d] = self.params[k]
                rec_z[d] = self.z
                rec_u[d] = self.u
                rec_s[d] = self.s
                rec_perm[d] = self.perm
                perind = np.where(self.z == 1, self.det + self.sexterm, 0.0)
                rec_perind[d] = perind
                rec_ll[d] = perind.sum()
                rec_lp[d] = log_prior(self.model, self.params, cfg.prior) + _latent_log_prior(
                    self.model, self.z, self.u, self.params["psi"],
                    self.params.get("theta"), self.space.area,
                )

        accept = {}
        for k in self.n_prop:
            if self.n_prop[k]:
                accept[k] = self.n_acc[k] / self.n_prop[k]
        if "perm" not in accept and self.row_nonzero.any() and self.m - self.data.n_full >= 2:
            # detector-2 captures exist but all are fully identified, so no
            # swap could move one: the block ran and accepted nothing
            accept["perm"] = 0.0
        return Chain(
            model=self.model,
            prior=cfg.prior,
            seed=cfg.seed,
            n_iter=cfg.n_iter,
            burn_in=cfg.burn_in,
            params=rec_params,
            z=rec_z,
            u=rec_u,
            s=rec_s,
            perm=rec_perm,
            loglik=rec_ll,
            logprior=rec_lp,
            perind=rec_perind,
            accept=accept,
        )


def fit(model: ModelId, data: CaptureDataset, config: McmcConfig) -> Chain:
    """Draw from the posterior of `model` given `data`.

    Returns a `Chain` with one record per post-burn-in iteration.  The run is
    a pure function of (model, data, config): repeating it reproduces every
    draw bit for bit.
    """
    sampler = _Sampler(model, data, config)
    return sampler.run()


def audit_chain(
    chain: Chain,
    data: CaptureDataset,
    fraction: float = 0.01,
    rng=None,
) -> float:
    """Re-evaluate cached log-densities for a random subset of draws.

    Returns the largest absolute discrepancy between stored and freshly
    computed values; sampling bugs and cache drift both show up here.
    """
    rng = np.random.default_rng(rng)
    n = chain.n_draws
    n_check = max(1, int(round(fraction * n)))
    idx = rng.choice(n, size=min(n_check, n), replace=False)
    worst = 0.0
    for d in idx:
        params = chain.params_at(int(d))
        latent = chain.latent_at(int(d))
        per = per_individual_log_likelihood(chain.model, data, params, latent)
        ll = float(per.sum())  # log_likelihood
        lp = log_prior(chain.model, params, chain.prior) + log_latent_prior(
            chain.model, latent, params, data.statespace
        )
        worst = max(worst, abs(ll - chain.loglik[d]))
        worst = max(worst, abs(lp - chain.logprior[d]))
        worst = max(worst, float(np.abs(per - chain.perind[d]).max()))
    return worst
