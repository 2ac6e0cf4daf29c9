"""Marginal-likelihood machinery: tuning densities, estimator core, MAP, IL."""

import math
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.special import logsumexp

from secrsel.errors import NumericalError
from secrsel.marglik import (
    LogMarginal,
    MapEstimate,
    PRIOR_TUNING,
    TuningKind,
    _joint_at_latents,
    _latent_log_prior_draws,
    _log_jacobian_draws,
    bayes_factor,
    fit_tuning,
    gd_il,
    gd_map,
    harmonic_mean,
    integrated_log_likelihood,
    integrated_loglik_draws,
    map_refine,
    marginal_from_log_ratios,
    plug_in_loglik_draws,
    transformed_param_draws,
    tuning_grid,
)
from secrsel.mcmc import Chain, McmcConfig, fit
from secrsel.model import (
    CaptureDataset,
    LatentState,
    ModelId,
    ModelParams,
    PriorSpec,
    StateSpace,
    TrapGrid,
    _latent_log_prior,
    _scale_upper_bounds,
    active_param_names,
    log_latent_prior,
    log_likelihood,
    log_prior,
    per_individual_log_likelihood,
    to_transformed,
    transform_log_jacobian,
)

from _oracles import brute_integrated_log_likelihood, brute_log_likelihood

ALL_MODELS = [ModelId.M1, ModelId.M2, ModelId.M3, ModelId.M4]


# ---------------------------------------------------------------------------
# Tuning densities
# ---------------------------------------------------------------------------


class TestTuningDensities:
    def test_grid_members(self):
        labels = [k.label for k in tuning_grid()]
        assert labels == [
            "normal",
            "t10",
            "t100",
            "t500",
            "t1000",
            "t10000",
            "truncnorm90",
            "truncnorm95",
            "truncnorm99",
        ]

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            TuningKind("gaussian")
        with pytest.raises(ValueError):
            TuningKind("t")
        with pytest.raises(ValueError):
            TuningKind("truncnorm", alpha=1.5)

    def test_prior_kind_cannot_be_fitted(self):
        with pytest.raises(ValueError):
            fit_tuning(np.zeros((10, 2)), PRIOR_TUNING)

    def test_needs_dimension_plus_two_draws(self):
        with pytest.raises(ValueError):
            fit_tuning(np.zeros((3, 2)), TuningKind("normal"))

    def test_normal_matches_scipy(self):
        rng = np.random.default_rng(0)
        mean = np.array([1.0, -2.0])
        cov = np.array([[1.0, 0.3], [0.3, 0.5]])
        x = rng.multivariate_normal(mean, cov, size=4000)
        fitted = fit_tuning(x, TuningKind("normal"))
        se = np.sqrt(np.diag(fitted.scale) / len(x))
        assert np.all(np.abs(fitted.location - mean) < 3 * se)
        pts = rng.multivariate_normal(mean, cov, size=50)
        mine = fitted.log_density(pts)
        ref = stats.multivariate_normal.logpdf(pts, fitted.location, fitted.scale)
        assert np.max(np.abs(mine - ref)) < 1e-10

    def test_t_matches_scipy(self):
        rng = np.random.default_rng(1)
        x = rng.multivariate_normal([0.0, 1.0], [[2.0, -0.4], [-0.4, 1.0]], size=2000)
        for df in (10, 500):
            fitted = fit_tuning(x, TuningKind("t", df=df))
            pts = rng.normal(size=(50, 2))
            mine = fitted.log_density(pts)
            ref = stats.multivariate_t.logpdf(pts, fitted.location, fitted.scale, df=df)
            assert np.max(np.abs(mine - ref)) < 1e-10

    def test_large_df_t_close_to_normal(self):
        # the t and normal log densities differ by ~d^4/(4 df) at squared
        # Mahalanobis distance d^2, so compare on bulk points (central 95%)
        rng = np.random.default_rng(2)
        x = rng.multivariate_normal([0.0, 0.0], np.eye(2), size=3000)
        tk = fit_tuning(x, TuningKind("t", df=10000))
        nk = fit_tuning(x, TuningKind("normal"))
        pts = rng.multivariate_normal([0.0, 0.0], np.eye(2), size=300)
        d2 = np.einsum("ij,ij->i", pts, pts)
        pts = pts[d2 <= stats.chi2.ppf(0.95, df=2)][:50]
        assert len(pts) == 50
        assert np.max(np.abs(tk.log_density(pts) - nk.log_density(pts))) < 1e-3

    def test_truncnorm_renormalization_and_support(self):
        rng = np.random.default_rng(3)
        x = rng.multivariate_normal([2.0, -1.0], [[1.0, 0.2], [0.2, 0.8]], size=1500)
        for alpha in (0.90, 0.95, 0.99):
            fitted = fit_tuning(x, TuningKind("truncnorm", alpha=alpha))
            normal = fit_tuning(x, TuningKind("normal"))
            at_mode = fitted.log_density(fitted.location)
            assert at_mode == pytest.approx(
                normal.log_density(normal.location) - math.log(alpha), abs=1e-12
            )
            assert fitted.radius2 == pytest.approx(stats.chi2.ppf(alpha, df=2), abs=1e-10)
            # a point just outside the ellipsoid has zero density, just inside not
            direction = np.linalg.cholesky(fitted.scale) @ np.array([1.0, 0.0])
            r = math.sqrt(fitted.radius2)
            outside = fitted.location + direction * (r * 1.001)
            inside = fitted.location + direction * (r * 0.999)
            assert fitted.log_density(outside) == -math.inf
            assert np.isfinite(fitted.log_density(inside))

    def test_singular_covariance_ridge_warns(self):
        rng = np.random.default_rng(4)
        col = rng.normal(size=200)
        x = np.column_stack([col, 2.0 * col])  # exactly collinear
        with pytest.warns(RuntimeWarning, match="ridge"):
            fitted = fit_tuning(x, TuningKind("normal"))
        assert np.all(np.isfinite(fitted.log_density(x[:5])))

    def test_fit_on_chain_uses_transformed_draws(self, busy_data, busy_chains):
        chain = busy_chains[ModelId.M4]
        fitted = fit_tuning(chain, TuningKind("normal"))
        v = transformed_param_draws(chain)
        assert np.allclose(fitted.location, v.mean(axis=0))
        assert fitted.dimension == v.shape[1]


# ---------------------------------------------------------------------------
# Estimator core
# ---------------------------------------------------------------------------


class TestEstimatorCore:
    def test_constant_ratio_recovers_value(self):
        c = 0.37
        est = marginal_from_log_ratios(np.full(90, -math.log(c)), "HM")
        assert est.value == pytest.approx(math.log(c), abs=1e-13)
        assert est.mc_se == pytest.approx(0.0, abs=1e-12)
        assert est.n_draws == 90 and est.n_dropped == 0 and not est.unreliable

    def test_two_draw_harmonic_mean_hand_value(self):
        # likelihoods c and c/2: harmonic mean = 2 / (1/c + 2/c) = 2c/3
        c = 1.7
        est = marginal_from_log_ratios(
            np.array([-math.log(c), -math.log(c / 2)]), "HM"
        )
        assert est.value == pytest.approx(math.log(2 * c / 3), abs=1e-12)

    def test_neg_inf_ratios_are_zero_contributions(self):
        # summands exp(0)=1 and exp(-inf)=0; mean 1/2; estimate log 2
        est = marginal_from_log_ratios(np.array([0.0, -math.inf]), "GD-MAP", "truncnorm90")
        assert est.value == pytest.approx(math.log(2.0), abs=1e-13)
        assert est.n_draws == 2 and est.n_dropped == 0

    def test_non_finite_summands_dropped_and_flagged(self):
        with pytest.warns(RuntimeWarning, match="dropped 2 of 4"):
            est = marginal_from_log_ratios(
                np.array([0.0, math.inf, 0.0, math.nan]), "HM"
            )
        assert est.value == pytest.approx(0.0, abs=1e-13)
        assert est.n_dropped == 2 and est.n_draws == 2 and est.unreliable

    def test_small_drop_fraction_not_flagged(self):
        ratios = np.zeros(1000)
        ratios[0] = math.inf
        with pytest.warns(RuntimeWarning):
            est = marginal_from_log_ratios(ratios, "HM")
        assert est.n_dropped == 1 and not est.unreliable

    def test_all_zero_summands_error_names_tuning(self):
        with pytest.raises(NumericalError, match="truncnorm99"):
            marginal_from_log_ratios(np.full(10, -math.inf), "GD-MAP", "truncnorm99")

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            marginal_from_log_ratios(np.array([]), "HM")

    def test_draw_order_invariance(self):
        rng = np.random.default_rng(5)
        ratios = rng.normal(size=4001)
        ratios[rng.choice(4001, size=30, replace=False)] = -math.inf
        a = marginal_from_log_ratios(ratios, "HM")
        b = marginal_from_log_ratios(ratios[::-1].copy(), "HM")
        c = marginal_from_log_ratios(rng.permutation(ratios), "HM")
        assert abs(a.value - b.value) < 1e-12
        assert abs(a.value - c.value) < 1e-12

    def test_mc_se_calibration(self):
        # batch-means SE should track the true sampling spread of the estimate
        rng = np.random.default_rng(6)
        values, ses = [], []
        for _ in range(60):
            ratios = rng.normal(0.0, 1.0, size=3000)
            est = marginal_from_log_ratios(ratios, "HM")
            values.append(est.value)
            ses.append(est.mc_se)
        ratio = np.std(values) / np.mean(ses)
        assert 0.55 < ratio < 1.8

    def test_bayes_factor_is_difference(self):
        a = marginal_from_log_ratios(np.full(5, -math.log(2.0)), "HM")
        b = marginal_from_log_ratios(np.full(5, -0.0), "HM")
        assert bayes_factor(a, a) == 0.0
        assert bayes_factor(a, b) == pytest.approx(math.log(2.0), abs=1e-13)


# ---------------------------------------------------------------------------
# Gaussian toy with a known exact marginal: all nine tuning variants
# ---------------------------------------------------------------------------


class TestGaussianToy:
    def test_all_tunings_within_three_se(self):
        # conjugate 1-D model: mu ~ N(0, tau^2), y | mu ~ N(mu, s2)
        tau2, s2, y = 0.25, 1.0, 0.8
        post_var = 1.0 / (1.0 / tau2 + 1.0 / s2)
        post_mean = post_var * (y / s2)
        exact = stats.norm.logpdf(y, 0.0, math.sqrt(tau2 + s2))
        rng = np.random.default_rng(7)
        draws = rng.normal(post_mean, math.sqrt(post_var), size=6000)[:, None]
        loglik = stats.norm.logpdf(y, draws[:, 0], math.sqrt(s2))
        logprior = stats.norm.logpdf(draws[:, 0], 0.0, math.sqrt(tau2))
        for kind in tuning_grid():
            fitted = fit_tuning(draws, kind)
            ratios = fitted.log_density(draws) - (loglik + logprior)
            est = marginal_from_log_ratios(ratios, "GD-MAP", kind.label)
            assert abs(est.value - exact) < 3 * est.mc_se + 1e-9, kind.label
            assert est.mc_se < 0.05


# ---------------------------------------------------------------------------
# Plug-in likelihood / latent prior vectorization
# ---------------------------------------------------------------------------


class TestVectorizedPieces:
    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_plug_in_matches_model_loglik(self, model, busy_data, busy_chains):
        data, _ = busy_data
        chain = busy_chains[model]
        latent = chain.latent_at(17)
        vals = plug_in_loglik_draws(model, data, latent, chain.params)
        for d in (0, 3, 111, chain.n_draws - 1):
            exact = log_likelihood(model, data, chain.params_at(d), latent)
            assert vals[d] == pytest.approx(exact, abs=1e-8)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_latent_prior_matches_model(self, model, busy_data, busy_chains):
        data, _ = busy_data
        chain = busy_chains[model]
        latent = chain.latent_at(5)
        vals = _latent_log_prior_draws(
            model, latent, data, chain.params["psi"], chain.params.get("theta")
        )
        for d in (0, 50, 200):
            exact = log_latent_prior(model, latent, chain.params_at(d), data.statespace)
            assert vals[d] == pytest.approx(exact, abs=1e-10)

    def test_invalid_pinned_latent_gives_zero_likelihood(self, busy_data, busy_chains):
        data, _ = busy_data
        chain = busy_chains[ModelId.M4]
        latent = chain.latent_at(0)
        captured_row = int(np.flatnonzero(data.y1.sum(axis=(1, 2)) > 0)[0])
        latent.z[captured_row] = 0
        vals = plug_in_loglik_draws(ModelId.M4, data, latent, chain.params)
        assert np.all(np.isneginf(vals))

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_jacobian_matches_scalar_version(self, model, busy_chains):
        chain = busy_chains[model]
        v = transformed_param_draws(chain)
        upper = _scale_upper_bounds(model, chain.prior)
        vec = _log_jacobian_draws(v, upper)
        for d in (0, 7, 123):
            assert vec[d] == pytest.approx(
                transform_log_jacobian(v[d], model, chain.prior), abs=1e-12
            )

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_underflowing_kernel_matches_oracle(self, model):
        # the second trap is so far away that exp(-d^2 / (2 sigma^2)) == 0.0
        traps = TrapGrid(np.array([[0.0, 0.0], [200.0, 0.0]]))
        assert np.exp(-(200.0**2) / (2 * 0.6**2)) == 0.0
        space = StateSpace(-1.0, 2.0, -1.0, 2.0)
        params = ModelParams(psi=0.4, theta=0.6, phi=0.7, omega0=0.25, p0=0.3,
                             sigma=0.5, sigma_m=0.6, sigma_f=0.35)
        latent = LatentState(z=np.array([1, 1, 0]), u=np.array([1, 0, 0]),
                             s=np.array([[0.2, 0.1], [0.5, -0.3], [1.0, 1.0]]),
                             perm=np.array([0, 2, 1]))
        draws = {k: np.full(3, params[k]) for k in active_param_names(model)}
        for far_capture in (0, 1):
            y1 = np.zeros((3, 2, 2), dtype=np.uint8)
            y2 = np.zeros((3, 2, 2), dtype=np.uint8)
            y1[0, 0, 0] = y2[0, 0, 0] = y1[1, 0, 1] = y2[2, 0, 0] = 1  # row 2 is 1's
            y1[1, 1, 0] = far_capture
            data = CaptureDataset(y1, y2, 1, np.full(3, -1), traps, space)
            want = brute_log_likelihood(
                model.value, y1.tolist(), y2.tolist(), 1, latent.z.tolist(),
                latent.u.tolist(), latent.s.tolist(), latent.perm.tolist(),
                traps.locations.tolist(), {k: params[k] for k in active_param_names(model)}, 2,
            )
            got = [
                per_individual_log_likelihood(model, data, params, latent).sum(),
                log_likelihood(model, data, params, latent),
                *plug_in_loglik_draws(model, data, latent, draws),
            ]
            if far_capture:
                assert want == -math.inf and all(g == -math.inf for g in got)
            else:
                assert math.isfinite(want)
                assert got == pytest.approx([want] * 5, rel=1e-12)

    def test_transformed_draws_match_scalar_transform(self, busy_chains):
        chain = busy_chains[ModelId.M1]
        v = transformed_param_draws(chain)
        for d in (0, 99):
            ref = to_transformed(chain.params_at(d), ModelId.M1, chain.prior)
            assert np.allclose(v[d], ref, atol=1e-12)


# ---------------------------------------------------------------------------
# Posterior-mode refinement
# ---------------------------------------------------------------------------


def _stub_chain(model, prior, params_list, latents, data):
    """Build a chain whose recorded values come from the model functions."""
    from secrsel.model import active_param_names

    n = len(params_list)
    params = {
        k: np.array([getattr(p, k) for p in params_list])
        for k in active_param_names(model)
    }
    loglik = np.array(
        [log_likelihood(model, data, p, l) for p, l in zip(params_list, latents)]
    )
    logprior = np.array(
        [
            log_prior(model, p, prior) + log_latent_prior(model, l, p, data.statespace)
            for p, l in zip(params_list, latents)
        ]
    )
    perind = np.stack(
        [per_individual_log_likelihood(model, data, p, l) for p, l in zip(params_list, latents)]
    )
    return Chain(
        model=model,
        prior=prior,
        seed=0,
        n_iter=n,
        burn_in=0,
        params=params,
        z=np.stack([l.z for l in latents]).astype(np.uint8),
        u=np.stack([l.u for l in latents]).astype(np.uint8),
        s=np.stack([l.s for l in latents]),
        perm=np.stack([l.perm for l in latents]).astype(np.int32),
        loglik=loglik,
        logprior=logprior,
        perind=perind,
        accept={},
    )


def _cross_pair_setup():
    traps = TrapGrid(np.array([[0.7, 1.0], [1.3, 1.0]]))
    space = StateSpace(0.0, 2.0, 0.0, 2.0)
    m, j, k = 4, 2, 3
    y1 = np.zeros((m, j, k), np.uint8)
    y2 = np.zeros((m, j, k), np.uint8)
    y1[0, 0, :] = 1
    y2[0, 0, :2] = 1
    y1[1, 1, :2] = 1
    y2[1, 1, 0] = 1
    data = CaptureDataset(
        y1=y1, y2=y2, n_full=2, u_obs=np.full(m, -1, np.int8), traps=traps, statespace=space
    )
    good_latent = LatentState(
        z=np.array([1, 1, 0, 0]),
        u=np.zeros(m, np.int8),
        s=np.array([[0.7, 1.0], [1.3, 1.0], [1.0, 1.0], [1.0, 1.0]]),
        perm=np.arange(m),
    )
    bad_latent = LatentState(
        z=np.array([1, 1, 1, 1]),
        u=np.zeros(m, np.int8),
        s=np.array([[1.9, 1.9], [1.9, 0.1], [0.1, 1.9], [0.1, 0.1]]),
        perm=np.arange(m),
    )
    good_params = ModelParams(psi=0.5, p0=0.7, sigma=0.4)
    bad_params = ModelParams(psi=0.5, p0=0.02, sigma=0.4)
    return data, good_latent, bad_latent, good_params, bad_params


class TestMapRefine:
    def test_single_draw_chain(self, busy_data):
        data, _ = busy_data
        chain = fit(ModelId.M4, data, McmcConfig(n_iter=2, burn_in=1, seed=1))
        assert chain.n_draws == 1
        est = map_refine(chain, data)
        assert est.n_rounds == 1
        assert est.mu_p_hat.p0 == chain.params["p0"][0]
        assert np.array_equal(est.mu_s_hat.z, chain.z[0])
        stored = float(chain.loglik[0] + chain.logprior[0])
        assert est.achieved == pytest.approx(stored, abs=1e-9)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_achieved_at_least_best_draw(self, model, busy_data, busy_chains):
        data, _ = busy_data
        chain = busy_chains[model]
        est = map_refine(chain, data)
        best = float(np.max(chain.loglik + chain.logprior))
        assert est.achieved >= best - 1e-9
        assert est.n_rounds >= 1
        # the scalar estimate is one of the visited draws
        matches = np.flatnonzero(
            np.all(chain.param_matrix() == est.mu_p_hat.as_vector(model), axis=1)
        )
        assert matches.size > 0
        # stored loglik matches a fresh evaluation at the returned state
        assert est.loglik == log_likelihood(model, data, est.mu_p_hat, est.mu_s_hat)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_carried_sweep_is_a_fresh_sweep(self, model, busy_data, busy_chains):
        import dataclasses

        data, _ = busy_data
        chain = busy_chains[model]
        est = map_refine(chain, data)
        fresh = plug_in_loglik_draws(model, data, est.mu_s_hat, chain.params)
        assert np.array_equal(est.plug_in_loglik, fresh)
        # gd_map reads the carried sweep only for the draws it was made over
        copy = dataclasses.replace(chain, params=dict(chain.params))
        kind = TuningKind("normal")
        assert gd_map(chain, data, kind, est).value == gd_map(copy, data, kind, est).value

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_joint_at_latents_is_per_draw_log_likelihood(self, model, busy_data, busy_chains):
        import dataclasses

        data, _ = busy_data
        chain = busy_chains[model]
        z, perm = chain.z.copy(), chain.perm.copy()
        z[1, np.flatnonzero(data.y1.any(axis=(1, 2)))[0]] = 0  # a captured row excluded
        perm[2, [0, data.n_full]] = perm[2, [data.n_full, 0]]  # a linked row unpinned
        chain = dataclasses.replace(chain, z=z, perm=perm)
        params = chain.params_at(7)
        want = _latent_log_prior(
            model, chain.z, chain.u, params.psi, params.theta, data.statespace.area
        ) + log_prior(model, params, chain.prior)
        for d in range(chain.n_draws):
            want[d] += log_likelihood(model, data, params, chain.latent_at(d))
        got = _joint_at_latents(chain, data, params)
        assert np.isneginf(got[1]) and np.isneginf(got[2])
        assert np.array_equal(got, want)

    def test_cross_pairing_beats_both_draws(self):
        data, good_latent, bad_latent, good_params, bad_params = _cross_pair_setup()
        prior = PriorSpec()

        def joint(p, l):
            return (
                log_likelihood(ModelId.M4, data, p, l)
                + log_prior(ModelId.M4, p, prior)
                + log_latent_prior(ModelId.M4, l, p, data.statespace)
            )

        # draw 1 pairs bad scalars with the good latent state, draw 2 the reverse
        chain = _stub_chain(
            ModelId.M4,
            prior,
            [bad_params, good_params],
            [good_latent, bad_latent],
            data,
        )
        cross = joint(good_params, good_latent)
        assert cross > max(joint(bad_params, good_latent), joint(good_params, bad_latent))
        est = map_refine(chain, data)
        assert est.mu_p_hat.p0 == good_params.p0
        assert np.array_equal(est.mu_s_hat.z, good_latent.z)
        assert np.allclose(est.mu_s_hat.s, good_latent.s)
        assert est.achieved == pytest.approx(cross, abs=1e-9)
        assert est.n_rounds >= 2

    def test_empty_chain_rejected(self, busy_data, busy_chains):
        data, _ = busy_data
        chain = busy_chains[ModelId.M4]
        import dataclasses

        empty = dataclasses.replace(
            chain,
            params={k: v[:0] for k, v in chain.params.items()},
            z=chain.z[:0],
            u=chain.u[:0],
            s=chain.s[:0],
            perm=chain.perm[:0],
            loglik=chain.loglik[:0],
            logprior=chain.logprior[:0],
            perind=chain.perind[:0],
        )
        with pytest.raises(ValueError):
            map_refine(empty, data)


# ---------------------------------------------------------------------------
# Integrated likelihood
# ---------------------------------------------------------------------------


def _micro_dataset(seed, m=3, n_full=1):
    r = np.random.default_rng(seed)
    traps = TrapGrid(np.array([[0.6, 0.9], [1.4, 1.1]]))
    space = StateSpace(0.0, 2.0, 0.0, 2.0, grid_resolution=1.0)
    y1 = (r.random((m, 2, 2)) < 0.35).astype(np.uint8)
    y2 = (r.random((m, 2, 2)) < 0.35).astype(np.uint8)
    y1[m - 1] = 0
    y2[m - 1] = 0
    return CaptureDataset(
        y1=y1, y2=y2, n_full=n_full, u_obs=np.full(m, -1, np.int8), traps=traps, statespace=space
    )


_MICRO_PARAMS = {
    ModelId.M1: ModelParams(psi=0.45, theta=0.6, phi=0.55, omega0=0.3, sigma_m=0.7, sigma_f=0.4),
    ModelId.M2: ModelParams(psi=0.45, theta=0.6, p0=0.35, sigma_m=0.7, sigma_f=0.4),
    ModelId.M3: ModelParams(psi=0.45, phi=0.55, omega0=0.3, sigma=0.5),
    ModelId.M4: ModelParams(psi=0.45, p0=0.35, sigma=0.5),
}


class TestIntegratedLikelihood:
    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_matches_enumeration_oracle(self, model):
        params = _MICRO_PARAMS[model]
        for seed in range(4):
            data = _micro_dataset(seed)
            cells = data.statespace.grid_cells()
            for trial in range(2):
                tail = np.random.default_rng(50 + trial).permutation(
                    data.n_augmented - data.n_full
                )
                perm = np.concatenate([np.arange(data.n_full), data.n_full + tail])
                mine = integrated_log_likelihood(model, data, params, perm)
                oracle = brute_integrated_log_likelihood(
                    model.value,
                    data.y1.tolist(),
                    data.y2.tolist(),
                    data.n_full,
                    perm.tolist(),
                    [tuple(t) for t in data.traps.locations],
                    {
                        k: getattr(params, k)
                        for k in (
                            "psi",
                            "theta",
                            "phi",
                            "omega0",
                            "p0",
                            "sigma",
                            "sigma_m",
                            "sigma_f",
                        )
                    },
                    data.n_occasions,
                    [tuple(c) for c in cells],
                )
                assert mine == pytest.approx(oracle, abs=1e-8)

    def test_uncaptured_row_closed_form(self):
        # all-empty dataset: every row contributes (1-psi) + psi * mean_g prod_j (1-p_j)^2K
        m, k = 5, 3
        traps = TrapGrid(np.array([[0.5, 0.5], [1.5, 1.5]]))
        space = StateSpace(0.0, 2.0, 0.0, 2.0, grid_resolution=0.5)
        data = CaptureDataset(
            y1=np.zeros((m, 2, k), np.uint8),
            y2=np.zeros((m, 2, k), np.uint8),
            n_full=0,
            u_obs=np.full(m, -1, np.int8),
            traps=traps,
            statespace=space,
        )
        params = ModelParams(psi=0.3, p0=0.4, sigma=0.6)
        cells = space.grid_cells()
        d2 = ((cells[:, None, :] - traps.locations[None, :, :]) ** 2).sum(axis=2)
        p = params.p0 * np.exp(-d2 / (2 * params.sigma**2))
        per_cell = np.prod((1.0 - p) ** (2 * k), axis=1)
        row = (1.0 - params.psi) + params.psi * per_cell.mean()
        expected = m * math.log(row)
        got = integrated_log_likelihood(ModelId.M4, data, params, np.arange(m))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_observed_sex_restricts_the_sex_sum(self):
        # independent mini-oracle with explicit loops, including observed sexes
        data = _micro_dataset(2, m=3, n_full=1)
        data.u_obs[0] = 1
        params = _MICRO_PARAMS[ModelId.M2]
        cells = data.statespace.grid_cells()
        k = data.n_occasions
        perm = np.arange(3)
        a = data.y1.sum(axis=2)
        b = np.zeros_like(a)
        b[perm] = data.y2.sum(axis=2)
        o = np.zeros_like(a)
        for row in range(3):
            o[perm[row]] = np.einsum("jk,jk->j", data.y1[perm[row]], data.y2[row])
        total = 0.0
        for i in range(3):
            u_values = [data.u_obs[i]] if data.u_obs[i] >= 0 else [0, 1]
            row_sum = 0.0
            for u in u_values:
                w = params.theta if u == 1 else 1.0 - params.theta
                sigma = params.sigma_m if u == 1 else params.sigma_f
                avg = 0.0
                for cell in cells:
                    d2 = ((cell - data.traps.locations) ** 2).sum(axis=1)
                    p = params.p0 * np.exp(-d2 / (2 * sigma**2))
                    y = (a + b)[i]
                    lik = float(np.prod(p**y * (1 - p) ** (2 * k - y)))
                    avg += lik / len(cells)
                captured = (a + b)[i].sum() > 0
                if captured:
                    row_sum += w * params.psi * avg
                else:
                    row_sum += w * ((1.0 - params.psi) + params.psi * avg)
            total += math.log(row_sum)
        got = integrated_log_likelihood(ModelId.M2, data, params, perm)
        assert got == pytest.approx(total, abs=1e-10)

    def test_grid_refinement_deltas_shrink(self):
        data = _micro_dataset(1)
        params = _MICRO_PARAMS[ModelId.M3]
        vals = {
            res: integrated_log_likelihood(
                ModelId.M3, data, params, np.arange(3), resolution=res
            )
            for res in (1.0, 0.5, 0.25, 0.125)
        }
        d1 = abs(vals[0.5] - vals[1.0])
        d2 = abs(vals[0.25] - vals[0.5])
        d3 = abs(vals[0.125] - vals[0.25])
        assert d1 >= d2 >= d3

    def test_bad_permutation_rejected(self):
        data = _micro_dataset(0)
        with pytest.raises(ValueError):
            integrated_log_likelihood(
                ModelId.M4, data, _MICRO_PARAMS[ModelId.M4], np.zeros(3, int)
            )

    def test_empty_grid_rejected(self):
        data = _micro_dataset(0)
        with pytest.raises(ValueError):
            integrated_log_likelihood(
                ModelId.M4, data, _MICRO_PARAMS[ModelId.M4], np.arange(3), resolution=3.0
            )


# ---------------------------------------------------------------------------
# The three estimators and their identities
# ---------------------------------------------------------------------------


class TestEstimatorIdentities:
    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_prior_tuning_equals_harmonic_mean_bitwise(self, model, busy_data, busy_chains):
        data, _ = busy_data
        chain = busy_chains[model]
        hm = harmonic_mean(chain)
        gd = gd_map(chain, data, PRIOR_TUNING)
        assert gd.value == hm.value
        assert gd.mc_se == hm.mc_se
        assert (gd.n_draws, gd.n_dropped) == (hm.n_draws, hm.n_dropped)
        assert gd.method == "GD-MAP" and gd.tuning == "prior"
        assert hm.method == "HM" and hm.tuning == "none"

    def test_gd_il_prior_is_harmonic_mean_of_integrated_likelihoods(
        self, busy_data, busy_chains
    ):
        data, _ = busy_data
        chain = busy_chains[ModelId.M4]
        il = integrated_loglik_draws(chain, data)
        direct = marginal_from_log_ratios(-il, "GD-IL", "prior")
        est = gd_il(chain, data, PRIOR_TUNING, il_values=il)
        assert est.value == direct.value and est.mc_se == direct.mc_se

    def test_flat_likelihood_chain_gives_zero(self, busy_data):
        data, _ = busy_data
        chain = fit(
            ModelId.M4, data, McmcConfig(n_iter=60, burn_in=10, seed=2, flat_likelihood=True)
        )
        assert harmonic_mean(chain).value == 0.0

    def test_degenerate_latent_links_gd_map_and_gd_il(self):
        # all rows captured and fully identified, one-cell grid: the latent
        # state is a point mass, so the two estimators differ exactly by the
        # pinned latent prior density (M log area + log M!).
        m, k = 4, 4
        traps = TrapGrid(np.array([[0.8, 1.0], [1.2, 1.0]]))
        space = StateSpace(0.0, 2.0, 0.0, 2.0, grid_resolution=2.0)
        rng = np.random.default_rng(8)
        y1 = (rng.random((m, 2, k)) < 0.5).astype(np.uint8)
        y2 = (rng.random((m, 2, k)) < 0.5).astype(np.uint8)
        for i in range(m):  # force every row captured on detector 1
            y1[i, i % 2, 0] = 1
        data = CaptureDataset(
            y1=y1, y2=y2, n_full=m, u_obs=np.full(m, -1, np.int8), traps=traps, statespace=space
        )
        grid = space.grid_cells()
        assert grid.shape == (1, 2)
        chain = fit(
            ModelId.M4,
            data,
            McmcConfig(n_iter=800, burn_in=200, seed=3, s_grid=grid),
        )
        assert np.all(chain.z == 1)
        est = map_refine(chain, data)
        assert np.allclose(est.mu_s_hat.s, grid[0])
        a = gd_map(chain, data, TuningKind("normal"), est)
        b = gd_il(chain, data, TuningKind("normal"), resolution=2.0)
        offset = m * math.log(space.area) + math.lgamma(m + 1)
        assert b.value == pytest.approx(a.value + offset, abs=1e-8)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_gd_map_all_tunings_finite(self, model, busy_data, busy_chains):
        data, _ = busy_data
        chain = busy_chains[model]
        est = map_refine(chain, data)
        for kind in tuning_grid():
            r = gd_map(chain, data, kind, est)
            assert np.isfinite(r.value), kind.label
            assert r.mc_se >= 0.0
            assert r.n_draws + r.n_dropped == chain.n_draws
            assert r.tuning == kind.label and r.method == "GD-MAP"

    def test_gd_il_shares_precomputed_values(self, busy_data, busy_chains):
        data, _ = busy_data
        chain = busy_chains[ModelId.M3]
        il = integrated_loglik_draws(chain, data)
        a = gd_il(chain, data, TuningKind("normal"), il_values=il)
        b = gd_il(chain, data, TuningKind("normal"))
        assert a.value == b.value
        with pytest.raises(ValueError):
            gd_il(chain, data, TuningKind("normal"), il_values=il[:-1])

    def test_gd_map_draw_order_invariance(self, busy_data, busy_chains):
        import dataclasses

        data, _ = busy_data
        chain = busy_chains[ModelId.M4]
        rev = dataclasses.replace(
            chain,
            params={k: v[::-1].copy() for k, v in chain.params.items()},
            z=chain.z[::-1].copy(),
            u=chain.u[::-1].copy(),
            s=chain.s[::-1].copy(),
            perm=chain.perm[::-1].copy(),
            loglik=chain.loglik[::-1].copy(),
            logprior=chain.logprior[::-1].copy(),
            perind=chain.perind[::-1].copy(),
        )
        est = map_refine(chain, data)
        est_rev = map_refine(rev, data)
        assert est_rev.achieved == pytest.approx(est.achieved, abs=1e-9)
        for kind in (TuningKind("normal"), TuningKind("t", df=10)):
            a = gd_map(chain, data, kind, est)
            b = gd_map(rev, data, kind, est_rev)
            assert abs(a.value - b.value) < 1e-9

    def test_harmonic_mean_excludes_zero_likelihood_draws(self, busy_data, busy_chains):
        import dataclasses

        data, _ = busy_data
        chain = busy_chains[ModelId.M4]
        loglik = chain.loglik.copy()
        loglik[3] = -math.inf
        broken = dataclasses.replace(chain, loglik=loglik)
        with pytest.warns(RuntimeWarning, match="dropped 1"):
            est = harmonic_mean(broken)
        assert est.n_dropped == 1
        assert est.n_draws == chain.n_draws - 1
