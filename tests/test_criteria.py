"""Information criteria: hand-checked values, sign constraints, predictive loss."""

import math

import numpy as np
import pytest

from secrsel.criteria import CriterionResult, dic, posterior_predictive_loss, waic
from secrsel.errors import NumericalError
from secrsel.marglik import MapEstimate, map_refine
from secrsel.mcmc import Chain, McmcConfig, fit
from secrsel.model import (
    CaptureDataset,
    LatentState,
    ModelId,
    ModelParams,
    PriorSpec,
    StateSpace,
    TrapGrid,
)

from _oracles import replicate_ppl

ALL_MODELS = [ModelId.M1, ModelId.M2, ModelId.M3, ModelId.M4]


def _bare_chain(loglik, perind=None, m=1, model=ModelId.M4, z=None):
    """Chain stub carrying only the cached values the criteria read."""
    loglik = np.asarray(loglik, dtype=float)
    n = loglik.shape[0]
    if perind is None:
        perind = np.zeros((n, m))
    perind = np.asarray(perind, dtype=float)
    m = perind.shape[1]
    if z is None:
        z = np.zeros((n, m), np.uint8)
    return Chain(
        model=model,
        prior=PriorSpec(),
        seed=0,
        n_iter=n,
        burn_in=0,
        params={
            "psi": np.full(n, 0.5),
            "p0": np.full(n, 0.4),
            "sigma": np.full(n, 0.5),
        },
        z=np.asarray(z, np.uint8),
        u=np.zeros((n, m), np.uint8),
        s=np.full((n, m, 2), 1.0),
        perm=np.tile(np.arange(m, dtype=np.int32), (n, 1)),
        loglik=loglik,
        logprior=np.zeros(n),
        perind=perind,
        accept={},
    )


def _map_stub(loglik):
    latent = LatentState(
        z=np.zeros(1, np.int8), u=np.zeros(1, np.int8), s=np.ones((1, 2)), perm=np.zeros(1, int)
    )
    return MapEstimate(
        mu_p_hat=ModelParams(psi=0.5, p0=0.4, sigma=0.5),
        mu_s_hat=latent,
        achieved=loglik,
        n_rounds=1,
        loglik=loglik,
    )


class TestDic:
    def test_constant_chain_is_pure_deviance(self):
        ell = -12.5
        chain = _bare_chain(np.full(6, ell))
        for variant in (1, 2):
            res = dic(chain, _map_stub(ell), variant)
            assert res.criterion == f"DIC{variant}"
            assert res.penalty == pytest.approx(0.0, abs=1e-12)
            assert res.value == pytest.approx(-2 * ell, abs=1e-12)
            assert res.value == res.fit_term + res.penalty

    def test_two_draw_hand_values(self):
        ell = -4.0
        chain = _bare_chain(np.array([ell, ell - 2.0]))
        est = _map_stub(ell)
        res1 = dic(chain, est, 1)
        # p = 2 (mode - mean) = 2 (ell - (ell - 1)) = 2
        assert res1.penalty == pytest.approx(4.0, abs=1e-12)
        assert res1.fit_term == pytest.approx(-2 * ell, abs=1e-12)
        assert res1.value == pytest.approx(-2 * ell + 4.0, abs=1e-12)
        res2 = dic(chain, est, 2)
        # p = 2 var = 2 * 1
        assert res2.penalty == pytest.approx(4.0, abs=1e-12)
        assert res2.value == pytest.approx(-2 * ell + 4.0, abs=1e-12)

    def test_variant_validation(self):
        chain = _bare_chain(np.zeros(3))
        with pytest.raises(ValueError):
            dic(chain, _map_stub(0.0), 3)

    def test_dic2_penalty_nonnegative_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            chain = _bare_chain(rng.normal(size=rng.integers(2, 40)) * 10)
            assert dic(chain, _map_stub(0.0), 2).penalty >= 0.0


class TestWaic:
    def test_single_draw_zero_penalty(self):
        chain = _bare_chain(np.array([-3.0]), perind=np.array([[-1.0, -2.0]]))
        for variant in (1, 2, 3):
            res = waic(chain, variant)
            assert res.penalty == pytest.approx(0.0, abs=1e-12)
            assert res.fit_term == pytest.approx(2.0 * (1.0 + 2.0), abs=1e-12)

    def test_two_draw_hand_values(self):
        a = -1.5
        chain = _bare_chain(np.zeros(2), perind=np.array([[a], [a - 2.0]]))
        log_mean_lik = math.log((math.exp(a) + math.exp(a - 2.0)) / 2.0)
        fit = -2.0 * log_mean_lik
        res1 = waic(chain, 1)
        p1 = 2.0 * (log_mean_lik - (a - 1.0))
        assert res1.fit_term == pytest.approx(fit, abs=1e-12)
        assert res1.penalty == pytest.approx(2.0 * p1, abs=1e-12)
        assert res1.value == pytest.approx(fit + 2.0 * p1, abs=1e-12)
        res2 = waic(chain, 2)
        assert res2.penalty == pytest.approx(2.0 * 1.0, abs=1e-12)  # p = popvar = 1
        res3 = waic(chain, 3)
        assert res3.penalty == pytest.approx(2.0 * 2.0, abs=1e-12)  # p = 2 * mean|dev| = 2

    def test_penalties_nonnegative_random(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n, m = rng.integers(2, 30), rng.integers(1, 8)
            chain = _bare_chain(np.zeros(n), perind=rng.normal(size=(n, m)) * 5)
            for variant in (1, 2, 3):
                assert waic(chain, variant).penalty >= -1e-10, variant

    def test_all_zero_likelihood_row_errors_with_row_name(self):
        perind = np.zeros((3, 4))
        perind[:, 2] = -np.inf
        chain = _bare_chain(np.zeros(3), perind=perind)
        with pytest.raises(NumericalError, match="individual 2"):
            waic(chain, 1)

    def test_variant_validation(self):
        chain = _bare_chain(np.zeros(3))
        with pytest.raises(ValueError):
            waic(chain, 4)


class TestPosteriorPredictiveLoss:
    def _empty_data(self, m=5, j=2, k=3):
        return CaptureDataset(
            y1=np.zeros((m, j, k), np.uint8),
            y2=np.zeros((m, j, k), np.uint8),
            n_full=0,
            u_obs=np.full(m, -1, np.int8),
            traps=TrapGrid(np.array([[0.7, 0.7], [1.3, 1.3]])),
            statespace=StateSpace(0.0, 2.0, 0.0, 2.0),
        )

    def test_degenerate_replicates_give_zero(self):
        # every draw excludes every individual, so replicates equal the
        # all-empty data exactly
        data = self._empty_data()
        chain = _bare_chain(np.zeros(8), m=data.n_augmented)
        res = posterior_predictive_loss(chain, data)
        assert res.value == 0.0 and res.fit_term == 0.0 and res.penalty == 0.0

    def test_seed_reproducibility(self, busy_data, busy_chains):
        # the loss is exact: deterministic, and the mean of the estimate from
        # one simulated replicate per draw (within 4 of its standard errors)
        data, _ = busy_data
        rng = np.random.default_rng(2024)
        for model in (ModelId.M1, ModelId.M4):  # trap entry, direct detection
            chain = busy_chains[model]
            exact = posterior_predictive_loss(chain, data)
            assert posterior_predictive_loss(chain, data) == exact
            estimates = np.array([replicate_ppl(chain, data, rng) for _ in range(20)])
            se = estimates.std(ddof=1) / math.sqrt(estimates.size)
            assert abs(estimates.mean() - exact.value) <= 4.0 * se, (model, exact.value, estimates.mean(), se)

    @pytest.mark.parametrize("model", [ModelId.M3, ModelId.M4])
    def test_detector2_rows_follow_their_owners(self, model):
        # two individuals on one trap, owners of detector-2 rows swapped in
        # both draws; the mean baseline is 0.5 over the two draws
        k, sigma = 4, 0.5
        q = (0.5, 0.5 * math.exp(-0.5))  # centred on the trap; one sigma away
        data = CaptureDataset(
            y1=np.array([[[1, 1, 0, 0]], [[0, 0, 0, 0]]], np.uint8),
            y2=np.array([[[0, 1, 0, 0]], [[1, 1, 1, 0]]], np.uint8),
            n_full=0, u_obs=np.full(2, -1, np.int8),
            traps=TrapGrid(np.array([[1.0, 1.0]])), statespace=StateSpace(0.0, 2.0, 0.0, 2.0),
        )
        if model is ModelId.M3:
            params = {"psi": [0.9, 0.9], "phi": [0.8, 0.8], "omega0": [0.5, 0.75], "sigma": [sigma, sigma]}
        else:
            params = {"psi": [0.9, 0.9], "p0": [0.4, 0.6], "sigma": [sigma, sigma]}
        chain = Chain(
            model=model, prior=PriorSpec(), seed=0, n_iter=2, burn_in=0,
            params={name: np.array(v) for name, v in params.items()},
            z=np.ones((2, 2), np.uint8), u=np.zeros((2, 2), np.uint8),
            s=np.tile([[1.0, 1.0], [1.0 + sigma, 1.0]], (2, 1, 1)),
            perm=np.array([[1, 0], [1, 0]], np.int32),
            loglik=np.zeros(2), logprior=np.zeros(2), perind=np.zeros((2, 2)), accept={},
        )

        def sq_err(c, mu):  # sum over k occasions of (y - mu)^2 with c ones
            return c * (1 - mu) ** 2 + (k - c) * mu**2

        # y1 rows are individuals 0 and 1; y2 row 0 belongs to 1, row 1 to 0
        want_fit = sq_err(2, q[0]) + sq_err(0, q[1]) + sq_err(1, q[1]) + sq_err(3, q[0])
        want_penalty = 2 * k * (q[0] * (1 - q[0]) + q[1] * (1 - q[1]))
        res = posterior_predictive_loss(chain, data)
        assert res.fit_term == pytest.approx(want_fit, rel=1e-14)
        assert res.penalty == pytest.approx(want_penalty, rel=1e-14)
        unrouted = sq_err(2, q[0]) + sq_err(0, q[1]) + sq_err(1, q[0]) + sq_err(3, q[1])
        assert abs(res.fit_term - unrouted) > 0.1

    def test_value_structure(self, busy_data, busy_chains):
        data, _ = busy_data
        chain = busy_chains[ModelId.M1]
        res = posterior_predictive_loss(chain, data)
        assert res.value == pytest.approx(res.fit_term + res.penalty, abs=1e-9)
        assert res.penalty >= 0.0 and res.fit_term >= 0.0

    def test_empty_chain_rejected(self):
        data = self._empty_data()
        chain = _bare_chain(np.zeros(0), perind=np.zeros((0, data.n_augmented)))
        with pytest.raises(ValueError):
            posterior_predictive_loss(chain, data)


class TestOnRealChains:
    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_all_criteria_finite_and_consistent(self, model, busy_data, busy_chains):
        data, _ = busy_data
        chain = busy_chains[model]
        est = map_refine(chain, data)
        results = [
            dic(chain, est, 1),
            dic(chain, est, 2),
            waic(chain, 1),
            waic(chain, 2),
            waic(chain, 3),
            posterior_predictive_loss(chain, data),
        ]
        names = [r.criterion for r in results]
        assert names == ["DIC1", "DIC2", "WAIC1", "WAIC2", "WAIC3", "PPL"]
        for r in results:
            assert np.isfinite(r.value), r.criterion
            assert r.value == pytest.approx(r.fit_term + r.penalty, rel=1e-12)
        for r in results[1:]:  # all but DIC1 carry sign-constrained penalties
            assert r.penalty >= 0.0, r.criterion
