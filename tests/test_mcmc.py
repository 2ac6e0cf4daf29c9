"""Sampler validation: exactness on small cases, prior recovery, invariants."""

from functools import partial

import numpy as np
import pytest
from scipy import stats

from secrsel.mcmc import Chain, McmcConfig, _Sampler, audit_chain, fit
from secrsel.model import (
    CaptureDataset,
    ModelId,
    ModelParams,
    StateSpace,
    TrapGrid,
    _gaussian,
    _per_trap,
    _sigma_rows,
    detection_loglik,
    squared_distances,
)
from secrsel.simulate import Scenario, scaled_design, scaled_scenarios, simulate_dataset

from _oracles import enumerate_joint_posterior
from test_simulate import small_design

BUSY = Scenario("busy", 0.3, 0.8, 0.4, 0.25)


def empty_dataset(m=24) -> CaptureDataset:
    space = StateSpace(0.0, 2.0, 0.0, 2.0)
    traps = TrapGrid(np.array([[0.7, 0.7], [1.3, 1.3]]))
    return CaptureDataset(
        y1=np.zeros((m, 2, 3), dtype=np.int8),
        y2=np.zeros((m, 2, 3), dtype=np.int8),
        n_full=0,
        u_obs=np.full(m, -1, dtype=np.int8),
        traps=traps,
        statespace=space,
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            McmcConfig(n_iter=0)
        with pytest.raises(ValueError):
            McmcConfig(n_iter=10, burn_in=10)
        with pytest.raises(ValueError):
            McmcConfig(proposal_scales={"theta": 0.0})
        with pytest.raises(ValueError):
            McmcConfig(s_walk_scale=-1.0)
        with pytest.raises(ValueError):
            McmcConfig(s_grid=np.zeros((3, 3)))


class TestReproducibility:
    def test_same_seed_bitwise(self):
        data, _ = simulate_dataset(BUSY, small_design(), seed=5)
        cfg = McmcConfig(n_iter=120, burn_in=20, seed=77)
        a = fit(ModelId.M1, data, cfg)
        b = fit(ModelId.M1, data, McmcConfig(n_iter=120, burn_in=20, seed=77))
        for k in a.params:
            assert np.array_equal(a.params[k], b.params[k])
        for f in ("z", "u", "s", "perm", "loglik", "logprior", "perind"):
            assert np.array_equal(getattr(a, f), getattr(b, f)), f
        assert a.accept == b.accept
        c = fit(ModelId.M1, data, McmcConfig(n_iter=120, burn_in=20, seed=78))
        assert not np.array_equal(a.s, c.s)


class TestCacheConsistency:
    @pytest.mark.parametrize("model", [ModelId.M1, ModelId.M2, ModelId.M3, ModelId.M4])
    def test_audit_small(self, model):
        data, _ = simulate_dataset(BUSY, small_design(), seed=8)
        chain = fit(model, data, McmcConfig(n_iter=300, burn_in=50, seed=3))
        assert audit_chain(chain, data, fraction=0.1, rng=0) < 1e-8

    def test_audit_scaled(self):
        data, _ = simulate_dataset(scaled_scenarios()[1], scaled_design(), seed=1)
        chain = fit(ModelId.M1, data, McmcConfig(n_iter=400, burn_in=100, seed=4))
        assert audit_chain(chain, data, fraction=0.1, rng=0) < 1e-8

    @pytest.mark.parametrize("model", [ModelId.M1, ModelId.M2, ModelId.M3, ModelId.M4])
    def test_audit_exact_on_every_draw(self, model, busy_data, busy_chains):
        # the sampler and the model share one kernel, one set of counts and
        # one prior, so a fresh evaluation reproduces every cached value
        data, _ = busy_data
        assert audit_chain(busy_chains[model], data, fraction=1.0) == 0.0

    def test_audit_exact_where_pow_and_square_differ(self, busy_data):
        # libm pow(sigma, 2) and sigma * sigma differ in the last bit here; the
        # sampler refreshes its kernels from scalar and array sigmas alike
        sigma = 0.49016607984370186
        assert sigma**2 != np.square(np.array([sigma]))[0]
        data, _ = busy_data
        start = ModelParams(psi=0.5, phi=0.6, omega0=0.5, sigma=sigma)
        cfg = McmcConfig(n_iter=50, burn_in=0, seed=1, sample_scalars=False, init_params=start)
        chain = fit(ModelId.M3, data, cfg)
        assert audit_chain(chain, data, fraction=1.0) == 0.0


def fresh_caches(sampler, rows):
    """Distances, kernels and detection terms of `rows`, evaluated from scratch."""
    data, params = sampler.data, sampler.params
    dist2 = squared_distances(sampler.s[rows], data.traps)
    kernels = [_gaussian(dist2, sig) for sig in sampler._sigma_values()]
    sigma = _per_trap(_sigma_rows(sampler.model, params, sampler.u[rows]))
    b, o = data.counts.linked(sampler.perm)
    det = detection_loglik(
        sampler.model, _gaussian(dist2, sigma), data.counts.a[rows], b[rows], o[rows],
        data.n_occasions, params,
    )
    return dist2, kernels, det


class TestIncludedRowCaches:
    """Between z updates the sampler keeps only included rows' caches current."""

    @pytest.mark.parametrize("model", [ModelId.M1, ModelId.M2, ModelId.M3, ModelId.M4])
    @pytest.mark.parametrize("seed", [11, 9])  # 9 has unlinked detector-2 rows
    def test_caches_fresh_after_every_block(self, model, seed):
        data, _ = simulate_dataset(BUSY, small_design(), seed=seed)
        sampler = _Sampler(model, data, McmcConfig(n_iter=60, burn_in=0, seed=4))

        def assert_fresh(rows, where):
            dist2, kernels, det = fresh_caches(sampler, rows)
            assert np.array_equal(sampler.det[rows], det), where
            assert np.array_equal(sampler.dist2[rows], dist2), where
            for c, kernel in enumerate(kernels):
                assert np.array_equal(sampler.kernels[c, rows], kernel), where

        refresh_excluded = sampler._refresh_excluded
        z_entries = []

        def refresh_then_check():
            # entering the z draw, every free row's term must be current
            refresh_excluded()
            assert_fresh(np.flatnonzero(~sampler.captured), "z entry")
            z_entries.append(int((sampler.z == 0).sum()))

        sampler._refresh_excluded = refresh_then_check
        blocks = [("psi", sampler._update_psi)]
        blocks += [(n, partial(sampler._update_scalar, n)) for n in sampler.mh_names]
        blocks += [("z", sampler._update_z), ("u", sampler._update_u), ("s", sampler._update_s),
                   ("perm", sampler._update_perm)]
        for it in range(60):
            for name, block in blocks:
                block()
                assert np.array_equal(sampler.on, np.flatnonzero(sampler.z == 1))
                assert_fresh(sampler.on, (it, name))
        assert len(z_entries) == 60 and max(z_entries) > 0
        if seed == 9:
            assert sampler.n_prop["perm"] > 0


class TestInvariants:
    def test_forced_inclusions_and_links(self):
        data, _ = simulate_dataset(BUSY, small_design(), seed=9)
        assert data.n_full >= 2  # this seed produces several full identities
        chain = fit(ModelId.M1, data, McmcConfig(n_iter=300, burn_in=0, seed=5))
        b_rows = data.y2.sum(axis=2)
        a_any = data.y1.any(axis=(1, 2))
        row_nonzero = (b_rows > 0).any(axis=1)
        for d in range(0, chain.n_draws, 7):
            perm = chain.perm[d]
            assert np.array_equal(np.sort(perm), np.arange(30))
            assert np.array_equal(perm[: data.n_full], np.arange(data.n_full))
            captured = a_any | row_nonzero[np.argsort(perm)]
            assert chain.z[d][captured].all()
            assert chain.loglik[d] > -np.inf

    def test_observed_sexes_fixed(self):
        data, _ = simulate_dataset(BUSY, small_design(), seed=9)
        chain = fit(ModelId.M1, data, McmcConfig(n_iter=200, burn_in=0, seed=6))
        rows = np.flatnonzero(data.u_obs >= 0)
        assert (chain.u[:, rows] == data.u_obs[rows][None, :]).all()

    def test_acceptance_rates_sane(self):
        data, _ = simulate_dataset(BUSY, small_design(), seed=12)
        chain = fit(ModelId.M1, data, McmcConfig(n_iter=800, burn_in=100, seed=7))
        for name, rate in chain.accept.items():
            assert 0.01 < rate <= 1.0, (name, rate)
        for name in ("theta", "phi", "omega0", "sigma_m", "sigma_f"):
            assert chain.accept[name] < 0.95, name

    def test_null_swaps_not_counted_as_perm_proposals(self, busy_data, busy_chains):
        # every detector-2 row is empty, so no swap can change the likelihood
        chain = fit(ModelId.M4, empty_dataset(), McmcConfig(n_iter=20, burn_in=0, seed=3))
        assert "perm" not in chain.accept
        # captured detector-2 rows that are all fully identified cannot move
        data, _ = busy_data
        assert data.counts.row_nonzero.any() and not data.counts.row_nonzero[data.n_full:].any()
        assert busy_chains[ModelId.M4].accept["perm"] == 0.0

    def test_frozen_scalars(self):
        data = empty_dataset()
        start = ModelParams(psi=0.3, theta=0.6, phi=0.4, omega0=0.2,
                            sigma_m=0.5, sigma_f=0.25)
        cfg = McmcConfig(n_iter=50, burn_in=0, seed=1, sample_scalars=False,
                         init_params=start)
        chain = fit(ModelId.M1, data, cfg)
        for k, v in chain.params.items():
            assert (v == getattr(start, k)).all()

    def test_s_grid_mode(self):
        data = empty_dataset()
        grid = np.array([[0.5, 0.5], [1.5, 0.5], [1.0, 1.5]])
        chain = fit(ModelId.M4, data, McmcConfig(n_iter=60, burn_in=0, seed=2,
                                                 s_grid=grid))
        flat = chain.s.reshape(-1, 2)
        dists = np.abs(flat[:, None, :] - grid[None, :, :]).sum(axis=2)
        assert (dists.min(axis=1) == 0).all()


def flat_scales():
    # wide walks: the flattened target is the (broad) prior, and weakly
    # autocorrelated draws make the thinned KS tests honest
    return {k: 2.5 for k in ("theta", "phi", "omega0", "p0",
                             "sigma", "sigma_m", "sigma_f")}


class TestPriorRecovery:
    """With the likelihood flattened the posterior is the prior exactly."""

    def test_scalar_marginals(self):
        data = empty_dataset(m=24)
        cfg = McmcConfig(n_iter=20500, burn_in=500, seed=11, flat_likelihood=True,
                         proposal_scales=flat_scales())
        chain = fit(ModelId.M1, data, cfg)
        thin = slice(None, None, 20)
        for name in ("theta", "phi", "omega0"):
            d, p = stats.kstest(chain.params[name][thin], "uniform")
            assert p > 1e-3, (name, p)
        for name in ("sigma_m", "sigma_f"):
            d, p = stats.kstest(chain.params[name][thin], "uniform", args=(0, 3.0))
            assert p > 1e-3, (name, p)

    def test_inclusion_rate_gibbs_exact(self):
        """PIT of each psi draw against its Beta full conditional is iid uniform."""
        data = empty_dataset(m=24)
        cfg = McmcConfig(n_iter=4500, burn_in=500, seed=13, flat_likelihood=True,
                         proposal_scales=flat_scales())
        chain = fit(ModelId.M1, data, cfg)
        n_on = chain.z.sum(axis=1)
        pit = stats.beta.cdf(chain.params["psi"][1:], 1 + n_on[:-1],
                             1 + 24 - n_on[:-1])
        d, p = stats.kstest(pit, "uniform")
        assert p > 1e-3, p

    def test_latent_marginals(self):
        data = empty_dataset(m=24)
        cfg = McmcConfig(n_iter=8500, burn_in=500, seed=13, flat_likelihood=True,
                         proposal_scales=flat_scales())
        chain = fit(ModelId.M1, data, cfg)
        # given the scalars of their own iteration, z and u rows are exact
        # iid Bernoulli draws, so these centred means are martingale averages
        # with conditional variance p(1-p)/24 per step
        z_err = (chain.z.mean(axis=1) - chain.params["psi"]).mean()
        u_err = (chain.u.mean(axis=1) - chain.params["theta"]).mean()
        se = np.sqrt(1.0 / 6.0 / 24.0 / chain.n_draws)
        assert abs(z_err) < 5 * se, z_err
        assert abs(u_err) < 5 * se, u_err
        # centres uniform on the square: first and second moments, loose
        # bounds because the reflected walk mixes slowly
        sx = chain.s[:, :, 0]
        assert abs(sx.mean() - 1.0) < 0.06
        assert abs(sx.var() - 4.0 / 12.0) < 0.04
        # permutation exchangeable: each row equally likely to own row 0
        counts = np.bincount(chain.perm[::5, 0], minlength=24)
        assert stats.chisquare(counts).pvalue > 1e-3

    def test_nonuniform_prior_bound(self):
        from secrsel.model import PriorSpec

        data = empty_dataset(m=24)
        cfg = McmcConfig(n_iter=20500, burn_in=500, seed=17, flat_likelihood=True,
                         prior=PriorSpec(sigma_upper=1.5),
                         proposal_scales=flat_scales())
        chain = fit(ModelId.M1, data, cfg)
        assert chain.params["sigma_m"].max() < 1.5
        d, p = stats.kstest(chain.params["sigma_m"][::20], "uniform", args=(0, 1.5))
        assert p > 1e-3


class TestExactPosteriors:
    def test_conjugate_inclusion_rate(self):
        """All rows captured -> psi draws are iid Beta(1+M, 1)."""
        m = 20
        space = StateSpace(0.0, 2.0, 0.0, 2.0)
        traps = TrapGrid(np.array([[1.0, 1.0]]))
        y1 = np.zeros((m, 1, 2), dtype=np.int8)
        y1[:, 0, 0] = 1
        data = CaptureDataset(
            y1=y1,
            y2=np.zeros((m, 1, 2), dtype=np.int8),
            n_full=0,
            u_obs=np.tile([0, 1], m // 2).astype(np.int8),
            traps=traps,
            statespace=space,
        )
        chain = fit(ModelId.M1, data, McmcConfig(n_iter=2500, burn_in=500, seed=21))
        assert (chain.z == 1).all()
        d, p = stats.kstest(chain.params["psi"], stats.beta(1 + m, 1).cdf)
        assert p > 1e-3

    def test_inclusion_posterior_single_site(self):
        """Fixed scalars, one grid point: exact Bernoulli posterior for z."""
        m = 3
        space = StateSpace(0.0, 1.0, 0.0, 1.0)
        traps = TrapGrid(np.array([[0.4, 0.5], [0.8, 0.5]]))
        y1 = np.zeros((m, 2, 2), dtype=np.int8)
        y1[0, 0, 0] = 1
        data = CaptureDataset(
            y1=y1,
            y2=np.zeros((m, 2, 2), dtype=np.int8),
            n_full=0,
            u_obs=np.full(m, -1, dtype=np.int8),
            traps=traps,
            statespace=space,
        )
        params = ModelParams(psi=0.4, p0=0.3, sigma=0.5)
        grid = np.array([[0.5, 0.5]])
        cfg = McmcConfig(n_iter=21000, burn_in=1000, seed=23,
                         sample_scalars=False, init_params=params, s_grid=grid)
        chain = fit(ModelId.M4, data, cfg)
        d2 = ((grid[0] - traps.locations) ** 2).sum(axis=1)
        p_det = params.p0 * np.exp(-d2 / (2 * params.sigma**2))
        miss = float(np.prod((1 - p_det) ** 4))  # 2K trials per trap
        p_on = params.psi * miss / (params.psi * miss + 1 - params.psi)
        for i in (1, 2):
            est = chain.z[:, i].mean()
            se = np.sqrt(p_on * (1 - p_on) / chain.n_draws)
            assert abs(est - p_on) < 5 * se, (i, est, p_on)
        assert (chain.z[:, 0] == 1).all()

    def test_joint_enumeration_small(self):
        """Empirical (z, perm) law matches exhaustive enumeration."""
        m = 3
        space = StateSpace(0.0, 1.0, 0.0, 1.0)
        traps = TrapGrid(np.array([[0.3, 0.5], [0.7, 0.5]]))
        y1 = np.zeros((m, 2, 1), dtype=np.int8)
        y2 = np.zeros((m, 2, 1), dtype=np.int8)
        y1[0, 0, 0] = 1
        y2[0, 1, 0] = 1  # unlinked detector-2 record (different trap-occasion? k=1)
        data = CaptureDataset(
            y1=y1, y2=y2, n_full=0, u_obs=np.full(m, -1, dtype=np.int8),
            traps=traps, statespace=space,
        )
        params = ModelParams(psi=0.5, p0=0.4, sigma=0.4)
        cells = np.array([[0.35, 0.5]])
        cfg = McmcConfig(n_iter=42000, burn_in=2000, seed=29,
                         sample_scalars=False, init_params=params,
                         s_grid=cells)
        chain = fit(ModelId.M4, data, cfg)

        exact = enumerate_joint_posterior(
            "M4",
            y1.tolist(),
            y2.tolist(),
            data.n_full,
            [tuple(t) for t in traps.locations],
            {"psi": params.psi, "p0": params.p0, "sigma": params.sigma},
            1,
            [tuple(c) for c in cells],
        )
        counts: dict = {}
        for d in range(chain.n_draws):
            key = (tuple(chain.z[d].tolist()), tuple(chain.perm[d].tolist()))
            counts[key] = counts.get(key, 0) + 1
        tv = 0.0
        for key in set(exact) | set(counts):
            emp = counts.get(key, 0) / chain.n_draws
            tv += abs(emp - exact.get(key, 0.0))
        assert tv / 2 < 0.05, tv / 2
