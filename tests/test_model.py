"""Likelihood, prior, and transformation checks against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from _oracles import brute_latent_log_prior, brute_log_likelihood
from secrsel.mcmc import _reflect
from secrsel.model import (
    _COMP_FLOOR,
    CaptureDataset,
    LatentState,
    ModelId,
    ModelParams,
    PriorSpec,
    StateSpace,
    TrapGrid,
    active_param_names,
    detection_counts,
    detection_loglik,
    detection_loglik_uncaptured,
    detection_prob,
    from_transformed,
    log_latent_prior,
    log_likelihood,
    log_prior,
    per_individual_log_likelihood,
    reorder_by_permutation,
    squared_distances,
    to_transformed,
    transform_log_jacobian,
    trap_entry_prob,
)
from secrsel.simulate import scaled_design, standard_design

ALL_MODELS = [ModelId.M1, ModelId.M2, ModelId.M3, ModelId.M4]

SPACE = StateSpace(-1.0, 2.0, -1.0, 2.0, grid_resolution=0.5)
TRAPS = TrapGrid(np.array([[0.0, 0.0], [1.0, 0.0]]))

PARAMS = ModelParams(
    psi=0.4, theta=0.6, phi=0.7, omega0=0.25, p0=0.3,
    sigma=0.5, sigma_m=0.6, sigma_f=0.35,
)

# Values frozen from tests/_oracles.brute_log_likelihood on the pinned
# instance below; guards implementation and oracle against drifting together.
PINNED_LL = {
    ModelId.M1: -16.937276690217267,
    ModelId.M2: -13.507034473985556,
    ModelId.M3: -14.6021152913568,
    ModelId.M4: -11.348653943391984,
}


def pinned_instance():
    y1 = np.zeros((3, 2, 2), dtype=np.uint8)
    y1[0, 0, 0] = 1
    y1[0, 1, 1] = 1
    y1[1, 0, 1] = 1
    y2 = np.zeros((3, 2, 2), dtype=np.uint8)
    y2[0, 0, 0] = 1
    y2[1, 1, 0] = 1
    data = CaptureDataset(
        y1=y1, y2=y2, n_full=1,
        u_obs=np.array([1, -1, -1], dtype=np.int8),
        traps=TRAPS, statespace=SPACE,
    )
    latent = LatentState(
        z=np.array([1, 1, 0]),
        u=np.array([1, 0, 1]),
        s=np.array([[0.2, 0.3], [0.8, -0.1], [0.5, 0.5]]),
        perm=np.array([0, 1, 2]),
    )
    return data, latent


def as_lists(data):
    return data.y1.tolist(), data.y2.tolist(), [tuple(t) for t in data.traps.locations]


def params_dict(p):
    return {k: getattr(p, k) for k in
            ("psi", "theta", "phi", "omega0", "p0", "sigma", "sigma_m", "sigma_f")}


def random_micro_instance(rng):
    m = int(rng.integers(1, 5))
    j = int(rng.integers(1, 4))
    k = int(rng.integers(1, 4))
    y1 = (rng.random((m, j, k)) < 0.35).astype(np.uint8)
    y2 = (rng.random((m, j, k)) < 0.35).astype(np.uint8)
    traps = TrapGrid(rng.uniform(-0.5, 1.5, (j, 2)))
    n_full = int(rng.integers(0, m + 1)) if rng.random() < 0.5 else 0
    perm = np.concatenate([np.arange(n_full), n_full + rng.permutation(m - n_full)])
    data = CaptureDataset(
        y1=y1, y2=y2, n_full=n_full,
        u_obs=np.full(m, -1, dtype=np.int8), traps=traps, statespace=SPACE,
    )
    u = rng.integers(0, 2, m).astype(np.int8)
    s = rng.uniform(-1.0, 2.0, (m, 2))
    a, b, _ = detection_counts(data, perm)
    captured = (a > 0).any(1) | (b > 0).any(1)
    z = np.where(captured, 1, rng.integers(0, 2, m)).astype(np.int8)
    params = ModelParams(
        psi=rng.uniform(0.05, 0.95),
        theta=rng.uniform(0.05, 0.95),
        phi=rng.uniform(0.05, 0.95),
        omega0=rng.uniform(0.05, 0.95),
        p0=rng.uniform(0.05, 0.95),
        sigma=rng.uniform(0.1, 1.5),
        sigma_m=rng.uniform(0.1, 1.5),
        sigma_f=rng.uniform(0.1, 1.5),
    )
    return data, LatentState(z=z, u=u, s=s, perm=perm), params


class TestDetectionFunctions:
    def test_values_at_zero_distance(self):
        assert trap_entry_prob(0.3, 0.5, 0.0) == pytest.approx(0.3, abs=1e-15)
        assert detection_prob(0.45, 0.5, 0.0) == pytest.approx(0.45, abs=1e-15)

    def test_gaussian_decay(self):
        d = np.array([0.0, 0.25, 0.5, 1.0, 2.0])
        vals = trap_entry_prob(0.3, 0.5, d)
        assert np.all(np.diff(vals) < 0)
        expect = 0.3 * math.exp(-0.5**2 / (2 * 0.5**2))
        assert vals[2] == pytest.approx(expect, rel=1e-14)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            trap_entry_prob(0.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            trap_entry_prob(1.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            detection_prob(0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            detection_prob(0.5, 0.5, -0.1)


class TestSharedArithmetic:
    """Faster forms of shared arithmetic against the forms they replaced."""

    @pytest.mark.parametrize("design", [standard_design(), scaled_design()],
                             ids=["standard", "scaled"])
    def test_squared_distances_match_einsum(self, design):
        space, traps = design.statespace, design.traps
        rng = np.random.default_rng(44)
        lo = np.array([space.x_min, space.y_min])
        hi = np.array([space.x_max, space.y_max])
        inside = rng.uniform(lo, hi, (500, 2))
        corners = np.array([[space.x_min, space.y_min], [space.x_max, space.y_max],
                            [space.x_min, space.y_max], [space.x_max, space.y_min]])
        edges = np.column_stack([rng.uniform(lo[0], hi[0], 50), np.full(50, hi[1])])
        # points after the sampler's reflected walk, from far outside too
        walk = inside + rng.normal(0.0, 3.0, inside.shape)
        reflected = np.column_stack([_reflect(walk[:, 0], space.x_min, space.x_max),
                                     _reflect(walk[:, 1], space.y_min, space.y_max)])
        for pts in (inside, corners, edges, reflected, traps.locations, inside[0]):
            diff = np.atleast_2d(pts)[:, None, :] - traps.locations[None, :, :]
            want = np.einsum("ijk,ijk->ij", diff, diff)
            assert np.array_equal(squared_distances(pts, traps), want)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_uncaptured_form_matches_zero_counts(self, model):
        rng = np.random.default_rng(9)
        k_occ = 50
        kernel = rng.random((40, 160))
        kernel[0] = 0.0
        kernel[1] = 1.0
        kernel[2, ::3] = 0.0
        kernel[3, ::2] = 1.0
        zeros = np.zeros(kernel.shape, dtype=np.int64)
        floor = PARAMS.updated(phi=1.0, omega0=1.0, p0=1.0)  # comp = 0, floored
        got = {}
        for params in (PARAMS, floor, PARAMS.updated(omega0=1e-300, p0=1e-300)):
            want = detection_loglik(model, kernel, zeros, zeros, zeros, k_occ, params)
            got[params] = detection_loglik_uncaptured(model, kernel, k_occ, params)
            assert np.array_equal(got[params], want)
        if model.has_trap_entry:  # the floor keeps a certain entry finite
            assert got[floor][1] == pytest.approx(k_occ * 160 * math.log(_COMP_FLOOR), rel=1e-12)
        else:
            assert got[floor][1] == -math.inf
        # draw-batched scalars, as the estimators pass them
        batch = {k: np.array([[0.2], [0.7]]) for k in ("phi", "omega0", "p0")}
        want = detection_loglik(model, kernel[None], zeros, zeros, zeros, k_occ, batch)
        assert np.array_equal(detection_loglik_uncaptured(model, kernel[None], k_occ, batch), want)


class TestReorder:
    @given(st.permutations(list(range(6))))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, perm):
        rng = np.random.default_rng(0)
        y2 = rng.integers(0, 2, (6, 2, 3)).astype(np.uint8)
        perm = np.array(perm)
        linked = reorder_by_permutation(y2, perm)
        inverse = np.argsort(perm)
        assert np.array_equal(reorder_by_permutation(linked, inverse), y2)
        # row b of y2 lands at its owner
        for b in range(6):
            assert np.array_equal(linked[perm[b]], y2[b])

    def test_identity(self):
        y2 = np.arange(8).reshape(2, 2, 2).astype(np.uint8) % 2
        assert np.array_equal(reorder_by_permutation(y2, np.array([0, 1])), y2)

    def test_rejects_non_bijection(self):
        y2 = np.zeros((3, 1, 1), dtype=np.uint8)
        with pytest.raises(ValueError):
            reorder_by_permutation(y2, np.array([0, 0, 2]))


class TestDetectionCounts:
    def test_inclusion_exclusion_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            data, latent, _ = random_micro_instance(rng)
            a, b, o = detection_counts(data, latent.perm)
            assert np.all(o <= np.minimum(a, b))
            n = a + b - o
            assert np.all(n >= 0) and np.all(n <= data.n_occasions)


class TestLogLikelihood:
    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_pinned_value(self, model):
        data, latent = pinned_instance()
        val = log_likelihood(model, data, PARAMS, latent)
        assert val == pytest.approx(PINNED_LL[model], rel=1e-12)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_matches_brute_force_oracle(self, model):
        rng = np.random.default_rng(202)
        n_checked = 0
        for _ in range(60):
            data, latent, params = random_micro_instance(rng)
            got = log_likelihood(model, data, params, latent)
            y1l, y2l, traps = as_lists(data)
            want = brute_log_likelihood(
                model.value, y1l, y2l, data.n_full,
                latent.z.tolist(), latent.u.tolist(),
                [tuple(r) for r in latent.s], latent.perm.tolist(),
                traps, params_dict(params), data.n_occasions,
            )
            if math.isinf(want):
                assert got == -math.inf
            else:
                assert got == pytest.approx(want, rel=1e-10, abs=1e-10)
                n_checked += 1
        assert n_checked >= 40  # most random instances must be in-support

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_per_individual_sums_exactly(self, model):
        rng = np.random.default_rng(31)
        for _ in range(20):
            data, latent, params = random_micro_instance(rng)
            per = per_individual_log_likelihood(model, data, params, latent)
            assert per.shape == (data.n_augmented,)
            total = log_likelihood(model, data, params, latent)
            assert float(per.sum()) == total
            # excluded, never-captured individuals contribute exactly zero
            a, b, _ = detection_counts(data, latent.perm)
            idle = (latent.z == 0) & ~((a > 0).any(1) | (b > 0).any(1))
            assert np.all(per[idle] == 0.0)

    def test_excluded_individual_with_captures_is_impossible(self):
        data, latent = pinned_instance()
        bad = latent.copy()
        bad.z[0] = 0
        for model in ALL_MODELS:
            assert log_likelihood(model, data, PARAMS, bad) == -math.inf

    def test_unlinking_full_individual_is_impossible(self):
        data, latent = pinned_instance()
        bad = latent.copy()
        bad.perm = np.array([1, 0, 2])
        for model in ALL_MODELS:
            assert log_likelihood(model, data, PARAMS, bad) == -math.inf

    def test_prelinked_data_equals_permuted_data(self):
        # Re-sorting detector-2 rows by the permutation and using the identity
        # assignment must give the same density (no forced links involved).
        rng = np.random.default_rng(77)
        for model in ALL_MODELS:
            for _ in range(10):
                data, latent, params = random_micro_instance(rng)
                if data.n_full:
                    continue
                linked = reorder_by_permutation(data.y2, latent.perm)
                data2 = CaptureDataset(
                    y1=data.y1, y2=linked, n_full=0, u_obs=data.u_obs,
                    traps=data.traps, statespace=data.statespace,
                )
                ident = latent.copy()
                ident.perm = np.arange(data.n_augmented)
                assert log_likelihood(model, data2, params, ident) == pytest.approx(
                    log_likelihood(model, data, params, latent), rel=1e-12, abs=1e-12
                )

    def test_sex_factor_is_the_only_m1_m3_difference(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            data, latent, params = random_micro_instance(rng)
            shared = params.updated(sigma_m=params.sigma, sigma_f=params.sigma)
            ll3 = log_likelihood(ModelId.M3, data, shared, latent)
            ll1 = log_likelihood(ModelId.M1, data, shared, latent)
            on = latent.z == 1
            sex_terms = np.where(
                latent.u[on] == 1, math.log(shared.theta), math.log(1 - shared.theta)
            ).sum()
            if math.isfinite(ll3):
                assert ll1 == pytest.approx(ll3 + sex_terms, rel=1e-12, abs=1e-12)
            ll4 = log_likelihood(ModelId.M4, data, shared, latent)
            ll2 = log_likelihood(ModelId.M2, data, shared, latent)
            if math.isfinite(ll4):
                assert ll2 == pytest.approx(ll4 + sex_terms, rel=1e-12, abs=1e-12)

    def test_miss_only_probability_boundary(self):
        # phi = 1 makes a single-detector record impossible under trap entry
        data, latent = pinned_instance()
        p = PARAMS.updated(phi=1.0)
        assert log_likelihood(ModelId.M3, data, p, latent) == -math.inf


class TestPriors:
    def test_log_prior_values(self):
        prior = PriorSpec(sigma_upper=3.0)
        assert log_prior(ModelId.M4, PARAMS, prior) == pytest.approx(
            -math.log(3.0), rel=1e-14
        )
        assert log_prior(ModelId.M1, PARAMS, prior) == pytest.approx(
            -2 * math.log(3.0), rel=1e-14
        )
        outside = PARAMS.updated(sigma=3.5)
        assert log_prior(ModelId.M4, outside, prior) == -math.inf
        boundary = PARAMS.updated(phi=1.0)
        assert log_prior(ModelId.M3, boundary, prior) == -math.inf

    def test_latent_prior_single_individual(self):
        latent = LatentState(
            z=np.array([1]), u=np.array([0]),
            s=np.array([[0.5, 0.5]]), perm=np.array([0]),
        )
        got = log_latent_prior(ModelId.M4, latent, PARAMS, SPACE)
        want = math.log(PARAMS.psi) - math.log(SPACE.area)
        assert got == pytest.approx(want, rel=1e-14)

    def test_latent_prior_matches_oracle(self):
        rng = np.random.default_rng(4)
        for model in ALL_MODELS:
            for _ in range(20):
                _, latent, params = random_micro_instance(rng)
                got = log_latent_prior(model, latent, params, SPACE)
                want = brute_latent_log_prior(
                    model.value, latent.z.tolist(), latent.u.tolist(),
                    latent.s.tolist(), params.psi, params.theta, SPACE.area,
                    SPACE.contains(latent.s).tolist(),
                )
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_latent_prior_z_normalisation(self):
        # summing exp(prior) over all z vectors (fixed s, u, perm) must give 1
        # once the constant S and permutation terms are removed
        m = 3
        const = -m * math.log(SPACE.area) - math.lgamma(m + 1)
        total = 0.0
        for bits in range(2**m):
            z = np.array([(bits >> i) & 1 for i in range(m)], dtype=np.int8)
            latent = LatentState(
                z=z, u=np.zeros(m, dtype=np.int8),
                s=np.full((m, 2), 0.5), perm=np.arange(m),
            )
            total += math.exp(
                log_latent_prior(ModelId.M3, latent, PARAMS, SPACE) - const
            )
        assert total == pytest.approx(1.0, rel=1e-12)

    def test_latent_prior_edge_cases(self):
        m = 2
        all_on = LatentState(
            z=np.ones(m), u=np.zeros(m), s=np.full((m, 2), 0.5), perm=np.arange(m)
        )
        p_edge = PARAMS.updated(psi=1.0)
        want = -m * math.log(SPACE.area) - math.lgamma(m + 1)
        assert log_latent_prior(ModelId.M4, all_on, p_edge, SPACE) == pytest.approx(
            want, rel=1e-14
        )
        one_off = LatentState(
            z=np.array([1, 0]), u=np.zeros(m), s=np.full((m, 2), 0.5), perm=np.arange(m)
        )
        assert log_latent_prior(ModelId.M4, one_off, p_edge, SPACE) == -math.inf
        outside = LatentState(
            z=np.ones(m), u=np.zeros(m),
            s=np.array([[0.5, 0.5], [5.0, 5.0]]), perm=np.arange(m),
        )
        assert log_latent_prior(ModelId.M4, outside, PARAMS, SPACE) == -math.inf


class TestTransforms:
    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_roundtrip(self, model):
        prior = PriorSpec(sigma_upper=3.0)
        rng = np.random.default_rng(9)
        for _ in range(50):
            v = rng.normal(0, 2, len(active_param_names(model)))
            params = from_transformed(v, model, prior)
            back = to_transformed(params, model, prior)
            np.testing.assert_allclose(back, v, rtol=1e-9, atol=1e-9)

    def test_transformed_prior_density_integrates_to_one(self):
        # For each coordinate the transformed prior density is
        # prior(param(v)) * |jacobian factor|; its integral over R must be 1.
        prior = PriorSpec(sigma_upper=3.0)
        model = ModelId.M4
        names = active_param_names(model)
        base = np.zeros(len(names))
        at_zero = transform_log_jacobian(base, model, prior)
        for k, name in enumerate(names):
            upper = 3.0 if name == "sigma" else 1.0

            def density(vk, k=k, upper=upper):
                v = base.copy()
                v[k] = vk
                # isolate coordinate k's jacobian factor by differencing the
                # full jacobian against its value with v_k = 0 (factor 0.25u)
                log_jac_k = (
                    transform_log_jacobian(v, model, prior)
                    - at_zero
                    + math.log(0.25 * upper)
                )
                return math.exp(log_jac_k) / upper

            val, _ = integrate.quad(density, -40, 40)
            assert val == pytest.approx(1.0, abs=1e-6)

    def test_jacobian_is_sum_of_coordinate_terms(self):
        prior = PriorSpec(sigma_upper=3.0)
        model = ModelId.M1
        rng = np.random.default_rng(3)
        v = rng.normal(0, 1.5, 6)
        total = transform_log_jacobian(v, model, prior)
        parts = 0.0
        for k, name in enumerate(active_param_names(model)):
            upper = 3.0 if name.startswith("sigma") else 1.0
            sig = 1.0 / (1.0 + math.exp(-v[k]))
            parts += math.log(upper * sig * (1.0 - sig))
        assert total == pytest.approx(parts, rel=1e-12)

    def test_rejects_out_of_support(self):
        prior = PriorSpec(sigma_upper=3.0)
        with pytest.raises(ValueError):
            to_transformed(PARAMS.updated(sigma=3.5), ModelId.M4, prior)


class TestParamPlumbing:
    def test_active_names(self):
        assert active_param_names(ModelId.M1) == (
            "psi", "theta", "phi", "omega0", "sigma_m", "sigma_f"
        )
        assert active_param_names(ModelId.M4) == ("psi", "p0", "sigma")

    def test_vector_roundtrip(self):
        vec = PARAMS.as_vector(ModelId.M2)
        back = ModelParams.from_vector(ModelId.M2, vec)
        assert back.psi == PARAMS.psi and back.sigma_f == PARAMS.sigma_f
        assert math.isnan(back.sigma)  # inactive stays unset

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(psi=0.5).validate(ModelId.M4)  # p0, sigma missing
        with pytest.raises(ValueError):
            ModelParams.from_vector(ModelId.M4, [0.1, 0.2])
