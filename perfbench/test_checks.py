"""Tests of the benchmark's own checks on inputs whose answer is known.

Run with ``python3 -m pytest perfbench``.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

import checks
from _oracles import brute_log_likelihood
from secrsel import io
from secrsel.criteria import posterior_predictive_loss
from secrsel.mcmc import Chain, McmcConfig, fit
from secrsel.model import CaptureDataset, ModelId, PriorSpec, StateSpace, TrapGrid
from secrsel.simulate import Scenario, make_trap_grid, simulate_dataset, SurveyDesign
from spans import Tracer


def _single_trap_data(k):
    return CaptureDataset(
        y1=np.zeros((1, 1, k), np.uint8), y2=np.zeros((1, 1, k), np.uint8),
        n_full=0, u_obs=np.full(1, -1, np.int8),
        traps=TrapGrid(np.array([[1.0, 1.0]])), statespace=StateSpace(0.0, 2.0, 0.0, 2.0),
    )


def _constant_chain(q, t):
    """One included individual on the single trap: every cell is Bernoulli(q)."""
    return Chain(
        model=ModelId.M4, prior=PriorSpec(), seed=0, n_iter=t, burn_in=0,
        params={"psi": np.full(t, 0.5), "p0": np.full(t, q), "sigma": np.full(t, 0.5)},
        z=np.ones((t, 1), np.uint8), u=np.zeros((t, 1), np.uint8),
        s=np.full((t, 1, 2), 1.0), perm=np.zeros((t, 1), np.int32),
        loglik=np.zeros(t), logprior=np.zeros(t), perind=np.zeros((t, 1)), accept={},
    )


@pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
def test_ppl_reference_is_q_per_cell_on_the_constant_chain(q):
    k, t = 25, 400
    d, se = checks.reference_ppl(_constant_chain(q, t), _single_trap_data(k))
    assert d / (2 * k) == pytest.approx(q, rel=1e-12)  # (0 - q)^2 + q (1 - q) = q
    assert se == pytest.approx(math.sqrt(4 * k * t * q * (1 - q)) / t)


@pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
def test_ppl_check_accepts_the_simulated_loss_and_rejects_a_biased_one(q):
    k, t = 25, 400
    chain, data = _constant_chain(q, t), _single_trap_data(k)
    value = posterior_predictive_loss(chain, data, seed=3).value
    cell = SimpleNamespace(criteria_rows=[{"model": "M4", "criterion": "PPL", "value": value}])
    checks.check_ppl(cell, {"M4": chain}, data)
    _, se = checks.reference_ppl(chain, data)
    cell.criteria_rows[0]["value"] = 2 * k * q + 10 * se
    with pytest.raises(checks.CheckFailed, match="^ppl"):
        checks.check_ppl(cell, {"M4": chain}, data)


def test_selection_ties_go_to_the_simpler_model():
    marginal = {"M1": -10.0, "M2": -10.0, "M3": -12.0, "M4": -11.0}
    assert checks.reference_selection(marginal, True) == ("M2", True)
    criteria = {"M1": 3.0, "M2": 4.0, "M3": 3.0, "M4": 5.0}
    assert checks.reference_selection(criteria, False) == ("M3", True)
    assert checks.reference_selection({"M1": 1.0, "M2": 2.0, "M3": 3.0, "M4": 4.0}, False) == ("M1", False)


def test_check_selections_names_a_wrong_pick():
    scores = {"hm": {"M1": -10.0, "M2": -10.0, "M3": -12.0, "M4": -11.0},
              "waic1": {"M1": 3.0, "M2": 4.0, "M3": 3.0, "M4": 5.0},
              "ppl": {"M1": math.nan, "M2": 1.0, "M3": 1.0, "M4": 1.0}}
    cell = SimpleNamespace(scores=scores, selected={"hm": "M2", "waic1": "M3", "ppl": ""},
                           tie={"hm": True, "waic1": True, "ppl": False})
    checks.check_selections(cell)
    cell.selected["hm"] = "M1"
    with pytest.raises(checks.CheckFailed, match="^selection: hm"):
        checks.check_selections(cell)


def test_harmonic_mean_and_waic_of_a_constant_chain():
    perind = np.tile(np.array([-1.5, -0.25, 0.0]), (50, 1))
    loglik = perind.sum(axis=1)
    assert checks.reference_harmonic_mean(loglik) == pytest.approx(-1.75, abs=1e-12)
    for variant in (1, 2, 3):
        value, penalty = checks.reference_waic(perind, variant)
        assert penalty == pytest.approx(0.0, abs=1e-12)
        assert value == pytest.approx(3.5, abs=1e-12)
    assert checks.reference_dic(loglik, 3.0, 2) == 3.0
    assert checks.reference_dic(loglik, 3.0, 1) == pytest.approx(3.0 + 4.0 * (-1.5 + 1.75))


def _tiny_design():
    space = StateSpace(0.0, 2.0, 0.0, 2.0, grid_resolution=0.5)
    return SurveyDesign(space, make_trap_grid(space, 0.4, 2, 2, 1.0, 1.0), n_occasions=3,
                        n_augmented=5, n_individuals=3, n_male=1)


@pytest.fixture(scope="module")
def tiny():
    data, _ = simulate_dataset(Scenario("t", 0.6, 0.6, 0.8, 0.5), _tiny_design(), seed=6)
    chains = {m.value: fit(m, data, McmcConfig(n_iter=60, burn_in=20, seed=2)) for m in ModelId}
    return data, chains


def test_reference_loglik_matches_the_brute_force_oracle(tiny):
    data, chains = tiny
    as_list = lambda a: a.tolist()
    for model, chain in chains.items():
        for d in (0, chain.n_draws - 1):
            params = {k: float(v[d]) for k, v in chain.params.items()}
            want = brute_log_likelihood(
                model, as_list(data.y1), as_list(data.y2), data.n_full, as_list(chain.z[d]),
                as_list(chain.u[d]), as_list(chain.s[d]), as_list(chain.perm[d]),
                as_list(data.traps.locations), params, data.n_occasions,
            )
            got = checks.reference_loglik(model, data, params, chain.z[d], chain.u[d], chain.s[d], chain.perm[d])
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_check_chain_passes_real_chains_and_names_broken_ones(tiny):
    data, chains = tiny
    for chain in chains.values():
        checks.check_chain(chain, data, 3.0)
    chain = chains["M3"]
    captured = int(np.flatnonzero(data.y1.any(axis=(1, 2)))[0])
    bad_z = Chain(**{**chain.__dict__, "z": chain.z.copy()})
    bad_z.z[0, captured] = 0
    with pytest.raises(checks.CheckFailed, match="^support"):
        checks.check_chain(bad_z, data, 3.0)
    bad_ll = Chain(**{**chain.__dict__, "loglik": chain.loglik + 1e-3})
    with pytest.raises(checks.CheckFailed, match="^loglik"):
        checks.check_chain(bad_ll, data, 3.0)


def test_round_trip_check_catches_a_flipped_bit(tiny, tmp_path):
    _, chains = tiny
    chain = chains["M1"]
    io.save_chain(tmp_path / "c", chain)
    loaded = io.load_chain(tmp_path / "c")
    checks.check_round_trip(chain, loaded)
    loaded.s.view(np.uint64)[0, 0, 0] ^= 1
    with pytest.raises(checks.CheckFailed, match="^round_trip: M1: s"):
        checks.check_round_trip(chain, loaded)


def test_self_times_telescope_to_the_parent_span():
    tracer = Tracer()
    layer = SimpleNamespace(inner=lambda: time.sleep(0.01))
    layer.outer = lambda: (layer.inner(), time.sleep(0.005))
    tracer.wrap(layer, "inner", "inner", lambda a, k, r: (3, {"model": "M4"}))
    tracer.wrap(layer, "outer", "outer")
    layer.outer()
    tracer.restore()
    inner, outer = sorted(tracer.spans, key=lambda s: s.name)
    own = tracer.self_times()
    assert inner.parent == outer.span_id and (inner.count, inner.attrs) == (3, {"model": "M4"})
    assert own[outer.span_id] + own[inner.span_id] == pytest.approx(outer.duration, abs=1e-9)
    assert own[outer.span_id] >= 0.004
    assert tracer.named("inner", model="M4") == [inner] and tracer.named("inner", model="M1") == []
