"""Study orchestration: tools, seeds, selection, aggregation, checkpoints."""

import hashlib
import json
import math
import shutil
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from secrsel.errors import DataError, NumericalError
from secrsel.io import load_manifest, read_csv
from secrsel.mcmc import Chain, McmcConfig
from secrsel.model import ModelId, PriorSpec, StateSpace, active_param_names
from secrsel.simulate import Scenario, SurveyDesign, make_trap_grid
from secrsel.study import (
    COMPLEXITY_ORDER,
    MODEL_ORDER,
    RMSE_PARAMETERS,
    CellResult,
    StudyConfig,
    StudyResults,
    ToolId,
    average_rmse,
    correlation_matrix,
    derive_seed,
    evaluate_cell,
    run_study,
    select_model,
    selection_proportions,
    thin_chain,
)

CSV_NAMES = ["selections.csv", "rmse.csv", "correlations.csv", "marglik.csv", "criteria.csv"]


def mini_design() -> SurveyDesign:
    space = StateSpace(0.0, 2.0, 0.0, 2.0, grid_resolution=0.25)
    traps = make_trap_grid(space, 0.4, 3, 3, 0.6, 0.6)
    return SurveyDesign(space, traps, n_occasions=8, n_augmented=30,
                        n_individuals=12, n_male=5)


MINI_SCENARIOS = [Scenario("busy", 0.3, 0.8, 0.4, 0.25)]
MINI_MCMC = McmcConfig(n_iter=400, burn_in=100)


def run_mini(out_dir=None, **kwargs):
    return run_study(mini_design(), MINI_SCENARIOS, 2, MINI_MCMC, seed=42,
                     out_dir=out_dir, **kwargs)


@pytest.fixture(scope="session")
def mini_study(tmp_path_factory):
    out = tmp_path_factory.mktemp("mini_study")
    return run_mini(out), out


class TestToolId:
    def test_exactly_25_members(self):
        assert len(ToolId) == 25

    def test_family_partition(self):
        fams = {}
        for t in ToolId:
            fams.setdefault(t.family, []).append(t)
        assert len(fams["gd_map"]) == 9
        assert len(fams["gd_il"]) == 9
        assert len(fams["hm"]) == 1
        assert len(fams["dic"]) == 2
        assert len(fams["waic"]) == 3
        assert len(fams["ppl"]) == 1

    def test_tunings_cover_grid_and_exclude_prior(self):
        labels = [t.tuning.label for t in ToolId if t.family == "gd_map"]
        assert labels == ["normal", "t10", "t100", "t500", "t1000", "t10000",
                          "truncnorm90", "truncnorm95", "truncnorm99"]
        assert labels == [t.tuning.label for t in ToolId if t.family == "gd_il"]
        assert "prior" not in labels  # prior-tuned GD is the HM tool itself

    def test_preference_direction(self):
        for t in ToolId:
            assert t.higher_is_better == (t.family in ("gd_map", "gd_il", "hm"))
        assert ToolId.DIC1.tuning is None and ToolId.HM.tuning is None


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        a = derive_seed(42, "dataset", "busy", 0)
        assert a == derive_seed(42, "dataset", "busy", 0)
        others = [
            derive_seed(42, "dataset", "busy", 1),
            derive_seed(42, "dataset", "calm", 0),
            derive_seed(43, "dataset", "busy", 0),
            derive_seed(42, "chain", "busy", 0),
        ]
        assert a not in others and len(set(others)) == len(others)

    def test_int64_range(self):
        for i in range(100):
            s = derive_seed(i, "x", i)
            assert 0 <= s < 2 ** 63


class TestSelectModel:
    SCORES = {ModelId.M1: 3.0, ModelId.M2: 1.0, ModelId.M3: 4.0, ModelId.M4: 2.0}

    def test_directions(self):
        assert select_model(self.SCORES, higher_is_better=True) == (ModelId.M3, False)
        assert select_model(self.SCORES, higher_is_better=False) == (ModelId.M2, False)

    def test_tie_breaks_toward_simpler_and_flags(self):
        scores = {m: 1.0 for m in MODEL_ORDER}
        assert select_model(scores, True) == (ModelId.M4, True)
        assert select_model(scores, False) == (ModelId.M4, True)
        scores = {ModelId.M1: 5.0, ModelId.M2: 5.0, ModelId.M3: 1.0, ModelId.M4: 1.0}
        assert select_model(scores, True) == (ModelId.M2, True)
        assert COMPLEXITY_ORDER == (ModelId.M4, ModelId.M3, ModelId.M2, ModelId.M1)

    def test_identical_scores_identical_selection(self):
        assert select_model(dict(self.SCORES), True) == select_model(dict(self.SCORES), True)

    def test_rejects_nan_and_unknown_keys(self):
        with pytest.raises(ValueError):
            select_model({ModelId.M1: math.nan, ModelId.M2: 1.0}, True)
        with pytest.raises(ValueError):
            select_model({}, True)


def _stub_chain(params: dict, z=None, model=ModelId.M4):
    n = len(next(iter(params.values())))
    m = 3 if z is None else np.asarray(z).shape[1]
    z = np.zeros((n, m), np.uint8) if z is None else np.asarray(z, np.uint8)
    return Chain(
        model=model, prior=PriorSpec(), seed=0, n_iter=n, burn_in=0,
        params={k: np.asarray(v, float) for k, v in params.items()},
        z=z, u=np.zeros((n, m), np.uint8), s=np.zeros((n, m, 2)),
        perm=np.tile(np.arange(m, dtype=np.int32), (n, 1)),
        loglik=np.zeros(n), logprior=np.zeros(n), perind=np.zeros((n, m)),
        accept={},
    )


class TestThinChain:
    def test_identity_and_step(self):
        chain = _stub_chain({"psi": np.arange(10.0), "p0": np.arange(10.0) * 2,
                             "sigma": np.ones(10)})
        assert thin_chain(chain, 1) is chain
        thinned = thin_chain(chain, 3)
        assert thinned.n_draws == 4
        assert np.array_equal(thinned.params["psi"], [0.0, 3.0, 6.0, 9.0])
        assert thinned.z.shape == (4, 3) and thinned.s.shape == (4, 3, 2)
        with pytest.raises(ValueError):
            thin_chain(chain, 0)


class TestCorrelationMatrix:
    def test_diagonal_and_symmetry(self):
        rng = np.random.default_rng(3)
        chain = _stub_chain({"psi": rng.random(500), "p0": rng.random(500),
                             "sigma": rng.random(500)},
                            z=rng.integers(0, 2, (500, 4)))
        names = ("N", "psi", "p0", "sigma")
        corr = correlation_matrix(chain, names)
        assert np.allclose(np.diag(corr), 1.0)
        assert np.max(np.abs(corr - corr.T)) < 1e-12
        assert np.all(np.abs(corr) <= 1.0)

    def test_independent_sequences_near_zero(self):
        rng = np.random.default_rng(7)
        n = 10_000
        chain = _stub_chain({"psi": rng.random(n), "p0": rng.random(n),
                             "sigma": rng.random(n)})
        corr = correlation_matrix(chain, ("psi", "p0", "sigma"))
        off = corr[~np.eye(3, dtype=bool)]
        assert np.max(np.abs(off)) < 0.1  # 3/sqrt(n) Monte Carlo bound

    def test_zero_variance_marks_row_and_column(self):
        chain = _stub_chain({"psi": [0.1, 0.2, 0.3], "p0": [0.5, 0.5, 0.5],
                             "sigma": [1.0, 2.0, 1.5]})
        corr = correlation_matrix(chain, ("psi", "p0", "sigma"))
        assert np.isnan(corr[1]).all() and np.isnan(corr[:, 1]).all()
        assert corr[0, 0] == 1.0 and corr[2, 2] == 1.0
        assert np.isfinite(corr[0, 2])

    def test_requires_two_draws_and_known_names(self):
        chain = _stub_chain({"psi": [0.1], "p0": [0.2], "sigma": [1.0]})
        with pytest.raises(ValueError):
            correlation_matrix(chain, ("psi",))
        chain = _stub_chain({"psi": [0.1, 0.2], "p0": [0.2, 0.3], "sigma": [1.0, 2.0]})
        with pytest.raises(ValueError):
            correlation_matrix(chain, ("psi", "theta"))


class TestStudyConfigValidation:
    def test_rejects_bad_settings(self):
        design, scen = mini_design(), MINI_SCENARIOS
        with pytest.raises(ValueError):
            StudyConfig(design, scen, 0, MINI_MCMC, 1)
        with pytest.raises(ValueError):
            StudyConfig(design, scen, 1, MINI_MCMC, 1, thin=0)
        with pytest.raises(ValueError):
            StudyConfig(design, scen * 2, 1, MINI_MCMC, 1)
        with pytest.raises(ValueError):
            StudyConfig(design, scen, 1, MINI_MCMC, 1, tools=())
        with pytest.raises(ValueError):
            StudyConfig(design, [Scenario("a/b", 0.1, 0.5, 0.3, 0.2)], 1, MINI_MCMC, 1)

    def test_fingerprint_sensitivity(self):
        base = StudyConfig(mini_design(), MINI_SCENARIOS, 2, MINI_MCMC, 42)
        same = StudyConfig(mini_design(), MINI_SCENARIOS, 2, MINI_MCMC, 42)
        assert base.fingerprint() == same.fingerprint()
        assert base.fingerprint() != StudyConfig(
            mini_design(), MINI_SCENARIOS, 2, MINI_MCMC, 43).fingerprint()
        assert base.fingerprint() != StudyConfig(
            mini_design(), MINI_SCENARIOS, 3, MINI_MCMC, 42).fingerprint()
        assert base.fingerprint() != StudyConfig(
            mini_design(), MINI_SCENARIOS, 2, McmcConfig(n_iter=500, burn_in=100), 42
        ).fingerprint()
        assert base.fingerprint() != StudyConfig(
            mini_design(), MINI_SCENARIOS, 2, MINI_MCMC, 42, thin=2).fingerprint()


class TestRunStudy:
    def test_cells_complete_and_ordered(self, mini_study):
        results, _ = mini_study
        assert [(c.scenario_id, c.replicate) for c in results.cells] == [
            ("busy", 0), ("busy", 1)]
        assert results.failures == []
        for cell in results.cells:
            assert set(cell.scores) == {t.value for t in ToolId}
            for tool in ToolId:
                per_model = cell.scores[tool.value]
                assert set(per_model) == {m.value for m in MODEL_ORDER}
                assert all(np.isfinite(v) for v in per_model.values())
                assert cell.selected[tool.value] in {m.value for m in MODEL_ORDER}
            assert set(cell.mse["M1"]) == set(RMSE_PARAMETERS)
            assert set(cell.mse["M4"]) == {"psi", "N"}

    def test_selection_proportions_row_stochastic(self, mini_study):
        results, _ = mini_study
        for tool in ToolId:
            rows = selection_proportions(results, tool)
            assert [r["scenario"] for r in rows] == ["busy"]
            assert rows[0]["n"] == 2
            total = sum(rows[0][m.value] for m in MODEL_ORDER)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_average_rmse_markers(self, mini_study):
        results, _ = mini_study
        assert average_rmse(results, "busy", ModelId.M1, "N") > 0
        assert average_rmse(results, "busy", ModelId.M4, "theta") is None
        assert average_rmse(results, "busy", ModelId.M3, "sigma_m") is None
        with pytest.raises(ValueError):
            average_rmse(results, "busy", ModelId.M1, "sigma")  # no true value
        with pytest.raises(ValueError):
            average_rmse(results, "nope", ModelId.M1, "N")

    def test_csv_files_parse(self, mini_study):
        results, out = mini_study
        cols, rows = read_csv(out / "selections.csv", "selections")
        assert cols == ["scenario", "replicate", "tool", "score_M1", "score_M2",
                        "score_M3", "score_M4", "selected", "tie"]
        assert len(rows) == 2 * 25
        cols, rows = read_csv(out / "rmse.csv", "rmse")
        assert len(rows) == 4 * len(RMSE_PARAMETERS)
        applicable = [r for r in rows if r[3] != "NA"]
        assert {r[1] for r in applicable if r[2] == "theta"} == {"M1", "M2"}
        cols, rows = read_csv(out / "marglik.csv", "marglik")
        assert len(rows) == 2 * 4 * 19  # hm + 9 gd_map + 9 gd_il per model
        cols, rows = read_csv(out / "criteria.csv", "criteria")
        assert len(rows) == 2 * 4 * 6
        manifest = load_manifest(out)
        assert manifest["status"] == "ok"
        assert set(manifest["outputs"]) == set(CSV_NAMES)

    def test_rerun_byte_identical(self, mini_study, tmp_path):
        _, first = mini_study
        second = tmp_path / "again"
        run_mini(second)
        for name in CSV_NAMES:
            assert (second / name).read_bytes() == (first / name).read_bytes(), name

    def test_resume_skips_checkpointed_cells(self, mini_study, tmp_path):
        _, first = mini_study
        partial = tmp_path / "partial"
        (partial / "checkpoints").mkdir(parents=True)
        shutil.copy(first / "checkpoints" / "cell_busy_0.json",
                    partial / "checkpoints" / "cell_busy_0.json")
        computed = []
        run_mini(partial, progress=lambda cell: computed.append(cell.replicate))
        assert computed == [1]  # replicate 0 was loaded, not recomputed
        for name in CSV_NAMES:
            assert (partial / name).read_bytes() == (first / name).read_bytes(), name

    def test_full_resume_recomputes_nothing(self, mini_study):
        results, out = mini_study
        computed = []
        again = run_mini(out, progress=lambda cell: computed.append(cell))
        assert computed == []
        assert [c.to_json() for c in again.cells] == [c.to_json() for c in results.cells]

    def test_checkpoint_fingerprint_mismatch_rejected(self, mini_study, tmp_path):
        _, first = mini_study
        stale = tmp_path / "stale"
        shutil.copytree(first / "checkpoints", stale / "checkpoints")
        with pytest.raises(DataError, match="different study configuration"):
            run_study(mini_design(), MINI_SCENARIOS, 2, MINI_MCMC, seed=43,
                      out_dir=stale)

    def test_checkpoint_of_replicate_ppl_rejected(self, mini_study, tmp_path):
        # cells scored before the exact predictive loss carry the fingerprint
        # of the same settings without the estimator line
        _, first = mini_study
        config = StudyConfig(mini_design(), MINI_SCENARIOS, 2, MINI_MCMC, 42)
        text = config.fingerprint_text()
        assert "ppl exact\n" in text
        old = hashlib.blake2b(text.replace("ppl exact\n", "").encode(), digest_size=16).hexdigest()
        stale = tmp_path / "stale"
        (stale / "checkpoints").mkdir(parents=True)
        for path in (first / "checkpoints").glob("*.json"):
            record = json.loads(path.read_text())
            assert record["fingerprint"] == config.fingerprint()
            record["fingerprint"] = old
            (stale / "checkpoints" / path.name).write_text(json.dumps(record))
        with pytest.raises(DataError, match="different study configuration"):
            run_mini(stale)

    def test_worker_pool_matches_sequential(self, mini_study):
        results, _ = mini_study
        parallel = run_mini(None, workers=2)

        def strip_timing(cell):
            record = cell.to_json()
            record.pop("wall_time_s")
            return record

        assert [strip_timing(c) for c in parallel.cells] == [
            strip_timing(c) for c in results.cells]


class FirstWorkerDies:
    """In-process stand-in for a process pool whose first job loses its worker."""

    def __init__(self, max_workers):
        self.n_submitted = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        future = Future()
        if self.n_submitted == 0:
            future.set_exception(BrokenProcessPool("worker process died"))
        else:
            future.set_result(fn(*args))
        self.n_submitted += 1
        return future


class TestFailureHandling:
    def test_broken_pool_keeps_finished_cells(self, mini_study, tmp_path, monkeypatch):
        import secrsel.study as study_mod

        _, first = mini_study
        out = tmp_path / "broken"
        monkeypatch.setattr(study_mod, "ProcessPoolExecutor", FirstWorkerDies)
        with pytest.raises(BrokenProcessPool):
            run_mini(out, workers=2)
        assert not (out / "checkpoints" / "cell_busy_0.json").exists()
        assert (out / "checkpoints" / "cell_busy_1.json").exists()
        monkeypatch.undo()
        computed = []
        run_mini(out, progress=lambda cell: computed.append(cell.replicate))
        assert computed == [0]  # the finished cell is resumed, not recomputed
        for name in CSV_NAMES:
            assert (out / name).read_bytes() == (first / name).read_bytes(), name

    def test_failed_fit_marks_cell_incomplete(self, tmp_path, monkeypatch):
        import secrsel.study as study_mod

        real_fit = study_mod.fit

        def flaky_fit(model, data, cfg):
            if model is ModelId.M2:
                raise NumericalError("synthetic fit failure")
            return real_fit(model, data, cfg)

        monkeypatch.setattr(study_mod, "fit", flaky_fit)
        out = tmp_path / "failing"
        results = run_study(mini_design(), MINI_SCENARIOS, 1, MINI_MCMC, seed=1,
                            out_dir=out)
        assert len(results.failures) == 1
        sid, rep, message = results.failures[0]
        assert (sid, rep) == ("busy", 0)
        assert "fit M2" in message and "synthetic" in message
        assert results.complete_cells() == []
        _, rows = read_csv(out / "selections.csv", "selections")
        assert rows == []
        manifest = load_manifest(out)
        assert manifest["status"] == "incomplete"
        assert manifest["failures"][0]["scenario"] == "busy"
        with pytest.raises(ValueError):
            selection_proportions(results, ToolId.HM)

    def test_tool_failure_isolated(self, monkeypatch):
        import secrsel.study as study_mod

        def broken_hm(chain):
            raise NumericalError("synthetic estimator failure")

        monkeypatch.setattr(study_mod, "harmonic_mean", broken_hm)
        tools = (ToolId.HM, ToolId.WAIC1)
        config = StudyConfig(mini_design(), MINI_SCENARIOS, 1, MINI_MCMC, 7,
                             tools=tools)
        cell = evaluate_cell(config, MINI_SCENARIOS[0], 0)
        assert cell.ok
        assert cell.selected["hm"] == ""
        assert all(math.isnan(v) for v in cell.scores["hm"].values())
        assert set(cell.tool_errors) == {f"hm/{m.value}" for m in MODEL_ORDER}
        assert cell.selected["waic1"] in {m.value for m in MODEL_ORDER}


class TestAggregationArithmetic:
    def _fake_results(self, mses, selections):
        cells = []
        for rep, (mse_n, pick) in enumerate(zip(mses, selections)):
            cells.append(CellResult(
                scenario_id="s1", replicate=rep, status="ok", message="",
                dataset_seed=rep, truth={},
                scores={"hm": {m.value: 0.0 for m in MODEL_ORDER}},
                selected={"hm": pick}, tie={"hm": False}, tool_errors={},
                marglik_rows=[], criteria_rows=[],
                mse={"M1": {"N": mse_n}}, summaries={}, corr_rows=[],
                wall_time_s=0.0,
            ))
        return StudyResults(fingerprint="x", scenario_ids=["s1"],
                            n_sim=len(cells), tools=(ToolId.HM,), cells=cells)

    def test_average_rmse_hand_value(self):
        results = self._fake_results([1.0, 3.0], ["M1", "M1"])
        assert average_rmse(results, "s1", ModelId.M1, "N") == pytest.approx(
            math.sqrt(2.0), abs=1e-15)

    def test_proportions_hand_values(self):
        results = self._fake_results([1.0] * 10, ["M3"] * 7 + ["M1"] * 3)
        row = selection_proportions(results, ToolId.HM)[0]
        assert row["M3"] == pytest.approx(0.7)
        assert row["M1"] == pytest.approx(0.3)
        assert row["M2"] == 0.0 and row["M4"] == 0.0 and row["n"] == 10

    def test_undefined_selections_shrink_denominator(self):
        results = self._fake_results([1.0] * 4, ["M1", "", "M1", "M2"])
        row = selection_proportions(results, ToolId.HM)[0]
        assert row["n"] == 3
        assert row["M1"] == pytest.approx(2 / 3)
